"""Divided differences of the exponential e^{-it[x_0,...,x_q]}.

Four evaluation routes are provided:

* ``naive``   -- the defining sum over nodes (distinct inputs only);
* ``taylor``  -- mean-shifted series over complete homogeneous symmetric
                 polynomials; the reference oracle with a controlled
                 truncation criterion;
* ``pyramid`` -- recursion over complex 'effective energy differences',
                 one pyramid level per input;
* ``leibniz`` -- triangular product table doubled from a small seed time
                 step via the divided-difference Leibniz rule.

All routes agree to high relative accuracy for moderate q and |t| * spread.
The scaled quantity e0q = q!/(-it)^q * e^{-it[x]} lies in the closed unit
disc, which several tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DdConfig",
    "RepeatedInputsError",
    "ZeroDividedDifferenceError",
    "SeriesConvergenceError",
    "dd_exp",
    "dd_exp_naive",
    "dd_exp_taylor",
    "dd_exp_taylor_batch",
    "dd_exp_pyramid",
    "dd_exp_leibniz",
    "effective_energy_pyramid",
    "auto_doubling_depth",
    "small_tau_error",
    "dd_magnitude",
    "exp_prefactor",
    "series_order",
]

MAX_LEIBNIZ_ORDER = 64
SERIES_TOL = 1e-13


class RepeatedInputsError(ValueError):
    """Inputs too close for the naive formula; use taylor/pyramid/leibniz."""


class ZeroDividedDifferenceError(ArithmeticError):
    """The divided difference vanishes exactly; no effective energy exists."""


class SeriesConvergenceError(RuntimeError):
    """The Taylor-form series failed to converge within the term budget."""


@dataclass(frozen=True)
class DdConfig:
    """Evaluator selection: taylor (to ``SERIES_TOL``), naive, pyramid or
    leibniz (at ``auto_doubling_depth``)."""

    method: str = "taylor"


def _tie_tol(values: np.ndarray) -> float:
    """Inputs closer than 1e-9 * max(1, max |x|) count as repeated."""
    scale = float(np.max(np.abs(values))) if len(values) else 0.0
    return 1e-9 * max(1.0, scale)


def exp_prefactor(q: int, t: float) -> complex:
    """(-it)^q / q!, computed as a ratio product to avoid overflow."""
    pref = 1.0 + 0.0j
    for k in range(1, q + 1):
        pref *= (-1j * t) / k
    return pref


def dd_exp_naive(values, t: float) -> complex:
    """Defining sum: sum_j e^{-it x_j} / prod_{k != j} (x_j - x_k).

    The sum cancels down to t^q/q! from much larger terms, so it runs in
    extended precision where the platform provides it.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    if len(x) == 1:
        return complex(np.exp(-1j * t * x[0]))
    diff = x[:, None] - x[None, :]
    off = ~np.eye(len(x), dtype=bool)
    if np.min(np.abs(diff[off])) <= _tie_tol(x):
        raise RepeatedInputsError(
            "inputs repeat (or nearly repeat); the defining sum is ill-conditioned"
        )
    xl = x.astype(np.longdouble)
    diff = xl[:, None] - xl[None, :]
    np.fill_diagonal(diff, 1.0)
    denom = np.prod(diff, axis=1)
    phase = np.longdouble(t) * xl
    terms = (np.cos(phase) - 1j * np.sin(phase)) / denom
    return complex(np.sum(terms))


def series_order(amp: float, tol: float) -> int:
    """Smallest degree n whose tail cap amp^{n+1}/(n+1)! / (1 - amp/(n+2))
    is at most ``tol``: the truncation order of a Taylor-form series whose
    inputs lie within amp/|t| of their shift point."""
    n, bound = 0, 1.0
    budget = int(10 * (amp + 20)) + 64
    while True:
        n += 1
        bound *= amp / n
        if n + 2 > amp and bound * (amp / (n + 1)) / (1 - amp / (n + 2)) <= tol:
            return n
        if n > budget:
            raise SeriesConvergenceError(
                f"series needs more than {budget} terms (|t|*spread ~ {amp:.3g})"
            )


def dd_exp_taylor(values, t: float, tol: float = SERIES_TOL) -> complex:
    """Mean-shifted series oracle.

    Computes e^{-it xbar} * sum_n (-it)^{q+n}/(q+n)! * h_n(x - xbar) where
    h_n is the complete homogeneous symmetric polynomial; summation is
    compensated and stops once a rigorous bound on the remaining tail drops
    below ``tol`` relative to the accumulated value.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    q = len(x) - 1
    xbar = float(np.mean(x))
    y = x - xbar
    hsum = _hsum(y, t, tol)
    return complex(np.exp(-1j * t * xbar) * exp_prefactor(q, t) * hsum)


def _hsum(y: np.ndarray, t: float, tol: float) -> complex:
    """sum_n q! (-it)^n/(q+n)! * h_n(y) for mean-zero inputs y; |result| <= 1."""
    q = len(y) - 1
    ymax = float(np.max(np.abs(y))) if len(y) else 0.0
    if ymax == 0.0 or t == 0.0:
        return 1.0 + 0.0j
    A = abs(t) * ymax
    budget = int(10 * (q + A + 20)) + 2
    # profile[j] = h_n(y_0..y_j) for the current degree n
    profile = np.ones(q + 1, dtype=float)
    ratio = 1.0 + 0.0j
    acc = 1.0 + 0.0j  # n = 0 term
    comp = 0.0 + 0.0j
    bound = 1.0  # A^n / n!
    for n in range(1, budget):
        np.multiply(profile, y, out=profile)
        np.cumsum(profile, out=profile)
        ratio *= (-1j * t) / (q + n)
        term = ratio * profile[-1]
        # Neumaier compensation
        s = acc + term
        if abs(s) >= abs(term):
            comp += (acc - s) + term
        else:
            comp += (term - s) + acc
        acc = s
        bound *= A / n
        if n + 2 > A:
            tail = bound * (A / (n + 1)) / (1.0 - A / (n + 2))
            if tail <= tol * max(abs(acc + comp), 1e-30):
                return complex(acc + comp)
    raise SeriesConvergenceError(
        f"series did not converge within {budget} terms (q={q}, |t|*spread~{A:.3g})"
    )


def dd_exp_taylor_batch(seqs: np.ndarray, t: float, tol: float = SERIES_TOL) -> np.ndarray:
    """Vectorized Taylor-form evaluation over rows of equal length.

    ``seqs`` has shape (rows, q+1); returns e^{-it[row]} for every row.  The
    truncation order is ``series_order`` of the largest spread in the batch.
    For real t the per-degree coefficient alternates between purely real and
    purely imaginary, so the sum accumulates in two real arrays.
    """
    seqs = np.asarray(seqs, dtype=float)
    rows, width = seqs.shape
    q = width - 1
    xbar = seqs.mean(axis=1)
    out = np.exp(-1j * t * xbar)
    out *= exp_prefactor(q, t)
    if q == 0 or t == 0.0 or rows == 0:
        return out
    y = seqs - xbar[:, None]
    ymax = float(np.max(np.abs(y)))
    if ymax == 0.0:
        return out
    n_max = series_order(abs(t) * ymax, tol)
    profile = np.ones_like(y)
    acc_re = np.ones(rows)
    acc_im = np.zeros(rows)
    ratio = 1.0 + 0.0j
    for n in range(1, n_max + 1):
        np.multiply(profile, y, out=profile)
        np.cumsum(profile, axis=1, out=profile)
        ratio *= (-1j * t) / (q + n)
        h = profile[:, -1]
        if ratio.real != 0.0:
            acc_re += ratio.real * h
        if ratio.imag != 0.0:
            acc_im += ratio.imag * h
    out *= acc_re + 1j * acc_im
    return out


def effective_energy_pyramid(values, t: float) -> complex:
    """Apex of the effective-energy recursion over sorted inputs.

    The returned complex energy E satisfies
    e^{-it E} * (-it)^q / q! = e^{-it[x_0,...,x_q]}.  Inputs are sorted
    ascending so repeated values sit in contiguous blocks, whose parents are
    fixed by the equal-input rule instead of the log/sin formula.
    """
    if t == 0.0:
        raise ValueError("pyramid recursion requires t != 0")
    x = np.sort(np.asarray(values, dtype=float))
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    tie = _tie_tol(x)
    # each level divides by a difference of nearly equal children, so the
    # recursion runs in extended precision where the platform provides it
    xl = x.astype(np.longdouble)
    tl = np.longdouble(t)
    level = xl.astype(np.clongdouble)
    q = len(x) - 1
    for lev in range(1, q + 1):
        nxt = np.empty(q + 1 - lev, dtype=np.clongdouble)
        for i in range(q + 1 - lev):
            gap = xl[i + lev] - xl[i]
            left, right = level[i], level[i + 1]
            if gap <= tie:
                nxt[i] = 0.5 * (left + right)
                continue
            ebar = 0.5 * (right + left)
            debar = 0.5 * (right - left)
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                arg = 2 * lev * np.sin(tl * debar) / (tl * gap)
            if arg == 0 or not np.isfinite(complex(arg).real) or not np.isfinite(
                complex(arg).imag
            ):
                raise ZeroDividedDifferenceError(
                    "divided difference vanishes; effective energy undefined"
                )
            nxt[i] = ebar - np.log(arg) / (1j * tl)
        level = nxt
    return complex(level[0])


def dd_exp_pyramid(values, t: float) -> complex:
    """e^{-it[x]} through the effective-energy pyramid."""
    x = np.asarray(values, dtype=float)
    q = len(x) - 1
    if q == 0:
        return complex(np.exp(-1j * t * x[0]))
    if t == 0.0:
        return 0j
    eff = effective_energy_pyramid(x, t)
    return complex(np.exp(-1j * t * eff) * exp_prefactor(q, t))


def auto_doubling_depth(values, t: float) -> int:
    """Depth that balances the O(dt^2) seed error against rounding noise.

    The table's systematic error falls like 4^-l while per-pass rounding
    grows like 2^l * eps, so the sweet spot sits near
    l = 18.5 + (2/3) log2(|t| * ymax); measured accuracy there is ~1e-11.
    """
    x = np.asarray(values, dtype=float)
    ymax = float(np.max(np.abs(x - np.mean(x))))
    amp = abs(t) * ymax
    if amp == 0.0:
        return 0
    return max(0, math.ceil(18.5 + (2.0 / 3.0) * math.log2(amp)))


def _leibniz_seed(y: np.ndarray, dt: float) -> np.ndarray:
    """Seed table e_jk(dt) ~ prod_m e^{-i dt y_m/(k-j+1)} (upper triangular)."""
    q = len(y) - 1
    csum = np.concatenate(([0.0], np.cumsum(y)))
    e = np.zeros((q + 1, q + 1), dtype=complex)
    for j in range(q + 1):
        for k in range(j, q + 1):
            mean = (csum[k + 1] - csum[j]) / (k - j + 1)
            e[j, k] = np.exp(-1j * dt * mean)
    return e


def _leibniz_double(e: np.ndarray, fact_gap: np.ndarray) -> np.ndarray:
    """One time-doubling pass e(tau) -> e(2 tau) via the Leibniz rule."""
    gap = np.abs(np.subtract.outer(np.arange(e.shape[0]), np.arange(e.shape[0])))
    s = np.triu(e / fact_gap)
    prod = s @ s
    return np.triu(prod * fact_gap / (2.0 ** gap))


def dd_exp_leibniz(
    values,
    t: float,
    doubling_depth: int | None = None,
    return_tables: bool = False,
):
    """e^{-it[x]} via the time-doubling Leibniz table.

    Entries e_jk stay inside the closed unit disc through every pass; with
    ``return_tables`` the seed and each doubled table are also returned.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    q = len(x) - 1
    if q > MAX_LEIBNIZ_ORDER:
        raise ValueError(f"order q={q} exceeds the table guard {MAX_LEIBNIZ_ORDER}")
    xbar = float(np.mean(x))
    y = x - xbar
    depth = auto_doubling_depth(x, t) if doubling_depth is None else doubling_depth
    if depth < 0:
        raise ValueError("doubling depth must be nonnegative")
    dt = t / (1 << depth)
    e = _leibniz_seed(y, dt)
    tables = [e.copy()]
    idx = np.arange(q + 1)
    gap = np.abs(np.subtract.outer(idx, idx))
    fact_gap = np.vectorize(math.factorial, otypes=[float])(gap)
    for k in range(depth):
        e = _leibniz_double(e, fact_gap)
        # diagonal entries are exact unit phases; refreshing them avoids
        # modulus drift from repeated squaring
        np.fill_diagonal(e, np.exp(-1j * (dt * (1 << (k + 1))) * y))
        tables.append(e.copy())
    value = complex(np.exp(-1j * t * xbar) * exp_prefactor(q, t) * e[0, q])
    if return_tables:
        return value, tables
    return value


def small_tau_error(values, delta_t: float) -> float:
    """|e_0q(dt) - prod_m e^{-i dt x_m/(q+1)}| with the exact e_0q from the oracle.

    This is the seed error of the Leibniz table; it is O(dt^2 * spread^2).
    """
    x = np.asarray(values, dtype=float)
    if delta_t == 0.0:
        return 0.0
    y = x - np.mean(x)
    # both quantities share the pure mean phase, which drops out
    return float(abs(_hsum(y, delta_t, 1e-15) - 1.0))


def dd_magnitude(values, t: float) -> float:
    """|e^{-it[x]}|; bounded by |t|^q / q! (sharp at coincident inputs)."""
    return abs(dd_exp_taylor(values, t))


def dd_exp(values, t: float, config: DdConfig | None = None) -> complex:
    """Evaluate e^{-it[x]} with the configured method."""
    cfg = config or DdConfig()
    if cfg.method == "taylor":
        return dd_exp_taylor(values, t)
    if cfg.method == "naive":
        return dd_exp_naive(values, t)
    if cfg.method == "pyramid":
        return dd_exp_pyramid(values, t)
    if cfg.method == "leibniz":
        return dd_exp_leibniz(values, t)
    raise ValueError(f"unknown divided-difference method {cfg.method!r}")

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

Each method evaluates one row or a batch of rows: a 1-d ``values`` gives a
complex, a (rows, q+1) array one value per row.  The scalar ``dd_exp_taylor``
is the reference the others are tested against.  All routes agree to high
relative accuracy for moderate q and |t| * spread.  The scaled quantity
e0q = q!/(-it)^q * e^{-it[x]} lies in the closed unit disc, which several
tests rely on.
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
# dd_exp evaluates naive, pyramid and leibniz rows in chunks whose
# (q+1) x (q+1) tables hold at most this many entries
_CHUNK_ENTRIES = 1 << 14


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


def _as_rows(values) -> tuple[np.ndarray, bool]:
    """``values`` as a float (rows, q+1) array, and whether it was one 1-d row."""
    x = np.asarray(values, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise ValueError("values must be a nonempty 1-d sequence or (rows, q+1) array")
    return np.atleast_2d(x), x.ndim == 1


def _shaped(out: np.ndarray, one: bool):
    """A complex for a one-row call, else the per-row array."""
    return complex(out[0]) if one else out


def _tie_tol(x: np.ndarray) -> np.ndarray:
    """Per row: inputs closer than 1e-9 * max(1, max |x|) count as repeated."""
    return 1e-9 * np.maximum(1.0, np.max(np.abs(x), axis=1))


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
    x, one = _as_rows(values)
    if x.shape[1] == 1:
        return _shaped(np.exp(-1j * t * x[:, 0]), one)
    off = ~np.eye(x.shape[1], dtype=bool)
    gaps = np.abs(x[:, :, None] - x[:, None, :])[:, off]
    if np.any(np.min(gaps, axis=1) <= _tie_tol(x)):
        raise RepeatedInputsError(
            "inputs repeat (or nearly repeat); the defining sum is ill-conditioned"
        )
    xl = x.astype(np.longdouble)
    diff = xl[:, :, None] - xl[:, None, :]
    diff[:, ~off] = 1.0
    denom = np.prod(diff, axis=2)
    phase = np.longdouble(t) * xl
    terms = (np.cos(phase) - 1j * np.sin(phase)) / denom
    return _shaped(np.sum(terms, axis=1).astype(complex), one)


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


def effective_energy_pyramid(values, t: float):
    """Apex of the effective-energy recursion over sorted inputs.

    The returned complex energy E satisfies
    e^{-it E} * (-it)^q / q! = e^{-it[x_0,...,x_q]}.  Inputs are sorted
    ascending so repeated values sit in contiguous blocks, whose parents are
    fixed by the equal-input rule instead of the log/sin formula.
    """
    x, one = _as_rows(values)
    if t == 0.0:
        raise ValueError("pyramid recursion requires t != 0")
    x = np.sort(x, axis=1)
    tie = _tie_tol(x)[:, None]
    # each level divides by a difference of nearly equal children, so the
    # recursion runs in extended precision where the platform provides it
    xl = x.astype(np.longdouble)
    tl = np.longdouble(t)
    level = xl.astype(np.clongdouble)
    for lev in range(1, x.shape[1]):
        gap = xl[:, lev:] - xl[:, :-lev]
        left, right = level[:, :-1], level[:, 1:]
        far = ~(gap <= tie)
        debar = 0.5 * (right - left)[far]
        level = 0.5 * (left + right)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            arg = 2 * lev * np.sin(tl * debar) / (tl * gap[far])
            finite = np.isfinite(arg.astype(complex))
        if np.any(arg == 0) or not finite.all():
            raise ZeroDividedDifferenceError(
                "divided difference vanishes; effective energy undefined"
            )
        level[far] -= np.log(arg) / (1j * tl)
    return _shaped(level[:, 0].astype(complex), one)


def dd_exp_pyramid(values, t: float):
    """e^{-it[x]} through the effective-energy pyramid."""
    x, one = _as_rows(values)
    q = x.shape[1] - 1
    if q == 0:
        out = np.exp(-1j * t * x[:, 0])
    elif t == 0.0:
        out = np.zeros(len(x), dtype=complex)
    else:
        out = np.exp(-1j * t * effective_energy_pyramid(x, t)) * exp_prefactor(q, t)
    return _shaped(out, one)


def auto_doubling_depth(values, t: float):
    """Depth that balances the O(dt^2) seed error against rounding noise.

    The table's systematic error falls like 4^-l while per-pass rounding
    grows like 2^l * eps, so the sweet spot sits near
    l = 18.5 + (2/3) log2(|t| * ymax); measured accuracy there is ~1e-11.
    """
    x, one = _as_rows(values)
    amp = abs(t) * np.max(np.abs(x - x.mean(axis=1, keepdims=True)), axis=1)
    if not np.isfinite(amp).all():
        raise ValueError("doubling depth needs finite |t| * spread")
    with np.errstate(divide="ignore"):
        depth = np.ceil(18.5 + (2.0 / 3.0) * np.log2(amp))
    depth = np.where(amp == 0.0, 0, np.maximum(depth, 0)).astype(int)
    return int(depth[0]) if one else depth


def _leibniz_seed(y: np.ndarray, dt: float) -> np.ndarray:
    """Seed tables e_jk(dt) ~ prod_m e^{-i dt y_m/(k-j+1)} (upper triangular),
    one per row of ``y``."""
    rows, width = y.shape
    csum = np.concatenate((np.zeros((rows, 1)), np.cumsum(y, axis=1)), axis=1)
    j, k = np.triu_indices(width)
    e = np.zeros((rows, width, width), dtype=complex)
    e[:, j, k] = np.exp(-1j * dt * ((csum[:, k + 1] - csum[:, j]) / (k - j + 1)))
    return e


def dd_exp_leibniz(
    values,
    t: float,
    doubling_depth: int | None = None,
    return_tables: bool = False,
):
    """e^{-it[x]} via the time-doubling Leibniz table.

    Entries e_jk stay inside the closed unit disc through every pass.  Rows
    of equal doubling depth double together, one stacked matmul per pass;
    with ``return_tables`` (one row only) the seed and each doubled table
    are also returned.
    """
    x, one = _as_rows(values)
    q = x.shape[1] - 1
    if q > MAX_LEIBNIZ_ORDER:
        raise ValueError(f"order q={q} exceeds the table guard {MAX_LEIBNIZ_ORDER}")
    if return_tables and not one:
        raise ValueError("return_tables needs a single row")
    xbar = x.mean(axis=1)
    y = x - xbar[:, None]
    if doubling_depth is None:
        depth = auto_doubling_depth(x, t)
    elif doubling_depth < 0:
        raise ValueError("doubling depth must be nonnegative")
    else:
        depth = np.full(len(x), doubling_depth)
    idx = np.arange(q + 1)
    gap = np.abs(np.subtract.outer(idx, idx))
    fact_gap = np.vectorize(math.factorial, otypes=[float])(gap)
    pow_gap = 2.0 ** gap
    e0q = np.empty(len(x), dtype=complex)
    for d in np.unique(depth).tolist():
        rows = depth == d
        yd, dt = y[rows], t / (1 << d)
        e = _leibniz_seed(yd, dt)
        tables = [e[0].copy()]
        for k in range(d):
            # one time-doubling pass e(tau) -> e(2 tau) via the Leibniz rule
            s = np.triu(e / fact_gap)
            e = np.triu((s @ s) * fact_gap / pow_gap)
            # diagonal entries are exact unit phases; refreshing them avoids
            # modulus drift from repeated squaring
            e[:, idx, idx] = np.exp(-1j * (dt * (1 << (k + 1))) * yd)
            tables.append(e[0].copy())
        e0q[rows] = e[:, 0, q]
    a = np.exp(-1j * t * xbar) * exp_prefactor(q, t)
    # a * e0q in real arithmetic: the complex array multiply may fuse
    # multiply-adds, so its last bit would depend on the SIMD path
    value = np.empty(len(x), dtype=complex)
    value.real = a.real * e0q.real - a.imag * e0q.imag
    value.imag = a.real * e0q.imag + a.imag * e0q.real
    value = _shaped(value, one)
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


def dd_exp(values, t: float, config: DdConfig | None = None):
    """Evaluate e^{-it[x]} with the configured method: a complex for a 1-d
    ``values``, one value per row for a (rows, q+1) array.

    Taylor rows go to ``dd_exp_taylor_batch`` and one taylor row to the
    reference ``dd_exp_taylor``; the other methods take rows in chunks whose
    tables hold at most ``_CHUNK_ENTRIES`` entries.
    """
    method = (config or DdConfig()).method
    x = np.asarray(values, dtype=float)
    if method == "taylor":
        return dd_exp_taylor_batch(x, t) if x.ndim == 2 else dd_exp_taylor(x, t)
    fn = {"naive": dd_exp_naive, "pyramid": dd_exp_pyramid, "leibniz": dd_exp_leibniz}
    if method not in fn:
        raise ValueError(f"unknown divided-difference method {method!r}")
    if x.ndim != 2 or x.shape[1] == 0:
        return fn[method](x, t)
    out = np.empty(len(x), dtype=complex)
    step = max(1, _CHUNK_ENTRIES // x.shape[1] ** 2)
    for lo in range(0, len(x), step):
        out[lo : lo + step] = fn[method](x[lo : lo + step], t)
    return out

"""Divided differences of the exponential e^{-it[x_0,...,x_q]}.

Four evaluation routes are provided:

* ``naive``   -- the defining sum over nodes (distinct inputs only);
* ``taylor``  -- mean-shifted series over complete homogeneous symmetric
                 polynomials, truncated by ``series_order``;
* ``pyramid`` -- recursion over complex 'effective energy differences',
                 one pyramid level per input;
* ``leibniz`` -- triangular product table doubled from a small seed time
                 step via the divided-difference Leibniz rule.

Each method evaluates one row or a batch of rows: a 1-d ``values`` gives a
complex, a (rows, q+1) array one value per row.  One Taylor kernel
(``_taylor_row``, ``_add_input``, ``series_order``) serves ``divdiff``,
``series`` and ``lcu``.  All routes agree to high relative accuracy for
moderate q and |t| * spread.  The scaled quantity e0q = q!/(-it)^q *
e^{-it[x]} lies in the closed unit disc, which several tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DD_METHODS",
    "DdConfig",
    "RepeatedInputsError",
    "ZeroDividedDifferenceError",
    "CancellationError",
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

# the four routes by name, taylor first: DdConfig takes no other
DD_METHODS = ("taylor", "naive", "pyramid", "leibniz")
MAX_LEIBNIZ_ORDER = 64
SERIES_TOL = 1e-13
# dd_exp evaluates naive, pyramid and leibniz rows in chunks whose
# (q+1) x (q+1) tables hold at most this many entries
_CHUNK_ENTRIES = 1 << 14
# ``_within_bound`` refuses a naive or pyramid value above (1 + this) times
# |t|^q/q!: its error then exceeds the bound itself.  A tighter slack would
# refuse pyramid paths in ``evolve`` whose excess (6 % of the bound at q = 10
# on a 2-qubit case) leaves the result within 1e-9 of taylor.
_BOUND_SLACK = 1.0


class RepeatedInputsError(ValueError):
    """Inputs too close for the naive formula; use taylor/pyramid/leibniz."""


class ZeroDividedDifferenceError(ArithmeticError):
    """The divided difference vanishes exactly; no effective energy exists."""


class CancellationError(ArithmeticError):
    """A naive or pyramid divided difference breaks the Hermite-Genocchi
    bound |e^{-it[x_0..x_q]}| <= |t|^q/q!: cancellation has lost the value."""


class SeriesConvergenceError(RuntimeError):
    """The Taylor-form series cannot be summed in float64: |t|*spread is not
    finite, its terms overflow, or it needs more terms than the budget."""


@dataclass(frozen=True)
class DdConfig:
    """Evaluator selection: taylor (to ``SERIES_TOL``), naive, pyramid or
    leibniz (at ``auto_doubling_depth``); any other name is a ValueError."""

    method: str = "taylor"

    def __post_init__(self):
        if self.method not in DD_METHODS:
            raise ValueError(f"unknown divided-difference method {self.method!r}")


def _as_rows(values) -> tuple[np.ndarray, bool]:
    """``values`` as a float (rows, q+1) array, and whether it was one 1-d row."""
    x = np.asarray(values, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise ValueError("values must be a nonempty 1-d sequence or (rows, q+1) array")
    return np.atleast_2d(x), x.ndim == 1


def _shaped(out: np.ndarray, one: bool):
    """A complex for a one-row call, else the per-row array."""
    return complex(out[0]) if one else out


def _tie_tol(x: np.ndarray, t: float) -> np.ndarray:
    """Per row: inputs closer than 1e-9 * max(min(1, 1/|t|), max |x|) count as
    repeated; e^{-it[x]} depends on t * x alone, so a gap of 1/|t| is no tie."""
    return 1e-9 * np.maximum(1.0 / max(1.0, abs(t)), np.max(np.abs(x), axis=1))


def exp_prefactor(q: int, t: float) -> complex:
    """(-it)^q / q!, computed as a ratio product to avoid overflow."""
    pref = 1.0 + 0.0j
    for k in range(1, q + 1):
        pref *= (-1j * t) / k
    return pref


def _within_bound(magnitude: np.ndarray, q: int, t: float, method: str) -> None:
    """Raise CancellationError if a row's |value| (``magnitude``) exceeds the
    Hermite-Genocchi bound |t|^q/q! by more than ``_BOUND_SLACK`` times the
    bound: such a value is wrong by at least its excess."""
    bound = abs(exp_prefactor(q, t))
    worst = float(np.max(magnitude, initial=0.0))
    if not worst <= bound * (1.0 + _BOUND_SLACK):
        raise CancellationError(
            f"{method} divided difference {worst:.3g} exceeds the bound "
            f"|t|^q/q! = {bound:.3g} at q = {q}: cancellation lost the value"
        )


def dd_exp_naive(values, t: float) -> complex:
    """Defining sum: sum_j e^{-it x_j} / prod_{k != j} (x_j - x_k).

    The sum cancels down to t^q/q! from much larger terms, so it runs in
    extended precision where the platform provides it, and a value above
    the |t|^q/q! bound raises CancellationError.
    """
    x, one = _as_rows(values)
    if x.shape[1] == 1:
        return _shaped(np.exp(-1j * t * x[:, 0]), one)
    off = ~np.eye(x.shape[1], dtype=bool)
    gaps = np.abs(x[:, :, None] - x[:, None, :])[:, off]
    if np.any(np.min(gaps, axis=1) <= _tie_tol(x, t)):
        raise RepeatedInputsError(
            "inputs repeat (or nearly repeat); the defining sum is ill-conditioned"
        )
    xl = x.astype(np.longdouble)
    diff = xl[:, :, None] - xl[:, None, :]
    diff[:, ~off] = 1.0
    denom = np.prod(diff, axis=2)
    phase = np.longdouble(t) * xl
    terms = (np.cos(phase) - 1j * np.sin(phase)) / denom
    out = np.sum(terms, axis=1).astype(complex)
    _within_bound(np.abs(out), x.shape[1] - 1, t, "naive")
    return _shaped(out, one)


def series_order(amp: float, tol: float) -> int:
    """Smallest degree n whose tail cap amp^{n+1}/(n+1)! / (1 - amp/(n+2))
    is at most ``tol``: the truncation order of a Taylor-form series whose
    inputs lie within amp/|t| of their shift point, and the only rule that
    picks a Taylor degree."""
    if not math.isfinite(amp):
        raise SeriesConvergenceError(f"series needs a finite |t|*spread, got {amp}")
    n, bound = 0, 1.0
    budget = int(10 * (amp + 20)) + 64
    while True:
        n += 1
        bound *= amp / n
        if n + 2 > amp and bound * (amp / (n + 1)) / (1 - amp / (n + 2)) <= tol:
            return n
        if n > budget or math.isinf(bound):
            raise SeriesConvergenceError(
                f"series terms overflow float64 or do not converge (|t|*spread ~ {amp:.3g})"
            )


def _taylor_row(q: int, n_max: int, t: float) -> np.ndarray:
    """q!(-it)^n/(q+n)! for n <= n_max, by the ratio product."""
    row = np.ones(n_max + 1, dtype=complex)
    for n in range(1, n_max + 1):
        row[n] = row[n - 1] * (-1j * t) / (q + n)
    return row


def _add_input(h: np.ndarray, y) -> None:
    """Add the input y to the profile ``h`` in place, ascending in the degree
    on axis 0: h_n(..., y) = h_n(...) + y * h_{n-1}(..., y).  The profiles
    are small, so numpy's per-call cost sets the time: the loop walks paired
    views of ``h``, with no indexing per degree.  A complex ``h`` takes a
    complex y: numpy has no float-by-complex loop and would cast a float y
    on every degree, to the same bits."""
    for h_n, h_prev in zip(h[1:], h[:-1]):
        h_n += y * h_prev


def _taylor_sum(y: np.ndarray, t: float, tol: float) -> np.ndarray:
    """sum_n q!(-it)^n/(q+n)! * h_n(row) = q!/(-it)^q * e^{-it[row]} per row
    of ``y`` (rows, q+1), for rows near 0.  The profile h_0..h_{n_max}
    starts at h_0 = 1 and takes a row's inputs one at a time (Gupta, Barash
    & Hen, Comput. Phys. Commun. 254, 2020), to the ``series_order`` degree
    of the largest |t * y|.  It takes the inputs t * y, since h_n(t * y) =
    t^n h_n(y), against the coefficient row at t = 1: a huge |y| at a small
    |t * y| does not overflow.  The row starts at 1, so nothing underflows
    at large q; each coefficient is real or imaginary: two real products."""
    rows, width = y.shape
    q = width - 1
    ymax = float(np.max(np.abs(y))) if rows else 0.0
    if q == 0 or t == 0.0 or ymax == 0.0:
        return np.ones(rows, dtype=complex)
    n_max = series_order(abs(t) * ymax, tol)  # so t * y is finite
    h = np.zeros((n_max + 1, rows))
    h[0] = 1.0
    for col in (t * y).T:
        _add_input(h, col)
    r = _taylor_row(q, n_max, 1.0)
    return r.real @ h + 1j * (r.imag @ h)


def dd_exp_taylor_batch(seqs: np.ndarray, t: float, tol: float = SERIES_TOL) -> np.ndarray:
    """Taylor-form kernel over rows of equal length: for ``seqs`` (rows, q+1),
    e^{-it[row]} = e^{-it xbar} * (-it)^q/q! * ``_taylor_sum`` of row - xbar,
    with xbar the row mean.  The dropped tail is at most ``tol`` * |t|^q/q!."""
    seqs = np.asarray(seqs, dtype=float)
    with np.errstate(over="ignore"):  # an inf mean: ``series_order`` refuses it
        xbar = seqs.mean(axis=1)
    s = _taylor_sum(seqs - xbar[:, None], t, tol)
    return np.exp(-1j * t * xbar) * exp_prefactor(seqs.shape[1] - 1, t) * s


def dd_exp_taylor(values, t: float, tol: float = SERIES_TOL) -> complex:
    """e^{-it[x]} for one row: ``dd_exp_taylor_batch`` on a (1, q+1) array."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    return complex(dd_exp_taylor_batch(x[None, :], t, tol)[0])


def effective_energy_pyramid(values, t: float):
    """Apex of the effective-energy recursion over sorted inputs.

    The returned complex energy E satisfies
    e^{-it E} * (-it)^q / q! = e^{-it[x_0,...,x_q]}.  Inputs are sorted
    ascending so repeated values sit in contiguous blocks, whose parents are
    fixed by the equal-input rule instead of the log/sin formula.  An apex
    with |e^{-itE}| above 1, which puts the divided difference above the
    |t|^q/q! bound, raises CancellationError.
    """
    x, one = _as_rows(values)
    if t == 0.0:
        raise ValueError("pyramid recursion requires t != 0")
    x = np.sort(x, axis=1)
    tie = _tie_tol(x, t)[:, None]
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
    apex = level[:, 0].astype(complex)
    q = x.shape[1] - 1
    with np.errstate(over="ignore"):
        _within_bound(np.exp(t * apex.imag) * abs(exp_prefactor(q, t)), q, t, "pyramid")
    return _shaped(apex, one)


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
    """|e_0q(dt) - prod_m e^{-i dt x_m/(q+1)}| with e_0q = q!/(-i dt)^q *
    e^{-i dt [y]}, the Taylor kernel's normalized sum on the mean-zero
    inputs y (no (-i dt)^q/q! factor, which underflows at large q).

    This is the seed error of the Leibniz table; it is O(dt^2 * spread^2).
    """
    x = np.asarray(values, dtype=float)
    if delta_t == 0.0:
        return 0.0
    # both quantities share the pure mean phase, which drops out
    e0q = _taylor_sum((x - np.mean(x))[None, :], delta_t, 1e-15)[0]
    return float(abs(e0q - 1.0))


def dd_magnitude(values, t: float) -> float:
    """|e^{-it[x]}|; bounded by |t|^q / q! (sharp at coincident inputs)."""
    return abs(dd_exp_taylor(values, t))


def dd_exp(values, t: float, config: DdConfig | None = None):
    """Evaluate e^{-it[x]} with the configured method: a complex for a 1-d
    ``values``, one value per row for a (rows, q+1) array.

    Taylor rows go to ``dd_exp_taylor_batch`` and one taylor row to its
    one-row call ``dd_exp_taylor``; the other methods take rows in chunks
    whose tables hold at most ``_CHUNK_ENTRIES`` entries.
    """
    method = (config or DdConfig()).method
    x = np.asarray(values, dtype=float)
    if method == "taylor":
        return dd_exp_taylor_batch(x, t) if x.ndim == 2 else dd_exp_taylor(x, t)
    fn = dict(zip(DD_METHODS[1:], (dd_exp_naive, dd_exp_pyramid, dd_exp_leibniz)))[method]
    if x.ndim != 2 or x.shape[1] == 0:
        return fn(x, t)
    out = np.empty(len(x), dtype=complex)
    step = max(1, _CHUNK_ENTRIES // x.shape[1] ** 2)
    for lo in range(0, len(x), step):
        out[lo : lo + step] = fn(x[lo : lo + step], t)
    return out

"""Segmented evolution by the truncated off-diagonal series.

The evolution e^{-iHt} is split into r identical segments U_od e^{-i dt D0}.
Each segment's off-diagonal factor U_od is the sum over flip paths
(i_1, ..., i_q), q <= Q, of e^{-i dt [0, dE_1, ..., dE_q]} * prod_j d_{i_j}
deposited at the flipped basis state.  No ancillas are involved.

Every route prices and builds U_od once, by one ``_uod_operator`` call
given its support and segment count, as one of two operators with one
interface: ``apply`` on the states it acts on (``states``), and ``dense``.
``_segment`` builds it for one segment and applies it to each column of a
(2^N, k) block (a state is a one-column block) or makes it dense;
``evolve`` builds it for r segments and applies it once per segment after
the diagonal phase.  Neither asks which method is configured.

* taylor: the basis-state recursion ``_Recursion`` on the set R of states
  that ``_reach`` finds from the support, breadth first, with E and d_i
  read on R alone from the diagonals' support tables.  In Taylor form a
  path's divided difference is a fixed linear functional of its profile of
  complete homogeneous symmetric polynomials h_n, which one more flip
  extends linearly in the new state's energy.  With every energy shifted
  by one constant, all paths that end at the same state after q flips share
  one summed profile: O(Q * M * |R| * n_max) work, not O(M^Q * 2^N * n_max).
* naive, pyramid, leibniz: nonlinear in the path, so every path from the
  states ``_reach`` finds for the earlier segments is enumerated into
  ``_FlipRows``, the one form of an enumerated U_od (and of ``lcu``'s V):
  U_od = sum_f P_f diag(c_f) over the F <= min(P, 2^N) net flip masks f,
  P = sum_{q<=Q} M^q, merged from the (P, sources) table of ``_path_table``.

The one enumerator, ``_path_levels``, has one shape for ``series`` and
``lcu`` alike: every path of up to Q flips over all M terms, level by
level, skipping the paths that are zero at every source.  For the taylor
method it extends each kept path's profile from its parent's by the one
new input, with the recursion's ``_taylor_table``, so a level costs
O(kept paths * sources * n_max) whatever its length q; the other methods
evaluate each path's q + 1 inputs afresh.

Segment bookkeeping pins the per-segment expansion rate at ln 2: the input
bounds gamma_i are scaled up (never down) so the working total satisfies
gamma_total * |dt| = ln 2, which makes the normalization s = 2 - tail hold
by construction.  The plan's ``T`` keeps the raw, unscaled dimensionless
time that fixed the segment count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .divdiff import (
    SERIES_TOL,
    DdConfig,
    SeriesConvergenceError,
    _add_input,
    _taylor_row,
    dd_exp,
    series_order,
)
from .pmr import DENSE_THRESHOLD, GammaBounds, PmrHamiltonian, diagonal_energy, hopping_strength

__all__ = [
    "LN2",
    "SegmentPlan",
    "PathCoefficient",
    "WorkBudgetExceededError",
    "series_tail",
    "truncation_order",
    "partial_exp_sum",
    "plan_segments",
    "path_coefficient",
    "apply_diagonal",
    "apply_uod_truncated",
    "uod_matrix",
    "evolve",
]

LN2 = math.log(2.0)
DEFAULT_WORK_BUDGET = 1 << 28
_EVAL_CHUNK_ROWS = 1 << 20


class WorkBudgetExceededError(RuntimeError):
    """A run's priced work or memory would exceed its configured budget."""

    def __init__(self, product: int, budget: int, detail: str, work: str):
        super().__init__(f"{work} = {detail} = {product} exceeds budget {budget}")
        self.product = product
        self.budget = budget


def _price(product: int, budget: int, detail: str, work: str) -> None:
    """Refuse ``product`` units of ``work`` (spelled ``detail``) above ``budget``."""
    if product > budget:
        raise WorkBudgetExceededError(product, budget, detail, work)


@functools.lru_cache(maxsize=1024)
def series_tail(order: int) -> float:
    """Upper bound on sum_{q > order} x^q / q! at the segment rate x = ln 2,
    with a geometric remainder cap: once the next term's geometric series
    (ratio below x / (k + 1) < 1) is under 1e-17 of the sum, it is added.

    A pure function of the order, memoized: ``truncation_order`` asks for
    every order up to Q on each plan."""
    term = 1.0
    for k in range(1, order + 2):
        term *= LN2 / k  # x^{order+1} / (order+1)!
    terms = []
    k = order + 1
    total = 0.0
    while True:
        terms.append(term)
        total += term
        k += 1
        term *= LN2 / k
        if term / (1.0 - LN2 / (k + 1)) <= 1e-17 * total:
            terms.append(term / (1.0 - LN2 / (k + 1)))
            break
    return math.fsum(terms)


def truncation_order(epsilon_per_segment: float) -> int:
    """Smallest Q with sum_{q > Q} (ln 2)^q/q! <= epsilon_per_segment."""
    order = 0
    while series_tail(order) > epsilon_per_segment:
        order += 1
        if order > 10_000:
            raise ValueError("per-segment tolerance too small to satisfy")
    return order


def partial_exp_sum(x: float, order: int) -> float:
    """sum_{q <= order} x^q / q!, its terms summed by fsum."""
    terms, term = [1.0], 1.0
    for k in range(1, order + 1):
        term *= x / k
        terms.append(term)
    return math.fsum(terms)


@dataclass(frozen=True)
class SegmentPlan:
    """Derived evolution parameters for one run.

    ``gamma_total`` is the working (scaled) bound with
    gamma_total * |delta_t| = ln 2 for nontrivial plans; ``T`` is the raw
    dimensionless time |t| * sum_i gamma_i of the supplied bounds;
    ``gamma_scale`` maps supplied per-term bounds to working ones.
    """

    t_total: float
    epsilon: float
    gamma_total: float
    T: float
    r: int
    delta_t: float
    Q: int
    tail_bound: float
    s: float
    gamma_scale: float = 1.0
    diagonal_only: bool = False

    def working_gamma(self, g: GammaBounds) -> np.ndarray:
        return self.gamma_scale * np.asarray(g.gamma, dtype=float)


def plan_segments(
    h: PmrHamiltonian,
    g: GammaBounds,
    t: float,
    epsilon: float,
    q_override: int | None = None,
) -> SegmentPlan:
    """Choose r, dt and the truncation order Q for target error epsilon.

    Q is the smallest order whose ln(2)-tail is at most epsilon / r.  A zero
    time, an empty off-diagonal part or all-zero bounds give the trivial
    diagonal-only plan (r = 1, Q = 0).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if len(g.gamma) != h.m:
        raise ValueError(f"got {len(g.gamma)} bounds for M={h.m} terms")
    T = abs(t) * g.gamma_total
    if not math.isfinite(T):
        raise ValueError(
            f"T = |t| * gamma_total = {T} is not finite (the bounds overflow float64)"
        )
    if t == 0.0 or h.m == 0 or g.gamma_total == 0.0:
        return SegmentPlan(
            t_total=t, epsilon=epsilon, gamma_total=g.gamma_total, T=T,
            r=1, delta_t=t, Q=0, tail_bound=0.0, s=1.0,
            gamma_scale=1.0, diagonal_only=True,
        )
    r = max(1, math.ceil(T / LN2 - 1e-12))
    delta_t = t / r
    order = truncation_order(epsilon / r) if q_override is None else int(q_override)
    tail = series_tail(order)
    s = partial_exp_sum(LN2, order)
    scale = LN2 / (g.gamma_total * abs(delta_t))
    return SegmentPlan(
        t_total=t, epsilon=epsilon, gamma_total=g.gamma_total * scale, T=T,
        r=r, delta_t=delta_t, Q=order, tail_bound=tail, s=s,
        gamma_scale=scale, diagonal_only=False,
    )


@dataclass(frozen=True)
class PathCoefficient:
    """alpha includes the segment's diagonal phase e^{-i dt E_z}; the
    pipeline deposits beta * gamma_path * |dt|^q / q! and leaves that phase
    to the separate diagonal pass."""

    alpha: complex
    beta: complex
    chi: float
    phi: float


def path_coefficient(
    h: PmrHamiltonian,
    g: GammaBounds,
    plan: SegmentPlan,
    z: int,
    path: tuple[int, ...],
    config: DdConfig | None = None,
) -> PathCoefficient:
    """Coefficient of one flip path, its 0-based term indices applied left
    to right, starting from basis state z; refuses a path longer than Q, a
    source outside [0, 2^N) or a term outside [0, M)."""
    q = len(path)
    if q > plan.Q:
        raise ValueError(f"path length {q} exceeds plan order Q={plan.Q}")
    if not 0 <= z < 1 << h.n_qubits:
        raise ValueError(f"basis index {z} out of range")
    for i in path:
        if not 0 <= i < h.m:
            raise IndexError(f"term index {i} out of range for M={h.m}")
    e_z = diagonal_energy(h, z)
    states, cur = [], z  # the basis states visited after each flip
    for i in path:
        cur ^= h.terms[i][1].x_mask
        states.append(cur)
    inputs = [0.0] + [diagonal_energy(h, s) - e_z for s in states]
    dd = dd_exp(inputs, plan.delta_t, config)
    dprod = 1.0 + 0.0j
    for i, s in zip(path, states):
        dprod *= hopping_strength(h, i, s)
    working = plan.working_gamma(g)
    gam_path = float(np.prod(working[list(path)])) if q else 1.0
    weight = gam_path * abs(plan.delta_t) ** q / math.factorial(q)
    if weight == 0.0:
        if abs(dprod) > 0.0:
            raise ValueError("zero bound on a path with nonzero hopping product")
        beta = 0j
    else:
        beta = dd * dprod / weight
    mag = abs(beta)
    chi = float(np.angle(beta)) if mag > 0.0 else 0.0
    phi = float(np.arccos(min(mag, 1.0)))
    alpha = np.exp(-1j * plan.delta_t * e_z) * dd * dprod
    return PathCoefficient(alpha=complex(alpha), beta=complex(beta), chi=chi, phi=phi)


def apply_diagonal(h: PmrHamiltonian, state: np.ndarray, delta_t: float) -> np.ndarray:
    """Multiply each amplitude by e^{-i dt E_z}; exactly norm-preserving."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (1 << h.n_qubits,):
        raise ValueError("state length must be 2^N")
    return state * np.exp(-1j * delta_t * h.diagonal_values())


def _check_rows_budget(h: PmrHamiltonian, plan: SegmentPlan, budget: int, applies: int):
    """Refuse ``applies`` applies of flip rows in all above ``budget``: one
    touches F <= min(P, 2^N) rows of 2^N entries, P = sum_{q<=Q} M^q."""
    n = h.n_qubits
    rows = min(sum(h.m ** q for q in range(plan.Q + 1)), 1 << n)
    _price(applies * rows << n, budget, f"{applies} * {rows} * 2^{n}",
           "applies * min(P, 2^N) * 2^N")


def _norm(x: np.ndarray) -> float:
    """2-norm of x summed in numpy's fixed pairwise order; ``np.linalg.norm``
    is a BLAS dot, whose sum order depends on the BLAS thread count."""
    return float(np.sqrt(np.sum(x.real * x.real + x.imag * x.imag)))


_TERMS_OVERFLOWED = (
    "series result is not finite: its terms overflowed float64 "
    "(|t| * spread of the diagonal energies too large)"
)
# a diagonal-only run has no series terms
_DIAGONAL_OVERFLOWED = (
    "diagonal-only result is not finite: the diagonal energies, "
    "or |t| times them, overflowed float64"
)


def _require_finite(out: np.ndarray, message: str = _TERMS_OVERFLOWED) -> np.ndarray:
    """``out`` itself, or SeriesConvergenceError(``message``) if any entry is
    inf or NaN."""
    if not np.isfinite(out).all():
        raise SeriesConvergenceError(message)
    return out


def _taylor_table(
    energies: np.ndarray, dt: float, order: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """The Taylor kernel's set-up for paths of up to ``order`` flips over
    ``energies``: the shift c, the midpoint of the energies; the shifted
    energies y = E - c, so |y| is at most half their spread; and the table
    pref[q, n] = (-i dt)^{q+n}/(q+n)! for q <= ``order`` and n up to the
    degree ``series_order`` picks for |dt| * spread / 2.  Then
    e^{-i dt [E_0, ..., E_q]} = e^{-i dt c} * sum_n pref[q, n] h_n(y_0..y_q)."""
    lo, hi = (energies.min(), energies.max()) if len(energies) else (0.0, 0.0)
    c = 0.5 * (lo + hi)
    amp = abs(dt) * (hi - lo) / 2
    n_max = series_order(amp, SERIES_TOL) if amp > 0.0 else 0
    coeffs = _taylor_row(0, order + n_max, dt)  # (-i dt)^j / j!
    return c, energies - c, coeffs[np.add.outer(np.arange(order + 1), np.arange(n_max + 1))]


def _path_levels(h: PmrHamiltonian, plan: SegmentPlan, sources: np.ndarray, config: DdConfig):
    """Per level q = 1..Q, the flip masks of all M^q paths (i_1..i_q) over
    the M terms, in lexicographic order; the positions of the kept paths in
    that order; their destinations z ^ mask (kept, sources); and their
    coefficients e^{-i dt [0, E_{z_1} - E_z, ...]} * prod_j d_{i_j}(z_j).
    A path whose hopping product is zero at every source is dropped, and so
    are its extensions; a level's arrays are copied down to the kept paths
    only when it drops one.

    Only the divided differences depend on the method.  The taylor method
    carries one real profile h_0..h_{n_max} of the shifted energies
    y = E - c per kept path and source, (n_deg, kept, sources): a path's
    profile is its parent's plus one input, the new state's y, so a level
    costs one ``_add_input`` and one product with the ``_taylor_table`` row,
    times e^{-i dt (c - E_z)} per source.  The other methods are nonlinear in
    the path: they carry its q + 1 energy differences from the source and
    make one ``dd_exp`` call per level."""
    energies = h.diagonal_values()
    d_tab = np.array([h.term_values(i) for i in range(h.m)])
    masks = h.x_masks()
    e_src = energies[sources]
    taylor = config.method == "taylor"
    if taylor:
        c, y, pref = _taylor_table(energies, plan.delta_t, plan.Q)
        # each coefficient (-i dt)^j/j! is real or imaginary: two real rows
        parts = np.stack((pref.real, pref.imag), axis=1)
        shift = np.exp(-1j * plan.delta_t * (c - e_src))
        prof = np.zeros((pref.shape[1], 1, len(sources)))
        prof[0] = 1.0
        _add_input(prof, y[sources])
    else:
        seq = np.zeros((1, len(sources), 1))
    flips = keep = np.zeros(1, dtype=np.int64)
    dprod = np.ones((1, len(sources)), dtype=complex)
    for q in range(1, plan.Q + 1):
        parent, child = np.divmod(np.arange(len(keep) * h.m), h.m)
        flips = np.bitwise_xor.outer(flips, masks).reshape(-1)
        keep = keep[parent] * h.m + child
        dest = flips[keep][:, None] ^ sources
        dprod = dprod[parent] * d_tab[child[:, None], dest]
        live = np.flatnonzero(np.any(dprod != 0, axis=1))
        if len(live) < len(keep):
            parent, keep, dest, dprod = parent[live], keep[live], dest[live], dprod[live]
        if taylor:
            prof = np.take(prof, parent, axis=1)  # C-ordered, unlike prof[:, parent]
            _add_input(prof, y[dest])
            dd = np.empty(dest.shape, dtype=complex)
            dd.real, dd.imag = (parts[q] @ prof.reshape(len(prof), -1)).reshape(2, *dest.shape)
            dd *= shift
        else:
            seq = np.concatenate((seq[parent], (energies[dest] - e_src)[..., None]), axis=2)
            dd = dd_exp(seq.reshape(-1, q + 1), plan.delta_t, config).reshape(dest.shape)
        dd *= dprod
        yield flips, keep, dest, dd


def _path_table(
    h: PmrHamiltonian, plan: SegmentPlan, config: DdConfig, sources=None
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative flip masks (P,) and coefficients (P, |sources|) of all
    P = sum_{q<=Q} M^q paths of up to Q flips, the empty path first, then
    level by level in lexicographic order: column j holds each path's
    ``_path_levels`` coefficient from ``sources[j]`` (default all 2^N
    states, so column z is source z).  Each level goes into the one
    preallocated table, never held twice."""
    sources = np.arange(1 << h.n_qubits) if sources is None else sources
    flips = np.zeros(sum(h.m ** q for q in range(plan.Q + 1)), dtype=np.int64)
    table = np.zeros((len(flips), len(sources)), dtype=complex)
    table[0] = 1.0  # the empty path
    lo = 1  # the first row of the level
    for cum, keep, _, coeff in _path_levels(h, plan, sources, config):
        flips[lo:lo + len(cum)] = cum
        table[lo + keep] = coeff
        lo += len(cum)
    return flips, table


class _FlipRows:
    """A sum of generalized permutations U = sum_f P_f diag(c_f), one row
    c_f(z) per distinct flip mask f, so (U x)[z ^ f] gets c_f(z) x[z] from
    every f; it acts on all 2^N ``states``.  The input rows hold values from
    the ``support`` states (a boolean mask; default all).  Rows that share a
    mask are summed in their given order by ``np.bincount``, in column
    blocks of at most ``_EVAL_CHUNK_ROWS`` entries, then scattered once into
    2^N columns; ``index`` holds z ^ f per row and ``rows`` c_f(z) by z."""

    states = slice(None)

    def __init__(self, flips: np.ndarray, rows: np.ndarray, support: np.ndarray | None = None):
        masks, group = np.unique(flips, return_inverse=True)
        self.rows = merged = np.empty((len(masks), rows.shape[1]), dtype=complex)
        width = max(1, _EVAL_CHUNK_ROWS // len(rows))
        for lo in range(0, rows.shape[1], width):
            block = np.s_[:, lo:lo + width]
            n = merged[block].shape[1]
            index = (group[:, None] * n + np.arange(n)).reshape(-1)  # every mask occurs
            for part, value in ((merged.real, rows.real), (merged.imag, rows.imag)):
                part[block] = np.bincount(index, value[block].ravel()).reshape(-1, n)
        if support is not None:
            self.rows = np.zeros((len(masks), len(support)), dtype=complex)
            self.rows[:, support] = merged
        dim = self.rows.shape[1]
        index_type = np.min_scalar_type(dim - 1)
        self.index = np.arange(dim, dtype=index_type) ^ masks[:, None].astype(index_type)
        self._gathered = np.take_along_axis(self.rows, self.index, axis=1)  # c_f(z ^ f)

    def _sum(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """sum_f rows_f(z) x[z ^ f] for x of shape (2^N,) or (2^N, k)."""
        return np.sum(rows.reshape(rows.shape + (1,) * (x.ndim - 1)) * x[self.index], axis=0)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """U x = sum_f c_f(z ^ f) x[z ^ f]."""
        return self._sum(self._gathered, x)

    def apply_dagger(self, x: np.ndarray) -> np.ndarray:
        """U' x = sum_f conj(c_f(z)) x[z ^ f]."""
        return self._sum(self.rows.conj(), x)

    def dense(self) -> np.ndarray:
        """The 2^N x 2^N matrix, U[z ^ f, z] = c_f(z)."""
        dim = self.rows.shape[1]
        out = np.zeros((dim, dim), dtype=complex)
        out[self.index, np.arange(dim)] = self.rows
        return out


def _reach(h: PmrHamiltonian, support: np.ndarray, flips: int) -> np.ndarray:
    """The boolean mask of the ``support`` states and every state reachable
    from them within ``flips`` flips whose hopping value d_i at the
    post-flip state is nonzero.  It grows breadth first: each step flips
    the frontier, the states found last, by every mask, and the distinct
    candidates not yet reached whose ``h.hop_flags`` entry is set are the
    next frontier, in O(M * |frontier|) work; ``flips`` = 0 is the support."""
    if not flips:
        return support
    reach, front = support.copy(), np.flatnonzero(support)
    hop, masks, terms = h.hop_flags, h.x_masks()[:, None], np.arange(h.m)[:, None]
    for _ in range(flips):
        if not len(front):
            break
        cand = front ^ masks
        front = np.unique(cand[hop[terms, cand] & ~reach[cand]])
        reach[front] = True
    return reach


class _Recursion:
    """U_od by the basis-state recursion over the reachable set R.

    R, ``states``, is ``_reach`` of the support within ``flips`` flips.  The
    G terms that hop inside R, ``terms``, keep in ascending order their
    source positions ``src_pos`` (G, |R|), R ^ mask_i searched in R, and
    values d_i at R ``coef`` (G, |R|, 1); position |R| points at a zero row.
    E and d_i are read on R alone, by ``h.values_at``.  The shifted
    energies y = E - c and the table ``pref`` come from ``_taylor_table``
    over the energies on R.  ``y`` is held complex: the sweep adds it to
    complex profiles, and one cast here replaces numpy's cast of a float y
    on every degree step, with the same bits.
    """

    def __init__(self, h: PmrHamiltonian, plan: SegmentPlan, support: np.ndarray, flips: int):
        self.dim = 1 << h.n_qubits
        reach = _reach(h, support, flips)
        self.states = np.flatnonzero(reach)
        src = self.states ^ h.x_masks()[:, None]
        inside = reach[src]
        src_pos = np.where(inside, np.searchsorted(self.states, src), len(self.states))
        values = h.values_at(self.states)
        coef = np.where(inside, values[1:], 0.0)
        self.terms = np.flatnonzero(np.any(coef != 0, axis=1))
        self.src_pos = src_pos[self.terms]
        self.coef = coef[self.terms, :, None]
        _, y, self.pref = _taylor_table(values[0].real, plan.delta_t, plan.Q)
        self.lift = np.exp(1j * plan.delta_t * y[:, None])  # e^{i dt y_z}: a source's weight
        self.y = y.astype(complex)[:, None]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """U_od x for x (|R|,) or (|R|, k) on R: the empty path plus the
        ``sweep`` from each source z weighted e^{i dt y_z}."""
        block = x if x.ndim == 2 else x[:, None]
        out = block.copy()  # the empty path
        self.sweep(out, self.lift * block)
        return out.reshape(x.shape)

    def dense(self) -> np.ndarray:
        """The 2^N x 2^N matrix of ``apply``: U_od between the states of R,
        zero in every other row and column."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[np.ix_(self.states, self.states)] = self.apply(np.eye(len(self.states), dtype=complex))
        return out

    def sweep(self, out: np.ndarray, start: np.ndarray) -> None:
        """Add the flip-path sums for q = 1..Q to ``out`` (|R|, k) in place.

        ``start`` weights each source; a path from source z deposits
        start[z] * e^{-i dt [y_z, y_{z_1}, ..., y_{z_q}]} * prod_j d_{i_j}.
        Every path ending at the same state after q flips shares one profile
        P[n] = sum of weight * prod d * h_n(y along the path), so one flip
        is one stacked gather of ``prof`` at ``src_pos`` times ``coef``, summed over
        the term axis in ascending term order, followed by the kernel's
        input-addition step with the new state's y; the level then deposits
        as one product pref[q] @ level.  The gather's temporary holds
        n_deg * G * |R| * k entries, so terms go in groups of at most
        ``_EVAL_CHUNK_ROWS`` entries (at least one term per group); each
        group's sum starts from the running level, so the grouping does not
        change a bit of the result.
        """
        n_deg = self.pref.shape[1]
        n_rows, k = out.shape
        n_terms = len(self.src_pos)
        if n_terms == 0:
            return
        step = max(1, _EVAL_CHUNK_ROWS // max(1, n_deg * n_rows * k))
        prof = np.zeros((n_deg, n_rows + 1, k), dtype=complex)
        nxt = np.zeros_like(prof)  # row |R| of both stays zero
        prof[0, :n_rows] = start
        _add_input(prof[:, :n_rows], self.y)
        for q in range(1, self.pref.shape[0]):
            level = nxt[:, :n_rows]
            for lo in range(0, n_terms, step):
                part = np.take(prof, self.src_pos[lo:lo + step], axis=1)
                part *= self.coef[lo:lo + step]
                if lo:
                    part[:, 0] += level
                part.sum(axis=1, out=level)
            _add_input(level, self.y)
            out += (self.pref[q] @ level.reshape(n_deg, -1)).reshape(n_rows, k)
            prof, nxt = nxt, prof


def _uod_operator(
    h: PmrHamiltonian, plan: SegmentPlan, config: DdConfig, support: np.ndarray,
    segments: int, budget: int,
):
    """U_od for ``segments`` segments from the ``support`` states, priced and
    built once for the configured method, with ``apply`` on the states it
    acts on (``states``) and ``dense``.  The taylor recursion is priced
    Q * M * 2^N for its set-up tables, built on R, the ``_reach`` of the
    support within ``segments`` * Q flips, and its sweeps are priced
    ``segments`` * Q * M * |R|.  The other methods are priced M^Q * 2^N for
    the enumeration and ``segments`` applies of the rows, then enumerate
    every path from the ``_reach`` of the support within (``segments`` - 1)
    * Q flips, the states those segments can feed, into ``_FlipRows`` on
    all 2^N states."""
    n, flips = h.n_qubits, segments * plan.Q
    if config.method == "taylor":
        _price(plan.Q * h.m << n, budget, f"{plan.Q} * {h.m} * 2^{n}",
               "recursion work Q * M * 2^N")
        op = _Recursion(h, plan, support, flips)
        size = len(op.states)
        _price(flips * h.m * size, budget, f"{segments} * {plan.Q} * {h.m} * {size}",
               "r * recursion work Q * M * |R|")
        return op
    _price(h.m ** plan.Q << n, budget, f"{h.m}^{plan.Q} * 2^{n}", "path work M^Q * 2^N")
    _check_rows_budget(h, plan, budget, segments)
    sources = _reach(h, support, flips - plan.Q)
    return _FlipRows(*_path_table(h, plan, config, np.flatnonzero(sources)), sources)


# a non-finite series result raises SeriesConvergenceError in
# ``_require_finite``; numpy's warnings on the way would only repeat it
_quiet = np.errstate(over="ignore", invalid="ignore")


@_quiet
def _segment(
    h: PmrHamiltonian, g: GammaBounds, plan: SegmentPlan, block: np.ndarray | None,
    config: DdConfig | None, work_budget: int,
) -> np.ndarray:
    """Truncated U_od applied to each column of ``block`` (2^N, k), or for
    ``block`` None its dense matrix: priced, built once from the block's
    nonzero rows (every state for the matrix) by ``_uod_operator``, then
    applied or made dense."""
    if len(g.gamma) != h.m:
        raise ValueError(f"got {len(g.gamma)} bounds for M={h.m} terms")
    dim = 1 << h.n_qubits
    support = np.ones(dim, dtype=bool) if block is None else np.any(block != 0, axis=1)
    op = _uod_operator(h, plan, config or DdConfig(), support, 1, work_budget)
    if block is None:
        return _require_finite(op.dense())
    out = np.zeros_like(block)
    out[op.states] = op.apply(block[op.states])
    return _require_finite(out)


def apply_uod_truncated(
    h: PmrHamiltonian,
    g: GammaBounds,
    plan: SegmentPlan,
    state: np.ndarray,
    config: DdConfig | None = None,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> np.ndarray:
    """Apply the truncated off-diagonal segment factor to a state vector,
    a one-column block of ``_segment``."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (1 << h.n_qubits,):
        raise ValueError("state length must be 2^N")
    return _segment(h, g, plan, state[:, None], config, work_budget)[:, 0]


def uod_matrix(
    h: PmrHamiltonian,
    g: GammaBounds,
    plan: SegmentPlan,
    config: DdConfig | None = None,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> np.ndarray:
    """Dense matrix of the truncated off-diagonal segment factor (small N):
    ``dense`` of the operator built on every state, the taylor recursion
    applied to the identity or the flip rows scattered into the matrix."""
    if h.n_qubits > DENSE_THRESHOLD:
        raise ValueError(f"dense segment matrix limited to N <= {DENSE_THRESHOLD}")
    return _segment(h, g, plan, None, config, work_budget)


@_quiet
def evolve(
    h: PmrHamiltonian,
    g: GammaBounds,
    state: np.ndarray,
    t: float,
    epsilon: float,
    config: DdConfig | None = None,
    work_budget: int = DEFAULT_WORK_BUDGET,
    q_override: int | None = None,
) -> np.ndarray:
    """Run r segments of diagonal phase followed by the truncated U_od.

    Diagonal-only Hamiltonians evolve exactly in one shot.  Otherwise U_od
    is priced and built once by ``_uod_operator`` for r segments from the
    state's support, and each segment applies it after the diagonal phase,
    on the states it acts on: the taylor recursion on every state the r
    segments can reach, the other methods' F <= min(P, 2^N) flip rows,
    P = sum_{q<=Q} M^q, enumerated from every state the first r - 1
    segments can reach, on all 2^N states.  The work budget prices all r
    segments before any path is evaluated: the recursion's on the reachable
    set R; for the other methods, one enumeration M^Q * 2^N and r applies
    of the rows.
    """
    state = np.asarray(state, dtype=complex)
    plan = plan_segments(h, g, t, epsilon, q_override=q_override)
    if plan.diagonal_only:
        return _require_finite(apply_diagonal(h, state, t), _DIAGONAL_OVERFLOWED)
    if state.shape != (1 << h.n_qubits,):
        raise ValueError("state length must be 2^N")
    op = _uod_operator(h, plan, config or DdConfig(), state != 0, plan.r, work_budget)
    phases = np.exp(-1j * plan.delta_t * h.diagonal_values()[op.states])
    sub = state[op.states]
    for _ in range(plan.r):
        sub = op.apply(phases * sub)
    out = np.zeros_like(state)
    out[op.states] = sub
    return _require_finite(out)

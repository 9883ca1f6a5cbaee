"""Ancilla-level emulation of the LCU + oblivious-amplitude-amplification circuit.

The circuit's ancilla is Q path registers of dimension M+1, holding a flip
path as its term digits followed by empty registers, plus one qubit k
selecting the phase pair.  No other register pattern ever carries
amplitude, so the composite stores the 2^N system once per (path, k):
2 * sum_{q<=Q} M^q blocks, not (M+1)^Q * 2.  The circuit per
segment is the diagonal phase on the system followed by A = -W R W' R W
with W = B' U_C B, where B prepares the LCU weight state and U_C applies,
conditioned on the ancilla, a diagonal phase pair and the path's bit flips.

``evolve_lcu`` plans once and runs each segment on the system register
alone.  With V = <0|W|0>, the ancilla-zero block of A is exactly
3V - 4VV'V (Berry, Childs, Cleve, Kothari & Somma, PRL 114, 090502, 2015).
B|0> is the real weight state psi0, with psi0_a^2 = w_p / 2s on both k of
path p and weight w_p = gamma_path |dt|^q / q!, so
V = (1/s) sum_p w_p b_p(z) P_p, with P_p the path's flip and b_p the mean of
its phase pair: the path's coefficient over w_p at exact phases, where
V = U_od / s, and the mean of the two rounded phases at b bits.  Paths that
share a flip mask f merge into one row c_f(z), which leaves
F <= min(P, 2^N) rows, and V x = sum_f (c_f x)[z ^ f],
V' x = sum_f conj(c_f) x[z ^ f]: the ``series._FlipRows`` form of an
enumerated segment.  Every refusal is ``series._price``'s
``WorkBudgetExceededError``, as in ``series``.

The composite emulator (``CompositeState``, ``apply_B``, ``apply_U_C``,
``apply_W``, ``apply_reflection``, ``oaa_segment``) carries the whole
ancilla x system state through the circuit.  It is the reference that the
system-register segment is checked against; no run goes through it.

Everything is plain state-vector arithmetic, and no operator is
materialized densely.  Each SegmentOperators keeps the path table it
shares with ``series`` (``series._path_table``: every path of up to Q
flips over all M terms; a path zero at every source is not evaluated) and
the path weights, and ``flip_rows`` builds V at any precision from them.
beta = coefficient / w_p and its phase pair are formed only for quantized
phases and for the composite reference.  That reference's psi0 is built on
first use from the same weights as V, and its phase pairs by the same
``_phase_pair`` split cos(phi) e^{i chi} = (e^{i(chi+phi)} + e^{i(chi-phi)}) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .divdiff import DdConfig
from .oracle import DenseOracle
from .pmr import GammaBounds, PmrHamiltonian
from .series import (_DIAGONAL_OVERFLOWED, DEFAULT_WORK_BUDGET, LN2, SegmentPlan,
                     _check_rows_budget, _FlipRows, _norm, _path_table, _price, _quiet,
                     _require_finite, apply_diagonal, partial_exp_sum, plan_segments)

__all__ = [
    "AncillaLayout",
    "CompositeState",
    "LcuConfig",
    "SegmentDiagnostics",
    "apply_B",
    "apply_U_C",
    "apply_reflection",
    "apply_W",
    "oaa_segment",
    "system_segment",
    "evolve_lcu",
    "lcu_weights",
]

DEFAULT_COMPOSITE_BUDGET = 1 << 24


@dataclass(frozen=True)
class AncillaLayout:
    """Index bookkeeping for the populated ancilla patterns plus the k qubit.

    Only paths of length q <= Q are stored, in ``paths()`` order (by length,
    then lexicographic), with the k qubit least significant: the flat
    ancilla index is a = 2 * rank + k.
    """

    Q: int
    M: int

    @property
    def anc_dim(self) -> int:
        return 2 * sum(self.M ** q for q in range(self.Q + 1))

    def index(self, path: tuple[int, ...], k: int) -> int:
        if len(path) > self.Q:
            raise ValueError("path longer than Q registers")
        offset = sum(self.M ** q for q in range(len(path)))  # shorter paths first
        local = 0
        for i in path:
            if not 0 <= i < self.M:
                raise ValueError("term index out of range")
            local = local * self.M + i
        return (offset + local) * 2 + k

    def paths(self):
        """All stored paths in deterministic (length, lexicographic) order."""
        for q in range(self.Q + 1):
            yield from product(range(self.M), repeat=q)


@dataclass(frozen=True)
class LcuConfig:
    """Phase quantization, divided-difference method, and s forcing.

    ``phase_bits`` of None keeps phases exact; an integer b rounds each
    angle chi +/- phi up to a multiple of 2 pi / 2^b, for 1 <= b <= 1023
    (2^1024 overflows a float).  ``s_override`` re-pads the working bounds
    so the weight normalization equals the given value exactly (useful for
    forcing s = 2).
    """

    phase_bits: int | None = None
    dd: DdConfig = field(default_factory=DdConfig)
    s_override: float | None = None

    def __post_init__(self):
        bits = self.phase_bits
        if bits is not None and (not isinstance(bits, (int, np.integer)) or not 1 <= bits <= 1023):
            raise ValueError(f"phase_bits must be an integer in [1, 1023], got {bits!r}")


@dataclass
class CompositeState:
    """Flat ancilla-major joint state: index = a * 2^N + z."""

    amplitudes: np.ndarray
    layout: AncillaLayout
    n_qubits: int

    @classmethod
    def from_system(
        cls, layout: AncillaLayout, system: np.ndarray
    ) -> "CompositeState":
        system = np.asarray(system, dtype=complex)
        n = system.shape[0].bit_length() - 1
        amps = np.zeros(layout.anc_dim << n, dtype=complex)
        amps[: 1 << n] = system
        return cls(amps, layout, n)

    @property
    def system_dim(self) -> int:
        return 1 << self.n_qubits

    def block(self, a: int) -> np.ndarray:
        dim = self.system_dim
        return self.amplitudes[a * dim : (a + 1) * dim]

    def norm(self) -> float:
        return _norm(self.amplitudes)

    def copy(self) -> "CompositeState":
        return CompositeState(self.amplitudes.copy(), self.layout, self.n_qubits)


def _solve_weight_rate(order: int, target: float) -> float:
    """x with sum_{q<=order} x^q/q! = target (Newton; monotone in x)."""
    if target <= 1.0:
        raise ValueError("normalization target must exceed 1")
    x = LN2
    for _ in range(100):
        f = partial_exp_sum(x, order) - target
        fp = partial_exp_sum(x, order - 1) if order >= 1 else 0.0
        if fp == 0.0:
            raise ValueError("cannot solve for the requested normalization")
        step = f / fp
        x -= step
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    if x <= 0.0:
        raise ValueError(f"no positive weight rate reaches s = {target}")
    return x


def lcu_weights(
    g: GammaBounds, plan: SegmentPlan, config: LcuConfig | None = None
) -> tuple[np.ndarray, float]:
    """Working per-term bounds and normalization s used by the LCU weights.

    Default: the plan's padded bounds with s = sum_{q<=Q} (ln 2)^q/q!.
    With ``s_override`` the bounds are re-padded so the partial sum hits the
    requested s exactly; an s that would shrink them below the supplied
    bounds is refused, since a path weight must bound its coefficient.
    """
    config = config or LcuConfig()
    if config.s_override is None:
        return plan.working_gamma(g), plan.s
    if plan.Q < 1:
        raise ValueError("s_override requires a plan with Q >= 1")
    x = _solve_weight_rate(plan.Q, config.s_override)
    scale = x / (g.gamma_total * abs(plan.delta_t))
    if scale < 1.0:
        raise ValueError(f"s_override = {config.s_override} shrinks the bounds below gamma")
    return scale * np.asarray(g.gamma, dtype=float), float(config.s_override)


def apply_B(state: CompositeState, psi0: np.ndarray) -> CompositeState:
    """Unitary completion of |0...0> -> psi0 on the ancilla factor.

    Implemented as the Householder reflection exchanging the two vectors;
    it is real and self-inverse, so it also serves as B^dagger.
    """
    dim = state.system_dim
    mat = state.amplitudes.reshape(state.layout.anc_dim, dim)
    v = psi0.astype(complex).copy()
    v[0] -= 1.0
    vnorm2 = float(np.real(np.vdot(v, v)))
    if vnorm2 > 0.0:
        coef = (2.0 / vnorm2) * (v.conj() @ mat)
        mat = mat - np.outer(v, coef)
    return CompositeState(mat.reshape(-1), state.layout, state.n_qubits)


def _quantize_angle(theta: np.ndarray, bits: int) -> np.ndarray:
    """Round angles in (-2 pi, 2 pi) up to the b-bit grid 2 pi m / 2^b, m
    integer, in place; returns ``theta``.

    The angles are first wrapped into [0, 2 pi].  On |theta| < 2 pi, fmod by
    2 pi is exact and returns theta, so ``np.mod(theta, 2 pi)`` is
    theta + 2 pi for theta < 0 and theta otherwise, with -0.0 taken to +0.0.
    Adding (theta < 0) * 2 pi gives those same bits: theta + 0.0 is theta,
    and -0.0 + 0.0 is +0.0."""
    two_pi = 2.0 * math.pi
    step = two_pi / (2.0 ** bits)
    theta += (theta < 0) * two_pi
    theta /= step
    np.ceil(theta, out=theta)
    theta *= step
    return theta


def _path_weights(gam: np.ndarray, plan: SegmentPlan) -> np.ndarray:
    """Weights w_p = gamma_path |dt|^q / q! of the P = sum_{q<=Q} M^q paths,
    in ``AncillaLayout.paths()`` order, one outer product per level."""
    weight, gam_path = [np.ones(1)], np.ones(1)
    for q in range(1, plan.Q + 1):
        gam_path = np.outer(gam_path, gam).reshape(-1)
        weight.append(gam_path * abs(plan.delta_t) ** q / math.factorial(q))
    return np.concatenate(weight)


def _phase_pair(beta: np.ndarray, phase_bits: int | None) -> np.ndarray:
    """Phase pairs e^{i theta_k} (P, 2, 2^N), theta_k = chi +/- phi, with
    beta (P, 2^N) = cos(phi) e^{i chi}: [p, k] is path p's, so row a of its
    (2P, 2^N) reshape is ancilla index a's.  With ``phase_bits`` both angles
    are first rounded up to the b-bit grid.

    chi is in [-pi, pi] and phi in [0, pi/2], so |theta| < 2 pi, the domain
    ``_quantize_angle`` wraps on.  The angles go into one float buffer and
    are quantized there; the buffer becomes the imaginary part of one zeroed
    complex buffer, exponentiated in place.  That holds 1j * theta bit for
    bit, except for the sign of a zero real part, which exp ignores: the
    imaginary part of 1j * theta is 0 + theta, which takes -0.0 to +0.0,
    and a quantized angle is never -0.0."""
    mag = np.abs(beta)
    chi = np.where(mag > 0, np.angle(beta), 0.0)
    phi = np.arccos(np.clip(mag, 0.0, 1.0, out=mag), out=mag)
    theta = np.empty((len(beta), 2, beta.shape[1]))
    np.add(chi, phi, out=theta[:, 0])
    np.subtract(chi, phi, out=theta[:, 1])
    if phase_bits is not None:
        _quantize_angle(theta, phase_bits)
    else:
        theta += 0.0
    pair = np.zeros(theta.shape, dtype=complex)
    pair.imag = theta
    return np.exp(pair, out=pair)


class SegmentOperators:
    """Per-plan tables: the flip masks and coefficients of the P paths of
    U_od (``series._path_table``, in ``AncillaLayout.paths()`` order), their
    weights w_p, and V = <0|W|0> on the system register as
    ``series._FlipRows``, ``v``.  ``diagonal_phases`` is e^{-i dt E}.  The
    composite reference's weight state ``psi0`` and phase rows ``phases``
    are built on first use; row a of them is the path of rank a >> 1 with
    k = a & 1.
    """

    def __init__(
        self,
        h: PmrHamiltonian,
        g: GammaBounds,
        plan: SegmentPlan,
        config: LcuConfig | None = None,
    ):
        self.h = h
        self.plan = plan
        self.config = config or LcuConfig()
        self.layout = AncillaLayout(plan.Q, h.m)
        self.gam, self.s = lcu_weights(g, plan, self.config)
        self.diagonal_phases = np.exp(-1j * plan.delta_t * h.diagonal_values())
        self._flips, self._coeffs = _path_table(h, plan, self.config.dd)
        self._weights = _path_weights(self.gam, plan)
        self.v = self.flip_rows(self.config.phase_bits)

    @cached_property
    def psi0(self) -> np.ndarray:
        """The weight state B|0>: sqrt(w_p / 2s) on both k of path p, from
        the weights w_p that V's rows carry, divided by its norm."""
        vec = np.sqrt(np.repeat(self._weights, 2) / (2.0 * self.s))
        return vec / _norm(vec)

    def _beta(self) -> np.ndarray:
        """beta (P, 2^N) = coefficient / w_p, 0 where w_p = 0."""
        w = self._weights[:, None]
        return np.divide(self._coeffs, w, out=np.zeros_like(self._coeffs), where=w != 0.0)

    @cached_property
    def phases(self) -> np.ndarray:
        """Phase rows e^{i theta_a(z)}, one per ancilla index, from the path
        coefficients at ``config.phase_bits``."""
        pair = _phase_pair(self._beta(), self.config.phase_bits)
        return pair.reshape(2 * len(pair), -1)

    def flip_rows(self, phase_bits: int | None) -> _FlipRows:
        """V = (1/s) sum_p w_p b_p P_p at ``phase_bits`` from these path
        coefficients, no path evaluated again, one row per path.  With exact
        phases w_p b_p is the coefficient itself, so V's rows are the table
        over s; with b bits b_p is the mean of the path's rounded phase
        pair, (e^{i theta_+} + e^{i theta_-}) / 2.  That sum is the one new
        (P, 2^N) array; it is scaled in place by 0.5 and then by w_p / s,
        the same complex products as 0.5 * (sum) and (w_p / s) * mean."""
        if phase_bits is None:
            return _FlipRows(self._flips, self._coeffs / self.s)
        pair = _phase_pair(self._beta(), phase_bits)
        rows = pair[:, 0] + pair[:, 1]
        rows *= 0.5
        rows *= (self._weights / self.s)[:, None]
        return _FlipRows(self._flips, rows)

    @cached_property
    def gather(self) -> np.ndarray:
        """``apply_U_C``'s flat gather index a * 2^N + (z ^ flip_a), built on
        first use."""
        dim = 1 << self.h.n_qubits
        size = 2 * len(self._flips) * dim
        flat = np.arange(size, dtype=np.min_scalar_type(size))
        return (flat.reshape(-1, 2, dim) ^ self._flips[:, None, None].astype(flat.dtype)).ravel()

    def tables(self, path: tuple[int, ...]):
        """(cum, phase0, phase1): one path's flip mask and phase pair."""
        a = self.layout.index(tuple(path), 0)
        return int(self._flips[a >> 1]), self.phases[a], self.phases[a + 1]


def apply_U_C(
    state: CompositeState,
    ops: SegmentOperators,
    direction: str = "forward",
) -> CompositeState:
    """Controlled phase-then-permutation, block-diagonal over the ancilla.

    For ancilla pattern (i_1...i_q, k) the system picks up the phase
    e^{i(chi + (-1)^k phi)} evaluated at its current basis state and is then
    flipped by the path's cumulative mask.  All blocks go through one gather
    of the per-ancilla tables; ancilla indices never mix.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    phases = ops.phases.reshape(-1)
    if direction == "forward":
        out = np.take(phases * state.amplitudes, ops.gather)
    else:
        out = phases.conj() * np.take(state.amplitudes, ops.gather)
    return CompositeState(out, state.layout, state.n_qubits)


def apply_reflection(state: CompositeState) -> CompositeState:
    """R = 1 - 2(|0><0|)^{x(Q+1)}: flips the sign of the ancilla-zero block."""
    out = state.copy()
    out.block(0)[:] *= -1.0
    return out


def apply_W(
    state: CompositeState, ops: SegmentOperators, dagger: bool = False
) -> CompositeState:
    """W = B' U_C B (B is the Householder completion, self-inverse)."""
    state = apply_B(state, ops.psi0)
    state = apply_U_C(state, ops, "inverse" if dagger else "forward")
    return apply_B(state, ops.psi0)


def _trace_distance_pure(phi: np.ndarray, u: np.ndarray) -> float:
    """Trace norm of |phi><phi| - |u><u| (rank-2, computed in the 2-d span)."""
    b = float(np.real(np.vdot(u, u)))
    if b == 0.0:
        return float(np.real(np.vdot(phi, phi)))
    v1 = u / math.sqrt(b)
    a1 = complex(np.vdot(v1, phi))
    w = phi - a1 * v1
    n2 = float(np.real(np.vdot(w, w)))
    if n2 < 1e-30:
        return abs(abs(a1) ** 2 - b)
    a2 = math.sqrt(n2)
    delta = np.array(
        [
            [abs(a1) ** 2 - b, a1 * np.conj(a2)],
            [np.conj(a1) * a2, a2 ** 2],
        ],
        dtype=complex,
    )
    eig = np.linalg.eigvalsh(delta)
    return float(np.sum(np.abs(eig)))


@dataclass
class SegmentDiagnostics:
    """Per-segment health figures for the amplified LCU step."""

    s: float
    anc_zero_weight: float
    discarded_weight: float
    trace_residual: float | None = None


def _segment_diagnostics(
    ops: SegmentOperators,
    sys_in: np.ndarray,
    in_weight: float,
    out: np.ndarray,
    oracle: DenseOracle | None,
) -> SegmentDiagnostics:
    """Ancilla-zero weight of the output block and, when a dense oracle is
    supplied, the trace distance between it and the ideal short-time
    evolution of the (normalized) input."""
    weight = _norm(out) ** 2
    residual = None
    if oracle is not None:
        norm_in = _norm(sys_in)
        if norm_in > 0:
            ideal = oracle.evolve(sys_in / norm_in, ops.plan.delta_t)
            residual = _trace_distance_pure(out / norm_in, ideal)
    return SegmentDiagnostics(
        s=ops.s,
        anc_zero_weight=weight,
        discarded_weight=max(0.0, in_weight - weight),
        trace_residual=residual,
    )


def oaa_segment(
    state: CompositeState,
    ops: SegmentOperators,
    oracle: DenseOracle | None = None,
) -> tuple[CompositeState, SegmentDiagnostics]:
    """One amplified short-time step: diagonal phase then A = -W R W' R W.

    The input must live in the ancilla-zero block.  Diagnostics report the
    ancilla-zero weight of the output and, when a dense oracle is supplied,
    the trace distance between the traced-out post-selected state and the
    ideal short-time evolution of the (normalized) input.
    """
    off_weight = state.norm() ** 2 - _norm(state.block(0)) ** 2
    if off_weight > 1e-9:
        raise ValueError("oaa_segment expects the ancilla in |0...0>")
    sys_in = state.block(0).copy()
    work = state.copy()
    work.block(0)[:] = ops.diagonal_phases * sys_in
    work = apply_W(work, ops)
    work = apply_reflection(work)
    work = apply_W(work, ops, dagger=True)
    work = apply_reflection(work)
    work = apply_W(work, ops)
    work.amplitudes *= -1.0
    return work, _segment_diagnostics(ops, sys_in, state.norm() ** 2, work.block(0), oracle)


def _amplified(
    system: np.ndarray, ops: SegmentOperators, v: _FlipRows, oracle: DenseOracle | None
) -> tuple[np.ndarray, SegmentDiagnostics]:
    """3Vx - 4VV'Vx for x = e^{-i dt E} system and V = ``v``, with the
    diagnostics of ``oaa_segment``."""
    vx = v.apply(ops.diagonal_phases * system)
    out = 3.0 * vx - 4.0 * v.apply(v.apply_dagger(vx))
    in_weight = _norm(system) ** 2
    return out, _segment_diagnostics(ops, system, in_weight, out, oracle)


def system_segment(
    system: np.ndarray,
    ops: SegmentOperators,
    oracle: DenseOracle | None = None,
) -> tuple[np.ndarray, SegmentDiagnostics]:
    """``oaa_segment`` on the system register: the ancilla-zero block
    3Vx - 4VV'Vx of A applied to x = e^{-i dt E} system, with V = ``ops.v``,
    the same diagnostics, and no composite state."""
    return _amplified(system, ops, ops.v, oracle)


def _run_segments(
    ops: SegmentOperators, v: _FlipRows, state: np.ndarray, oracle: DenseOracle | None
) -> tuple[np.ndarray, list[SegmentDiagnostics]]:
    diags: list[SegmentDiagnostics] = []
    sys = state
    for _ in range(ops.plan.r):
        sys, diag = _amplified(sys, ops, v, oracle)
        diags.append(diag)
        norm = _norm(sys)
        if norm == 0.0:
            raise ArithmeticError("post-selection lost all amplitude")
        sys = sys / norm
    return _require_finite(sys), diags


@_quiet
def _evolve_lcu_runs(
    h: PmrHamiltonian,
    g: GammaBounds,
    state: np.ndarray,
    plan: SegmentPlan,
    config: LcuConfig,
    composite_budget: int = DEFAULT_COMPOSITE_BUDGET,
    exact_too: bool = False,
) -> tuple[np.ndarray, list[SegmentDiagnostics], np.ndarray | None, DenseOracle | None]:
    """``evolve_lcu``'s (output, diagnostics) on the caller's ``plan``, with
    ``exact_too`` the output of the same run at exact phases, and the dense
    oracle built for the trace residuals, or None.  Both runs take V's rows
    from one path-coefficient build; the oracle is built only once the run
    has passed its budgets."""
    state = np.asarray(state, dtype=complex)
    if plan.diagonal_only:
        out = _require_finite(apply_diagonal(h, state, plan.t_total), _DIAGONAL_OVERFLOWED)
        return out, [], out if exact_too else None, None
    _price(AncillaLayout(plan.Q, h.m).anc_dim << h.n_qubits, composite_budget,
           f"2 * sum_{{q<={plan.Q}}} {h.m}^q * 2^{h.n_qubits}",
           "composite dimension 2 * sum_{q<=Q} M^q * 2^N")
    # a segment applies V's F <= min(anc_dim / 2, 2^N) rows three times
    _check_rows_budget(h, plan, DEFAULT_WORK_BUDGET, 3 * plan.r)
    ops = SegmentOperators(h, g, plan, config)
    oracle = DenseOracle(h) if h.n_qubits <= 6 else None
    out, diags = _run_segments(ops, ops.v, state, oracle)
    exact = None
    if exact_too:
        exact, _ = _run_segments(ops, ops.flip_rows(None), state, None)
    return out, diags, exact, oracle


def evolve_lcu(
    h: PmrHamiltonian,
    g: GammaBounds,
    state: np.ndarray,
    t: float,
    epsilon: float,
    config: LcuConfig | None = None,
    composite_budget: int = DEFAULT_COMPOSITE_BUDGET,
) -> tuple[np.ndarray, list[SegmentDiagnostics]]:
    """Run r amplified segments, post-selecting the ancilla-zero block.

    Each segment is ``system_segment``: 3V - 4VV'V on the system register,
    which equals the ancilla-zero block of the composite ``oaa_segment``.
    Between segments the discarded amplitude is recorded in the diagnostics
    and the system re-normalized.  Diagonal-only plans evolve exactly
    without ancillas.  For N <= 6 each segment also records its trace
    residual against the dense oracle.  The composite dimension
    anc_dim * 2^N, the size of the phase rows and twice that of the path
    coefficients, is priced against ``composite_budget``.  The segments are
    priced at what they touch, r * 3 * min(anc_dim/2, 2^N) * 2^N entries of
    V's rows, against ``series.DEFAULT_WORK_BUDGET``.  Either refusal raises
    ``series.WorkBudgetExceededError``.
    """
    plan = plan_segments(h, g, t, epsilon)
    out, diags, _, _ = _evolve_lcu_runs(h, g, state, plan, config or LcuConfig(), composite_budget)
    return out, diags

"""Ancilla-register LCU emulation and oblivious amplitude amplification."""

import math
import pathlib

import numpy as np
import pytest
from conftest import random_pmr_hamiltonian, random_state, same_bits

from pmrsim import (
    DdConfig,
    DenseOracle,
    PauliString,
    PmrHamiltonian,
    evolve,
    gamma_bounds,
    parse_hamiltonian,
    parse_hamiltonian_file,
    path_coefficient,
    pauli_to_pmr,
    plan_segments,
    uod_matrix,
)
from pmrsim import lcu
from pmrsim.lcu import (
    AncillaLayout,
    CompositeState,
    LcuConfig,
    SegmentOperators,
    apply_B,
    apply_reflection,
    apply_U_C,
    apply_W,
    evolve_lcu,
    lcu_weights,
    oaa_segment,
    system_segment,
)
from pmrsim.series import LN2, WorkBudgetExceededError
from test_offdiag_series import number_conserving_hamiltonian, with_zero_hopping

LADDER = pauli_to_pmr(parse_hamiltonian("1.0 Z\n1.0 X\n"))
LADDER_G = gamma_bounds(LADDER)


def random_composite(rng, layout, n_qubits):
    amps = rng.normal(size=layout.anc_dim << n_qubits) + 1j * rng.normal(
        size=layout.anc_dim << n_qubits
    )
    amps /= np.linalg.norm(amps)
    return CompositeState(amps, layout, n_qubits)


def small_setup(seed=3, n=2, m=2, t=0.8, eps=1e-2, **cfg):
    rng = np.random.default_rng(seed)
    h = random_pmr_hamiltonian(rng, n=n, m_terms=m)
    g = gamma_bounds(h)
    plan = plan_segments(h, g, t, eps)
    ops = SegmentOperators(h, g, plan, LcuConfig(**cfg) if cfg else None)
    return rng, h, g, plan, ops


class TestAncillaLayout:
    def test_index_digits_round_trip(self):
        # a path's term-index digits map to a = 2 * rank + k and back
        for Q, M in ((3, 2), (2, 3), (4, 1), (0, 3)):
            layout = AncillaLayout(Q=Q, M=M)
            assert layout.anc_dim == 2 * sum(M ** q for q in range(Q + 1))
            paths = list(layout.paths())
            assert 2 * len(paths) == layout.anc_dim
            decode = {}
            for rank, path in enumerate(paths):
                for k in (0, 1):
                    a = layout.index(path, k)
                    assert a == 2 * rank + k
                    decode[a] = (path, k)
            assert sorted(decode) == list(range(layout.anc_dim))
            for a, (path, k) in decode.items():
                assert layout.index(path, k) == a

    def test_padding_validity(self):
        # every stored pattern is a valid path; anything else is rejected
        for Q, M in ((3, 2), (2, 3), (4, 1), (0, 3)):
            layout = AncillaLayout(Q=Q, M=M)
            assert layout.index((), 0) == 0
            assert layout.index((), 1) == 1
            with pytest.raises(ValueError, match="longer than Q"):
                layout.index((0,) * (Q + 1), 0)
            for bad in (M, -1) if Q > 0 else ():
                with pytest.raises(ValueError, match="term index"):
                    layout.index((0,) * (Q - 1) + (bad,), 0)

    def test_path_enumeration_order(self):
        layout = AncillaLayout(Q=2, M=2)
        assert list(layout.paths()) == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


class TestPreparePsi0:
    def test_single_term_single_register(self):
        plan = plan_segments(LADDER, LADDER_G, LN2, 1e-3, q_override=1)
        psi0 = SegmentOperators(LADDER, LADDER_G, plan).psi0
        # amplitudes prop. to (1, sqrt(ln 2)) on the path register times
        # (1,1)/sqrt(2) on k; normalization s = 1 + ln 2 from the two-term
        # partial sum
        expected = np.array([1.0, 1.0, math.sqrt(LN2), math.sqrt(LN2)])
        expected /= math.sqrt(2.0 * (1.0 + LN2))
        assert np.allclose(psi0, expected, atol=1e-15)
        assert lcu_weights(LADDER_G, plan)[1] == pytest.approx(1.0 + LN2)

    def test_sector_masses(self):
        _, h, g, plan, ops = small_setup()
        psi0 = ops.psi0
        rate = LN2  # working bounds are padded so Gamma * dt = ln 2
        for q in range(plan.Q + 1):
            mass = sum(
                psi0[ops.layout.index(p, k)] ** 2
                for p in ops.layout.paths()
                if len(p) == q
                for k in (0, 1)
            )
            expected = rate ** q / math.factorial(q) / ops.s
            assert mass == pytest.approx(expected, rel=1e-12)


class TestApplyB:
    def test_prepares_product_state(self):
        rng, h, g, plan, ops = small_setup()
        psi = random_state(rng, h.n_qubits)
        comp = CompositeState.from_system(ops.layout, psi)
        out = apply_B(comp, ops.psi0)
        expected = np.kron(ops.psi0, psi)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_self_inverse_on_random_states(self):
        rng, h, g, plan, ops = small_setup()
        for _ in range(100):
            comp = random_composite(rng, ops.layout, h.n_qubits)
            back = apply_B(apply_B(comp, ops.psi0), ops.psi0)
            assert np.max(np.abs(back.amplitudes - comp.amplitudes)) < 1e-12

    def test_overlap_with_zero_pattern(self):
        _, h, g, plan, ops = small_setup()
        e0 = np.zeros(ops.layout.anc_dim)
        e0[0] = 1.0
        # <0...0| B^dagger |psi0> = 1 since B maps |0...0> to psi0
        comp = CompositeState(
            np.kron(ops.psi0, np.array([1.0 + 0j] + [0.0] * (2 ** h.n_qubits - 1))),
            ops.layout,
            h.n_qubits,
        )
        out = apply_B(comp, ops.psi0)
        assert out.block(0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self):
        rng, h, g, plan, ops = small_setup(seed=11)
        comp = random_composite(rng, ops.layout, h.n_qubits)
        assert apply_B(comp, ops.psi0).norm() == pytest.approx(1.0, abs=1e-10)


def table_beta(ops, path, z):
    """cos(phi) e^{i chi} of ``path`` from source z, rebuilt from the phase
    pair e^{i(chi +/- phi)} of ``SegmentOperators.tables`` at the operators'
    phase precision."""
    _, phase0, phase1 = ops.tables(path)
    return 0.5 * (phase0[z] + phase1[z])


class TestComputePhaseAngles:
    """chi and phi of single paths: exact from ``path_coefficient``,
    quantized from the ``SegmentOperators`` phase tables."""

    def test_unit_beta(self):
        _, h, g, plan, _ = small_setup()
        pc = path_coefficient(h, g, plan, 0, ())
        assert pc.chi == pytest.approx(0.0, abs=1e-14)
        assert pc.phi == pytest.approx(0.0, abs=1e-14)

    def test_zero_beta_pinned_convention(self):
        strings = [
            PauliString.from_word(0.3, "ZI"),
            PauliString.from_word(0.5, "XI"),
            PauliString.from_word(0.5, "XZ"),
        ]
        h = pauli_to_pmr(strings)
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 0.8, 1e-4)
        zeros = [z for z in range(4) if abs(h.terms[0][0].value(z ^ 1)) < 1e-14]
        pc = path_coefficient(h, g, plan, zeros[0], (0,))
        assert pc.chi == pytest.approx(0.0, abs=1e-14)
        assert pc.phi == pytest.approx(math.pi / 2)
        # the table's phase pair e^{i(chi +/- phi)} is then (i, -i)
        _, phase0, phase1 = SegmentOperators(h, g, plan).tables((0,))
        assert phase0[zeros[0]] == pytest.approx(1j) and phase1[zeros[0]] == pytest.approx(-1j)

    def test_rejects_out_of_range_input(self):
        _, h, g, plan, _ = small_setup()
        for z in (-1, 1 << h.n_qubits):
            with pytest.raises(ValueError, match="basis index"):
                path_coefficient(h, g, plan, z, (0,))
        for i in (-1, h.m):
            with pytest.raises(IndexError, match="term index"):
                path_coefficient(h, g, plan, 0, (0, i))

    def test_round_trip_exact_and_quantized(self):
        rng, h, g, plan, ops = small_setup(seed=7)
        quantized = {bits: SegmentOperators(h, g, plan, LcuConfig(phase_bits=bits))
                     for bits in (8, 12)}
        for z in range(4):
            for path in [(0,), (1, 0), (0, 1, 1)]:
                pc = path_coefficient(h, g, plan, z, path)
                assert abs(math.cos(pc.phi) * np.exp(1j * pc.chi) - pc.beta) < 1e-12
                for bits, q_ops in quantized.items():
                    recon = table_beta(q_ops, path, z)
                    assert abs(recon - pc.beta) <= 2 * 2 * math.pi / 2 ** bits

    def test_b64_matches_exact(self):
        _, h, g, plan, _ = small_setup(seed=13)
        q_ops = SegmentOperators(h, g, plan, LcuConfig(phase_bits=64))
        for z in range(4):
            pc = path_coefficient(h, g, plan, z, (0, 1))
            beta = math.cos(pc.phi) * np.exp(1j * pc.chi)
            beta_q = table_beta(q_ops, (0, 1), z)
            assert abs(beta - beta_q) < 1e-9


class TestApplyUC:
    def test_zero_ancilla_is_identity_on_system(self):
        rng, h, g, plan, ops = small_setup()
        psi = random_state(rng, h.n_qubits)
        for k in (0, 1):
            comp = CompositeState.from_system(ops.layout, np.zeros(4, complex))
            comp.block(ops.layout.index((), k))[:] = psi
            out = apply_U_C(comp, ops)
            assert np.max(np.abs(out.block(ops.layout.index((), k)) - psi)) < 1e-14

    def test_two_block_structure_densely(self):
        # M = 1, Q = 1, N = 2: the occupied-register blocks must act as
        # P_1 Phi^(k), built here directly from beta's polar pieces
        h = pauli_to_pmr(
            [PauliString.from_word(0.4, "ZI"), PauliString.from_word(0.7, "XZ")]
        )
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 0.9, 1e-2, q_override=1)
        ops = SegmentOperators(h, g, plan)
        perm = np.zeros((4, 4))
        for z in range(4):
            perm[z ^ h.terms[0][1].x_mask, z] = 1.0
        for k in (0, 1):
            sign = 1.0 if k == 0 else -1.0
            phases = []
            for z in range(4):
                pc = path_coefficient(h, g, plan, z, (0,))
                phases.append(np.exp(1j * (pc.chi + sign * pc.phi)))
            expected = perm @ np.diag(phases)
            got = np.zeros((4, 4), complex)
            a = ops.layout.index((0,), k)
            for z in range(4):
                comp = CompositeState.from_system(ops.layout, np.zeros(4, complex))
                comp.block(a)[z] = 1.0
                got[:, z] = apply_U_C(comp, ops).block(a)
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_sandwich_reproduces_scaled_uod(self):
        rng, h, g, plan, ops = small_setup(seed=17, n=2, m=2, eps=1e-3)
        psi = random_state(rng, 2)
        comp = CompositeState.from_system(ops.layout, psi)
        out = apply_W(comp, ops)
        expected = uod_matrix(h, g, plan) @ psi / ops.s
        assert np.max(np.abs(out.block(0) - expected)) < 1e-10

    def test_unitary_on_random_composites(self):
        rng, h, g, plan, ops = small_setup(seed=19)
        for _ in range(20):
            comp = random_composite(rng, ops.layout, h.n_qubits)
            out = apply_U_C(comp, ops)
            assert out.norm() == pytest.approx(1.0, abs=1e-12)
            back = apply_U_C(out, ops, direction="inverse")
            assert np.max(np.abs(back.amplitudes - comp.amplitudes)) < 1e-12


def small_cases():
    """(h, g, plan) with N <= 3, M <= 3 and Q <= 3, both signs of t."""
    rng = np.random.default_rng(101)
    for n, m, t, q in ((2, 2, 0.8, 3), (3, 3, -0.7, 3), (3, 2, 1.1, 2), (1, 1, 0.5, 3)):
        h = random_pmr_hamiltonian(rng, n=n, m_terms=m)
        g = gamma_bounds(h)
        yield h, g, plan_segments(h, g, t, 1e-3, q_override=q)


class TestVectorizedTables:
    """The level-batched tables and the single-gather U_C against per-path
    and per-block definitions."""

    @pytest.mark.parametrize("method", ["taylor", "leibniz"])
    def test_tables_reproduce_scalar_beta(self, method):
        dd = DdConfig(method=method)
        # number-conserving hopping vanishes on equal bits, so some paths are
        # zero at every source and the level batches drop them
        h_nc = number_conserving_hamiltonian(np.random.default_rng(1), 3)
        # a term that is zero everywhere drops paths from level 1 on, so the
        # rows of each later level follow levels that dropped paths
        cases = [*small_cases()]
        for hh in (h_nc, with_zero_hopping(h_nc)):
            gg = gamma_bounds(hh)
            cases.append((hh, gg, plan_segments(hh, gg, 0.9, 1e-3, q_override=3)))
        dropped = 0
        for h, g, plan in cases:
            masks = h.x_masks()
            for bits, tol in ((None, 1e-12), (8, 2 * math.pi / 2**8), (16, 2 * math.pi / 2**16)):
                ops = SegmentOperators(h, g, plan, LcuConfig(phase_bits=bits, dd=dd))
                for path in ops.layout.paths():
                    cum, ph0, ph1 = ops.tables(path)
                    assert cum == int(np.bitwise_xor.reduce(masks[list(path)], initial=0))
                    betas = [
                        path_coefficient(h, g, plan, z, path, dd).beta
                        for z in range(1 << h.n_qubits)
                    ]
                    # e^{i(chi + phi)} + e^{i(chi - phi)} = 2 cos(phi) e^{i chi}
                    assert np.max(np.abs(0.5 * (ph0 + ph1) - betas)) <= tol
                    if not np.any(betas) and bits is None:
                        # beta = 0 is phi = pi/2, chi = 0
                        dropped += 1
                        assert np.max(np.abs(ph0 - 1j)) <= 1e-15
                        assert np.max(np.abs(ph1 + 1j)) <= 1e-15
                    if bits is None:
                        # k = 0 carries chi + phi with phi = arccos|beta| >= 0
                        assert np.all(np.imag(ph0 * ph1.conj()) >= -1e-12)
                    else:
                        steps = np.angle(np.concatenate((ph0, ph1))) / (2 * math.pi / 2**bits)
                        assert np.max(np.abs(steps - np.round(steps))) <= 1e-6
        assert dropped > 0

    def test_apply_U_C_blockwise(self):
        rng = np.random.default_rng(103)
        for h, g, plan in small_cases():
            ops = SegmentOperators(h, g, plan, LcuConfig(phase_bits=8))
            layout, dim = ops.layout, 1 << h.n_qubits
            z = np.arange(dim)
            comp = random_composite(rng, layout, h.n_qubits)
            fwd = apply_U_C(comp, ops)
            inv = apply_U_C(comp, ops, direction="inverse")
            for path in layout.paths():
                cum, ph0, ph1 = ops.tables(path)
                for k, phases in enumerate((ph0, ph1)):
                    a = layout.index(path, k)
                    block = comp.block(a)
                    assert np.array_equal(fwd.block(a), (phases * block)[z ^ cum])
                    assert np.array_equal(inv.block(a), phases.conj() * block[z ^ cum])

    def test_s_override_below_the_bounds_refused(self):
        # weights under the supplied bounds would not bound the path
        # coefficients, so V would no longer be U_od / s
        for h, g, plan in small_cases():
            with pytest.raises(ValueError, match="below gamma"):
                lcu_weights(g, plan, LcuConfig(s_override=1.0 + 1e-3))

    def test_prepare_psi0_per_path_formula(self):
        for h, g, plan in small_cases():
            for config in (LcuConfig(), LcuConfig(s_override=2.0)):
                gam, s = lcu_weights(g, plan, config)
                layout = AncillaLayout(plan.Q, h.m)
                expected = np.zeros(layout.anc_dim)
                for path in layout.paths():
                    q = len(path)
                    weight = np.prod(gam[list(path)]) * abs(plan.delta_t) ** q / math.factorial(q)
                    for k in (0, 1):
                        expected[layout.index(path, k)] = math.sqrt(weight / (2 * s))
                got = SegmentOperators(h, g, plan, config).psi0
                assert np.max(np.abs(got - expected)) <= 1e-12
                assert np.all(got[expected == 0] == 0)


class TestReflection:
    def test_flips_zero_block_only(self):
        rng, h, g, plan, ops = small_setup()
        psi = random_state(rng, h.n_qubits)
        comp = CompositeState.from_system(ops.layout, psi)
        out = apply_reflection(comp)
        assert np.max(np.abs(out.block(0) + psi)) == 0.0

    def test_other_blocks_unchanged(self):
        rng, h, g, plan, ops = small_setup()
        comp = random_composite(rng, ops.layout, h.n_qubits)
        out = apply_reflection(comp)
        assert np.array_equal(out.block(3), comp.block(3))

    def test_involution(self):
        rng, h, g, plan, ops = small_setup(seed=23)
        comp = random_composite(rng, ops.layout, h.n_qubits)
        twice = apply_reflection(apply_reflection(comp))
        assert np.max(np.abs(twice.amplitudes - comp.amplitudes)) < 1e-14


class TestWBlockIdentity:
    def test_block_equals_uod_over_s(self):
        rng = np.random.default_rng(29)
        for n, m in ((2, 2), (3, 2), (2, 3)):
            h = random_pmr_hamiltonian(rng, n=n, m_terms=m)
            g = gamma_bounds(h)
            plan = plan_segments(h, g, 0.6, 5e-2)
            assert plan.Q <= 3
            ops = SegmentOperators(h, g, plan)
            dim = 1 << n
            block = np.zeros((dim, dim), complex)
            for z in range(dim):
                e = np.zeros(dim, complex)
                e[z] = 1.0
                comp = CompositeState.from_system(ops.layout, e)
                block[:, z] = apply_W(comp, ops).block(0)
            ref = uod_matrix(h, g, plan) / ops.s
            assert np.max(np.abs(block - ref)) < 1e-9

    def test_perpendicular_component_structure(self):
        rng, h, g, plan, ops = small_setup(seed=31)
        psi = random_state(rng, h.n_qubits)
        comp = CompositeState.from_system(ops.layout, psi)
        out = apply_W(comp, ops)
        utilde_psi = uod_matrix(h, g, plan) @ psi
        residual = out.copy()
        residual.block(0)[:] -= utilde_psi / ops.s
        # the perpendicular part carries no ancilla-zero weight and the
        # expected leftover norm
        assert np.max(np.abs(residual.block(0))) < 1e-10
        expected = math.sqrt(max(0.0, 1.0 - np.linalg.norm(utilde_psi) ** 2 / ops.s ** 2))
        assert np.linalg.norm(residual.amplitudes) == pytest.approx(expected, abs=1e-10)

    def test_w_norm_preserving(self):
        rng, h, g, plan, ops = small_setup(seed=37)
        comp = random_composite(rng, ops.layout, h.n_qubits)
        assert apply_W(comp, ops).norm() == pytest.approx(1.0, abs=1e-10)
        assert apply_W(comp, ops, dagger=True).norm() == pytest.approx(1.0, abs=1e-10)

    def test_full_amplification_sequence_norm_preserving(self):
        rng, h, g, plan, ops = small_setup(seed=41)
        comp = random_composite(rng, ops.layout, h.n_qubits)
        out = apply_W(comp, ops)
        out = apply_reflection(out)
        out = apply_W(out, ops, dagger=True)
        out = apply_reflection(out)
        out = apply_W(out, ops)
        out.amplitudes *= -1.0
        assert out.norm() == pytest.approx(1.0, abs=1e-10)


class TestOaaSegment:
    def test_forced_s2_with_unitary_uod(self):
        h = pauli_to_pmr(parse_hamiltonian("1.0 X\n"))
        g = gamma_bounds(h)
        plan = plan_segments(h, g, LN2, 1e-14)
        ops = SegmentOperators(h, g, plan, LcuConfig(s_override=2.0))
        psi = random_state(np.random.default_rng(41), 1)
        comp = CompositeState.from_system(ops.layout, psi)
        out, diag = oaa_segment(comp, ops, DenseOracle(h))
        assert diag.anc_zero_weight == pytest.approx(1.0, abs=1e-10)
        assert diag.trace_residual < 1e-10

    def test_diagonal_with_tiny_coupling(self):
        h = pauli_to_pmr(
            [PauliString.from_word(0.8, "ZZ"), PauliString.from_word(1e-9, "XI")]
        )
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 1.0, 1e-6)
        ops = SegmentOperators(h, g, plan)
        psi = random_state(np.random.default_rng(43), 2)
        comp = CompositeState.from_system(ops.layout, psi)
        out, diag = oaa_segment(comp, ops)
        expected = np.exp(-1j * plan.delta_t * h.diagonal_values()) * psi
        assert np.linalg.norm(out.block(0) - expected) < 1e-7

    def test_robust_residual_bounded(self):
        rng = np.random.default_rng(47)
        for _ in range(3):
            h = random_pmr_hamiltonian(rng, n=2, m_terms=2)
            g = gamma_bounds(h)
            plan = plan_segments(h, g, 1.5 / g.gamma_total, 1e-4)
            ops = SegmentOperators(h, g, plan)
            oracle = DenseOracle(h)
            psi = random_state(rng, 2)
            comp = CompositeState.from_system(ops.layout, psi)
            _, diag = oaa_segment(comp, ops, oracle)
            assert diag.trace_residual <= 10 * (1e-4 / plan.r)

    def test_rejects_populated_ancilla(self):
        rng, h, g, plan, ops = small_setup(seed=53)
        comp = random_composite(rng, ops.layout, h.n_qubits)
        with pytest.raises(ValueError):
            oaa_segment(comp, ops)


def segment_cases():
    """Random Hamiltonians on N = 1..3 qubits with M = 1..3 flip terms
    (at most 2^N - 1) and times of both signs, one with an identically-zero
    hopping, and one more at negative t."""
    rng = np.random.default_rng(109)
    cases = []
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            h = random_pmr_hamiltonian(rng, n=n, m_terms=m)
            cases.append((h, (-1) ** (n + m) * 1.3))
    cases.append((with_zero_hopping(random_pmr_hamiltonian(rng, n=3, m_terms=2)), 0.9))
    cases.append((random_pmr_hamiltonian(rng, n=2, m_terms=2), -1.7))
    for h, t in cases:
        g = gamma_bounds(h)
        yield rng, h, g, plan_segments(h, g, t / g.gamma_total, 1e-3)


SEGMENT_CONFIGS = [LcuConfig(), LcuConfig(phase_bits=8), LcuConfig(s_override=2.0)]
# case 4 (N = 2, M = 2, dt = 35.7) has |dt| * spread(E) / 2 = 33.8, past the
# onset of the taylor route's cancellation (ROADMAP item 1): its taylor U_od
# reads 3.5e-5 off leibniz
TAYLOR_CANCELS = pytest.mark.xfail(
    strict=True, reason="taylor cancellation at |dt| * spread / 2 = 33.8 (ROADMAP item 1)"
)


@pytest.mark.parametrize(
    "case",
    [pytest.param(i, marks=TAYLOR_CANCELS) if i == 4 else i for i in range(len(list(segment_cases())))],
)
def test_taylor_uod_matches_leibniz(case):
    # the lcu fixtures' taylor U_od against leibniz's, which shares no
    # Taylor series with it
    _, h, g, plan = list(segment_cases())[case]
    taylor = uod_matrix(h, g, plan)
    assert np.max(np.abs(taylor - uod_matrix(h, g, plan, DdConfig("leibniz")))) <= 1e-11


def assert_same_rows(a, b):
    """Two ``series._FlipRows`` with the same masks and rows, bit for bit."""
    assert np.array_equal(a.index, b.index)
    assert np.array_equal(a.rows, b.rows)
    x = np.linspace(-1.0, 1.0, a.rows.shape[1]) + 0.5j
    assert np.array_equal(a.apply(x), b.apply(x))
    assert np.array_equal(a.apply_dagger(x), b.apply_dagger(x))


def quantize_reference(theta, bits):
    """The b-bit rounding written with ``np.mod``: ceil(mod(theta, 2 pi) /
    step) * step on a new array."""
    step = 2.0 * math.pi / (2.0 ** bits)
    return np.ceil(np.mod(theta, 2.0 * math.pi) / step) * step


def phase_rows_reference(beta, bits):
    """The (2P, 2^N) phase rows e^{i theta} written with ``np.stack``,
    ``quantize_reference`` and ``np.exp(1j * theta)``; row 2p + k is path
    p's."""
    mag = np.abs(beta)
    chi = np.where(mag > 0, np.angle(beta), 0.0)
    phi = np.arccos(np.clip(mag, 0.0, 1.0))
    theta = np.stack((chi + phi, chi - phi), axis=1).reshape(-1, beta.shape[1])
    if bits is not None:
        theta = quantize_reference(theta, bits)
    return np.exp(1j * theta)


def sample4q_case():
    """tests/data/sample4q.txt at t = 0.9, eps = 1e-3, as ``pmrsim lcu``
    plans it."""
    path = pathlib.Path(__file__).parent / "data" / "sample4q.txt"
    h = pauli_to_pmr(parse_hamiltonian_file(path))
    g = gamma_bounds(h)
    return h, g, plan_segments(h, g, 0.9, 1e-3)


class TestQuantizedPhases:
    """The phase rows and quantized V, bit for bit against the formulas
    written with ``np.mod``, ``np.stack`` and ``1j * theta``."""

    @pytest.mark.parametrize("bits", [1, 2, 8, 16, 52, 64, 1023])
    def test_quantize_matches_np_mod(self, bits):
        step = 2.0 * math.pi / (2.0 ** bits)
        edges = np.array([
            0.0, -0.0, math.pi, -math.pi, 1.5 * math.pi, -1.5 * math.pi,
            -5e-324, -step / 2, np.nextafter(2.0 * math.pi, 0.0),
        ])
        spread = np.random.default_rng(131).uniform(-1.5 * math.pi, 1.5 * math.pi, 4096)
        for theta in (edges, spread):
            out = theta.copy()
            assert lcu._quantize_angle(out, bits) is out
            assert same_bits(out, quantize_reference(theta, bits))

    def test_angles_stay_inside_the_wrap_domain(self, monkeypatch):
        # chi = -pi and +pi at |beta| = 1 and near 0 put theta at its
        # extremes; |beta| = 0 and |beta| > 1 with chi = -0.0 pin the zeros
        beta = np.array([[
            complex(-1.0, -0.0), complex(-1.0, 0.0), complex(-1e-300, -0.0),
            complex(-1e-300, 0.0), 0j, complex(-0.0, -0.0), complex(2.0, -0.0),
            1.0, 1j, -1j,
        ]])
        assert np.angle(beta[0, :4]).tolist() == [-math.pi, math.pi] * 2
        seen, quantize = [], lcu._quantize_angle

        def spy(theta, bits):
            seen.extend((theta.min(), theta.max()))
            return quantize(theta, bits)

        monkeypatch.setattr(lcu, "_quantize_angle", spy)
        for bits in (None, 1, 8, 16):
            pair = lcu._phase_pair(beta, bits)
            assert same_bits(pair.reshape(2, -1), phase_rows_reference(beta, bits))
        assert len(seen) == 6
        assert -2.0 * math.pi < min(seen) and max(seen) < 2.0 * math.pi

    @pytest.mark.parametrize("bits", [1, 8, 16])
    def test_flip_rows_match_reference(self, bits, monkeypatch):
        # V's rows (w_p / s) * (e^{i theta_+} + e^{i theta_-}) / 2 and the
        # composite's phase rows, at b bits and exact
        built, flip_rows = [], lcu._FlipRows

        def kept(flips, rows):
            built.append(rows)
            return flip_rows(flips, rows)

        monkeypatch.setattr(lcu, "_FlipRows", kept)
        cases = [(h, g, plan) for _, h, g, plan in segment_cases()] + [sample4q_case()]
        for h, g, plan in cases:
            ops = SegmentOperators(h, g, plan, LcuConfig(phase_bits=bits))
            pair = phase_rows_reference(ops._beta(), bits)
            mean = 0.5 * (pair[0::2] + pair[1::2])
            assert same_bits(built.pop(), (ops._weights / ops.s)[:, None] * mean)
            assert same_bits(ops.phases, pair)
            exact = SegmentOperators(h, g, plan)
            built.clear()  # exact V, the table over s
            assert same_bits(exact.phases, phase_rows_reference(exact._beta(), None))


class TestSystemSegment:
    """3V - 4VV'V on the system register against the composite circuit."""

    @pytest.mark.parametrize("config", SEGMENT_CONFIGS, ids=["exact", "b8", "s2"])
    def test_matches_composite_block(self, config):
        dropped = False
        for rng, h, g, plan in segment_cases():
            ops = SegmentOperators(h, g, plan, config)
            oracle = DenseOracle(h)
            dropped |= not np.all(g.gamma)
            psi = random_state(rng, h.n_qubits)
            ref, ref_diag = oaa_segment(CompositeState.from_system(ops.layout, psi), ops, oracle)
            out, diag = system_segment(psi, ops, oracle)
            assert np.max(np.abs(out - ref.block(0))) <= 1e-12
            assert diag.s == ref_diag.s
            assert diag.anc_zero_weight == pytest.approx(ref_diag.anc_zero_weight, abs=1e-12)
            assert diag.discarded_weight == pytest.approx(ref_diag.discarded_weight, abs=1e-12)
            assert diag.trace_residual == pytest.approx(ref_diag.trace_residual, abs=1e-12)
        assert dropped

    def test_evolve_lcu_matches_composite_run(self):
        # r segments with re-normalization, against the same loop through oaa_segment
        for rng, h, g, plan in segment_cases():
            psi = random_state(rng, h.n_qubits)
            out, diags = evolve_lcu(h, g, psi, plan.t_total, 1e-3)
            ops, oracle, sys = SegmentOperators(h, g, plan), DenseOracle(h), psi
            for diag in diags:
                comp, ref = oaa_segment(CompositeState.from_system(ops.layout, sys), ops, oracle)
                sys = comp.block(0) / np.linalg.norm(comp.block(0))
                assert diag.anc_zero_weight == pytest.approx(ref.anc_zero_weight, abs=1e-12)
                assert diag.trace_residual == pytest.approx(ref.trace_residual, abs=1e-12)
            assert len(diags) == plan.r
            assert np.max(np.abs(out - sys)) <= 1e-12

    def test_evolve_lcu_runs_off_the_composite(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("evolve_lcu went through the composite emulator")

        monkeypatch.setattr(lcu, "apply_B", refuse)
        monkeypatch.setattr(lcu, "apply_U_C", refuse)
        rng = np.random.default_rng(113)
        h = random_pmr_hamiltonian(rng, n=3, m_terms=3)
        g = gamma_bounds(h)
        psi = random_state(rng, 3)
        for config in SEGMENT_CONFIGS:
            out, diags = evolve_lcu(h, g, psi, 1.1, 1e-4, config)
            assert diags and np.linalg.norm(out) == pytest.approx(1.0)

    def test_phase_precision_rebuild_matches_fresh_build(self):
        # V rebuilt from one path-coefficient table at another precision
        # equals a fresh build's V at that precision, bit for bit
        for _, h, g, plan in segment_cases():
            ops = SegmentOperators(h, g, plan, LcuConfig(phase_bits=8))
            for bits in (None, 16):
                fresh = SegmentOperators(h, g, plan, LcuConfig(phase_bits=bits))
                assert_same_rows(ops.flip_rows(bits), fresh.v)
            assert ops.config.phase_bits == 8
            assert_same_rows(ops.flip_rows(8), ops.v)

    def test_rebuild_drops_cached_phases(self):
        # phase rows cached at one precision are not used for V at another
        for _, h, g, plan in segment_cases():
            exact = SegmentOperators(h, g, plan)
            exact.tables(())  # builds and caches the exact phase rows
            fresh = SegmentOperators(h, g, plan, LcuConfig(phase_bits=16))
            assert_same_rows(exact.flip_rows(16), fresh.v)
            fresh.tables(())
            assert_same_rows(fresh.flip_rows(None), exact.v)
            assert not np.array_equal(exact.phases, fresh.phases)

    def test_v_has_one_row_per_path(self, monkeypatch):
        # V = (1/s) sum_p w_p b_p P_p merges one row per path at every
        # precision; at exact phases the rows are the path table over s
        built, flip_rows = [], lcu._FlipRows

        def counted(flips, rows):
            built.append(len(flips))
            return flip_rows(flips, rows)

        for _, h, g, plan in segment_cases():
            flips, table = lcu._path_table(h, plan, DdConfig())
            with monkeypatch.context() as m:
                m.setattr(lcu, "_FlipRows", counted)
                ops = SegmentOperators(h, g, plan, LcuConfig(phase_bits=8))
                exact = ops.flip_rows(None)
            assert built == [len(flips)] * 2
            built.clear()
            assert_same_rows(exact, flip_rows(flips, table / ops.s))

    def test_phase_bits_range(self):
        for bits in (0, -3, 1024, 2.5):
            with pytest.raises(ValueError, match="phase_bits"):
                LcuConfig(phase_bits=bits)
        for bits in (None, 1, 1023, np.int64(16)):
            assert LcuConfig(phase_bits=bits).phase_bits == bits

    def test_exact_v_needs_no_phase_rows(self, monkeypatch):
        # with exact phases V's rows come from the path table; apply_U_C
        # still gets the phase rows, built on first use
        def refuse(*args, **kwargs):
            raise AssertionError("exact V went through the phase rows")

        rng = np.random.default_rng(117)
        h = random_pmr_hamiltonian(rng, n=3, m_terms=3)
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 1.1, 1e-4)
        psi = random_state(rng, 3)
        with monkeypatch.context() as m:
            m.setattr(lcu, "_phase_pair", refuse)
            ops = SegmentOperators(h, g, plan)
            out, _ = system_segment(psi, ops)
        assert "phases" not in vars(ops)
        ref, _ = oaa_segment(CompositeState.from_system(ops.layout, psi), ops)
        assert np.max(np.abs(out - ref.block(0))) <= 1e-12

    def test_diagonal_phases_built_once(self, monkeypatch):
        # e^{-i dt E} is built with the operators: a segment takes no exp and
        # reads no diagonal value
        def refuse(*args, **kwargs):
            raise AssertionError("a segment rebuilt the diagonal phases")

        for rng, h, g, plan in segment_cases():
            ops = SegmentOperators(h, g, plan)
            assert np.array_equal(
                ops.diagonal_phases, np.exp(-1j * plan.delta_t * h.diagonal_values())
            )
            ops.phases  # the composite's phase rows, built on first use
            psi = random_state(rng, h.n_qubits)
            with monkeypatch.context() as m:
                m.setattr(np, "exp", refuse)
                m.setattr(PmrHamiltonian, "diagonal_values", refuse)
                out, _ = system_segment(psi, ops)
                ref, _ = oaa_segment(CompositeState.from_system(ops.layout, psi), ops)
            assert np.max(np.abs(out - ref.block(0))) <= 1e-12


class TestEvolveLcu:
    def test_zero_time_identity(self):
        rng = np.random.default_rng(59)
        h = random_pmr_hamiltonian(rng, n=2)
        psi = random_state(rng, 2)
        out, diags = evolve_lcu(h, gamma_bounds(h), psi, 0.0, 1e-6)
        assert np.array_equal(out, psi)
        assert diags == []

    def test_diagonal_padded_hamiltonian_exact(self):
        h = pauli_to_pmr(
            [PauliString.from_word(0.8, "ZZ"), PauliString.from_word(1e-30, "XI")]
        )
        # the tiny coupling is pruned at build time, leaving a pure diagonal
        assert h.m == 0
        g = gamma_bounds(h)
        psi = random_state(np.random.default_rng(61), 2)
        out, diags = evolve_lcu(h, g, psi, 2.3, 1e-6)
        ref = DenseOracle(h).evolve(psi, 2.3)
        assert np.linalg.norm(out - ref) < 1e-13

    def test_agrees_with_series_evolution(self):
        rng = np.random.default_rng(67)
        for _ in range(3):
            h = random_pmr_hamiltonian(rng, n=3, m_terms=2)
            g = gamma_bounds(h)
            t = 2.0 / g.gamma_total
            psi = random_state(rng, 3)
            eps = 1e-5
            lcu_out, _ = evolve_lcu(h, g, psi, t, eps)
            series_out = evolve(h, g, psi, t, eps)
            assert np.linalg.norm(lcu_out - series_out) <= 5 * eps

    def test_phase_bit_sweep_monotone(self):
        rng = np.random.default_rng(71)
        h = random_pmr_hamiltonian(rng, n=2, m_terms=2)
        g = gamma_bounds(h)
        t = 1.2 / g.gamma_total
        psi = random_state(rng, 2)
        ref = DenseOracle(h).evolve(psi, t)
        errors = []
        for bits in (8, 16, 24):
            out, _ = evolve_lcu(h, g, psi, t, 1e-8, LcuConfig(phase_bits=bits))
            errors.append(np.linalg.norm(out - ref))
        exact_out, _ = evolve_lcu(h, g, psi, t, 1e-8)
        exact_err = np.linalg.norm(exact_out - ref)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] >= exact_err - 1e-12

    def test_b64_matches_exact_mode(self):
        rng = np.random.default_rng(73)
        h = random_pmr_hamiltonian(rng, n=2, m_terms=2)
        g = gamma_bounds(h)
        psi = random_state(rng, 2)
        t = 1.0 / g.gamma_total
        exact_out, _ = evolve_lcu(h, g, psi, t, 1e-6)
        quant_out, _ = evolve_lcu(h, g, psi, t, 1e-6, LcuConfig(phase_bits=64))
        assert np.linalg.norm(exact_out - quant_out) < 1e-9

    def test_s_column_near_two(self):
        rng = np.random.default_rng(79)
        h = random_pmr_hamiltonian(rng, n=2, m_terms=2)
        g = gamma_bounds(h)
        t = 1.7 / g.gamma_total
        psi = random_state(rng, 2)
        plan = plan_segments(h, g, t, 1e-5)
        _, diags = evolve_lcu(h, g, psi, t, 1e-5)
        for d in diags:
            assert abs(d.s - 2.0) <= plan.tail_bound * (1 + 1e-9)

    def test_budget_guard(self):
        rng = np.random.default_rng(83)
        h = random_pmr_hamiltonian(rng, n=3, m_terms=3)
        g = gamma_bounds(h)
        psi = random_state(rng, 3)
        with pytest.raises(WorkBudgetExceededError):
            evolve_lcu(h, g, psi, 1.0, 1e-6, composite_budget=100)
        # the budget counts stored amplitudes: anc_dim blocks of 2^N
        h = random_pmr_hamiltonian(rng, n=2, m_terms=2)
        g = gamma_bounds(h)
        psi = random_state(rng, 2)
        plan = plan_segments(h, g, 0.9, 1e-5)
        exact = AncillaLayout(plan.Q, h.m).anc_dim << h.n_qubits
        evolve_lcu(h, g, psi, 0.9, 1e-5, composite_budget=exact)
        with pytest.raises(WorkBudgetExceededError, match=r"2 \* sum_\{q<=Q\} M\^q \* 2\^N"):
            evolve_lcu(h, g, psi, 0.9, 1e-5, composite_budget=exact - 1)

    def test_runs_take_the_callers_plan(self, monkeypatch):
        # _evolve_lcu_runs plans nothing: it runs the plan it is handed,
        # diagonal-only plans included, bit for bit as evolve_lcu
        def refuse(*args, **kwargs):
            raise AssertionError("_evolve_lcu_runs planned again")

        rng = np.random.default_rng(127)
        psi = random_state(rng, 2)
        diagonal = pauli_to_pmr(parse_hamiltonian("0.8 ZZ\n-0.3 ZI\n"))
        for h, t in ((random_pmr_hamiltonian(rng, n=2, m_terms=3), 1.1), (diagonal, 2.3)):
            g = gamma_bounds(h)
            plan = plan_segments(h, g, t, 1e-4)
            ref, ref_diags = evolve_lcu(h, g, psi, t, 1e-4)
            with monkeypatch.context() as m:
                m.setattr(lcu, "plan_segments", refuse)
                out, diags, _, _ = lcu._evolve_lcu_runs(h, g, psi, plan, LcuConfig())
            assert np.array_equal(out, ref)
            assert diags == ref_diags
            assert len(diags) == (0 if plan.diagonal_only else plan.r)

    def test_deterministic(self):
        rng = np.random.default_rng(89)
        h = random_pmr_hamiltonian(rng, n=2, m_terms=2)
        g = gamma_bounds(h)
        psi = random_state(rng, 2)
        a, _ = evolve_lcu(h, g, psi, 0.9, 1e-5)
        b, _ = evolve_lcu(h, g, psi, 0.9, 1e-5)
        assert np.array_equal(a, b)

    def test_negative_time(self):
        rng = np.random.default_rng(97)
        h = random_pmr_hamiltonian(rng, n=3, m_terms=2)
        g = gamma_bounds(h)
        psi = random_state(rng, 3)
        out, _ = evolve_lcu(h, g, psi, -0.9, 1e-4)
        ref = DenseOracle(h).evolve(psi, -0.9)
        assert np.linalg.norm(out - ref) <= 10 * 1e-4

"""Segment planning, path coefficients, and truncated-series evolution."""

import itertools
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    add_input_loop,
    exact_dd_exp,
    random_pmr_hamiltonian,
    random_state,
    same_bits,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from pmrsim import (
    DdConfig,
    DenseOracle,
    PauliString,
    SeriesConvergenceError,
    WorkBudgetExceededError,
    apply_diagonal,
    apply_uod_truncated,
    dense_matrix,
    diagonal_energy,
    evolve,
    gamma_bounds,
    parse_hamiltonian,
    parse_hamiltonian_file,
    path_coefficient,
    pauli_to_pmr,
    plan_segments,
    series_tail,
    uod_matrix,
)
from pmrsim import divdiff, series
from pmrsim.lcu import evolve_lcu
from pmrsim.models import build_named_model, build_schwinger
from pmrsim.pmr import DiagonalOperator, PermutationOperator, PmrHamiltonian, hopping_strength
from pmrsim.series import DEFAULT_WORK_BUDGET, LN2

LADDER = pauli_to_pmr(parse_hamiltonian("1.0 Z\n1.0 X\n"))
LADDER_G = gamma_bounds(LADDER)
SAMPLE = pathlib.Path(__file__).parent / "data" / "sample4q.txt"


def tail_oracle(order, x=LN2, terms=300):
    """Independent partial-sum tail: sum_{q > order} x^q/q!."""
    vals, term = [], 1.0
    for q in range(1, terms):
        term *= x / q
        if q > order:
            vals.append(term)
    return math.fsum(vals)


class TestPlanSegments:
    def test_unit_gamma_ln2_time(self):
        plan = plan_segments(LADDER, LADDER_G, LN2, 1e-3)
        assert plan.r == 1
        assert plan.delta_t == pytest.approx(LN2)
        # smallest Q with tail <= 1e-3: tail(5) ~ 1.71e-4 passes,
        # tail(4) ~ 1.50e-3 fails (frozen from the independent oracle)
        assert plan.Q == 5
        assert tail_oracle(5) == pytest.approx(1.7071889386e-4, rel=1e-9)
        assert tail_oracle(4) == pytest.approx(1.5040747085e-3, rel=1e-9)
        assert plan.tail_bound == pytest.approx(tail_oracle(5), rel=1e-12)

    def test_minimality_and_bounds_across_epsilons(self):
        for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            plan = plan_segments(LADDER, LADDER_G, 2.7, eps)
            assert plan.tail_bound <= eps / plan.r
            assert series_tail(plan.Q - 1) > eps / plan.r
            assert plan.tail_bound >= tail_oracle(plan.Q)

    def test_q_grows_as_epsilon_shrinks(self):
        orders = [plan_segments(LADDER, LADDER_G, 1.9, 10.0 ** -k).Q for k in range(2, 11)]
        assert orders == sorted(orders)

    def test_zero_time_trivial(self):
        plan = plan_segments(LADDER, LADDER_G, 0.0, 1e-6)
        assert (plan.r, plan.Q, plan.tail_bound) == (1, 0, 0.0)
        assert plan.diagonal_only

    def test_diagonal_hamiltonian_flagged(self):
        h = pauli_to_pmr([PauliString.from_word(0.5, "ZZ")])
        plan = plan_segments(h, gamma_bounds(h), 3.0, 1e-6)
        assert plan.diagonal_only and plan.Q == 0 and plan.r == 1

    def test_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h = random_pmr_hamiltonian(rng)
            g = gamma_bounds(h)
            t = float(rng.uniform(0.3, 9.0))
            plan = plan_segments(h, g, t, 1e-5)
            T = t * g.gamma_total
            assert plan.T == pytest.approx(T)
            assert plan.r == math.ceil(T / LN2 - 1e-12)
            assert plan.gamma_total * abs(plan.delta_t) <= LN2 + 1e-12
            assert plan.gamma_total * abs(plan.delta_t) == pytest.approx(LN2)
            s_expected = math.fsum(
                LN2 ** q / math.factorial(q) for q in range(plan.Q + 1)
            )
            assert plan.s == pytest.approx(s_expected, rel=1e-14)
            assert abs(plan.s - 2.0) <= plan.tail_bound * (1 + 1e-9)

    def test_negative_time(self):
        plan = plan_segments(LADDER, LADDER_G, -2.0, 1e-4)
        assert plan.delta_t < 0
        assert plan.T == pytest.approx(2.0 * LADDER_G.gamma_total)

    def test_epsilon_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                plan_segments(LADDER, LADDER_G, 1.0, bad)

    def test_q_override(self):
        plan = plan_segments(LADDER, LADDER_G, LN2, 1e-3, q_override=9)
        assert plan.Q == 9
        assert plan.tail_bound == pytest.approx(tail_oracle(9), rel=1e-10)


class TestPathCoefficient:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.h = random_pmr_hamiltonian(rng, n=3, m_terms=3)
        self.g = gamma_bounds(self.h)
        self.plan = plan_segments(self.h, self.g, 1.1, 1e-6)

    def test_empty_path(self):
        for z in range(8):
            pc = path_coefficient(self.h, self.g, self.plan, z, ())
            e_z = diagonal_energy(self.h, z)
            assert pc.alpha == pytest.approx(np.exp(-1j * self.plan.delta_t * e_z))
            assert pc.beta == pytest.approx(1.0)
            assert pc.phi == 0.0 and pc.chi == 0.0

    def test_zero_hopping_gives_zero(self):
        # a diagonal with a vanishing entry kills every path through it
        strings = [
            PauliString.from_word(0.3, "ZI"),
            PauliString.from_word(0.5, "XI"),
            PauliString.from_word(0.5, "XZ"),
        ]
        h = pauli_to_pmr(strings)  # d_0(z) = 0.5 (1 + (-1)^{bit 1}) style zeros
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 0.8, 1e-6)
        zeros = [z for z in range(4) if abs(h.terms[0][0].value(z ^ 1)) < 1e-14]
        assert zeros
        pc = path_coefficient(h, g, plan, zeros[0], (0,))
        assert pc.alpha == 0 and pc.beta == 0
        assert pc.phi == pytest.approx(math.pi / 2) and pc.chi == 0.0

    def test_beta_bounded_and_consistent_exhaustively(self):
        for z in range(8):
            for q in range(1, 5):
                for idx in itertools.product(range(self.h.m), repeat=q):
                    pc = path_coefficient(self.h, self.g, self.plan, z, idx)
                    assert abs(pc.beta) <= 1 + 1e-12
                    recon = math.cos(pc.phi) * np.exp(1j * pc.chi)
                    assert abs(recon - pc.beta) < 1e-12

    def test_too_long_path_rejected(self):
        plan = plan_segments(self.h, self.g, 1.1, 1e-6, q_override=1)
        with pytest.raises(ValueError):
            path_coefficient(self.h, self.g, plan, 0, (0, 0))


class TestApplyDiagonal:
    def test_zero_diagonal_is_identity(self):
        h = pauli_to_pmr([PauliString.from_word(1.0, "XX")])
        psi = random_state(np.random.default_rng(1), 2)
        assert np.array_equal(apply_diagonal(h, psi, 0.37), psi)

    def test_matches_dense_diagonal_exponential(self):
        rng = np.random.default_rng(5)
        h = random_pmr_hamiltonian(rng, n=3)
        psi = random_state(rng, 3)
        dt = 0.83
        expected = np.exp(-1j * dt * np.diag(dense_matrix(h)).real) * psi
        assert np.max(np.abs(apply_diagonal(h, psi, dt) - expected)) < 1e-14

    def test_norm_drift_stays_tiny(self):
        # each application multiplies by phases of modulus 1 +/- ulp; the
        # per-entry bias compounds linearly, giving a measured float64 floor
        # near 2e-13 over 1e4 applications
        rng = np.random.default_rng(11)
        h = random_pmr_hamiltonian(rng, n=5)
        psi = random_state(rng, 5)
        for _ in range(10_000):
            psi = apply_diagonal(h, psi, 0.05)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


class TestApplyUod:
    def test_order_zero_is_identity(self):
        rng = np.random.default_rng(13)
        h = random_pmr_hamiltonian(rng, n=3)
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 0.9, 1e-4, q_override=0)
        psi = random_state(rng, 3)
        assert np.array_equal(apply_uod_truncated(h, g, plan, psi), psi)

    def test_single_qubit_segment_vs_dense(self):
        h = LADDER
        plan = plan_segments(h, LADDER_G, 0.4, 1e-6)
        psi = random_state(np.random.default_rng(17), 1)
        seg = apply_uod_truncated(h, LADDER_G, plan, apply_diagonal(h, psi, plan.delta_t))
        ref = DenseOracle(h).evolve(psi, plan.delta_t)
        assert np.linalg.norm(seg - ref) <= plan.tail_bound

    def test_norm_deficit_bounded(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            h = random_pmr_hamiltonian(rng)
            g = gamma_bounds(h)
            plan = plan_segments(h, g, 1.2, 1e-4)
            psi = random_state(rng, 4)
            out = apply_uod_truncated(h, g, plan, psi)
            assert abs(np.linalg.norm(out) - 1.0) <= plan.tail_bound * (1 + plan.s)

    def test_budget_error_names_product(self):
        rng = np.random.default_rng(23)
        h = random_pmr_hamiltonian(rng)
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 1.2, 1e-4)
        psi = random_state(rng, 4)
        # path enumeration (the reference route) is priced M^Q * 2^N
        with pytest.raises(WorkBudgetExceededError) as err:
            apply_uod_truncated(
                h, g, plan, psi, DdConfig(method="leibniz"), work_budget=10
            )
        assert f"{h.m}^{plan.Q}" in str(err.value)
        assert err.value.product == h.m ** plan.Q * 16
        # the taylor recursion is priced Q * M * 2^N
        with pytest.raises(WorkBudgetExceededError) as err:
            apply_uod_truncated(h, g, plan, psi, work_budget=10)
        assert f"{plan.Q} * {h.m} * 2^4" in str(err.value)
        assert err.value.product == plan.Q * h.m * 16


class TestSegmentMatrix:
    def test_segment_matches_dense_exponential_in_spectral_norm(self):
        rng = np.random.default_rng(29)
        for n, m in ((3, 2), (3, 2), (4, 3)):
            h = random_pmr_hamiltonian(rng, n=n, m_terms=m)
            g = gamma_bounds(h)
            plan = plan_segments(h, g, 0.8, 1e-6)
            seg = uod_matrix(h, g, plan) @ np.diag(
                np.exp(-1j * plan.delta_t * h.diagonal_values())
            )
            ref = DenseOracle(h).unitary(plan.delta_t)
            gap = np.linalg.norm(seg - ref, ord=2)
            assert gap <= plan.tail_bound

    def test_factorizations_agree(self):
        # depositing e^{-i dt E_z} inside alpha must equal the separate
        # diagonal pass followed by the beta-form engine
        rng = np.random.default_rng(31)
        h = random_pmr_hamiltonian(rng, n=2, m_terms=2)
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 0.7, 1e-4)
        psi = random_state(rng, 2)
        pipeline = apply_uod_truncated(h, g, plan, apply_diagonal(h, psi, plan.delta_t))
        direct = np.zeros(4, dtype=complex)
        for z in range(4):
            for q in range(plan.Q + 1):
                for idx in itertools.product(range(h.m), repeat=q):
                    pc = path_coefficient(h, g, plan, z, idx)
                    dest = z
                    for i in idx:
                        dest ^= h.terms[i][1].x_mask
                    direct[dest] += pc.alpha * psi[z]
        assert np.max(np.abs(pipeline - direct)) < 1e-12


class TestEvolve:
    def test_zero_time_identity(self):
        rng = np.random.default_rng(37)
        h = random_pmr_hamiltonian(rng)
        psi = random_state(rng, 4)
        assert np.array_equal(evolve(h, gamma_bounds(h), psi, 0.0, 1e-6), psi)

    def test_diagonal_hamiltonian_exact(self):
        rng = np.random.default_rng(41)
        strings = [
            PauliString(float(rng.uniform(-1, 1)), int(rng.integers(1, 32)), 0, 0, 5)
            for _ in range(6)
        ]
        h = pauli_to_pmr(strings)
        g = gamma_bounds(h)
        oracle = DenseOracle(h)
        psi = random_state(rng, 5)
        for eps in (0.5, 1e-3, 1e-9):
            for t in (0.7, 3.0, 12.0):
                out = evolve(h, g, psi, t, eps)
                assert np.linalg.norm(out - oracle.evolve(psi, t)) < 1e-13

    def test_four_qubit_dimensionless_time_five(self):
        rng = np.random.default_rng(43)
        h = random_pmr_hamiltonian(rng, n=4, m_terms=3)
        g = gamma_bounds(h)
        t = 5.0 / g.gamma_total
        psi = random_state(rng, 4)
        out = evolve(h, g, psi, t, 1e-6)
        assert np.linalg.norm(out - DenseOracle(h).evolve(psi, t)) <= 1e-6

    def test_four_qubit_tight_tolerance(self):
        rng = np.random.default_rng(45)
        h = random_pmr_hamiltonian(rng, n=4, m_terms=3)
        g = gamma_bounds(h)
        t = 3.0 / g.gamma_total
        psi = random_state(rng, 4)
        out = evolve(h, g, psi, t, 1e-8)
        assert np.linalg.norm(out - DenseOracle(h).evolve(psi, t)) <= 1e-8

    def test_error_scales_linearly_in_segment_count(self):
        h = pauli_to_pmr(parse_hamiltonian("0.6 ZI\n0.25 ZZ\n1.0 XI\n"))
        g = gamma_bounds(h)
        rng = np.random.default_rng(47)
        psi = random_state(rng, 2)
        oracle = DenseOracle(h)
        t1, t2 = 4 * LN2, 8 * LN2  # same delta_t, r doubles
        e1 = np.linalg.norm(evolve(h, g, psi, t1, 1e-2, q_override=4) - oracle.evolve(psi, t1))
        e2 = np.linalg.norm(evolve(h, g, psi, t2, 1e-2, q_override=4) - oracle.evolve(psi, t2))
        assert plan_segments(h, g, t1, 1e-2, q_override=4).delta_t == pytest.approx(
            plan_segments(h, g, t2, 1e-2, q_override=4).delta_t
        )
        assert e2 <= 2.0 * e1 * 1.2

    def test_negative_time_and_sum_abs_bounds(self):
        rng = np.random.default_rng(61)
        h = random_pmr_hamiltonian(rng, n=3, m_terms=3)
        psi = random_state(rng, 3)
        oracle = DenseOracle(h)
        for mode in ("exact", "sum_abs"):
            g = gamma_bounds(h, mode)
            for t in (-1.7, 1.7):
                out = evolve(h, g, psi, t, 1e-7)
                assert np.linalg.norm(out - oracle.evolve(psi, t)) <= 1e-7

    def test_methods_agree(self):
        rng = np.random.default_rng(53)
        h = random_pmr_hamiltonian(rng, n=2, m_terms=2)
        g = gamma_bounds(h)
        psi = random_state(rng, 2)
        base = evolve(h, g, psi, 0.9, 1e-8)
        for method in ("pyramid", "leibniz"):
            out = evolve(h, g, psi, 0.9, 1e-8, config=DdConfig(method=method))
            assert np.max(np.abs(out - base)) < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(59)
        h = random_pmr_hamiltonian(rng)
        g = gamma_bounds(h)
        psi = random_state(rng, 4)
        a = evolve(h, g, psi, 1.3, 1e-6)
        b = evolve(h, g, psi, 1.3, 1e-6)
        assert np.array_equal(a, b)


def number_conserving_hamiltonian(rng, n):
    """Random XX + YY hopping plus Z and ZZ fields.  The set-bit count is
    conserved, and every hopping table d_i vanishes wherever the two
    flipped bits are equal."""
    strings = []
    for a in range(n - 1):
        for b in range(a + 1, n):
            if rng.random() < 0.6:
                c = float(rng.uniform(-1, 1))
                bits = (1 << a) | (1 << b)
                strings.append(PauliString(c, 0, bits, 0, n))
                strings.append(PauliString(c, 0, 0, bits, n))
    for _ in range(3):
        strings.append(
            PauliString(float(rng.uniform(-1, 1)), int(rng.integers(1, 1 << n)), 0, 0, n)
        )
    return pauli_to_pmr(strings)


def applied(op, block):
    """A U_od operator applied to each column of ``block`` (2^N, k) on the
    states it acts on, zero on the others."""
    out = np.zeros_like(block)
    out[op.states] = op.apply(block[op.states])
    return out


def enumerated(h, plan, block, cfg):
    """The truncated U_od applied to each column of ``block`` by the flip
    rows of every path from its nonzero rows, evaluated with ``cfg``'s
    method, taylor included."""
    support = np.any(block != 0, axis=1)
    table = series._path_table(h, plan, cfg, np.flatnonzero(support))
    return applied(series._FlipRows(*table, support), block)


def recursion(h, plan, block):
    """The truncated U_od applied to each column of ``block`` by the
    basis-state recursion, built on the block's nonzero rows."""
    return applied(series._Recursion(h, plan, np.any(block != 0, axis=1), plan.Q), block)


def reference_segment(h, plan, psi):
    """The truncated U_od by explicit path enumeration (taylor evaluator)."""
    return enumerated(h, plan, psi[:, None], DdConfig())[:, 0]


def source_states(rng, n):
    """Dense, basis, sparse and all-zero sources."""
    dim = 1 << n
    basis = np.zeros(dim, dtype=complex)
    basis[int(rng.integers(dim))] = 1.0
    sparse = np.zeros(dim, dtype=complex)
    picks = rng.choice(dim, size=max(1, dim // 4), replace=False)
    sparse[picks] = rng.normal(size=len(picks)) + 1j * rng.normal(size=len(picks))
    return [random_state(rng, n), basis, sparse, np.zeros(dim, dtype=complex)]


class TestRecursionVsReference:
    """The taylor route's basis-state recursion against path enumeration."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_hamiltonians(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 2 + seed % 4
        h = random_pmr_hamiltonian(rng, n=n, m_terms=3)
        g = gamma_bounds(h)
        for t in (1.3, -1.3):
            for q in (None, 1, 2):
                plan = plan_segments(h, g, t, 1e-5, q_override=q)
                for psi in source_states(rng, n):
                    out = apply_uod_truncated(h, g, plan, psi)
                    assert np.max(np.abs(out - reference_segment(h, plan, psi))) <= 1e-12

    def test_leibniz_path_reference(self):
        # reference_segment shares the Taylor kernel's profile step with the
        # recursion; leibniz path enumeration shares none of it
        rng = np.random.default_rng(250)
        hams = [random_pmr_hamiltonian(rng, n=n, m_terms=3) for n in (2, 3, 4, 5)]
        hams += [number_conserving_hamiltonian(rng, n) for n in (3, 4, 5)]
        for h in hams:
            g = gamma_bounds(h)
            for t in (1.3, -1.3):
                plan = plan_segments(h, g, t, 1e-5, q_override=4)
                block = np.stack(source_states(rng, h.n_qubits), axis=1)
                ref = enumerated(h, plan, block, DdConfig("leibniz"))
                out = recursion(h, plan, block)
                assert np.max(np.abs(out - ref)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_hopping_with_zeros(self, n):
        rng = np.random.default_rng(200 + n)
        h = number_conserving_hamiltonian(rng, n)
        assert any(np.any(h.term_values(i) == 0) for i in range(h.m))
        g = gamma_bounds(h)
        for t in (0.9, -0.9):
            plan = plan_segments(h, g, t, 1e-5)
            for psi in source_states(rng, n):
                out = apply_uod_truncated(h, g, plan, psi)
                assert np.max(np.abs(out - reference_segment(h, plan, psi))) <= 1e-12

    def test_order_zero_and_diagonal_only(self):
        rng = np.random.default_rng(300)
        h = random_pmr_hamiltonian(rng, n=3, m_terms=3)
        g = gamma_bounds(h)
        diag = pauli_to_pmr([PauliString.from_word(0.7, "ZZI")])
        plans = [
            (h, g, plan_segments(h, g, 1.1, 1e-4, q_override=0)),
            (h, g, plan_segments(h, g, 0.0, 1e-4)),
            (diag, gamma_bounds(diag), plan_segments(diag, gamma_bounds(diag), 1.1, 1e-4)),
        ]
        for hh, gg, plan in plans:
            assert plan.Q == 0
            for psi in source_states(rng, 3):
                out = apply_uod_truncated(hh, gg, plan, psi)
                assert np.array_equal(out, psi)
                assert np.array_equal(out, reference_segment(hh, plan, psi))

    @pytest.mark.parametrize(
        "method, sizes, q",
        [("taylor", (3, 4), None), ("leibniz", (2,), 3)],
        ids=["taylor", "leibniz"],
    )
    def test_matrix_columns_are_basis_images(self, method, sizes, q):
        rng = np.random.default_rng(400)
        cfg = DdConfig(method=method)
        hams = [random_pmr_hamiltonian(rng, n=sizes[0])]
        hams += [number_conserving_hamiltonian(rng, n) for n in sizes[1:]]
        for h in hams:
            g = gamma_bounds(h)
            plan = plan_segments(h, g, -0.8, 1e-6, q_override=q)
            mat = uod_matrix(h, g, plan, cfg)
            dim = 1 << h.n_qubits
            for z in range(dim):
                e_z = np.zeros(dim, dtype=complex)
                e_z[z] = 1.0
                col = apply_uod_truncated(h, g, plan, e_z, cfg)
                assert np.max(np.abs(mat[:, z] - col)) <= 1e-12
            ref = enumerated(h, plan, np.eye(dim, dtype=complex), DdConfig())
            assert np.max(np.abs(mat - ref)) <= 1e-12
            # a block with zero rows and zero entries: each column on its own
            block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
            block[rng.random((dim, 3)) < 0.3] = 0.0
            block[[0, dim - 1]] = 0.0
            out = enumerated(h, plan, block, cfg)
            for c in range(3):
                col = enumerated(h, plan, block[:, c:c + 1], cfg)[:, 0]
                assert np.max(np.abs(out[:, c] - col)) <= 1e-12
            rec = recursion(h, plan, block)
            assert np.max(np.abs(out - rec)) <= 1e-12

    def test_evolve_equals_repeated_segments(self):
        # a hopping chain spreads a basis state one site per flip, so the
        # r segments reach far more states than one segment's Q flips
        n = 6
        strings = [PauliString.from_word(0.4, "ZZIIII"), PauliString.from_word(-0.3, "IIIZIZ")]
        for a in range(n - 1):
            for ch in "XY":
                strings.append(PauliString.from_word(0.5, "I" * a + ch * 2 + "I" * (n - a - 2)))
        h = pauli_to_pmr(strings)
        g = gamma_bounds(h)
        psi = np.zeros(1 << n, dtype=complex)
        psi[0b000111] = 1.0
        plan = plan_segments(h, g, 6.0, 1e-3, q_override=2)
        assert plan.r >= 4
        seg = psi
        for _ in range(plan.r):
            seg = apply_uod_truncated(h, g, plan, apply_diagonal(h, seg, plan.delta_t))
        out = evolve(h, g, psi, 6.0, 1e-3, q_override=2)
        assert np.max(np.abs(out - seg)) <= 1e-12

    def test_evolve_stays_in_number_sector(self):
        rng = np.random.default_rng(500)
        n = 5
        h = number_conserving_hamiltonian(rng, n)
        g = gamma_bounds(h)
        z0 = 0b01011
        psi = np.zeros(1 << n, dtype=complex)
        psi[z0] = 1.0
        counts = np.array([bin(z).count("1") for z in range(1 << n)])
        for t, eps in ((4.0, 1e-6), (-2.5, 1e-9)):
            # the work budget prices path enumeration (M^Q * 2^N), which
            # this route does not do
            out = evolve(h, g, psi, t, eps, work_budget=1 << 62)
            assert np.all(out[counts != counts[z0]] == 0)
            assert np.linalg.norm(out - DenseOracle(h).evolve(psi, t)) <= eps

    def test_number_sector_within_default_budget(self):
        # 8^9 * 2^5 paths exceed the default budget, but the recursion's
        # Q * M * 2^N gathers do not
        h = number_conserving_hamiltonian(np.random.default_rng(500), 5)
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 4.0, 1e-6)
        assert h.m ** plan.Q * 32 > DEFAULT_WORK_BUDGET
        psi = np.zeros(32, dtype=complex)
        psi[0b01011] = 1.0
        out = evolve(h, g, psi, 4.0, 1e-6)
        assert np.linalg.norm(out - DenseOracle(h).evolve(psi, 4.0)) <= 1e-6

    def test_taylor_run_priced_on_reachable_states(self):
        # a three-particle state reaches the C(5, 3) = 10 states of its sector,
        # so all r segments are priced r * Q * M * 10, not r * Q * M * 2^5
        h = number_conserving_hamiltonian(np.random.default_rng(500), 5)
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 4.0, 1e-6)
        psi = np.zeros(32, dtype=complex)
        psi[0b01011] = 1.0
        price = plan.r * plan.Q * h.m * 10
        assert plan.r > 1 and price < plan.r * plan.Q * h.m * 32
        out = evolve(h, g, psi, 4.0, 1e-6, work_budget=price)
        assert np.linalg.norm(out - DenseOracle(h).evolve(psi, 4.0)) <= 1e-6
        with pytest.raises(WorkBudgetExceededError, match="r \\* recursion work Q \\* M \\* \\|R\\|") as err:
            evolve(h, g, psi, 4.0, 1e-6, work_budget=price - 1)
        assert err.value.product == price

    def test_reference_route_still_prices_paths(self):
        h = number_conserving_hamiltonian(np.random.default_rng(500), 5)
        g = gamma_bounds(h)
        psi = np.zeros(32, dtype=complex)
        psi[0b01011] = 1.0
        with pytest.raises(WorkBudgetExceededError, match="path work M\\^Q"):
            evolve(h, g, psi, 4.0, 1e-6, DdConfig(method="leibniz"))


def reachable_states(h, support, flips):
    """R from its definition, in plain Python: the support and every state
    w = z ^ mask_i, z already in R, with d_i(w) != 0, within ``flips`` flips."""
    reach = set(support)
    for _ in range(flips):
        reach |= {
            z ^ int(mask)
            for z in reach
            for i, mask in enumerate(h.x_masks())
            if hopping_strength(h, i, z ^ int(mask)) != 0
        }
    return sorted(reach)


def with_term_zero_on_sector(h, n):
    """``h`` plus a flip of every qubit whose d is nonzero only at the basis
    states 0 and 2^n - 1, so it vanishes on every sector with 1..n-1 set
    bits; the number-conserving hoppings flip two qubits each."""
    full = (1 << n) - 1
    proj = [(1.0 / (1 << n), m) for m in range(1 << n) if bin(m).count("1") % 2 == 0]
    return PmrHamiltonian(h.d0, h.terms + ((DiagonalOperator(proj, n), PermutationOperator(full)),), n)


def stacked_sweep_reference(h, rec, start):
    """``_Recursion.sweep`` as one gather per term in ascending term order,
    with the same deposit product and the literal input-addition loop on the
    float y: the stacked sweep must equal it bitwise."""
    n_rows = len(rec.states)
    pos = np.full(1 << h.n_qubits, n_rows)
    pos[rec.states] = np.arange(n_rows)
    terms = []
    for i, mask in enumerate(h.x_masks()):
        src_pos = pos[rec.states ^ mask]
        coef = np.where(src_pos < n_rows, h.term_values(i)[rec.states], 0.0)[:, None]
        if np.any(coef != 0):
            terms.append((src_pos, coef))
    n_deg = rec.pref.shape[1]
    out = np.zeros((n_rows, start.shape[1]), dtype=complex)
    prof = np.zeros((n_deg, n_rows + 1, start.shape[1]), dtype=complex)
    prof[0, :n_rows] = start
    y = rec.y.real
    add_input_loop(prof[:, :n_rows], y)
    for q in range(1, rec.pref.shape[0]):
        level = np.zeros((n_deg, n_rows, start.shape[1]), dtype=complex)
        for src_pos, coef in terms:
            level += coef * prof[:, src_pos]
        add_input_loop(level, y)
        out += (rec.pref[q] @ level.reshape(n_deg, -1)).reshape(out.shape)
        prof[:, :n_rows] = level
    return out


def mask_of(n, *states):
    """Boolean support over the 2^n basis states."""
    mask = np.zeros(1 << n, dtype=bool)
    mask[list(states)] = True
    return mask


class TestStackedRecursion:
    """The set-up tables and the stacked gather of the taylor recursion."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_reachable_set_from_definition(self, n):
        rng = np.random.default_rng(700 + n)
        hams = [number_conserving_hamiltonian(rng, n), random_pmr_hamiltonian(rng, n=n, m_terms=4)]
        hams.append(with_term_zero_on_sector(number_conserving_hamiltonian(rng, n), n))
        for h in hams:
            g = gamma_bounds(h)
            plan = plan_segments(h, g, 0.9, 1e-4)
            for support in ([0b111], [0b1011, 0b10101 & ((1 << n) - 1)], [0, 1]):
                for flips in (0, 1, 2, plan.Q, 4 * plan.Q):
                    rec = series._Recursion(h, plan, mask_of(n, *support), flips)
                    assert rec.states.tolist() == reachable_states(h, support, flips)
        # the extra term of the last Hamiltonian is zero on the three-particle
        # sector: R stays in it, and the term gets no gather
        h = hams[-1]
        plan = plan_segments(h, gamma_bounds(h), 0.9, 1e-4)
        rec = series._Recursion(h, plan, mask_of(n, 0b111), 4 * plan.Q)
        assert h.m - 1 not in rec.terms and len(rec.src_pos) == len(rec.terms)
        assert all(bin(z).count("1") == 3 for z in rec.states.tolist())

    @pytest.mark.parametrize("n", [4, 5])
    def test_reach_from_empty_and_full_support(self, n):
        rng = np.random.default_rng(750 + n)
        hams = [number_conserving_hamiltonian(rng, n), random_pmr_hamiltonian(rng, n=n, m_terms=4)]
        hams.append(with_term_zero_on_sector(number_conserving_hamiltonian(rng, n), n))
        every = list(range(1 << n))
        for h in hams:
            for flips in (1, 3):
                for support in ([], every):
                    reach = series._reach(h, mask_of(n, *support), flips)
                    assert np.flatnonzero(reach).tolist() == reachable_states(h, support, flips)
            # each breadth-first step adds the states one flip further out
            for flips in range(5):
                reach = series._reach(h, mask_of(n, 0b11), flips)
                assert np.flatnonzero(reach).tolist() == reachable_states(h, [0b11], flips)

    def test_setup_reads_no_full_arrays(self, monkeypatch):
        # E and d_i come from the support tables at R: the set-up never asks
        # for a value over all 2^N states
        h = number_conserving_hamiltonian(np.random.default_rng(500), 5)
        plan = plan_segments(h, gamma_bounds(h), 4.0, 1e-6)
        ref = series._Recursion(h, plan, mask_of(5, 0b01011), 3 * plan.Q)
        for name in ("term_values", "diagonal_values"):
            monkeypatch.setattr(PmrHamiltonian, name, None)
        rec = series._Recursion(h, plan, mask_of(5, 0b01011), 3 * plan.Q)
        assert len(rec.states) == 10
        for name in ("states", "terms", "src_pos", "coef", "y", "pref", "lift"):
            assert getattr(rec, name).tobytes() == getattr(ref, name).tobytes()

    def test_second_evolve_holds_no_term_tables(self):
        # the tables that depend only on H are cached on it: a second evolve
        # from a basis state holds a few 2^N-entry masks and its result, not
        # M * 2^N flip indices or complex values
        h, _ = build_named_model("fermi_hubbard", 7)
        g = gamma_bounds(h)
        dim = 1 << h.n_qubits
        psi = np.zeros(dim, dtype=complex)
        psi[0b11] = 1.0
        t = 2.0 / g.gamma_total
        first = evolve(h, g, psi, t, 1e-6)
        tracemalloc.start()
        try:
            second = evolve(h, g, psi, t, 1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(first, second)
        assert peak < 32 * dim

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_sweep_equals_per_term_loop(self, seed):
        rng = np.random.default_rng(800 + seed)
        n = 4 + seed
        for h in (random_pmr_hamiltonian(rng, n=n, m_terms=5), number_conserving_hamiltonian(rng, n)):
            plan = plan_segments(h, gamma_bounds(h), -1.1, 1e-7)
            block = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
            block[rng.random(1 << n) < 0.5] = 0.0
            rec = series._Recursion(h, plan, np.any(block != 0, axis=1), plan.Q)
            start = np.exp(1j * plan.delta_t * rec.y.real) * block[rec.states]
            out = np.zeros_like(start)
            rec.sweep(out, start)
            assert np.array_equal(out, stacked_sweep_reference(h, rec, start))

    def test_term_groups_do_not_change_a_bit(self, monkeypatch):
        # a gather cap of one entry puts each term in its own group, and a cap
        # of three terms' entries makes groups of three with a short last one
        rng = np.random.default_rng(900)
        n = 5
        h = number_conserving_hamiltonian(rng, n)
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 0.8, 1e-8)
        block = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
        block[rng.random((1 << n, 3)) < 0.3] = 0.0
        block[[0, 5, (1 << n) - 1]] = 0.0
        psi = random_state(rng, n)
        one_group = recursion(h, plan, block)
        evolved = evolve(h, g, psi, 2.5, 1e-8)
        rec = series._Recursion(h, plan, np.any(block != 0, axis=1), plan.Q)
        assert len(rec.src_pos) > 3 and len(rec.src_pos) % 3
        three = 3 * rec.pref.shape[1] * len(rec.states) * 3
        for cap in (1, three):
            with monkeypatch.context() as m:
                m.setattr(series, "_EVAL_CHUNK_ROWS", cap)
                assert np.array_equal(recursion(h, plan, block), one_group)
                if cap == 1:
                    assert np.array_equal(evolve(h, g, psi, 2.5, 1e-8), evolved)

    def test_plan_unchanged_by_memoized_tail(self):
        # plan_segments reads series_tail through its cache; the uncached
        # function gives the same Q and tail bound, bit for bit
        h = random_pmr_hamiltonian(np.random.default_rng(950), n=3)
        g = gamma_bounds(h)
        tail = series_tail.__wrapped__
        for t, eps in ((0.7, 1e-3), (5.0, 1e-9), (-40.0, 1e-12)):
            plan = plan_segments(h, g, t, eps)
            assert tail(plan.Q) <= eps / plan.r < tail(plan.Q - 1)
            assert plan.tail_bound == tail(plan.Q)


class TestFlipRows:
    """U_od as flip rows, the one form of an enumerated segment."""

    def test_repeated_masks_match_dense(self):
        rng = np.random.default_rng(1200)
        dim = 16
        flips = np.array([0, 5, 3, 5, 0, 12, 3, 5])
        values = rng.normal(size=(len(flips), dim)) + 1j * rng.normal(size=(len(flips), dim))
        rows = series._FlipRows(flips, values)
        assert len(rows.rows) == 4
        # each input row deposits its value at source z into row z ^ f
        ref = np.zeros((dim, dim), dtype=complex)
        for f, row in zip(flips.tolist(), values):
            for z in range(dim):
                ref[z ^ f, z] += row[z]
        mat = rows.dense()
        assert np.max(np.abs(mat - ref)) <= 1e-14
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        for x in (vec, block):
            assert rows.apply(x).shape == x.shape
            assert np.max(np.abs(rows.apply(x) - mat @ x)) <= 1e-14
            assert np.max(np.abs(rows.apply_dagger(x) - mat.conj().T @ x)) <= 1e-14

    @pytest.mark.parametrize("shape", [(40, 16), (300, 64)])
    def test_merge_equals_add_at_bitwise(self, shape, monkeypatch):
        # rows that share a mask are summed in their given order, as an
        # unbuffered np.add.at does; small caps split the columns into blocks
        rng = np.random.default_rng(1250)
        n_rows, dim = shape
        pool = np.concatenate(([0], rng.choice(np.arange(1, dim), 5, replace=False)))
        flips = pool[rng.integers(0, len(pool), n_rows)]
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        values[rng.random(shape) < 0.3] = 0.0
        values[::7] = -0.0
        masks, group = np.unique(flips, return_inverse=True)
        ref = np.zeros((len(masks), dim), dtype=complex)
        np.add.at(ref, group, values)
        for cap in (series._EVAL_CHUNK_ROWS, n_rows * 5, 1):
            with monkeypatch.context() as m:
                m.setattr(series, "_EVAL_CHUNK_ROWS", cap)
                assert series._FlipRows(flips, values).rows.tobytes() == ref.tobytes()
        support = np.zeros(2 * dim, dtype=bool)
        support[rng.choice(2 * dim, dim, replace=False)] = True
        rows = series._FlipRows(flips, values, support)
        assert rows.rows[:, support].tobytes() == ref.tobytes()
        assert not rows.rows[:, ~support].any()

    def test_evolve_enumerates_paths_once(self, monkeypatch):
        # 13 qubits is past the dense segment matrix: the r segments apply
        # the rows of one enumeration, with no oracle at this size
        n = 13
        words = [(0.5, "Z" + "I" * 12), (-0.3, "IIZZ" + "I" * 9), (0.4, "X" + "I" * 12),
                 (0.3, "I" * 5 + "XX" + "I" * 6), (-0.2, "I" * 10 + "YYI")]
        h = pauli_to_pmr([PauliString.from_word(c, w) for c, w in words])
        g = gamma_bounds(h)
        t, eps = 2.0, 5e-2
        plan = plan_segments(h, g, t, eps)
        assert h.m <= 3 and plan.r >= 3
        psi = random_state(np.random.default_rng(1300), n)
        calls = []
        path_levels = series._path_levels

        def counted(*args, **kwargs):
            calls.append(args[2])
            return path_levels(*args, **kwargs)

        monkeypatch.setattr(series, "_path_levels", counted)
        out = evolve(h, g, psi, t, eps, DdConfig(method="pyramid"))
        assert len(calls) == 1
        assert np.linalg.norm(out - evolve(h, g, psi, t, eps)) <= eps

    def test_evolve_builds_recursion_once(self, monkeypatch):
        # a three-particle state reaches the C(5, 3) = 10 states of its
        # sector: taylor evolve builds one recursion on them, and each of the
        # r segments applies it to those 10 rows, not to all 2^5
        h = number_conserving_hamiltonian(np.random.default_rng(500), 5)
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 4.0, 1e-6)
        psi = np.zeros(32, dtype=complex)
        psi[0b01011] = 1.0
        builds, rows = [], []
        recursion_type, apply = series._Recursion, series._Recursion.apply

        def built(*args):
            builds.append(recursion_type(*args))
            return builds[-1]

        def counted(self, x):
            rows.append(len(x))
            return apply(self, x)

        monkeypatch.setattr(series._Recursion, "apply", counted)
        monkeypatch.setattr(series, "_Recursion", built)
        out = evolve(h, g, psi, 4.0, 1e-6)
        assert len(builds) == 1 and len(builds[0].states) == 10
        assert plan.r > 1 and rows == [10] * plan.r
        assert np.linalg.norm(out - DenseOracle(h).evolve(psi, 4.0)) <= 1e-6

    def test_evolve_enumerates_from_states_its_segments_feed(self, monkeypatch):
        # a three-particle state feeds only the C(5, 3) = 10 states of its
        # sector: leibniz evolve enumerates from those 10 sources, not all
        # 2^5, and gives bitwise the rows enumerated from every source
        h = number_conserving_hamiltonian(np.random.default_rng(500), 5)
        g = gamma_bounds(h)
        cfg = DdConfig(method="leibniz")
        plan = plan_segments(h, g, 1.5, 1e-2)
        assert (plan.r, plan.Q) == (18, 5)
        psi = np.zeros(32, dtype=complex)
        psi[0b01011] = 1.0
        sources = []
        path_levels = series._path_levels

        def counted(h, plan, src, *args):
            sources.append(len(src))
            return path_levels(h, plan, src, *args)

        monkeypatch.setattr(series, "_path_levels", counted)
        out = evolve(h, g, psi, 1.5, 1e-2, cfg)
        assert sources == [10]
        rows = series._FlipRows(*series._path_table(h, plan, cfg))
        phases = np.exp(-1j * plan.delta_t * h.diagonal_values())
        ref = psi
        for _ in range(plan.r):
            ref = rows.apply(phases * ref)
        assert np.array_equal(out, ref)

    def test_block_enumerates_from_its_support(self, monkeypatch):
        # paths run only from the block's nonzero rows; the matrix
        # enumerates from every source
        rng = np.random.default_rng(1400)
        h = random_pmr_hamiltonian(rng, n=4, m_terms=3)
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 0.9, 1e-4)
        cfg = DdConfig(method="leibniz")
        sources, columns = [], []
        path_levels, path_table = series._path_levels, series._path_table

        def counted(h, plan, src, *args):
            sources.append(len(src))
            return path_levels(h, plan, src, *args)

        def tabled(*args):
            flips, table = path_table(*args)
            columns.append(table.shape[1])
            return flips, table

        monkeypatch.setattr(series, "_path_levels", counted)
        monkeypatch.setattr(series, "_path_table", tabled)
        block = np.zeros((16, 2), dtype=complex)
        block[[3, 9], 0] = 1.0
        block[9, 1] = 0.5j
        out = series._segment(h, g, plan, block, cfg, DEFAULT_WORK_BUDGET)
        mat = uod_matrix(h, g, plan, cfg)
        assert sources == [2, 16]
        # the block's table holds the columns of its two sources only
        assert columns == [2, 16]
        assert np.max(np.abs(out - mat @ block)) <= 1e-13


def with_zero_hopping(h):
    """h plus a term whose diagonal is identically zero: ``_path_levels``
    drops every path through it."""
    used = set(h.x_masks().tolist())
    free = next(m for m in range(1, 1 << h.n_qubits) if m not in used)
    zero = (DiagonalOperator.zero(h.n_qubits), PermutationOperator(free))
    return PmrHamiltonian(h.d0, (*h.terms, zero), h.n_qubits)


def path_level_cases():
    """(h, sources, t): random and number-conserving Hamiltonians with N <= 5,
    one with a constant diagonal, one with a term that is zero everywhere,
    and one from a proper subset of the sources."""
    rng = np.random.default_rng(1000)
    for n in (2, 3, 4, 5):
        yield random_pmr_hamiltonian(rng, n=n, m_terms=3), np.arange(1 << n), 1.3
    for n in (3, 4, 5):
        yield number_conserving_hamiltonian(rng, n), np.arange(1 << n), -0.9
    yield random_pmr_hamiltonian(rng, n=3, m_terms=3, n_diag=0), np.arange(8), -1.1
    yield with_zero_hopping(random_pmr_hamiltonian(rng, n=3, m_terms=2)), np.arange(8), 0.7
    yield random_pmr_hamiltonian(rng, n=4, m_terms=3), np.array([1, 6, 7, 12]), -1.7


def path_levels_reference(h, plan, sources, config):
    """``series._path_levels`` with its live filter applied at every level,
    whether or not the level drops a path."""
    energies = h.diagonal_values()
    d_tab = np.array([h.term_values(i) for i in range(h.m)])
    masks = h.x_masks()
    e_src = energies[sources]
    taylor = config.method == "taylor"
    if taylor:
        c, y, pref = series._taylor_table(energies, plan.delta_t, plan.Q)
        parts = np.stack((pref.real, pref.imag), axis=1)
        shift = np.exp(-1j * plan.delta_t * (c - e_src))
        prof = np.zeros((pref.shape[1], 1, len(sources)))
        prof[0] = 1.0
        divdiff._add_input(prof, y[sources])
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
        parent, keep, dest, dprod = parent[live], keep[live], dest[live], dprod[live]
        if taylor:
            prof = np.take(prof, parent, axis=1)
            divdiff._add_input(prof, y[dest])
            dd = np.empty(dest.shape, dtype=complex)
            dd.real, dd.imag = (parts[q] @ prof.reshape(len(prof), -1)).reshape(2, *dest.shape)
            dd *= shift
        else:
            seq = np.concatenate((seq[parent], (energies[dest] - e_src)[..., None]), axis=2)
            dd = series.dd_exp(seq.reshape(-1, q + 1), plan.delta_t, config).reshape(dest.shape)
        dd *= dprod
        yield flips, keep, dest, dd


class TestPathLevels:
    """The path enumerator shared by the enumerated segment and ``lcu``."""

    @pytest.mark.parametrize("method", ["taylor", "leibniz"])
    def test_live_filter_matches_reference(self, method):
        # 4-qubit Schwinger's hoppings w(1 - Z_i Z_{i+1}) vanish on half the
        # states, so its levels from q = 3 on drop paths; sample4q drops none
        cfg = DdConfig(method)
        sample = pauli_to_pmr(parse_hamiltonian_file(SAMPLE))
        schwinger, _ = build_schwinger(4, mass=0.3, coupling=1.2, spacing=0.7)
        for h, drops in ((schwinger, True), (sample, False)):
            plan = plan_segments(h, gamma_bounds(h), 0.9, 1e-3)
            sources = np.arange(1 << h.n_qubits)
            levels = list(series._path_levels(h, plan, sources, cfg))
            ref = list(path_levels_reference(h, plan, sources, cfg))
            assert len(levels) == len(ref) == plan.Q
            for level, level_ref in zip(levels, ref):
                assert all(same_bits(a, b) for a, b in zip(level, level_ref))
            kept = [len(keep) for _, keep, _, _ in levels]
            assert (kept != [h.m ** q for q in range(1, plan.Q + 1)]) == drops
            # the table holds the reference's rows; a dropped path keeps a
            # zero row, and only kept paths extend
            _, table = series._path_table(h, plan, cfg)
            ref_table = np.zeros_like(table)
            ref_table[0] = 1.0
            lo, parents = 1, np.zeros(1, dtype=np.int64)
            for cum, keep, _, coeff in ref:
                ref_table[lo + keep] = coeff
                dropped = np.setdiff1d(np.arange(len(cum)), keep)
                assert len(dropped) == len(cum) - len(keep)
                assert not np.any(table[lo + dropped])
                assert np.all(np.isin(keep // h.m, parents))
                lo, parents = lo + len(cum), keep
            assert same_bits(table, ref_table)

    @staticmethod
    def levels(h, sources, t, cfg, depth=4):
        plan = plan_segments(h, gamma_bounds(h), t, 1e-4, q_override=depth)
        return plan, list(series._path_levels(h, plan, sources, cfg))

    def test_taylor_profiles_match_leibniz(self):
        # leibniz is accurate to about 1e-11 (``auto_doubling_depth``); it
        # errs by up to 3e-12 of the level's largest value on these cases
        cases = list(path_level_cases())
        for h, sources, t in cases:
            _, taylor = self.levels(h, sources, t, DdConfig())
            _, ref = self.levels(h, sources, t, DdConfig("leibniz"))
            assert len(taylor) == len(ref) == 4
            for (flips, keep, dest, coeff), (flips_r, keep_r, dest_r, coeff_r) in zip(taylor, ref):
                assert np.array_equal(flips, flips_r) and np.array_equal(keep, keep_r)
                assert np.array_equal(dest, dest_r)
                scale = np.max(np.abs(coeff_r), initial=0.0)
                assert np.max(np.abs(coeff - coeff_r), initial=0.0) <= 1e-11 * scale
        # the zero term's paths are dropped, and a constant diagonal needs
        # one degree: every coefficient is (-i dt)^q/q! * prod d
        h, sources, t = cases[-2]
        _, levels = self.levels(h, sources, t, DdConfig())
        assert all(np.all(keep % h.m != h.m - 1) for _, keep, _, _ in levels)
        h, _, t = cases[-3]
        plan = plan_segments(h, gamma_bounds(h), t, 1e-4)
        assert series._taylor_table(h.diagonal_values(), plan.delta_t, 4)[2].shape == (5, 1)

    def test_taylor_profiles_match_exact_sum(self):
        # a few entries against the exact rational Taylor sum of the path's
        # energy differences from its source
        h, sources, t = list(path_level_cases())[-1]
        assert len(sources) < 1 << h.n_qubits
        plan, taylor = self.levels(h, sources, t, DdConfig())
        energies, masks = h.diagonal_values(), h.x_masks()
        for q, (_, keep, dest, coeff) in enumerate(taylor, start=1):
            for row in (0, len(keep) // 2, len(keep) - 1):
                digits = np.unravel_index(keep[row], (h.m,) * q)
                for col, z in enumerate(sources.tolist()):
                    states, dprod = [z], 1.0
                    for i in digits:
                        states.append(states[-1] ^ int(masks[i]))
                        dprod *= h.term_values(int(i))[states[-1]]
                    assert dest[row, col] == states[-1]
                    dd = exact_dd_exp([energies[s] - energies[z] for s in states], plan.delta_t)
                    assert abs(coeff[row, col] - dd * dprod) <= 1e-13 * abs(dd * dprod)

    def test_one_input_added_per_level(self, monkeypatch):
        # each level extends its parents' profiles by one input: Q + 1 calls
        # in all, where evaluating each path afresh takes sum_q (q + 1)
        calls = []
        add_input = divdiff._add_input

        def counted(prof, y):
            calls.append(prof.shape)
            add_input(prof, y)

        monkeypatch.setattr(divdiff, "_add_input", counted)
        monkeypatch.setattr(series, "_add_input", counted)
        h = random_pmr_hamiltonian(np.random.default_rng(1100), n=3, m_terms=3)
        plan = plan_segments(h, gamma_bounds(h), 1.2, 1e-6)
        assert plan.Q >= 2
        list(series._path_levels(h, plan, np.arange(8), DdConfig()))
        assert len(calls) == plan.Q + 1


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    m_terms=st.integers(0, 4),
    T=st.floats(0.05, 6.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_evolve_within_epsilon_of_oracle(seed, n, m_terms, T, sign):
    """Property: taylor-route evolution meets its epsilon against the dense
    oracle; m_terms = 0 draws diagonal-only Hamiltonians."""
    rng = np.random.default_rng(seed)
    h = random_pmr_hamiltonian(rng, n=n, m_terms=m_terms)
    g = gamma_bounds(h)
    t = sign * T / (g.gamma_total or 1.0)
    psi = random_state(rng, n)
    eps = 1e-6
    out = evolve(h, g, psi, t, eps)
    assert np.linalg.norm(out - DenseOracle(h).evolve(psi, t)) <= eps


def field_chain(f):
    """4 qubits: a Z field ``f`` on every qubit and XX hoppings 0.3, 0.3
    and 0.2."""
    fields = "".join(f"{f} {word}\n" for word in ("ZIII", "IZII", "IIZI", "IIIZ"))
    return pauli_to_pmr(parse_hamiltonian(fields + "0.3 XXII\n0.3 IXXI\n0.2 IIXX\n"))


class TestNonFiniteResult:
    """A Z field of 20 on every qubit makes |dt| * spread(E) / 2 so large
    that the taylor route's h_n profile overflows float64."""

    H = field_chain(20)

    def test_evolve_raises(self):
        g = gamma_bounds(self.H)
        psi = random_state(np.random.default_rng(600), 4)
        with pytest.raises(SeriesConvergenceError, match="not finite"):
            evolve(self.H, g, psi, 3.0, 1e-6)

    def test_segment_raises(self):
        g = gamma_bounds(self.H)
        plan = plan_segments(self.H, g, 3.0, 1e-6)
        psi = random_state(np.random.default_rng(601), 4)
        with pytest.raises(SeriesConvergenceError, match="not finite"):
            apply_uod_truncated(self.H, g, plan, psi)
        with pytest.raises(SeriesConvergenceError, match="not finite"):
            uod_matrix(self.H, g, plan)

    @pytest.mark.parametrize("f", [10, 20])
    def test_no_warning_on_the_way(self, f):
        # the library silences numpy's overflow and invalid-value warnings
        # that end in SeriesConvergenceError; a field of 10 stays within eps
        h = field_chain(f)
        g = gamma_bounds(h)
        psi = random_state(np.random.default_rng(2), 4)
        ref = DenseOracle(h).evolve(psi, 3.0)
        runs = [lambda: evolve(h, g, psi, 3.0, 1e-4), lambda: evolve_lcu(h, g, psi, 3.0, 1e-4)[0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in runs:
                if f == 20:
                    with pytest.raises(SeriesConvergenceError, match="not finite"):
                        run()
                else:
                    assert np.linalg.norm(run() - ref) <= 1e-4

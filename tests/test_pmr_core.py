"""Permutation-matrix-representation core: conversion, evaluation, bounds."""

import numpy as np
import pytest

from pmrsim import (
    DiagonalOperator,
    GammaBounds,
    HamiltonianParseError,
    PauliString,
    PermutationOperator,
    PmrHamiltonian,
    dense_matrix,
    diagonal_energy,
    format_hamiltonian,
    gamma_bounds,
    hopping_strength,
    parse_hamiltonian,
    pauli_to_pmr,
    pmr_to_pauli_strings,
)
from pmrsim.lcu import _phase_pair
from pmrsim.models import MODEL_NAMES, build_named_model
from pmrsim.pmr import hermiticity_defect, parity_signs

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_dense(strings):
    """Independent dense build: explicit Kronecker products, qubit 0 fastest."""
    dim = 1 << strings[0].n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for s in strings:
        mat = np.array([[1.0 + 0j]])
        for ch in s.to_word():
            mat = np.kron(PAULI[ch], mat)
        total += s.coefficient * mat
    return total


def random_strings(rng, n=4, n_diag=3, n_off=4):
    strings = []
    for _ in range(n_diag):
        strings.append(
            PauliString(float(rng.uniform(-1, 1)), int(rng.integers(1, 1 << n)), 0, 0, n)
        )
    for _ in range(n_off):
        flip = int(rng.integers(1, 1 << n))
        bits = [b for b in range(n) if flip >> b & 1]
        y = (1 << bits[int(rng.integers(0, len(bits)))]) if rng.random() < 0.4 else 0
        z = int(rng.integers(0, 1 << n)) & ~flip
        strings.append(PauliString(float(rng.uniform(-1, 1)), z, flip & ~y, y, n))
    return strings


class TestPauliString:
    def test_word_round_trip(self):
        s = PauliString.from_word(0.25, "ZIXY")
        assert s.to_word() == "ZIXY"
        assert s.z_mask == 0b0001 and s.x_mask == 0b0100 and s.y_mask == 0b1000

    def test_disjoint_masks_enforced(self):
        with pytest.raises(ValueError):
            PauliString(1.0, 0b01, 0b01, 0, 2)

    def test_mask_must_fit(self):
        with pytest.raises(ValueError):
            PauliString(1.0, 0b100, 0, 0, 2)


class TestPauliToPmr:
    def test_diagonal_only_goes_to_d0(self):
        strings = [
            PauliString.from_word(0.7, "ZZI"),
            PauliString.from_word(-0.2, "IZZ"),
        ]
        h = pauli_to_pmr(strings)
        assert h.m == 0
        assert len(h.d0.terms) == 2

    def test_zz_zx_grouping(self):
        # sum_ij J Z_i Z_j + sum_{i != j} Jt Z_i X_j groups into one term per flip qubit
        n = 3
        strings = []
        for i in range(n):
            for j in range(i + 1, n):
                strings.append(PauliString(0.3, (1 << i) | (1 << j), 0, 0, n))
        for j in range(n):
            for i in range(n):
                if i != j:
                    strings.append(PauliString(0.5, 1 << i, 1 << j, 0, n))
        h = pauli_to_pmr(strings)
        assert h.m == n
        assert sorted(p.x_mask for _, p in h.terms) == [1, 2, 4]
        for d, p in h.terms:
            assert len(d.terms) == n - 1  # sum over i != j of Z_i

    def test_xy_string_rewrites_to_complex_diagonal(self):
        s = PauliString.from_word(0.5, "XY")
        h = pauli_to_pmr([s])
        assert h.m == 1
        d, p = h.terms[0]
        assert p.x_mask == 0b11
        assert d.terms == ((-0.5j, 0b10),)
        assert np.max(np.abs(dense_matrix(h) - kron_dense([s]))) == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            pauli_to_pmr([])

    def test_mixed_qubit_counts_rejected(self):
        with pytest.raises(ValueError):
            pauli_to_pmr([PauliString.from_word(1.0, "Z"), PauliString.from_word(1.0, "ZZ")])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coefficient_rejected(self, bad):
        # a NaN would become the pruning scale and silently drop every term
        for first, second in (("XI", "ZZ"), ("ZZ", "XI")):
            strings = [PauliString.from_word(bad, first), PauliString.from_word(1.0, second)]
            with pytest.raises(ValueError, match="finite"):
                pauli_to_pmr(strings)

    def test_dense_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            strings = random_strings(rng)
            h = pauli_to_pmr(strings)
            ref = kron_dense(strings)
            assert np.max(np.abs(dense_matrix(h) - ref)) < 1e-12
            flips = {s.x_mask | s.y_mask for s in strings if s.x_mask | s.y_mask}
            assert h.m <= len(flips)

    def test_grouping_cancellation_reduces_m(self):
        strings = [
            PauliString.from_word(0.5, "XZ"),
            PauliString.from_word(-0.5, "XZ"),
            PauliString.from_word(0.25, "XI"),
        ]
        h = pauli_to_pmr(strings)
        assert h.m == 1

    def test_round_trip_through_strings(self):
        rng = np.random.default_rng(5)
        strings = random_strings(rng)
        h = pauli_to_pmr(strings)
        back = pmr_to_pauli_strings(h)
        assert np.max(np.abs(kron_dense(back) - kron_dense(strings))) < 1e-12


class TestDiagonalEnergy:
    def test_zero_operator(self):
        h = PmrHamiltonian(DiagonalOperator.zero(3), (), 3)
        assert diagonal_energy(h, 5) == 0.0

    def test_pauli_z_eigenvalues(self):
        h = pauli_to_pmr([PauliString.from_word(1.0, "Z")])
        assert diagonal_energy(h, 0) == 1.0
        assert diagonal_energy(h, 1) == -1.0

    def test_hubbard_interaction_at_all_occupied(self):
        # (U/4) sum_j (1+Z_up)(1+Z_dn) over N sites; Z=+1 at bit 0, so z=0
        # is the all-occupied state.  Enumerating the per-site factor table:
        # (1+1)(1+1)/4 = 1 per site, so E = N*U.
        n_sites, U = 3, 1.7
        strings = []
        for j in range(n_sites):
            up, dn = 1 << j, 1 << (n_sites + j)
            strings += [
                PauliString(U / 4, 0, 0, 0, 2 * n_sites),
                PauliString(U / 4, up, 0, 0, 2 * n_sites),
                PauliString(U / 4, dn, 0, 0, 2 * n_sites),
                PauliString(U / 4, up | dn, 0, 0, 2 * n_sites),
            ]
        h = pauli_to_pmr(strings)
        assert diagonal_energy(h, 0) == pytest.approx(n_sites * U, abs=1e-14)

    def test_out_of_range(self):
        h = pauli_to_pmr([PauliString.from_word(1.0, "Z")])
        with pytest.raises(ValueError):
            diagonal_energy(h, 2)


class TestHoppingStrength:
    def test_constant_diagonal(self):
        d = DiagonalOperator([(0.3 + 0.1j, 0)], 2)
        h = PmrHamiltonian(DiagonalOperator.zero(2), ((d, PermutationOperator(0b11)),), 2)
        for z in range(4):
            assert hopping_strength(h, 0, z) == 0.3 + 0.1j

    def test_z_string_sign(self):
        # D = -(t_h/2) Z_0 Z_1: at z with an odd number of set bits the
        # product is -1, so d(z) = +t_h/2
        t_h = 0.8
        d = DiagonalOperator([(-t_h / 2, 0b11)], 2)
        h = PmrHamiltonian(DiagonalOperator.zero(2), ((d, PermutationOperator(0b11)),), 2)
        assert hopping_strength(h, 0, 0b01) == pytest.approx(t_h / 2)
        assert hopping_strength(h, 0, 0b00) == pytest.approx(-t_h / 2)

    def test_bounded_by_gamma_exhaustive(self):
        rng = np.random.default_rng(23)
        for n in (2, 4, 6):
            h = pauli_to_pmr(random_strings(rng, n=n))
            g = gamma_bounds(h, mode="exact")
            for i in range(h.m):
                for z in range(1 << n):
                    assert abs(hopping_strength(h, i, z)) <= g.gamma[i] + 1e-12

    def test_index_out_of_range(self):
        h = pauli_to_pmr([PauliString.from_word(1.0, "X")])
        with pytest.raises(IndexError):
            hopping_strength(h, 1, 0)


class TestGammaBounds:
    def test_z_product_term_both_modes(self):
        # the pure Z-string diagonal -(t_h/2) prod Z has max-norm t_h/2
        t_h = 1.3
        d = DiagonalOperator([(-t_h / 2, 0b0111)], 4)
        h = PmrHamiltonian(DiagonalOperator.zero(4), ((d, PermutationOperator(0b11)),), 4)
        assert gamma_bounds(h, "exact").gamma[0] == pytest.approx(t_h / 2)
        assert gamma_bounds(h, "sum_abs").gamma[0] == pytest.approx(t_h / 2)

    def test_zero_term(self):
        h = pauli_to_pmr(
            [PauliString.from_word(0.4, "XI"), PauliString.from_word(1e-20, "XZ")]
        )
        # the tiny second coefficient is pruned during grouping
        assert h.m == 1

    def test_explicit_zero_diagonal_gives_zero_bound(self):
        h = PmrHamiltonian(
            DiagonalOperator.zero(2),
            ((DiagonalOperator.zero(2), PermutationOperator(0b01)),),
            2,
        )
        assert gamma_bounds(h, "exact").gamma == (0.0,)
        assert gamma_bounds(h, "sum_abs").gamma == (0.0,)

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(31)
        h = pauli_to_pmr(random_strings(rng, n=3, n_diag=2, n_off=3))
        g = gamma_bounds(h, "exact")
        for i in range(h.m):
            brute = max(abs(h.terms[i][0].value(z)) for z in range(8))
            assert g.gamma[i] == pytest.approx(brute, rel=1e-14)

    def test_exact_below_sum_abs(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            h = pauli_to_pmr(random_strings(rng))
            ge = gamma_bounds(h, "exact")
            gs = gamma_bounds(h, "sum_abs")
            assert all(a <= b + 1e-12 for a, b in zip(ge.gamma, gs.gamma))

    def test_threshold_error(self):
        h = pauli_to_pmr([PauliString.from_word(1.0, "X" + "I" * 9)])
        with pytest.raises(ValueError):
            gamma_bounds(h, "exact", enumeration_threshold=5)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            GammaBounds((-1.0,))


def full_enumeration(d):
    """Reference: every term summed over all 2^N states, in canonical order."""
    out = np.zeros(1 << d.n_qubits, dtype=complex)
    for coeff, mask in d.terms:
        out += coeff * parity_signs(mask, d.n_qubits)
    return out


def with_term(d):
    """A one-term Hamiltonian whose only off-diagonal diagonal is ``d``."""
    n = d.n_qubits
    return PmrHamiltonian(DiagonalOperator.zero(n), ((d, PermutationOperator(1)),), n)


class TestSupportTable:
    def random_diagonals(self, rng, n):
        def coeff():
            return complex(rng.normal(), rng.normal())

        def masks(bits, count):
            return [sum(1 << b for b in bits if rng.random() < 0.5) for _ in range(count)]

        ends = sorted({0, n - 1} | ({n // 2} if n > 4 else set()))
        return [
            DiagonalOperator.zero(n),
            DiagonalOperator([(0.75, 0)], n),
            DiagonalOperator([(-0.5j, 0), (0.3, 1 << (n - 1))], n),
            DiagonalOperator([(coeff(), m) for m in masks(range(n), 5)], n),
            DiagonalOperator([(float(rng.normal()), m) for m in masks(ends, 4)], n),
            DiagonalOperator(
                [(coeff(), (1 << n) - 1)] + [(coeff(), m) for m in masks(range(n), 3)], n
            ),
        ]

    def test_matches_full_enumeration_bitwise(self):
        rng = np.random.default_rng(53)
        for n in range(1, 13):
            for d in self.random_diagonals(rng, n):
                ref = full_enumeration(d)
                assert d.values().tobytes() == ref.tobytes()
                gamma = gamma_bounds(with_term(d), "exact").gamma[0]
                assert np.float64(gamma).tobytes() == np.max(np.abs(ref)).tobytes()

    def test_values_returns_a_fresh_array(self):
        d = DiagonalOperator([(0.4 - 0.2j, 0b1001), (-1.1, 0b1000), (0.3, 0)], 5)
        h = with_term(d)
        ref = full_enumeration(d)
        gamma = gamma_bounds(h, "exact")
        first = d.values()
        first[:] = 7.0
        assert d.values().tobytes() == ref.tobytes()
        assert gamma_bounds(h, "exact") == gamma
        table = d._support_table
        assert table.size == 4 and not table.flags.writeable


class TestValuesAt:
    """E and d_i read at given states from the support tables."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_matches_full_arrays_bitwise(self, name):
        rng = np.random.default_rng(57)
        for n in range(2, 9):
            h, _ = build_named_model(name, n)
            dim = 1 << h.n_qubits
            # unsorted, with repeats, and both ends of the range
            states = np.concatenate((rng.integers(0, dim, 40), [dim - 1, 0, dim - 1, 3 % dim]))
            values = h.values_at(states)
            assert values.shape == (h.m + 1, len(states))
            assert values[0].real.tobytes() == h.diagonal_values()[states].tobytes()
            for i in range(h.m):
                assert values[i + 1].tobytes() == h.term_values(i)[states].tobytes()
            assert h.values_at(states[:0]).shape == (h.m + 1, 0)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_hop_flags_are_nonzero_values(self, name):
        for n in (2, 5, 8):
            h, _ = build_named_model(name, n)
            flags = h.hop_flags
            assert flags.shape == (h.m, 1 << h.n_qubits) and flags.dtype == bool
            for i in range(h.m):
                assert np.array_equal(flags[i], h.term_values(i) != 0)
            assert h.hop_flags is flags
            with pytest.raises(ValueError):
                flags[..., 0] = True


class TestDenseMatrix:
    def test_diagonal_hamiltonian(self):
        h = pauli_to_pmr([PauliString.from_word(0.5, "ZZ")])
        mat = dense_matrix(h)
        assert np.max(np.abs(mat - np.diag(np.diag(mat)))) == 0.0

    def test_pauli_x(self):
        h = pauli_to_pmr([PauliString.from_word(1.0, "X")])
        assert np.array_equal(dense_matrix(h), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_too_large_rejected(self):
        h = pauli_to_pmr([PauliString.from_word(1.0, "X" + "I" * 12)])
        with pytest.raises(ValueError):
            dense_matrix(h)

    def test_hermitian_on_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            h = pauli_to_pmr(random_strings(rng))
            mat = dense_matrix(h)
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
            assert hermiticity_defect(h) < 1e-12


def split_phases(h, g):
    """``lcu._phase_pair`` on beta_i(z) = d_i(z) / gamma_i: each term's two
    unit phases e^{i(chi +/- phi)}, (M, 2, 2^N), with
    beta = cos(phi) e^{i chi} their mean."""
    beta = np.array([h.term_values(i) / g.gamma[i] for i in range(h.m)])
    return _phase_pair(beta, None)


class TestAlternativeRepresentation:
    """The split of each D_i into gamma_i/2 times a pair of pure-phase
    diagonals, which the LCU's phase pairs make (``lcu._phase_pair``)."""

    def test_pure_phase_term(self):
        # D already gamma times a pure phase: both split phases coincide
        d = DiagonalOperator([(0.5, 0)], 1)
        h = PmrHamiltonian(DiagonalOperator.zero(1), ((d, PermutationOperator(1)),), 1)
        ph1, ph2 = split_phases(h, GammaBounds((0.5,)))[0]
        assert np.allclose(ph1, ph2)
        assert np.allclose(ph1, np.ones(2))

    def test_zero_entry_gives_quarter_turn_phases(self):
        # d(z) = 0 forces cos(phi) = 0: the two phases are +/- i
        d = DiagonalOperator([(0.5, 0), (0.5, 0b1)], 1)  # values (1, 0)
        h = PmrHamiltonian(DiagonalOperator.zero(1), ((d, PermutationOperator(1)),), 1)
        ph1, ph2 = split_phases(h, GammaBounds((1.0,)))[0]
        assert ph1[1] == pytest.approx(1j)
        assert ph2[1] == pytest.approx(-1j)

    def test_reconstruction(self):
        # D0 + sum_i (gamma_i / 2) (e^{i(chi+phi)} + e^{i(chi-phi)}) P_i is H
        rng = np.random.default_rng(43)
        for _ in range(10):
            h = pauli_to_pmr(random_strings(rng))
            g = gamma_bounds(h, "exact")
            if any(gi == 0 for gi in g.gamma):
                continue
            pairs = split_phases(h, g)
            assert pairs.shape == (h.m, 2, 1 << h.n_qubits)
            assert np.allclose(np.abs(pairs), 1.0)
            cols = np.arange(1 << h.n_qubits)
            mat = np.diag(h.d0.values())
            for gi, (ph1, ph2), (_, p) in zip(g.gamma, pairs, h.terms):
                rows = cols ^ p.x_mask
                mat[rows, cols] += 0.5 * gi * (ph1[rows] + ph2[rows])
            assert np.max(np.abs(mat - dense_matrix(h))) < 1e-12


class TestConstructionInvariants:
    def test_no_zero_flip_mask(self):
        with pytest.raises(ValueError):
            PermutationOperator(0)

    def test_distinct_masks_enforced(self):
        d = DiagonalOperator([(1.0, 0)], 2)
        p = PermutationOperator(1)
        with pytest.raises(ValueError):
            PmrHamiltonian(DiagonalOperator.zero(2), ((d, p), (d, p)), 2)

    def test_d0_must_be_real(self):
        with pytest.raises(ValueError):
            PmrHamiltonian(DiagonalOperator([(1j, 1)], 1), (), 1)

    def test_diagonal_qubit_count_enforced(self):
        # a diagonal on 3 qubits would give a 2-qubit H 8 diagonal values
        d3 = DiagonalOperator([(1.0, 0b100)], 3)
        p = PermutationOperator(1)
        for d0, terms in ((d3, ()), (DiagonalOperator.zero(2), ((d3, p),))):
            with pytest.raises(ValueError, match="diagonal on 3 qubits, Hamiltonian on 2"):
                PmrHamiltonian(d0, terms, 2)


class TestTextFormat:
    def test_parse_and_format_round_trip(self):
        text = "# two-qubit sample\n0.5 ZI\n-0.25 ZX  # trailing comment\n1.0 XY\n"
        strings = parse_hamiltonian(text)
        assert len(strings) == 3
        again = parse_hamiltonian(format_hamiltonian(strings))
        assert np.max(np.abs(kron_dense(again) - kron_dense(strings))) == 0.0

    def test_parse_error_carries_line_number(self):
        with pytest.raises(HamiltonianParseError) as err:
            parse_hamiltonian("0.5 ZI\nnonsense\n")
        assert err.value.line == 2

    def test_bad_character(self):
        with pytest.raises(HamiltonianParseError):
            parse_hamiltonian("0.5 ZQ\n")

    def test_inconsistent_length(self):
        with pytest.raises(HamiltonianParseError):
            parse_hamiltonian("0.5 ZI\n0.5 ZII\n")

    def test_empty_file(self):
        with pytest.raises(HamiltonianParseError):
            parse_hamiltonian("# nothing here\n")

"""Divided differences of the exponential: four methods, one oracle."""

import math

import numpy as np
import pytest
from conftest import add_input_loop

from pmrsim.divdiff import (
    CancellationError,
    DdConfig,
    RepeatedInputsError,
    ZeroDividedDifferenceError,
    auto_doubling_depth,
    dd_exp,
    dd_exp_leibniz,
    dd_exp_naive,
    dd_exp_pyramid,
    dd_exp_taylor,
    dd_exp_taylor_batch,
    dd_magnitude,
    effective_energy_pyramid,
    exp_prefactor,
    small_tau_error,
)
from pmrsim.divdiff import _add_input


def prefactor(q, t):
    return (-1j * t) ** q / math.factorial(q)


def random_instance(rng, q_max=12, amp_max=8.0):
    q = int(rng.integers(1, q_max + 1))
    x = rng.uniform(-1.0, 1.0, size=q + 1)
    spread = x.max() - x.min()
    t = float(rng.uniform(0.05, amp_max)) / max(spread, 1e-3)
    return x, t


class TestNaive:
    def test_single_input(self):
        assert dd_exp_naive([0.7], 1.3) == pytest.approx(np.exp(-1j * 1.3 * 0.7))
        assert dd_exp_naive([0.0], 2.0) == pytest.approx(1.0)

    def test_two_point_formula(self):
        # oracle: (f(x1) - f(x0)) / (x1 - x0)
        expected = (np.exp(-1j * 1.0) - 1.0) / (1.0 - 0.0)
        assert dd_exp_naive([0.0, 1.0], 1.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx((math.cos(1) - 1) - 1j * math.sin(1))

    def test_against_taylor(self):
        v = dd_exp_naive([1.0, 2.0, 3.0], 0.7)
        ref = dd_exp_taylor([1.0, 2.0, 3.0], 0.7)
        assert abs(v - ref) <= 1e-12 * abs(ref)

    def test_repeated_inputs_rejected(self):
        with pytest.raises(RepeatedInputsError):
            dd_exp_naive([1.0, 1.0, 2.0], 0.5)
        with pytest.raises(RepeatedInputsError):
            dd_exp_naive([1.0, 1.0 + 1e-12, 2.0], 0.5)


class TestTaylor:
    def test_coincident_inputs_reduce_to_derivative(self):
        # f[x,...,x] = f^(q)(x)/q! with f = e^{-itx}
        for q in (0, 1, 3, 7):
            x, t = 0.8, 1.7
            expected = np.exp(-1j * t * x) * prefactor(q, t)
            got = dd_exp_taylor([x] * (q + 1), t)
            assert got == pytest.approx(expected, rel=1e-14)

    def test_single_point(self):
        assert dd_exp_taylor([5.0], 2.0) == pytest.approx(np.exp(-10j))

    def test_matches_perturbed_naive_limit(self):
        exact = dd_exp_taylor([0.0, 0.0, 1.0], 1.0)
        limit = dd_exp_naive([0.0, 1e-6, 1.0], 1.0)
        assert abs(exact - limit) < 1e-5

    def test_batch_matches_scalar(self):
        # both entry points of the one kernel against an exact rational sum,
        # to 1e-13 of the |t|^q/q! envelope: q <= 8, repeated and nearly
        # repeated inputs, t of both signs, |t| * max |x| up to 10
        from conftest import exact_dd_exp

        rng = np.random.default_rng(2)
        for q in range(1, 9):
            seqs = rng.uniform(-1, 1, size=(12, q + 1))
            if q > 1:
                seqs[::3, 1] = seqs[::3, 0]
                seqs[1::3, 2] = seqs[1::3, 0] * (1 + 1e-12)
            amp = rng.uniform(0.0, 10.0)
            t = rng.choice([-1.0, 1.0]) * amp / np.max(np.abs(seqs))
            envelope = abs(t) ** q / math.factorial(q)
            batch = dd_exp_taylor_batch(seqs, t)
            for row, got in zip(seqs, batch):
                ref = exact_dd_exp(row, t)
                assert abs(got - ref) <= 1e-13 * envelope
                assert abs(dd_exp_taylor(row, t) - ref) <= 1e-13 * envelope

    @pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6, 1e-9])
    def test_truncation_meets_tol(self, tol):
        # at q = 1 the shifted inputs are -d, d and every even-degree term is
        # within a factor n + 1 of its cap, so a degree short of
        # series_order's shows as an error above tol
        from conftest import exact_dd_exp

        rng = np.random.default_rng(3)
        for _ in range(40):
            x = rng.uniform(-1, 1, size=2)
            t = rng.uniform(0.05, 4.0) / np.max(np.abs(x))
            got = dd_exp_taylor(x, t, tol)
            assert abs(got - exact_dd_exp(x, t)) <= tol * abs(t)

    def test_zero_time(self):
        assert dd_exp_taylor([1.0, 2.0], 0.0) == 0.0
        assert dd_exp_taylor([3.0], 0.0) == 1.0


class TestAddInput:
    """``_add_input`` equals the literal degree loop bit for bit on the
    profiles of the taylor sweep, ``_path_levels`` and ``_taylor_sum``."""

    @staticmethod
    def assert_same_bits(h, y, ref_y=None):
        ref = h.copy()
        add_input_loop(ref, y if ref_y is None else ref_y)
        _add_input(h, y)
        assert h.tobytes() == ref.tobytes()

    def test_sweep_profile(self):
        # complex (n_deg, |R|, k), a view that leaves out the zero row |R|
        rng = np.random.default_rng(31)
        n_deg, n_rows, k = 14, 37, 3
        prof = rng.normal(size=(n_deg, n_rows + 1, k)) + 1j * rng.normal(size=(n_deg, n_rows + 1, k))
        prof *= 10.0 ** rng.integers(-8, 3, size=prof.shape)
        y = rng.uniform(-4.0, 4.0, size=(n_rows, 1))
        y[::5] = 0.0
        for held in (y, y.astype(complex)):
            self.assert_same_bits(prof.copy()[:, :n_rows], held, y)

    def test_path_levels_profile(self):
        # real (n_deg, kept, sources), with each path's own y per source
        rng = np.random.default_rng(32)
        prof = rng.normal(size=(11, 24, 16))
        self.assert_same_bits(prof, rng.uniform(-3.0, 3.0, size=(24, 16)))

    def test_taylor_sum_profile(self):
        # real (n, rows), one input per row
        rng = np.random.default_rng(33)
        prof = rng.normal(size=(19, 40))
        self.assert_same_bits(prof, rng.uniform(-5.0, 5.0, size=40))


class TestPyramid:
    def test_equal_inputs_fixed_point(self):
        assert effective_energy_pyramid([0.4] * 5, 1.1) == pytest.approx(0.4)

    def test_two_point_identity(self):
        a, b, t = -0.3, 1.2, 0.9
        eff = effective_energy_pyramid([a, b], t)
        lhs = np.exp(-1j * t * eff) * (-1j * t)
        assert lhs == pytest.approx(dd_exp_naive([a, b], t), rel=1e-12)

    def test_against_taylor_six_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            x = rng.uniform(-3, 3, size=6)
            t = 0.3
            got = dd_exp_pyramid(x, t)
            ref = dd_exp_taylor(x, t)
            assert abs(got - ref) <= 1e-9 * abs(ref)

    def test_repeats_inside_input(self):
        x = [0.0, 0.0, 1.0, 1.0, 2.5]
        got = dd_exp_pyramid(x, 0.7)
        ref = dd_exp_taylor(x, 0.7)
        assert abs(got - ref) <= 1e-9 * abs(ref)

    def test_zero_divided_difference_contract(self):
        # the guard for an exactly vanishing divided difference is defensive
        # (unreachable with extended-precision internals on this platform);
        # the error type is part of the API
        assert issubclass(ZeroDividedDifferenceError, ArithmeticError)

    def test_near_zero_value_stays_tiny(self):
        # e^{-it x} takes equal values at 0 and 2 pi for t = 1; the true
        # divided difference is 0 and the pyramid returns something tiny
        assert abs(dd_exp_pyramid([0.0, 2 * math.pi], 1.0)) < 1e-10

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            effective_energy_pyramid([0.0, 1.0], 0.0)


class TestLeibniz:
    def test_depth_zero_equal_inputs_exact(self):
        x, t, q = 0.9, 1.4, 4
        got = dd_exp_leibniz([x] * (q + 1), t, doubling_depth=0)
        assert got == pytest.approx(np.exp(-1j * t * x) * prefactor(q, t), rel=1e-14)

    def test_table_entries_stay_in_unit_disc(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-2, 2, size=7)
        _, tables = dd_exp_leibniz(x, 1.3, return_tables=True)
        assert len(tables) == auto_doubling_depth(x, 1.3) + 1
        for table in tables:
            assert np.max(np.abs(table)) <= 1.0 + 1e-12

    def test_against_taylor_eight_inputs(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            x = rng.uniform(-1.5, 1.5, size=8)
            t = float(rng.uniform(0.2, 2.0))
            got = dd_exp_leibniz(x, t)
            ref = dd_exp_taylor(x, t)
            assert abs(got - ref) <= 1e-9 * abs(ref)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            dd_exp_leibniz(list(range(66)), 0.1)


class TestSmallTauError:
    def test_equal_inputs_zero(self):
        assert small_tau_error([0.5] * 4, 1e-3) == 0.0

    def test_quadratic_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            q = int(rng.integers(1, 9))
            x = rng.uniform(-1, 1, size=q + 1)  # spread <= 2
            dt = float(rng.uniform(1e-4, 1e-3))
            assert small_tau_error(x, dt) < dt ** 2

    def test_halving_shrinks_quadratically(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            q = int(rng.integers(1, 9))
            x = rng.uniform(-1, 1, size=q + 1)
            dt = 1e-3
            big = small_tau_error(x, dt)
            small = small_tau_error(x, dt / 2)
            if big > 1e-12:
                assert big / small >= 3.5

    @pytest.mark.parametrize("q", [47, 50, 64])
    def test_seed_step_at_high_order(self, q):
        # the Leibniz seed step of q + 1 inputs over [0, 1] at t = 1 is
        # 2^-18; there (-i dt)^q/q! is subnormal or zero in float64, and the
        # normalized sum needs no such factor.  To leading order the error is
        # the n = 2 term dt^2 h_2(y)/((q+1)(q+2)), h_2(y) = sum y^2 / 2 at mean 0.
        x = np.linspace(0.0, 1.0, q + 1)
        dt = 2.0 ** -auto_doubling_depth(x, 1.0)
        y = x - x.mean()
        lead = dt ** 2 * np.sum(y ** 2) / (2 * (q + 1) * (q + 2))
        # |e0q - 1| is rounded against 1, so its relative accuracy is ~1e-2
        assert small_tau_error(x, dt) == pytest.approx(lead, rel=0.05, abs=0.0)


class TestMagnitude:
    def test_single_input_is_one(self):
        assert dd_magnitude([2.3], 1.7) == pytest.approx(1.0, abs=1e-15)

    def test_bound_holds_on_random_draws(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            x, t = random_instance(rng)
            q = len(x) - 1
            bound = abs(t) ** q / math.factorial(q)
            assert dd_magnitude(x, t) <= bound * (1 + 1e-12)

    def test_equal_inputs_saturate_bound(self):
        q, t = 5, 1.9
        bound = t ** q / math.factorial(q)
        assert dd_magnitude([0.7] * (q + 1), t) == pytest.approx(bound, rel=1e-14)


class TestSharedProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(-2, 2, size=6)
        t = 0.8
        ref = dd_exp_taylor(x, t)
        for _ in range(5):
            perm = rng.permutation(x)
            for fn in (dd_exp_taylor, dd_exp_pyramid, dd_exp_leibniz, dd_exp_naive):
                assert abs(fn(perm, t) - ref) <= 1e-10 * abs(ref)

    def test_shift_identity(self):
        rng = np.random.default_rng(43)
        x = rng.uniform(-1, 1, size=5)
        t = 1.1
        for shift in (0.3, -2.0, 10.0):
            lhs = dd_exp_taylor(x, t)
            rhs = np.exp(-1j * t * shift) * dd_exp_taylor(x - shift, t)
            assert abs(lhs - rhs) <= 1e-11 * abs(lhs)

    def test_recursion_relation(self):
        # f[x_i..x_{i+j}] (x_{i+j} - x_i) = f[x_{i+1}..x_{i+j}] - f[x_i..x_{i+j-1}]
        rng = np.random.default_rng(47)
        x = np.sort(rng.uniform(-2, 2, size=6))
        t = 0.9
        for i in range(3):
            for j in range(1, 5 - i):
                lhs = dd_exp_taylor(x[i : i + j + 1], t) * (x[i + j] - x[i])
                rhs = dd_exp_taylor(x[i + 1 : i + j + 1], t) - dd_exp_taylor(
                    x[i : i + j], t
                )
                assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1e-14)

    def test_cross_method_agreement(self):
        from conftest import conditioned_dd_instance

        rng = np.random.default_rng(53)
        for _ in range(100):
            x, t, ref = conditioned_dd_instance(rng)
            assert abs(dd_exp_pyramid(x, t) - ref) <= 1e-9 * abs(ref)
            assert abs(dd_exp_leibniz(x, t) - ref) <= 1e-9 * abs(ref)
            assert abs(dd_exp_naive(x, t) - ref) <= 1e-9 * abs(ref)

    def test_gap_of_one_over_t_is_no_tie(self):
        # e^{-it[x]} depends on t * x alone: at t = 1e300 the inputs 0 and
        # 1e-300 are one unit of t * x apart, so naive and pyramid must not
        # treat them as repeated
        x, t = [0.0, 1e-300], 1e300
        ref = dd_exp_taylor(x, t)
        assert abs(dd_exp_naive(x, t) - ref) <= 1e-12 * abs(ref)
        assert abs(dd_exp_pyramid(x, t) - ref) <= 1e-12 * abs(ref)

    def test_dispatch(self):
        x, t = [0.1, 0.9, 1.7], 0.6
        ref = dd_exp_taylor(x, t)
        for method in ("taylor", "naive", "pyramid", "leibniz"):
            got = dd_exp(x, t, DdConfig(method=method))
            assert abs(got - ref) <= 1e-9 * abs(ref)
        with pytest.raises(ValueError):
            dd_exp(x, t, DdConfig(method="newton"))

    @pytest.mark.parametrize("method", ["Taylor", "newton"])
    def test_unknown_method_refused_at_construction(self, method):
        # a misspelt taylor would otherwise take the path-enumerating route
        with pytest.raises(ValueError, match="unknown divided-difference method"):
            DdConfig(method=method)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_empty_input_rejected(self, t):
        for fn in (dd_exp_taylor, dd_exp_naive, dd_exp_pyramid, dd_exp_leibniz):
            with pytest.raises(ValueError):
                fn([], t)

    def test_values_above_bound_raise(self):
        # |e^{-it[x_0..x_q]}| <= |t|^q/q!; 51 inputs 0.02 apart at t = 1 lose
        # the defining sum and the pyramid to cancellation, far past the bound
        x = np.linspace(0.0, 1.0, 51)
        for fn in (dd_exp_naive, dd_exp_pyramid, effective_energy_pyramid):
            with pytest.raises(CancellationError, match="cancellation"):
                fn(x, 1.0)
        assert abs(dd_exp_leibniz(x, 1.0)) <= abs(exp_prefactor(50, 1.0))

    def test_batch_matches_rows(self):
        refused = {"naive": 0, "pyramid": 0}

        def accepted(row, t, cfg):
            try:
                dd_exp(row, t, cfg)
            except CancellationError:
                refused[cfg.method] += 1
                return False
            return True

        # one call over a batch against one call per row: naive and pyramid
        # bitwise, leibniz to rounding; at q = 10, 300 rows of 11 x 11 tables
        # fill three chunks of dd_exp's 2^14 entries
        rng = np.random.default_rng(61)
        t = 0.9
        for q in range(11):
            rows = 300 if q == 10 else 40
            # row scales from 1e-3 to 10 give leibniz several doubling depths
            x = rng.uniform(-1, 1, size=(rows, q + 1)) * 10 ** rng.uniform(-3, 1, (rows, 1))
            repeated = x.copy()
            if q:
                repeated[::2, 1] = repeated[::2, 0]
                # a near repeat under the row's own tie tolerance
                scale = np.maximum(1.0, np.max(np.abs(x[1::4]), axis=1))
                repeated[1::4, 1] = repeated[1::4, 0] + 0.5e-9 * scale
            cases = (("naive", x), ("pyramid", repeated), ("leibniz", repeated),
                     ("taylor", repeated))
            for method, seqs in cases:
                cfg = DdConfig(method=method)
                if method in ("naive", "pyramid"):
                    # rows whose value breaks the |t|^q/q! bound raise alone
                    # and in a batch; the others batch bitwise
                    kept = [row for row in seqs if accepted(row, t, cfg)]
                    if len(kept) < len(seqs):
                        with pytest.raises(CancellationError):
                            dd_exp(seqs, t, cfg)
                    seqs = np.array(kept).reshape(-1, q + 1)
                batch = dd_exp(seqs, t, cfg)
                single = np.array([dd_exp(row, t, cfg) for row in seqs])
                if method == "leibniz":
                    assert np.all(np.abs(batch - single) <= 1e-14 * np.abs(single))
                elif method == "taylor":
                    # a batch runs to the degree of its widest row
                    envelope = abs(t) ** q / math.factorial(q)
                    assert np.all(np.abs(batch - single) <= 1e-13 * envelope)
                else:
                    assert np.array_equal(batch, single)
        assert len(np.unique(auto_doubling_depth(repeated, t))) > 1
        assert refused["naive"] and refused["pyramid"]

    def test_prefactor_helper(self):
        assert exp_prefactor(3, 0.5) == pytest.approx((-0.5j) ** 3 / 6)

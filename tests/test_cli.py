"""Command-line interface: artifacts, determinism, exit codes."""

import argparse
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pmrsim import (
    DenseOracle,
    DiagonalOperator,
    PermutationOperator,
    PmrHamiltonian,
    dense_matrix,
    gamma_bounds,
    parse_hamiltonian_file,
    pauli_to_pmr,
    plan_segments,
)
from pmrsim import cli, lcu, series
from pmrsim.cli import main
from pmrsim.models import MODEL_NAMES, build_named_model

DATA = Path(__file__).parent / "data"
SAMPLE = str(DATA / "sample4q.txt")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(argv):
    """``pmrsim argv`` in a new interpreter, importing pmrsim from ``src/``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "pmrsim.cli", *argv], capture_output=True, text=True, env=env,
        timeout=120,
    )


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def write_diag_file(tmp_path):
    path = tmp_path / "diag.txt"
    path.write_text("0.7 ZZI\n-0.4 IZZ\n0.25 ZIZ\n")
    return str(path)


def evolve_off_by_1e3(*args, **kwargs):
    """``series.evolve`` with its first amplitude moved by 1e-3."""
    out = series.evolve(*args, **kwargs)
    out[0] += 1e-3
    return out


def check_skipped_past_dense_oracle(tmp_path, capsys, command):
    """--check on 13 qubits has no dense reference: it must say so on stderr."""
    path = tmp_path / "h13.txt"
    path.write_text("1.0 XIIIIIIIIIIII\n0.5 ZZIIIIIIIIIII\n0.3 IIIIIIIIIIIZZ\n")
    out = tmp_path / "run.csv"
    code = main(
        [command, "--hamiltonian", str(path), "--t", "0.5", "--epsilon", "1e-3",
         "--check", "--output", str(out)]
    )
    assert code == 0
    assert "check skipped: N = 13 > 12, no dense reference\n" in capsys.readouterr().err
    assert all(row["error_2norm"] == "" for row in read_csv(out))


class TestEvolveCommand:
    def test_diagonal_file_is_exact(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(
            ["evolve", "--hamiltonian", write_diag_file(tmp_path), "--t", "3.0",
             "--epsilon", "0.5", "--output", str(out)]
        )
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["error_2norm"]) <= 1e-13
        assert row["Q"] == "0" and row["r"] == "1"

    def test_bundled_sample_meets_tolerance(self, tmp_path):
        h = pauli_to_pmr(parse_hamiltonian_file(SAMPLE))
        g = gamma_bounds(h)
        t = 5.0 / g.gamma_total
        out = tmp_path / "run.csv"
        code = main(
            ["evolve", "--hamiltonian", SAMPLE, "--t", repr(t), "--epsilon", "1e-6",
             "--output", str(out), "--check"]
        )
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["error_2norm"]) <= 1e-6
        assert float(row["T"]) == pytest.approx(5.0)

    def test_seeded_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["evolve", "--hamiltonian", SAMPLE, "--t", "1.1", "--epsilon", "1e-5",
                "--seed", "7"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5 ZI\nwhat is this\n")
        assert main(["evolve", "--hamiltonian", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_budget_exceeded_exit_3(self):
        # path enumeration at Q = 13: 4^13 * 2^4 exceeds the default budget
        assert main(
            ["evolve", "--hamiltonian", SAMPLE, "--t", "1.0", "--epsilon", "1e-12",
             "--dd-method", "leibniz"]
        ) == 3

    def test_taylor_route_runs_where_paths_would_not(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(
            ["evolve", "--hamiltonian", SAMPLE, "--t", "1.0", "--epsilon", "1e-12",
             "--output", str(out), "--check"]
        ) == 0
        assert float(read_csv(out)[0]["error_2norm"]) <= 1e-12

    def test_non_finite_result_exit_4(self, tmp_path, capsys):
        path = tmp_path / "field20.txt"
        path.write_text(
            "20 ZIII\n20 IZII\n20 IIZI\n20 IIIZ\n0.3 XXII\n0.3 IXXI\n0.2 IIXX\n"
        )
        for command in ("evolve", "lcu"):
            code = main([command, "--hamiltonian", str(path), "--t", "3", "--epsilon", "1e-6"])
            assert code == 4
            err = capsys.readouterr().err
            assert err.startswith("numerical failure:") and err.count("\n") == 1

    def test_overflowed_energy_exit_4(self, tmp_path, capsys):
        # E(0) = 2e308 overflows to inf in a diagonal-only run, whose result
        # is then not finite; it has no series terms to blame
        path = tmp_path / "d.txt"
        path.write_text("1e308 ZI\n1e308 IZ\n")
        for command in ("evolve", "lcu"):
            assert main([command, "--hamiltonian", str(path), "--check"]) == 4
            assert capsys.readouterr().err == (
                "numerical failure: diagonal-only result is not finite: the diagonal "
                "energies, or |t| times them, overflowed float64\n"
            )

    @pytest.mark.parametrize("command", ["evolve", "lcu"])
    def test_check_fails_on_nan_error(self, tmp_path, capsys, monkeypatch, command):
        # NaN > tolerance is False: --check must still fail on a NaN error
        def evolve_nan(*args, **kwargs):
            out = series.evolve(*args, **kwargs)
            out[0] = np.nan
            return out

        def lcu_runs_nan(*args, **kwargs):
            out, *rest = lcu._evolve_lcu_runs(*args, **kwargs)
            out[0] = np.nan
            return (out, *rest)

        monkeypatch.setattr(cli, "evolve", evolve_nan)
        monkeypatch.setattr(cli, "_evolve_lcu_runs", lcu_runs_nan)
        out = tmp_path / "run.csv"
        assert main([command, "--hamiltonian", SAMPLE, "--t", "0.5", "--epsilon", "1e-3",
                     "--check", "--output", str(out)]) == 4
        assert capsys.readouterr().err.splitlines()[-1].startswith("check failed: error nan > ")
        assert read_csv(out)[-1]["error_2norm"] == "nan"

    def test_check_skipped_past_dense_oracle(self, tmp_path, capsys):
        check_skipped_past_dense_oracle(tmp_path, capsys, "evolve")

    def test_check_fails_above_epsilon(self, tmp_path, capsys, monkeypatch):
        # a result 1e-3 off the oracle at eps = 1e-6: --check is the guard
        # against a series run that is silently wrong
        monkeypatch.setattr(cli, "evolve", evolve_off_by_1e3)
        out = tmp_path / "run.csv"
        assert main(
            ["evolve", "--hamiltonian", SAMPLE, "--t", "0.5", "--check", "--output", str(out)]
        ) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("elapsed_s=")
        assert err[1].startswith("check failed: error ") and err[1].endswith(" > epsilon")
        assert float(read_csv(out)[0]["error_2norm"]) == pytest.approx(1e-3, rel=1e-2)

    @pytest.mark.parametrize("command", ["evolve", "lcu"])
    def test_needs_hamiltonian_exit_2(self, capsys, command):
        assert main([command]) == 2
        assert capsys.readouterr().err == f"input error: {command} needs --hamiltonian\n"

    def test_basis_index_out_of_range_exit_2(self, capsys):
        assert main(["evolve", "--hamiltonian", SAMPLE, "--initial", "16"]) == 2
        assert capsys.readouterr().err == "input error: basis index 16 out of range for N=4\n"

    def test_basis_initial_state(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(
            ["evolve", "--hamiltonian", SAMPLE, "--t", "0.4", "--epsilon", "1e-6",
             "--initial", "3", "--output", str(out)]
        )
        assert code == 0
        assert float(read_csv(out)[0]["error_2norm"]) <= 1e-6

    def test_human_format(self, capsys):
        assert main(
            ["evolve", "--hamiltonian", SAMPLE, "--t", "0.5", "--epsilon", "1e-4",
             "--format", "human"]
        ) == 0
        text = capsys.readouterr().out
        assert "error_2norm" in text and "," not in text.split("\n")[0]


# (Hamiltonian file text written to "{h}", argv, exit code)
NON_FINITE_RUNS = [
    ("1.0 XI\nnan ZZ\n", ["evolve", "--hamiltonian", "{h}", "--check"], 2),
    ("nan XI\n1.0 ZZ\n", ["evolve", "--hamiltonian", "{h}", "--check"], 2),
    ("inf ZI\n1.0 XI\n", ["evolve", "--hamiltonian", "{h}"], 2),
    (None, ["evolve", "--hamiltonian", SAMPLE, "--t", "inf"], 2),
    (None, ["lcu", "--hamiltonian", SAMPLE, "--t", "inf"], 2),
    (None, ["resources", "--hamiltonian", SAMPLE, "--t", "inf"], 2),
    (None, ["divdiff", "0", "1", "--t", "inf"], 2),
    (None, ["divdiff", "0", "nan", "--t", "1"], 2),
    # |t| * spread overflows to inf inside the Taylor kernel
    (None, ["divdiff", "0", "1e308", "--t", "10"], 4),
    # |t| * spread is finite, but the series' terms would overflow float64
    (None, ["divdiff", "0", "1e200", "--t", "1"], 4),
]


@pytest.mark.parametrize("text, argv, code", NON_FINITE_RUNS)
def test_non_finite_input_exits_cleanly(tmp_path, capsys, text, argv, code):
    if text is not None:
        path = tmp_path / "h.txt"
        path.write_text(text)
        argv = [str(path) if arg == "{h}" else arg for arg in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    prefix = "input error:" if code == 2 else "numerical failure:"
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["evolve", "lcu"])
@pytest.mark.parametrize(
    "text, t",
    [(None, "1e9"), ("1e200 XI\n1e200 ZI\n", "1")],
    ids=["sample4q", "field1e200"],
)
def test_many_segments_exceed_budget_at_once(tmp_path, capsys, command, text, t):
    # the budget prices all r segments, so a huge r is refused before any
    # segment runs; the loose time bound only catches a run that does
    path = SAMPLE
    if text is not None:
        path = tmp_path / "h.txt"
        path.write_text(text)
    start = time.perf_counter()
    assert main([command, "--hamiltonian", str(path), "--t", t]) == 3
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded:") and err.count("\n") == 1


def test_lcu_priced_on_touched_entries(tmp_path):
    # 3,102 segments touch 3 * 16 * 2^4 entries of V each; priced at the
    # composite's anc_dim * 2^N = 2.8M entries a segment, the run was refused
    out = tmp_path / "lcu.csv"
    assert main(
        ["lcu", "--hamiltonian", SAMPLE, "--t", "1000", "--epsilon", "1e-3", "--check",
         "--output", str(out)]
    ) == 0
    assert read_csv(out)[-1]["r"] == "3102"


# two qubits: at eps = 1e-10 (Q = 11) a pyramid path value is 12 times its
# |t|^q/q! bound, and a naive path that flips one term twice repeats an input
TWO_QUBITS = (
    "0.07582687581070702 ZI\n0.4378213075354018 ZZ\n"
    "-0.41634519367586553 XZ\n0.3831338198821481 XX\n"
)


@pytest.mark.parametrize("command", ["evolve", "lcu"])
@pytest.mark.parametrize(
    "method, code, prefix",
    [("naive", 2, "input error:"), ("pyramid", 4, "numerical failure:")],
)
def test_path_methods_fail_in_one_line(tmp_path, capsys, command, method, code, prefix):
    path = tmp_path / "h.txt"
    path.write_text(TWO_QUBITS)
    argv = [command, "--hamiltonian", str(path), "--t", "0.9", "--epsilon", "1e-10",
            "--dd-method", method]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    if method == "pyramid":
        assert "cancellation" in err


def test_divdiff_overflow_prints_one_line():
    # the Taylor reference's row mean overflows; numpy's warning on the way
    # would only repeat the numerical-failure line
    run = run_fresh(["divdiff", "1e308", "1e308", "--t", "1"])
    assert run.returncode == 4
    assert run.stderr.startswith("numerical failure:") and run.stderr.count("\n") == 1
    assert "RuntimeWarning" not in run.stderr


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # main reuses one parser per process; no flag of one call may leak into
    # the next, whatever the subcommand
    runs = [
        ["evolve", "--hamiltonian", SAMPLE, "--t", "0.5", "--epsilon", "1e-3", "--seed", "5",
         "--format", "human", "--check"],
        ["divdiff", "0", "0.3", "1", "--t", "1"],
        ["evolve", "--hamiltonian", SAMPLE, "--t", "0.4", "--epsilon", "1e-2", "--seed", "6"],
    ]
    for argv in runs:
        code = main(argv)
        fresh = run_fresh(argv)
        assert code == fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout


def test_artifacts_take_no_blas_norm(tmp_path, monkeypatch):
    # np.linalg.norm is a BLAS dot, whose sum order depends on the BLAS
    # thread count: no norm that reaches a CSV may go through it
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    base = ["--hamiltonian", SAMPLE, "--t", "0.9", "--epsilon", "1e-3", "--seed", "1",
            "--check", "--output", str(tmp_path / "run.csv")]
    for argv in (["lcu"], ["lcu", "--phase-bits", "16"], ["evolve"]):
        assert main(argv + base) == 0


class TestLcuCommand:
    def test_phase_bits_build_path_coefficients_once(self, tmp_path, monkeypatch):
        # the quantized run and its exact-phase comparison share one build of
        # the path coefficients; taylor extends each path's profile and makes
        # no dd_exp call, leibniz makes one dd_exp batch per path level
        h = pauli_to_pmr(parse_hamiltonian_file(SAMPLE))
        plan = plan_segments(h, gamma_bounds(h), 0.9, 1e-3)
        for method, batches in (("taylor", 0), ("leibniz", plan.Q)):
            builds, calls = [], []
            path_table, dd_exp = lcu._path_table, series.dd_exp

            def counted_builds(*args, **kwargs):
                builds.append(path_table(*args, **kwargs))
                return builds[-1]

            def counted(*args, **kwargs):
                calls.append(len(args[0]))
                return dd_exp(*args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(lcu, "_path_table", counted_builds)
                m.setattr(series, "dd_exp", counted)
                out = tmp_path / f"{method}.csv"
                assert main(
                    ["lcu", "--hamiltonian", SAMPLE, "--t", "0.9", "--epsilon", "1e-3",
                     "--phase-bits", "16", "--dd-method", method, "--output", str(out)]
                ) == 0
            # the one build covers all P = sum_{q<=Q} M^q paths
            assert len(builds) == 1
            assert len(builds[0][0]) == sum(h.m ** q for q in range(plan.Q + 1))
            assert len(calls) == batches
            assert read_csv(out)[-1]["quantization_error"] != ""

    def test_phase_bits_out_of_range_exit_2(self, tmp_path, capsys):
        # b must keep 2^b a finite float and the grid 2 pi / 2^b finer than a turn
        argv = ["lcu", "--hamiltonian", SAMPLE, "--t", "0.9", "--epsilon", "1e-3",
                "--output", str(tmp_path / "run.csv"), "--phase-bits"]
        for bits in ("0", "-3", "1024"):
            assert main(argv + [bits]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("input error: phase_bits")
        for bits in ("1", "1023"):
            assert main(argv + [bits]) == 0
            assert read_csv(tmp_path / "run.csv")[-1]["phase_bits"] == bits

    def test_run_path_builds_no_weight_state(self, tmp_path, monkeypatch):
        # V is built from the path table and weights alone: psi0 belongs to
        # the composite reference and is built on first use
        h = pauli_to_pmr(parse_hamiltonian_file(SAMPLE))
        g = gamma_bounds(h)
        psi = np.full(1 << h.n_qubits, 0.25, dtype=complex)
        argv = ["lcu", "--hamiltonian", SAMPLE, "--t", "0.9", "--epsilon", "1e-3",
                "--output", str(tmp_path / "run.csv")]

        def refuse(*args, **kwargs):
            raise AssertionError("the run path built the weight state")

        with monkeypatch.context() as m:
            m.setattr(lcu.SegmentOperators, "psi0", property(refuse))
            for config in (lcu.LcuConfig(), lcu.LcuConfig(phase_bits=8)):
                _, diags = lcu.evolve_lcu(h, g, psi, 0.9, 1e-3, config)
                assert diags
            for extra in ([], ["--phase-bits", "16"]):
                assert main(argv + extra) == 0
            plan = plan_segments(h, g, 0.9, 1e-3)
            ops = lcu.SegmentOperators(h, g, plan)
        assert "psi0" not in vars(ops)
        assert ops.psi0.shape == (ops.layout.anc_dim,)
        assert np.linalg.norm(ops.psi0) == pytest.approx(1.0)

    @pytest.mark.parametrize("method", ["taylor", "pyramid", "leibniz"])
    def test_agrees_with_series_run(self, tmp_path, method):
        ev, lc = tmp_path / "ev.csv", tmp_path / "lc.csv"
        # the enumerating methods run at a looser eps to keep the test short
        eps = 1e-4 if method == "taylor" else 1e-3
        argv = ["--hamiltonian", SAMPLE, "--t", "0.9", "--epsilon", repr(eps), "--seed", "3",
                "--dd-method", method]
        assert main(["evolve"] + argv + ["--output", str(ev)]) == 0
        assert main(["lcu"] + argv + ["--output", str(lc)]) == 0
        e1 = float(read_csv(ev)[0]["error_2norm"])
        total = [r for r in read_csv(lc) if r["segment"] == "total"][0]
        e2 = float(total["error_2norm"])
        assert abs(e1 - e2) <= 5 * eps

    def test_s_column_near_two(self, tmp_path):
        out = tmp_path / "lc.csv"
        assert main(
            ["lcu", "--hamiltonian", SAMPLE, "--t", "0.9", "--epsilon", "1e-4",
             "--output", str(out)]
        ) == 0
        h = pauli_to_pmr(parse_hamiltonian_file(SAMPLE))
        g = gamma_bounds(h)
        plan = plan_segments(h, g, 0.9, 1e-4)
        for row in read_csv(out):
            if row["segment"] != "total":
                assert abs(float(row["s"]) - 2.0) <= plan.tail_bound * (1 + 1e-9)
                assert float(row["anc_zero_weight"]) == pytest.approx(1.0, abs=1e-3)

    def test_phase_bit_error_ordering(self, tmp_path):
        errors = {}
        for bits in (8, 24):
            out = tmp_path / f"b{bits}.csv"
            assert main(
                ["lcu", "--hamiltonian", SAMPLE, "--t", "0.7", "--epsilon", "1e-3",
                 "--phase-bits", str(bits), "--output", str(out)]
            ) == 0
            total = [r for r in read_csv(out) if r["segment"] == "total"][0]
            errors[bits] = float(total["error_2norm"])
            assert total["quantization_error"] != ""
        assert errors[8] > errors[24]

    def test_check_fails_on_coarse_quantization(self, tmp_path):
        code = main(
            ["lcu", "--hamiltonian", SAMPLE, "--t", "0.7", "--epsilon", "1e-3",
             "--phase-bits", "4", "--check", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 4

    def test_check_skipped_past_dense_oracle(self, tmp_path, capsys):
        check_skipped_past_dense_oracle(tmp_path, capsys, "lcu")

    def test_plans_once(self, tmp_path, monkeypatch):
        # the run takes the command's plan; lcu plans nothing of its own
        def refuse(*args, **kwargs):
            raise AssertionError("lcu planned again")

        plans = []

        def counted(*args, **kwargs):
            plans.append(plan_segments(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(cli, "plan_segments", counted)
        monkeypatch.setattr(lcu, "plan_segments", refuse)
        out = tmp_path / "run.csv"
        assert main(
            ["lcu", "--hamiltonian", SAMPLE, "--t", "0.9", "--epsilon", "1e-3",
             "--phase-bits", "16", "--output", str(out)]
        ) == 0
        assert len(plans) == 1
        assert read_csv(out)[-1]["r"] == str(plans[0].r)

    def test_one_dense_oracle_per_command(self, tmp_path, monkeypatch):
        # the oracle of the trace residuals (N <= 6) also gives error_2norm; a
        # diagonal-only run has no segments and builds its own; a run refused
        # by its budget builds none
        builds = []
        init = DenseOracle.__init__

        def counted(self, h):
            builds.append(h.n_qubits)
            init(self, h)

        monkeypatch.setattr(DenseOracle, "__init__", counted)
        out = tmp_path / "run.csv"
        for path, n, segments in ((SAMPLE, 4, 3), (write_diag_file(tmp_path), 3, 0)):
            builds.clear()
            assert main(
                ["lcu", "--hamiltonian", path, "--t", "0.9", "--epsilon", "1e-3",
                 "--phase-bits", "16", "--check", "--output", str(out)]
            ) == 0
            assert builds == [n]
            rows = read_csv(out)
            assert len(rows) == segments + 1
            assert all(row["trace_residual"] != "" for row in rows[:-1])
            assert rows[-1]["error_2norm"] != ""
        builds.clear()
        assert main(["lcu", "--hamiltonian", SAMPLE, "--t", "1e9"]) == 3
        assert builds == []

    def test_composite_refused_by_the_series_budget(self, capsys):
        # the composite is priced by the one series helper, in the words the
        # lcu command has always printed
        assert main(["lcu", "--hamiltonian", SAMPLE, "--t", "1e9"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: composite dimension 2 * sum_{q<=Q} M^q * 2^N = "
            "2 * sum_{q<=15} 4^q * 2^4 = 45812984480 exceeds budget 16777216\n"
        )

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["lcu", "--hamiltonian", SAMPLE, "--t", "0.8", "--epsilon", "1e-4",
                "--seed", "11"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["evolve", "lcu", "resources"])
def test_overflowed_bound_exit_2(tmp_path, command):
    # gamma = 1e308 + 1e308 overflows to inf, and so does T = |t| * gamma; the
    # one input error line is all of stderr, with no numpy overflow warning
    path = tmp_path / "o.txt"
    path.write_text("1e308 XI\n1e308 XZ\n")
    run = run_fresh([command, "--hamiltonian", str(path)])
    assert run.returncode == 2
    assert run.stderr == (
        "input error: T = |t| * gamma_total = inf is not finite "
        "(the bounds overflow float64)\n"
    )


class TestDivdiffCommand:
    def test_values_above_bound_print_na(self, tmp_path):
        # 51 inputs 0.02 apart: the defining sum and the pyramid lose the
        # value to cancellation (2.6e16 and 8.4e12 against a 3.3e-65 bound)
        out = tmp_path / "dd.csv"
        vals = [repr(v) for v in np.linspace(0.0, 1.0, 51).tolist()]
        assert main(["divdiff", *vals, "--t", "1", "--output", str(out)]) == 0
        rows = {r["quantity"]: r for r in read_csv(out)}
        for method in ("naive", "pyramid"):
            assert rows[method]["value_re"] == rows[method]["abs_dev_vs_taylor"] == "n/a"
        bound = float(rows["magnitude_bound"]["value_re"])
        for method in ("taylor", "leibniz"):
            val = complex(float(rows[method]["value_re"]), float(rows[method]["value_im"]))
            assert abs(val) <= bound

    def test_huge_inputs_at_small_t_without_warning(self, tmp_path):
        # |t| * spread is 0.67 though the inputs reach 1e300: the Taylor
        # profile is built from t * y, so it neither overflows nor warns
        out = tmp_path / "dd.csv"
        argv = ["divdiff", "0", "1e300", "1e300", "--t", "1e-300", "--output", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        rows = {r["quantity"]: r for r in read_csv(out)}
        assert float(rows["taylor"]["value_re"]) == float(rows["taylor"]["value_im"]) == 0.0
        for method in ("pyramid", "leibniz"):
            assert float(rows[method]["abs_dev_vs_taylor"]) == 0.0

    @pytest.mark.parametrize(
        "inputs", [["0", "1e300", "1e300", "--t", "1e-300"], ["0", "1e-300", "--t", "1e300"]]
    )
    def test_seed_error_bound_at_extreme_scales(self, inputs):
        # the bound is (seed_dt * max|x - mean|)^2: finite, and above the
        # seed error, where seed_dt^2 alone overflows or reads 0
        run = run_fresh(["divdiff", *inputs])
        assert run.returncode == 0 and "Traceback" not in run.stderr
        rows = {line.split(",")[0]: line.split(",")[1] for line in run.stdout.split()}
        assert float(rows["seed_error"]) <= float(rows["seed_error_bound"]) < float("inf")

    def test_triple_zero_matches_derivative_form(self, tmp_path):
        out = tmp_path / "dd.csv"
        assert main(["divdiff", "0", "0", "0", "--t", "1.0", "--output", str(out)]) == 0
        rows = {r["quantity"]: r for r in read_csv(out)}
        assert float(rows["taylor"]["value_re"]) == pytest.approx(-0.5)
        assert float(rows["taylor"]["value_im"]) == pytest.approx(0.0, abs=1e-15)
        assert rows["naive"]["value_re"] == "n/a"

    def test_single_input_all_methods_equal(self, tmp_path):
        out = tmp_path / "dd.csv"
        assert main(["divdiff", "0.8", "--t", "2.0", "--output", str(out)]) == 0
        rows = {r["quantity"]: r for r in read_csv(out)}
        expected = np.exp(-1j * 2.0 * 0.8)
        for method in ("taylor", "naive", "pyramid", "leibniz"):
            val = complex(float(rows[method]["value_re"]), float(rows[method]["value_im"]))
            assert abs(val - expected) < 1e-12

    def test_random_inputs_deviations_small(self, tmp_path):
        rng = np.random.default_rng(5)
        for _ in range(5):
            vals = [f"{v:.6f}" for v in rng.uniform(-2, 2, size=5)]
            out = tmp_path / "dd.csv"
            assert main(["divdiff", *vals, "--t", "0.9", "--output", str(out)]) == 0
            rows = {r["quantity"]: r for r in read_csv(out)}
            mag = float(rows["magnitude"]["value_re"])
            assert mag <= float(rows["magnitude_bound"]["value_re"]) * (1 + 1e-12)
            for method in ("naive", "pyramid", "leibniz"):
                assert float(rows[method]["abs_dev_vs_taylor"]) <= 1e-9 * max(mag, 1e-6)
            assert float(rows["seed_error"]["value_re"]) <= float(
                rows["seed_error_bound"]["value_re"]
            )


class TestResourcesCommand:
    def test_schwinger_both_conventions_present(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main(
            ["resources", "--model", "schwinger", "--N", "6", "--output", str(out)]
        ) == 0
        rows = {r["quantity"]: r["value"] for r in read_csv(out)}
        assert "T_quoted_convention" in rows and "T_exact_maxnorm" in rows
        assert float(rows["T_quoted_convention"]) == pytest.approx(6 * 0.5)
        assert float(rows["T_exact_maxnorm"]) == pytest.approx(5 * 1.0)
        assert "gates_short_time_evolution" in rows

    def test_hamiltonian_file_input(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main(
            ["resources", "--hamiltonian", SAMPLE, "--t", "1.0", "--output", str(out)]
        ) == 0
        rows = {r["quantity"]: r["value"] for r in read_csv(out)}
        assert rows["M"] == "4"

    def test_needs_model_or_file(self):
        assert main(["resources"]) == 2


class TestCompareCommand:
    def test_zz_only_row(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--model", "zz_only", "--N", "3", "--output", str(out)]) == 0
        row = read_csv(out)[0]
        assert row["M"] == "0"
        assert float(row["T"]) == 0.0

    def test_all_models(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--model", "all", "--N", "3", "--output", str(out)]) == 0
        rows = read_csv(out)
        assert {r["model"] for r in rows} >= {"zz_only", "zz_zx", "fermi_hubbard", "schwinger"}

    def test_unknown_model_exit_2(self):
        assert main(["compare", "--model", "heisenberg_xyz", "--N", "3"]) == 2

    def test_human_format_has_the_csv_cells(self, capsys):
        assert main(["compare", "--model", "all", "--N", "4"]) == 0
        csv = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert main(["compare", "--model", "all", "--N", "4", "--format", "human"]) == 0
        human = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert human == csv
        assert len(csv) == 1 + len(MODEL_NAMES)


class TestModelsCommand:
    def test_written_file_round_trips(self, tmp_path):
        out = tmp_path / "fh.txt"
        assert main(["models", "--model", "fermi_hubbard", "--N", "4", "--output", str(out)]) == 0
        reparsed = pauli_to_pmr(parse_hamiltonian_file(out))
        from pmrsim.models import build_fermi_hubbard

        h, _ = build_fermi_hubbard(4)
        assert np.max(np.abs(dense_matrix(reparsed) - dense_matrix(h))) < 1e-12

    def test_deterministic_artifact(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert main(["models", "--model", "schwinger", "--N", "5", "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOracleUtilities:
    def test_dense_oracle_unitary_and_group_property(self):
        from conftest import random_pmr_hamiltonian

        rng = np.random.default_rng(3)
        for _ in range(5):
            h = random_pmr_hamiltonian(rng, n=3)
            oracle = DenseOracle(h)
            u = oracle.unitary(0.9)
            eye = np.eye(u.shape[0])
            assert np.max(np.abs(u @ u.conj().T - eye)) < 1e-11
            composed = oracle.unitary(0.4) @ oracle.unitary(0.9)
            assert np.max(np.abs(composed - oracle.unitary(1.3))) < 1e-10

    @pytest.mark.parametrize("name", ("sample4q",) + MODEL_NAMES)
    def test_real_route_equals_complex_eigh(self, name):
        # a real H is solved in real arithmetic; the complex eigh of the same
        # matrix gives the same propagator to rounding
        from conftest import random_state

        if name == "sample4q":
            h = pauli_to_pmr(parse_hamiltonian_file(SAMPLE))
        else:
            # two qubits per site or orbital in these two
            n = 4 if name in ("fermi_hubbard", "electronic_structure") else 8
            h, _ = build_named_model(name, n)
        assert h.n_qubits == (4 if name == "sample4q" else 8)
        oracle = DenseOracle(h)
        assert oracle.eigenvectors.dtype == np.float64
        matrix = dense_matrix(h)
        w, v = np.linalg.eigh(0.5 * (matrix + matrix.conj().T))
        psi = random_state(np.random.default_rng(5), h.n_qubits)
        for t in (0.7, -2.3):
            phases = np.exp(-1j * t * w)
            u = (v * phases) @ v.conj().T
            assert np.max(np.abs(oracle.unitary(t) - u)) <= 1e-12
            assert np.linalg.norm(oracle.evolve(psi, t) - u @ psi) <= 1e-12

    def test_complex_route_keeps_the_complex_formula(self):
        # the first acceptance-family H whose Y terms leave an imaginary part
        # keeps complex eigenvectors, and its answers are bit for bit the
        # complex formula
        from conftest import random_pmr_hamiltonian, random_state

        family = np.random.default_rng(20240501)
        while True:
            h = random_pmr_hamiltonian(family, n=4, m_terms=4, coupling=1.0)
            random_state(family, 4)
            matrix = dense_matrix(h)
            if matrix.imag.any():
                break
        oracle = DenseOracle(h)
        assert oracle.eigenvectors.dtype == np.complex128
        w, v = np.linalg.eigh(0.5 * (matrix + matrix.conj().T))
        assert np.array_equal(oracle.eigenvalues, w)
        assert np.array_equal(oracle.eigenvectors, v)
        psi, t = random_state(np.random.default_rng(6), 4), 1.7
        phases = np.exp(-1j * t * w)
        assert np.array_equal(oracle.evolve(psi, t), v @ (phases * (v.conj().T @ psi)))
        assert np.array_equal(oracle.unitary(t), (v * phases) @ v.conj().T)

    def test_non_hermitian_matrix_refused(self):
        # M[z ^ 1, z] = d(z ^ 1): d = (1 + Z_0)/2 gives a real matrix with
        # M[0, 1] = 1 and M[1, 0] = 0; d = i gives i X, complex
        for d in (DiagonalOperator([(0.5, 0), (0.5, 1)], 2), DiagonalOperator([(1j, 0)], 2)):
            h = PmrHamiltonian(DiagonalOperator([(0.3, 2)], 2), [(d, PermutationOperator(1))], 2)
            with pytest.raises(ValueError, match="not Hermitian"):
                DenseOracle(h)

    def test_real_oracle_holds_no_complex_matrix(self):
        # a real 10-qubit H: 2^20 entries, 8.4 MB real and 16.8 MB complex;
        # the build peaks at the complex dense_matrix plus one real copy of
        # it.  The complex route peaks at three complex arrays (50.5 MB)
        h, _ = build_named_model("schwinger", 10, t=0.07)
        tracemalloc.start()
        try:
            oracle = DenseOracle(h)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32e6
        assert held <= 9e6
        assert not hasattr(oracle, "matrix")

    def test_trotter_comparator_first_order(self):
        # non-core baseline: halving the step size halves the error
        from conftest import random_pmr_hamiltonian, random_state
        from conftest import trotter_first_order

        rng = np.random.default_rng(9)
        h = random_pmr_hamiltonian(rng, n=3, m_terms=3)
        psi = random_state(rng, 3)
        ref = DenseOracle(h).evolve(psi, 0.8)
        errs = [
            np.linalg.norm(trotter_first_order(h, psi, 0.8, steps) - ref)
            for steps in (50, 100)
        ]
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)


class TestConfigFile:
    def test_key_value_defaults_applied(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t = 0.75\nepsilon = 1e-5  # comment\nseed = 9\n")
        direct = tmp_path / "direct.csv"
        via_cfg = tmp_path / "cfg.csv"
        assert main(
            ["evolve", "--hamiltonian", SAMPLE, "--t", "0.75", "--epsilon", "1e-5",
             "--seed", "9", "--output", str(direct)]
        ) == 0
        assert main(
            ["evolve", "--hamiltonian", SAMPLE, "--config", str(cfg),
             "--output", str(via_cfg)]
        ) == 0
        assert direct.read_bytes() == via_cfg.read_bytes()

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not key value\n")
        assert main(["evolve", "--hamiltonian", SAMPLE, "--config", str(cfg)]) == 2

    def test_comments_blanks_and_false_flags(self, tmp_path, monkeypatch):
        # comment and blank lines are skipped and "check = false" sets no
        # flag: a result 1e-3 off the oracle passes then, and fails with true
        monkeypatch.setattr(cli, "evolve", evolve_off_by_1e3)
        cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
        for value, code in (("false", 0), ("true", 4)):
            cfg.write_text(f"# run settings\n\nt = 0.5\n   # indented\ncheck = {value}\n\n")
            assert main(
                ["evolve", "--hamiltonian", SAMPLE, "--config", str(cfg), "--output", str(out)]
            ) == code
            assert read_csv(out)[0]["t"] == "0.5"

    def test_config_without_path_exit_2(self, capsys):
        assert main(["evolve", "--hamiltonian", SAMPLE, "--config"]) == 2
        assert capsys.readouterr().err == "input error: line 0: --config needs a path\n"


# the flags each subcommand takes: exactly those its command reads
SUBCOMMAND_FLAGS = {
    "evolve": {"--t", "--epsilon", "--dd-method", "--gamma-mode", "--seed", "--output",
               "--format", "--check", "--hamiltonian", "--initial"},
    "divdiff": {"--t", "--output", "--format"},
    "resources": {"--t", "--epsilon", "--gamma-mode", "--output", "--format",
                  "--hamiltonian", "--model", "--N"},
    "compare": {"--t", "--epsilon", "--gamma-mode", "--output", "--format", "--model", "--N"},
    "models": {"--t", "--output", "--model", "--N"},
}
SUBCOMMAND_FLAGS["lcu"] = SUBCOMMAND_FLAGS["evolve"] | {"--phase-bits"}

# (subcommand argv, flag) for each flag its command never read
UNREAD_FLAGS = [
    (argv, flag)
    for argv, flags in (
        (["divdiff", "0", "1"], ["--epsilon", "--dd-method", "--gamma-mode", "--seed", "--check"]),
        (["models", "--model", "schwinger"],
         ["--epsilon", "--dd-method", "--gamma-mode", "--seed", "--format", "--check"]),
        (["compare", "--model", "all"], ["--dd-method", "--seed", "--check"]),
        (["resources", "--model", "schwinger"], ["--dd-method", "--seed", "--check", "--initial"]),
    )
    for flag in flags
]
# the value each of those flags took
FLAG_VALUES = {"--epsilon": ["0.5"], "--dd-method": ["naive"], "--gamma-mode": ["sum_abs"],
               "--seed": ["3"], "--format": ["human"], "--initial": ["3"], "--check": []}


class TestFlags:
    def test_each_subcommand_takes_exactly_its_flags(self):
        sub = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        taken = {
            name: {flag for action in p._actions for flag in action.option_strings}
            - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert taken == SUBCOMMAND_FLAGS
        assert sum(len(flags) for flags in taken.values()) == 43
        assert len(UNREAD_FLAGS) == 18

    @pytest.mark.parametrize(
        "argv, flag", UNREAD_FLAGS, ids=[f"{argv[0]}{flag}" for argv, flag in UNREAD_FLAGS]
    )
    def test_unread_flag_exit_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, *FLAG_VALUES[flag]])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: {flag}" in err

    def test_config_key_of_another_subcommand_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("check = true\n")
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--model", "all", "--N", "4", "--config", str(cfg)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

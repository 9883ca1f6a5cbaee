"""Command-line front end.

Subcommands: evolve (truncated-series emulation), lcu (ancilla-level
emulation), divdiff (four-method evaluation table), resources (cost-formula
instantiation), compare (model comparison table) and models (write a model
Hamiltonian file); each takes only the flags its command reads.  All
artifacts are CSV (or a rendered human table of the same fields); identical
seeded invocations produce byte-identical output at any BLAS thread count.
Timing goes to stderr so it never perturbs them.

Exit codes: 0 success, 2 input error, 3 work/memory budget exceeded,
4 numerical failure: a series result that is not finite (inf or NaN), a
naive or pyramid divided difference above its |t|^q/q! bound or exactly
zero, or an error above tolerance with --check.  A non-finite series
result prints one line: the library silences numpy's floating-point
warnings on the way to it.  ``divdiff`` prints n/a for a method that
cannot evaluate its inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from .divdiff import (
    DD_METHODS,
    CancellationError,
    DdConfig,
    RepeatedInputsError,
    SeriesConvergenceError,
    ZeroDividedDifferenceError,
    auto_doubling_depth,
    dd_exp_leibniz,
    dd_exp_naive,
    dd_exp_pyramid,
    dd_exp_taylor,
    small_tau_error,
)
from .lcu import LcuConfig, _evolve_lcu_runs
from .models import MODEL_NAMES, build_named_model
from .oracle import DenseOracle
from .pmr import (
    DENSE_THRESHOLD,
    HamiltonianParseError,
    format_hamiltonian,
    gamma_bounds,
    parse_hamiltonian_file,
    pauli_to_pmr,
    pmr_to_pauli_strings,
)
from .resources import COMPARISON_HEADER, comparison_csv, comparison_row, resource_table
from .series import WorkBudgetExceededError, _norm, evolve, plan_segments

__all__ = ["main", "build_parser"]

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render(header: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    widths = [
        max(len(h), *(len(_fmt(row[i])) for row in rows)) if rows else len(h)
        for i, h in enumerate(header)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append(
            "  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _initial_state(arg: str, n_qubits: int, seed: int) -> np.ndarray:
    dim = 1 << n_qubits
    if arg == "random":
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return psi / _norm(psi)
    z = int(arg)
    if not 0 <= z < dim:
        raise ValueError(f"basis index {z} out of range for N={n_qubits}")
    psi = np.zeros(dim, dtype=complex)
    psi[z] = 1.0
    return psi


# error_2norm is None exactly when N is past the dense oracle
_CHECK_SKIPPED = "check skipped: N = {n} > %d, no dense reference" % DENSE_THRESHOLD


def _run_setup(args):
    """An evolve or lcu run's Hamiltonian, bounds, initial state and plan."""
    if not args.hamiltonian:
        raise ValueError(f"{args.command} needs --hamiltonian")
    h = pauli_to_pmr(parse_hamiltonian_file(args.hamiltonian))
    g = gamma_bounds(h, args.gamma_mode)
    psi = _initial_state(args.initial, h.n_qubits, args.seed)
    return h, g, psi, plan_segments(h, g, args.t, args.epsilon)


def _finish(args, h, psi, out, elapsed, header, rows, factor=1, oracle=None) -> int:
    """Write the run's artifact and stderr lines, and decide --check.

    Up to N = DENSE_THRESHOLD the last row's error_2norm is ``out``'s
    distance from one dense oracle (``oracle``, where the run built one);
    --check exits 4 when that error is above ``factor`` * epsilon or NaN,
    and past the oracle says that it skipped.
    """
    error = None
    if h.n_qubits <= DENSE_THRESHOLD:
        if oracle is None:
            oracle = DenseOracle(h)
        error = _norm(out - oracle.evolve(psi, args.t))
    rows[-1][header.index("error_2norm")] = error
    _emit(_render(header, rows, args.format), args.output)
    print(f"elapsed_s={elapsed:.3f}", file=sys.stderr)
    if not args.check:
        return 0
    if error is None:
        print(_CHECK_SKIPPED.format(n=h.n_qubits), file=sys.stderr)
    elif not error <= factor * args.epsilon:  # a NaN error fails too
        bound = "epsilon" if factor == 1 else f"{factor} epsilon"
        print(f"check failed: error {error:.3e} > {bound}", file=sys.stderr)
        return 4
    return 0


def cmd_evolve(args) -> int:
    h, g, psi, plan = _run_setup(args)
    config = DdConfig(method=args.dd_method)
    start = time.perf_counter()
    out = evolve(h, g, psi, args.t, args.epsilon, config=config)
    elapsed = time.perf_counter() - start
    header = [
        "hamiltonian", "N", "M", "t", "epsilon", "T", "r", "Q", "delta_t",
        "tail_bound", "s", "gamma_mode", "dd_method", "seed", "error_2norm",
    ]
    row = [
        args.hamiltonian, h.n_qubits, h.m, args.t, args.epsilon, plan.T,
        plan.r, plan.Q, plan.delta_t, plan.tail_bound, plan.s,
        args.gamma_mode, args.dd_method, args.seed, None,
    ]
    return _finish(args, h, psi, out, elapsed, header, [row])


def cmd_lcu(args) -> int:
    h, g, psi, plan = _run_setup(args)
    config = LcuConfig(phase_bits=args.phase_bits, dd=DdConfig(method=args.dd_method))
    start = time.perf_counter()
    quantized = args.phase_bits is not None
    # the exact-phase run shares the quantized run's path coefficients, and
    # error_2norm the oracle of its trace residuals (N <= 6)
    out, diags, exact_out, oracle = _evolve_lcu_runs(h, g, psi, plan, config, exact_too=quantized)
    elapsed = time.perf_counter() - start
    quant_error = _norm(out - exact_out) if quantized else None
    header = [
        "hamiltonian", "N", "M", "segment", "t", "epsilon", "T", "r", "Q", "s",
        "anc_zero_weight", "discarded_weight", "trace_residual",
        "phase_bits", "error_2norm", "quantization_error",
    ]
    rows = []
    for idx, d in enumerate(diags, start=1):
        rows.append(
            [
                args.hamiltonian, h.n_qubits, h.m, idx, args.t, args.epsilon,
                plan.T, plan.r, plan.Q, d.s, d.anc_zero_weight,
                d.discarded_weight, d.trace_residual, args.phase_bits, None, None,
            ]
        )
    rows.append(
        [
            args.hamiltonian, h.n_qubits, h.m, "total", args.t, args.epsilon,
            plan.T, plan.r, plan.Q, plan.s if diags else 1.0, None, None, None,
            args.phase_bits, None, quant_error,
        ]
    )
    return _finish(args, h, psi, out, elapsed, header, rows, factor=10, oracle=oracle)


def _evaluated(fn, values: list[float], t: float) -> complex | None:
    """fn(values, t), or None where the method cannot evaluate the inputs:
    they repeat, or cancellation pushed the value past its bound."""
    try:
        return fn(values, t)
    except (RepeatedInputsError, CancellationError, ZeroDividedDifferenceError):
        return None


def cmd_divdiff(args) -> int:
    values = [float(v) for v in args.inputs]
    t = args.t
    if not np.isfinite(values + [t]).all():
        raise ValueError("divdiff inputs and --t must be finite")
    q = len(values) - 1
    reference = dd_exp_taylor(values, t)
    results: list[tuple[str, complex | None]] = [("taylor", reference)]
    results.append(("naive", _evaluated(dd_exp_naive, values, t)))
    results.append(("pyramid", _evaluated(dd_exp_pyramid, values, t) if t != 0 else None))
    results.append(("leibniz", dd_exp_leibniz(values, t)))
    header = ["quantity", "value_re", "value_im", "abs_dev_vs_taylor"]
    rows = []
    for name, val in results:
        if val is None:
            rows.append([name, "n/a", "n/a", "n/a"])
        else:
            rows.append([name, val.real, val.imag, abs(val - reference)])
    bound = abs(t) ** q / math.factorial(q)
    rows.append(["magnitude", abs(reference), None, None])
    rows.append(["magnitude_bound", bound, None, None])
    depth = auto_doubling_depth(values, t)
    seed_dt = t / (1 << depth)
    rows.append(["doubling_depth", depth, None, None])
    rows.append(["seed_error", small_tau_error(values, seed_dt), None, None])
    spread = float(np.max(np.abs(np.subtract(values, np.mean(values)))))
    rows.append(["seed_error_bound", (seed_dt * spread) ** 2, None, None])
    _emit(_render(header, rows, args.format), args.output)
    return 0


def _resource_rows(h, g, record, t, epsilon):
    plan = plan_segments(h, g, t, epsilon)
    est = resource_table(
        h, g, plan, t_prime=record.T_prime if record is not None else None
    )
    rows = [
        ["N", h.n_qubits],
        ["M", h.m],
        ["T", plan.T],
        ["T_prime", est.T_prime],
        ["Q", est.Q],
        ["r", est.r],
        ["lcu_unitary_count", est.lcu_unitary_count],
        ["qubit_cost", est.qubit_cost],
        ["gates_per_segment", est.gate_cost_segment],
        ["gates_total", est.gates_total],
    ]
    if record is not None:
        rows.insert(0, ["model", record.model])
        rows.append(["T_quoted_convention", record.T])
        rows.append(["T_exact_maxnorm", record.T_maxnorm])
        rows.append(["lcu_count_quoted", record.lcu_count_quoted])
        rows.append(["taylor_L", record.taylor_terms])
        if record.notes:
            rows.append(["notes", record.notes.replace(",", ";")])
    for name, (gates, qubits) in est.rows.items():
        rows.append([f"gates_{name}", gates])
        rows.append([f"qubits_{name}", qubits])
    return rows


def cmd_resources(args) -> int:
    if args.model:
        h, record = build_named_model(args.model, args.N, t=args.t)
    elif args.hamiltonian:
        h, record = pauli_to_pmr(parse_hamiltonian_file(args.hamiltonian)), None
    else:
        raise ValueError("resources needs --model or --hamiltonian")
    rows = _resource_rows(h, gamma_bounds(h, args.gamma_mode), record, args.t, args.epsilon)
    _emit(_render(["quantity", "value"], rows, args.format), args.output)
    return 0


def cmd_compare(args) -> int:
    names = MODEL_NAMES if args.model == "all" else (args.model,)
    rows = []
    for name in names:
        h, record = build_named_model(name, args.N, t=args.t)
        g = gamma_bounds(h, args.gamma_mode)
        rows.append(comparison_row(h, record, g, args.t, args.epsilon))
    if args.format == "csv":
        text = comparison_csv(rows)
    else:
        header = COMPARISON_HEADER.split(",")
        text = _render(header, [[str(row[key]) for key in header] for row in rows], "human")
    _emit(text, args.output)
    return 0


def cmd_models(args) -> int:
    h, record = build_named_model(args.model, args.N, t=args.t)
    strings = pmr_to_pauli_strings(h)
    text = (
        f"# model={record.model} N_qubits={h.n_qubits} M={h.m} "
        f"T={_fmt(record.T)} T_prime={_fmt(record.T_prime)}\n"
        + format_hamiltonian(strings)
    )
    _emit(text, args.output)
    return 0


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand a --config key=value file into flags after the subcommand.

    Flags given explicitly on the command line take precedence because they
    appear later.  Booleans (e.g. ``check = true``) become bare flags.  A key
    that is no flag of the subcommand fails the parse, as on the command line.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise HamiltonianParseError("--config needs a path", 0) from None
    flags: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise HamiltonianParseError(f"expected key=value, got {line!r}", lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    flags.append(flag)
            else:
                flags += [flag, value]
    rest = argv[:idx] + argv[idx + 2 :]
    if not rest:
        return flags
    return rest[:1] + flags + rest[1:]


# every option by its flag; each subcommand takes only the flags its command reads
_OPTIONS = {
    "--t": dict(type=float, default=1.0, help="evolution time"),
    "--epsilon": dict(type=float, default=1e-6, help="target error"),
    "--dd-method": dict(default="taylor", choices=DD_METHODS),
    "--gamma-mode": dict(default="exact", choices=("exact", "sum_abs")),
    "--seed": dict(type=int, default=42),
    "--output": dict(default=None, help="artifact path (default stdout)"),
    "--format": dict(default="csv", choices=("csv", "human")),
    "--check": dict(action="store_true",
                    help="exit 4 if the dense-oracle error exceeds tolerance"),
    "--hamiltonian": dict(default=None, help="Hamiltonian text file"),
    "--initial": dict(default="random", help="'random' or a basis index"),
    "--phase-bits": dict(type=int, default=None),
    "--model": dict(default=None),
    "--N": dict(type=int, default=4, help="model size parameter"),
}
_RUN_FLAGS = ("--t", "--epsilon", "--dd-method", "--gamma-mode", "--seed", "--output",
              "--format", "--check", "--hamiltonian", "--initial")
_COST_FLAGS = ("--t", "--epsilon", "--gamma-mode", "--output", "--format")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The pmrsim argument parser, built once per process; ``parse_args``
    leaves it unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="pmrsim",
        description="Desk-scale emulation of off-diagonal-series Hamiltonian dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text, flags in (
        ("evolve", cmd_evolve, "truncated-series evolution", _RUN_FLAGS),
        ("lcu", cmd_lcu, "ancilla-level LCU + amplification evolution",
         _RUN_FLAGS + ("--phase-bits",)),
        ("divdiff", cmd_divdiff, "divided-difference method table",
         ("--t", "--output", "--format")),
        ("resources", cmd_resources, "gate/qubit cost table",
         _COST_FLAGS + ("--hamiltonian", "--model", "--N")),
        ("compare", cmd_compare, "method comparison table", _COST_FLAGS + ("--model", "--N")),
        ("models", cmd_models, "write a model Hamiltonian file",
         ("--t", "--output", "--model", "--N")),
    ):
        p = sub.add_parser(name, help=text)
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(func=func)
    sub.choices["divdiff"].add_argument("inputs", nargs="+", help="real energy inputs")
    sub.choices["compare"].set_defaults(model="all")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except WorkBudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (SeriesConvergenceError, CancellationError, ZeroDividedDifferenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""pmrsim benchmark: time to a verified answer on four seeded workloads.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload acceptance4q --seed 1 --seconds 25 --trace 0

or every workload, untraced and traced, with a table of all metrics:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs in one process as a closed loop: a single caller issues op
after op until ``--seconds`` have passed.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` records spans at pmrsim's module
boundaries and reports per-layer metrics; it runs each input twice, once
traced and once not, in alternating order, to measure the tracing overhead.
pmrsim is imported from ``src/`` of the checkout this file sits in; without
it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads; the import-time probes inherit it.
# On the 2-vCPU shared host a second thread made no op faster (sample4q_lcu
# took 5.1 s per op either way) and tied every op to the other core's load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hostref import REF_SECONDS, HostSpeed  # noqa: E402
from metrics import LayerTotals, Tail, fail_frac, layer_totals, nearest_rank, tail  # noqa: E402
from tracing import COUNTERS, LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("acceptance4q", "sample4q_lcu", "schwinger10_quench", "cost_tables9")
DEFAULT_SEED = 1
RECHECK_SEED = 2
# Import time is short and noisy, set-up can take seconds: time each often
# enough that their medians hold still, and no more often.
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
MAX_TRACEBACKS = 3
# Seconds of ops between two runs of the host-speed reference kernel.
KERNEL_EVERY_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}
COMPUTED = ("series.r", "series.Q", "series.path_work", "lcu.composite_dim",
            "lcu.tables.distinct", "work.M", "work.N")
# Health figures: the worst over all ops; a "_min" name keeps the minimum.
HEALTH = ("check.err_over_eps", "series.norm_drift_max", "lcu.anc_zero_weight_min",
          "lcu.discarded_weight_max", "lcu.quantization_error")
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in LAYERS))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"setup.{name}.s"] = "s"
    for module in MODULES:
        units[f"module.{module}.self_s"] = "s"
    for name, (label, _) in COUNTERS.items():
        units[f"{name}.{label}"] = "count"
    units.update({name: "count" for name in COMPUTED})
    units.update({name: "ratio" for name in HEALTH})
    units["check.fail_frac"] = "ratio"
    units["trace.ops_per_s.untraced"] = "1/s"
    units["trace.ops_per_s.traced"] = "1/s"
    units["trace.overhead"] = "ratio"
    units["host.kernel_s"] = "s"
    return units


def env_facts() -> dict:
    """Facts about the machine and build that every result carries."""
    import numpy

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_revision": rev,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
    }


def blas_threads():
    """Thread count of the OpenBLAS numpy links, or None if it cannot be read."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        handle = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(handle, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import pmrsim.cli; print(time.perf_counter() - start)"
)


def import_pmrsim() -> None:
    """Import pmrsim from this checkout, and from nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import pmrsim
    import pmrsim.cli  # noqa: F401

    if not Path(pmrsim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"pmrsim imported from {pmrsim.__file__}, not this checkout")


def import_seconds() -> list[float]:
    """Import time of numpy and pmrsim, each in a fresh interpreter."""
    return [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


class OpLog:
    """Per-op outcomes of the timed loop."""

    def __init__(self):
        self.seconds: list[float] = []
        self.traced: list[bool] = []
        self.failed = 0
        self.health: dict[str, float] = {}

    def record(self, seconds: float, traced: bool, ok: bool, health: dict) -> None:
        self.seconds.append(seconds)
        self.traced.append(traced)
        self.failed += not ok
        for key, value in health.items():
            pick = min if key.endswith("_min") else max
            self.health[key] = pick(self.health.get(key, value), value)


def run_op(workload, i: int, log: OpLog, traced: bool) -> None:
    start = time.perf_counter()
    try:
        ok, health = workload.op(i)
    except SystemExit as exc:  # argparse inside cli.main exits on bad flags
        ok, health = False, {}
        print(f"op {i}: cli exited with {exc.code}", file=sys.stderr)
    except Exception:  # an op that raises is a failed op; the loop goes on
        ok, health = False, {}
        if log.failed < MAX_TRACEBACKS:
            traceback.print_exc()
    log.record(time.perf_counter() - start, traced, ok, health)


def timed_loop(workload, seconds: float, tracer, host: HostSpeed) -> tuple[OpLog, float]:
    """Closed loop for ``seconds``; returns the log and the loop's wall time.

    With a tracer, op 2p and 2p+1 both take input p, one traced and one not,
    the traced one first on even p; the loop ends on a whole pair.  The host
    reference kernel runs between ops, once per KERNEL_EVERY_S of op time.
    """
    log = OpLog()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    since_kernel = KERNEL_EVERY_S
    while i == 0 or time.perf_counter() < deadline or (tracer and i % 2):
        if since_kernel >= KERNEL_EVERY_S:
            host.sample()
            since_kernel = 0.0
        if tracer is None:
            run_op(workload, i, log, False)
        else:
            pair = i // 2
            traced = i % 2 == pair % 2
            if traced:
                tracer.op = i
                tracer.install()
            run_op(workload, pair, log, traced)
            if traced:
                tracer.uninstall()
        since_kernel += log.seconds[-1]
        i += 1
    return log, time.perf_counter() - start


def time_figures(seconds: list[float], failed: int) -> tuple[dict, Tail]:
    """Verified ops per second of op time, median and tail op time."""
    ordered = sorted(seconds)
    t = tail(ordered)
    return {
        "ops_per_s": (len(ordered) - failed) / sum(ordered),
        "op_s.p50": nearest_rank(ordered, "50")[0],
        "op_s.tail": t.value,
    }, t


def end_to_end(log: OpLog, host: HostSpeed, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics, times at the reference host speed; wall times in notes."""
    scaled, t = time_figures([host.to_ref(s) for s in log.seconds], log.failed)
    values = {
        "setup_s": host.to_ref(setup_s),
        **scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall, _ = time_figures(log.seconds, log.failed)
    notes = {
        "op_s.tail_level": t.level, "op_s.tail_beyond": t.beyond, "op_s.samples": t.samples,
        "host_kernel_s": host.kernel_seconds(), "host_kernel_samples": len(host.samples),
        "wall": {"setup_s": setup_s, **wall},
    }
    return values, notes


def per_layer(log: OpLog, spans, computed: dict, host: HostSpeed) -> dict:
    traced = {i for i, flag in enumerate(log.traced) if flag}
    n_ops = len(traced)
    per_op = layer_totals(spans, traced)
    per_setup = layer_totals(spans, {-1})
    empty = LayerTotals()
    values: dict[str, float] = {}
    for name in LAYERS:
        op_t, setup_t = per_op.get(name, empty), per_setup.get(name, empty)
        values[f"{name}.calls"] = op_t.calls / n_ops
        values[f"{name}.s"] = op_t.seconds / n_ops
        values[f"{name}.self_s"] = op_t.self_seconds / n_ops
        values[f"setup.{name}.s"] = setup_t.seconds / SETUP_REPEATS
    for module in MODULES:
        values[f"module.{module}.self_s"] = sum(
            t.self_seconds for name, t in per_op.items() if name.split(".")[0] == module
        ) / n_ops
    for name, (label, _) in COUNTERS.items():
        values[f"{name}.{label}"] = per_op.get(name, empty).count / n_ops
    for name in COMPUTED:
        values[name] = float(computed.get(name, 0))
    for name in HEALTH:
        values[name] = log.health.get(name, 0.0)
    values["check.fail_frac"] = fail_frac(log.failed, len(log.seconds))
    t_on = sum(s for s, f in zip(log.seconds, log.traced) if f)
    t_off = sum(s for s, f in zip(log.seconds, log.traced) if not f)
    values["trace.ops_per_s.untraced"] = (len(log.seconds) - n_ops) / t_off
    values["trace.ops_per_s.traced"] = n_ops / t_on
    values["trace.overhead"] = t_on / t_off - 1.0
    values["host.kernel_s"] = host.kernel_seconds()
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        import_pmrsim()
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import pmrsim from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, OUT_DIR)
    tracer = Tracer() if trace else None
    host = HostSpeed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        if tracer:
            tracer.install()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        if tracer:
            tracer.uninstall()
    import_times = import_seconds()
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    # No warm-up op: ops share no state, and the CLI ops pay their first-call
    # costs on every real invocation too.
    log, wall = timed_loop(workload, seconds, tracer, host)

    attempted = len(log.seconds)
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env_facts(), "setup_times_s": setup_times, "import_times_s": import_times,
        "wall_s": wall, "attempted": attempted, "failed": log.failed,
        "fail_frac": fail_frac(log.failed, attempted), "health": log.health,
        "computed": workload.computed,
    }
    if trace:
        spans = tracer.spans
        metrics = per_layer(log, spans, workload.computed, host)
        units = per_layer_units()
        details["spans"] = [
            [s.name, s.start, s.end, s.parent, s.op, s.count] for s in spans
        ]
    else:
        metrics, notes = end_to_end(log, host, setup_s)
        units = END_TO_END
        details.update(notes)
    details["metrics"] = metrics
    with open(OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh)

    print(f"# {name} seed={seed} trace={int(trace)} env={json.dumps(details['env'])}")
    print(f"# attempted={attempted} failed={log.failed} fail_frac={details['fail_frac']}"
          f" health={json.dumps(log.health)}")
    if not trace:
        print(f"# op_s.tail is p{notes['op_s.tail_level']} with {notes['op_s.tail_beyond']}"
              f" of {notes['op_s.samples']} samples beyond")
        print(f"# times at reference host speed: host kernel median {notes['host_kernel_s']!r} s"
              f" over {notes['host_kernel_samples']} samples, reference {REF_SECONDS} s;"
              f" wall figures {json.dumps(notes['wall'])}")
    for key, value in metrics.items():
        print(f"{name} {key} {value!r} {units[key]}")
    result = {
        "correct": log.failed == 0,
        "attempted": attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            results[(name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in WORKLOAD_NAMES:
        with open(OUT_DIR / f"{name}-seed{seed}-trace0.json", encoding="utf-8") as fh:
            details = json.load(fh)
        rows = dict(results[(name, 0)]["metrics"])
        rows["err_over_eps"] = {
            "value": details["health"].get("check.err_over_eps", "n/a"), "unit": "ratio"}
        rows["fail_frac"] = {"value": details["fail_frac"], "unit": "ratio"}
        rows.update(results[(name, 1)]["metrics"])
        print(f"== {name} (op_s.tail is p{details['op_s.tail_level']}, "
              f"{details['op_s.samples']} samples)")
        for key, m in rows.items():
            print(f"{name:20s} {key:42s} {m['value']!r:>24} {m['unit']}")
    combined = {
        name: {
            "correct": results[(name, 0)]["correct"] and results[(name, 1)]["correct"],
            "attempted": results[(name, 0)]["attempted"],
            "failed": results[(name, 0)]["failed"],
        }
        for name in WORKLOAD_NAMES
    }
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; re-check claims on {RECHECK_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

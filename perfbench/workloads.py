"""The four benchmark workloads: seeded set-up, one op, and its correctness check.

Every op calls pmrsim through a module attribute (``series.evolve``,
``cli.main``) at call time, so the tracer's rebinding is seen.  ``op`` returns
whether the answer checked out and health figures; anything it raises counts
as a failed op.  The README in this directory says why each workload exists.
"""

from __future__ import annotations

import csv
import importlib.util
import math
from pathlib import Path

import numpy as np

from pmrsim import cli, models, oracle, pmr, series

ROOT = Path(__file__).resolve().parent.parent
REF_DIR = Path(__file__).resolve().parent / "ref"


def _test_helpers():
    """The repository's own generator of the acceptance Hamiltonian family."""
    spec = importlib.util.spec_from_file_location(
        "pmrsim_test_helpers", ROOT / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _plan_counts(h, plan, engine: str) -> dict[str, float]:
    """Work a plan implies for the engine that runs it, computed from its
    parameters (not measured)."""
    m, n = h.m, h.n_qubits
    counts = {"series.r": plan.r, "series.Q": plan.Q, "work.M": m, "work.N": n}
    if engine == "series":
        counts["series.path_work"] = m ** plan.Q * 2 ** n
    else:
        counts["lcu.composite_dim"] = (m + 1) ** plan.Q * 2 * 2 ** n
        counts["lcu.tables.distinct"] = sum(m ** q for q in range(plan.Q + 1))
    return counts


def _mean_counts(counts: list[dict[str, float]]) -> dict[str, float]:
    return {k: sum(c[k] for c in counts) / len(counts) for k in counts[0]}


def _oracle_check(outs, refs, eps: float) -> tuple[bool, dict[str, float]]:
    """Worst error and norm drift over the states in the last axis."""
    err = float(np.max(np.linalg.norm(outs - refs, axis=-1)))
    drift = float(np.max(np.abs(1.0 - np.linalg.norm(outs, axis=-1))))
    return err <= eps, {"check.err_over_eps": err / eps, "series.norm_drift_max": drift}


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Acceptance4q:
    """ROADMAP's acceptance family through ``series.evolve`` (dense branch).

    The Hamiltonians are the first POOL of the acceptance test's family (its
    generator and seed); the workload seed draws the initial states.  Op cost
    depends on the Hamiltonian and not on the state, so a fixed family, a
    fixed visiting order and a pool small enough to be cycled at least twice
    per run keep the timings and the peak memory comparable across seeds.
    """

    POOL = 10
    FAMILY_SEED = 20240501
    EPS = 1e-6

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def setup(self) -> None:
        helpers = _test_helpers()
        family = np.random.default_rng(self.FAMILY_SEED)
        rng = np.random.default_rng(self.seed)
        self.pool, counts = [], []
        for _ in range(self.POOL):
            h = helpers.random_pmr_hamiltonian(family, n=4, m_terms=4, coupling=1.0)
            helpers.random_state(family, 4)  # the test's state; keeps the family's draws
            g = pmr.gamma_bounds(h, "exact")
            t = 5.0 / g.gamma_total
            psi = helpers.random_state(rng, 4)
            ref = oracle.DenseOracle(h).evolve(psi, t)
            self.pool.append((h, g, t, psi, ref))
            counts.append(_plan_counts(h, series.plan_segments(h, g, t, self.EPS), "series"))
        self.computed = _mean_counts(counts)

    def op(self, i: int):
        h, g, t, psi, ref = self.pool[i % self.POOL]
        return _oracle_check(series.evolve(h, g, psi, t, self.EPS), ref, self.EPS)


class Schwinger10Quench:
    """Basis-state quenches of the N=10 Schwinger model (series state branch).

    One op quenches a block of BLOCK basis states, one ``series.evolve`` call
    each.  A single quench takes a few milliseconds, so its p99 mostly
    measured host jitter; a block dilutes that jitter.  Quench cost varies
    about tenfold between basis states, so the ops visit every basis state once
    per cycle, each cycle in a fresh seeded order: every run then sees the
    same mix of cheap and costly states.
    """

    BLOCK = 8
    CYCLES = 8
    T = 0.63
    EPS = 2e-4

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.h, _ = models.build_named_model("schwinger", 10, t=0.07)
        self.g = pmr.gamma_bounds(self.h)
        self.t = self.T / self.g.gamma_total
        # Column z of the dense propagator is the reference for basis state z.
        self.unitary = oracle.DenseOracle(self.h).unitary(self.t)
        dim = 1 << self.h.n_qubits
        rng = np.random.default_rng(self.seed)
        self.states = np.concatenate([rng.permutation(dim) for _ in range(self.CYCLES)])
        plan = series.plan_segments(self.h, self.g, self.t, self.EPS)
        self.computed = _plan_counts(self.h, plan, "series")

    def op(self, i: int):
        block = self.states[np.arange(i * self.BLOCK, (i + 1) * self.BLOCK) % len(self.states)]
        outs = []
        for z in block:
            psi = np.zeros(1 << self.h.n_qubits, dtype=complex)
            psi[z] = 1.0
            outs.append(series.evolve(self.h, self.g, psi, self.t, self.EPS))
        return _oracle_check(np.array(outs), self.unitary[:, block].T, self.EPS)


class Sample4qLcu:
    """``pmrsim lcu --check`` on the sample Hamiltonian, in-process.

    eps=1e-3 gives Q=5 and about 1.3 s per op.  At eps=1e-4 (Q=6) an op took
    about 5 s, a run held 4 or 5 of them, and their median spread 0.18 to
    0.24 over ten runs.
    """

    T = 0.9
    EPS = 1e-3
    POOL = 64

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.output = out_dir / f"lcu-{seed}.csv"

    def setup(self) -> None:
        self.hamiltonian = str(ROOT / "tests" / "data" / "sample4q.txt")
        h = pmr.pauli_to_pmr(pmr.parse_hamiltonian_file(self.hamiltonian))
        g = pmr.gamma_bounds(h)
        self.computed = _plan_counts(h, series.plan_segments(h, g, self.T, self.EPS), "lcu")
        # The CLI draws the random initial state from --seed.
        self.state_seeds = np.random.default_rng(self.seed).integers(0, 2**31, self.POOL)

    def op(self, i: int):
        code = cli.main([
            "lcu", "--hamiltonian", self.hamiltonian, "--t", str(self.T),
            "--epsilon", str(self.EPS), "--phase-bits", "16", "--check",
            "--seed", str(self.state_seeds[i % self.POOL]),
            "--output", str(self.output),
        ])
        if code != 0:
            return False, {}
        rows = _read_csv(self.output)
        segments, total = rows[:-1], rows[-1]
        return total["segment"] == "total", {
            "check.err_over_eps": float(total["error_2norm"]) / self.EPS,
            "lcu.quantization_error": float(total["quantization_error"]),
            "lcu.anc_zero_weight_min": min(float(r["anc_zero_weight"]) for r in segments),
            "lcu.discarded_weight_max": max(float(r["discarded_weight"]) for r in segments),
        }


def _cell_matches(got: str, want: str, rel: float = 1e-12) -> bool:
    """Integer cells match exactly, float cells to ``rel``, other text exactly."""
    try:
        return int(got) == int(want)
    except ValueError:
        pass
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def tables_match(got: list[dict[str, str]], want: list[dict[str, str]]) -> bool:
    """Same header, same rows, every cell matching under ``_cell_matches``."""
    if len(got) != len(want) or (got and got[0].keys() != want[0].keys()):
        return False
    return all(
        _cell_matches(g[key], w[key]) for g, w in zip(got, want) for key in w
    )


class CostTables9:
    """``pmrsim compare --model all --N 9``, in-process.

    The command takes no random input, so the seed changes nothing here.
    """

    def __init__(self, seed: int, out_dir: Path):
        self.output = out_dir / f"compare-{seed}.csv"

    def setup(self) -> None:
        self.reference = _read_csv(REF_DIR / "cost_tables9.csv")
        self.computed = {}

    def op(self, i: int):
        code = cli.main(["compare", "--model", "all", "--N", "9", "--output", str(self.output)])
        return code == 0 and tables_match(_read_csv(self.output), self.reference), {}


WORKLOADS = {
    "acceptance4q": Acceptance4q,
    "sample4q_lcu": Sample4qLcu,
    "schwinger10_quench": Schwinger10Quench,
    "cost_tables9": CostTables9,
}

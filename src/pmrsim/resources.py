"""Gate/qubit cost formulas for the segmented LCU circuit.

All rows are asymptotic expressions evaluated with constant 1 and explicit
base-2 logarithms; the estimates index circuit structure, never exact gate
counts.  Abstract per-element costs (diagonal energy, energy change under a
flip, off-diagonal element) enter through :class:`CostParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import ComparisonRecord
from .pmr import GammaBounds, PmrHamiltonian, pmr_to_pauli_strings
from .series import SegmentPlan, plan_segments

__all__ = [
    "CostParams",
    "ResourceEstimate",
    "resource_table",
    "comparison_row",
    "comparison_csv",
    "COMPARISON_HEADER",
]

COMPARISON_HEADER = "model,N,M,L,T,T_prime,Q,r,qubits,gates_per_segment,gates_total"


@dataclass(frozen=True)
class CostParams:
    """Abstract cost units: localities and per-element evaluation costs."""

    k_d: int
    k_od: int
    c_d0: int
    c_dd0: int
    c_d: int

    def __post_init__(self):
        for name in ("k_d", "k_od", "c_d0", "c_dd0", "c_d"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_hamiltonian(cls, h: PmrHamiltonian) -> "CostParams":
        """Derive unit costs from the term structure: localities from mask
        weights, evaluation costs from term counts."""
        k_d = max([bin(m).count("1") for _, m in h.d0.terms] or [1])
        k_od = max([bin(p.x_mask).count("1") for _, p in h.terms] or [1])
        c_d0 = max(1, len(h.d0.terms))
        c_dd0 = max(
            [
                sum(1 for _, zm in h.d0.terms if zm & p.x_mask)
                for _, p in h.terms
            ]
            or [1]
        )
        c_d = max([len(d.terms) for d, _ in h.terms] or [1])
        return cls(max(1, k_d), max(1, k_od), c_d0, max(1, c_dd0), max(1, c_d))


@dataclass(frozen=True)
class ResourceEstimate:
    """Evaluated cost rows for one planned evolution."""

    Q: int
    r: int
    T: float
    T_prime: float
    lcu_unitary_count: int
    gate_cost_segment: int
    gates_total: int
    qubit_cost: int
    rows: dict[str, tuple[int, int]]


def _pauli_time(h: PmrHamiltonian, t: float) -> float:
    """Taylor-style dimensionless time: |t| times the non-identity Pauli mass."""
    return abs(t) * sum(
        abs(s.coefficient)
        for s in pmr_to_pauli_strings(h)
        if s.z_mask | s.x_mask | s.y_mask
    )


def resource_table(
    h: PmrHamiltonian,
    g: GammaBounds,
    plan: SegmentPlan,
    cost: CostParams | None = None,
    t_prime: float | None = None,
) -> ResourceEstimate:
    """Evaluate every circuit-cost row for the given plan.

    The ancilla register count is ceil(Q log2(M+1)) + 1; the short-time
    gate cost is C_D0 + Q^2 + Q M (C_dD0 + k_od + log2 M) and W/U_C share
    its off-diagonal part.
    """
    cost = cost or CostParams.from_hamiltonian(h)
    m, order = h.m, plan.Q
    log_m = math.log2(m) if m > 1 else 0.0
    log_m1 = math.log2(m + 1)
    qubits = math.ceil(order * log_m1) + 1
    w_gate = math.ceil(order ** 2 + order * m * (cost.c_dd0 + cost.k_od + log_m))
    rows = {
        "short_time_evolution": (cost.c_d0 + w_gate, qubits),
        "diagonal_evolution": (cost.c_d0, 1),
        "W": (w_gate, qubits),
        "B": (order * m, qubits),
        "U_C": (w_gate, qubits),
        "U_CP": (math.ceil(order * m * (cost.k_od + log_m)), qubits),
        "U_CPhi": (w_gate, qubits),
    }
    segment = rows["short_time_evolution"][0]
    return ResourceEstimate(
        Q=order,
        r=plan.r,
        T=plan.T,
        T_prime=_pauli_time(h, plan.t_total) if t_prime is None else t_prime,
        lcu_unitary_count=m,
        gate_cost_segment=segment,
        gates_total=plan.r * segment,
        qubit_cost=qubits,
        rows=rows,
    )


def comparison_row(
    h: PmrHamiltonian,
    record: ComparisonRecord,
    g: GammaBounds,
    t: float,
    epsilon: float,
    cost: CostParams | None = None,
) -> dict:
    """One comparison-table row combining a model record with its plan."""
    plan = plan_segments(h, g, t, epsilon)
    est = resource_table(h, g, plan, cost, t_prime=record.T_prime)
    return {
        "model": record.model,
        "N": record.n_qubits,
        "M": record.m_terms,
        "L": record.taylor_terms,
        "T": record.T,
        "T_prime": record.T_prime,
        "Q": est.Q,
        "r": est.r,
        "qubits": est.qubit_cost,
        "gates_per_segment": est.gate_cost_segment,
        "gates_total": est.gates_total,
    }


def comparison_csv(rows: list[dict]) -> str:
    """Serialize comparison rows under the fixed header, deterministically."""
    lines = [COMPARISON_HEADER]
    for row in rows:
        lines.append(
            ",".join(str(row[key]) for key in COMPARISON_HEADER.split(","))
        )
    return "\n".join(lines) + "\n"

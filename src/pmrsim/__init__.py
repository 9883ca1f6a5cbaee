"""Classical desk-scale emulation of off-diagonal-series Hamiltonian dynamics.

The package represents qubit Hamiltonians in permutation matrix form
(diagonal part plus diagonally-weighted bit-flip terms), evaluates divided
differences of the exponential, evolves state vectors by the truncated
off-diagonal series, emulates the ancilla-level LCU + oblivious amplitude
amplification circuit, and evaluates gate/qubit cost formulas for a set of
standard physical models.
"""

from .divdiff import (
    CancellationError,
    DdConfig,
    RepeatedInputsError,
    SeriesConvergenceError,
    ZeroDividedDifferenceError,
    dd_exp,
    dd_exp_leibniz,
    dd_exp_naive,
    dd_exp_pyramid,
    dd_exp_taylor,
    dd_magnitude,
    effective_energy_pyramid,
    small_tau_error,
)
from .oracle import DenseOracle
from .pmr import (
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
    parse_hamiltonian_file,
    pauli_to_pmr,
    pmr_to_pauli_strings,
)
from .series import (
    PathCoefficient,
    SegmentPlan,
    WorkBudgetExceededError,
    apply_diagonal,
    apply_uod_truncated,
    evolve,
    path_coefficient,
    plan_segments,
    series_tail,
    uod_matrix,
)

__version__ = "0.1.0"

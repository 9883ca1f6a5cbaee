"""Dense e^{-iHt} reference via Hermitian eigendecomposition.

Used as the correctness oracle for the series and LCU emulations at small N;
the eigendecomposition is computed once and cached, so evolving many states
or times is cheap.

Two routes give the same propagator, and the matrix picks between them.  When
the matrix of H has no imaginary part, as for every sample model and
``tests/data/sample4q.txt``, it is real symmetric and so has a real
orthonormal eigenbasis V: the oracle checks and symmetrizes H, solves the
real eigenproblem and builds the dense e^{-iHt} = V e^{-i Lambda t} V^T
from real products.  That is exact, not an approximation: the complex
eigenproblem of the same matrix gives the same propagator to rounding, at
several times the solve time and twice the memory.  A matrix with an imaginary part takes the
complex route, V e^{-i Lambda t} V^dagger with complex V.
"""

from __future__ import annotations

import numpy as np

from .pmr import PmrHamiltonian, dense_matrix

__all__ = ["DenseOracle"]


class DenseOracle:
    """Exact evolution oracle for one Hamiltonian with N <= DENSE_THRESHOLD.

    ``eigenvectors`` are float64 when ``dense_matrix(h)`` is real, and
    ``unitary`` then works in real products (module docstring); otherwise
    they are complex128.  Only the eigenpairs are kept, not the
    matrix.  Raises ValueError above that size or when the matrix is not
    Hermitian.
    """

    def __init__(self, h: PmrHamiltonian):
        matrix = dense_matrix(h)
        if not matrix.imag.any():
            matrix = matrix.real.copy()
        # conj() of a real array is the array itself, so a real H is checked
        # and symmetrized in real arithmetic
        scale = max(float(np.max(np.abs(matrix))), 1.0)
        defect = float(np.max(np.abs(matrix - matrix.conj().T)))
        if defect > 1e-9 * scale:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3g})")
        matrix = 0.5 * (matrix + matrix.conj().T)
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(matrix)

    def evolve(self, state: np.ndarray, t: float) -> np.ndarray:
        """e^{-iHt} applied to a state vector."""
        state = np.asarray(state, dtype=complex)
        v, phases = self.eigenvectors, np.exp(-1j * t * self.eigenvalues)
        return v @ (phases * (v.conj().T @ state))

    def unitary(self, t: float) -> np.ndarray:
        """Dense e^{-iHt}."""
        v, phases = self.eigenvectors, np.exp(-1j * t * self.eigenvalues)
        if v.dtype == complex:
            return (v * phases) @ v.conj().T
        u = np.empty(v.shape, dtype=complex)
        u.real = (v * phases.real) @ v.T
        u.imag = (v * phases.imag) @ v.T
        return u

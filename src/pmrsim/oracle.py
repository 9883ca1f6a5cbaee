"""Dense e^{-iHt} reference via Hermitian eigendecomposition.

Used as the correctness oracle for the series and LCU emulations at small N;
the eigendecomposition is computed once and cached, so evolving many states
or times is cheap.
"""

from __future__ import annotations

import numpy as np

from .pmr import PmrHamiltonian, dense_matrix

__all__ = ["DenseOracle"]


class DenseOracle:
    """Exact evolution oracle for one Hamiltonian with N <= DENSE_THRESHOLD.

    Raises ValueError above that size or when the matrix is not Hermitian.
    """

    def __init__(self, h: PmrHamiltonian):
        matrix = dense_matrix(h)
        scale = max(float(np.max(np.abs(matrix))), 1.0)
        defect = float(np.max(np.abs(matrix - matrix.conj().T)))
        if defect > 1e-9 * scale:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3g})")
        self.matrix = 0.5 * (matrix + matrix.conj().T)
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(self.matrix)

    def evolve(self, state: np.ndarray, t: float) -> np.ndarray:
        """e^{-iHt} applied to a state vector."""
        state = np.asarray(state, dtype=complex)
        v = self.eigenvectors
        return v @ (np.exp(-1j * t * self.eigenvalues) * (v.conj().T @ state))

    def unitary(self, t: float) -> np.ndarray:
        """Dense e^{-iHt}."""
        v = self.eigenvectors
        return (v * np.exp(-1j * t * self.eigenvalues)) @ v.conj().T

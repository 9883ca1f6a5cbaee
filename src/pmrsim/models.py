"""Builders for standard physical models and their dimensionless-time records.

Each builder returns the Hamiltonian in permutation matrix form together
with a comparison record holding the term counts and dimensionless times of
the off-diagonal decomposition versus a Pauli-basis (Taylor-style) one.

Where the literature convention for a bound differs from the exact per-term
max-norm (Fermi-Hubbard bond pairing, the Schwinger factor of two, column
sums in the spin tables), the record carries both: ``T`` follows the quoted
convention, ``T_maxnorm`` the computed bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pmr import PauliString, PmrHamiltonian, gamma_bounds, pauli_to_pmr

__all__ = [
    "ComparisonRecord",
    "PlaneWaveData",
    "ElectronicStructureTimes",
    "build_table3_model",
    "build_fermi_hubbard",
    "build_schwinger",
    "electronic_structure_times",
    "build_electronic_structure",
    "build_named_model",
    "MODEL_NAMES",
]


@dataclass(frozen=True)
class ComparisonRecord:
    """Decomposition sizes and dimensionless times for one model instance."""

    model: str
    n_qubits: int
    m_terms: int
    taylor_terms: int
    T: float
    T_prime: float
    lcu_count_quoted: int | None = None
    T_maxnorm: float | None = None
    notes: str = ""


def _exact_t_maxnorm(h: PmrHamiltonian, t: float) -> float | None:
    if h.n_qubits > 14:
        return None
    return abs(t) * gamma_bounds(h, "exact").gamma_total


def build_table3_model(
    row: str,
    J: np.ndarray | None = None,
    J_tilde: np.ndarray | None = None,
    t: float = 1.0,
) -> tuple[PmrHamiltonian, ComparisonRecord]:
    """Spin-model rows of the method comparison table.

    ``zz_only``: H = sum_ij J_ij Z_i Z_j (fully diagonal).
    ``zz_zx``:   adds sum_ij Jt_ij Z_i X_j; the flip-j terms group into one
                 D_j = sum_i Jt_ij Z_i.
    ``zzz_zzx``: the three-body analogue with D_k = sum_ij Jt_ijk Z_i Z_j.

    The quoted dimensionless time uses the table's column-sum convention
    t * sum_j |sum_i Jt_ij| evaluated over the full coupling array; entries
    with a repeated qubit index (e.g. Jt_jj Z_j X_j) are not representable
    as Hermitian Pauli words and are omitted from the Hamiltonian itself.
    """
    if row == "zz_only":
        J = np.asarray(J, dtype=float)
        n = J.shape[0]
        strings = _zz_strings(J, n)
        h = pauli_to_pmr(strings)
        record = ComparisonRecord(
            model="zz_only", n_qubits=n, m_terms=h.m,
            taylor_terms=n * n, T=0.0,
            T_prime=abs(t) * float(np.sum(np.abs(J))),
            lcu_count_quoted=0, T_maxnorm=0.0, notes="H is diagonal",
        )
        return h, record
    if row == "zz_zx":
        J = np.asarray(J, dtype=float)
        J_tilde = np.asarray(J_tilde, dtype=float)
        n = J.shape[0]
        strings = _zz_strings(J, n)
        for j in range(n):
            for i in range(n):
                if i != j and J_tilde[i, j] != 0.0:
                    strings.append(PauliString(J_tilde[i, j], 1 << i, 1 << j, 0, n))
        h = pauli_to_pmr(strings)
        T = abs(t) * float(np.sum(np.abs(np.sum(J_tilde, axis=0))))
        off = J_tilde - np.diag(np.diag(J_tilde))
        record = ComparisonRecord(
            model="zz_zx", n_qubits=n, m_terms=h.m,
            taylor_terms=2 * n * n, T=T,
            T_prime=abs(t) * float(np.sum(np.abs(J)) + np.sum(np.abs(J_tilde))),
            lcu_count_quoted=n + 1,
            T_maxnorm=abs(t) * float(np.sum(np.abs(off))),
            notes="literature counts N+1 LCU unitaries vs M=N grouped terms",
        )
        return h, record
    if row == "zzz_zzx":
        J = np.asarray(J, dtype=float)
        J_tilde = np.asarray(J_tilde, dtype=float)
        n = J.shape[0]
        strings = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) == 3 and J[i, j, k] != 0.0:
                        strings.append(
                            PauliString(
                                J[i, j, k], (1 << i) | (1 << j) | (1 << k), 0, 0, n
                            )
                        )
                    if len({i, j, k}) == 3 and J_tilde[i, j, k] != 0.0:
                        strings.append(
                            PauliString(
                                J_tilde[i, j, k], (1 << i) | (1 << j), 1 << k, 0, n
                            )
                        )
        if not strings:
            strings.append(PauliString(0.0, 0, 0, 0, n))
        h = pauli_to_pmr(strings)
        T = abs(t) * float(np.sum(np.abs(np.sum(J_tilde, axis=(0, 1)))))
        record = ComparisonRecord(
            model="zzz_zzx", n_qubits=n, m_terms=h.m,
            taylor_terms=2 * n ** 3, T=T,
            T_prime=abs(t) * float(np.sum(np.abs(J)) + np.sum(np.abs(J_tilde))),
            lcu_count_quoted=n,
            T_maxnorm=_exact_t_maxnorm(h, t),
            notes="distinct-index couplings only",
        )
        return h, record
    raise ValueError(f"unknown comparison row {row!r}")


def _zz_strings(J: np.ndarray, n: int) -> list[PauliString]:
    strings = []
    const = float(np.trace(J))
    if const != 0.0:
        strings.append(PauliString(const, 0, 0, 0, n))
    for i in range(n):
        for j in range(i + 1, n):
            coeff = float(J[i, j] + J[j, i])
            if coeff != 0.0:
                strings.append(PauliString(coeff, (1 << i) | (1 << j), 0, 0, n))
    if not strings:
        strings.append(PauliString(0.0, 0, 0, 0, n))
    return strings


def _chain_bonds(n_sites: int) -> list[tuple[int, int]]:
    if n_sites == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n_sites) for i in range(n_sites)]


def _jw_hops(strings: list[PauliString], coeff: float, i: int, j: int, n_sites: int) -> None:
    """Append the Jordan-Wigner hop between sites i < j of each spin sector
    (spin up on qubits 0..n_sites-1, spin down after): coeff times X_i Z..Z X_j,
    then the same with Y, the Z string on the sites strictly between."""
    n_q = 2 * n_sites
    for off in (0, n_sites):
        mid = sum(1 << (off + k) for k in range(i + 1, j))
        ends = (1 << (off + i)) | (1 << (off + j))
        strings.append(PauliString(coeff, mid, ends, 0, n_q))
        strings.append(PauliString(coeff, mid, 0, ends, n_q))


def build_fermi_hubbard(
    n_sites: int,
    d: int = 1,
    u: float = 4.0,
    t_h: float = 1.0,
    t: float = 1.0,
    adjacency: list[tuple[int, int]] | None = None,
) -> tuple[PmrHamiltonian, ComparisonRecord]:
    """Hubbard model on 2 * n_sites qubits (spin-up block first).

    Occupation maps to (1 + Z)/2, so the on-site term is
    (u/4) sum_j (1 + Z_up)(1 + Z_dn); each hopping bond contributes
    (t_h/2)(XX + YY) dressed with the intra-sector Z string, which groups
    into the projector-form diagonal (t_h/2)(1 - Z_i Z_j) Zs.  Default
    adjacency is the periodic chain (a single bond for two sites);
    higher-dimensional lattices are supplied via ``adjacency``.

    The quoted T is the literature value t * N * d * t_h; the computed
    per-term max-norm is t_h per (bond, spin), giving ``T_maxnorm``.
    """
    if n_sites < 2:
        raise ValueError("need at least two sites")
    bonds = adjacency if adjacency is not None else _chain_bonds(n_sites)
    bonds = [(min(i, j), max(i, j)) for i, j in bonds]
    if len(set(bonds)) != len(bonds):
        raise ValueError("duplicate bonds in adjacency")
    n_q = 2 * n_sites
    strings = []
    for j in range(n_sites):
        up, dn = 1 << j, 1 << (n_sites + j)
        for mask in (0, up, dn, up | dn):
            strings.append(PauliString(u / 4.0, mask, 0, 0, n_q))
    for i, j in bonds:
        _jw_hops(strings, t_h / 2.0, i, j, n_sites)
    h = pauli_to_pmr(strings)
    T = abs(t) * n_sites * d * t_h
    record = ComparisonRecord(
        model="fermi_hubbard", n_qubits=n_q, m_terms=h.m,
        taylor_terms=3 * n_sites + 2 * n_sites * d,
        T=T, T_prime=3 * n_sites * u * abs(t) + 2 * T,
        lcu_count_quoted=n_sites * d,
        T_maxnorm=_exact_t_maxnorm(h, t),
        notes="T independent of the on-site strength u",
    )
    return h, record


def build_schwinger(
    n_sites: int,
    mass: float,
    coupling: float,
    spacing: float,
    eps0: float = 0.0,
    t: float = 1.0,
) -> tuple[PmrHamiltonian, ComparisonRecord]:
    """Lattice Schwinger model on n qubits.

    The diagonal part collects the staggered mass term and the squared
    gauge-field sum, expanded into identity, Z and ZZ contributions; the
    off-diagonal bonds are (1/(2 a^2 g^2))(XX + YY), which group into
    D_i = (1/(2 a^2 g^2))(1 - Z_i Z_{i+1}) on flips X_i X_{i+1}.

    The quoted T uses the convention gamma_i = 1/(2 a^2 g^2) and the count
    M = N; the exact per-term max-norm is twice that on N-1 bonds.
    """
    if n_sites < 2:
        raise ValueError("need at least two sites")
    if spacing == 0.0 or coupling == 0.0:
        raise ValueError("lattice spacing and coupling must be nonzero")
    n = n_sites
    w = 1.0 / (2.0 * spacing ** 2 * coupling ** 2)
    diag: dict[int, float] = {}

    def add(mask, coeff):
        diag[mask] = diag.get(mask, 0.0) + coeff

    for j in range(1, n + 1):  # staggered mass, 1-based site parity
        add(1 << (j - 1), (mass / (spacing * coupling ** 2)) * (-1.0) ** j)
    for i in range(1, n):
        c_i = eps0 + 0.5 * sum((-1.0) ** j for j in range(1, i + 1))
        add(0, c_i ** 2 + i / 4.0)
        for j in range(1, i + 1):
            add(1 << (j - 1), c_i)
        for j in range(1, i + 1):
            for k in range(j + 1, i + 1):
                add((1 << (j - 1)) | (1 << (k - 1)), 0.5)
    strings = [PauliString(c, m, 0, 0, n) for m, c in sorted(diag.items()) if c != 0.0]
    for i in range(n - 1):
        ends = (1 << i) | (1 << (i + 1))
        strings.append(PauliString(w, 0, ends, 0, n))
        strings.append(PauliString(w, 0, 0, ends, n))
    h = pauli_to_pmr(strings)
    T = abs(t) * n / (2.0 * spacing ** 2 * coupling ** 2)
    record = ComparisonRecord(
        model="schwinger", n_qubits=n, m_terms=h.m,
        taylor_terms=n * n,
        T=T,
        T_prime=abs(t)
        * (
            n ** 2
            + mass * n / (spacing * coupling ** 2)
            + n / (spacing ** 2 * coupling ** 2)
        ),
        lcu_count_quoted=n,
        T_maxnorm=abs(t) * (n - 1) * 2.0 * w,
        notes="T_prime is a scaling with constant 1; literature quotes M=N for N-1 bonds",
    )
    return h, record


@dataclass(frozen=True)
class PlaneWaveData:
    """Plane-wave dual-basis coefficient arrays (zero-frequency entry dropped)."""

    k_vectors: np.ndarray  # (n_nu, 3)
    r_points: np.ndarray  # (N, 3) grid points
    r_nuclei: np.ndarray  # (n_j, 3)
    zeta: np.ndarray  # (n_j,) nuclear charges
    omega: float  # cell volume
    n_basis: int

    def __post_init__(self):
        k = np.atleast_2d(np.asarray(self.k_vectors, dtype=float))
        keep = np.einsum("ij,ij->i", k, k) > 0.0
        object.__setattr__(self, "k_vectors", k[keep])
        object.__setattr__(self, "r_points", np.atleast_2d(np.asarray(self.r_points, dtype=float)))
        object.__setattr__(self, "r_nuclei", np.atleast_2d(np.asarray(self.r_nuclei, dtype=float)))
        object.__setattr__(self, "zeta", np.asarray(self.zeta, dtype=float))
        if self.omega <= 0.0:
            raise ValueError("cell volume must be positive")
        if self.n_basis != self.r_points.shape[0]:
            raise ValueError("n_basis must match the number of grid points")


@dataclass(frozen=True)
class ElectronicStructureTimes:
    T: float
    T_prime: float
    m_terms: int
    taylor_terms: int


def _plane_wave_sums(data: PlaneWaveData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k_nu^2, the cosines cos(k_nu . (r_q - r_p)) [nu, p, q] and the nuclear
    sums sum_j zeta_j cos(k_nu . (R_j - r_p)) [nu, p]."""
    k = data.k_vectors
    disp = data.r_points[None, :, :] - data.r_points[:, None, :]  # [p, q]
    nuc_phase = np.einsum("nd,pjd->npj", k, data.r_nuclei[None, :, :] - data.r_points[:, None, :])
    return (np.einsum("ij,ij->i", k, k), np.cos(np.einsum("nd,pqd->npq", k, disp)),
            np.einsum("j,npj->np", data.zeta, np.cos(nuc_phase)))


def electronic_structure_times(data: PlaneWaveData, t: float) -> ElectronicStructureTimes:
    """Dimensionless times of the plane-wave dual-basis electronic Hamiltonian.

    Evaluates the displayed closed forms: the off-diagonal time sums the
    two-electron cosine interference terms only, while the Pauli-basis time
    adds every coefficient magnitude including the nuclear attraction part.
    """
    n = data.n_basis
    k2, cos_pq, nuc_sum = _plane_wave_sums(data)
    c = np.einsum("n,npq->pq", k2, cos_pq)  # c[p, q] = sum_nu k_nu^2 cos(k_nu . (r_q - r_p))
    off = ~np.eye(n, dtype=bool)
    T = abs(t) * (n - 1) * float(np.sum(np.abs(c[off])))
    per_nu = (
        np.pi / (data.omega * k2)[:, None, None] + (k2 / (2.0 * n))[:, None, None]
    ) * np.abs(cos_pq)
    first = float(np.sum(per_nu[:, off]))
    # per-point nuclear term: sum_j zeta_j cos(k . (R_j - r_p)) / k^2
    nuc = nuc_sum / k2[:, None]
    inner = np.pi / (data.omega * k2)[:, None] - (k2 / (4.0 * n))[:, None] + (
        2.0 * np.pi / data.omega
    ) * nuc
    second = 2.0 * float(np.sum(np.abs(inner)))
    return ElectronicStructureTimes(
        T=T,
        T_prime=abs(t) * (first + second),
        m_terms=2 * (n * n - n),
        taylor_terms=2 * n + 6 * (n * n - n),
    )


def build_electronic_structure(
    data: PlaneWaveData, t: float = 1.0
) -> tuple[PmrHamiltonian, ComparisonRecord]:
    """Small-N PMR form of the dual-basis Hamiltonian over 2 N qubits.

    Grid-point p with spin sigma maps to qubit p + sigma * N.  Intended for
    desk-scale checks; coefficient arrays are taken as given.
    """
    n = data.n_basis
    n_q = 2 * n
    k2, cos_pq, nuc_sum = _plane_wave_sums(data)
    c = np.einsum("n,npq->pq", k2, cos_pq)
    z_coeff = (
        np.pi / (data.omega * k2)[:, None]
        - (k2 / (4.0 * n))[:, None]
        + (2.0 * np.pi / data.omega) * nuc_sum / k2[:, None]
    ).sum(axis=0)
    zz = (np.pi / (2.0 * data.omega)) * np.einsum("n,npq->pq", 1.0 / k2, cos_pq)
    strings = []
    ident = float(np.sum(k2 / 2.0 - np.pi * n / (data.omega * k2)))
    if ident != 0.0:
        strings.append(PauliString(ident, 0, 0, 0, n_q))
    for p in range(n):
        for sigma in (0, 1):
            strings.append(PauliString(float(z_coeff[p]), 1 << (p + sigma * n), 0, 0, n_q))
    for a in range(n_q):
        for b in range(a + 1, n_q):
            coeff = 2.0 * float(zz[a % n, b % n])
            if coeff != 0.0:
                strings.append(PauliString(coeff, (1 << a) | (1 << b), 0, 0, n_q))
    for p in range(n):
        for q in range(p + 1, n):
            w = float(c[p, q]) / (4.0 * n)
            if w != 0.0:
                _jw_hops(strings, w, p, q, n)
    h = pauli_to_pmr(strings)
    times = electronic_structure_times(data, t)
    record = ComparisonRecord(
        model="electronic_structure", n_qubits=n_q, m_terms=h.m,
        taylor_terms=times.taylor_terms, T=times.T, T_prime=times.T_prime,
        lcu_count_quoted=times.m_terms,
        T_maxnorm=_exact_t_maxnorm(h, t),
        notes="coefficient arrays taken as input",
    )
    return h, record


MODEL_NAMES = ("zz_only", "zz_zx", "zzz_zzx", "fermi_hubbard", "schwinger", "electronic_structure")


def _default_plane_wave(n: int) -> PlaneWaveData:
    """Deterministic small plane-wave data set for CLI demonstrations."""
    harmonics = []
    for nx in (-1, 1, 2):
        harmonics.append((2.0 * np.pi * nx / n, 0.4 * nx, -0.3 * nx))
    return PlaneWaveData(
        k_vectors=np.array(harmonics),
        r_points=np.array([[float(p), 0.0, 0.0] for p in range(n)]),
        r_nuclei=np.array([[0.5 * (n - 1), 0.0, 0.0]]),
        zeta=np.array([2.0]),
        omega=float(n),
        n_basis=n,
    )


def build_named_model(
    name: str, n: int, t: float = 1.0
) -> tuple[PmrHamiltonian, ComparisonRecord]:
    """Build a model by name with deterministic default couplings."""
    if name == "zz_only":
        J = np.triu(np.ones((n, n)), k=1) / (n - 1 if n > 1 else 1)
        return build_table3_model("zz_only", J=J, t=t)
    if name == "zz_zx":
        J = np.triu(np.ones((n, n)), k=1) / max(n - 1, 1)
        Jt = 0.5 * (np.ones((n, n)) - np.eye(n))
        return build_table3_model("zz_zx", J=J, J_tilde=Jt, t=t)
    if name == "zzz_zzx":
        Jt = np.zeros((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) == 3:
                        Jt[i, j, k] = 0.25
        return build_table3_model("zzz_zzx", J=np.zeros((n, n, n)), J_tilde=Jt, t=t)
    if name == "fermi_hubbard":
        return build_fermi_hubbard(n, t=t)
    if name == "schwinger":
        return build_schwinger(n, mass=0.5, coupling=1.0, spacing=1.0, t=t)
    if name == "electronic_structure":
        return build_electronic_structure(_default_plane_wave(n), t=t)
    raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")

"""Hamiltonians in permutation matrix representation (PMR).

A Hamiltonian over N qubits is stored as H = D0 + sum_i D_i P_i where every
D is diagonal in the computational basis and every P_i flips a fixed nonzero
subset of qubits (a tensor product of Pauli-X operators, encoded as a bit
mask).  Diagonals are sums of Pauli-Z products, encoded as (coefficient,
z_mask) pairs.

Conventions used throughout the package:

* basis states are integers z in [0, 2^N); bit j of z belongs to qubit j,
  bit 0 is the least significant bit;
* qubit j's Z eigenvalue at state z is (-1)^{bit_j(z)};
* in Pauli words such as ``ZIXZ`` the first character acts on qubit 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "PauliString",
    "DiagonalOperator",
    "PermutationOperator",
    "PmrHamiltonian",
    "GammaBounds",
    "pauli_to_pmr",
    "pmr_to_pauli_strings",
    "diagonal_energy",
    "hopping_strength",
    "gamma_bounds",
    "dense_matrix",
    "hermiticity_defect",
    "parse_hamiltonian",
    "parse_hamiltonian_file",
    "format_hamiltonian",
    "HamiltonianParseError",
]

DENSE_THRESHOLD = 12
ENUMERATION_THRESHOLD = 22
MERGE_RTOL = 1e-14


class HamiltonianParseError(ValueError):
    """Raised for malformed Hamiltonian text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_mask(mask: int, n_qubits: int, name: str) -> None:
    if mask < 0 or mask >> n_qubits:
        raise ValueError(f"{name} 0x{mask:x} does not fit in {n_qubits} qubits")


def parity_signs(mask: int, n_qubits: int) -> np.ndarray:
    """(-1)^{popcount(z & mask)} for every basis state z, as an int8 array."""
    z = np.arange(1 << n_qubits, dtype=np.uint64)
    odd = np.bitwise_count(z & np.uint64(mask)) & 1
    return 1 - 2 * odd.astype(np.int8)


@dataclass(frozen=True)
class PauliString:
    """A single Pauli product c * prod_j sigma_j with disjoint X/Y/Z masks."""

    coefficient: float
    z_mask: int
    x_mask: int
    y_mask: int
    n_qubits: int

    def __post_init__(self):
        if self.n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        for name in ("z_mask", "x_mask", "y_mask"):
            _check_mask(getattr(self, name), self.n_qubits, name)
        if (self.z_mask & self.x_mask) or (self.z_mask & self.y_mask) or (
            self.x_mask & self.y_mask
        ):
            raise ValueError("z/x/y masks must be pairwise disjoint")

    @classmethod
    def from_word(cls, coefficient: float, word: str) -> "PauliString":
        """Build from a word over {I,X,Y,Z}; character j acts on qubit j."""
        z = x = y = 0
        for j, ch in enumerate(word):
            if ch == "Z":
                z |= 1 << j
            elif ch == "X":
                x |= 1 << j
            elif ch == "Y":
                y |= 1 << j
            elif ch != "I":
                raise ValueError(f"invalid Pauli character {ch!r}")
        return cls(coefficient, z, x, y, len(word))

    def to_word(self) -> str:
        chars = []
        for j in range(self.n_qubits):
            bit = 1 << j
            if self.z_mask & bit:
                chars.append("Z")
            elif self.x_mask & bit:
                chars.append("X")
            elif self.y_mask & bit:
                chars.append("Y")
            else:
                chars.append("I")
        return "".join(chars)


@dataclass(frozen=True)
class DiagonalOperator:
    """Sum of Pauli-Z products: terms are (complex coefficient, z_mask) pairs.

    Duplicate masks are merged at construction; term order is canonical
    (ascending mask) so equal operators compare equal.

    The operator's value at z depends only on the k qubits of its support,
    the union of its z-masks.  Its values over the 2^k support states are
    computed once per operator, on first use, and cached as a read-only
    table; ``values``, ``gamma_bounds`` and ``PmrHamiltonian.values_at`` read it.
    """

    terms: tuple[tuple[complex, int], ...]
    n_qubits: int

    def __init__(self, terms, n_qubits: int):
        merged: dict[int, complex] = {}
        for coeff, mask in terms:
            _check_mask(mask, n_qubits, "z_mask")
            merged[mask] = merged.get(mask, 0j) + complex(coeff)
        canon = tuple(
            (merged[m], m) for m in sorted(merged) if merged[m] != 0
        )
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "n_qubits", n_qubits)

    @classmethod
    def zero(cls, n_qubits: int) -> "DiagonalOperator":
        return cls((), n_qubits)

    def value(self, z: int) -> complex:
        """Diagonal element <z|D|z>."""
        total = 0j
        for coeff, mask in self.terms:
            total += coeff if bin(z & mask).count("1") % 2 == 0 else -coeff
        return total

    @property
    def _support(self) -> int:
        """Union of the z-masks: the qubits the values depend on."""
        support = 0
        for _, mask in self.terms:
            support |= mask
        return support

    @cached_property
    def _support_table(self) -> np.ndarray:
        """Values over the 2^k support states, shaped (2,) * k.

        Axis a holds the a-th highest support qubit, so the table broadcasts
        against the (2,) * N view of a full state vector once the other axes
        are given length 1.  Terms are summed in canonical order from zero,
        as a full enumeration would, so every entry is bitwise equal to the
        value at each basis state that matches it on the support.
        """
        # values() and exact bounds refuse N > 22 whatever the support size
        if self.n_qubits > ENUMERATION_THRESHOLD:
            raise ValueError("full enumeration limited to small N")
        support = self._support
        qubits = [j for j in range(self.n_qubits) if support >> j & 1]
        table = np.zeros(1 << len(qubits), dtype=complex)
        # an overflowed entry is inf; plan_segments refuses the bounds it gives
        with np.errstate(over="ignore"):
            for coeff, mask in self.terms:
                packed = sum(1 << p for p, j in enumerate(qubits) if mask >> j & 1)
                table += coeff * parity_signs(packed, len(qubits))
        table.flags.writeable = False
        return table.reshape((2,) * len(qubits))

    def _broadcast(self, table: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` (2^N,) filled with ``table``, shaped like the support
        table, at every basis state that matches it on the support."""
        n, support = self.n_qubits, self._support
        shape = [2 if support >> j & 1 else 1 for j in reversed(range(n))]
        out.reshape((2,) * n)[...] = table.reshape(shape)
        return out

    def values(self) -> np.ndarray:
        """Diagonal elements over all 2^N basis states, as a fresh array.

        One broadcast of the cached 2^k-entry support table; the result is
        bitwise the same as summing every term over all 2^N states.
        """
        return self._broadcast(self._support_table, np.empty(1 << self.n_qubits, dtype=complex))

    def sum_abs(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))

    def is_real(self) -> bool:
        return all(c.imag == 0.0 for c, _ in self.terms)

    def pruned(self, tol: float) -> "DiagonalOperator":
        """Drop coefficients with magnitude below ``tol``."""
        return DiagonalOperator(
            [(c, m) for c, m in self.terms if abs(c) >= tol], self.n_qubits
        )


@dataclass(frozen=True)
class PermutationOperator:
    """Fixed-point-free bit-flip permutation: |z> -> |z XOR x_mask>."""

    x_mask: int

    def __post_init__(self):
        if self.x_mask <= 0:
            raise ValueError("permutation must flip at least one qubit")


@dataclass(frozen=True)
class PmrHamiltonian:
    """H = D0 + sum_i D_i P_i with pairwise distinct flip masks."""

    d0: DiagonalOperator
    terms: tuple[tuple[DiagonalOperator, PermutationOperator], ...]
    n_qubits: int

    def __init__(self, d0, terms, n_qubits: int):
        terms = tuple((d, p) for d, p in terms)
        masks = [p.x_mask for _, p in terms]
        if len(set(masks)) != len(masks):
            raise ValueError("flip masks must be pairwise distinct")
        for _, p in terms:
            _check_mask(p.x_mask, n_qubits, "x_mask")
        for d in (d0, *(d for d, _ in terms)):
            if d.n_qubits != n_qubits:
                raise ValueError(f"diagonal on {d.n_qubits} qubits, Hamiltonian on {n_qubits}")
        if not d0.is_real():
            raise ValueError("diagonal part must have real coefficients")
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "n_qubits", n_qubits)

    @property
    def m(self) -> int:
        """Number of off-diagonal generalized-permutation terms."""
        return len(self.terms)

    def diagonal_values(self) -> np.ndarray:
        """E_z over all basis states, as a real array."""
        return self.d0.values().real

    def term_values(self, i: int) -> np.ndarray:
        """d_i(z) over all basis states."""
        return self.terms[i][0].values()

    @cached_property
    def hop_flags(self) -> np.ndarray:
        """Read-only (M, 2^N) flags d_i(z) != 0, each row broadcast from the
        term's support table, so no complex 2^N array is made."""
        flags = np.empty((self.m, 1 << self.n_qubits), dtype=bool)
        for row, (d, _) in zip(flags, self.terms):
            d._broadcast(d._support_table != 0, row)
        flags.flags.writeable = False
        return flags

    @cached_property
    def _strides(self) -> np.ndarray:
        """(M + 1, N) strides of qubit j in the flat support table of E (row
        0) and of each d_i, 0 off the support: bit p of a table index is the
        p-th support qubit.  Float, so that the index is one BLAS product,
        exact since every sum is an integer below 2^53."""
        strides = np.zeros((self.m + 1, self.n_qubits))
        for row, d in zip(strides, (self.d0, *(d for d, _ in self.terms))):
            qubits = [j for j in range(self.n_qubits) if d._support >> j & 1]
            row[qubits] = 1 << np.arange(len(qubits))
        return strides

    def values_at(self, states: np.ndarray) -> np.ndarray:
        """E and d_1..d_M at the basis ``states`` as rows of one (M + 1, k)
        complex array: the ``_strides`` of each state's bits index the flat
        support table of each diagonal.  Row 0's real part is bitwise
        ``diagonal_values()[states]`` and row i + 1 is bitwise
        ``term_values(i)[states]``."""
        bits = (states >> np.arange(self.n_qubits)[:, None]) & 1
        index = (self._strides @ bits).astype(np.intp)
        diagonals = (self.d0, *(d for d, _ in self.terms))
        return np.array([d._support_table.reshape(-1)[i] for d, i in zip(diagonals, index)])

    def x_masks(self) -> np.ndarray:
        return np.array([p.x_mask for _, p in self.terms], dtype=np.int64)


@dataclass(frozen=True)
class GammaBounds:
    """Per-term upper bounds gamma[i] >= max_z |d_i(z)| and their sum."""

    gamma: tuple[float, ...]
    gamma_total: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        gamma = tuple(float(g) for g in self.gamma)
        if any(g < 0 for g in gamma):
            raise ValueError("bounds must be nonnegative")
        object.__setattr__(self, "gamma", gamma)
        if self.gamma_total is None:
            object.__setattr__(self, "gamma_total", float(sum(gamma)))


def pauli_to_pmr(strings: list[PauliString]) -> PmrHamiltonian:
    """Convert a real-coefficient Pauli-sum Hamiltonian to PMR form.

    Strings with no X/Y content form D0.  Every other string is rewritten
    with Y = (-i Z) X per qubit, producing a complex diagonal coefficient
    placed left of the bit-flip permutation; strings are then grouped by
    flip mask.  Coefficients smaller than 1e-14 times the largest input
    coefficient are dropped after grouping.
    """
    if not strings:
        raise ValueError("empty Hamiltonian")
    n = strings[0].n_qubits
    if any(s.n_qubits != n for s in strings):
        raise ValueError("all strings must share n_qubits")
    if not np.isfinite([s.coefficient for s in strings]).all():
        raise ValueError("coefficients must be finite")
    scale = max(abs(s.coefficient) for s in strings)
    tol = MERGE_RTOL * scale

    d0_terms: list[tuple[complex, int]] = []
    groups: dict[int, list[tuple[complex, int]]] = {}
    for s in strings:
        flip = s.x_mask | s.y_mask
        phase = (-1j) ** bin(s.y_mask).count("1")
        diag_mask = s.z_mask | s.y_mask
        coeff = s.coefficient * phase
        if flip == 0:
            d0_terms.append((coeff, diag_mask))
        else:
            groups.setdefault(flip, []).append((coeff, diag_mask))

    d0 = DiagonalOperator(d0_terms, n).pruned(tol)
    terms = []
    for flip in sorted(groups):
        d = DiagonalOperator(groups[flip], n).pruned(tol)
        if d.terms:
            terms.append((d, PermutationOperator(flip)))
    return PmrHamiltonian(d0, terms, n)


def pmr_to_pauli_strings(h: PmrHamiltonian) -> list[PauliString]:
    """Expand a PMR Hamiltonian back into real-coefficient Pauli strings.

    Inverse of :func:`pauli_to_pmr`; requires term-wise Hermiticity so that
    every expanded coefficient is real, to 1e-12 of the largest magnitude.
    """
    strings: list[PauliString] = []
    limit = 1e-12 * max(
        [abs(c) for c, _ in h.d0.terms]
        + [abs(c) for d, _ in h.terms for c, _ in d.terms]
        + [1.0]
    )
    for coeff, mask in h.d0.terms:
        if abs(coeff.imag) > limit:
            raise ValueError("diagonal part is not Hermitian")
        strings.append(PauliString(coeff.real, mask, 0, 0, h.n_qubits))
    for d, p in h.terms:
        for coeff, mask in d.terms:
            y_mask = mask & p.x_mask
            # c * Z_mask X_flip = c * i^{|overlap|} * (Y on overlap) ...
            full = coeff * (1j) ** bin(y_mask).count("1")
            if abs(full.imag) > limit:
                raise ValueError(f"term with flip 0x{p.x_mask:x} is not Hermitian")
            strings.append(
                PauliString(
                    full.real, mask & ~p.x_mask, p.x_mask & ~y_mask, y_mask, h.n_qubits
                )
            )
    return strings


def diagonal_energy(h: PmrHamiltonian, z: int) -> float:
    """E_z = <z|D0|z>; exactly real since D0 carries real coefficients."""
    if z < 0 or z >> h.n_qubits:
        raise ValueError(f"basis index {z} out of range")
    return h.d0.value(z).real


def hopping_strength(h: PmrHamiltonian, i: int, z_after: int) -> complex:
    """d_i(z_after) = <z_after|D_i|z_after>, z_after being the post-flip state."""
    if not 0 <= i < h.m:
        raise IndexError(f"term index {i} out of range for M={h.m}")
    if z_after < 0 or z_after >> h.n_qubits:
        raise ValueError(f"basis index {z_after} out of range")
    return h.terms[i][0].value(z_after)


def gamma_bounds(
    h: PmrHamiltonian,
    mode: str = "exact",
    enumeration_threshold: int = ENUMERATION_THRESHOLD,
) -> GammaBounds:
    """Per-term bounds on max_z |d_i(z)|.

    ``exact`` takes the maximum over the 2^k states of each D_i's support
    (cost O(terms * 2^k), with the table cached on D_i), which equals the
    maximum over all 2^N basis states bit for bit; it still refuses
    N > ``enumeration_threshold``.  ``sum_abs`` returns the always-valid sum
    of coefficient magnitudes.
    """
    if mode == "exact":
        if h.n_qubits > enumeration_threshold:
            raise ValueError(
                f"exact bounds need enumeration over 2^{h.n_qubits} states; "
                f"threshold is 2^{enumeration_threshold}"
            )
        gamma = tuple(float(np.max(np.abs(d._support_table))) for d, _ in h.terms)
    elif mode == "sum_abs":
        gamma = tuple(d.sum_abs() for d, _ in h.terms)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return GammaBounds(gamma)


def dense_matrix(h: PmrHamiltonian) -> np.ndarray:
    """Dense 2^N x 2^N matrix of H in the computational basis (test oracle)."""
    if h.n_qubits > DENSE_THRESHOLD:
        raise ValueError(f"dense matrix limited to N <= {DENSE_THRESHOLD}")
    dim = 1 << h.n_qubits
    mat = np.diag(h.d0.values())
    cols = np.arange(dim)
    for d, p in h.terms:
        rows = cols ^ p.x_mask
        mat[rows, cols] += d.values()[rows]
    return mat


def hermiticity_defect(h: PmrHamiltonian) -> float:
    """max |d_i(z XOR mask_i) - conj(d_i(z))| over terms and states (small N)."""
    defect = 0.0
    dim = 1 << h.n_qubits
    cols = np.arange(dim)
    for d, p in h.terms:
        vals = d.values()
        defect = max(defect, float(np.max(np.abs(vals[cols ^ p.x_mask] - vals.conj()))))
    return defect


def parse_hamiltonian(text: str, n_qubits: int | None = None) -> list[PauliString]:
    """Parse the one-term-per-line text format ``<coefficient> <pauli word>``.

    ``#`` starts a comment; blank lines are ignored.  All words must share
    one length (``n_qubits`` if given).
    """
    strings: list[PauliString] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise HamiltonianParseError(
                f"expected '<coefficient> <pauli word>', got {raw.strip()!r}", lineno
            )
        try:
            coeff = float(parts[0])
        except ValueError:
            coeff = np.nan
        if not np.isfinite(coeff):
            raise HamiltonianParseError(f"bad coefficient {parts[0]!r}", lineno)
        if n_qubits is not None and len(parts[1]) != n_qubits:
            raise HamiltonianParseError(
                f"word length {len(parts[1])} != {n_qubits}", lineno
            )
        try:
            s = PauliString.from_word(coeff, parts[1])
        except ValueError as exc:
            raise HamiltonianParseError(str(exc), lineno) from None
        if n_qubits is None:
            n_qubits = s.n_qubits
        strings.append(s)
    if not strings:
        raise HamiltonianParseError("no terms found", 1)
    return strings


def parse_hamiltonian_file(path) -> list[PauliString]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hamiltonian(fh.read())


def format_hamiltonian(strings: list[PauliString]) -> str:
    """Render strings in the text format, in a canonical deterministic order."""
    ordered = sorted(strings, key=lambda s: (s.x_mask | s.y_mask, s.z_mask, s.y_mask))
    return "".join(f"{s.coefficient!r} {s.to_word()}\n" for s in ordered)

"""Shared test helpers: instance generators and independent dense oracles."""

import math
from fractions import Fraction

import numpy as np

from pmrsim import PauliString, PmrHamiltonian, dd_exp_taylor, pauli_to_pmr

I2 = np.eye(2, dtype=complex)
PAULI_MATS = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_dense(strings):
    """Dense Pauli-sum oracle built by explicit Kronecker products."""
    dim = 1 << strings[0].n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for s in strings:
        mat = np.array([[1.0 + 0j]])
        for ch in s.to_word():
            mat = np.kron(PAULI_MATS[ch], mat)
        total += s.coefficient * mat
    return total


def conditioned_dd_instance(rng, q_max=12, amp_max=8.0):
    """Random divided-difference instance on which all four methods are
    numerically meaningful in float64.

    Nodes sit on a jittered even grid (the defining naive sum needs
    separated nodes), |t| * spread stays above q/3 (the pyramid recursion
    amplifies rounding by ~q/(|t| * spread) per level), and instances whose
    value is deeply cancelled relative to the |t|^q/q! envelope are redrawn.
    """
    while True:
        q = int(rng.integers(1, q_max + 1))
        spread = float(rng.uniform(0.5, 2.0))
        if q == 1:
            x = np.array([0.0, spread])
        else:
            base = np.linspace(0.0, spread, q + 1)
            jitter = rng.uniform(-0.3, 0.3, size=q + 1) * (spread / q)
            x = np.sort(base + jitter)
        x = x - x.mean() + rng.uniform(-0.5, 0.5)
        amp_min = max(0.4, q / 3.0)
        amp = float(rng.uniform(amp_min, amp_max))
        t = amp / max(x.max() - x.min(), 1e-6)
        value = dd_exp_taylor(x, t)
        envelope = abs(t) ** q / math.factorial(q)
        if abs(value) >= 1e-2 * envelope:
            return x, t, value


def exact_dd_exp(values, t):
    """e^{-it[x]} from its Taylor form sum_n (-it)^{q+n}/(q+n)! * h_n(x) in
    exact rational arithmetic (floats are rationals), rounded once at the end.

    No mean shift and no floating-point step, so it shares no rounding with
    ``pmrsim.divdiff``.  With X = max |x|, term n is at most
    |t|^q/q! * (|t| X)^n/n!, and the sum stops once the geometric cap on the
    rest falls below 1e-25 of that envelope |t|^q/q!.
    """
    x = [Fraction(float(v)) for v in values]
    s, q = Fraction(float(t)), len(values) - 1
    amp = abs(s) * max(abs(v) for v in x)
    h = [Fraction(1)] * (q + 1)  # h[j] = h_n(x_0..x_j) at the current degree n
    coeff = s ** q / math.factorial(q)  # t^{q+n}/(q+n)!
    parts = [Fraction(0)] * 4  # sums by (q+n) mod 4, the power of -i
    n, cap = 0, Fraction(1)
    while True:
        parts[(q + n) % 4] += coeff * h[q]
        n += 1
        cap *= amp / n  # amp^n/n!, the cap on term n in envelope units
        if n + 1 > amp and cap / (1 - amp / (n + 1)) < Fraction(1, 10**25):
            break
        coeff *= s / (q + n)
        for j in range(q + 1):  # h_n(x_0..x_j) = h_n(x_0..x_{j-1}) + x_j h_{n-1}(x_0..x_j)
            h[j] = (h[j - 1] if j else 0) + x[j] * h[j]
    # (-i)^k is 1, -i, -1, i for k = 0, 1, 2, 3
    return complex(float(parts[0] - parts[2]), float(parts[3] - parts[1]))


def add_input_loop(h, y):
    """The input-addition step as the literal loop over degrees."""
    for n in range(1, len(h)):
        h[n] += y * h[n - 1]


def same_bits(a, b):
    """Two arrays of one dtype and shape with the same bytes, so -0.0 and
    +0.0 differ and equal NaNs match."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_pmr_hamiltonian(rng, n=4, m_terms=4, n_diag=3, coupling=1.0):
    """Random PMR Hamiltonian built from Pauli strings with |coefficients|
    below ``coupling`` and at most ``m_terms`` distinct flip patterns."""
    masks = []
    target = min(m_terms, (1 << n) - 1)
    while len(masks) < target:
        mask = int(rng.integers(1, 1 << n))
        if mask not in masks:
            masks.append(mask)
    strings = []
    for _ in range(n_diag):
        strings.append(
            PauliString(
                float(rng.uniform(-coupling, coupling)),
                int(rng.integers(1, 1 << n)),
                0,
                0,
                n,
            )
        )
    for flip in masks:
        bits = [b for b in range(n) if flip >> b & 1]
        y = (1 << bits[int(rng.integers(0, len(bits)))]) if rng.random() < 0.4 else 0
        z = int(rng.integers(0, 1 << n)) & ~flip
        strings.append(
            PauliString(float(rng.uniform(-coupling, coupling)), z, flip & ~y, y, n)
        )
    return pauli_to_pmr(strings)


def random_state(rng, n_qubits):
    psi = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return psi / np.linalg.norm(psi)


def trotter_first_order(
    h: PmrHamiltonian, state: np.ndarray, t: float, steps: int
) -> np.ndarray:
    """Non-core first-order splitting comparator (test utility only).

    Alternates e^{-i dt D0} with e^{-i dt D_i P_i} per term, the latter via
    the dense two-state rotation each flip mask induces.  O(t^2/steps)
    accurate; used only as a baseline in tests, never by the algorithm.
    """
    state = np.asarray(state, dtype=complex).copy()
    dim = 1 << h.n_qubits
    dt = t / steps
    phases = np.exp(-1j * dt * h.d0.values().real)
    z = np.arange(dim)
    for _ in range(steps):
        state = phases * state
        for d, p in h.terms:
            vals = d.values()
            flipped = z ^ p.x_mask
            # e^{-i dt D P} acts on each pair (u, l = u^mask) as the 2x2
            # Hermitian block [[0, d(u)], [conj d(u), 0]]
            upper = z[z < flipped]
            lower = upper ^ p.x_mask
            m01 = vals[upper]
            mag = np.abs(m01)
            cos = np.cos(dt * mag)
            sinc = np.where(mag > 0, np.sin(dt * mag) / np.where(mag > 0, mag, 1.0), dt)
            s_u, s_l = state[upper].copy(), state[lower].copy()
            state[upper] = cos * s_u - 1j * sinc * m01 * s_l
            state[lower] = cos * s_l - 1j * sinc * np.conj(m01) * s_u
    return state

"""Host-speed reference: a fixed kernel timed alongside the ops.

The benchmark runs on a few cores of a shared host whose speed shifts by 25
to 50 % between regimes that last minutes; a whole run usually lands in one
regime.  pmrsim's ops slow down with the host, but not all alike: interpreter
work, numpy passes over vectors of a few MB, small complex matrix products
and the page faults of fresh allocations each stretch by their own amount.
The reference kernel spends about equal time on each of the four and runs
none of pmrsim's code, so timing it in the same process during the run
measures the host's current speed.  Reported times are wall times scaled by
``REF_SECONDS / kernel median``: seconds at the speed the host had when
REF_SECONDS was measured.

The kernel takes its buffers from ``mmap`` directly, not from malloc, so it
cannot shift malloc's thresholds and change how pmrsim's own allocations
behave.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

# Median kernel time within benchmark runs on the 2-vCPU Intel Xeon VM that
# the README's figures come from (Python 3.11.7, numpy 2.4.6, one BLAS thread).
REF_SECONDS = 0.045
PY_ITERS = 100_000
FRESH_BUFFERS = 3
PASSES = 4
AMPLITUDES = 1 << 18  # a 4 MB complex vector, the size of an N=18 state
MATRIX = 96
PRODUCTS = 64


class HostSpeed:
    """Kernel samples of one run and the scale they imply."""

    def __init__(self):
        self.samples: list[float] = []
        # Operands of the matrix products, alive as long as this object.
        self._mat_buf = mmap.mmap(-1, 3 * MATRIX * MATRIX * 16)
        self._a, self._b, self._c = np.frombuffer(self._mat_buf, dtype=np.complex128).reshape(
            3, MATRIX, MATRIX
        )
        self._a[:] = np.eye(MATRIX) * 0.5 + 0.25j / MATRIX
        self._b[:] = self._a.T

    def reference_kernel(self) -> float:
        """Wall seconds of one pass of the fixed reference work."""
        start = time.perf_counter()
        acc = 0
        for i in range(PY_ITERS):
            acc += i * i % 7
        for _ in range(FRESH_BUFFERS):
            with mmap.mmap(-1, AMPLITUDES * 16) as buf:
                z = np.frombuffer(buf, dtype=np.complex128)
                z += acc  # first touch of every page
                for _ in range(PASSES):
                    np.multiply(z, 0.5 + 0.5j, out=z)
                acc = int(z[0].real) % 7
                del z  # the mmap cannot close while numpy holds its buffer
        for _ in range(PRODUCTS):
            np.matmul(self._a, self._b, out=self._c)
        return time.perf_counter() - start

    def sample(self) -> None:
        self.samples.append(self.reference_kernel())

    def kernel_seconds(self) -> float:
        return statistics.median(self.samples)

    def to_ref(self, seconds: float) -> float:
        """Wall seconds expressed at the reference host speed."""
        return seconds * REF_SECONDS / self.kernel_seconds()

"""Span recording at pmrsim's module boundaries, from outside the package.

The tracer wraps public functions and methods of each pmrsim module and
rebinds every name under which a pmrsim module holds the original, including
names a caller imported directly (``lcu.dd_exp_taylor_batch``,
``cli.evolve_lcu``, ``cli.gamma_bounds``).  Nothing under ``src/`` changes,
and the rebinding lives only in the benchmark's process.
"""

from __future__ import annotations

import functools
import sys
import time

from metrics import Span

# Span name -> (module, attribute path).  These are the layer boundaries.
LAYERS = {
    "cli.main": ("pmrsim.cli", "main"),
    "series.evolve": ("pmrsim.series", "evolve"),
    "series.plan": ("pmrsim.series", "plan_segments"),
    "series.apply_diagonal": ("pmrsim.series", "apply_diagonal"),
    "series.apply_uod": ("pmrsim.series", "apply_uod_truncated"),
    "divdiff.taylor_batch": ("pmrsim.divdiff", "dd_exp_taylor_batch"),
    "lcu.evolve": ("pmrsim.lcu", "evolve_lcu"),
    "lcu.segment_operators": ("pmrsim.lcu", "SegmentOperators.__init__"),
    "lcu.tables": ("pmrsim.lcu", "SegmentOperators.tables"),
    "lcu.apply_B": ("pmrsim.lcu", "apply_B"),
    "lcu.apply_U_C": ("pmrsim.lcu", "apply_U_C"),
    "pmr.gamma_bounds": ("pmrsim.pmr", "gamma_bounds"),
    "pmr.diag_values": ("pmrsim.pmr", "DiagonalOperator.values"),
    "models.build": ("pmrsim.models", "build_named_model"),
    "resources.comparison_row": ("pmrsim.resources", "comparison_row"),
    "oracle.build": ("pmrsim.oracle", "DenseOracle.__init__"),
    "oracle.evolve": ("pmrsim.oracle", "DenseOracle.evolve"),
    "oracle.unitary": ("pmrsim.oracle", "DenseOracle.unitary"),
}


def _active_blocks(state, *_args, **_kwargs) -> int:
    """Ancilla blocks of a composite state holding any nonzero amplitude."""
    mat = state.amplitudes.reshape(state.layout.anc_dim, state.system_dim)
    return int((mat != 0).any(axis=1).sum())


def _rows(seqs, *_args, **_kwargs) -> int:
    return len(seqs)


# Work counts read from a call's arguments before its span starts:
# span name -> (metric label, counter).
COUNTERS = {
    "lcu.apply_U_C": ("active_blocks", _active_blocks),
    "divdiff.taylor_batch": ("rows", _rows),
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers.

    ``op`` is the id stamped on new spans: -1 during set-up, the op index
    during the timed loop.  ``spans`` returns what was recorded so far.
    """

    def __init__(self):
        self._raw: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        for name, (module, path) in LAYERS.items():
            self._bind(name, sys.modules[module], path)

    def _bind(self, name: str, module, path: str) -> None:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner)[attr]
        wrapped = self._wrap(name, original, COUNTERS.get(name, (None, None))[1])
        if owner_name:
            self._bindings.append((owner, attr, original, wrapped))
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "pmrsim" or mod_name.startswith("pmrsim."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original, wrapped))

    def _wrap(self, name: str, fn, counter):
        # Spans are recorded as plain lists, the cheapest mutable record.
        spans, stack, clock = self._raw, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = counter(*args, **kwargs) if counter else 0
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, count]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @property
    def spans(self) -> list[Span]:
        return [Span(*raw) for raw in self._raw]

    def install(self) -> None:
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

"""Per-layer tracing of the program from outside its source.

``Tracer.install`` replaces the public functions of each package module, and
a few named methods, with timing wrappers. A name that another module bound
with ``from .x import f`` is replaced there too, so calls resolve to the
wrapper wherever they are made. ``Tracer.uninstall`` restores every original.

Each wrapped call adds to per-command, per-function totals of calls,
inclusive time and self time (duration minus the time covered by wrapped
calls inside it). Calls are also kept in memory as spans
``(id, parent_id, name, start, end)``, except for the functions in ``HOT``
and ``LEAVES``, which run up to millions of times per command and are only
totalled. ``LEAVES`` call no wrapped function, so their wrapper skips the
call stack and costs less.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

LAYERS = ("pauli", "gf2", "grouping", "transform", "circuits", "verify", "cli")

# Methods wrapped in addition to module-level functions.
METHODS = {
    "pauli": ("PauliProduct.commutes_with", "PauliProduct.qwc_with",
              "PauliProduct.__mul__"),
    "transform": ("TauSigmaBasis.validate",),
}
# Private cli helpers that mark the I/O and serialisation boundaries.
CLI_PRIVATE = ("_read_hamiltonian", "_write_text", "_json_dumps", "_verify_checks")

HOT = frozenset({"pauli.PauliProduct.commutes_with", "gf2.in_span"})
LEAVES = frozenset({
    "pauli.PauliProduct.qwc_with", "pauli.PauliProduct.__mul__",
    "pauli.symplectic_inner", "gf2.symplectic_inner", "gf2.swap_halves",
    "gf2.solve", "verify.dense_pauli", "verify.dense_gate",
})


class Tracer:
    """Call totals and spans of the wrapped functions, grouped by command."""

    def __init__(self, package) -> None:
        self.modules = {name: getattr(package, name) for name in LAYERS}
        # command -> function name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, dict[str, list]] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._entries: dict[str, list] = {}
        self._stack: list[list] = []   # [child seconds, span id or -1]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self.command = ""

    @property
    def command(self) -> str:
        return self._command

    @command.setter
    def command(self, name: str) -> None:
        """Attribute the calls that follow to the named command."""
        self._command = name
        self._entries = self.totals.setdefault(name, defaultdict(lambda: [0, 0.0, 0.0]))

    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        if name in LEAVES:
            def leaf(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                duration = clock() - start
                entry = self._entries[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration
                if stack:
                    stack[-1][0] += duration
                return result
            leaf.__wrapped__ = fn
            return leaf

        keep_span = name not in HOT

        def wrapper(*args, **kwargs):
            span_id = -1
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry = self._entries[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                    spans.append((span_id, parent, name, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def _targets(self):
        """(owner, attribute, qualified name) for every function to wrap."""
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") or (layer == "cli" and attr in CLI_PRIVATE)
                if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    yield module, attr, f"{layer}.{attr}"
            for path in METHODS.get(layer, ()):
                cls_name, attr = path.split(".")
                yield getattr(module, cls_name), attr, f"{layer}.{path}"

    def install(self) -> None:
        wrappers = {}
        for owner, attr, name in list(self._targets()):
            original = vars(owner)[attr]
            wrappers[id(original)] = self._wrap(name, original)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])
        # Rebind names other modules imported with ``from .x import f``.
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        self.totals.clear()
        self.spans.clear()
        self.command = ""

    # --- summaries -----------------------------------------------------------

    def _rows(self, command: str, prefix: str):
        return (row for name, row in self.totals.get(command, {}).items()
                if name.startswith(prefix))

    def calls(self, command: str, prefix: str) -> int:
        """Calls to functions whose qualified name starts with prefix."""
        return sum(row[0] for row in self._rows(command, prefix))

    def inclusive(self, command: str, name: str) -> float:
        row = self.totals.get(command, {}).get(name)
        return row[1] if row else 0.0

    def self_time(self, command: str, prefix: str) -> float:
        """Self seconds of functions whose qualified name starts with prefix."""
        return sum(row[2] for row in self._rows(command, prefix))

"""Outside-in span tracing for the benchmark's traced runs.

A :class:`Tracer` wraps public callables of the package (module
functions and class methods) with timing shims installed from outside;
the package itself is not modified.  Each call records one span —
name, start, end, parent span, request id — in memory; ``run.py``
writes them out once, when the run ends.  The parent link follows a context
variable, so spans nest correctly per thread and per asyncio task.

Spans hang under *root* spans opened by the benchmark: ``setup`` once,
then one root per measured pass, whose name is its pass kind (``cold``,
``warm``).  :func:`layer_metrics` turns them into per-layer self times
for setup plus one pass of each kind, and ``other_s`` — the roots' own
self time — so that the layers and ``other_s`` add up to the traced wall
time by construction.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)
_REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None)


class Tracer:
    """In-memory span recorder plus the shims that feed it."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: [name, start, end, parent index or None, request id]
        self.spans: list[list] = []
        #: (root index, counter name) -> amount
        self.counts: dict[tuple, float] = defaultdict(float)
        self._undo: list = []
        # client threads record concurrently: an index must name its span
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        span = [name, self.clock(), None, _CURRENT.get(), _REQUEST.get()]
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        token = _CURRENT.set(index)
        try:
            yield index
        finally:
            _CURRENT.reset(token)
            self.spans[index][2] = self.clock()

    @contextlib.contextmanager
    def root(self, kind: str, request=None):
        """A top-level span: ``setup`` or one measured pass of ``kind``."""
        token = _CURRENT.set(None)
        req = _REQUEST.set(request)
        try:
            with self.span(kind) as index:
                yield index
        finally:
            _REQUEST.reset(req)
            _CURRENT.reset(token)

    @staticmethod
    @contextlib.contextmanager
    def request(request_id):
        token = _REQUEST.set(request_id)
        try:
            yield
        finally:
            _REQUEST.reset(token)

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter of the root the current span belongs to."""
        key = (self.root_of(_CURRENT.get()), name)
        with self._lock:
            self.counts[key] += amount

    def root_of(self, index):
        while index is not None and self.spans[index][3] is not None:
            index = self.spans[index][3]
        return index

    # ------------------------------------------------------------------
    def shim(self, func, name: str, probe=None):
        """``func`` wrapped to record a span; ``probe(state)`` hooks.

        A probe is a callable taking the call's args and kwargs and
        returning an ``on_exit(span_index, result)`` callback, called
        inside the span once the wrapped call returns.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with tracer.span(name) as index:
                on_exit = probe(*args, **kwargs) if probe else None
                result = func(*args, **kwargs)
                if on_exit is not None:
                    on_exit(index, result)
                return result
        return traced

    def patch_method(self, cls, attr: str, name: str, probe=None) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        original = inspect.getattr_static(cls, attr)
        if attr not in vars(cls) or isinstance(original, (staticmethod,
                                                          classmethod)):
            raise TypeError(f"{cls.__name__}.{attr} is not a plain method "
                            "defined on the class")
        setattr(cls, attr, self.shim(original, name, probe))
        self._undo.append((cls, attr, original))

    def patch_function(self, func, name: str, probe=None) -> None:
        """Wrap a module function everywhere a ``repro`` module holds it,
        so ``from x import f`` references are traced too."""
        wrapped = self.shim(func, name, probe)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, func))

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Pure span arithmetic (unit-tested)
# ----------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another within it (spans nest
    per thread and per task), so their durations are simply summed.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def pass_counts(spans) -> dict[str, int]:
    """Passes per root kind.  Roots sharing a kind and a request id (one
    per client thread) are one pass; ``setup`` always counts once."""
    passes: dict[str, set] = defaultdict(set)
    for name, _, _, parent, request in spans:
        if parent is None:
            passes[name].add(None if name == "setup" else request)
    return {kind: len(ids) for kind, ids in passes.items()}


def layer_metrics(spans, counts=None) -> dict[str, float]:
    """Per-layer self seconds (``<name>_s``), call counts (``<name>.calls``),
    counters, ``other_s`` and the traced ``wall_s``, for setup plus one
    pass of each kind (sums over a kind's passes divided by their number).
    """
    own = self_times(spans)
    root: list[int] = []
    for i, span in enumerate(spans):
        parent = span[3]
        root.append(i if parent is None else root[parent])
    per_kind: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, _) in enumerate(spans):
        sums = per_kind[spans[root[i]][0]]
        if parent is None:
            sums["other_s"] += own[i]
            sums["wall_s"] += end - start
        else:
            sums[f"{name}_s"] += own[i]
            sums[f"{name}.calls"] += 1
    for (root_index, name), amount in (counts or {}).items():
        if root_index is not None:
            per_kind[spans[root_index][0]][name] += amount
    n = pass_counts(spans)
    out: dict[str, float] = defaultdict(float)
    for kind, sums in per_kind.items():
        for name, total in sums.items():
            out[name] += total / n[kind]
    return dict(out)

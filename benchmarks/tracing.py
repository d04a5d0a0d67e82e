"""Outside-in tracing of cssolve: wrap functions where they are bound, record spans.

Nothing inside ``src/`` is modified.  A function is replaced by a wrapper at
every module attribute that holds it (``from .grid import cumulative_integral``
makes a second binding in ``gauge``, a third in ``solver`` and so on), and the
original is put back by ``uninstall``.  A *span* wrapper records
``(id, name, start, end, parent id, thread)``; a *count* wrapper only records
``(name, enclosing span name)`` and leaves its time with the enclosing span,
which keeps cheap, frequent calls (``solve_ivp`` inside ``_shoot``,
``spsolve`` inside ``_inner_newton``) from being timed twice.

Spans are kept in memory; self time is derived from them afterwards.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.counts: list[tuple[str, str | None]] = []  # (name, enclosing span name)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            self.counts.append((name, stack[-1][1] if stack else None))
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules, targets) -> None:
        """Wrap each (kind, name, function) of ``targets`` wherever a module binds it.

        ``kind`` is "span" or "count".  Raises if a target is bound nowhere,
        so a renamed function cannot silently drop out of the trace.
        """
        for kind, name, fn in targets:
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = make(name, fn)
            found = False
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, fn))
                        found = True
            if not found:
                raise LookupError(f"traced function {name} is bound in no module")

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children run on the parent's thread, so they never overlap.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _thread in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, name, start, end, _parent, _thread in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[sid]
        return dict(out)

    def count(self, name: str, parent_prefix: str | None = None) -> int:
        """Calls of a count-wrapped function, optionally only under spans whose name has a prefix."""
        return sum(1 for n, parent in self.counts
                   if n == name and (parent_prefix is None or (parent or "").startswith(parent_prefix)))

    def child_count(self, name: str, parent_name: str) -> int:
        """Spans called ``name`` whose direct parent span is called ``parent_name``."""
        names = {sid: n for sid, n, *_ in self.spans}
        return sum(1 for _sid, n, _s, _e, parent, _t in self.spans
                   if n == name and names.get(parent) == parent_name)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, thread in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps({"id": sid, "name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "thread": thread}) + "\n")

"""In-memory spans, timing wrappers and the self-time tree.

The benchmark traces the program from the outside: :class:`Tracer`
replaces public functions and methods of each layer with wrappers that
record a span (name, start, end, parent) per call, and puts the
originals back on :meth:`Tracer.restore`.  Nothing under ``src/`` knows
it is being traced.  Spans stay in memory until the run ends and are
written out once (:meth:`Tracer.write_jsonl`).

A span's parent is the innermost open span on the same thread.  Calls
made from a worker thread with no open span of its own (the thread pool
inside ``solve_many``) are parented to the innermost open span of the
main thread.  Self time subtracts the *union* of the child intervals,
so children that ran in parallel are not subtracted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of *values*.

    The rank is ``ceil(q/100 * n)``, so p50 of ``[1, 2, 3, 4]`` is 2 and
    p99 of 100 values is the 99th smallest.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)  # ceil without float surprises
    return ordered[max(int(rank), 1) - 1]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    index: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per-span self time: duration minus the part of the span's
    interval that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            parent = spans[sp.parent]
            start = max(sp.start, parent.start)
            end = min(sp.end, parent.end)
            if end > start:
                children.setdefault(sp.parent, []).append((start, end))
    return [sp.duration - _union_length(children.get(i, ()))
            for i, sp in enumerate(spans)]


@dataclass
class TreeRow:
    path: tuple[str, ...]
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0


def self_time_tree(spans: Sequence[Span]) -> list[TreeRow]:
    """Aggregate spans by their name path from the root.

    Every root gets an extra ``unattributed`` child row holding the
    root's self time: the part of the traced region no layer span
    covers.  Rows come out in depth-first order, children by
    decreasing total time.
    """
    selfs = self_times(spans)
    paths: list[tuple[str, ...]] = []
    rows: dict[tuple[str, ...], TreeRow] = {}
    for i, sp in enumerate(spans):
        path = ((paths[sp.parent] if sp.parent >= 0 else ())
                + (sp.name,))
        paths.append(path)
        row = rows.setdefault(path, TreeRow(path))
        row.count += 1
        row.total += sp.duration
        row.self_time += selfs[i]
        if sp.parent < 0:
            un = rows.setdefault(path + ("unattributed",),
                                 TreeRow(path + ("unattributed",)))
            un.count += 1
            un.total += selfs[i]
            un.self_time += selfs[i]
    kids: dict[tuple[str, ...], list[TreeRow]] = {}
    for path, row in rows.items():
        kids.setdefault(path[:-1], []).append(row)
    out: list[TreeRow] = []

    def walk(prefix: tuple[str, ...]) -> None:
        for row in sorted(kids.get(prefix, ()), key=lambda r: -r.total):
            out.append(row)
            walk(row.path)

    walk(())
    return out


def format_tree(rows: Sequence[TreeRow]) -> str:
    lines = [f"{'span':<52} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
    for row in rows:
        label = "  " * (len(row.path) - 1) + row.path[-1]
        lines.append(f"{label:<52} {row.count:>8d} {row.total:>10.4f} "
                     f"{row.self_time:>10.4f}")
    return "\n".join(lines)


class Tracer:
    """Records spans around patched callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else -1
        sp = Span(name, 0.0, parent=parent)
        with self._lock:
            sp.index = len(self.spans)
            self.spans.append(sp)
        stack.append(sp.index)
        sp.start = time.perf_counter()
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == sp.index:
            stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        sp = self.open(name)
        try:
            yield sp
        finally:
            self.close(sp)

    def open_ancestor(self, name: str) -> Span | None:
        """The innermost open span called *name* on this thread's
        chain of parents, or ``None``."""
        stack = self._stack()
        idx = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else -1)
        while idx >= 0:
            sp = self.spans[idx]
            if sp.name == name:
                return sp
            idx = sp.parent
        return None

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             on_result: Callable[[Span, tuple, dict, Any], None] | None
             = None) -> Callable:
        """*fn* with a span around every call; *name* may be a function
        of the call arguments.  *on_result* sees the span, the
        arguments and the return value."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            sp = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sp)
            if on_result is not None:
                on_result(sp, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def patch_function(self, module: str, attr: str, name: str,
                       on_result=None) -> None:
        """Wrap ``module.attr`` and every alias of the same function
        object that other loaded ``repro`` modules imported by name."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append(
                        functools.partial(setattr, mod, key, original))

    def patch_attr(self, owner: Any, attr: str, name, on_result=None
                   ) -> None:
        """Wrap a method on a class (all instances) or on one object."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, on_result))
        if had_own:
            self._restore.append(
                functools.partial(setattr, owner, attr, original))
        else:
            self._restore.append(functools.partial(delattr, owner, attr))

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output ----------------------------------------------------------
    def by_name(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "i": sp.index, "name": sp.name, "parent": sp.parent,
                    "start": sp.start, "end": sp.end}) + "\n")

"""Spans and counters recorded around calls into a package, from outside it.

The tracer replaces functions by wrappers wherever the package holds a
reference to them: every module attribute bound to the same function
object (so ``from .x import y`` copies are caught too), every value of a
module-level dict bound to it, and class attributes for methods.
``restore`` puts the originals back.

A span records (name, start, end, parent). Each thread keeps its own span
stack. A span opened on a worker thread with an empty stack takes as its
parent the innermost open span of the thread that created the tracer,
which is where the thread map was entered. Self time is a span's duration
minus the part of that interval its child spans cover; children that run
in parallel on two threads are counted once.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict


class _ThreadState:
    __slots__ = ("stack", "counts", "maxima", "last")

    def __init__(self):
        self.stack: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.last: dict[str, object] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self.spans: list[list] = []  # [name, start, end, parent span or None]
        self._home = self.state()

    def state(self) -> _ThreadState:
        """This thread's stack and counters."""
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            self._states.append(st)
        return st

    def reset(self):
        """Forget recorded spans and counts; wrappers stay installed."""
        self.spans = []
        for st in self._states:
            st.counts.clear()
            st.maxima.clear()
            st.last.clear()

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self.state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            elif st is not self._home:
                # A one-element slice reads the other thread's stack atomically.
                top = self._home.stack[-1:]
                parent = top[0] if top else None
            else:
                parent = None
            rec = [name, 0.0, 0.0, parent]
            self.spans.append(rec)
            stack.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that its calls are counted as ``name``, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.state().counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def counts(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for st in self._states:
            for key, value in st.counts.items():
                out[key] += value
        return dict(out)

    def maxima(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for st in self._states:
            for key, value in st.maxima.items():
                out[key] = max(out.get(key, value), value)
        return out


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and total self time in seconds."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[id(parent)].append((start, end))
    stats: dict[str, dict[str, float]] = {}
    for rec in spans:
        name, start, end, _ = rec
        own = (end - start) - _covered(start, end, children.get(id(rec), []))
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return stats


def resolve(target: str, package: str):
    """The object named ``module.attr[.attr...]`` under ``package``, or None
    when the module or any attribute on the way no longer exists."""
    parts = target.split(".")
    try:
        obj = importlib.import_module(f"{package}.{parts[0]}")
    except ImportError:
        return None
    for part in parts[1:]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def install(package: str, wrappers: dict[object, object]):
    """Replace each original function (the keys) by its wrapper wherever a
    module of ``package`` refers to it. Methods are replaced on their class.
    Returns a function that restores the originals."""
    by_id = {id(fn): (fn, wrapped) for fn, wrapped in wrappers.items()}
    undo: list[tuple[object, object, object]] = []

    def swap(container, key, value):
        hit = by_id.get(id(value))
        if hit is None or hit[0] is not value:
            return
        undo.append((container, key, value))
        if isinstance(container, dict):
            container[key] = hit[1]
        else:
            setattr(container, key, hit[1])

    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            swap(module, attr, value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for meth, fn in list(vars(value).items()):
                    swap(value, meth, fn)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    swap(value, key, item)

    def restore():
        for container, key, original in reversed(undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    return restore

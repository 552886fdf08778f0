"""Out-of-process-style tracer for the benchmark: wraps public functions of
``disagree_kit`` from outside, at every module attribute they are bound to,
and records spans and counters without touching the package's source.

Two kinds of wrapper exist:

* span wrappers record (name, start, end, parent, thread id) per call;
* leaf wrappers, for functions called millions of times per run
  (``NeighborSampler.step``, ``derive_rng``), only add their call count and
  duration to counters, and charge the duration to the enclosing span as
  covered time. A leaf runs inside one span of its own thread and never
  overlaps another leaf of that thread, so summing is exact there.

A call that starts in a thread with no open span (a sweep cell in a pool
thread) takes as parent the innermost open span of the thread running the
root span (the benchmark operation): the call that handed it the work.
All shared state is updated under one lock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

PACKAGE = "disagree_kit"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span],
               leaf_time: dict[int, float]) -> dict[int, float]:
    """Self time of each span: its duration minus the time its children
    cover. Child spans may overlap (threads), so their union is taken;
    leaf time never overlaps same-thread children and is added on top.
    The result is clamped into [0, duration]."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = covered_length(children.get(s.id, [])) + leaf_time.get(
            s.id, 0.0)
        out[s.id] = max(0.0, s.duration - min(covered, s.duration))
    return out


class Tracer:
    """Span and counter store plus the patching that feeds it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._root_stack: list[int] = []
        #: names of the leaf wrappers, whose time counts as their own
        self.leaf_names: set[str] = set()
        self.reset()

    # -- recorded data -------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self.spans: list[Span] = []
            self.leaf_time: dict[int, float] = defaultdict(float)
            self.counters: dict[str, float] = defaultdict(float)
            self.maxima: dict[str, float] = {}

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int | None:
        stack = self._stack() or self._root_stack
        return stack[-1] if stack else None

    def run_span(self, name: str, fn: Callable, *args, root: bool = False,
                 **kwargs):
        """Call ``fn`` inside a span; ``root`` marks the benchmark
        operation that pool threads attach to."""
        with self._lock:
            span_id = next(self._ids)
        parent = self._parent()
        stack = self._stack()
        stack.append(span_id)
        if root:
            self._root_stack = stack
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            if root:
                self._root_stack = []
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident()))
                self.counters[name + ".time"] += end - start
                self.counters[name + ".calls"] += 1

    def _leaf_done(self, name: str, elapsed: float, items: float) -> None:
        parent = self._parent()
        with self._lock:
            self.counters[name + ".time"] += elapsed
            self.counters[name + ".calls"] += 1
            self.counters[name + ".items"] += items
            if parent is not None:
                self.leaf_time[parent] += elapsed

    # -- wrapping ------------------------------------------------------

    def wrap(self, name: str, fn: Callable, *, leaf: bool = False,
             items: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """Wrapper of ``fn`` that records under ``name``.

        A leaf wrapper adds ``items(args)`` to ``<name>.items``; a span
        wrapper runs ``after(tracer, args, result)`` outside its span."""
        tracer = self

        if leaf:
            self.leaf_names.add(name)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = perf_counter()
                result = fn(*args, **kwargs)
                tracer._leaf_done(name, perf_counter() - start,
                                  items(args) if items is not None else 0)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = tracer.run_span(name, fn, *args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
        return wrapper

    def patch_function(self, module_name: str, attr: str, *, name: str,
                       **how) -> None:
        """Replace the function ``module_name.attr`` at every binding in
        the package's loaded modules; ``how`` is passed on to :meth:`wrap`.
        """
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self.wrap(name, original, **how)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or
                                      mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def patch_method(self, cls: type, attr: str, *, name: str, **how
                     ) -> None:
        """Replace a method (or a ``cached_property``) on ``cls``."""
        original = cls.__dict__[attr]
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(
                self.wrap(name, original.func, **how))
            replacement.__set_name__(cls, attr)
        else:
            replacement = self.wrap(name, original, **how)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

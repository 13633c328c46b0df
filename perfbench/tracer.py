"""In-memory spans and counts recorded around calls into the program.

A span is (name, start, end, parent) with integer nanosecond times from
``time.perf_counter_ns``; the parent is the span open on the same stack when
it started.  Spans live in flat typed arrays until the run ends.  Self time
is a span's duration minus the durations of its direct children, computed
exactly in integers, so it can never be negative for properly nested spans.

``Tracer.patch`` swaps a name where its caller binds it (a module attribute
or a mapping entry) and ``restore`` puts every original back.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable, Iterator, NamedTuple

import numpy as np


class SpanTotals(NamedTuple):
    calls: int
    total_ns: int
    self_ns: int


class NullTracer:
    """Stand-in used for untraced passes: calls straight through, records nothing."""

    def call(self, name: str, fn: Callable, *args):
        return fn(*args)

    def count(self, key: str, amount: int = 1) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[object, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _run(self, nid: int, fn: Callable, args, kwargs):
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0)
        self._stack.append(idx)
        self._start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn: Callable, *args):
        return self._run(self._id(name), fn, args, {})

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def wrap(self, name: str | Callable[[tuple], str], fn: Callable) -> Callable:
        """A traced stand-in for fn; a callable name is resolved from each call's arguments."""
        if callable(name):
            name_of = name
            return lambda *args, **kwargs: self._run(self._id(name_of(args)), fn, args, kwargs)
        nid = self._id(name)
        return lambda *args, **kwargs: self._run(nid, fn, args, kwargs)

    def counting(self, key: str, gen_fn: Callable[..., Iterator]) -> Callable[..., Iterator]:
        """A stand-in for a generator function that counts the items it yields."""

        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                self.counts[key] += 1
                yield item

        return counted

    # -- installing --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_item(self, mapping: dict, key, replacement) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- reading -----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans [mark_a, mark_b) belong to one stretch of work."""
        return len(self._name)

    def self_ns(self, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(name ids, self time in ns) of spans [lo, hi), whose parents lie in the same range."""
        hi = self.mark() if hi is None else hi
        names = np.array(self._name[lo:hi], dtype=np.int64)
        dur = np.array(self._end[lo:hi], dtype=np.int64) - np.array(self._start[lo:hi], dtype=np.int64)
        parent = np.array(self._parent[lo:hi], dtype=np.int64) - lo
        inside = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[inside], dur[inside])
        return names, dur - child

    def totals(self, lo: int = 0, hi: int | None = None) -> dict[str, SpanTotals]:
        """Per span name: number of spans, summed duration and summed self time."""
        hi = self.mark() if hi is None else hi
        names, self_time = self.self_ns(lo, hi)
        dur = np.array(self._end[lo:hi], dtype=np.int64) - np.array(self._start[lo:hi], dtype=np.int64)
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        total = np.bincount(names, weights=dur, minlength=size)
        own = np.bincount(names, weights=self_time, minlength=size)
        return {
            name: SpanTotals(int(calls[i]), int(total[i]), int(own[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file (names, name id, start, end, parent)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self._name, dtype=np.int32),
            start=np.array(self._start, dtype=np.int64),
            end=np.array(self._end, dtype=np.int64),
            parent=np.array(self._parent, dtype=np.int64),
        )

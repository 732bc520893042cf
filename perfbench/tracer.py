"""In-memory span tracer that times functions from outside the program.

A span is one call of a wrapped function (or one `span()` block): a name, a
start, an end and the span that was open when it began. Spans go into flat
arrays while the run is going and are written out once, at the end.

Wrapping replaces a module attribute with a timing closure; `restore()` (or
leaving `patched()`) puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from typing import Callable, Iterable, Iterator

import numpy as np

NO_PARENT = -1


class Tracer:
    """Records spans as (name id, parent index, start, end) rows."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [NO_PARENT]
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def patch(self, targets: Iterable[tuple[object, str, str]]) -> None:
        """Replace each module.attr with a traced wrapper named `name`."""
        for module, attr, name in targets:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def patched(self, targets: Iterable[tuple[object, str, str]]) -> Iterator["Tracer"]:
        try:
            self.patch(targets)
            yield self
        finally:
            self.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap one another or stick out of their parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    par, beg, fin = parent.tolist(), start.tolist(), end.tolist()
    covered = [0.0] * len(beg)
    current, reach = NO_PARENT, 0.0
    for i in np.lexsort((start, parent)).tolist():  # by parent, then by start
        p = par[i]
        if p == NO_PARENT:
            continue
        if p != current:
            current, reach = p, beg[p]
        lo, hi = max(beg[i], reach), min(fin[i], fin[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - np.array(covered)


def by_root(tracer: Tracer) -> dict[str, dict[str, tuple[int, float, float]]]:
    """Per top-level span name: {span name: (calls, total s, self s)}."""
    a = tracer.arrays()
    parent, name_id = a["parent"], a["name_id"]
    root: list[int] = []
    for i, p in enumerate(parent.tolist()):  # a parent always precedes its children
        root.append(i if p == NO_PARENT else root[p])
    n_names = len(tracer.names)
    key = name_id[np.array(root, dtype=np.int64)].astype(np.int64) * n_names + name_id
    size = n_names * n_names
    calls = np.bincount(key, minlength=size)
    total = np.bincount(key, weights=a["end"] - a["start"], minlength=size)
    own = np.bincount(key, weights=self_times(parent, a["start"], a["end"]), minlength=size)
    table: dict[str, dict[str, tuple[int, float, float]]] = {}
    for k in np.flatnonzero(calls):
        r, n = divmod(int(k), n_names)
        table.setdefault(tracer.names[r], {})[tracer.names[n]] = (
            int(calls[k]), float(total[k]), float(own[k]))
    return table

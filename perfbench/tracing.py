"""Span tracing from outside the program.

``Tracer.install()`` wraps every public function (the names in ``__all__``
that are plain functions defined there) of each layer module of
``lmoscale`` and rebinds the wrapper wherever the package holds the
original: in its own module, in the ``lmoscale`` re-exports, and in the
names other modules imported (``cli.dumps_json``, for instance).  The
program itself is not edited.  Spans live in flat arrays while the run
lasts and are written as JSON lines when it ends.

Spans are taken on the benchmark's thread only.  A wrapped function called
from another thread (none is today: the grid's worker threads run a private
closure) runs untraced and is counted in ``offthread_calls``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array

import numpy as np

__all__ = ["LAYERS", "Tracer"]

LAYERS = ("cli", "serialize", "grid", "sim", "closed_form", "proxy", "contours", "transfer",
          "sgd", "schedules")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.current_request = -1
        self._offthread: list[int] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    @property
    def offthread_calls(self) -> int:
        return len(self._offthread)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, request, stack = self.parent, self.request, self._stack
        offthread, clock, ident = self._offthread, time.perf_counter, threading.get_ident
        main = ident()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ident() != main:
                offthread.append(1)
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            request.append(self.current_request)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every binding to rebind."""
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"lmoscale.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        bindings = []
        for modname, module in list(sys.modules.items()):
            if modname != "lmoscale" and not modname.startswith("lmoscale."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    bindings.append((module, attr, value, hit[1]))
        return bindings

    def install(self) -> None:
        if not self._patches:
            self._patches = self._bindings()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def durations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(duration, self time, parent index) per span; self = duration - child spans."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur, dur - child, parent

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per wrapped function: calls, total seconds and self seconds."""
        dur, self_s, _ = self.durations()
        ids = np.frombuffer(self.name_of, dtype=np.uint16)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=self_s, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])} for i, name in enumerate(self.names)}

    def write_jsonl(self, path, t0: float) -> None:
        """One span per line: id, name, start, end (seconds from t0), parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'{{"id": {i}, "name": "{self.names[self.name_of[i]]}", '
                    f'"start": {self.start[i] - t0:.9f}, "end": {self.end[i] - t0:.9f}, '
                    f'"parent": {self.parent[i]}, "request": {self.request[i]}}}\n'
                )

"""In-memory spans around slicesim's public functions, recorded from outside.

A Tracer replaces each traced function with a wrapper at every name it is
looked up under: every binding in the globals of every loaded slicesim
module for a plain function, and the defining class for a method. Each
call then records one span: its name, start, end, parent span and the
request id (the uid of the arrival or departure being processed).
Nothing inside slicesim changes and no wrapper draws random numbers, so a
traced run writes the same outputs as an untraced one.

Spans stay in flat arrays until the run ends; ``write_csv`` writes them.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to trace.

    qualname is ``function`` or ``Class.method`` inside module. outcome,
    when given, maps the call's result to a counter suffix (or None), so
    ratios are counted where the work happens. request_of maps the call's
    arguments to the request id its span and every nested span carry.
    count_only records no span, only the number of calls in
    ``counts[span]``, for methods too hot to trace.
    """
    span: str
    module: str
    qualname: str
    outcome: Callable | None = None
    request_of: Callable | None = None
    count_only: bool = False


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.counts: Counter = Counter()
        self.bindings: dict[str, list[str]] = {}
        self._open: list[int] = []
        self._request = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its id."""
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self._request)
        self.end.append(math.nan)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        if self._open.pop() != i:
            raise RuntimeError(f"span {i} closed out of order")

    def wrap(self, target: Target, fn):
        tracer = self
        span, outcome, request_of = target.span, target.outcome, target.request_of

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer._request
            if request_of is not None:
                tracer._request = request_of(args)
            i = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
                tracer._request = outer
            if outcome is not None:
                key = outcome(result)
                if key is not None:
                    tracer.counts[f"{span}.{key}"] += 1
            return result
        return traced

    def count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing wrappers ---------------------------------------------------

    def install(self, targets) -> None:
        for target in targets:
            original, sites = _bindings(target)
            wrapper = (self.count(target.span, original) if target.count_only
                       else self.wrap(target, original))
            for owner, attr, label in sites:
                self._patch(owner, attr, wrapper)
                self.bindings.setdefault(target.span, []).append(label)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets):
        try:
            self.install(targets)
            yield self
        finally:
            self.remove()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- reading spans -----------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds)."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for nid, s in zip(self.name, self.self_times()):
            calls[nid] += 1
            total[nid] += s
        return {n: (calls[i], total[i]) for i, n in enumerate(self.names)}

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,request\n")
            t0 = self.start[0] if self.start else 0.0
            for i, (nid, s, e, p, r) in enumerate(zip(
                    self.name, self.start, self.end, self.parent, self.request)):
                fh.write(f"{i},{self.names[nid]},{s - t0!r},{e - t0!r},"
                         f"{p},{r}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [e - s for s, e in zip(start, end)]
    for s, e, p in zip(start, end, parent):
        if p >= 0:
            out[p] -= e - s
    return out


def _bindings(target: Target):
    """The function and every (owner, attribute, label) it is bound under:
    its class for a method, every loaded slicesim module for a function."""
    module = importlib.import_module(target.module)
    owner_name, _, attr = target.qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        if attr not in vars(owner):
            raise RuntimeError(f"{target.qualname} is not defined on {owner_name}")
        return vars(owner)[attr], [(owner, attr,
                                    f"{target.module}.{target.qualname}")]
    original = getattr(module, attr)
    return original, [(mod, key, f"{mod.__name__}.{key}")
                      for mod in _slicesim_modules()
                      for key, value in list(vars(mod).items())
                      if value is original]


def _slicesim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "slicesim"
                                  or name.startswith("slicesim."))]

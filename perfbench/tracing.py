"""Span recorder for the traced benchmark run.

The benchmark never edits the program: a traced run installs wrappers
around the public functions of each layer from here, records one span
per call, and removes them again.  A span is ``(id, name, start, end,
parent, thread, request)``: ``parent`` is the enclosing span on the
same thread, and ``request`` is the benchmark's current unit of work
on that thread (a parameter cell, a chunk or a window).  Spans stay in
memory and are written out once, by :meth:`Tracer.dump`, when the run
ends.

Every ``<layer>_s`` figure the benchmark reports is **self time**: the
span's duration minus the part of it that its child spans cover, summed
over the layer's spans.  Self times of all spans on a thread therefore
add up to the thread's root spans exactly, which is what lets the
report say how much of the wall time no layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

#: Span-name prefix of the benchmark's own spans (round, set-up, …).
#: Their self time is the part of the wall time no layer accounts for.
BENCH_PREFIX = "bench."


class Tracer:
    """In-memory span and counter store shared by all wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: str | None) -> None:
        """Tag this thread's following spans with a request id."""
        self._local.request = request

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return (span_id, name, parent, time.perf_counter())

    def end(self, token: tuple) -> None:
        end = time.perf_counter()
        span_id, name, parent, start = token
        self._stack().pop()
        # list.append is atomic under the GIL; no lock on the hot path.
        self.spans.append(
            (
                span_id,
                name,
                start,
                end,
                parent,
                threading.current_thread().name,
                getattr(self._local, "request", None),
            )
        )

    def span(self, name: str) -> "_SpanContext":
        """``with tracer.span(name):`` — one span around a block."""
        return _SpanContext(self, name)

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id → self time (duration minus the union of children)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, _name, start, end, parent, _thread, _req in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        result = {}
        for sid, _name, start, end, _parent, _thread, _req in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, cursor)
                c_end = min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result[sid] = (end - start) - covered
        return result

    def summary(self) -> dict:
        """Per span name: call count, total duration and total self time."""
        self_time = self.self_times()
        names: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _parent, _thread, _req in self.spans:
            entry = names.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_time[sid]
        return {"spans": names, "counters": dict(self.counters)}

    def dump(self, path: Path, header: dict) -> None:
        """Write the header line and every span as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "thread", "request")
        with path.open("w") as out:
            out.write(json.dumps({"header": header}) + "\n")
            for span in sorted(self.spans):
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_token")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._token = self._tracer.begin(self._name)

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.end(self._token)


# -- wrappers -----------------------------------------------------------
def _call_wrapper(tracer: Tracer, fn: Callable, name: str | None, after) -> Callable:
    if name is None:  # count-only probe: no span

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer, args, kwargs, result)
            return result

        return counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(token)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _generator_wrapper(tracer: Tracer, fn: Callable, name: str, after) -> Callable:
    """One span per ``next()``: the generator's own work between yields."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            token = tracer.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.end(token)
            if after is not None:
                after(tracer, args, kwargs, item)
            yield item

    return wrapper


class Probe:
    """Where one layer is entered: ``module:Qualified.name``.

    ``span`` names the spans (``None``: count only, record no span).
    ``after(tracer, args, kwargs, result)`` records counts once the call
    returns (for a generator, once per yielded item).  ``subclasses``
    also wraps every subclass that overrides the method.
    """

    def __init__(
        self,
        target: str,
        span: str | None,
        after=None,
        generator: bool = False,
        subclasses: bool = False,
    ) -> None:
        self.target = target
        self.span = span
        self.after = after
        self.generator = generator
        self.subclasses = subclasses


class Installation:
    """The wrappers one :func:`install` call put in place."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Put every original back (in reverse order)."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _all_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_all_subclasses(sub))
    return found


def install(tracer: Tracer, probes: list[Probe]) -> Installation:
    """Wrap every probe's target; returns the handle that removes them.

    A module-level function is replaced in its own module and in every
    loaded ``repro`` module that imported it by name, so calls from
    inside the program are seen too.
    """
    installation = Installation()
    for probe in probes:
        module_name, _, qualname = probe.target.partition(":")
        module = importlib.import_module(module_name)
        parts = qualname.split(".")
        make = _generator_wrapper if probe.generator else _call_wrapper
        if len(parts) == 1:
            original = getattr(module, parts[0])
            wrapped = make(tracer, original, probe.span, probe.after)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        installation.patch(loaded, attr, wrapped)
            continue
        owner = module
        for part in parts[:-1]:
            owner = getattr(owner, part)
        classes = _all_subclasses(owner) if probe.subclasses else [owner]
        for cls in classes:
            raw = cls.__dict__.get(parts[-1])
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                value = classmethod(
                    make(tracer, raw.__func__, probe.span, probe.after)
                )
            else:
                value = make(tracer, raw, probe.span, probe.after)
            installation.patch(cls, parts[-1], value)
    return installation

"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: :func:`instrument` swaps
public functions and methods of ``repro`` modules for wrappers that open
a span around each call; :meth:`Instrumentation.apply` and
:meth:`Instrumentation.undo` switch the wrappers on and off.  Every span carries a name, start, end, its parent span
(the innermost span open on the same thread when it started) and the
operation it belongs to (a trial, a window or a query).  Spans stay in
memory until :meth:`SpanRecorder.dump` writes them out at the end.

A span's self time is its duration minus the part of its interval that
its child spans cover, so the self times of an operation's spans add up
to the operation's wall time.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import sys
import threading
import time


class SpanRecorder:
    """In-memory spans plus per-operation counters."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[tuple, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.op: str | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "op": self.op,
            "start": time.perf_counter(),
        }
        stack.append(span["id"])
        try:
            yield
        finally:
            stack.pop()
            span["end"] = time.perf_counter()
            with self._lock:
                self.spans.append(span)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record an already-timed span under the current open span."""
        stack = self._stack()
        with self._lock:
            self.spans.append(
                {
                    "id": next(self._ids),
                    "parent": stack[-1] if stack else None,
                    "name": name,
                    "op": self.op,
                    "start": start,
                    "end": end,
                }
            )

    def count(self, name: str, amount: int) -> None:
        key = (self.op, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + int(amount)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span) + "\n")

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children."""
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        result = {}
        for span in self.spans:
            covered = _union_length(
                span["start"], span["end"], children.get(span["id"], ())
            )
            result[span["id"]] = (span["end"] - span["start"]) - covered
        return result

    def unbalanced(self) -> int:
        """Spans whose children leave their parent's interval.

        For every span, self time plus the covered part of its interval
        equals its duration by construction; a child that starts before
        or ends after its parent would break that sum, so such spans are
        counted instead of silently clipped.
        """
        by_id = {span["id"]: span for span in self.spans}
        bad = 0
        for span in self.spans:
            parent = by_id.get(span["parent"])
            if parent is not None and (
                span["start"] < parent["start"] - 1e-9
                or span["end"] > parent["end"] + 1e-9
            ):
                bad += 1
        return bad

    def per_op(self, name: str, *, self_time: bool = False) -> list[float]:
        """Per-operation sums of one span name's (self) time, seconds."""
        selfs = self.self_times() if self_time else None
        sums: dict[str, float] = {}
        for span in self.spans:
            if span["name"] != name or span["op"] is None:
                continue
            value = (
                selfs[span["id"]]
                if selfs is not None
                else span["end"] - span["start"]
            )
            sums[span["op"]] = sums.get(span["op"], 0.0) + value
        return list(sums.values())

    def median_ms(self, name: str, *, self_time: bool = False) -> float:
        values = self.per_op(name, self_time=self_time)
        return statistics.median(values) * 1e3 if values else 0.0

    def setup_s(self, name: str) -> float:
        """Total time of a set-up span (outside any operation)."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and span["op"] is None
        )

    def median_count(self, name: str) -> float:
        values = [v for (op, n), v in self.counts.items() if n == name and op]
        return statistics.median(values) if values else 0


def _union_length(start: float, end: float, spans) -> float:
    intervals = sorted(
        (max(start, s["start"]), min(end, s["end"])) for s in spans
    )
    total, cursor = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def _wrap(recorder: SpanRecorder, original, name: str, on_result):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = original(*args, **kwargs)
        if on_result is not None:
            on_result(recorder, args, kwargs, result)
        return result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", name)
    wrapper.__qualname__ = getattr(original, "__qualname__", name)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    return wrapper


class Instrumentation:
    """Patches computed once by :func:`instrument`, switched on and off.

    Alternating traced and untraced operations needs cheap switching, so
    the wrappers and their targets are resolved once and :meth:`apply`
    / :meth:`undo` only set attributes.
    """

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object, object]] = []
        self.applied = False

    def add(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute], value))

    def apply(self) -> None:
        for owner, attribute, _, wrapped in self._patches:
            setattr(owner, attribute, wrapped)
        self.applied = True

    def undo(self) -> None:
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)
        self.applied = False


def instrument(recorder: SpanRecorder, targets) -> Instrumentation:
    """Wrap each target in a span; returns the (not yet applied) patches.

    ``targets`` holds ``(module, qualname, span_name, on_result)``
    entries.  A plain function is replaced in its defining module and in
    every loaded ``repro`` module that imported it by name; a method
    (``"Class.method"``) is replaced on its class, classmethods
    included.  ``on_result(recorder, args, kwargs, result)`` may record
    counts from the call's result.
    """
    patches = Instrumentation()
    for module_name, qualname, span_name, on_result in targets:
        module = sys.modules[module_name]
        if "." in qualname:
            class_name, attribute = qualname.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    _wrap(recorder, raw.__func__, span_name, on_result)
                )
            else:
                wrapped = _wrap(recorder, raw, span_name, on_result)
            patches.add(owner, attribute, wrapped)
            continue
        original = getattr(module, qualname)
        wrapped = _wrap(recorder, original, span_name, on_result)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    patches.add(loaded, attribute, wrapped)
    return patches

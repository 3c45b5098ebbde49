"""Spans recorded from outside the program, at the functions it calls.

A :class:`Tracer` keeps spans in memory: name, layer, start, end, the
span that caused it, and the op (one sweep, or one client request) it
belongs to.  :func:`Tracer.wrap` replaces a function at the attribute the
caller looks it up by, so ``from module import name`` copies need their
own wrapper.  A wrapper records nothing while ``Tracer.enabled`` is false,
which lets one process run an untraced and a traced phase.

A call into a layer while the same thread is already inside that layer
is folded into the outer span (``Encoder.encode_batch`` calling
``Encoder.encode`` is one encoder span).  A span that starts on a thread
with no op context (the program's encode loop and its executor) has no
parent; it is attributed to the tracer's ``default_op`` and reported as
the *background* lane.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .stats import union_length

now = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class Span:
    __slots__ = ("id", "parent", "op", "layer", "name", "t0", "t1", "lane", "attrs")

    def __init__(self, id, parent, op, layer, name, t0, lane):
        self.id = id
        self.parent = parent
        self.op = op
        self.layer = layer
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.lane = lane
        self.attrs: Dict[str, object] = {}

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def to_json(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "Span":
        span = cls(
            data["id"], data["parent"], data["op"], data["layer"], data["name"],
            data["t0"], data["lane"],
        )
        span.t1 = data["t1"]
        span.attrs = dict(data["attrs"])
        return span


Note = Callable[[Span, tuple, dict, object], None]


class Tracer:
    """In-memory span recorder with per-thread span stacks."""

    def __init__(self, prefix: str = "g"):
        self.enabled = False
        self.spans: List[Span] = []
        self.calls: Counter = Counter()  # wrapper name -> calls while enabled
        self.default_op: Optional[str] = None
        self._prefix = prefix
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._installed: List[Tuple[object, str, object, bool]] = []

    # -- context -------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_op(self) -> Optional[str]:
        return getattr(self._tls, "op", None) or self.default_op

    def new_id(self) -> str:
        return f"{self._prefix}{next(self._ids)}"

    def begin(self, layer: str, name: str, parent: Optional[str] = None) -> Span:
        stack = self._stack()
        top = stack[-1] if stack else None
        op = getattr(self._tls, "op", None)
        if top is not None:
            parent, lane = top.id if parent is None else parent, top.lane
        else:
            lane = "foreground" if op is not None else "background"
        span = Span(self.new_id(), parent, op or self.default_op, layer, name, now(), lane)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.t1 = now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, op_id: str, name: str) -> Iterator[Span]:
        """Run the block as op ``op_id``; its root span is ``layer="op"``."""
        previous = getattr(self._tls, "op", None)
        self._tls.op = op_id
        span = self.begin("op", name)
        try:
            yield span
        finally:
            self.end(span)
            self._tls.op = previous

    @contextlib.contextmanager
    def adopt(self, op_id: Optional[str], parent: Optional[Span]) -> Iterator[None]:
        """Continue ``parent``'s op on this thread (work handed to a pool)."""
        saved_op = getattr(self._tls, "op", None)
        saved_stack = self._stack()
        self._tls.op = op_id
        self._tls.stack = [parent] if parent is not None else []
        try:
            yield
        finally:
            self._tls.op = saved_op
            self._tls.stack = saved_stack

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        name: Optional[str] = None,
        note: Optional[Note] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr!r}: static/class methods unsupported")
        label = name or attr
        key = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
        tracer = self

        if inspect.iscoroutinefunction(original):
            raise TypeError(f"{key} is a coroutine function; wrap its sync callee")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            tracer.calls[key] += 1
            top = tracer.current()
            if top is not None and top.layer == layer:
                return original(*args, **kwargs)
            span = tracer.begin(layer, label)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.end(span)
                if error is not None:
                    span.attrs["error"] = type(error).__name__
                if note is not None:
                    note(span, args, kwargs, error if error is not None else result)

        self.calls.setdefault(key, 0)
        self.replace(owner, attr, wrapper)

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        own = attr in vars(owner)
        self._installed.append((owner, attr, vars(owner)[attr] if own else None, own))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every replaced attribute (latest first)."""
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- persistence ---------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": [s.to_json() for s in self.spans], "calls": dict(self.calls)},
                handle,
            )

    def load(self, path: str) -> None:
        """Merge spans and call counts written by another process's dump."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        self.spans.extend(Span.from_json(s) for s in data["spans"])
        self.calls.update(data["calls"])


def self_seconds(span: Span, children: List[Span]) -> float:
    """Span duration minus the part of it that child spans cover.

    Children may run on other threads and overlap each other; the covered
    part is the union of their intervals clipped to the span.
    """
    clipped = [
        (max(c.t0, span.t0), min(c.t1, span.t1))
        for c in children
        if c.t1 > span.t0 and c.t0 < span.t1
    ]
    return max(0.0, span.seconds - union_length(clipped))


def children_index(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    index: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent, []).append(span)
    return index

"""Span tracer for the traced benchmark run.

The wrappers are installed from this file onto the public functions and
methods of each layer module of ``phasenu``; nothing inside the package is
edited, and ``restore`` puts every original back.  A wrapped call opens a
span only where it crosses from one layer into another (or from the
benchmark into a layer).  Calls that stay inside a layer are counted but
not timed: their time belongs to the enclosing span of the same layer, and
timing every small ``Poly`` operation inside ``numeric`` would multiply the
number of spans without changing any layer's self time.

Spans hold a name, a start, an end and the index of their parent span.
They stay in memory in flat arrays and are written out once, at the end of
the run, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import enum
import functools
import gzip
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

#: Modules of ``src/phasenu`` that count as layers, in call order.
LAYERS = ("cli", "nu", "numeric", "hydrogen", "oracle", "opspace", "acceptance")

#: The benchmark's own code, which opens one span around every op.
BENCH = "bench"

#: Special methods wrapped besides the public ones: construction, calls and
#: the arithmetic of ``numeric.Poly`` are where the solver does its work.
_DUNDERS = frozenset(
    ("__init__", "__call__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__")
)

#: Public methods left unwrapped: ``Poly.coefficient`` only reads a stored
#: tuple, is called about ten times per Poly operation, and wrapping it
#: would double the traced run's overhead without adding a useful count.
_ACCESSORS = frozenset(("coefficient",))


class Tracer:
    """In-memory spans and per-function call counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.returns: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._stack_layer = [""]

    def name_id(self, name: str, layer: str) -> int:
        key = self._ids.get(name)
        if key is None:
            key = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
            self.returns.append(0)
        return key

    def wrap(self, fn: Callable, name: str, layer: str, timed: bool = False) -> Callable:
        """Count every call; open a span where the call enters ``layer``
        from outside it, or on every call when ``timed``."""
        key = self.name_id(name, layer)
        calls, returns = self.calls, self.returns
        stack, stack_layer = self._stack, self._stack_layer
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if not timed and stack_layer[-1] == layer:
                result = fn(*args, **kwargs)
                returns[key] += 1
                return result
            idx = len(span_start)
            span_name.append(key)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            stack_layer.append(layer)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
                stack_layer.pop()
            returns[key] += 1
            return result

        return wrapper

    @contextmanager
    def span(self, name: str, layer: str = BENCH) -> Iterator[None]:
        """A span opened by the benchmark itself, such as one op."""
        key = self.name_id(name, layer)
        self.calls[key] += 1
        idx = len(self.span_start)
        self.span_name.append(key)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._stack_layer.append(layer)
        self.span_start.append(perf_counter())
        try:
            yield
        finally:
            self.span_end[idx] = perf_counter()
            self._stack.pop()
            self._stack_layer.pop()
        self.returns[key] += 1

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Self seconds per layer over spans ``lo``..``hi - 1``.

        A span's self time is its duration minus the durations of its
        direct children; the spans of one window nest inside the window.
        """
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            parent = self.span_parent[i]
            if parent >= lo:
                child[parent - lo] += self.span_end[i] - self.span_start[i]
        out: dict[str, float] = {}
        for i in range(lo, hi):
            layer = self.layer_of[self.span_name[i]]
            own = self.span_end[i] - self.span_start[i] - child[i - lo]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def durations(self, name: str, lo: int, hi: int) -> list[float]:
        key = self._ids.get(name)
        return [
            self.span_end[i] - self.span_start[i]
            for i in range(lo, hi)
            if self.span_name[i] == key
        ]

    def write(self, path: str) -> None:
        """All spans as gzip'd tab-separated rows, start and end in seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )


def install(tracer: Tracer, timed: frozenset[str] = frozenset()) -> Callable[[], None]:
    """Wrap every public function and method of the layer modules.

    The functions named in ``timed`` open a span on every call, so their
    latency is measured whichever layer calls them.

    Every binding of a wrapped function in the package's namespaces (a
    ``from .x import f`` in another module, the package's re-exports, and
    module-level registries such as ``acceptance.CRITERIA``) is pointed at
    the wrapper, so calls between modules are seen as well.  Returns the
    function that undoes all of it.
    """
    undo: list[tuple[object, str, object]] = []
    wrapped: dict[Callable, Callable] = {}
    for layer in LAYERS:
        module = sys.modules[f"phasenu.{layer}"]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                name = f"{layer}.{attr}"
                wrapped[value] = tracer.wrap(value, name, layer, name in timed)
            elif inspect.isclass(value) and not issubclass(value, enum.Enum):
                for meth, fn in list(vars(value).items()):
                    public = not meth.startswith("_") and meth not in _ACCESSORS
                    if inspect.isfunction(fn) and (public or meth in _DUNDERS):
                        undo.append((value, meth, fn))
                        name = f"{layer}.{attr}.{meth}"
                        setattr(value, meth, tracer.wrap(fn, name, layer, name in timed))
    for name, module in list(sys.modules.items()):
        if name != "phasenu" and not name.startswith("phasenu."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrapped:
                undo.append((module, attr, value))
                setattr(module, attr, wrapped[value])
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if callable(v) and v in wrapped:
                        undo.append((value, k, v))
                        value[k] = wrapped[v]

    def restore() -> None:
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    return restore

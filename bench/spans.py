"""Spans around the calls into each epiqubo layer, recorded from outside the
package.

The package itself is not edited.  ``install`` wraps every public function
of each layer module (defined there, name without a leading underscore) and
replaces every reference to the original in the loaded ``epiqubo`` modules,
so calls made through ``from .x import y`` bindings are seen too.  ``restore`` puts the originals back.  Work done in
methods (for example building a ``QuboProblem``) counts towards the layer of
the function that called it.

Spans are kept in memory on one stack shared by all threads.  That is
exact while one thread at a time runs traced code, which is why traced
``batch`` passes use one job; a span closed out of order is recorded in
``Tracer.interleaved`` so the self-time check can refuse the pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager

PACKAGE = "epiqubo"
LAYERS = ("cli", "controller", "qubo", "solvers", "epinet", "dataio")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "info")

    def __init__(self, name: str, layer: str, parent: int) -> None:
        self.name = name
        self.layer = layer
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.info = None

    def record(self) -> list:
        return [self.name, self.layer, self.start, self.end, self.parent, self.info]


class Tracer:
    """In-memory span recorder; see the module docstring for its limits."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.interleaved = False
        self._stack: list[int] = []
        self._lock = threading.Lock()

    def open(self, name: str, layer: str) -> int:
        with self._lock:
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(Span(name, layer, parent))
            self._stack.append(index)
        self.spans[index].start = self.clock()
        return index

    def close(self, index: int) -> None:
        end = self.clock()
        with self._lock:
            self.spans[index].end = end
            if self._stack and self._stack[-1] == index:
                self._stack.pop()
            else:
                self._stack.remove(index)
                self.interleaved = True

    @contextmanager
    def span(self, name: str, layer: str):
        index = self.open(name, layer)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, fn, name: str, layer: str, observe=None):
        """Wrap ``fn`` in a span; ``observe(result)`` may attach counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                try:
                    self.spans[index].info = observe(result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    self.spans[index].info = {"observe_error": repr(exc)}
            return result

        return wrapper

    def records(self) -> list[list]:
        return [s.record() for s in self.spans]


def _package_modules() -> dict[str, object]:
    return {
        name: module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def _layer_functions(modules: dict) -> dict[str, list[str]]:
    """Names of the public functions of each layer module."""
    out: dict[str, list[str]] = {}
    for layer in LAYERS:
        module = modules.get(f"{PACKAGE}.{layer}")
        if module is None:
            continue
        out[layer] = [
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ]
    return out


def install(tracer: Tracer, observers: dict | None = None):
    """Wrap the layer functions; returns ``(restore, span_names)``.

    Span names are ``<layer>.<function>``.  ``observers`` maps a span name
    to a callable applied to the function's result.
    """
    observers = observers or {}
    modules = _package_modules()
    wrappers = {}
    for layer, names in _layer_functions(modules).items():
        module = modules[f"{PACKAGE}.{layer}"]
        for name in names:
            fn = getattr(module, name)
            span_name = f"{layer}.{name}"
            wrappers[fn] = (tracer.wrap(fn, span_name, layer, observers.get(span_name)), span_name)
    patched = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value][0])
                patched.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)

    return restore, sorted(span_name for _, span_name in wrappers.values())

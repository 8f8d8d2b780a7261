"""Every exported name resolves, so a moved or removed one cannot linger;
and every function the benchmark times exists under the name it times."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import epiqubo

MODULES = ["epiqubo", *(f"epiqubo.{info.name}" for info in pkgutil.iter_modules(epiqubo.__path__))]
BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_timed_span_names_a_public_layer_function(monkeypatch):
    # bench/run.py imports its sibling modules by name, so the bench directory
    # goes on the path first, as in bench/test_bench_arith.py; a span
    # ``<layer>.<name>`` is recorded only around a public function of
    # ``epiqubo.<layer>`` defined there (see bench/spans.py)
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    missing = []
    for metric, spans in run.TIMED.items():
        for span in spans:
            layer, name = span.split(".")
            module = importlib.import_module(f"epiqubo.{layer}")
            fn = getattr(module, name, None)
            public = not name.startswith("_") and inspect.isfunction(fn)
            if not public or fn.__module__ != module.__name__:
                missing.append((metric, span))
    assert missing == []


def test_every_package_export_is_exported_by_its_defining_module():
    # a name the package re-exports is public in the module that defines it too
    unlisted = []
    for name in epiqubo.__all__:
        module = importlib.import_module(getattr(epiqubo, name).__module__)
        if name not in module.__all__:
            unlisted.append(f"{module.__name__}.{name}")
    assert unlisted == []

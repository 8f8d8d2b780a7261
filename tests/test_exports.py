"""Every exported name resolves, so a moved or removed one cannot linger;
every function the benchmark times exists under the name it times; and
every exported function has a caller in the package or the benchmark."""

from __future__ import annotations

import ast
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


def _referenced_names(path: Path) -> set[str]:
    """Names that ``path``'s code uses: bare names, attributes and imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_exported_function_has_a_caller_outside_the_tests():
    # a public function that only tests call is surface the system never uses
    package = Path(epiqubo.__file__).parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in BENCH.glob("*.py") if not p.name.startswith("test_")]
    used = set().union(*map(_referenced_names, sources))
    unused = []
    for module_name in MODULES[1:]:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            if inspect.isfunction(getattr(module, name)) and name not in used:
                unused.append(f"{module_name}.{name}")
    assert unused == []

"""Every exported name resolves, so a moved or removed one cannot linger."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import epiqubo

MODULES = ["epiqubo", *(f"epiqubo.{info.name}" for info in pkgutil.iter_modules(epiqubo.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []

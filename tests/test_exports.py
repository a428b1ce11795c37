"""Every name a public __all__ promises can be imported."""

import importlib
import pkgutil

import pytest

import grushin

MODULES = ["grushin"] + sorted(
    info.name for info in pkgutil.walk_packages(grushin.__path__, "grushin."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []

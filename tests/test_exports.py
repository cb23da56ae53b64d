"""Export lists: every advertised name must resolve."""

import importlib

import pytest

MODULES = ("basis", "bridge", "weight", "operators", "moduli", "experiments", "reporting", "cli")


@pytest.mark.parametrize("module", [f"singbern.{m}" for m in MODULES] + ["singbern"])
def test_star_import_resolves(module):
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = getattr(importlib.import_module(module), "__all__", [])
    assert set(exported) <= set(namespace)
    # a name cut from its defining module's __all__ must not live on in the package's
    if module == "singbern":
        assert [n for n in exported
                if n not in importlib.import_module(namespace[n].__module__).__all__] == []

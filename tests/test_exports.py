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


# The traced benchmark wraps these functions by name, each a plain function
# in its defining module's __all__, and reports null for the metrics of any
# that is missing.
TRACED = (
    "basis.basis_matrix", "basis.ksum",
    "operators.collocation_matrix", "operators.bernstein_apply", "operators.build_surrogate",
    "moduli.ladder_band_sups",
    "experiments.check_direct", "experiments.check_inverse", "experiments.run_function_sweep",
)


@pytest.mark.parametrize("qualified", TRACED)
def test_traced_names_are_exported_plain_functions(qualified):
    import inspect

    module, name = qualified.split(".")
    module = importlib.import_module(f"singbern.{module}")
    fn = getattr(module, name)
    assert name in module.__all__
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__

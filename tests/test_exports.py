"""Each module's ``__all__`` lists exactly what exists among its public definitions."""

import importlib
import inspect
import pkgutil

import pytest

import fabcp

_MODULES = [importlib.import_module(f"fabcp.{info.name}") for info in pkgutil.iter_modules(fabcp.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in _MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_every_public_definition(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    defined = {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []

import importlib
import pkgutil

import pytest

import polydet

MODULES = [polydet] + [
    importlib.import_module(f"polydet.{info.name}") for info in pkgutil.iter_modules(polydet.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(module, name)] == []

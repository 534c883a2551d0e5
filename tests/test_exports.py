import importlib
import pkgutil

import pytest

import delaybsde

MODULES = ["delaybsde"] + [
    f"delaybsde.{info.name}" for info in pkgutil.iter_modules(delaybsde.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale name in __all__ breaks `from <module> import *`
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


import importlib
import pkgutil

import pytest

import deepckit

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(deepckit.__path__, "deepckit.")
)


@pytest.mark.parametrize("name", ["deepckit", *MODULES])
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks ``from <module> import *``
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names {missing}"

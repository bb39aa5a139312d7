import importlib
import pkgutil

import pytest

import targetkit

# __main__ runs the command line when imported, so it is not a library module
MODULES = ["targetkit"] + [
    f"targetkit.{info.name}" for info in pkgutil.iter_modules(targetkit.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)

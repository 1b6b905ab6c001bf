import importlib
import pkgutil

import pytest

import fredstab

EXPORTING = [
    module for module in (importlib.import_module(f"fredstab.{m.name}")
                          for m in pkgutil.iter_modules(fredstab.__path__))
    if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = module.__all__
    assert len(names) == len(set(names)), f"duplicate names in {module.__name__}.__all__"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"

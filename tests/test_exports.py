import importlib
import pkgutil

import permatch


def test_every_module_all_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from permatch.<module> import *`
    names = [info.name for info in pkgutil.iter_modules(permatch.__path__)]
    assert names  # the walk found the package's modules
    for name in names:
        module = importlib.import_module(f"permatch.{name}")
        exported = module.__all__
        assert len(set(exported)) == len(exported), name
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, f"permatch.{name}.__all__ names missing attributes: {missing}"


def test_package_exposes_every_module_all_but_cli():
    # the package surface is its modules' public names, so the two cannot drift
    names = [info.name for info in pkgutil.iter_modules(permatch.__path__) if info.name != "cli"]
    for name in names:
        module = importlib.import_module(f"permatch.{name}")
        missing = [attr for attr in module.__all__ if getattr(permatch, attr, None) is not getattr(module, attr)]
        assert not missing, f"permatch lacks permatch.{name}.__all__ names: {missing}"

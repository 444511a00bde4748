"""Every annotation in the package resolves to a name its module can see,
and every dataclass in it is frozen."""
import dataclasses
import importlib
import inspect
import pkgutil
import typing

import pytest

import membrane

MODULES = [importlib.import_module(f"membrane.{m.name}") for m in pkgutil.iter_modules(membrane.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_type_hints_resolve(module):
    own = [obj for obj in vars(module).values()
           if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ == module.__name__]
    assert own
    for obj in own:
        typing.get_type_hints(obj)
        if inspect.isclass(obj):
            for member in vars(obj).values():
                if inspect.isfunction(member):
                    typing.get_type_hints(member)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_dataclass_is_frozen(module):
    # what a run builds is a value: no field of it can be rebound
    for obj in vars(module).values():
        if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
            assert obj.__dataclass_params__.frozen, obj.__qualname__

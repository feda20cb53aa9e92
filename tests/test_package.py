import importlib
import inspect
import typing

import pytest

import mforge


def test_every_export_is_its_submodule_object():
    for name in mforge.__all__:
        module = importlib.import_module(f"mforge.{mforge._SUBMODULE[name]}")
        assert getattr(mforge, name) is getattr(module, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from mforge import *", namespace)
    assert set(mforge.__all__) <= set(namespace)


def test_dir_lists_every_export():
    assert set(mforge.__all__) <= set(dir(mforge))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mforge.no_such_name
    assert not hasattr(mforge, "__no_such_dunder__")


def test_every_export_resolves_its_annotations():
    # get_type_hints evaluates each string annotation in its module: a name
    # the module never imports raises NameError
    for name in mforge.__all__:
        obj = getattr(mforge, name)
        if not callable(obj):
            continue
        targets = [obj]
        if isinstance(obj, type):
            for _, member in inspect.getmembers(obj):
                if isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member) or inspect.ismethod(member):
                    targets.append(member)
        for target in targets:
            typing.get_type_hints(target)

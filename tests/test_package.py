import ast
import importlib
import inspect
import typing
from pathlib import Path

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


def _unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads, anywhere in it."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read)


def test_no_module_imports_a_name_it_never_uses():
    # a refactor that deletes the last use of a name should delete its import too
    assert _unused_imports("from x import a, b as c\nimport os.path\nprint(a)") == ["c", "os"]
    unused = {path.name: names for path in Path(mforge.__file__).parent.glob("*.py")
              if (names := _unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}

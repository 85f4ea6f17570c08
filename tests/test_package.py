"""The package's public names, resolved on first use (PEP 562), and its
modules' imports."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import fia

from helpers import child_env


@pytest.mark.parametrize("name", fia.__all__)
def test_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"fia.{fia._HOMES[name]}")
    obj = getattr(fia, name)
    assert obj is getattr(home, name)
    assert obj.__module__ == home.__name__
    assert name in dir(fia)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fia import *", namespace)
    for name in fia.__all__:
        assert namespace[name] is getattr(fia, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fia.no_such_name
    assert not hasattr(fia, "no_such_name")
    # Every ring is a field, so there is no ZZ.
    with pytest.raises(AttributeError, match="ZZ"):
        fia.ZZ
    assert "ZZ" not in fia.__all__


def test_bare_import_loads_no_submodule():
    code = "import sys, fia; print(*sorted(m for m in sys.modules if 'fia' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
    )
    assert proc.stdout == "fia\n"


def test_every_module_uses_each_name_it_imports():
    # A module-level import that nothing in its module reads is dead code;
    # from __future__ imports are compiler directives, not names.
    unused = {}
    for path in sorted(Path(fia.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}

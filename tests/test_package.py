"""The package's public names, resolved on first use (PEP 562)."""

import importlib
import subprocess
import sys

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

"""The committed mutants still apply: each old text occurs exactly once.

Running the mutants themselves takes python3 tests/mutants.py; this only
keeps the table in step with the code, and each test it names in step
with the test files.
"""

import re

import pytest

from mutants import MUTANTS, ROOT, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_still_applies(mutant):
    assert (SRC / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    for test in mutant.tests:
        path, name = test.split("::")
        name = re.sub(r"\[.*\]$", "", name)
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), test

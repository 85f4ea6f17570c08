"""The committed mutants still apply: each old text occurs exactly once.

Running the mutants themselves takes python3 tests/mutants.py; this only
keeps the table in step with the code, and each test it names in step
with the test files, and checks how the runner reads a JUnit report.
"""

import re

import pytest

from mutants import MUTANTS, ROOT, SRC, _read_report


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_still_applies(mutant):
    assert (SRC / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    for test in mutant.tests:
        path, name = test.split("::")
        name = re.sub(r"\[.*\]$", "", name)
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), test


def test_report_names_a_module_that_failed_to_collect(tmp_path):
    # pytest stops at a collection error, so the tests asked for are not
    # run; the report says which module failed, and why.
    report = tmp_path / "report.xml"
    report.write_text(
        '<testsuites><testsuite name="pytest">'
        '<testcase classname="" name="tests.test_cli">'
        '<error message="collection failure">tests/test_cli.py:9: in &lt;module&gt;\n'
        "E   FileNotFoundError: README.md</error>"
        "</testcase></testsuite></testsuites>",
        encoding="utf-8",
    )
    why = _read_report(report, ["tests/test_cli.py::test_help_text_is_pinned"])
    assert why == (
        "tests not run: ['tests/test_cli.py::test_help_text_is_pinned'];"
        " tests.test_cli: collection failure: FileNotFoundError: README.md"
    )

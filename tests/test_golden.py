"""Every CLI verb's stdout bytes and exit code on a small fixed catalogue.

tests/golden holds the 2-chain, the 3-chain and the crown, and maps on
them: derivations (*.der), the near-misses that add 1 at the first row
of a derivation's last column (*.miss), patchwork maps that take one
derivation's columns up to the middle and another's after (*.patch),
the non-cocycle diagonal map of chain3, maps that each break one lemma
check (chain3.q.sign, .restriction, .subset and chain2.q.idempotent)
and random maps over zp:2 and zp:3.  The sparse zp:2 map fails
restriction on its first sample, and at seed 5 its subset-rule verdict
depends on which masks are drawn after that.  expected.json holds the
exit code and stdout of every command below in both output formats.
Rewrite it, only when a report is meant to change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from fia.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected.json"
POSETS = ("chain2", "chain3", "crown")
RINGS = ("q", "zp:2", "zp:3")
FORMATS = ("json", "text")
SEEDS = ("0", "5")


def _maps():
    for path in sorted(GOLDEN.glob("*.json")):
        if path != EXPECTED:
            yield path.name.split(".")[0] + ".poset", path.name


def commands():
    """Every command, without --format, by verb."""
    maps = list(_maps())
    return {
        "poset check": [["poset", "check", f"{p}.poset"] for p in POSETS],
        "der basis": [
            ["der", "basis", f"{p}.poset", "--ring", r] for p in POSETS for r in RINGS
        ],
        "der h1": [
            ["der", "h1", f"{p}.poset", "--ring", r] for p in POSETS for r in RINGS
        ],
        "der decompose": [["der", "decompose", p, m] for p, m in maps],
        "locder verify": [
            ["locder", "verify", p, m, "--mode", "spanning", "--seed", "5"]
            for p, m in maps
        ]
        + [["locder", "verify", p, m] for p, m in maps if ".zp" in m]
        + [
            ["locder", "verify", "chain3.poset", "chain3.q.der.json"],
        ],
        "locder lemmas": [
            ["locder", "lemmas", p, m, "--seed", s] for p, m in maps for s in SEEDS
        ],
        "theorem enumerate": [
            ["theorem", "enumerate", f"{p}.poset", "--ring", r]
            for p in POSETS
            for r in ("zp:2", "zp:3")
        ]
        + [["theorem", "enumerate", "chain2.poset", "--ring", "q"]],
        "theorem random": [
            ["theorem", "random", f"{p}.poset", "--ring", r, "--trials", "3",
             "--seed", s]
            for p in POSETS
            for r in RINGS
            for s in SEEDS
        ],
    }


def record(argv, read_stdout):
    code = run(argv)
    return {"argv": argv, "exit": code, "stdout": read_stdout()}


def _expected():
    with open(EXPECTED, encoding="utf-8") as handle:
        return {" ".join(case["argv"]): case for case in json.load(handle)}


@pytest.mark.parametrize("verb", sorted(commands()))
def test_reports_match_the_golden_bytes(verb, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = _expected()
    for argv in commands()[verb]:
        for fmt in FORMATS:
            full = argv + ["--format", fmt]
            got = record(full, lambda: capsys.readouterr().out)
            assert got == expected[" ".join(full)]


def test_golden_file_lists_exactly_the_commands():
    # In the order the writer below records them, so a rewrite moves only
    # the entries whose bytes change.
    want = [
        argv + ["--format", fmt]
        for argvs in commands().values()
        for argv in argvs
        for fmt in FORMATS
    ]
    with open(EXPECTED, encoding="utf-8") as handle:
        assert [case["argv"] for case in json.load(handle)] == want


if __name__ == "__main__":
    import contextlib
    import io
    import os

    def drain():
        out = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        return out

    os.chdir(GOLDEN)
    buffer = io.StringIO()
    cases = []
    with contextlib.redirect_stdout(buffer):
        for argvs in commands().values():
            for argv in argvs:
                for fmt in FORMATS:
                    cases.append(record(argv + ["--format", fmt], drain))
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(cases, handle, indent=1, sort_keys=True)
        handle.write("\n")

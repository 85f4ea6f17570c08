"""Committed mutants of the verdict paths, and a runner that must see each killed.

Each mutant names a file under src/fia, an exact old text that must occur
there exactly once, its replacement, and the tests that must fail once
the replacement is made.  The runner copies src/, tests/ and
pyproject.toml to a temporary directory, applies one mutant to the copy,
runs that mutant's tests there and reads their outcomes from a JUnit XML
report.  The same tests first run once on an unmutated copy, where all
must pass, so a failure is the mutant's doing.  The mutants then run on
os.cpu_count() worker threads, each in its own copy and pytest process,
and are reported in table order.  It exits 1 if any mutant
survives (one of its tests passes) or cannot be applied, and 0 when every
mutant is killed:

    python3 tests/mutants.py

pytest does not collect this file; tests/test_mutants.py checks in tier-1
that every old text still occurs exactly once, so a refactor has to
carry its mutants along.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fia"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


# The two-unit probes of T(P), and the test that each T(P) kind is needed.
_CORNERS = "yield from ((xx, yy), (xx, xy), (xy, yy))"
_LEIBNIZ = ("tests/test_locder.py::test_local_dimension_matches_leibniz_oracle",)
# The exhaustive scan of d's residue against a solver-free scan of d.
_RESIDUE = (
    "tests/test_locder.py::test_exhaustive_scan_of_the_residue_matches_a_solver_free_scan",
)

MUTANTS = (
    Mutant(
        "campaign scans unit probes only",
        "locder.py",
        "enumerate(_t_p_spans(poset, ring), 1)",
        "enumerate(((p, w) for p, w in _t_p_spans(poset, ring) if len(p) == 1), 1)",
        ("tests/test_locder.py::test_random_campaign_rejects_patchworks_that_pass_every_unit",),
    ),
    Mutant(
        "_derivation_rref drops the D_sigma rows",
        "deriv.py",
        "rows = chain(_commutator_rows(poset, ring), diagonal_maps)",
        "rows = _commutator_rows(poset, ring)",
        (
            "tests/test_deriv.py::test_dimensions_match_the_order_complex",
            "tests/test_deriv.py::test_h1_crown_has_outer_derivation",
        ),
    ),
    Mutant(
        "_linalg pivots on the smallest variable",
        "_linalg.py",
        "lead = max(row)",
        "lead = min(row)",
        (
            "tests/test_deriv.py::test_add_row_counts_rank_and_matches_rref_pivots",
            "tests/test_deriv.py::test_bases_match_oracles_on_chains_diamond_and_crown",
        ),
    ),
    Mutant(
        "_split flips the sign of sigma",
        "deriv.py",
        "sigma[(u, v)] = s",
        "sigma[(u, v)] = ring.neg(s)",
        (
            "tests/test_deriv.py::test_decompose_recovers_exact_parts",
            "tests/test_deriv.py::test_decompose_moves_diagonal_into_sigma",
        ),
    ),
    Mutant(
        "_commutator_rows skips the cancellation at u = v = x = y",
        "deriv.py",
        "if row.pop(var, None) is None:\n                row[var] = minus_one",
        "row[var] = minus_one",
        (
            "tests/test_deriv.py::test_bases_match_oracles_on_chains_diamond_and_crown",
            "tests/test_deriv.py::test_inner_dimension_counts_center",
        ),
    ),
    Mutant(
        "CoeffRing.__reduce__ removed",
        "scalars.py",
        "    def __reduce__(self):\n",
        "    def _unused_reduce(self):\n",
        ("tests/test_scalars.py::test_rings_elements_and_maps_pickle_and_deepcopy",),
    ),
    Mutant(
        "enumerate ignores the interpreter's digit limit",
        "locder.py",
        'digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()',
        "digits = 4300",
        (
            "tests/test_cli.py::test_theorem_enumerate_refuses_by_the_interpreters_digit_limit",
        ),
    ),
    Mutant(
        "enumerate admits a count one digit above the limit",
        "locder.py",
        "n * n * log10(prime) >= digits:",
        "n * n * log10(prime) >= digits + 1:",
        ("tests/test_locder.py::test_enumerate_endo_cap",),
    ),
    Mutant(
        "verify refuses a family at the probe cap",
        "locder.py",
        "if total > PROBE_CAP:",
        "if total >= PROBE_CAP:",
        (
            "tests/test_locder.py::test_exhaustive_probe_cap",
            "tests/test_cli.py::test_scalar_caps_admit_their_bound[probe]",
        ),
    ),
    Mutant(
        "the campaign refuses trials at the scalar cap",
        "locder.py",
        "if trials * max(n * n, 16) > CAMPAIGN_SCALAR_CAP:",
        "if trials * max(n * n, 16) >= CAMPAIGN_SCALAR_CAP:",
        ("tests/test_cli.py::test_scalar_caps_admit_their_bound[campaign]",),
    ),
    Mutant(
        "an unrecognized option is skipped",
        "cli.py",
        "unknown.append(token)\n            continue",
        "continue",
        (
            "tests/test_cli.py::test_usage_error_is_one_usage_and_one_error_line[unknown option]",
            "tests/test_cli.py::test_verb_parses_to_its_defaults[poset check]",
        ),
    ),
    Mutant(
        "--trials accepts 0",
        "cli.py",
        "if value < 1:",
        "if value < 0:",
        (
            "tests/test_cli.py::test_usage_error_is_one_usage_and_one_error_line[zero trials]",
            "tests/test_cli.py::test_theorem_random_trials_must_be_positive",
        ),
    ),
    Mutant(
        "QQ is rebuilt on every access",
        "scalars.py",
        'ring = globals().setdefault("QQ", CoeffRing("q"))',
        'ring = CoeffRing("q")',
        ("tests/test_scalars.py::test_qq_is_one_object_made_on_first_use",),
    ),
    Mutant(
        "der basis refuses a basis at the scalar cap",
        "cli.py",
        "if scalars > BASIS_SCALAR_CAP:",
        "if scalars >= BASIS_SCALAR_CAP:",
        ("tests/test_cli.py::test_scalar_caps_admit_their_bound[basis]",),
    ),
    Mutant(
        "Poset refuses a poset at the size cap",
        "poset.py",
        "if len(elements) > SIZE_CAP:",
        "if len(elements) >= SIZE_CAP:",
        ("tests/test_poset.py::test_size_cap",),
    ),
    Mutant(
        "random_poset refuses n at the size cap",
        "poset.py",
        "if not 0 <= n <= SIZE_CAP:",
        "if not 0 <= n < SIZE_CAP:",
        ("tests/test_poset.py::test_size_cap",),
    ),
    Mutant(
        "CoeffRing refuses the largest prime below the modulus cap",
        "scalars.py",
        "2 <= p < MAX_MODULUS:",
        "2 <= p < MAX_MODULUS - 1:",
        ("tests/test_scalars.py::test_ring_constructor_validation",),
    ),
    Mutant(
        "is_derivation skips the cocycle test",
        "deriv.py",
        "return next(off_diagonal, None) is None and is_cocycle(sigma)",
        "return next(off_diagonal, None) is None",
        ("tests/test_deriv.py::test_cocycle_iff_diagonal_map_is_derivation",),
    ),
    Mutant(
        "_split skips the last column",
        "deriv.py",
        "for c, (u, v) in enumerate(ipairs):",
        "for c, (u, v) in enumerate(ipairs[:-1]):",
        ("tests/test_deriv.py::test_is_derivation_agrees_with_convolve_leibniz",),
    ),
    Mutant(
        "every strict relation is taken as a cover",
        "poset.py",
        "icovers.extend((i, j) for j in _bits(strict[i] & ~twostep))",
        "icovers.extend((i, j) for j in _bits(strict[i]))",
        ("tests/test_poset.py::test_transitive_closure_and_reduction",),
    ),
    Mutant(
        "witness_for reads Der's rows, not its caller's basis",
        "locder.py",
        "rows = [_endo_row(m) for m in (d, *der_basis)]",
        "rows = [_endo_row(d), *_derivation_rref(poset, ring).values()]",
        ("tests/test_locder.py::test_witness_for_against_enumeration_over_gf3",),
    ),
    Mutant(
        "witness tags sit above the pair variables",
        "locder.py",
        "img[-1 - k] = ring.one",
        "img[n + k] = ring.one",
        ("tests/test_locder.py::test_witness_for_against_enumeration_over_gf3",),
    ),
    Mutant(
        "the residue drops one entry",
        "locder.py",
        "rows = [_linalg.reduce_vector(_endo_row(d), der, ring), *der.values()]",
        "rows = [dict(list(_linalg.reduce_vector(_endo_row(d), der, ring).items())[1:]),"
        " *der.values()]",
        _RESIDUE,
    ),
    Mutant(
        "_residual returns early on a one-entry image",
        "locder.py",
        "if not target:",
        "if len(target) <= 1:",
        _RESIDUE,
    ),
    Mutant(
        "a unit probe's support loses a pair",
        "locder.py",
        "supports[probe[0]] = w_a.keys()",
        "supports[probe[0]] = sorted(w_a)[1:]",
        _LEIBNIZ,
    ),
    Mutant(
        "non-unit rows keep entries outside S_c",
        "locder.py",
        "for c in probe for r in y if r in supports[c]}",
        "for c in probe for r in y}",
        _LEIBNIZ,
    ),
    Mutant(
        "T(P) spans read only the first unit's column",
        "locder.py",
        "for c in probe:\n            for k, r, v in by_column[c]:",
        "for c in probe[:1]:\n            for k, r, v in by_column[c]:",
        _LEIBNIZ,
    ),
    Mutant(
        "T(P) spans keep zero images",
        "locder.py",
        "{r: v for r, v in image.items() if v} for image",
        "image for image",
        _LEIBNIZ,
    ),
    Mutant(
        "T(P) drops the units",
        "locder.py",
        "yield from ((t,) for t in range(poset.npairs))",
        "yield from ()",
        _LEIBNIZ,
    ),
    Mutant(
        "T(P) drops the point sums e_x + e_y",
        "locder.py",
        _CORNERS,
        "yield from ((xx, xy), (xy, yy))",
        _LEIBNIZ,
    ),
    Mutant(
        "T(P) drops the corners e_x + e_xy and e_xy + e_y",
        "locder.py",
        _CORNERS,
        "yield from ((xx, yy),)",
        _LEIBNIZ,
    ),
    Mutant(
        "T(P) drops the chain idempotents",
        "locder.py",
        "yield pos(x, y), pos(x, z), pos(y, y), pos(y, z)",
        "continue",
        _LEIBNIZ,
    ),
)


def _outcomes(report: Path) -> dict[str, bool]:
    """{test id: passed} from a JUnit XML report of a run at the copy's root."""
    passed = {}
    for case in ET.parse(report).iter("testcase"):
        path = case.get("classname", "").replace(".", "/") + ".py"
        failed = any(child.tag in ("failure", "error") for child in case)
        passed[f"{path}::{case.get('name')}"] = not failed
    return passed


def _run(tests, mutant: Mutant | None = None) -> dict[str, bool] | str:
    """{test id: passed} on a copy of the tree, mutated if given, or why not."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            target = copy / "src" / "fia" / mutant.file
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                return f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        report = copy / "report.xml"
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--junitxml={report}", *tests],
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        if not report.exists():
            return "pytest wrote no report"
        outcomes = _outcomes(report)
        missing = [t for t in tests if t not in outcomes]
        return f"tests not run: {missing}" if missing else outcomes


def main() -> int:
    tests = sorted({t for mutant in MUTANTS for t in mutant.tests})
    baseline = _run(tests)
    if isinstance(baseline, str) or not all(baseline.values()):
        failing = baseline if isinstance(baseline, str) else [
            t for t, ok in baseline.items() if not ok
        ]
        print(f"unmutated tree fails the mutants' tests: {failing}")
        return 1
    status = 0
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        results = list(pool.map(lambda mutant: _run(mutant.tests, mutant), MUTANTS))
    for mutant, outcomes in zip(MUTANTS, results):
        if isinstance(outcomes, str):
            why = outcomes
        else:
            survivors = [t for t in mutant.tests if outcomes[t]]
            why = f"tests passed: {survivors}" if survivors else None
        print(f"{'killed ' if why is None else 'SURVIVED'}  {mutant.name}")
        if why is not None:
            print(f"          {why}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

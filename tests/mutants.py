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


# The corner probes of T(P), and the test that each T(P) kind is needed.
_CORNERS = (
    "            yield (xx, xy), [\n"
    "                {xx * n + pos(s, x): one, xy * n + pos(s, y): minus}"
    " for s in below[x]\n"
    "            ]\n"
    "            yield (xy, yy), [\n"
    "                {xy * n + pos(x, t): one, yy * n + pos(y, t): minus}"
    " for t in above[y]\n"
    "            ]\n"
)
_LEIBNIZ = ("tests/test_locder.py::test_local_dimension_matches_leibniz_oracle",)
# The exhaustive scan of d's residue against a solver-free scan of d.
_RESIDUE = (
    "tests/test_locder.py::test_exhaustive_scan_of_the_residue_matches_a_solver_free_scan",
)
# Derivations that fail a T(P) patched to reject every nonzero unit image.
_BOTH_WAYS = (
    "tests/test_cli.py::test_derivations_failing_t_p_are_refuted[q]",
    "tests/test_cli.py::test_derivations_failing_t_p_are_refuted[zp:3]",
)

MUTANTS = (
    Mutant(
        "campaign scans unit probes only",
        "locder.py",
        "enumerate(_t_p_conditions(poset, ring), 1)",
        "enumerate(((p, c) for p, c in _t_p_conditions(poset, ring)"
        " if len(p) == 1), 1)",
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
        "a report writes its unset fields",
        "deriv.py",
        "            if value is not None\n",
        "",
        ("tests/test_deriv.py::test_report_json_skips_unset_fields",),
    ),
    Mutant(
        "der basis drops the comma between maps",
        "deriv.py",
        '("," if k else "")',
        '""',
        (
            "tests/test_cli.py::test_der_basis_json_streams_the_dense_payload[q]",
            "tests/test_golden.py::test_reports_match_the_golden_bytes[der basis]",
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
        "the choice check is skipped",
        "cli.py",
        "_choose(words, name, text, kind)",
        "pass",
        (
            "tests/test_cli.py::test_usage_error_is_one_usage_and_one_error_line[bad choice]",
            "tests/test_cli.py::test_usage_error_is_one_usage_and_one_error_line[bad format]",
        ),
    ),
    Mutant(
        "a rejected verdict exits 0",
        "cli.py",
        "report.verdict in (locder.VERDICT_REJECTED, locder.VERDICT_REFUTED)",
        "report.verdict == locder.VERDICT_REFUTED",
        ("tests/test_cli.py::test_locder_verify_bad_map_spanning_exit_1",),
    ),
    Mutant(
        "a non-derivation that passes T(P) reads inconclusive",
        "locder.py",
        "if bool(failures) == is_derivation(d):",
        "if failures and is_derivation(d):",
        ("tests/test_cli.py::test_locder_verify_spanning_refutes_a_map_passing_t_p",),
    ),
    Mutant(
        "spanning verify trusts a failing probe without is_derivation",
        "locder.py",
        "if bool(failures) == is_derivation(d):",
        "if not failures and not is_derivation(d):",
        _BOTH_WAYS,
    ),
    Mutant(
        "the campaign's derivation samples may fail T(P)",
        "locder.py",
        "sorted(failures) == list(range(trials, len(samples)))",
        "all(k in failures for k in range(trials, len(samples)))",
        _BOTH_WAYS,
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
        "_split skips the zero entries that [alpha, .] sets",
        "deriv.py",
        "(got or r in want) and r != c",
        "got and r != c",
        ("tests/test_deriv.py::test_is_derivation_agrees_with_convolve_leibniz",),
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
        "{pos(u, y) for u in below[x]}",
        "{pos(u, y) for u in below[x][1:]}",
        _LEIBNIZ,
    ),
    Mutant(
        "a unit probe's support admits (x, x)",
        "locder.py",
        "support if x == y else support | {pos(x, y)}",
        "support | {pos(x, y)}",
        _LEIBNIZ,
    ),
    # local_dimension reads the same rank with either sign on the census,
    # so the first-failure oracle, which derivations must pass, kills it.
    Mutant(
        "the point-sum row's sign is flipped",
        "locder.py",
        "{xx * n + xy: one, yy * n + xy: one}",
        "{xx * n + xy: one, yy * n + xy: minus}",
        ("tests/test_locder.py::test_t_p_failures_match_the_per_probe_elimination",),
    ),
    Mutant(
        "the corner rows run over s <= x",
        "locder.py",
        "for s in below[x]",
        "for s in below[x] + [x]",
        _LEIBNIZ,
    ),
    Mutant(
        "the chain row reads sigma(x, y) twice",
        "deriv.py",
        "yield {pos(i, k): one, pos(k, j): one, pos(i, j): minus_one}",
        "yield {pos(i, k): one, pos(i, k): one, pos(i, j): minus_one}",
        ("tests/test_locder.py::test_t_p_failures_match_the_per_probe_elimination",),
    ),
    Mutant(
        "T(P) drops the units",
        "locder.py",
        "yield (pos(x, y),), support if x == y else support | {pos(x, y)}",
        "pass",
        _LEIBNIZ,
    ),
    Mutant(
        "T(P) drops the point sums e_x + e_y",
        "locder.py",
        "            yield (xx, yy), [{xx * n + xy: one, yy * n + xy: one}]\n",
        "",
        _LEIBNIZ,
    ),
    Mutant(
        "T(P) drops the corners e_x + e_xy and e_xy + e_y",
        "locder.py",
        _CORNERS,
        "",
        _LEIBNIZ,
    ),
    Mutant(
        "T(P) drops the chain idempotents",
        "locder.py",
        "yield probe, [{t * n + t: v for t, v in row.items()}]",
        "continue",
        _LEIBNIZ,
    ),
)


def _read_report(report: Path, tests) -> dict[str, bool] | str:
    """{test id: passed} from a JUnit XML report of a run at the copy's root,
    or, if one of tests did not run, which ones and every error, such as a
    module that failed to collect, that belongs to no test among them."""
    passed, errors = {}, []
    for case in ET.parse(report).iter("testcase"):
        path = case.get("classname", "").replace(".", "/") + ".py"
        test = f"{path}::{case.get('name')}"
        failed = [child for child in case if child.tag in ("failure", "error")]
        passed[test] = not failed
        for child in failed:
            if child.tag == "error" and test not in tests:
                last = (child.text or "").strip().splitlines()[-1:]
                why = [line.removeprefix("E").strip() for line in last]
                errors.append(": ".join([case.get("name"), child.get("message"), *why]))
    missing = [t for t in tests if t not in passed]
    if missing:
        return "; ".join([f"tests not run: {missing}", *errors])
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
        return _read_report(report, tests)


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

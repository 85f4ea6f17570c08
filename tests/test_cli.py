import errno
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from fia import deriv, locder
from fia.cli import _VERBS, UsageError, parse_args, run
from fia.deriv import derivation_basis, inner, sigma_endo
from fia.fialg import element, element_from_json
from fia.poset import parse_poset, random_poset
from fia.scalars import parse_ring

from helpers import (
    ANTICHAIN2,
    CHAIN2,
    CHAIN3,
    CROWN,
    DIAMOND,
    chain,
    child_env,
    complete_bipartite,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

CHAIN2_TEXT = "elements: a b\na < b\n"
CHAIN3_TEXT = "elements: x y z\nx < y\ny < z\n"


@pytest.fixture
def chain2_file(tmp_path):
    path = tmp_path / "chain2.poset"
    path.write_text(CHAIN2_TEXT)
    return str(path)


@pytest.fixture
def chain3_file(tmp_path):
    path = tmp_path / "chain3.poset"
    path.write_text(CHAIN3_TEXT)
    return str(path)


def chain_file(tmp_path, n):
    path = tmp_path / f"chain{n}.poset"
    path.write_text(chain(n).serialize())
    return str(path)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def good_map_file(tmp_path):
    from fia.scalars import QQ

    alpha = element(CHAIN3, QQ, {("x", "y"): 3, ("y", "z"): -2})
    return write_json(tmp_path, "good.json", inner(alpha).to_json())


@pytest.fixture
def bad_map_file(tmp_path):
    from fia.scalars import QQ

    sigma = element(
        CHAIN3, QQ, {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 0}
    )
    return write_json(tmp_path, "bad.json", sigma_endo(sigma).to_json())


@pytest.fixture
def z2_map_file(tmp_path):
    from fia.scalars import GF

    basis = derivation_basis(CHAIN2, GF(2))
    return write_json(tmp_path, "der2.json", (basis[0] + basis[1]).to_json())


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_poset_check_text(capsys, chain3_file):
    assert run(["poset", "check", chain3_file]) == 0
    out = capsys.readouterr().out
    assert "elements: 3" in out
    assert "pairs: 6" in out
    assert out.endswith("ok\n")


def test_poset_check_json(capsys, chain3_file):
    code, obj, raw = run_json(capsys, ["poset", "check", chain3_file])
    assert code == 0
    assert obj == {"mode": "poset-check", "elements": 3, "covers": 2, "pairs": 6}
    # canonical bytes: sorted keys, no spaces, one trailing newline
    assert raw == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_poset_check_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.poset"
    path.write_text("elements: a a\n")
    assert run(["poset", "check", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_file_is_exit_2(capsys):
    assert run(["poset", "check", "/nonexistent/p.poset"]) == 2
    assert "error:" in capsys.readouterr().err


def test_der_basis_json(capsys, chain3_file):
    code, obj, _ = run_json(capsys, ["der", "basis", chain3_file])
    assert code == 0
    assert obj["dimension"] == 5
    assert obj["ring"] == "q"
    assert len(obj["basis"]) == 5
    assert all(b["poset_hash"] == CHAIN3.digest() for b in obj["basis"])


def test_der_basis_ring_flag(capsys, chain2_file):
    code, obj, _ = run_json(capsys, ["der", "basis", chain2_file, "--ring", "zp:5"])
    assert code == 0
    assert obj["ring"] == "zp:5"
    assert obj["dimension"] == 2


def test_der_basis_z_is_exit_2(capsys, chain2_file):
    assert run(["der", "basis", chain2_file, "--ring", "z"]) == 2
    assert "unknown ring designator 'z'" in capsys.readouterr().err


def test_z_is_refused_where_ring_input_enters(
    capsys, tmp_path, chain3_file, good_map_file
):
    # Every ring is a field; z is refused as a designator, on --ring and
    # in a map's JSON alike, before any verb runs.
    obj = json.loads(Path(good_map_file).read_text())
    z_map = write_json(tmp_path, "z.json", {**obj, "ring": "z"})
    cases = [
        ["der", "basis", chain3_file, "--ring", "z"],
        ["der", "h1", chain3_file, "--ring", "z"],
        ["theorem", "enumerate", chain3_file, "--ring", "z"],
        ["theorem", "random", chain3_file, "--ring", "z"],
        ["der", "decompose", chain3_file, z_map],
        ["locder", "verify", chain3_file, z_map],
        ["locder", "verify", chain3_file, z_map, "--mode", "spanning"],
        ["locder", "lemmas", chain3_file, z_map],
    ]
    for argv in cases:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "error: unknown ring designator 'z'\n", argv


def test_non_canonical_modulus_is_exit_2(capsys, chain2_file):
    assert run(["der", "h1", chain2_file, "--ring", "zp:+7"]) == 2
    assert "bad modulus" in capsys.readouterr().err


def test_der_h1_text(capsys, chain3_file):
    assert run(["der", "h1", chain3_file]) == 0
    out = capsys.readouterr().out
    assert "dim_derivations: 5" in out
    assert "dim_inner: 5" in out
    assert "h1: 0" in out


def test_der_decompose_round_trip(capsys, chain3_file, good_map_file):
    code, obj, _ = run_json(capsys, ["der", "decompose", chain3_file, good_map_file])
    assert code == 0
    assert set(obj) == {"alpha", "sigma", "residual"}
    assert obj["residual"] == 0
    back = element_from_json(CHAIN3, obj["alpha"])
    assert back.coeff("x", "y") == 3


def test_locder_verify_good_map_spanning(capsys, chain3_file, good_map_file):
    code, obj, _ = run_json(
        capsys,
        ["locder", "verify", chain3_file, good_map_file, "--mode", "spanning"],
    )
    assert code == 0
    assert obj["verdict"] == "inconclusive"
    assert obj["mode"] == "spanning"


def test_locder_verify_bad_map_spanning_exit_1(capsys, chain3_file, bad_map_file):
    code, obj, _ = run_json(
        capsys,
        ["locder", "verify", chain3_file, bad_map_file, "--mode", "spanning"],
    )
    assert code == 1
    assert obj["verdict"] == "rejected"
    assert obj["probes_checked"] == 16
    assert element_from_json(CHAIN3, obj["failing_probe"]).coeff("x", "y") == 1


def test_locder_verify_exhaustive_z2(capsys, chain2_file, z2_map_file):
    code, obj, _ = run_json(
        capsys, ["locder", "verify", chain2_file, z2_map_file]
    )
    assert code == 0
    assert obj["verdict"] == "local_derivation"
    assert obj["probes_checked"] == 8


def test_locder_verify_exhaustive_needs_zp(capsys, chain3_file, good_map_file):
    # default mode is exhaustive, which cannot enumerate the rationals
    assert run(["locder", "verify", chain3_file, good_map_file]) == 2
    assert "zp" in capsys.readouterr().err


def test_locder_verify_probe_cap_exit_2(
    capsys, monkeypatch, tmp_path, chain2_file, z2_map_file
):
    # Exhaustive verify refuses the 2-chain's 8 probes above a cap of 4,
    # before any output, rather than cut the family short.
    monkeypatch.setattr("fia.locder.PROBE_CAP", 4)
    assert run(["locder", "verify", chain2_file, z2_map_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 8 exhaustive probes exceed the cap of 4\n"
    # Spanning verify scans T(P), linear in npairs, and has no cap: on 24
    # elements T(P) has 259 probes, where the structured family spanning
    # once probed had about 9.7 M > 2^20.
    poset = random_poset(24, 0.1, 1)
    poset_file = tmp_path / "random24.poset"
    poset_file.write_text(poset.serialize())
    d = derivation_basis(poset, parse_ring("zp:3"))[0]
    der = write_json(tmp_path, "der.json", d.to_json())
    d.cols[-1][0] = (d.cols[-1][0] + 1) % 3
    miss = write_json(tmp_path, "miss.json", d.to_json())
    argv = ["locder", "verify", str(poset_file), der, "--mode", "spanning"]
    code, obj, _ = run_json(capsys, argv)
    assert (code, obj["verdict"], obj["probes_checked"]) == (0, "inconclusive", 259)
    argv[3] = miss
    code, obj, _ = run_json(capsys, argv)
    assert (code, obj["verdict"]) == (1, "rejected")


def test_locder_verify_spanning_refutes_a_map_passing_t_p(capsys, monkeypatch):
    # A non-derivation that passes every probe of T(P) contradicts the
    # proof in locder._t_p_conditions.  With T(P) emptied every map passes,
    # so a near-miss is REFUTED (exit 1) and a derivation stays inconclusive.
    monkeypatch.setattr(locder, "_t_p_conditions", lambda poset, ring: iter(()))
    poset = str(GOLDEN / "chain3.poset")
    for name, code, verdict in (
        ("chain3.q.patch.json", 1, "REFUTED"),
        ("chain3.zp3.miss.json", 1, "REFUTED"),
        ("chain3.q.der.json", 0, "inconclusive"),
    ):
        argv = ["locder", "verify", poset, str(GOLDEN / name), "--mode", "spanning"]
        assert run(argv) == code, name
        out = capsys.readouterr().out
        assert out.endswith(f"verdict: {verdict}\nprobes_checked: 0\n"), name


@pytest.mark.parametrize("ring", ["q", "zp:3"])
def test_derivations_failing_t_p_are_refuted(capsys, monkeypatch, ring):
    # is_derivation and the T(P) walk check each map both ways.  With
    # every unit's support emptied, T(P) rejects every nonzero unit image,
    # so derivations fail it too, against the proof in
    # locder._t_p_conditions: spanning verify of a derivation is REFUTED
    # (exit 1) at the unit probe it fails, and so is a campaign whose
    # derivation samples fail.
    conditions = locder._t_p_conditions
    monkeypatch.setattr(
        locder,
        "_t_p_conditions",
        lambda poset, r: (
            (p, set()) if len(p) == 1 else (p, c) for p, c in conditions(poset, r)
        ),
    )
    poset = str(GOLDEN / "chain3.poset")
    der = str(GOLDEN / f"chain3.{ring.replace(':', '')}.der.json")
    argv = ["locder", "verify", poset, der, "--mode", "spanning", "--format", "json"]
    assert run(argv) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] == "REFUTED"
    assert len(obj["failing_probe"]["entries"]) == 1
    argv = ["theorem", "random", poset, "--ring", ring, "--trials", "5"]
    assert run([*argv, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "REFUTED"


def test_theorem_random_refuses_huge_trials_at_once(capsys, tmp_path, chain2_file):
    # Each sample map is charged npairs^2 scalars but at least 16, so the
    # empty and the one-element posets are refused one trial above 2^20 / 16
    # and the 3-chain (36 scalars) one above 2^20 // 36.
    empty, one = tmp_path / "empty.poset", tmp_path / "one.poset"
    empty.write_text("elements:\n")
    one.write_text("elements: a\n")
    cases = [
        (chain2_file, "zp:2", "100000000000"),
        (str(empty), "q", str(2**16 + 1)),
        (str(one), "zp:2", str(2**16 + 1)),
        (chain_file(tmp_path, 3), "q", str(2**20 // 36 + 1)),
    ]
    for path, ring, trials in cases:
        start = time.perf_counter()
        code = run(["theorem", "random", path, "--ring", ring, "--trials", trials])
        assert time.perf_counter() - start < 0.5, path
        assert code == 2, path
        assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cap, bound, verb, options",
    [
        # Two 3-chain samples of 6^2 scalars each.
        ("fia.locder.CAMPAIGN_SCALAR_CAP", 72, "theorem random", ["--trials", "2"]),
        # The 3-chain's 5 basis maps of 6^2 scalars each.
        ("fia.cli.BASIS_SCALAR_CAP", 180, "der basis", ["--format", "json"]),
        # A zp:2 derivation on the 3-chain, charged its 2^6 exhaustive probes.
        ("fia.locder.PROBE_CAP", 64, "locder verify", ["der3.json"]),
    ],
    ids=["campaign", "basis", "probe"],
)
def test_scalar_caps_admit_their_bound(
    capsys, monkeypatch, tmp_path, chain3_file, cap, bound, verb, options
):
    # Each cap admits a run at exactly its bound and refuses it, before any
    # output, one unit lower.
    from fia.scalars import GF

    write_json(tmp_path, "der3.json", derivation_basis(CHAIN3, GF(2))[0].to_json())
    monkeypatch.chdir(tmp_path)
    argv = verb.split() + [chain3_file] + options
    monkeypatch.setattr(cap, bound)
    assert run(argv) == 0
    assert capsys.readouterr().out
    monkeypatch.setattr(cap, bound - 1)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cap of {bound - 1}" in captured.err


def test_der_basis_text_builds_no_basis(capsys, tmp_path, monkeypatch):
    # Text prints the dimension only and JSON streams the reduced rows, so
    # neither builds a map: not the 104 maps of 105^2 scalars on the
    # 14-chain, and not a basis above the cap, which only JSON refuses.
    def refuse(*args):
        raise AssertionError("der basis built a dense map")

    monkeypatch.setattr(deriv, "derivation_basis", refuse)
    monkeypatch.setattr(deriv.LinearEndo, "__init__", refuse)
    path = chain_file(tmp_path, 14)
    assert run(["der", "basis", path]) == 0
    assert capsys.readouterr().out == "ring: q\ndimension: 104\n"
    target = tmp_path / "chain14.json"
    assert run(["der", "basis", path, "--format", "json", "--out", str(target)]) == 0
    head = b'{"basis":[{"columns":['
    tail = b'],"dimension":104,"mode":"der-basis","ring":"q"}\n'
    with open(target, "rb") as handle:
        assert handle.read(len(head)) == head
        handle.seek(-len(tail), os.SEEK_END)
        assert handle.read() == tail
    path = chain_file(tmp_path, 24)
    assert run(["der", "basis", path]) == 0
    assert capsys.readouterr().out == "ring: q\ndimension: 299\n"
    assert run(["der", "basis", path, "--format", "json"]) == 2
    assert "cap" in capsys.readouterr().err


def _old_basis_json(poset, ring):
    """der basis --format json as the nested payload of dense maps, dumped once."""
    basis = derivation_basis(poset, ring)
    payload = {
        "basis": [b.to_json() for b in basis],
        "dimension": len(basis),
        "mode": "der-basis",
        "ring": ring.designator(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


BASIS_POSETS = (
    [chain(n) for n in range(2, 8)]
    + [ANTICHAIN2, DIAMOND, CROWN, complete_bipartite(4)]
    + [random_poset(n, 0.4, seed) for n, seed in ((4, 1), (5, 2), (6, 3), (7, 4))]
)


@pytest.mark.parametrize("ring_text", ["q", "zp:2", "zp:3", "zp:101"])
def test_der_basis_json_streams_the_dense_payload(capsys, tmp_path, ring_text):
    ring = parse_ring(ring_text)
    for k, poset in enumerate(BASIS_POSETS):
        path = tmp_path / f"p{k}.poset"
        path.write_text(poset.serialize())
        argv = ["der", "basis", str(path), "--ring", ring_text, "--format", "json"]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out == _old_basis_json(poset, ring), poset.serialize()
        target = tmp_path / f"p{k}.json"
        assert run(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == out.encode()


def test_der_basis_json_memory_stays_flat(tmp_path):
    # 77 maps of 78^2 scalars, 10.3 MB of text.  Dense maps, a nested
    # payload and one output string trace about 25 MB, and the string
    # alone over 10 MB; written map by map from the sparse rows, the peak,
    # elimination included, stays under 2 MB.
    path = chain_file(tmp_path, 12)
    target = tmp_path / "chain12.json"
    tracemalloc.start()
    try:
        argv = ["der", "basis", path, "--ring", "q", "--format", "json",
                "--out", str(target)]
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.stat().st_size > 10_000_000
    assert peak < 2_000_000


def test_each_run_computes_der_at_most_once(monkeypatch, capsys):
    # No cache keeps Der, so each handler reduces it once and passes the
    # rows on; enumerate's local_dimension needs none, and neither does
    # verify of a derivation, which is its own witness at every probe.
    calls = []
    compute = deriv._derivation_rref

    def counting(poset, ring):
        calls.append(ring)
        return compute(poset, ring)

    monkeypatch.setattr(deriv, "_derivation_rref", counting)
    monkeypatch.setattr(locder, "_derivation_rref", counting)
    poset = str(GOLDEN / "chain3.poset")
    der, miss = (str(GOLDEN / f"chain3.zp3.{kind}.json") for kind in ("der", "miss"))
    cases = [
        (["der", "basis", poset, "--format", "json"], 0, 1),
        (["der", "h1", poset], 0, 1),
        (["theorem", "enumerate", poset], 0, 1),
        (["theorem", "random", poset, "--trials", "3"], 0, 1),
        (["locder", "verify", poset, miss], 1, 1),
        (["locder", "verify", poset, der], 0, 0),
        (["locder", "verify", poset, der, "--mode", "spanning"], 0, 0),
    ]
    for argv, code, computed in cases:
        calls.clear()
        assert run(argv) == code, argv
        assert len(calls) == computed, argv
    capsys.readouterr()


def test_der_basis_refusals_write_nothing(capsys, tmp_path, chain3_file):
    # An unknown ring, a basis above the cap (299 maps of 300^2 scalars on the
    # 24-chain) and an unwritable --out are all refused before any output.
    cases = [
        ["der", "basis", chain3_file, "--ring", "z"],
        ["der", "basis", chain_file(tmp_path, 24)],
        ["der", "basis", chain3_file, "--out", str(tmp_path / "no" / "out.json")],
    ]
    for argv in cases:
        assert run(argv + ["--format", "json"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: "), argv
        assert captured.err.count("\n") == 1, argv
        assert "Traceback" not in captured.err, argv
    assert not (tmp_path / "no").exists()


def test_locder_verify_wrong_poset_hash(capsys, chain2_file, good_map_file):
    # map was serialized for chain3
    assert run(["locder", "verify", chain2_file, good_map_file]) == 2
    assert "different poset" in capsys.readouterr().err


def test_locder_verify_malformed_json(capsys, chain2_file, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert run(["locder", "verify", chain2_file, str(path)]) == 2
    capsys.readouterr()
    # A column one entry short is refused before any probe, with one line.
    obj = deriv.LinearEndo.zero(CHAIN2, parse_ring("zp:2")).to_json()
    obj["columns"][1].pop()
    short = write_json(tmp_path, "short.json", obj)
    assert run(["locder", "verify", chain2_file, short]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: each column needs 3 entries\n"


def test_non_utf8_poset_is_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.poset"
    path.write_bytes(b"elements: a \xff\na < \xff\n")
    assert run(["poset", "check", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_non_utf8_map_is_exit_2(capsys, chain3_file, good_map_file, tmp_path):
    with open(good_map_file, encoding="utf-8") as handle:
        text = handle.read()
    for name, data in (
        ("byte.json", b"\xff" + text.encode()),
        ("utf16.json", text.encode("utf-16")),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        assert run(["locder", "verify", chain3_file, str(path)]) == 2
        assert "error:" in capsys.readouterr().err


def test_oversized_json_integer_is_exit_2(capsys, chain2_file, tmp_path):
    # More digits than int() converts makes json.load raise a plain
    # ValueError; it must read as a parse error, not a refutation.
    path = tmp_path / "huge.json"
    path.write_text('{"res": ' + "1" * 5000 + "}")
    assert run(["locder", "verify", chain2_file, str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_deeply_nested_json_is_exit_2(capsys, chain2_file, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert run(["locder", "verify", chain2_file, str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_locder_verify_bad_scalar_exit_2(
    capsys, tmp_path, chain3_file, good_map_file
):
    # A malformed scalar is a parse error, never a refutation (exit 1).
    with open(good_map_file) as handle:
        obj = json.load(handle)
    for bad in ({"num": "x", "den": "2"}, {"num": 1.5, "den": "1"}):
        obj["columns"][0][0] = bad
        path = write_json(tmp_path, "bad_scalar.json", obj)
        code = run(["locder", "verify", chain3_file, path, "--mode", "spanning"])
        assert code == 2
        assert "numerator" in capsys.readouterr().err


def test_locder_lemmas_pass(capsys, chain3_file, good_map_file):
    code, obj, _ = run_json(capsys, ["locder", "lemmas", chain3_file, good_map_file])
    assert code == 0
    assert obj["all_pass"] is True
    assert obj["mode"] == "lemmas"


def test_locder_lemmas_fail_exit_1(capsys, chain3_file, tmp_path):
    # e_x -> e_xy breaks the diagonal sign rule, among others.
    from fia.deriv import LinearEndo
    from fia.scalars import QQ

    d = LinearEndo.zero(CHAIN3, QQ)
    d.cols[CHAIN3.pair_pos(0, 0)][CHAIN3.pair_pos(0, 1)] = QQ.one
    path = write_json(tmp_path, "skew.json", d.to_json())
    code, obj, _ = run_json(capsys, ["locder", "lemmas", chain3_file, path])
    assert code == 1
    assert obj["all_pass"] is False
    assert obj["checks"]["diagonal_sign"] is False


def test_theorem_enumerate_json(capsys, chain2_file):
    code, obj, _ = run_json(capsys, ["theorem", "enumerate", chain2_file])
    assert code == 0
    assert obj["verdict"] == "confirmed"
    assert obj["s_der"] == 4
    assert obj["s_loc"] == 4
    assert obj["ring"] == "zp:2"


def test_theorem_enumerate_rejects_rationals(capsys, chain2_file):
    assert run(["theorem", "enumerate", chain2_file, "--ring", "q"]) == 2
    assert "zp" in capsys.readouterr().err


def test_theorem_enumerate_six_chain_at_the_default_cap(capsys, tmp_path):
    # 2^21 exhaustive probes, above verify's default cap, but only 76 in T(P).
    assert run(["theorem", "enumerate", chain_file(tmp_path, 6)]) == 0
    assert "verdict: confirmed" in capsys.readouterr().out


def test_theorem_enumerate_refuses_an_unwritable_count(capsys, tmp_path):
    # The count 2^(npairs^2) has 4,263 digits at 119 pairs (the 14-chain
    # and 14 points) and 4,335 at 120 (the 15-chain), above the 4,300
    # that Python writes; that is refused before any work, never a crash.
    labels = [f"c{i}" for i in range(14)]
    text = "elements: " + " ".join(labels + [f"p{i}" for i in range(14)]) + "\n"
    text += "".join(f"{a} < {b}\n" for a, b in zip(labels, labels[1:]))
    path = tmp_path / "chain14_points.poset"
    path.write_text(text)
    assert run(["theorem", "enumerate", str(path)]) == 0
    endos = capsys.readouterr().out.splitlines()[-1]
    assert endos == f"endos: {2 ** (119 * 119)}"
    assert run(["theorem", "enumerate", chain_file(tmp_path, 15)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 2^14400 endos exceed 4300 digits\n"


def test_theorem_enumerate_refuses_by_the_interpreters_digit_limit(tmp_path):
    # The 10-chain's count 2^3025 has 911 digits: a limit of 640 refuses
    # it with one error line, and a limit of 0 (none) writes even the
    # 4,335 digits of the 15-chain's 2^14400.
    def enumerate_under(limit, n):
        env = child_env()
        env["PYTHONINTMAXSTRDIGITS"] = limit
        argv = ["theorem", "enumerate", chain_file(tmp_path, n)]
        return subprocess.run(
            [sys.executable, "-m", "fia.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    proc = enumerate_under("640", 10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: 2^3025 endos exceed 640 digits\n"
    proc = enumerate_under("0", 15)
    assert proc.returncode == 0
    endos = proc.stdout.splitlines()[-1]
    assert endos.startswith("endos: ") and len(endos) == len("endos: ") + 4335
    assert int(endos[-30:]) == 2**14400 % 10**30


def test_theorem_enumerate_three_chain_mod_two(capsys, chain3_file):
    # 2^36 endomorphisms, but only the 16 probes of T(P) for the rank
    # computation.
    assert run(["theorem", "enumerate", chain3_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: confirmed" in out
    assert f"endos: {2 ** 36}" in out


def test_theorem_random_text(capsys, chain3_file):
    code = run(
        ["theorem", "random", chain3_file, "--trials", "4", "--seed", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: confirmed" in out
    assert "trials: 4" in out


def test_theorem_random_trials_must_be_positive(capsys, chain3_file):
    # Zero or negative trials would make "confirmed" vacuous.
    for trials in ("0", "-5"):
        assert run(["theorem", "random", chain3_file, "--trials", trials]) == 2
        assert "--trials: must be at least 1" in capsys.readouterr().err


def test_out_flag_writes_file(capsys, tmp_path, chain3_file):
    target = tmp_path / "report.json"
    code = run(
        ["der", "h1", chain3_file, "--format", "json", "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    obj = json.loads(target.read_text())
    assert obj["h1"] == 0


def test_json_output_is_byte_deterministic(capsys, chain3_file, bad_map_file):
    argv = ["locder", "verify", chain3_file, bad_map_file, "--mode", "spanning",
            "--format", "json"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_usage_errors_exit_2():
    assert run(["der"]) == 2
    assert run(["no-such-verb"]) == 2
    assert run([]) == 2


# Each verb's operands after the poset and the defaults it parses to.
OUTPUT_DEFAULTS = {"format": "text", "out": None}
VERB_DEFAULTS = {
    "poset check": ((), {}),
    "der basis": ((), {"ring": "q"}),
    "der h1": ((), {"ring": "q"}),
    "der decompose": (("m.json",), {"map": "m.json"}),
    "locder verify": (
        ("m.json",),
        {"map": "m.json", "mode": "exhaustive", "seed": 0},
    ),
    "locder lemmas": (("m.json",), {"map": "m.json", "seed": 0}),
    "theorem enumerate": ((), {"ring": "zp:2"}),
    "theorem random": ((), {"ring": "q", "trials": 50, "seed": 0}),
}
VERB_OPTIONS = {
    "--ring": "q",
    "--mode": "spanning",
    "--seed": "1",
    "--probe-cap": "1",
    "--trials": "1",
}


@pytest.mark.parametrize("verb", sorted(VERB_DEFAULTS))
def test_verb_parses_to_its_defaults(verb):
    group, command = verb.split()
    operands, defaults = VERB_DEFAULTS[verb]
    args = vars(parse_args([group, command, "p.poset", *operands]))
    assert args.pop("handler") is _VERBS[group, command][0]
    assert args == {
        "group": group, "command": command, "poset": "p.poset",
        **defaults, **OUTPUT_DEFAULTS,
    }
    for option, value in VERB_OPTIONS.items():
        argv = [group, command, "p.poset", *operands, option, value]
        if option.lstrip("-").replace("-", "_") in defaults:
            parse_args(argv)
            continue
        with pytest.raises(UsageError) as exc:
            parse_args(argv)
        assert exc.value.args == (
            (group, command), f"unrecognized arguments: {option} {value}"
        )


RANDOM_USAGE = (
    "usage: fia theorem random [-h] poset [--ring RING] [--trials TRIALS]"
    " [--seed SEED] [--format {json,text}] [--out OUT]"
)
VERIFY_USAGE = (
    "usage: fia locder verify [-h] poset map [--mode {exhaustive,spanning}]"
    " [--seed SEED] [--format {json,text}] [--out OUT]"
)
GROUP_USAGE = "usage: fia [-h] {poset,der,locder,theorem} ..."
# argv after "fia", then the usage line and the error line on stderr; the
# parser is fia's own, so the wording holds on every Python version.
USAGE_ERRORS = {
    "no verb": ("", GROUP_USAGE, "the following arguments are required: group"),
    "unknown verb": (
        "prove",
        GROUP_USAGE,
        "argument group: invalid choice: 'prove' "
        "(choose from poset, der, locder, theorem)",
    ),
    "no command": (
        "der",
        "usage: fia der [-h] {basis,h1,decompose} ...",
        "the following arguments are required: command",
    ),
    "unknown command": (
        "theorem certify p.poset",
        "usage: fia theorem [-h] {enumerate,random} ...",
        "argument command: invalid choice: 'certify' (choose from enumerate, random)",
    ),
    "missing poset": (
        "theorem random --seed 3",
        RANDOM_USAGE,
        "the following arguments are required: poset",
    ),
    "missing map": (
        "locder verify p.poset",
        VERIFY_USAGE,
        "the following arguments are required: map",
    ),
    "extra operand": (
        "theorem random p.poset q.poset",
        RANDOM_USAGE,
        "unrecognized arguments: q.poset",
    ),
    "unknown option": (
        "theorem random p.poset --probe-cap 9 --bogus=1",
        RANDOM_USAGE,
        "unrecognized arguments: --probe-cap 9 --bogus=1",
    ),
    "abbreviated option": (
        "theorem random p.poset --form json",
        RANDOM_USAGE,
        "unrecognized arguments: --form json",
    ),
    "option at the end without its value": (
        "theorem random p.poset --seed",
        RANDOM_USAGE,
        "argument --seed: expected one argument",
    ),
    "option followed by an option": (
        "theorem random p.poset --ring --seed 3",
        RANDOM_USAGE,
        "argument --ring: expected one argument",
    ),
    "bad choice": (
        "locder verify p.poset m.json --mode full",
        VERIFY_USAGE,
        "argument --mode: invalid choice: 'full' (choose from exhaustive, spanning)",
    ),
    "bad format": (
        "theorem random p.poset --format=yaml",
        RANDOM_USAGE,
        "argument --format: invalid choice: 'yaml' (choose from json, text)",
    ),
    "non-integer seed": (
        "theorem random p.poset --seed 1.5",
        RANDOM_USAGE,
        "argument --seed: invalid int value: '1.5'",
    ),
    "non-integer trials": (
        "theorem random p.poset --trials ten",
        RANDOM_USAGE,
        "argument --trials: invalid int value: 'ten'",
    ),
    "zero trials": (
        "theorem random p.poset --trials 0",
        RANDOM_USAGE,
        "argument --trials: must be at least 1, got 0",
    ),
    "negative trials": (
        "theorem random p.poset --trials=-5",
        RANDOM_USAGE,
        "argument --trials: must be at least 1, got -5",
    ),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_is_one_usage_and_one_error_line(capsys, case):
    argv, usage, error = USAGE_ERRORS[case]
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{usage}\nfia: error: {error}\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("before", ["", "der", "locder verify p.poset"])
def test_help_lists_every_verb(capsys, before, flag):
    assert run([*before.split(), flag]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == GROUP_USAGE
    verbs = [line.split("[-h]")[0].split()[1:] for line in lines[3:]]
    assert verbs == [list(verb) for verb in _VERBS]
    assert f"  {VERIFY_USAGE[len('usage: '):]}" in lines


# fia --help byte for byte: the group line and every verb's usage line.
HELP = """\
usage: fia [-h] {poset,der,locder,theorem} ...

verbs:
  fia poset check [-h] poset [--format {json,text}] [--out OUT]
  fia der basis [-h] poset [--ring RING] [--format {json,text}] [--out OUT]
  fia der h1 [-h] poset [--ring RING] [--format {json,text}] [--out OUT]
  fia der decompose [-h] poset map [--format {json,text}] [--out OUT]
  fia locder verify [-h] poset map [--mode {exhaustive,spanning}] [--seed SEED] \
[--format {json,text}] [--out OUT]
  fia locder lemmas [-h] poset map [--seed SEED] [--format {json,text}] [--out OUT]
  fia theorem enumerate [-h] poset [--ring RING] [--format {json,text}] [--out OUT]
  fia theorem random [-h] poset [--ring RING] [--trials TRIALS] [--seed SEED] \
[--format {json,text}] [--out OUT]
"""


def test_help_text_is_pinned(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr().out == HELP


def test_readme_cookbook_replays(capsys, monkeypatch):
    # Each `$ fia ...` line of README "CLI cookbook" and the text under it.
    readme = (GOLDEN.parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI cookbook\n", 1)[1].split("```\n")[1]
    entries = [entry.partition("\n") for entry in block.split("$ fia ")[1:]]
    assert entries
    monkeypatch.chdir(GOLDEN)
    for command, _, text in entries:
        run(command.split())
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (text.rstrip("\n") + "\n", ""), command


@pytest.mark.parametrize(
    "argv",
    [
        "theorem random p.poset --ring zp:3 --trials 7 --seed -2 --format json",
        "theorem random --ring=zp:3 --trials=7 --seed=-2 --format=json p.poset",
        "theorem random --seed 4 p.poset --trials 1 --ring q --trials 7"
        " --ring zp:3 --seed=-2 --format text --format json",
    ],
    ids=["after the poset", "with = before the poset", "repeated, the last wins"],
)
def test_option_syntax(argv):
    args = vars(parse_args(argv.split()))
    args.pop("handler")
    assert args == {
        "group": "theorem", "command": "random", "poset": "p.poset",
        "ring": "zp:3", "trials": 7, "seed": -2, "format": "json", "out": None,
    }


def test_negative_number_and_lone_dash_are_operands():
    args = parse_args(["locder", "lemmas", "-", "-3", "--seed", "-4"])
    assert (args.poset, args.map, args.seed) == ("-", "-3", -4)


# Each verb on the golden catalogue, and which of the modules in
# STARTUP_WATCH it may load: locder only for the locder and theorem verbs,
# fractions only over q, and never hashlib or OpenSSL (_hashlib), as a
# poset hash takes CPython's own SHA-256, nor dataclasses (inspect, ast,
# dis, tokenize), multiprocessing, or argparse and the gettext and locale
# it loads.  decimal may load only with fractions, which imports it.
STARTUP_WATCH = (
    "argparse", "gettext", "locale", "fractions", "decimal",
    "dataclasses", "hashlib", "_hashlib", "fia.locder", "multiprocessing",
)
Q = {"fractions"}
LOCDER = {"fia.locder"}
VERB_LOADS = {
    "poset check": ("chain2.poset", set()),
    "der h1": ("chain3.poset", Q),
    "der h1 zp": ("chain3.poset --ring zp:3", set()),
    "der basis": ("chain3.poset", Q),
    "der decompose": ("chain3.poset chain3.q.der.json", Q),
    "der decompose zp": ("crown.poset crown.zp2.der.json", set()),
    "locder verify": ("chain3.poset chain3.zp3.der.json", LOCDER),
    "locder verify q": ("chain3.poset chain3.q.der.json --mode spanning", LOCDER | Q),
    "locder lemmas": ("chain3.poset chain3.q.der.json", LOCDER | Q),
    "locder lemmas zp": ("chain3.poset chain3.zp3.der.json", LOCDER),
    "theorem enumerate": ("chain3.poset", LOCDER),
    "theorem random": ("chain3.poset --trials 3", LOCDER | Q),
    "theorem random zp": ("chain3.poset --trials 3 --ring zp:2", LOCDER),
}


@pytest.mark.parametrize("job", sorted(VERB_LOADS))
def test_verb_loads_only_what_it_uses(job):
    verb = " ".join(job.split()[:2])
    operands, expected = VERB_LOADS[job]
    code = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('fia.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        f"    watched = [m for m in {STARTUP_WATCH!r} if m in sys.modules]\n"
        "    print(exc.code, *watched, file=sys.stderr)\n"
    )
    argv = [*verb.split(), *operands.split(), "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=GOLDEN,
        capture_output=True,
        text=True,
        env=child_env(),
    )
    exit_code, *loaded = proc.stderr.split()
    assert exit_code == "0"
    assert set(loaded) - {"decimal"} == expected
    assert "decimal" not in loaded or "fractions" in loaded


NO_DEV_FULL = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="no /dev/full device"
)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "verb, full",
    [
        pytest.param("der basis", False, id="der basis"),
        pytest.param("der h1", False, id="der h1"),
        pytest.param("der basis", True, id="der basis > /dev/full", marks=NO_DEV_FULL),
        pytest.param("der h1", True, id="der h1 > /dev/full", marks=NO_DEV_FULL),
    ],
)
def test_closed_stdout_exits_2_with_one_error_line(tmp_path, verb, full, unbuffered):
    # Stdout is a pipe whose reader has gone or a device that is always
    # full.  With buffered stdout a short report would meet the failing
    # write only in the flush at exit, as "Exception ignored" and exit 120.
    fmt = "json" if verb == "der basis" else "text"
    argv = [*verb.split(), chain_file(tmp_path, 6), "--format", fmt]
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if full:
        stdout = os.open("/dev/full", os.O_WRONLY)
        expected = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
        expected = "stdout was closed before the report was complete"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fia.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(stdout)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {expected}\n"


def test_module_entry_point():
    # CI checks that the installed fia script writes these same bytes.
    argv = ["poset", "check", "chain2.poset", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "fia.cli", *argv],
        capture_output=True,
        text=True,
        cwd=GOLDEN,
        env=child_env(),
    )
    golden = json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))
    [entry] = [case for case in golden if case["argv"] == argv]
    assert (proc.returncode, proc.stdout) == (entry["exit"], entry["stdout"])

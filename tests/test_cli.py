import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fia
from fia.cli import run
from fia.deriv import derivation_basis, inner, sigma_endo, transitive_map
from fia.fialg import element, element_from_json
from fia.poset import parse_poset

from helpers import CHAIN2, CHAIN3

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

    sigma = transitive_map(
        CHAIN3, QQ, {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 0}
    )
    return write_json(tmp_path, "bad.json", sigma_endo(sigma).to_json())


@pytest.fixture
def z2_map_file(tmp_path):
    from fia.scalars import GF

    basis = derivation_basis(CHAIN2, GF(2))
    return write_json(tmp_path, "der2.json", (basis[0] + basis[1]).to_json())


def child_env():
    """The environment for a child Python that imports fia from this tree."""
    src = str(Path(fia.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
    assert "field" in capsys.readouterr().err


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
    assert obj["probes_checked"] == 15
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


def test_locder_verify_ring_conflict(capsys, chain3_file, good_map_file):
    code = run(
        ["locder", "verify", chain3_file, good_map_file,
         "--mode", "spanning", "--ring", "zp:5"]
    )
    assert code == 2
    assert "disagrees" in capsys.readouterr().err


def test_locder_verify_probe_cap_exit_2(capsys, chain2_file, z2_map_file):
    code = run(
        ["locder", "verify", chain2_file, z2_map_file, "--probe-cap", "4"]
    )
    assert code == 2
    assert "probe-cap" in capsys.readouterr().err


def test_probe_cap_must_be_positive(capsys, chain2_file, z2_map_file):
    for argv in (
        ["locder", "verify", chain2_file, z2_map_file],
        ["theorem", "random", chain2_file, "--ring", "zp:2"],
    ):
        assert run(argv + ["--probe-cap", "-1"]) == 2
        assert "--probe-cap" in capsys.readouterr().err


def test_theorem_random_refuses_truncated_spanning_family(capsys, chain2_file):
    # With one probe the spanning check cannot reject the non-derivation
    # samples, which a campaign would count as counterexamples.
    code = run(
        ["theorem", "random", chain2_file, "--ring", "zp:2",
         "--probe-cap", "1", "--trials", "5"]
    )
    assert code == 2
    assert "--probe-cap" in capsys.readouterr().err


def test_theorem_random_refuses_huge_trials_at_once(capsys, chain2_file):
    start = time.perf_counter()
    code = run(
        ["theorem", "random", chain2_file, "--ring", "zp:2",
         "--trials", "100000000000"]
    )
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert "--trials" in capsys.readouterr().err


def test_der_basis_refuses_a_large_basis(capsys, tmp_path):
    labels = [f"c{i}" for i in range(24)]
    text = "elements: " + " ".join(labels) + "\n"
    text += "".join(f"{a} < {b}\n" for a, b in zip(labels, labels[1:]))
    path = tmp_path / "chain24.poset"
    path.write_text(text)
    assert run(["der", "basis", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_locder_verify_wrong_poset_hash(capsys, chain2_file, good_map_file):
    # map was serialized for chain3
    assert run(["locder", "verify", chain2_file, good_map_file]) == 2
    assert "different poset" in capsys.readouterr().err


def test_locder_verify_malformed_json(capsys, chain2_file, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert run(["locder", "verify", chain2_file, str(path)]) == 2


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


def test_theorem_enumerate_cap_exit_2(capsys, chain2_file):
    code = run(
        ["theorem", "enumerate", chain2_file, "--ring", "zp:3",
         "--endo-cap", "100"]
    )
    assert code == 2
    assert "endo-cap" in capsys.readouterr().err


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
        assert "--trials" in capsys.readouterr().err


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


def test_cli_import_leaves_multiprocessing_out():
    # Everything runs in one process, so start-up need not pay for it.
    code = "import sys, fia.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
    )
    assert proc.stdout == "False\n"


def test_installed_entry_point(chain2_file):
    proc = subprocess.run(
        [sys.executable, "-m", "fia.cli", "poset", "check", chain2_file],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout

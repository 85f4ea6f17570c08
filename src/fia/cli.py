"""Command-line front end.

Verbs: poset check, der basis | h1 | decompose, locder verify | lemmas,
theorem enumerate | random.  JSON output is byte-deterministic (sorted
keys, canonical entry order); exit code 0 means success or a confirmed
verdict, 1 a rejected or refuted verdict, 2 a usage, parse or IO error.

Each handler returns its JSON output as an iterable of text chunks, its
text lines and its exit code, and _emit writes the chosen format chunk by
chunk.  Most reports are one canonical dump; der basis streams its maps
straight from Der's sparse reduced rows, so it builds no map, no nested
payload and no whole-output string.  Every check and cap runs before the
first byte is written, so a refusal leaves the output empty.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import deriv, locder
from .fialg import AlgebraError
from .poset import PosetError, parse_poset
from .scalars import RingError, parse_ring

# der basis --format json writes dim Der maps of npairs^2 scalars each,
# streamed from the sparse reduced rows, so memory stays near 21-25 MB and
# the cap bounds output bytes and time instead: a q scalar takes about 22
# bytes and a zp:P scalar about 10, so 2^23 scalars are about 185 MB of q
# output.  The 19-chain over q (189 * 190^2 = 6,822,900 scalars) writes
# 150 MB in about 0.35 s, start-up included; the 20-chain is refused.
BASIS_SCALAR_CAP = 1 << 23


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _read_poset(path):
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise PosetError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_poset(text)


def _read_endo(path, poset, ring_flag):
    with open(path, encoding="utf-8") as handle:
        # Bad UTF-8, bad JSON syntax and integer literals longer than
        # int() converts raise ValueError; nesting deeper than the
        # decoder's recursion limit raises RecursionError.
        try:
            obj = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise AlgebraError(f"{path} is not a readable map JSON: {exc}") from None
    d = deriv.endo_from_json(poset, obj)
    if ring_flag is not None and parse_ring(ring_flag) != d.ring:
        raise RingError(
            f"--ring {ring_flag} disagrees with the map's ring"
            f" {d.ring.designator()}"
        )
    return d


def _json(payload):
    """A report's JSON output: one chunk, dumped only when it is written."""
    yield _canonical_json(payload)


def _emit(chunks, out_path):
    """Write an iterable of text chunks to stdout or to out_path."""
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)


def _lines(payload, *keys) -> list[str]:
    """One "key: value" text line per named payload entry."""
    return [f"{key}: {payload[key]}" for key in keys]


# -- command handlers: each returns (JSON chunks, text lines, exit code) -----


def _cmd_poset_check(args):
    poset = _read_poset(args.poset)
    payload = {
        "mode": "poset-check",
        "elements": len(poset),
        "covers": len(poset.covers),
        "pairs": poset.npairs,
    }
    lines = _lines(payload, "elements", "covers", "pairs") + ["ok"]
    return _json(payload), lines, 0


def _cmd_der_basis(args):
    poset = _read_poset(args.poset)
    ring = parse_ring(args.ring)
    payload = {
        "mode": "der-basis",
        "ring": ring.designator(),
        "dimension": deriv.derivation_dimension(poset, ring),
    }
    # Text prints the dimension only, so only JSON writes the basis; it is
    # refused before its first byte.
    if args.format_ == "json":
        scalars = payload["dimension"] * poset.npairs**2
        if scalars > BASIS_SCALAR_CAP:
            raise AlgebraError(
                f"the basis has {scalars} scalars, above the cap of {BASIS_SCALAR_CAP}"
            )
    lines = _lines(payload, "ring", "dimension")
    return _basis_json(poset, ring, payload), lines, 0


def _basis_json(poset, ring, payload):
    """The canonical dump of payload plus its "basis" list, map by map.

    "basis" sorts first, so the payload's own dump closes the list.
    """
    yield '{"basis":['
    for k, text in enumerate(deriv.derivation_basis_json(poset, ring)):
        yield "," + text if k else text
    yield "]," + _canonical_json(payload)[1:]


def _cmd_der_h1(args):
    poset = _read_poset(args.poset)
    ring = parse_ring(args.ring)
    dim_der = deriv.derivation_dimension(poset, ring)
    dim_inner = deriv.inner_dimension(poset, ring)
    payload = {
        "mode": "der-h1",
        "ring": ring.designator(),
        "dim_derivations": dim_der,
        "dim_inner": dim_inner,
        "h1": dim_der - dim_inner,
    }
    lines = _lines(payload, "ring", "dim_derivations", "dim_inner", "h1")
    return _json(payload), lines, 0


def _cmd_der_decompose(args):
    poset = _read_poset(args.poset)
    d = _read_endo(args.map, poset, args.ring)
    dec = deriv.decompose(d)
    payload = dec.to_json()
    lines = [
        f"alpha entries: {len(dec.alpha.entries)}",
        f"sigma entries: {len(dec.sigma.entries)}",
        f"residual: {dec.residual_norm}",
    ]
    return _json(payload), lines, 0


def _verdict_exit(verdict: str) -> int:
    if verdict in (locder.VERDICT_REJECTED, locder.VERDICT_REFUTED):
        return 1
    return 0


def _cmd_locder_verify(args):
    poset = _read_poset(args.poset)
    d = _read_endo(args.map, poset, args.ring)
    if args.mode == "exhaustive":
        report = locder.check_local_exhaustive(d, probe_cap=args.probe_cap)
    else:
        report = locder.check_local_spanning(
            d, seed=args.seed, probe_cap=args.probe_cap
        )
    payload = report.to_json()
    lines = _lines(payload, "mode", "ring", "verdict", "probes_checked")
    if "failing_probe" in payload:
        lines.append(
            "failing_probe: " + json.dumps(payload["failing_probe"], sort_keys=True)
        )
    return _json(payload), lines, _verdict_exit(report.verdict)


def _cmd_locder_lemmas(args):
    poset = _read_poset(args.poset)
    d = _read_endo(args.map, poset, args.ring)
    report = locder.lemma_conformance(d, seed=args.seed)
    payload = report.to_json()
    lines = [f"ring: {report.ring}"]
    for name, passed in sorted(payload["checks"].items()):
        lines.append(f"{name}: {'pass' if passed else 'FAIL'}")
    lines.append(f"all: {'pass' if report.all_pass else 'FAIL'}")
    return _json(payload), lines, 0 if report.all_pass else 1


def _cmd_theorem_enumerate(args):
    poset = _read_poset(args.poset)
    ring = parse_ring(args.ring)
    if ring.kind != "zp":
        raise RingError("theorem enumerate needs a zp ring")
    report = locder.theorem_verify_enumerate(poset, ring.p, probe_cap=args.probe_cap)
    payload = report.to_json()
    lines = _lines(payload, "ring", "verdict", "s_der", "s_loc")
    lines.append(f"endos: {payload['probes_checked']}")
    return _json(payload), lines, _verdict_exit(report.verdict)


def _cmd_theorem_random(args):
    poset = _read_poset(args.poset)
    ring = parse_ring(args.ring)
    report = locder.theorem_verify_random(
        poset, ring, trials=args.trials, seed=args.seed, probe_cap=args.probe_cap
    )
    payload = report.to_json()
    lines = _lines(payload, "ring", "verdict", "trials", "seed", "probes_checked")
    return _json(payload), lines, _verdict_exit(report.verdict)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_output_flags(parser):
    parser.add_argument(
        "--format", choices=("json", "text"), default="text", dest="format_"
    )
    parser.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fia")
    groups = top.add_subparsers(dest="group", required=True)

    poset_group = groups.add_parser("poset").add_subparsers(
        dest="command", required=True
    )
    p = poset_group.add_parser("check")
    p.add_argument("poset")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_poset_check)

    der_group = groups.add_parser("der").add_subparsers(dest="command", required=True)
    p = der_group.add_parser("basis")
    p.add_argument("poset")
    p.add_argument("--ring", default="q")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_der_basis)
    p = der_group.add_parser("h1")
    p.add_argument("poset")
    p.add_argument("--ring", default="q")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_der_h1)
    p = der_group.add_parser("decompose")
    p.add_argument("poset")
    p.add_argument("map")
    p.add_argument("--ring", default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_der_decompose)

    locder_group = groups.add_parser("locder").add_subparsers(
        dest="command", required=True
    )
    p = locder_group.add_parser("verify")
    p.add_argument("poset")
    p.add_argument("map")
    p.add_argument("--ring", default=None)
    p.add_argument("--mode", choices=("exhaustive", "spanning"), default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probe-cap", type=_positive_int, default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_locder_verify)
    p = locder_group.add_parser("lemmas")
    p.add_argument("poset")
    p.add_argument("map")
    p.add_argument("--ring", default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_locder_lemmas)

    theorem_group = groups.add_parser("theorem").add_subparsers(
        dest="command", required=True
    )
    p = theorem_group.add_parser("enumerate")
    p.add_argument("poset")
    p.add_argument("--ring", default="zp:2")
    p.add_argument("--probe-cap", type=_positive_int, default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_theorem_enumerate)
    p = theorem_group.add_parser("random")
    p.add_argument("poset")
    p.add_argument("--ring", default="q")
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probe-cap", type=_positive_int, default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_theorem_random)

    return top


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        json_chunks, lines, code = args.handler(args)
    except (
        PosetError,
        RingError,
        AlgebraError,
        locder.CapExceededError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = (line + "\n" for line in lines)
    chunks = json_chunks if args.format_ == "json" else text
    try:
        _emit(chunks, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end.

Verbs: poset check, der basis | h1 | decompose, locder verify | lemmas,
theorem enumerate | random.  JSON output is byte-deterministic (sorted
keys, canonical entry order); exit code 0 means success or a confirmed
verdict, 1 a rejected or refuted verdict, 2 a usage, parse or IO error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import deriv, locder
from .fialg import AlgebraError
from .poset import PosetError, parse_poset
from .scalars import RingError, parse_ring

# der basis prints dim Der maps of npairs^2 scalars each; the 12-chain over
# q (77 * 78^2 = 468,468 scalars) peaks near 50 MB, the 13-chain near 65 MB.
BASIS_SCALAR_CAP = 1 << 20


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


def _emit(rendered: str, out_path):
    if out_path is None:
        sys.stdout.write(rendered)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(rendered)


def _render_text(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _lines(payload, *keys) -> list[str]:
    """One "key: value" text line per named payload entry."""
    return [f"{key}: {payload[key]}" for key in keys]


# -- command handlers: each returns (payload, text lines, exit code) --------


def _cmd_poset_check(args):
    poset = _read_poset(args.poset)
    payload = {
        "mode": "poset-check",
        "elements": len(poset),
        "covers": len(poset.covers),
        "pairs": poset.npairs,
    }
    return payload, _lines(payload, "elements", "covers", "pairs") + ["ok"], 0


def _cmd_der_basis(args):
    poset = _read_poset(args.poset)
    ring = parse_ring(args.ring)
    payload = {
        "mode": "der-basis",
        "ring": ring.designator(),
        "dimension": deriv.derivation_dimension(poset, ring),
    }
    # Text prints the dimension only, so only JSON builds the basis.
    if args.format_ == "json":
        scalars = payload["dimension"] * poset.npairs**2
        if scalars > BASIS_SCALAR_CAP:
            raise AlgebraError(
                f"the basis has {scalars} scalars, above the cap of {BASIS_SCALAR_CAP}"
            )
        payload["basis"] = [b.to_json() for b in deriv.derivation_basis(poset, ring)]
    return payload, _lines(payload, "ring", "dimension"), 0


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
    return payload, lines, 0


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
    return payload, lines, 0


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
    return payload, lines, _verdict_exit(report.verdict)


def _cmd_locder_lemmas(args):
    poset = _read_poset(args.poset)
    d = _read_endo(args.map, poset, args.ring)
    report = locder.lemma_conformance(d, seed=args.seed)
    payload = report.to_json()
    lines = [f"ring: {report.ring}"]
    for name, passed in sorted(payload["checks"].items()):
        lines.append(f"{name}: {'pass' if passed else 'FAIL'}")
    lines.append(f"all: {'pass' if report.all_pass else 'FAIL'}")
    return payload, lines, 0 if report.all_pass else 1


def _cmd_theorem_enumerate(args):
    poset = _read_poset(args.poset)
    ring = parse_ring(args.ring)
    if ring.kind != "zp":
        raise RingError("theorem enumerate needs a zp ring")
    report = locder.theorem_verify_enumerate(poset, ring.p, probe_cap=args.probe_cap)
    payload = report.to_json()
    lines = _lines(payload, "ring", "verdict", "s_der", "s_loc")
    lines.append(f"endos: {payload['probes_checked']}")
    return payload, lines, _verdict_exit(report.verdict)


def _cmd_theorem_random(args):
    poset = _read_poset(args.poset)
    ring = parse_ring(args.ring)
    report = locder.theorem_verify_random(
        poset, ring, trials=args.trials, seed=args.seed, probe_cap=args.probe_cap
    )
    payload = report.to_json()
    lines = _lines(payload, "ring", "verdict", "trials", "seed", "probes_checked")
    return payload, lines, _verdict_exit(report.verdict)


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
        payload, lines, code = args.handler(args)
    except (
        PosetError,
        RingError,
        AlgebraError,
        locder.CapExceededError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = (
        _canonical_json(payload) if args.format_ == "json" else _render_text(lines)
    )
    try:
        _emit(rendered, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

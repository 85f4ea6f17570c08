"""Command-line front end.

Verbs: poset check, der basis | h1 | decompose, locder verify | lemmas,
theorem enumerate | random.  JSON output is byte-deterministic (sorted
keys, canonical entry order); exit code 0 means success or a confirmed
verdict, 1 a rejected or refuted verdict, 2 a usage, parse or IO error.

build_parser builds every verb from one table, _VERBS, of its handler and
the arguments it takes after the poset; run reads the poset, which every
verb takes first, and hands it to the handler.

Each handler returns its JSON output as an iterable of text chunks, its
text lines and its exit code, and _emit writes the chosen format chunk by
chunk.  Most reports are one canonical dump; der basis streams its maps
straight from Der's sparse reduced rows, so it builds no map, no nested
payload and no whole-output string.  Every check and cap runs before the
first byte is written, so a refusal leaves the output empty.  A reader
that closes stdout early, a full disk or any other stdout write error
gets one error line and exit 2, since the report was cut short.

Start-up is most of a short run, and with PYTHONDONTWRITEBYTECODE set
every process compiles each fia module it imports, so a process loads
only what its verb runs: the poset and der verbs never import locder,
the reports are plain classes (dataclasses would pull in inspect and
ast), and hashlib, which loads OpenSSL, is imported only when a map's
poset hash is read or written.  See README "Start-up".
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import deriv
from .fialg import AlgebraError, CapExceededError
from .poset import PosetError, parse_poset
from .scalars import RingError, parse_ring

# der basis --format json writes dim Der maps of npairs^2 scalars each,
# streamed from the sparse reduced rows, so memory stays near 21-25 MB and
# the cap bounds output bytes and time instead: a q scalar takes about 22
# bytes and a zp:P scalar about 10, so 2^23 scalars are about 185 MB of q
# output.  The 19-chain over q (189 * 190^2 = 6,822,900 scalars) writes
# 150 MB in 0.27-0.49 s, start-up included (median 0.46 s of 10 runs,
# Python 3.11.7, 2-vCPU shared VM); the 20-chain is refused.
BASIS_SCALAR_CAP = 1 << 23


def _read_poset(path):
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise PosetError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_poset(text)


def _read_endo(poset, path):
    with open(path, encoding="utf-8") as handle:
        # Bad UTF-8, bad JSON syntax and integer literals longer than
        # int() converts raise ValueError; nesting deeper than the
        # decoder's recursion limit raises RecursionError.
        try:
            obj = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise AlgebraError(f"{path} is not a readable map JSON: {exc}") from None
    return deriv.endo_from_json(poset, obj)


def _json(payload):
    """A report's JSON output: one chunk, dumped only when it is written."""
    yield deriv._canonical_json(payload) + "\n"


def _emit(chunks, out_path):
    """Write an iterable of text chunks to stdout or to out_path.

    A stdout that fails a write, closed early by its reader or full, cuts
    the report short, an IO error.  The flush raises it here for a report
    that still sits in the buffer.
    """
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # What is still buffered can never be written; with stdout on
        # devnull, the flush at exit cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise OSError("stdout was closed before the report was complete") from None
        raise


def _lines(payload, *keys) -> list[str]:
    """One "key: value" text line per named payload entry."""
    return [f"{key}: {payload[key]}" for key in keys]


# -- command handlers: (poset, args) -> (JSON chunks, text lines, exit code) --


def _cmd_poset_check(poset, args):
    payload = {
        "mode": "poset-check",
        "elements": len(poset),
        "covers": len(poset.covers),
        "pairs": poset.npairs,
    }
    lines = _lines(payload, "elements", "covers", "pairs") + ["ok"]
    return _json(payload), lines, 0


def _cmd_der_basis(poset, args):
    ring = parse_ring(args.ring)
    rows = deriv._derivation_rref(poset, ring)
    payload = {"mode": "der-basis", "ring": ring.designator(), "dimension": len(rows)}
    # Text prints the dimension only, so only JSON writes the basis; it is
    # refused before its first byte.
    if args.format_ == "json":
        scalars = payload["dimension"] * poset.npairs**2
        if scalars > BASIS_SCALAR_CAP:
            raise AlgebraError(
                f"the basis has {scalars} scalars, above the cap of {BASIS_SCALAR_CAP}"
            )
    lines = _lines(payload, "ring", "dimension")
    return _basis_json(poset, ring, rows, payload), lines, 0


def _basis_json(poset, ring, rows, payload):
    """The canonical dump of payload plus its "basis" list, map by map."""
    head, tail = deriv._split_json(payload, "basis")
    yield head
    for k, text in enumerate(deriv.derivation_basis_json(poset, ring, rows)):
        yield "," + text if k else text
    yield tail + "\n"


def _cmd_der_h1(poset, args):
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


def _cmd_der_decompose(poset, args):
    d = _read_endo(poset, args.map)
    dec = deriv.decompose(d)
    payload = dec.to_json()
    lines = [
        f"alpha entries: {len(dec.alpha.entries)}",
        f"sigma entries: {len(dec.sigma.entries)}",
        f"residual: {dec.residual_norm}",
    ]
    return _json(payload), lines, 0


# The locder and theorem handlers import locder themselves, so that the
# poset and der verbs never compile it.


def _verdict_exit(verdict: str) -> int:
    from . import locder

    if verdict in (locder.VERDICT_REJECTED, locder.VERDICT_REFUTED):
        return 1
    return 0


def _cmd_locder_verify(poset, args):
    from . import locder

    d = _read_endo(poset, args.map)
    if args.mode == "exhaustive":
        report = locder.check_local_exhaustive(d)
    else:
        report = locder.check_local_spanning(d, seed=args.seed)
    payload = report.to_json()
    lines = _lines(payload, "mode", "ring", "verdict", "probes_checked")
    if "failing_probe" in payload:
        lines.append(
            "failing_probe: " + json.dumps(payload["failing_probe"], sort_keys=True)
        )
    return _json(payload), lines, _verdict_exit(report.verdict)


def _cmd_locder_lemmas(poset, args):
    from . import locder

    d = _read_endo(poset, args.map)
    report = locder.lemma_conformance(d, seed=args.seed)
    payload = report.to_json()
    lines = [f"ring: {report.ring}"]
    for name, passed in sorted(payload["checks"].items()):
        lines.append(f"{name}: {'pass' if passed else 'FAIL'}")
    lines.append(f"all: {'pass' if report.all_pass else 'FAIL'}")
    return _json(payload), lines, 0 if report.all_pass else 1


def _cmd_theorem_enumerate(poset, args):
    from . import locder

    ring = parse_ring(args.ring)
    if ring.kind != "zp":
        raise RingError("theorem enumerate needs a zp ring")
    report = locder.theorem_verify_enumerate(poset, ring.p)
    payload = report.to_json()
    lines = _lines(payload, "ring", "verdict", "s_der", "s_loc")
    lines.append(f"endos: {payload['probes_checked']}")
    return _json(payload), lines, _verdict_exit(report.verdict)


def _cmd_theorem_random(poset, args):
    from . import locder

    ring = parse_ring(args.ring)
    report = locder.theorem_verify_random(poset, ring, args.trials, args.seed)
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


# -- each verb's handler and its arguments after the poset, in help order;
# every verb also takes --format and --out.

_MAP = ("map", {})
_MODE = ("--mode", {"choices": ("exhaustive", "spanning"), "default": "exhaustive"})
_TRIALS = ("--trials", {"type": _positive_int, "default": 50})
_SEED = ("--seed", {"type": int, "default": 0})


def _ring(default):
    return "--ring", {"default": default}


_VERBS = {
    ("poset", "check"): (_cmd_poset_check,),
    ("der", "basis"): (_cmd_der_basis, _ring("q")),
    ("der", "h1"): (_cmd_der_h1, _ring("q")),
    ("der", "decompose"): (_cmd_der_decompose, _MAP),
    ("locder", "verify"): (_cmd_locder_verify, _MAP, _MODE, _SEED),
    ("locder", "lemmas"): (_cmd_locder_lemmas, _MAP, _SEED),
    ("theorem", "enumerate"): (_cmd_theorem_enumerate, _ring("zp:2")),
    ("theorem", "random"): (_cmd_theorem_random, _ring("q"), _TRIALS, _SEED),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fia")
    groups = top.add_subparsers(dest="group", required=True)
    commands = {}
    for (group, command), (handler, *specs) in _VERBS.items():
        if group not in commands:
            commands[group] = groups.add_parser(group).add_subparsers(
                dest="command", required=True
            )
        p = commands[group].add_parser(command)
        p.add_argument("poset")
        for name, kwargs in specs:
            p.add_argument(name, **kwargs)
        p.add_argument(
            "--format", choices=("json", "text"), default="text", dest="format_"
        )
        p.add_argument("--out", default=None, help="write output to a file")
        p.set_defaults(handler=handler)
    return top


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        json_chunks, lines, code = args.handler(_read_poset(args.poset), args)
        text = (line + "\n" for line in lines)
        _emit(json_chunks if args.format_ == "json" else text, args.out)
    except (
        PosetError,
        RingError,
        AlgebraError,
        CapExceededError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

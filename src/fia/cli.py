"""Command-line front end.

Verbs: poset check, der basis | h1 | decompose, locder verify | lemmas,
theorem enumerate | random.  JSON output is byte-deterministic (sorted
keys, canonical entry order); exit code 0 means success or a confirmed
verdict, 1 a rejected or refuted verdict, 2 a usage, parse or IO error.

Every check and cap runs before the first byte is written, so a refusal
leaves the output empty.  A reader that closes stdout early, a full disk
or any other stdout write error gets one error line and exit 2, since
the report was cut short.  A process loads only what its verb runs: see
README "Start-up" for why argv is parsed here and not by argparse.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

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


# -- command handlers: (poset, args) -> (payload, text lines, exit code); the
# payload is a dict, dumped once, except der basis's streamed JSON chunks --


def _cmd_poset_check(poset, args):
    payload = {
        "mode": "poset-check",
        "elements": len(poset),
        "covers": len(poset.covers),
        "pairs": poset.npairs,
    }
    return payload, _lines(payload, "elements", "covers", "pairs") + ["ok"], 0


def _cmd_der_basis(poset, args):
    ring = parse_ring(args.ring)
    rows = deriv._derivation_rref(poset, ring)
    payload = {"mode": "der-basis", "ring": ring.designator(), "dimension": len(rows)}
    # Text prints the dimension only, so only JSON writes the basis, straight
    # from Der's sparse reduced rows; it is refused before its first byte.
    if args.format == "json":
        scalars = payload["dimension"] * poset.npairs**2
        if scalars > BASIS_SCALAR_CAP:
            raise AlgebraError(
                f"the basis has {scalars} scalars, above the cap of {BASIS_SCALAR_CAP}"
            )
    lines = _lines(payload, "ring", "dimension")
    return deriv.derivation_basis_json(poset, ring, rows, payload), lines, 0


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
    return payload, _lines(payload, "ring", "dim_derivations", "dim_inner", "h1"), 0


def _cmd_der_decompose(poset, args):
    dec = deriv.decompose(_read_endo(poset, args.map))
    lines = [
        f"alpha entries: {len(dec.alpha.entries)}",
        f"sigma entries: {len(dec.sigma.entries)}",
        f"residual: {dec.residual_norm}",
    ]
    return dec.to_json(), lines, 0


# The locder and theorem handlers import locder themselves, so that the
# poset and der verbs never compile it.


def _verdict(report, *keys):
    """A verdict report's payload, its "key: value" lines and its exit code."""
    from . import locder

    payload = report.to_json()
    refuted = report.verdict in (locder.VERDICT_REJECTED, locder.VERDICT_REFUTED)
    return payload, _lines(payload, *keys), int(refuted)


def _cmd_locder_verify(poset, args):
    from . import locder

    d = _read_endo(poset, args.map)
    if args.mode == "exhaustive":
        report = locder.check_local_exhaustive(d)
    else:
        report = locder.check_local_spanning(d, seed=args.seed)
    payload, lines, code = _verdict(report, "mode", "ring", "verdict", "probes_checked")
    if "failing_probe" in payload:
        lines.append(
            "failing_probe: " + json.dumps(payload["failing_probe"], sort_keys=True)
        )
    return payload, lines, code


def _cmd_locder_lemmas(poset, args):
    from . import locder

    report = locder.lemma_conformance(_read_endo(poset, args.map), seed=args.seed)
    lines = [f"ring: {report.ring}"]
    for name, passed in sorted(report.checks.items()):
        lines.append(f"{name}: {'pass' if passed else 'FAIL'}")
    lines.append(f"all: {'pass' if report.all_pass else 'FAIL'}")
    return report.to_json(), lines, 0 if report.all_pass else 1


def _cmd_theorem_enumerate(poset, args):
    from . import locder

    ring = parse_ring(args.ring)
    if ring.kind != "zp":
        raise RingError("theorem enumerate needs a zp ring")
    report = locder.theorem_verify_enumerate(poset, ring.p)
    payload, lines, code = _verdict(report, "ring", "verdict", "s_der", "s_loc")
    lines.append(f"endos: {payload['probes_checked']}")
    return payload, lines, code


def _cmd_theorem_random(poset, args):
    from . import locder

    ring = parse_ring(args.ring)
    report = locder.theorem_verify_random(poset, ring, args.trials, args.seed)
    return _verdict(report, "ring", "verdict", "trials", "seed", "probes_checked")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


# -- each verb's handler, its operands after the poset and its options, in
# help order.  An option is (name, default, kind), kind a tuple of choices
# or a converter.  Every verb also takes _OUTPUT.

_MODE = ("--mode", "exhaustive", ("exhaustive", "spanning"))
_TRIALS = ("--trials", 50, _positive_int)
_SEED = ("--seed", 0, _integer)
_OUTPUT = (("--format", "text", ("json", "text")), ("--out", None, str))


def _ring(default):
    return "--ring", default, str


_VERBS = {
    ("poset", "check"): (_cmd_poset_check, ()),
    ("der", "basis"): (_cmd_der_basis, (), _ring("q")),
    ("der", "h1"): (_cmd_der_h1, (), _ring("q")),
    ("der", "decompose"): (_cmd_der_decompose, ("map",)),
    ("locder", "verify"): (_cmd_locder_verify, ("map",), _MODE, _SEED),
    ("locder", "lemmas"): (_cmd_locder_lemmas, ("map",), _SEED),
    ("theorem", "enumerate"): (_cmd_theorem_enumerate, (), _ring("zp:2")),
    ("theorem", "random"): (_cmd_theorem_random, (), _ring("q"), _TRIALS, _SEED),
}


class UsageError(Exception):
    """A command line that fits no verb: (the verb words read, message)."""


def _is_option(token: str) -> bool:
    # A lone dash and a negative number are operands or option values.
    return token[:1] == "-" and token != "-" and not token[1:].isdecimal()


def _next_words(words) -> list[str]:
    """The words that may follow words on the way to a verb, in _VERBS order."""
    n = len(words)
    return list(dict.fromkeys(verb[n] for verb in _VERBS if verb[:n] == words))


def _usage(words) -> str:
    """The usage line of the verb words, or of the verbs that words begin."""
    if words not in _VERBS:
        choices = "{" + ",".join(_next_words(words)) + "}"
        return " ".join(["usage: fia", *words, "[-h]", choices, "..."])
    _, operands, *options = _VERBS[words]
    parts = [
        f"[{name} {{{','.join(kind)}}}]" if isinstance(kind, tuple)
        else f"[{name} {name[2:].upper()}]"
        for name, _, kind in (*options, *_OUTPUT)
    ]
    return " ".join(["usage: fia", *words, "[-h]", "poset", *operands, *parts])


def _choose(words, what, text, choices):
    if text not in choices:
        listed = ", ".join(choices)
        message = f"argument {what}: invalid choice: {text!r} (choose from {listed})"
        raise UsageError(words, message)


def parse_args(argv):
    """The namespace a handler reads: group, command, handler, poset, the
    verb's other operands and options, format and out.

    Options match by their whole name, take their value as the next
    argument or after "=", may stand before, between or after the
    operands, and the last of a repeated option wins.  Raises UsageError.
    """
    words, rest = (), list(argv)
    while words not in _VERBS:
        what = ("group", "command")[len(words)]
        if not rest:
            raise UsageError(words, f"the following arguments are required: {what}")
        _choose(words, what, rest[0], _next_words(words))
        words += (rest.pop(0),)
    handler, operands, *options = _VERBS[words]
    operands, options = ("poset", *operands), (*options, *_OUTPUT)
    kinds = {name: kind for name, _, kind in options}
    args = {name[2:]: default for name, default, _ in options}
    given, unknown = [], []
    tokens = iter(rest)
    for token in tokens:
        if not _is_option(token):
            (given if len(given) < len(operands) else unknown).append(token)
            continue
        name, eq, text = token.partition("=")
        kind = kinds.get(name)
        if kind is None:
            unknown.append(token)
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or _is_option(text):
                raise UsageError(words, f"argument {name}: expected one argument")
        if isinstance(kind, tuple):
            _choose(words, name, text, kind)
            kind = str
        try:
            args[name[2:]] = kind(text)
        except ValueError as exc:
            raise UsageError(words, f"argument {name}: {exc}") from None
    if len(given) < len(operands):
        missing = ", ".join(operands[len(given):])
        raise UsageError(words, f"the following arguments are required: {missing}")
    if unknown:
        raise UsageError(words, f"unrecognized arguments: {' '.join(unknown)}")
    args.update(zip(operands, given))
    return SimpleNamespace(group=words[0], command=words[1], handler=handler, **args)


def _help() -> str:
    """The usage line of fia and of every verb, in _VERBS order."""
    verbs = [_usage(verb).replace("usage:", " ", 1) for verb in _VERBS]
    return "\n".join([_usage(()), "", "verbs:", *verbs, ""])


def run(argv) -> int:
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help())
        return 0
    try:
        args = parse_args(argv)
    except UsageError as exc:
        words, message = exc.args
        print(_usage(words), f"fia: error: {message}", sep="\n", file=sys.stderr)
        return 2
    try:
        payload, lines, code = args.handler(_read_poset(args.poset), args)
        if args.format == "text":
            payload = (line + "\n" for line in lines)
        elif isinstance(payload, dict):
            payload = [deriv._canonical_json(payload) + "\n"]
        _emit(payload, args.out)
    except (PosetError, RingError, AlgebraError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

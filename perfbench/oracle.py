"""Expected answers for every benchmark job, computed without fia's solver.

Two kinds of facts are used.  Closed forms from the order complex (see
posets.PosetSpec.h1): dim Inner = npairs - components and dim Der =
dim Inner + h1 (Baclawski 1972; Gerstenhaber-Schack 1983).  And direct
evaluation of the defining formulas on the generated maps: the Leibniz
rule on every pair of basis units, and the residual of the split
d = [alpha, .] + diagonal.  Both work on plain Python values, so a
wrong answer from the library cannot make its own check pass.
"""

from __future__ import annotations

import json


def _reduce(v, p):
    return v % p if p else v


def leibniz_holds(pairs, cols, p=None) -> bool:
    """Whether d(e_s e_t) = d(e_s) e_t + e_s d(e_t) on every pair of units.

    pairs is the canonical pair list, cols[t][r] the coefficient of unit r
    in the image of unit t (Fraction over Q, int residues mod p).
    """
    pos = {pair: t for t, pair in enumerate(pairs)}
    n = len(pairs)
    for s, (a, b) in enumerate(pairs):
        for t, (c, e) in enumerate(pairs):
            rhs = {}
            # d(e_ab) e_ce keeps the units (x, c) of d(e_ab).
            for r, (x, y) in enumerate(pairs):
                if y == c and cols[s][r]:
                    key = pos[(x, e)]
                    rhs[key] = rhs.get(key, 0) + cols[s][r]
            # e_ab d(e_ce) keeps the units (b, y) of d(e_ce) when they start at b.
            for r, (x, y) in enumerate(pairs):
                if x == b and cols[t][r]:
                    key = pos[(a, y)]
                    rhs[key] = rhs.get(key, 0) + cols[t][r]
            lhs = cols[pos[(a, e)]] if b == c else [0] * n
            for r in range(n):
                if _reduce(rhs.get(r, 0) - lhs[r], p) != 0:
                    return False
    return True


def split_residual(pairs, cols, p=None) -> int:
    """Off-diagonal entries left after removing the commutator with alpha.

    alpha(x, y) is the (x, y) coefficient of d(e_yy); the commutator
    [alpha, e_uv] has alpha(x, u) at (x, v) and -alpha(v, w) at (u, w).
    The count is zero exactly when d is inner plus diagonal.
    """
    pos = {pair: t for t, pair in enumerate(pairs)}
    alpha = {(x, y): cols[pos[(y, y)]][t] for t, (x, y) in enumerate(pairs)}
    residual = 0
    for t, (u, v) in enumerate(pairs):
        col = list(cols[t])
        for r, (x, y) in enumerate(pairs):
            if y == v and (x, u) in alpha:
                col[r] -= alpha[(x, u)]
            if x == u and (v, y) in alpha:
                col[r] += alpha[(v, y)]
        residual += sum(
            1 for r in range(len(pairs)) if r != t and _reduce(col[r], p) != 0
        )
    return residual


# -- checking job results ----------------------------------------------------


def _lookup(payload, path):
    for key in path.split("."):
        payload = payload[key]
    return payload


def check_payload(verb: str, expect: dict, payload) -> list[str]:
    """Problems with a report payload: fields, then per-verb invariants."""
    problems = []
    for path, want in sorted(expect.items()):
        try:
            got = _lookup(payload, path)
        except (KeyError, TypeError):
            problems.append(f"{path} missing")
            continue
        if got != want:
            problems.append(f"{path} = {got!r}, expected {want!r}")
    try:
        if verb == "h1" and (
            payload["dim_derivations"] - payload["dim_inner"] != payload["h1"]
        ):
            problems.append("dim_derivations - dim_inner != h1")
        if verb == "basis" and len(payload["basis"]) != payload["dimension"]:
            problems.append("basis length differs from dimension")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed {verb} payload: {exc!r}")
    return problems


def check_outcome(verb: str, exit_code: int, expect: dict, out) -> list[str]:
    """Problems with one CLI run (a runner.Measured); empty means it passed."""
    if out.timed_out:
        return ["timed out"]
    problems = []
    if out.exit_code != exit_code:
        problems.append(f"exit code {out.exit_code}, expected {exit_code}")
    if b"Traceback" in out.stderr:
        problems.append("traceback on stderr")
    try:
        payload = json.loads(out.stdout)
    except ValueError:
        return problems + ["stdout is not one JSON report"]
    return problems + check_payload(verb, expect, payload)

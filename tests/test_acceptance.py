"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line with its
elapsed time and enforcing the stated runtime budget.  Derived numbers
are re-established here by independent oracles: brute-force Leibniz
checks through convolve, full scans of enumerated derivation sets, and
entry-level reconstructions of the algebra operations.  The final test
runs every report-producing criterion a second time and demands
byte-identical JSON across the two runs.
"""

import hashlib
import itertools
import json
import random
import time

from fia.deriv import (
    LinearEndo,
    decompose,
    derivation_basis,
    inner,
    is_cocycle,
    is_derivation,
    sigma_endo,
)
from fia.fialg import (
    FiElement,
    convolve,
    delta,
    element,
    moebius,
    restrict,
    subset_idempotent,
    unit,
    zeta,
)
from fia.locder import (
    check_local_exhaustive,
    lemma_conformance,
    theorem_verify_enumerate,
)
from fia.poset import Poset, random_poset
from fia.scalars import GF, QQ, ZZ

from helpers import (
    ANTICHAIN2,
    CHAIN2,
    CHAIN3,
    SINGLETON,
    leibniz_on_units,
    random_element,
)

BUDGETS = {1: 10.0, 2: 1.0, 3: 60.0, 4: 30.0, 5: 60.0, 6: 60.0, 7: 30.0}

TITLES = {
    1: "theorem enumeration, 2-chain over zp:2",
    2: "theorem enumeration, degenerate posets",
    3: "constructive decomposition, 200 random derivations",
    4: "cocycle iff derivation, all small-poset sigma maps",
    5: "lemma suite over 50 random posets",
    6: "rejection soundness, 200 random non-derivations",
    7: "algebra core property suites",
}

_cache: dict = {}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


# -- oracle helpers ---------------------------------------------------------


def _unit_mult_tables(poset, ring):
    """Left/right unit multiplication tables derived through convolve."""
    els = poset.elements
    n = poset.npairs
    units = [unit(poset, ring, els[i], els[j]) for i, j in poset.ipairs]
    pos = poset.pair_pos
    prod = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            got = convolve(units[a], units[b])
            if got.entries:
                ((pair, _),) = got.entries.items()
                prod[a][b] = pos(*pair)
    return prod


def _matvec_mod(cols, vec, p, n):
    return tuple(
        sum(vec[c] * cols[c][r] for c in range(n)) % p for r in range(n)
    )


def _brute_theorem_sets(poset, p):
    """S_der and S_loc for every linear endo over GF(p), solver-free.

    Leibniz is checked on unit pairs through the convolve-derived product
    table; locality is checked by scanning the enumerated derivation set
    for a pointwise match at every probe element.
    """
    ring = GF(p)
    n = poset.npairs
    prod = _unit_mult_tables(poset, ring)
    probes = list(itertools.product(range(p), repeat=n))

    def leibniz(cols):
        for a in range(n):
            for b in range(n):
                k = prod[a][b]
                lhs = cols[k] if k is not None else [0] * n
                rhs = [0] * n
                for t in range(n):
                    va = cols[a][t]
                    if va:
                        s = prod[t][b]
                        if s is not None:
                            rhs[s] = (rhs[s] + va) % p
                    vb = cols[b][t]
                    if vb:
                        s = prod[a][t]
                        if s is not None:
                            rhs[s] = (rhs[s] + vb) % p
                if list(lhs) != rhs:
                    return False
        return True

    endos = []
    for flat in itertools.product(range(p), repeat=n * n):
        endos.append([list(flat[c * n:(c + 1) * n]) for c in range(n)])
    s_der = [cols for cols in endos if leibniz(cols)]
    der_key = {tuple(map(tuple, cols)) for cols in s_der}

    s_loc = []
    for cols in endos:
        local = True
        for vec in probes:
            target = _matvec_mod(cols, vec, p, n)
            if not any(
                _matvec_mod(w, vec, p, n) == target for w in s_der
            ):
                local = False
                break
        if local:
            s_loc.append(cols)
    loc_key = {tuple(map(tuple, cols)) for cols in s_loc}
    return der_key, loc_key


# -- criterion 1 ------------------------------------------------------------


def criterion_1():
    der_set, loc_set = _brute_theorem_sets(CHAIN2, 2)
    report = theorem_verify_enumerate(CHAIN2, 2)
    lib = report.to_json()
    agree = all(
        is_derivation(LinearEndo(CHAIN2, GF(2), [list(c) for c in cols]))
        for cols in der_set
    )
    ok = (
        der_set == loc_set
        and len(der_set) == 4
        and lib["verdict"] == "confirmed"
        and lib["s_der"] == 4
        and lib["s_loc"] == 4
        and lib["probes_checked"] == 512
        and agree
    )
    return {
        "pass": ok,
        "library": lib,
        "oracle_s_der": len(der_set),
        "oracle_s_loc": len(loc_set),
        "oracle_sets_equal": der_set == loc_set,
    }


# -- criterion 2 ------------------------------------------------------------


def criterion_2():
    out = {"pass": True, "library": {}, "oracle": {}}
    for name, poset in (("singleton", SINGLETON), ("antichain2", ANTICHAIN2)):
        der_set, loc_set = _brute_theorem_sets(poset, 2)
        n = poset.npairs
        zero_key = {((0,) * n,) * n} if n else {()}
        lib = theorem_verify_enumerate(poset, 2).to_json()
        ok = (
            der_set == loc_set == zero_key
            and lib["verdict"] == "confirmed"
            and lib["s_der"] == 1
            and lib["s_loc"] == 1
        )
        out["pass"] = out["pass"] and ok
        out["library"][name] = lib
        out["oracle"][name] = {"s_der": len(der_set), "s_loc": len(loc_set)}
    return out


# -- criterion 3 ------------------------------------------------------------


def criterion_3():
    trace = []
    failures = 0
    for k in range(200):
        ring = QQ if k < 100 else GF(5)
        rng = random.Random(31_000 + k)
        poset = random_poset(rng.randint(1, 6), rng.random(), 32_000 + k)
        basis = derivation_basis(poset, ring)
        d = LinearEndo.zero(poset, ring)
        for b in basis:
            c = ring.sample(rng)
            if c != ring.zero:
                d = d + b.scale(c)
        dec = decompose(d)
        reduced = d - inner(dec.alpha)
        kills_points = all(
            reduced.apply(subset_idempotent(poset, ring, [x])).is_zero()
            for x in poset.elements
        )
        ok = (
            dec.residual_norm == 0
            and is_cocycle(dec.sigma)
            and inner(dec.alpha) + sigma_endo(dec.sigma) == d
            and kills_points
        )
        if not ok:
            failures += 1
        trace.append(
            [
                poset.digest()[:12],
                ring.designator(),
                len(basis),
                dec.residual_norm,
                bool(ok),
            ]
        )
    return {
        "pass": failures == 0,
        "instances": len(trace),
        "failures": failures,
        "trace_digest": _digest(trace),
    }


# -- criterion 4 ------------------------------------------------------------


def _small_poset_catalog():
    """Every labeled poset on up to 3 points plus the four-point
    antichain, kept when it has at most 5 comparable pairs."""
    posets = []
    for n in (1, 2, 3):
        labels = [f"p{i}" for i in range(n)]
        arrows = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in itertools.product((0, 1), repeat=len(arrows)):
            rel = {a for a, b in zip(arrows, bits) if b}
            if any((j, i) in rel for i, j in rel):
                continue
            if any(
                (i, k) not in rel
                for i, j in rel
                for j2, k in rel
                if j2 == j and i != k
            ):
                continue
            posets.append(
                Poset(labels, [(labels[i], labels[j]) for i, j in rel])
            )
    posets.append(Poset([f"p{i}" for i in range(4)], []))
    return [p for p in posets if p.npairs <= 5]


def criterion_4():
    ring = GF(2)
    posets = _small_poset_catalog()
    maps_checked = 0
    mismatches = 0
    for poset in posets:
        pairs = poset.pairs()
        for bits in itertools.product(range(2), repeat=len(pairs)):
            sigma = element(
                poset, ring, {pair: v for pair, v in zip(pairs, bits)}
            )
            maps_checked += 1
            if is_derivation(sigma_endo(sigma)) != is_cocycle(sigma):
                mismatches += 1
    return {
        "pass": mismatches == 0 and maps_checked > 0,
        "posets": len(posets),
        "maps_checked": maps_checked,
        "mismatches": mismatches,
    }


# -- criterion 5 ------------------------------------------------------------


def criterion_5():
    trace = []
    failures = 0
    members = 0
    for k in range(50):
        rng = random.Random(51_000 + k)
        poset = random_poset(rng.randint(1, 6), rng.random(), 52_000 + k)
        basis = derivation_basis(poset, QQ)
        for b in basis:
            members += 1
            report = lemma_conformance(b, seed=k)
            if not report.all_pass:
                failures += 1
            trace.append([poset.digest()[:12], report.to_json()["checks"]])
    return {
        "pass": failures == 0 and members > 0,
        "posets": 50,
        "basis_members": members,
        "failures": failures,
        "trace_digest": _digest(trace),
    }


# -- criterion 6 ------------------------------------------------------------


def criterion_6():
    ring = GF(3)
    trace = []
    false_accepts = 0
    unwitnessed_everywhere = True
    for k in range(200):
        poset = CHAIN2 if k < 100 else CHAIN3
        n = poset.npairs
        rng = random.Random(61_000 + k)
        cols = None
        while True:
            cand = [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
            if not leibniz_on_units(LinearEndo(poset, ring, cand)):
                cols = cand
                break
        d = LinearEndo(poset, ring, cols)
        report = check_local_exhaustive(d)
        if report.verdict != "rejected":
            false_accepts += 1
            trace.append([k, report.verdict, report.probes_checked])
            continue
        # Independent witness scan: enumerate the whole derivation set
        # and demand a pointwise mismatch at the attached probe.
        basis = derivation_basis(poset, ring)
        vec = [ring.zero] * n
        for pair, v in report.failing_probe.entries.items():
            vec[poset.pair_pos(*pair)] = v
        target = _matvec_mod(cols, vec, 3, n)
        images = [_matvec_mod(b.cols, vec, 3, n) for b in basis]
        found = False
        for coeffs in itertools.product(range(3), repeat=len(basis)):
            combo = tuple(
                sum(c * img[r] for c, img in zip(coeffs, images)) % 3
                for r in range(n)
            )
            if combo == target:
                found = True
                break
        if found:
            unwitnessed_everywhere = False
        trace.append([k, report.verdict, report.probes_checked, found])
    ok = false_accepts == 0 and unwitnessed_everywhere
    return {
        "pass": ok,
        "samples": 200,
        "false_accepts": false_accepts,
        "trace_digest": _digest(trace),
    }


# -- criterion 7 ------------------------------------------------------------


def _restriction_oracle(a, x, y):
    """The corner projection rebuilt entry by entry from its formula."""
    poset, ring = a.poset, a.ring
    i, j = poset.index(x), poset.index(y)
    entries = {}
    v = a.entries.get((i, j))
    if v is not None:
        entries[(i, j)] = v
    for z in poset.interval_idx(i, j):
        if z != j:
            w = a.entries.get((i, z))
            if w is not None:
                entries[(i, z)] = w
        if z != i:
            w = a.entries.get((z, j))
            if w is not None:
                entries[(z, j)] = w
    return FiElement(poset, ring, entries)


def _convolution_oracle(a, b):
    """The product recomputed from its interval sum, pair by pair."""
    poset, ring = a.poset, a.ring
    entries = {}
    for i, j in poset.ipairs:
        acc = ring.zero
        for z in poset.interval_idx(i, j):
            u = a.entries.get((i, z))
            v = b.entries.get((z, j))
            if u is not None and v is not None:
                acc = ring.add(acc, ring.mul(u, v))
        if acc != ring.zero:
            entries[(i, j)] = acc
    return FiElement(poset, ring, entries)


def criterion_7():
    rings = (QQ, ZZ, GF(5), GF(2))
    trace = []
    failures = 0
    for k in range(100):
        rng = random.Random(71_000 + k)
        poset = random_poset(rng.randint(1, 6), rng.random(), 72_000 + k)
        ring = rings[k % 4]
        els = poset.elements
        a = random_element(poset, ring, rng)
        b = random_element(poset, ring, rng)
        c = random_element(poset, ring, rng)
        scal = ring.sample(rng)
        ident = delta(poset, ring)

        checks = {
            "conv_def": a * b == _convolution_oracle(a, b)
            and b * c == _convolution_oracle(b, c),
            "assoc": (a * b) * c == a * (b * c),
            "identity": ident * a == a and a * ident == a,
            "mu_zeta": True,
            "units": True,
            "sandwich": True,
            "restrict_def": True,
            "restrict_ops": True,
            "subset_restrict": True,
        }

        z = zeta(poset, ring)
        m = moebius(poset, ring)
        checks["mu_zeta"] = z * m == ident and m * z == ident

        for (i, j), (u, v) in itertools.product(poset.ipairs, repeat=2):
            e1 = unit(poset, ring, els[i], els[j])
            e2 = unit(poset, ring, els[u], els[v])
            want = (
                unit(poset, ring, els[i], els[v])
                if j == u
                else FiElement(poset, ring, {})
            )
            if e1 * e2 != want:
                checks["units"] = False
                break

        for x, y in poset.pairs():
            ex = subset_idempotent(poset, ring, [x])
            ey = subset_idempotent(poset, ring, [y])
            if ex * a * ey != a.coeff(x, y) * unit(poset, ring, x, y):
                checks["sandwich"] = False
            if restrict(a, x, y) != _restriction_oracle(a, x, y):
                checks["restrict_def"] = False
            ra = restrict(a, x, y)
            if restrict(ra, x, y) != ra:
                checks["restrict_ops"] = False
            if restrict(a + b, x, y) != ra + restrict(b, x, y):
                checks["restrict_ops"] = False
            if restrict(a.scale(scal), x, y) != ra.scale(scal):
                checks["restrict_ops"] = False

        labels = [s for s in els if rng.random() < 0.5]
        ex_set = subset_idempotent(poset, ring, labels)
        for x, y in poset.pairs():
            want = subset_idempotent(
                poset, ring, [s for s in (x, y) if s in labels]
            )
            if restrict(ex_set, x, y) != want:
                checks["subset_restrict"] = False
                break

        ok = all(checks.values())
        if not ok:
            failures += 1
        trace.append([poset.digest()[:12], ring.designator(), checks])
    return {
        "pass": failures == 0,
        "instances": 100,
        "failures": failures,
        "trace_digest": _digest(trace),
    }


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
}


def _run(n, capsys):
    start = time.perf_counter()
    report = CRITERIA[n]()
    elapsed = time.perf_counter() - start
    _cache[n] = report
    verdict = "PASS" if report["pass"] else "FAIL"
    with capsys.disabled():
        print(
            f"[acceptance] criterion {n} ({TITLES[n]}): {verdict}"
            f" in {elapsed:.2f}s (budget {BUDGETS[n]:.0f}s)"
        )
    assert report["pass"], report
    assert elapsed < BUDGETS[n], f"criterion {n} took {elapsed:.2f}s"


def test_criterion_1_theorem_enumeration(capsys):
    _run(1, capsys)


def test_criterion_2_degenerate_enumeration(capsys):
    _run(2, capsys)


def test_criterion_3_constructive_decomposition(capsys):
    _run(3, capsys)


def test_criterion_4_cocycle_iff_derivation(capsys):
    _run(4, capsys)


def test_criterion_5_lemma_suite(capsys):
    _run(5, capsys)


def test_criterion_6_rejection_soundness(capsys):
    _run(6, capsys)


def test_criterion_7_algebra_core(capsys):
    _run(7, capsys)


def test_criterion_8_determinism(capsys):
    byte_views = {}
    for rerun in (False, True):
        reports = {}
        for n, fn in CRITERIA.items():
            if not rerun and n in _cache:
                reports[n] = _cache[n]
            else:
                reports[n] = fn()
        byte_views[rerun] = _canonical(reports)
    ok = byte_views[False] == byte_views[True]
    with capsys.disabled():
        print(
            f"[acceptance] criterion 8 (determinism across reruns):"
            f" {'PASS' if ok else 'FAIL'}"
        )
    assert ok

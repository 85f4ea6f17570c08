"""Local-derivation checks and the theorem harnesses.

A linear map d is a local derivation when every element a has a
derivation witness agreeing with d there, i.e. d(a) lies in the subspace
W_a = {D(a) : D a derivation}.  For exhaustive verify, _images forms the
D_k(a) from sparse rows D_k of Der, reduced once per caller, and d(a)
from d as one such row; the witness test reduces d(a) against their
echelon basis, and witness_for reads a combination of its caller's maps
off the same elimination.  The condition is linear in d, so the local
derivations form a subspace Loc containing the derivations Der.

Verify's exhaustive mode probes every element over a prime field: a
derivation passes every probe without a scan, and any other map is
reduced modulo Der once and that residue scanned up to its first
witness-less probe, skipping the elimination at every probe the residue
sends to zero.  A family longer than PROBE_CAP, a constant that never
picks it, is refused.  Its spanning mode scans T(P) over any field, reads
no Der and checks each map both ways: a non-derivation is rejected at its
first failing probe, a derivation passing every probe is inconclusive,
and a map on which the scan and is_derivation disagree is REFUTED.

Spanning verify and both theorem harnesses rest on T(P).  _t_p_conditions
yields each probe a with what d(a) in W_a = [FI, a] asks of d, a support
or +-1 rows, so no probe eliminates: _t_p_failures walks it once for the
maps that spanning verify or the campaign checks, counting its probes,
and local_dimension takes dim Loc as their nullity, which enumerate
compares with dim Der over a prime field.  T(P) is linear in npairs and
never capped.  Everything runs in one process, in a fixed order, so a
report depends only on its inputs.

Each report is a record, set by keyword where it is built and written by
deriv's one to_json; the lemma checks are one table of named results,
each computed by one predicate.
"""

from __future__ import annotations

import random
import sys
from itertools import chain, islice, product
from math import log10

from . import _linalg
from .deriv import (
    LinearEndo,
    _cocycle_rows,
    _dense_vector,
    _derivation_rref,
    _endo_from_rows,
    _endo_row,
    _Report,
    decompose,
    derivation_dimension,
    idempotent_identity_check,
    is_derivation,
)
from .fialg import (
    AlgebraError,
    CapExceededError,
    FiElement,
    _check_compatible,
    restrict,
    subset_idempotent,
    unit,
)
from .poset import Poset
from .scalars import GF, CoeffRing, RingError

# About 40-55 s of scan at the 19k-28k probes/s measured on the diamond over
# zp:3 for a residue with entries in every column (Python 3.11.7, 2-vCPU shared
# VM).  A probe the residue sends to zero skips the elimination, so one entry
# in column 0 scans about 50k probes/s over zp:3; the cap assumes no such skip.
PROBE_CAP = 1 << 20
# A random campaign holds 2 * trials sample maps at once.  The check charges
# trials * max(npairs^2, 16) scalars: a map's fixed 118 B would hold 15 8-byte
# entries.  That admits 50 trials on the 16-chain (136 pairs): 80 MB and 4.2-5.4 s
# over q, 30 MB and 0.6-0.7 s over zp:101 (Python 3.11.7, 2-vCPU shared VM).
CAMPAIGN_SCALAR_CAP = 1 << 20
# Random elements and subset masks that lemma_conformance draws.
LEMMA_SAMPLES = 3

VERDICT_LOCAL = "local_derivation"
VERDICT_REJECTED = "rejected"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_CONFIRMED = "confirmed"
VERDICT_REFUTED = "REFUTED"


class LocalCheckReport(_Report):
    failing_probe = None


class LemmaReport(_Report):
    """The lemma checks by name, and whether all of them pass."""


class TheoremReport(_Report):
    seed = trials = None


# -- witnesses -------------------------------------------------------------


def _images(ring, rows, vec, n):
    """The images of a dense probe under maps given as sparse rows, zeros dropped."""
    add, mul, zero = ring.add, ring.mul, ring.zero
    for row in rows:
        out = {}
        for var, w in row.items():
            c, r = divmod(var, n)
            v = vec[c]
            if v:
                out[r] = add(out.get(r, zero), mul(v, w))
        yield {r: w for r, w in out.items() if w}


def _residual(ring, rows, vec, n, tagged=False) -> dict:
    """d(a) reduced against an echelon basis of W_a = span{D_k(a)}.

    The rows are those of d and then of the D_k.  d(a) lies in W_a iff
    no variable from 0 up is left.  When tagged, image k carries one more
    variable -1 - k, below every pair, with coefficient one, so the tags
    left over are minus the coefficients of a combination of the D_k(a)
    equal to d(a).  A zero d(a) is returned as it is, before any D_k(a)
    is formed: zero is a combination with every coefficient zero.
    """
    images = _images(ring, rows, vec, n)
    target = next(images)
    if not target:
        return target
    w_a: dict[int, dict] = {}
    for k, img in enumerate(images):
        if tagged:
            img[-1 - k] = ring.one
        _linalg.add_row(w_a, img, ring)
    return _linalg.reduce_vector(target, w_a, ring)


def witness_for(d: LinearEndo, a: FiElement, der_basis) -> LinearEndo | None:
    """A derivation from the span of der_basis agreeing with d at a, if any."""
    poset, ring, n = d.poset, d.ring, d.poset.npairs
    for operand in (a, *der_basis):
        _check_compatible(d, operand)
    rows = [_endo_row(m) for m in (d, *der_basis)]
    rest = _residual(ring, rows, _dense_vector(poset, a), n, True)
    if any(var >= 0 for var in rest):
        return None
    coeffs = (ring.neg(rest.get(-1 - k, ring.zero)) for k in range(len(der_basis)))
    return _endo_from_rows(poset, ring, zip(coeffs, rows[1:]))


# -- the probe scans ---------------------------------------------------------


def _digit_vectors(p: int, n: int):
    """Every vector of n base-p digits, least significant digit first.

    The i-th vector holds the digits of i, so the first is zero.
    """
    return (v[::-1] for v in product(range(p), repeat=n))


def check_local_exhaustive(d: LinearEndo) -> LocalCheckReport:
    """Probe every algebra element over a prime field.

    Probe i is the element whose coefficient on the t-th canonical pair
    is the t-th base-p digit of i, so the p**npairs probes cover the
    algebra.  Their count is charged to PROBE_CAP before any probe, so
    the family is walked whole or not at all.  A derivation is its own
    witness at every probe, so it passes all of them without a scan; any
    other map is scanned up to its first witness-less probe, which is
    attached and which probes_checked counts.  What is scanned is d's
    residue modulo Der: D(a) lies in W_a for every D in Der, so d and
    d - D have witnesses at the same probes, and each probe at which the
    residue's image is zero passes with no elimination.  W_a is read off
    Der's rows, as off T(P) it can exceed [FI, a].  The verdict is
    local_derivation iff every probe has a witness.
    """
    poset, ring = d.poset, d.ring
    if ring.kind != "zp":
        raise RingError("exhaustive probing needs a zp ring")
    total = ring.p**poset.npairs
    if total > PROBE_CAP:
        raise CapExceededError(
            f"{total} exhaustive probes exceed the cap of {PROBE_CAP}"
        )
    designator = ring.designator()
    if not is_derivation(d):
        der = _derivation_rref(poset, ring)
        rows = [_linalg.reduce_vector(_endo_row(d), der, ring), *der.values()]
        for index, vec in enumerate(_digit_vectors(ring.p, poset.npairs), 1):
            if _residual(ring, rows, vec, poset.npairs):
                entries = {pair: v for pair, v in zip(poset.ipairs, vec) if v}
                return LocalCheckReport(
                    mode="exhaustive",
                    verdict=VERDICT_REJECTED,
                    probes_checked=index,
                    ring=designator,
                    failing_probe=FiElement(poset, ring, entries),
                )
    return LocalCheckReport(
        mode="exhaustive", verdict=VERDICT_LOCAL, probes_checked=total, ring=designator
    )


def check_local_spanning(d: LinearEndo, seed: int = 0) -> LocalCheckReport:
    """Scan T(P) over any field; verdicts are inconclusive, rejected or REFUTED.

    d walks T(P) up to its first probe a with d(a) outside W_a = [FI, a],
    which is attached, and is_derivation reads d once.  A non-derivation
    that fails is rejected and a derivation that passes is inconclusive;
    the proof in _t_p_conditions rules out the other two cases, so either
    is REFUTED.  No probe is random, so seed changes nothing.
    """
    poset, ring = d.poset, d.ring
    failures, walked = _t_p_failures(poset, ring, [d])
    report = LocalCheckReport(
        mode="spanning",
        verdict=VERDICT_REJECTED if failures else VERDICT_INCONCLUSIVE,
        probes_checked=walked,
        ring=ring.designator(),
    )
    for _, probe in failures.values():
        entries = {poset.ipairs[t]: ring.one for t in probe}
        report.failing_probe = FiElement(poset, ring, entries)
    if bool(failures) == is_derivation(d):
        report.verdict = VERDICT_REFUTED
    return report


# -- lemma conformance -----------------------------------------------------


def _random_element(poset, ring, rng) -> FiElement:
    """An element with one ring.sample(rng) per pair, in canonical order."""
    values = ((pair, ring.sample(rng)) for pair in poset.ipairs)
    return FiElement(poset, ring, {pair: v for pair, v in values if v != ring.zero})


def lemma_conformance(d: LinearEndo, seed: int = 0) -> LemmaReport:
    """Check the structural facts every derivation satisfies, one by one.

    Probes restriction invariance of corner coefficients, the three-case
    rule for images of subset idempotents, the sign flip between the two
    diagonal units of a pair, the idempotent identity on e_x, e_X and the
    pair idempotents, and the one-pair support of the reduced map.  The
    restriction samples are drawn one at a time, up to the first that
    fails, and the subset masks after them.
    """
    poset, ring = d.poset, d.ring
    els = poset.elements
    n = len(els)
    pos = poset.pair_pos
    rng = random.Random(seed)

    def corners_kept(a):
        return all(
            d.apply_coeff(a, x, y) == d.apply_coeff(restrict(a, x, y), x, y)
            for x, y in poset.pairs()
        )

    def subset_rule_image(mask):
        # d(e_X) is d(e_u) at a pair (u, v) with u in X and v not, d(e_v)
        # there with v in X and u not, and zero at every other pair.
        entries = {}
        for t, (u, v) in enumerate(poset.ipairs):
            u_in, v_in = mask >> u & 1, mask >> v & 1
            if u_in != v_in:
                value = d.cols[pos(u, u) if u_in else pos(v, v)][t]
                if value != ring.zero:
                    entries[(u, v)] = value
        return FiElement(poset, ring, entries)

    checks = {
        "restriction": all(
            corners_kept(_random_element(poset, ring, rng))
            for _ in range(LEMMA_SAMPLES)
        ),
    }
    masks = [rng.getrandbits(n) if n else 0 for _ in range(LEMMA_SAMPLES)]
    subsets = [
        subset_idempotent(poset, ring, [els[i] for i in range(n) if mask >> i & 1])
        for mask in masks
    ]
    checks["subset_rule"] = all(
        d.apply(e) == subset_rule_image(mask) for mask, e in zip(masks, subsets)
    )
    checks["diagonal_sign"] = all(
        d.cols[pos(x, x)][t] == ring.neg(d.cols[pos(y, y)][t])
        for t, (x, y) in enumerate(poset.ipairs)
    )
    checks["idempotent_identity"] = all(
        idempotent_identity_check(d, e)
        for e in chain(
            (subset_idempotent(poset, ring, [x]) for x in els),
            subsets,
            (
                subset_idempotent(poset, ring, [corner]) + unit(poset, ring, x, y)
                for x, y in poset.pairs()
                if x != y
                for corner in (x, y)
            ),
        )
    )
    # The reduced map d - inner(alpha) keeps only diagonal entries iff
    # the split leaves no residual.
    checks["reduced_support"] = decompose(d).residual_norm == 0
    return LemmaReport(
        mode="lemmas",
        ring=ring.designator(),
        seed=seed,
        samples=LEMMA_SAMPLES,
        checks=checks,
        all_pass=all(checks.values()),
    )


# -- T(P): the probes and what each asks of d -------------------------------


def _t_p_conditions(poset: Poset, ring: CoeffRing):
    """T(P) in order, each probe a with what d(a) in W_a = [FI, a] asks of d.

    A probe is the pair positions of its units, coefficient one each:
    every unit e_xy; e_x + e_y, e_x + e_xy and e_xy + e_y for each x < y;
    e_xy + e_xz + e_y + e_yz for each cover (x, y) and z > y.  What it asks
    is exact once d has passed every earlier probe.  Unit e_xy yields S_xy,
    the pairs its W spans: (u, y) for u < x, (x, v) for v > y, and (x, y) when
    x != y.  Any other probe yields rows {c*N + r: +-1} that d must zero:
    1. e_x + e_y: d(e_x)_xy + d(e_y)_xy, so d' = d - [alpha, .] with
       alpha(x, y) = d(e_y)_xy kills each e_x.
    2. e_x + e_xy: d(e_x)_sx - d(e_xy)_sy for s < x; e_xy + e_y:
       d(e_xy)_xt - d(e_y)_yt for t > y.  So d'(e_xy) = sigma(x, y) e_xy.
    3. Chain idempotent c: (1 - c)[f, c](1 - c) = 0 for any f, and
       (1 - c)d'(c)(1 - c) = (sigma(x, z) - sigma(x, y) - sigma(y, z)) e_xz:
       the cocycle row of x < y < z, read on d's diagonal ([alpha, .] cancels).
    So a map passing T(P) is [alpha, .] + D_sigma, sigma a cocycle, over any
    field.  a's pairs lie in one chain, on which a cocycle is a coboundary
    delta f and D_{delta f} = -[sum_w f(w) e_w, .] is inner: W_a = [FI, a].
    """
    n, pos = poset.npairs, poset.pair_pos
    one, minus = ring.one, ring.neg(ring.one)
    below = [[u for u, v in poset.ipairs if v == y != u] for y in range(len(poset))]
    above = [[v for u, v in poset.ipairs if u == x != v] for x in range(len(poset))]
    for x, y in poset.ipairs:
        support = {pos(u, y) for u in below[x]} | {pos(x, v) for v in above[y]}
        yield (pos(x, y),), support if x == y else support | {pos(x, y)}
    for x, y in poset.ipairs:
        if x != y:
            xx, xy, yy = pos(x, x), pos(x, y), pos(y, y)
            yield (xx, yy), [{xx * n + xy: one, yy * n + xy: one}]
            yield (xx, xy), [
                {xx * n + pos(s, x): one, xy * n + pos(s, y): minus} for s in below[x]
            ]
            yield (xy, yy), [
                {xy * n + pos(x, t): one, yy * n + pos(y, t): minus} for t in above[y]
            ]
    # _cocycle_rows yields a row per point, then one per cover chain in order.
    triples = islice(_cocycle_rows(poset, ring), len(poset), None)
    for (x, y, z), row in zip(poset.cover_chains(), triples):
        probe = pos(x, y), pos(x, z), pos(y, y), pos(y, z)
        yield probe, [{t * n + t: v for t, v in row.items()}]


def _t_p_failures(poset: Poset, ring: CoeffRing, maps) -> tuple[dict, int]:
    """{k: (index, probe)} for each map k failing a T(P) probe, and the walk's length.

    The maps walk _t_p_conditions together, each up to its first probe a
    with d(a) outside W_a, the index-th of T(P) counted from one: unit e_c
    fails when d(e_c) leaves S_c, any other probe when one of its rows, read
    off the entries it names, is nonzero on d.  A map that passes every probe
    has no entry; the walk ends at the last map's failure or after |T(P)|.
    """
    n, canonical = poset.npairs, ring.canonical
    pending = {k: d.cols for k, d in enumerate(maps)}
    failures, index = {}, 0
    for index, (probe, condition) in enumerate(_t_p_conditions(poset, ring), 1):
        for k, cols in list(pending.items()):
            if len(probe) == 1:
                col = cols[probe[0]]
                failed = any(col[r] for r in range(n) if r not in condition)
            else:
                failed = any(
                    canonical(sum(v * cols[i // n][i % n] for i, v in row.items()))
                    for row in condition
                )
            if failed:
                failures[k] = index, probe
                del pending[k]
        if not pending:
            break
    return failures, index


def local_dimension(poset: Poset, ring: CoeffRing) -> int:
    """dim Loc over any field, as the nullity of the conditions of T(P).

    The variables are the entries (c, r) with r in S_c, the only ones the
    other probes' rows name, so the nullity is sum |S_c| less their rank.
    Loc lies between Der and the maps passing T(P), which are Der by
    _t_p_conditions, so it is dim Loc; equal to dim Der, it certifies Loc = Der.
    """
    variables, pivots = 0, {}
    for probe, condition in _t_p_conditions(poset, ring):
        if len(probe) == 1:
            variables += len(condition)
        else:
            for row in condition:
                _linalg.add_row(pivots, row, ring)
    return variables - len(pivots)


# -- theorem harness: enumeration ------------------------------------------


def theorem_verify_enumerate(poset: Poset, prime: int) -> TheoremReport:
    """Compare the derivations with the local derivations among all
    linear endomorphisms over GF(prime).

    Both are subspaces, so they hold p^dim Der and p^dim Loc maps and
    coincide iff the dimensions agree; probes_checked counts the maps.
    A count longer than int_max_str_digits allows is refused before any
    work; the T(P) walk of local_dimension is never capped.
    """
    ring = GF(prime)
    n = poset.npairs
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and n * n * log10(prime) >= digits:
        raise CapExceededError(f"{prime}^{n * n} endos exceed {digits} digits")
    total = prime ** (n * n)
    dim_der = derivation_dimension(poset, ring)
    dim_loc = local_dimension(poset, ring)
    verdict = VERDICT_CONFIRMED if dim_loc == dim_der else VERDICT_REFUTED
    return TheoremReport(
        mode="enumerate",
        verdict=verdict,
        ring=ring.designator(),
        s_der=prime**dim_der,
        s_loc=prime**dim_loc,
        probes_checked=total,
    )


# -- theorem harness: random campaigns --------------------------------------


def _non_derivation(poset, ring, rng) -> LinearEndo:
    """A random map that is no derivation, from at most 64 draws."""
    n = poset.npairs
    for _ in range(64):
        cols = [[ring.sample(rng) for _ in range(n)] for _ in range(n)]
        d = LinearEndo(poset, ring, cols)
        if not is_derivation(d):
            return d
    raise RingError("could not sample a non-derivation")


def theorem_verify_random(
    poset: Poset,
    ring: CoeffRing,
    trials: int = 50,
    seed: int = 0,
) -> TheoremReport:
    """Seeded random campaigns for the theorem, certified over any field.

    Random derivations (combinations of the derivation basis) must pass
    is_derivation.  All samples walk T(P), which saturates, in one
    _t_p_failures call, and exactly the non-derivations must fail a probe.
    Each failing sample is charged the index of its first failing probe,
    and any other |T(P)|.  Der's rows only draw the derivation samples.
    """
    if trials < 1:
        raise AlgebraError(f"a campaign needs trials >= 1, got {trials}")
    n = poset.npairs
    if trials * max(n * n, 16) > CAMPAIGN_SCALAR_CAP:
        raise CapExceededError(
            f"{trials} trials of {n}x{n} sample maps, at least 16 scalars each,"
            f" exceed the cap of {CAMPAIGN_SCALAR_CAP} scalars; lower --trials"
        )
    der_rows = _derivation_rref(poset, ring).values()
    rng = random.Random(seed)

    # One rng draws, in order, the derivations and the non-derivations.
    samples = [
        _endo_from_rows(poset, ring, [(ring.sample(rng), row) for row in der_rows])
        for _ in range(trials)
    ]
    if len(der_rows) < n * n:
        samples += [_non_derivation(poset, ring, rng) for _ in range(trials)]
    # Non-derivations met is_derivation while being sampled.
    passed = all(is_derivation(d) for d in samples[:trials])
    failures, walked = _t_p_failures(poset, ring, samples)
    s_loc = len(samples) - len(failures)
    probes = sum(index for index, _ in failures.values()) + s_loc * walked
    confirmed = passed and sorted(failures) == list(range(trials, len(samples)))
    return TheoremReport(
        mode="random",
        verdict=VERDICT_CONFIRMED if confirmed else VERDICT_REFUTED,
        ring=ring.designator(),
        s_der=trials,
        s_loc=s_loc,
        probes_checked=probes,
        seed=seed,
        trials=trials,
    )

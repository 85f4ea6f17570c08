"""Local-derivation checks and the theorem harnesses.

A linear map d is a local derivation when every element a has a
derivation witness agreeing with d there, i.e. d(a) lies in the subspace
W_a = {D(a) : D a derivation}.  For verify, _images forms the D_k(a) from
sparse rows D_k of Der, reduced once per caller, and d(a) from d as one
such row; the witness test reduces d(a) against their echelon basis, and
witness_for reads a combination of its caller's maps off the same
elimination.  The condition is linear in d, so the local derivations form
a subspace Loc containing the derivations Der.

A derivation passes every probe without a scan.  Verify reduces any
other map modulo Der once and scans that residue up to its first
witness-less probe, skipping the elimination at every probe the residue
sends to zero.  Verify's exhaustive mode probes every element over a
prime field; its spanning mode probes the structured families (units,
subset idempotents, the chain elements e_xy + e_yz - e_xz - e_y, seeded
random elements) and never certifies.
A family longer than PROBE_CAP, a constant that never picks it, is refused.

Both theorem harnesses rest on T(P), which saturates over any field, and
read W_a = [FI, a] on its probes from _t_p_spans: local_dimension reads
dim Loc off them, enumerate compares that with dim Der over a prime field,
and the campaign reduces each sampled non-derivation's d(a) against them.
T(P) is linear in npairs, so no cap is charged for it.  Everything runs
in one process, in a fixed order, so a report depends only on its inputs.

Each report is declared once.  The verify and theorem reports write
their set fields through one to_json, and the lemma checks are one
table of named results, each computed by one predicate.
"""

from __future__ import annotations

import random
import sys
from itertools import chain, combinations, product
from math import comb, log10

from . import _linalg
from .deriv import (
    LinearEndo,
    _commutator_rows,
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
# A random campaign holds 2 * trials sample maps at once, each charged npairs^2
# scalars but at least 16, as a map's fixed 118 B would hold 15 8-byte entries.
CAMPAIGN_SCALAR_CAP = 1 << 20
SPANNING_RANDOM_PROBES = 32
SPANNING_SUBSET_LIMIT = 12
# Random elements and subset masks that lemma_conformance draws.
LEMMA_SAMPLES = 3

VERDICT_LOCAL = "local_derivation"
VERDICT_REJECTED = "rejected"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_CONFIRMED = "confirmed"
VERDICT_REFUTED = "REFUTED"


class LocalCheckReport(_Report):
    def __init__(
        self,
        mode: str,
        verdict: str,
        probes_checked: int,
        ring: str,
        failing_probe: FiElement | None = None,
        seed: int | None = None,
    ):
        self.mode = mode
        self.verdict = verdict
        self.probes_checked = probes_checked
        self.ring = ring
        self.failing_probe = failing_probe
        self.seed = seed


class LemmaReport(_Report):
    def __init__(self, ring: str, seed: int, checks: dict[str, bool]):
        self.ring = ring
        self.seed = seed
        self.checks = checks

    @property
    def all_pass(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "mode": "lemmas",
            "ring": self.ring,
            "seed": self.seed,
            "samples": LEMMA_SAMPLES,
            "checks": self.checks,
            "all_pass": self.all_pass,
        }


class TheoremReport(_Report):
    def __init__(
        self,
        mode: str,
        verdict: str,
        ring: str,
        s_der: int,
        s_loc: int,
        probes_checked: int,
        seed: int | None = None,
        trials: int | None = None,
    ):
        self.mode = mode
        self.verdict = verdict
        self.ring = ring
        self.s_der = s_der
        self.s_loc = s_loc
        self.probes_checked = probes_checked
        self.seed = seed
        self.trials = trials


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


# -- the probe scan ----------------------------------------------------------


def _check_local(d, mode, seed=None):
    """The probe scan behind both verify modes.

    The family's length is charged to PROBE_CAP before any probe, so it
    is walked whole or not at all.  A derivation is its own witness at
    every probe, so it passes all of them without a scan; any other map
    is scanned up to its first witness-less probe, which is attached and
    which probes_checked counts.  What is scanned is d's residue modulo
    Der: D(a) lies in W_a for every D in Der, so d and d - D have
    witnesses at the same probes, and each probe at which the residue's
    image is zero passes with no elimination.  W_a is read off Der's rows,
    as off T(P) it can exceed [FI, a].  Passing every probe is
    local_derivation in exhaustive mode and only inconclusive in spanning
    mode.
    """
    poset, ring = d.poset, d.ring
    if mode == "exhaustive":
        total = ring.p**poset.npairs
        vectors = _digit_vectors(ring.p, poset.npairs)
    else:
        total = _spanning_count(poset)
        vectors = (_dense_vector(poset, a) for a in _spanning_probes(poset, ring, seed))
    if total > PROBE_CAP:
        raise CapExceededError(f"{total} {mode} probes exceed the cap of {PROBE_CAP}")
    designator = ring.designator()
    if not is_derivation(d):
        der = _derivation_rref(poset, ring)
        rows = [_linalg.reduce_vector(_endo_row(d), der, ring), *der.values()]
        for index, vec in enumerate(vectors, 1):
            if _residual(ring, rows, vec, poset.npairs):
                entries = {pair: v for pair, v in zip(poset.ipairs, vec) if v}
                probe = FiElement(poset, ring, entries)
                return LocalCheckReport(
                    mode, VERDICT_REJECTED, index, designator, probe, seed
                )
    verdict = VERDICT_LOCAL if mode == "exhaustive" else VERDICT_INCONCLUSIVE
    return LocalCheckReport(mode, verdict, total, designator, seed=seed)


def _digit_vectors(p: int, n: int):
    """Every vector of n base-p digits, least significant digit first.

    The i-th vector holds the digits of i, so the first is zero.
    """
    return (v[::-1] for v in product(range(p), repeat=n))


def check_local_exhaustive(d: LinearEndo) -> LocalCheckReport:
    """Probe every algebra element over a prime field.

    Probe i is the element whose coefficient on the t-th canonical pair
    is the t-th base-p digit of i, so the p**npairs probes cover the
    algebra.  The verdict is local_derivation iff every probe has a
    witness; otherwise the first witness-less probe is attached.
    """
    if d.ring.kind != "zp":
        raise RingError("exhaustive probing needs a zp ring")
    return _check_local(d, "exhaustive")


# -- spanning probes -------------------------------------------------------


def _chain_probe(poset, ring, i, k, j) -> FiElement:
    """e_ik + e_kj - e_ij - e_kk; the four pairs differ, as i < k < j."""
    one, minus_one = ring.one, ring.neg(ring.one)
    return FiElement(
        poset, ring, {(i, k): one, (k, j): one, (i, j): minus_one, (k, k): minus_one}
    )


def _spanning_count(poset) -> int:
    """The length of the spanning family."""
    n = len(poset)
    limit = min(n, SPANNING_SUBSET_LIMIT)
    subsets = sum(comb(n, size) for size in range(limit + 1))
    chains = sum(len(poset.interval_idx(i, j)) - 2 for i, j in poset.ipairs if i != j)
    return poset.npairs + subsets + chains + SPANNING_RANDOM_PROBES


def _spanning_probes(poset, ring, seed):
    """The spanning family in order: units, subsets, chain elements, random."""
    els = poset.elements
    for i, j in poset.ipairs:
        yield unit(poset, ring, els[i], els[j])
    n = len(els)
    for size in range(min(n, SPANNING_SUBSET_LIMIT) + 1):
        for combo in combinations(range(n), size):
            yield subset_idempotent(poset, ring, [els[i] for i in combo])
    for i, j in poset.ipairs:
        for k in poset.interval_idx(i, j):
            if i != k != j:
                yield _chain_probe(poset, ring, i, k, j)
    rng = random.Random(seed)
    for _ in range(SPANNING_RANDOM_PROBES):
        yield _random_element(poset, ring, rng)


def _random_element(poset, ring, rng) -> FiElement:
    """An element with one ring.sample(rng) per pair, in canonical order."""
    values = ((pair, ring.sample(rng)) for pair in poset.ipairs)
    return FiElement(poset, ring, {pair: v for pair, v in values if v != ring.zero})


def check_local_spanning(d: LinearEndo, seed: int = 0) -> LocalCheckReport:
    """Probe the structured families; verdicts are rejected or inconclusive.

    Passing every probe proves nothing, so the positive verdict is only
    inconclusive; a witness-less probe still rejects soundly.
    """
    return _check_local(d, "spanning", seed)


# -- lemma conformance -----------------------------------------------------


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
    return LemmaReport(ring.designator(), seed, checks)


# -- theorem harness: enumeration ------------------------------------------


def _probe_family(poset: Poset):
    """T(P), each probe as the pair positions of its units, coefficient one each.

    In order: every unit e_xy; e_x + e_y, e_x + e_xy and e_xy + e_y for
    each x < y; e_xy + e_xz + e_y + e_yz for each cover (x, y) and z > y.
    On each probe a, W_a = [FI, a]: a's off-diagonal pairs lie in one chain
    x < y < z, on which a cocycle sigma is a coboundary delta f, and
    D_{delta f} = -[sum_w f(w) e_w, .] is inner.  A map d with each d(a) in
    [FI, a] is a derivation over any field, in 3 steps:
    1. Unit e_x puts d(e_x) on the pairs (u, x), (x, v); e_x + e_y makes
       its (x, y) entry minus d(e_y)'s, so d' = d - [alpha, .] kills each e_x.
    2. Then e_x + e_xy, e_xy + e_y and e_xy give d'(e_xy) = sigma(x, y) e_xy.
    3. (1 - c)[f, c](1 - c) = 0 for an idempotent c and any f; for
       the chain idempotent c, (1 - c)d'(c)(1 - c) is (sigma(x, z) -
       sigma(x, y) - sigma(y, z)) e_xz, so sigma is additive on the covers,
       hence a cocycle, and d = [alpha, .] + D_sigma.  No step divides.
    """
    pos = poset.pair_pos
    yield from ((t,) for t in range(poset.npairs))
    for x, y in poset.ipairs:
        if x != y:
            xx, xy, yy = pos(x, x), pos(x, y), pos(y, y)
            yield from ((xx, yy), (xx, xy), (xy, yy))
    for x, y, z in poset.cover_chains():
        yield pos(x, y), pos(x, z), pos(y, y), pos(y, z)


def _t_p_spans(poset: Poset, ring: CoeffRing):
    """Each probe a of T(P), in order, with W_a = [FI, a] in reduced echelon form.

    The commutator rows are filed once by column, as (row k, pair r, value),
    and a's image under row k sums them over a's own columns: about |a|*|P|
    entries.  Zero sums are dropped: on e_x + e_y, [e_xy, .] cancels.
    """
    n = poset.npairs
    by_column = [[] for _ in range(n)]
    for k, row in enumerate(_commutator_rows(poset, ring)):
        for var, v in row.items():
            by_column[var // n].append((k, var % n, v))
    add, zero = ring.add, ring.zero
    for probe in _probe_family(poset):
        images: dict[int, dict] = {}
        for c in probe:
            for k, r, v in by_column[c]:
                image = images.setdefault(k, {})
                image[r] = add(image.get(r, zero), v)
        spans = ({r: v for r, v in image.items() if v} for image in images.values())
        yield probe, _linalg.rref(spans, ring)


def local_dimension(poset: Poset, ring: CoeffRing) -> int:
    """dim Loc over any field, as the nullity of the conditions of T(P).

    Each probe a asks y . d(a) = 0 per annihilator y of W_a from _t_p_spans.
    Unit e_c keeps d(e_c) on the pivots S_c of W_{e_c}, the variables; any
    other a takes y over the union of its S_c.  Loc lies between Der and the
    maps passing T(P), which _probe_family proves are Der, so the nullity is
    dim Loc; equal to dim Der, it certifies Loc = Der.
    """
    n = poset.npairs
    supports = [range(n)] * n
    pivots: dict[int, dict] = {}
    for probe, w_a in _t_p_spans(poset, ring):
        if len(probe) == 1:
            supports[probe[0]] = w_a.keys()
            continue
        union = sorted(set().union(*(supports[c] for c in probe)))
        for y in _linalg.nullspace(w_a, union, ring):
            row = {c * n + r: y[r] for c in probe for r in y if r in supports[c]}
            _linalg.add_row(pivots, row, ring)
    return sum(map(len, supports)) - len(pivots)


def theorem_verify_enumerate(poset: Poset, prime: int) -> TheoremReport:
    """Compare the derivations with the local derivations among all
    linear endomorphisms over GF(prime).

    Both are subspaces, so they hold p^dim Der and p^dim Loc maps and
    coincide iff the dimensions agree; probes_checked counts the maps.
    A count longer than int_max_str_digits allows is refused before any
    work.  The |T(P)| probes that local_dimension walks are never capped,
    as they are linear in npairs.
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
    s_der, s_loc = prime**dim_der, prime**dim_loc
    return TheoremReport("enumerate", verdict, ring.designator(), s_der, s_loc, total)


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
    is_derivation, and random non-derivations must fail a probe of T(P),
    which saturates.  The maps scanned walk the _t_p_spans stream together,
    each up to the first probe a with d(a), the sum of d's columns at a,
    outside W_a; it is charged that probe's index plus one, and any other
    sample |T(P)|.  Der's rows only draw the derivation samples.
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
    passed = [is_derivation(d) for d in samples[:trials]]
    pending = [d for d, ok in zip(samples, passed + [False] * trials) if not ok]
    stops = []
    for index, (probe, w_a) in enumerate(_t_p_spans(poset, ring), 1):
        passing = []
        for d in pending:
            sums = map(sum, zip(*(d.cols[c] for c in probe)))
            image = {r: v for r, v in enumerate(map(ring.canonical, sums)) if v}
            if _linalg.reduce_vector(image, w_a, ring):
                stops.append(index)
            else:
                passing.append(d)
        pending = passing
        if not pending:
            break
    s_loc = len(samples) - len(stops)
    probes = sum(stops) + s_loc * sum(1 for _ in _probe_family(poset))
    return TheoremReport(
        "random",
        VERDICT_CONFIRMED if all(passed) and not pending else VERDICT_REFUTED,
        ring.designator(),
        trials,
        s_loc,
        probes,
        seed=seed,
        trials=trials,
    )

"""Local-derivation checks and the theorem harnesses.

A linear map d is a local derivation when every element a has a
derivation witness agreeing with d there, i.e. d(a) lies in the subspace
W_a = {D(a) : D a derivation}.  _images forms the D_k(a) straight from
Der's cached sparse rows D_k, and d(a) from d as one such row; the
witness test reduces d(a) against their echelon basis, witness_for reads
a combination of its caller's maps off the same elimination, and
local_dimension takes their annihilators.  The condition is linear in d,
so the local derivations form a subspace Loc containing the derivations
Der.

Both verify modes run one scan over a probe family: exhaustive probes
every element of the algebra over a prime field, spanning probes the
structured families (units, subset idempotents, the chain elements
e_xy + e_yz - e_xz - e_y, seeded random elements) and never certifies.
A family longer than the probe cap is refused; a derivation passes every
probe without a scan, and any other map is scanned up to its first
witness-less probe, which the scan hands back with its index.

The theorem harnesses compare Loc with Der, either by rank over a prime
field (dim Loc against dim Der, which settles all p^(n^2) endomorphisms
at once) or by seeded random campaigns.  Everything runs in one process,
in a fixed order, so a report depends only on its inputs.

Each report is declared once.  The verify and theorem reports write
their set fields through one to_json, and the lemma checks are one
table of named results, each computed by one predicate.
"""

from __future__ import annotations

import random
from itertools import chain, combinations, product
from math import comb

from . import _linalg
from .deriv import (
    LinearEndo,
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
    CapExceededError,
    FiElement,
    _check_compatible,
    restrict,
    subset_idempotent,
    unit,
)
from .poset import Poset
from .scalars import GF, CoeffRing, RingError

DEFAULT_PROBE_CAP = 1 << 20
# A random campaign holds 2 * trials sample maps of npairs^2 scalars at once.
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
    no variable below n is left.  When tagged, image k carries one more
    variable n + k with coefficient one, so the tags left over are minus
    the coefficients of a combination of the D_k(a) equal to d(a).
    """
    images = _images(ring, rows, vec, n)
    target = next(images)
    w_a: dict[int, dict] = {}
    for k, img in enumerate(images):
        if tagged:
            img[n + k] = ring.one
        _linalg.add_row(w_a, img, ring)
    return _linalg.reduce_vector(target, w_a, ring)


def witness_for(d: LinearEndo, a: FiElement, der_basis) -> LinearEndo | None:
    """A derivation from the span of der_basis agreeing with d at a, if any."""
    poset, ring, n = d.poset, d.ring, d.poset.npairs
    for operand in (a, *der_basis):
        _check_compatible(d, operand)
    rows = [_endo_row(m) for m in (d, *der_basis)]
    rest = _residual(ring, rows, _dense_vector(poset, a), n, True)
    if any(var < n for var in rest):
        return None
    coeffs = (ring.neg(rest.get(n + k, ring.zero)) for k in range(len(der_basis)))
    return _endo_from_rows(poset, ring, zip(coeffs, rows[1:]))


# -- the probe scan ----------------------------------------------------------


def _first_witnessless(d: LinearEndo, vectors):
    """(index, probe) of the first dense probe vector with no witness, or None."""
    poset, ring, n = d.poset, d.ring, d.poset.npairs
    rows = [_endo_row(d), *_derivation_rref(poset, ring).values()]
    for index, vec in enumerate(vectors):
        if _residual(ring, rows, vec, n):
            entries = {pair: v for pair, v in zip(poset.ipairs, vec) if v}
            return index, FiElement(poset, ring, entries)
    return None


def _refuse_over_cap(total: int, cap: int, mode: str) -> None:
    if total > cap:
        raise CapExceededError(
            f"{total} {mode} probes exceed the cap of {cap};"
            " raise --probe-cap to allow"
        )


def _check_local(d, derivation, mode, cap, seed=None):
    """The probe scan behind both verify modes; derivation is is_derivation(d).

    A family of more than cap probes is refused, never cut short.  A
    derivation is its own witness at every probe, so it passes all of
    them without a scan; any other map is scanned up to its first
    witness-less probe, which is attached and which probes_checked counts.
    Passing every probe is local_derivation in exhaustive mode and only
    inconclusive in spanning mode.
    """
    poset, ring = d.poset, d.ring
    if mode == "exhaustive":
        p, n = ring.p, poset.npairs
        total, vectors = p**n, _digit_vectors(p, n)
    else:
        total = _spanning_count(poset)
        vectors = (_dense_vector(poset, a) for a in _spanning_probes(poset, ring, seed))
    _refuse_over_cap(total, DEFAULT_PROBE_CAP if cap is None else cap, mode)
    designator = ring.designator()
    fail = None if derivation else _first_witnessless(d, vectors)
    if fail is None:
        verdict = VERDICT_LOCAL if mode == "exhaustive" else VERDICT_INCONCLUSIVE
        return LocalCheckReport(mode, verdict, total, designator, seed=seed)
    index, probe = fail
    return LocalCheckReport(
        mode,
        VERDICT_REJECTED,
        index + 1,
        designator,
        failing_probe=probe,
        seed=seed,
    )


def _digit_vectors(p: int, n: int):
    """Every vector of n base-p digits, least significant digit first.

    The i-th vector holds the digits of i, so the first is zero.  One
    list is yielded, changed in place between steps.
    """
    digits = [0] * n
    while True:
        yield digits
        for t in range(n):
            digits[t] += 1
            if digits[t] < p:
                break
            digits[t] = 0
        else:
            return


def check_local_exhaustive(
    d: LinearEndo,
    probe_cap: int | None = None,
) -> LocalCheckReport:
    """Probe every algebra element over a prime field.

    Probe i is the element whose coefficient on the t-th canonical pair
    is the t-th base-p digit of i, so the p**npairs probes cover the
    algebra.  The verdict is local_derivation iff every probe has a
    witness; otherwise the first witness-less probe is attached.
    """
    if d.ring.kind != "zp":
        raise RingError("exhaustive probing needs a zp ring")
    return _check_local(d, is_derivation(d), "exhaustive", probe_cap)


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


def check_local_spanning(
    d: LinearEndo,
    seed: int = 0,
    probe_cap: int | None = None,
) -> LocalCheckReport:
    """Probe the structured families; verdicts are rejected or inconclusive.

    Passing every probe proves nothing, so the positive verdict is only
    inconclusive; a witness-less probe still rejects soundly.
    """
    if not d.ring.is_field():
        raise RingError("witness solving needs a field")
    return _check_local(d, is_derivation(d), "spanning", probe_cap, seed)


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


def _vectors_by_support(p: int, n: int):
    """Every nonzero vector of n base-p digits whose first nonzero digit
    is 1, those with fewer nonzero digits first.

    Up to a scalar these are all p^n - 1 nonzero vectors.  A fresh list
    is yielded each time.
    """
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            for rest in product(range(1, p), repeat=size - 1):
                digits = [0] * n
                for t, v in zip(support, (1, *rest)):
                    digits[t] = v
                yield digits


def local_dimension(poset: Poset, ring: CoeffRing) -> int:
    """dim Loc over a prime field, as the nullity of the probe conditions.

    Each probe a adds the rows y . d(a) = 0 on the n^2 entries of d, one
    per annihilator y of W_a.  Probes are taken up to a scalar (first
    nonzero digit 1), units first and then by support size, since sparse
    probes tend to carry the most conditions, and elimination stops once
    the rank reaches n^2 - dim Der, its maximum since Der lies in Loc.
    """
    if ring.kind != "zp":
        raise RingError("the local-derivation space needs a zp ring")
    n = poset.npairs
    p = ring.p
    der_rows = _derivation_rref(poset, ring).values()
    saturated = n * n - len(der_rows)
    pivots: dict[int, dict] = {}
    rank = 0
    for digits in _vectors_by_support(p, n):
        if rank == saturated:
            break
        w_a = _linalg.rref(_images(ring, der_rows, digits, n), ring)
        for y in _linalg.nullspace(w_a, n, ring):
            row = {
                c * n + r: ring.mul(a, v)
                for c, a in enumerate(digits) if a
                for r, v in enumerate(y) if v
            }
            rank += _linalg.add_row(pivots, row, ring)
    return n * n - rank


def theorem_verify_enumerate(
    poset: Poset,
    prime: int,
    probe_cap: int | None = None,
) -> TheoremReport:
    """Compare the derivations with the local derivations among all
    linear endomorphisms over GF(prime).

    Both are subspaces, so they hold p^dim Der and p^dim Loc maps and
    coincide iff the dimensions agree; probes_checked counts the maps.
    local_dimension walks at most the p^npairs exhaustive probes, so
    that is what the probe cap bounds.
    """
    ring = GF(prime)
    n = poset.npairs
    cap = DEFAULT_PROBE_CAP if probe_cap is None else probe_cap
    _refuse_over_cap(prime**n, cap, "exhaustive")
    total = prime ** (n * n)
    dim_der = derivation_dimension(poset, ring)
    dim_loc = local_dimension(poset, ring)
    verdict = VERDICT_CONFIRMED if dim_loc == dim_der else VERDICT_REFUTED
    s_der, s_loc = prime**dim_der, prime**dim_loc
    return TheoremReport("enumerate", verdict, ring.designator(), s_der, s_loc, total)


# -- theorem harness: random campaigns --------------------------------------


def theorem_verify_random(
    poset: Poset,
    ring: CoeffRing,
    trials: int = 50,
    seed: int = 0,
    probe_cap: int | None = None,
) -> TheoremReport:
    """Seeded random campaigns for the theorem.

    Random derivations (combinations of the derivation basis) must pass
    the local checks and decompose exactly with a cocycle diagonal part;
    random non-derivations must be rejected.  Over a prime field within
    the probe cap the local check is exhaustive, otherwise spanning; a
    spanning family longer than the cap is refused, since a truncated
    one can let a non-derivation through.
    """
    if not ring.is_field():
        raise RingError("theorem campaigns need a field")
    cap = DEFAULT_PROBE_CAP if probe_cap is None else probe_cap
    n = poset.npairs
    if trials * n * n > CAMPAIGN_SCALAR_CAP:
        raise CapExceededError(
            f"{trials} trials of {n}x{n} sample maps exceed the cap of"
            f" {CAMPAIGN_SCALAR_CAP} scalars; lower --trials"
        )
    mode = "exhaustive" if ring.kind == "zp" and ring.p**n <= cap else "spanning"
    if mode == "spanning":
        _refuse_over_cap(_spanning_count(poset), cap, mode)
    der_rows = _derivation_rref(poset, ring).values()
    rng = random.Random(seed)

    der_samples = [
        _endo_from_rows(poset, ring, [(ring.sample(rng), row) for row in der_rows])
        for _ in range(trials)
    ]

    non_samples = []
    if len(der_rows) < n * n:
        for _ in range(trials):
            for _ in range(64):
                cols = [[ring.sample(rng) for _ in range(n)] for _ in range(n)]
                d = LinearEndo(poset, ring, cols)
                if not is_derivation(d):
                    non_samples.append(d)
                    break
            else:
                raise RingError("could not sample a non-derivation")
    der_seeds = [rng.randrange(1 << 32) for _ in range(trials)]
    non_seeds = [rng.randrange(1 << 32) for _ in range(len(non_samples))]

    # Non-derivations met is_derivation while being sampled.
    der_flags = [is_derivation(d) for d in der_samples]
    der_reports = [
        _check_local(d, flag, mode, cap, span_seed)
        for d, flag, span_seed in zip(der_samples, der_flags, der_seeds)
    ]
    non_reports = [
        _check_local(d, False, mode, cap, span_seed)
        for d, span_seed in zip(non_samples, non_seeds)
    ]
    der_local = [r.verdict != VERDICT_REJECTED for r in der_reports]
    non_local = [r.verdict != VERDICT_REJECTED for r in non_reports]
    der_ok = all(der_local) and all(der_flags)
    verdict = VERDICT_CONFIRMED if der_ok and not any(non_local) else VERDICT_REFUTED
    probes = sum(r.probes_checked for r in der_reports + non_reports)
    return TheoremReport(
        "random",
        verdict,
        ring.designator(),
        len(der_samples),
        sum(der_local) + sum(non_local),
        probes,
        seed=seed,
        trials=trials,
    )

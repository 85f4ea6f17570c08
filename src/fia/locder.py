"""Local-derivation checks and the theorem harnesses.

A linear map d is a local derivation when every element a has a
derivation witness agreeing with d there, i.e. d(a) lies in the subspace
W_a = {D(a) : D a derivation}; the test is exact elimination into an
echelon basis of W_a.
The condition is linear in d, so the local derivations form a subspace
Loc containing the derivations Der.

The exhaustive checker accepts a map in the derivation span at once (it
is its own witness everywhere) and otherwise probes every element of
the algebra over a prime field, up to the first witness-less probe.  The
spanning checker probes the structured families (units, subset
idempotents, the chain elements e_xy + e_yz - e_xz - e_y, seeded random
elements) and never certifies.

The theorem harnesses compare Loc with Der, either by rank over a prime
field (dim Loc against dim Der, which settles all p^(n^2) endomorphisms
at once) or by seeded random campaigns.  Everything runs in one process,
in a fixed order, so a report depends only on its inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from . import _linalg
from .deriv import (
    LinearEndo,
    decompose,
    derivation_basis,
    derivation_span_rref,
    endo_in_span,
    idempotent_identity_check,
    is_cocycle,
    is_derivation,
)
from .fialg import FiElement, element, restrict, subset_idempotent, unit
from .poset import Poset
from .scalars import GF, CoeffRing, RingError

DEFAULT_PROBE_CAP = 1 << 20
DEFAULT_ENDO_CAP = 1 << 24

VERDICT_LOCAL = "local_derivation"
VERDICT_REJECTED = "rejected"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_CONFIRMED = "confirmed"
VERDICT_REFUTED = "REFUTED"


class CapExceededError(ValueError):
    """The requested enumeration is larger than the configured cap."""


@dataclass
class Witness:
    element: FiElement
    derivation: LinearEndo


@dataclass
class LocalCheckReport:
    mode: str
    verdict: str
    probes_checked: int
    ring: str
    failing_probe: FiElement | None = None
    seed: int | None = None

    def to_json(self) -> dict:
        out = {
            "mode": self.mode,
            "verdict": self.verdict,
            "probes_checked": self.probes_checked,
            "ring": self.ring,
        }
        if self.failing_probe is not None:
            out["failing_probe"] = self.failing_probe.to_json()
        if self.seed is not None:
            out["seed"] = self.seed
        return out


@dataclass
class LemmaReport:
    ring: str
    seed: int
    samples: int
    restriction: bool
    subset_rule: bool
    diagonal_sign: bool
    idempotent_identity: bool
    reduced_support: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.restriction
            and self.subset_rule
            and self.diagonal_sign
            and self.idempotent_identity
            and self.reduced_support
        )

    def to_json(self) -> dict:
        return {
            "mode": "lemmas",
            "ring": self.ring,
            "seed": self.seed,
            "samples": self.samples,
            "checks": {
                "restriction": self.restriction,
                "subset_rule": self.subset_rule,
                "diagonal_sign": self.diagonal_sign,
                "idempotent_identity": self.idempotent_identity,
                "reduced_support": self.reduced_support,
            },
            "all_pass": self.all_pass,
        }


@dataclass
class TheoremReport:
    mode: str
    verdict: str
    ring: str
    s_der: int
    s_loc: int
    probes_checked: int
    seed: int | None = None
    trials: int | None = None

    def to_json(self) -> dict:
        out = {
            "mode": self.mode,
            "verdict": self.verdict,
            "ring": self.ring,
            "s_der": self.s_der,
            "s_loc": self.s_loc,
            "probes_checked": self.probes_checked,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.trials is not None:
            out["trials"] = self.trials
        return out


# -- witnesses -------------------------------------------------------------


def _dense_vector(poset: Poset, a: FiElement):
    vec = [a.ring.zero] * poset.npairs
    pos = poset.pair_pos
    for pair, v in a.entries.items():
        vec[pos(*pair)] = v
    return vec


def _matvec(ring, cols, vec, n):
    out = [ring.zero] * n
    for c in range(n):
        v = vec[c]
        if v:
            col = cols[c]
            for r in range(n):
                w = col[r]
                if w:
                    out[r] = ring.add(out[r], ring.mul(v, w))
    return out


def _sparse(vec) -> dict:
    return {r: v for r, v in enumerate(vec) if v}


def _vec_has_witness(ring, basis_cols, d_cols, vec, n) -> bool:
    """Whether d(a) lies in W_a = span{D(a)}, for a given as a dense vector."""
    w_a: dict[int, dict] = {}
    for cols in basis_cols:
        _linalg.add_row(w_a, _sparse(_matvec(ring, cols, vec, n)), ring)
    target = _sparse(_matvec(ring, d_cols, vec, n))
    return not _linalg.reduce_vector(target, w_a, ring)


def witness_for(d: LinearEndo, a: FiElement, der_basis) -> Witness | None:
    """A derivation from the span of der_basis agreeing with d at a, if any."""
    ring = d.ring
    n = d.poset.npairs
    vec = _dense_vector(d.poset, a)
    images = [_matvec(ring, b.cols, vec, n) for b in der_basis]
    rows = [[img[t] for img in images] for t in range(n)]
    sol = _linalg.solve(rows, _matvec(ring, d.cols, vec, n), ring)
    if sol is None:
        return None
    witness = LinearEndo.zero(d.poset, ring)
    for coeff, b in zip(sol, der_basis):
        if coeff != ring.zero:
            witness = witness + b.scale(coeff)
    return Witness(a, witness)


# -- exhaustive probing ----------------------------------------------------


def _decode_digits(index: int, base: int, count: int):
    digits = []
    for _ in range(count):
        index, d = divmod(index, base)
        digits.append(d)
    return digits


def _increment(digits, base) -> None:
    for t in range(len(digits)):
        digits[t] += 1
        if digits[t] == base:
            digits[t] = 0
        else:
            return


def _probe_element(poset: Poset, ring: CoeffRing, index: int) -> FiElement:
    digits = _decode_digits(index, ring.p, poset.npairs)
    entries = {
        pair: digits[t] for t, pair in enumerate(poset.ipairs) if digits[t]
    }
    return FiElement(poset, ring, entries)


def _first_witnessless(poset, ring, d_cols, basis_cols):
    """Least probe index with no witness, or None.

    Probe i is the element whose coefficient on the t-th canonical pair is
    the t-th base-p digit of i, so probe 0 is zero and probing all
    p**npairs indices covers the whole algebra.
    """
    n = poset.npairs
    p = ring.p
    digits = [0] * n
    for e in range(p ** n):
        if not _vec_has_witness(ring, basis_cols, d_cols, digits, n):
            return e
        _increment(digits, p)
    return None


def check_local_exhaustive(
    d: LinearEndo,
    probe_cap: int | None = None,
) -> LocalCheckReport:
    """Probe every algebra element over a prime field.

    The verdict is local_derivation iff every probe has a witness, and
    then probes_checked is the number of algebra elements.  A map in the
    derivation span is its own witness everywhere and needs no probing;
    otherwise the canonically first witness-less probe is attached and
    probes_checked counts up to and including it.
    """
    ring = d.ring
    if ring.kind != "zp":
        raise RingError("exhaustive probing needs a zp ring")
    cap = DEFAULT_PROBE_CAP if probe_cap is None else probe_cap
    poset = d.poset
    total = ring.p ** poset.npairs
    if total > cap:
        raise CapExceededError(
            f"{total} probes exceed the cap of {cap}; raise --probe-cap to allow"
        )
    designator = ring.designator()
    if endo_in_span(d, derivation_span_rref(poset, ring)):
        return LocalCheckReport("exhaustive", VERDICT_LOCAL, total, designator)
    basis_cols = [b.cols for b in derivation_basis(poset, ring)]
    fail = _first_witnessless(poset, ring, d.cols, basis_cols)
    if fail is None:
        return LocalCheckReport("exhaustive", VERDICT_LOCAL, total, designator)
    return LocalCheckReport(
        "exhaustive",
        VERDICT_REJECTED,
        fail + 1,
        designator,
        failing_probe=_probe_element(poset, ring, fail),
    )


# -- spanning probes -------------------------------------------------------


def _chain_probe(poset, ring, i, k, j) -> FiElement:
    one = ring.one
    entries = {(i, k): one, (k, j): one}
    for pair, delta_v in (((i, j), ring.neg(one)), ((k, k), ring.neg(one))):
        v = ring.add(entries.get(pair, ring.zero), delta_v)
        if v != ring.zero:
            entries[pair] = v
        else:
            entries.pop(pair, None)
    return FiElement(poset, ring, entries)


def _spanning_probes(poset, ring, seed, random_probes, subset_limit, cap):
    """Deterministic probe list: units, subsets, chain elements, random."""
    probes = []
    els = poset.elements
    for i, j in poset.ipairs:
        probes.append(unit(poset, ring, els[i], els[j]))
    n = len(els)
    for size in range(0, min(n, subset_limit) + 1):
        for combo in combinations(range(n), size):
            probes.append(subset_idempotent(poset, ring, [els[i] for i in combo]))
            if len(probes) >= cap:
                return probes[:cap]
    for i, j in poset.ipairs:
        if i == j:
            continue
        for k in poset.interval_idx(i, j):
            if k != i and k != j:
                probes.append(_chain_probe(poset, ring, i, k, j))
    rng = random.Random(seed)
    for _ in range(random_probes):
        entries = {}
        for pair in poset.ipairs:
            v = ring.sample(rng)
            if v != ring.zero:
                entries[pair] = v
        probes.append(FiElement(poset, ring, entries))
    return probes[:cap]


def check_local_spanning(
    d: LinearEndo,
    seed: int = 0,
    random_probes: int = 32,
    subset_limit: int = 12,
    probe_cap: int | None = None,
) -> LocalCheckReport:
    """Probe the structured families; verdicts are rejected or inconclusive.

    Passing every probe proves nothing, so the positive verdict is only
    inconclusive; a witness-less probe still rejects soundly.
    """
    ring = d.ring
    if not ring.is_field():
        raise RingError("witness solving needs a field")
    cap = DEFAULT_PROBE_CAP if probe_cap is None else probe_cap
    poset = d.poset
    basis_cols = [b.cols for b in derivation_basis(poset, ring)]
    n = poset.npairs
    checked = 0
    for probe in _spanning_probes(poset, ring, seed, random_probes, subset_limit, cap):
        vec = _dense_vector(poset, probe)
        checked += 1
        if not _vec_has_witness(ring, basis_cols, d.cols, vec, n):
            return LocalCheckReport(
                "spanning",
                VERDICT_REJECTED,
                checked,
                ring.designator(),
                failing_probe=probe,
                seed=seed,
            )
    return LocalCheckReport(
        "spanning", VERDICT_INCONCLUSIVE, checked, ring.designator(), seed=seed
    )


# -- lemma conformance -----------------------------------------------------


def lemma_conformance(d: LinearEndo, seed: int = 0, samples: int = 3) -> LemmaReport:
    """Check the structural facts every derivation satisfies, one by one.

    Probes restriction invariance of corner coefficients, the three-case
    rule for images of subset idempotents, the sign flip between the two
    diagonal units of a pair, the idempotent identity on e_x, e_X and the
    pair idempotents, and the one-pair support of the reduced map.
    """
    poset, ring = d.poset, d.ring
    els = poset.elements
    n = len(els)
    pos = poset.pair_pos
    zero_raw = ring.zero
    rng = random.Random(seed)

    ok_restriction = True
    for _ in range(samples):
        a = element(
            poset,
            ring,
            {
                (els[i], els[j]): ring.sample(rng)
                for i, j in poset.ipairs
            },
        )
        for i, j in poset.ipairs:
            x, y = els[i], els[j]
            left = d.apply_coeff(a, x, y)
            right = d.apply_coeff(restrict(a, x, y), x, y)
            if left != right:
                ok_restriction = False
                break
        if not ok_restriction:
            break

    masks = [rng.getrandbits(n) if n else 0 for _ in range(samples)]
    ok_subset = True
    for mask in masks:
        labels = [els[i] for i in range(n) if mask >> i & 1]
        image = d.apply(subset_idempotent(poset, ring, labels))
        for t, (u, v) in enumerate(poset.ipairs):
            got = image.entries.get((u, v), zero_raw)
            u_in = mask >> u & 1
            v_in = mask >> v & 1
            if u_in and not v_in:
                want = d.cols[pos(u, u)][t]
            elif v_in and not u_in:
                want = d.cols[pos(v, v)][t]
            else:
                want = zero_raw
            if got != want:
                ok_subset = False
                break
        if not ok_subset:
            break

    ok_sign = True
    for t, (x, y) in enumerate(poset.ipairs):
        if d.cols[pos(x, x)][t] != ring.neg(d.cols[pos(y, y)][t]):
            ok_sign = False
            break

    ok_idem = True
    for x in els:
        if not idempotent_identity_check(d, subset_idempotent(poset, ring, [x])):
            ok_idem = False
            break
    if ok_idem:
        for mask in masks:
            labels = [els[i] for i in range(n) if mask >> i & 1]
            if not idempotent_identity_check(
                d, subset_idempotent(poset, ring, labels)
            ):
                ok_idem = False
                break
    if ok_idem:
        for i, j in poset.ipairs:
            if i == j:
                continue
            x, y = els[i], els[j]
            e_pair = unit(poset, ring, x, y)
            for corner in (x, y):
                e = subset_idempotent(poset, ring, [corner]) + e_pair
                if not idempotent_identity_check(d, e):
                    ok_idem = False
                    break
            if not ok_idem:
                break

    # The reduced map d - inner(alpha) keeps only diagonal entries iff
    # the split leaves no residual.
    ok_support = decompose(d).residual_norm == 0

    return LemmaReport(
        ring=ring.designator(),
        seed=seed,
        samples=samples,
        restriction=ok_restriction,
        subset_rule=ok_subset,
        diagonal_sign=ok_sign,
        idempotent_identity=ok_idem,
        reduced_support=ok_support,
    )


# -- theorem harness: enumeration ------------------------------------------


def local_dimension(poset: Poset, ring: CoeffRing) -> int:
    """dim Loc over a prime field, as the nullity of the probe conditions.

    Each probe a adds the rows y . d(a) = 0 on the n^2 entries of d, one
    per annihilator y of W_a.  Probes are taken up to a scalar (first
    nonzero digit 1), and elimination stops once the rank reaches
    n^2 - dim Der, its maximum since Der lies in Loc.
    """
    if ring.kind != "zp":
        raise RingError("the local-derivation space needs a zp ring")
    n = poset.npairs
    p = ring.p
    basis_cols = [b.cols for b in derivation_basis(poset, ring)]
    saturated = n * n - len(basis_cols)
    pivots: dict[int, dict] = {}
    rank = 0
    digits = [0] * n
    for _ in range(p ** n - 1):
        if rank == saturated:
            break
        _increment(digits, p)
        if next(v for v in digits if v) != 1:
            continue
        images = (_matvec(ring, cols, digits, n) for cols in basis_cols)
        w_a = _linalg.rref((_sparse(img) for img in images), ring)
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
    endo_cap: int | None = None,
) -> TheoremReport:
    """Compare the derivations with the local derivations among all
    linear endomorphisms over GF(prime).

    Both are subspaces, so they hold p^dim Der and p^dim Loc maps and
    coincide iff the dimensions agree; probes_checked counts the maps.
    """
    ring = GF(prime)
    cap = DEFAULT_ENDO_CAP if endo_cap is None else endo_cap
    n = poset.npairs
    total = prime ** (n * n)
    if total > cap:
        raise CapExceededError(
            f"{total} endomorphisms exceed the cap of {cap};"
            " raise --endo-cap to allow"
        )
    dim_der = len(derivation_basis(poset, ring))
    dim_loc = local_dimension(poset, ring)
    verdict = VERDICT_CONFIRMED if dim_loc == dim_der else VERDICT_REFUTED
    s_der, s_loc = prime**dim_der, prime**dim_loc
    return TheoremReport("enumerate", verdict, ring.designator(), s_der, s_loc, total)


# -- theorem harness: random campaigns --------------------------------------


def _random_endo_cols(poset, ring, rng):
    n = poset.npairs
    return [[ring.sample(rng) for _ in range(n)] for _ in range(n)]


def _check_der_sample(poset, ring, cols, use_exhaustive, span_seed, cap):
    d = LinearEndo(poset, ring, cols)
    if use_exhaustive:
        report = check_local_exhaustive(d, probe_cap=cap)
        ok_local = report.verdict == VERDICT_LOCAL
    else:
        report = check_local_spanning(d, seed=span_seed, probe_cap=cap)
        ok_local = report.verdict == VERDICT_INCONCLUSIVE
    dec = decompose(d)
    ok_dec = dec.residual_norm == 0 and is_cocycle(dec.sigma)
    return ok_local, ok_dec, report.probes_checked


def _check_non_sample(poset, ring, cols, use_exhaustive, span_seed, cap):
    d = LinearEndo(poset, ring, cols)
    if use_exhaustive:
        report = check_local_exhaustive(d, probe_cap=cap)
    else:
        report = check_local_spanning(d, seed=span_seed, probe_cap=cap)
    return report.verdict == VERDICT_REJECTED, report.probes_checked


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
    the probe cap the local check is exhaustive, otherwise spanning.
    """
    if not ring.is_field():
        raise RingError("theorem campaigns need a field")
    cap = DEFAULT_PROBE_CAP if probe_cap is None else probe_cap
    n = poset.npairs
    basis = derivation_basis(poset, ring)
    use_exhaustive = ring.kind == "zp" and ring.p ** n <= cap
    rng = random.Random(seed)

    der_samples = []
    for _ in range(trials):
        coeffs = [ring.sample(rng) for _ in basis]
        d = LinearEndo.zero(poset, ring)
        for c, b in zip(coeffs, basis):
            if c != ring.zero:
                d = d + b.scale(c)
        der_samples.append(d.cols)

    sample_non = len(basis) < n * n
    non_samples = []
    if sample_non:
        for _ in range(trials):
            for _ in range(64):
                cols = _random_endo_cols(poset, ring, rng)
                if not is_derivation(LinearEndo(poset, ring, cols)):
                    non_samples.append(cols)
                    break
            else:
                raise RingError("could not sample a non-derivation")
    der_seeds = [rng.randrange(1 << 32) for _ in range(trials)]
    non_seeds = [rng.randrange(1 << 32) for _ in range(len(non_samples))]

    der_results = [
        _check_der_sample(poset, ring, cols, use_exhaustive, span_seed, cap)
        for cols, span_seed in zip(der_samples, der_seeds)
    ]
    non_results = [
        _check_non_sample(poset, ring, cols, use_exhaustive, span_seed, cap)
        for cols, span_seed in zip(non_samples, non_seeds)
    ]

    probes = sum(r[-1] for r in der_results) + sum(r[-1] for r in non_results)
    der_ok = all(ok_local and ok_dec for ok_local, ok_dec, _ in der_results)
    non_ok = all(rejected for rejected, _ in non_results)
    verdict = VERDICT_CONFIRMED if (der_ok and non_ok) else VERDICT_REFUTED
    s_der = len(der_samples)
    s_loc = sum(1 for ok_local, _, _ in der_results if ok_local) + sum(
        0 if rejected else 1 for rejected, _ in non_results
    )
    return TheoremReport(
        "random",
        verdict,
        ring.designator(),
        s_der,
        s_loc,
        probes,
        seed=seed,
        trials=trials,
    )

import functools
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from fia import _linalg, deriv, locder
from fia.deriv import (
    LinearEndo,
    _derivation_rref,
    derivation_basis,
    derivation_dimension,
    inner,
    inner_basis,
    is_derivation,
    sigma_endo,
)
from fia.fialg import AlgebraError, FiElement, delta, element, unit, zero
from fia.locder import (
    CapExceededError,
    LocalCheckReport,
    check_local_exhaustive,
    check_local_spanning,
    lemma_conformance,
    local_dimension,
    theorem_verify_enumerate,
    theorem_verify_random,
    witness_for,
)
from fia.poset import Poset, parse_poset, random_poset
from fia.scalars import GF, QQ, RingError, RingMismatchError

from helpers import (
    ANTICHAIN2,
    CHAIN2,
    CHAIN3,
    CROWN,
    DIAMOND,
    SINGLETON,
    chain,
    commutator_span_basis,
    components,
    dense_rref,
    exhaustive_scan,
    leibniz_kernel_basis,
    leibniz_on_units,
    order_complex_h1,
    random_derivation,
    random_element,
    scan_endomorphisms,
    small_posets,
    span_rref,
    t_p_first_failure,
    t_p_probes,
)

# One poset of each shape with at most four comparable pairs.
SMALL_POSETS = (
    parse_poset("elements:\n"),
    SINGLETON,
    ANTICHAIN2,
    CHAIN2,
    parse_poset("elements: a b c\n"),
    parse_poset("elements: a b c\na < b\n"),
    parse_poset("elements: a b c d\n"),
)


def delta_to_unit_endo(poset, ring, x, y):
    """The endo sending e_x to e_xy and every other unit to zero.

    Its value on the identity is e_xy, which no derivation can match, so
    it is not even a local derivation.
    """
    d = LinearEndo.zero(poset, ring)
    i, j = poset.index(x), poset.index(y)
    d.cols[poset.pair_pos(i, i)][poset.pair_pos(i, j)] = ring.one
    return d


NON_COCYCLE_CHAIN3 = {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 0}


# -- witnesses --------------------------------------------------------------


def test_derivation_is_its_own_witness():
    rng = random.Random(7)
    basis = derivation_basis(CHAIN3, QQ)
    d = random_derivation(CHAIN3, QQ, rng, basis)
    for _ in range(5):
        a = random_element(CHAIN3, QQ, rng)
        w = witness_for(d, a, basis)
        assert w is not None
        assert is_derivation(w)
        assert w.apply(a) == d.apply(a)


def test_witness_none_at_chain_probe():
    # The four-term chain element separates the non-cocycle diagonal map
    # from every derivation at once.
    sigma = element(CHAIN3, QQ, NON_COCYCLE_CHAIN3)
    d = sigma_endo(sigma)
    basis = derivation_basis(CHAIN3, QQ)
    probe = (
        unit(CHAIN3, QQ, "x", "y")
        + unit(CHAIN3, QQ, "y", "z")
        - unit(CHAIN3, QQ, "x", "z")
        - unit(CHAIN3, QQ, "y", "y")
    )
    assert witness_for(d, probe, basis) is None
    # Yet every single unit is witnessed, which is what makes the map
    # look locally plausible.
    for x, y in CHAIN3.pairs():
        assert witness_for(d, unit(CHAIN3, QQ, x, y), basis) is not None


def test_witness_for_against_enumeration_over_gf3():
    # Solver-free oracle: every coefficient vector c in GF(3)^dim is tried
    # by hand, through LinearEndo.apply only.  A witness is a combination
    # of the caller's maps, so two bases spanning less than Der are tried
    # too, and each basis must meet both answers.
    ring = GF(3)
    rng = random.Random(41)
    outcomes = {"der": set(), "inner": set(), "der[:-1]": set()}
    for poset in (CHAIN2, CHAIN3, ANTICHAIN2):
        der = derivation_basis(poset, ring)
        bases = {"der": der, "inner": inner_basis(poset, ring), "der[:-1]": der[:-1]}
        n = poset.npairs
        for _ in range(30):
            cols = [
                [rng.randrange(3) if rng.random() < 0.3 else 0 for _ in range(n)]
                for _ in range(n)
            ]
            d = LinearEndo(poset, ring, cols)
            a = random_element(poset, ring, rng, fill=0.5)
            target = d.apply(a)
            for name, basis in bases.items():
                images = [b.apply(a) for b in basis]
                solvable = False
                for c in itertools.product(range(3), repeat=len(basis)):
                    combo = zero(poset, ring)
                    for ck, img in zip(c, images):
                        combo = combo + img.scale(ck)
                    if combo == target:
                        solvable = True
                        break
                w = witness_for(d, a, basis)
                assert (w is None) == (not solvable)
                outcomes[name].add(solvable)
                if w is not None:
                    assert leibniz_on_units(w)
                    assert w.apply(a) == target
    assert all(seen == {True, False} for seen in outcomes.values())


def test_witness_for_checks_its_operands():
    # As LinearEndo.apply does: an element or a basis map over another
    # poset is an AlgebraError, over another ring a RingMismatchError.
    ring = GF(3)
    other = parse_poset("elements: x y\nx < y\n")
    d = LinearEndo.zero(CHAIN2, ring)
    basis = derivation_basis(CHAIN2, ring)
    e_ab = unit(CHAIN2, ring, "a", "b")
    with pytest.raises(AlgebraError, match="different poset"):
        witness_for(d, unit(other, ring, "x", "y"), basis)
    with pytest.raises(AlgebraError, match="different poset"):
        witness_for(d, e_ab, derivation_basis(other, ring))
    half = element(CHAIN2, QQ, {("a", "b"): Fraction(1, 2)})
    with pytest.raises(RingMismatchError):
        witness_for(d, half, basis)
    with pytest.raises(RingMismatchError):
        witness_for(d, e_ab, derivation_basis(CHAIN2, QQ))


def test_local_checks_read_der_from_its_sparse_rows(monkeypatch):
    # Der is read as sparse rows and never densified: the local checks
    # and local_dimension build no map at all, and a campaign builds one
    # map per sample.
    ring = GF(3)
    d = sigma_endo(element(CHAIN3, ring, NON_COCYCLE_CHAIN3))
    assert not is_derivation(d)
    dim_der = len(_derivation_rref(CHAIN3, GF(2)))
    built = []
    init = LinearEndo.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(LinearEndo, "__init__", counting)
    assert check_local_exhaustive(d).verdict == "rejected"
    assert check_local_spanning(d, seed=3).verdict == "rejected"
    assert local_dimension(CHAIN3, GF(2)) == dim_der
    assert built == []
    report = theorem_verify_random(CHAIN3, QQ, trials=6, seed=2)
    assert report.verdict == "confirmed"
    # Six derivation samples and six non-derivations: no random q map is
    # a derivation, so no non-sample is drawn twice.
    assert len(built) == 12


# -- exhaustive probing ------------------------------------------------------


def test_exhaustive_accepts_derivations():
    rng = random.Random(11)
    for poset, ring in ((CHAIN2, GF(2)), (CHAIN2, GF(3)), (CHAIN3, GF(2))):
        basis = derivation_basis(poset, ring)
        d = random_derivation(poset, ring, rng, basis)
        report = check_local_exhaustive(d)
        assert report.verdict == "local_derivation"
        assert report.probes_checked == ring.p ** poset.npairs
        assert report.failing_probe is None
        assert report.to_json()["mode"] == "exhaustive"


def test_exhaustive_rejects_at_first_witnessless_probe():
    # Least-significant digit walks the first canonical pair, so the
    # probes run 0, e_aa, e_ab, e_aa+e_ab, e_bb, e_aa+e_bb, ... and the
    # identity e_aa + e_bb at index 5 is the first with no witness.
    d = delta_to_unit_endo(CHAIN2, GF(2), "a", "b")
    report = check_local_exhaustive(d)
    assert report.verdict == "rejected"
    assert report.probes_checked == 6
    assert report.failing_probe == delta(CHAIN2, GF(2))
    obj = report.to_json()
    assert obj["failing_probe"]["entries"][0]["value"] == {"res": 1}
    # Independent confirmation that the attached probe has no witness.
    basis = derivation_basis(CHAIN2, GF(2))
    assert witness_for(d, report.failing_probe, basis) is None


def test_exhaustive_requires_prime_field():
    with pytest.raises(RingError):
        check_local_exhaustive(LinearEndo.zero(CHAIN2, QQ))


def test_exhaustive_probe_cap(monkeypatch):
    d = LinearEndo.zero(CHAIN3, GF(2))
    monkeypatch.setattr(locder, "PROBE_CAP", 32)
    with pytest.raises(CapExceededError, match="cap of 32$"):
        check_local_exhaustive(d)
    monkeypatch.setattr(locder, "PROBE_CAP", 64)
    report = check_local_exhaustive(d)
    assert report.verdict == "local_derivation"


def test_exhaustive_empty_poset():
    empty = parse_poset("elements:\n")
    report = check_local_exhaustive(LinearEndo.zero(empty, GF(2)))
    assert report.verdict == "local_derivation"
    assert report.probes_checked == 1


def _scanned(monkeypatch, check, *args):
    """check(*args) with every map taken for a non-derivation, so it scans."""
    with monkeypatch.context() as m:
        m.setattr(locder, "is_derivation", lambda d: False)
        return check(*args)


def test_exhaustive_derivation_report_matches_full_scan(monkeypatch):
    # A derivation is accepted without probing; the report must be the
    # one the verb's own scan of every probe gives.
    rng = random.Random(29)
    cases = [(poset, GF(2)) for poset in SMALL_POSETS]
    cases += [(CHAIN2, GF(3)), (CHAIN3, GF(2))]
    for poset, ring in cases:
        basis = derivation_basis(poset, ring)
        total = ring.p ** poset.npairs
        for _ in range(3):
            d = random_derivation(poset, ring, rng, basis)
            expected = LocalCheckReport(
                mode="exhaustive",
                verdict="local_derivation",
                probes_checked=total,
                ring=ring.designator(),
            )
            assert check_local_exhaustive(d).to_json() == expected.to_json()
            scan = _scanned(monkeypatch, check_local_exhaustive, d)
            assert scan.to_json() == expected.to_json()


def test_exhaustive_scan_of_the_residue_matches_a_solver_free_scan():
    # The scan walks d's residue modulo Der and skips each probe at which
    # that residue's image is zero.  On random non-derivations of every
    # density, raw and added to a derivation, it must stop where a scan
    # of d itself against the Leibniz kernel does.
    rng = random.Random(53)
    stops = set()
    for poset in (*small_posets(3), CHAIN2, CHAIN3):
        n = poset.npairs
        for ring in (GF(2), GF(3)):
            basis = derivation_basis(poset, ring)
            for fill, on_der in itertools.product((1, 2, 3, n * n), (False, True)):
                if on_der:
                    d = random_derivation(poset, ring, rng, basis)
                else:
                    d = LinearEndo.zero(poset, ring)
                for _ in range(fill):
                    d.cols[rng.randrange(n)][rng.randrange(n)] = ring.sample(rng)
                if is_derivation(d):
                    continue
                report = check_local_exhaustive(d)
                probes, probe = exhaustive_scan(d)
                assert report.verdict == "rejected"
                assert (report.probes_checked, report.failing_probe) == (probes, probe)
                stops.add(probes)
    assert len(stops) > 10


def test_exhaustive_probe_cap_applies_to_derivations(monkeypatch):
    basis = derivation_basis(CHAIN3, GF(2))
    d = random_derivation(CHAIN3, GF(2), random.Random(5), basis)
    monkeypatch.setattr(locder, "PROBE_CAP", 63)
    with pytest.raises(CapExceededError, match="cap of 63$"):
        check_local_exhaustive(d)


# -- spanning probes ---------------------------------------------------------


def test_spanning_rejects_non_cocycle_diagonal_map():
    sigma = element(CHAIN3, QQ, NON_COCYCLE_CHAIN3)
    report = check_local_spanning(sigma_endo(sigma), seed=0)
    assert report.verdict == "rejected"
    # 6 units, 3 two-unit probes per x < y, then the one chain idempotent:
    # only that last probe sees sigma(x, z) != sigma(x, y) + sigma(y, z).
    assert report.probes_checked == 16
    assert report.failing_probe == (
        unit(CHAIN3, QQ, "x", "y")
        + unit(CHAIN3, QQ, "x", "z")
        + unit(CHAIN3, QQ, "y", "y")
        + unit(CHAIN3, QQ, "y", "z")
    )


def test_spanning_is_only_inconclusive_on_derivations():
    rng = random.Random(13)
    basis = derivation_basis(CHAIN3, QQ)
    d = random_derivation(CHAIN3, QQ, rng, basis)
    report = check_local_spanning(d, seed=9)
    assert report.verdict == "inconclusive"
    # |T(P)| on the 3-chain: 6 units, 9 two-unit probes, 1 chain idempotent.
    assert report.probes_checked == 16
    # No probe is random, so the report carries no seed.
    assert "seed" not in report.to_json()


def test_spanning_deterministic_per_seed():
    # The seed is accepted and changes nothing.
    sigma = element(CHAIN3, QQ, NON_COCYCLE_CHAIN3)
    basis = derivation_basis(CHAIN3, QQ)
    derivation = random_derivation(CHAIN3, QQ, random.Random(3), basis)
    for d in (sigma_endo(sigma), derivation):
        reports = {
            json.dumps(check_local_spanning(d, seed=seed).to_json(), sort_keys=True)
            for seed in (0, 4, 1 << 15)
        }
        assert len(reports) == 1


def test_probe_cap_bounds_exhaustive_only(monkeypatch):
    # A cut-short family could pass a map a later probe rejects, so
    # exhaustive mode refuses a family above the cap, derivation or not.
    # Spanning mode scans T(P), linear in npairs, and has no cap: on 24
    # elements the structured family it once probed had about 9.7 M > 2^20
    # probes, and T(P) has 259.
    sigma = element(CHAIN3, GF(2), NON_COCYCLE_CHAIN3)
    for d in (LinearEndo.zero(CHAIN3, GF(2)), sigma_endo(sigma)):
        monkeypatch.setattr(locder, "PROBE_CAP", 63)
        with pytest.raises(CapExceededError, match="cap of 63$"):
            check_local_exhaustive(d)
    monkeypatch.setattr(locder, "PROBE_CAP", 1)
    poset, ring = random_poset(24, 0.1, 1), GF(3)
    d = random_derivation(poset, ring, random.Random(2), derivation_basis(poset, ring))
    report = check_local_spanning(d)
    assert (report.verdict, report.probes_checked) == ("inconclusive", 259)
    d.cols[-1][0] = ring.add(d.cols[-1][0], ring.one)
    report = check_local_spanning(d)
    assert report.verdict == "rejected"
    assert witness_for(d, report.failing_probe, derivation_basis(poset, ring)) is None


def test_spanning_derivation_report_matches_full_scan():
    # A derivation is scanned through all of T(P) and must pass it, as
    # W_a = [FI, a] holds its image at every probe, so it is inconclusive
    # after |T(P)| probes.
    rng = random.Random(31)
    for poset in (*SMALL_POSETS, DIAMOND, CROWN):
        for ring in (QQ, GF(5)):
            size = sum(1 for _ in locder._t_p_conditions(poset, ring))
            basis = derivation_basis(poset, ring)
            for _ in range(2):
                d = random_derivation(poset, ring, rng, basis)
                expected = LocalCheckReport(
                    mode="spanning",
                    verdict="inconclusive",
                    probes_checked=size,
                    ring=ring.designator(),
                )
                got = check_local_spanning(d, seed=rng.randrange(1 << 16))
                assert got.to_json() == expected.to_json()
                assert locder._t_p_failures(poset, ring, [d]) == ({}, size)


def _non_derivations(poset, ring, rng):
    """A random map and a derivation bumped at one entry, neither in Der."""
    n = poset.npairs
    basis = derivation_basis(poset, ring)
    found = []
    while len(found) < 2:
        if found:
            d = random_derivation(poset, ring, rng, basis)
            d.cols[rng.randrange(n)][rng.randrange(n)] = ring.sample_nonzero(rng)
        else:
            d = LinearEndo(
                poset, ring, [[ring.sample(rng) for _ in range(n)] for _ in range(n)]
            )
        if not is_derivation(d):
            found.append(d)
    return found


def test_failing_probe_is_the_probe_at_probes_checked():
    # The scan hands back the probe it failed at.  Rebuild that probe
    # without the scan, from probes_checked alone: in exhaustive mode it
    # has the base-p digits of probes_checked - 1, in spanning mode it is
    # that entry of T(P), coefficient one on each pair.  It must have no
    # witness.
    rng = random.Random(41)
    indices = set()
    # Every map on the empty poset is a derivation, so it is left out.
    for poset in (*SMALL_POSETS[1:], DIAMOND, CROWN):
        cases = [(ring, "exhaustive") for ring in (GF(2), GF(3))]
        cases += [(ring, "spanning") for ring in (QQ, GF(5), GF(2), GF(3))]
        for ring, mode in cases:
            for d in _non_derivations(poset, ring, rng):
                if mode == "exhaustive":
                    report = check_local_exhaustive(d)
                    index = report.probes_checked - 1
                    digits = [index // ring.p**t % ring.p for t in range(poset.npairs)]
                    entries = {pair: v for pair, v in zip(poset.ipairs, digits) if v}
                    expected = FiElement(poset, ring, entries)
                else:
                    report = check_local_spanning(d)
                    probes = [p for p, _ in locder._t_p_conditions(poset, ring)]
                    probe = probes[report.probes_checked - 1]
                    entries = {poset.ipairs[t]: ring.one for t in probe}
                    expected = FiElement(poset, ring, entries)
                assert report.verdict == "rejected"
                assert report.failing_probe == expected
                basis = derivation_basis(poset, ring)
                assert witness_for(d, report.failing_probe, basis) is None
                indices.add(report.probes_checked)
    # The scan stops at many different probes, not only the first ones.
    assert len(indices) > 10


# -- lemma conformance -------------------------------------------------------


def test_lemmas_pass_on_derivations():
    rng = random.Random(17)
    for ring in (QQ, GF(3)):
        basis = derivation_basis(CHAIN3, ring)
        d = random_derivation(CHAIN3, ring, rng, basis)
        report = lemma_conformance(d, seed=1)
        assert report.all_pass
        obj = report.to_json()
        assert obj["mode"] == "lemmas"
        assert set(obj["checks"]) == {
            "restriction",
            "subset_rule",
            "diagonal_sign",
            "idempotent_identity",
            "reduced_support",
        }
        assert obj["all_pass"] is True


def test_lemmas_flag_sign_violation():
    # d(e_x)(x,y) = 1 with d(e_y)(x,y) = 0 breaks the sign flip and
    # leaves an unexplained off-diagonal entry after reduction.
    d = LinearEndo.zero(CHAIN3, QQ)
    d.cols[CHAIN3.pair_pos(0, 0)][CHAIN3.pair_pos(0, 1)] = QQ.one
    report = lemma_conformance(d, seed=0)
    assert not report.checks["diagonal_sign"]
    assert not report.checks["reduced_support"]
    assert not report.all_pass


def test_lemmas_flag_restriction_violation():
    # d(a)(x,z) reads a(y,y), which restriction to the (x,z) corner kills.
    d = LinearEndo.zero(CHAIN3, QQ)
    d.cols[CHAIN3.pair_pos(1, 1)][CHAIN3.pair_pos(0, 2)] = QQ.one
    report = lemma_conformance(d, seed=0)
    assert not report.checks["restriction"]
    assert not report.all_pass


def test_lemmas_flag_subset_rule_violation():
    # d(e_z)(x,y) = 1: the subset {z} should act as zero on the pair (x, y).
    d = LinearEndo.zero(CHAIN3, QQ)
    d.cols[CHAIN3.pair_pos(2, 2)][CHAIN3.pair_pos(0, 1)] = QQ.one
    report = lemma_conformance(d, seed=0)
    assert not report.checks["subset_rule"]
    assert not report.all_pass


def test_lemmas_flag_idempotent_violation():
    # e_x -> e_x fails d(e) = d(e)e + e d(e) at e = e_x.
    d = LinearEndo.zero(CHAIN2, QQ)
    t = CHAIN2.pair_pos(0, 0)
    d.cols[t][t] = QQ.one
    report = lemma_conformance(d, seed=0)
    assert not report.checks["idempotent_identity"]
    assert not report.all_pass


def test_lemmas_pass_on_inner_maps():
    rng = random.Random(19)
    a = random_element(CHAIN3, QQ, rng)
    assert lemma_conformance(inner(a), seed=2).all_pass


def test_lemmas_cannot_see_cocycle_defects():
    # The structural checks are necessary conditions only: a diagonal map
    # with non-additive sigma passes all five and still gets rejected by
    # the probing check.  Completeness lives in the probes, not here.
    sigma = element(CHAIN3, QQ, NON_COCYCLE_CHAIN3)
    d = sigma_endo(sigma)
    assert lemma_conformance(d, seed=0).all_pass
    assert check_local_spanning(d, seed=0).verdict == "rejected"


# -- theorem harness: enumeration --------------------------------------------


def test_enumerate_two_chain_mod_two():
    report = theorem_verify_enumerate(CHAIN2, 2)
    assert report.verdict == "confirmed"
    assert report.s_der == 4
    assert report.s_loc == 4
    assert report.probes_checked == 512
    obj = report.to_json()
    assert obj["mode"] == "enumerate"
    assert obj["ring"] == "zp:2"
    assert "seed" not in obj and "trials" not in obj


def test_enumerate_degenerate_posets():
    for poset, endos in ((SINGLETON, 2), (ANTICHAIN2, 16)):
        report = theorem_verify_enumerate(poset, 2)
        assert report.verdict == "confirmed"
        # Only the zero map is a derivation, and only it passes probing.
        assert report.s_der == 1
        assert report.s_loc == 1
        assert report.probes_checked == endos


def test_enumerate_endo_cap(monkeypatch):
    # The 2-chain over GF(3) has 3^9 = 19683 endomorphisms, a count of 5
    # digits: a digit limit of 5 admits it and one of 4 refuses it.
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 5, raising=False)
    assert theorem_verify_enumerate(CHAIN2, 3).probes_checked == 19683
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4, raising=False)
    with pytest.raises(CapExceededError, match="3\\^9 endos exceed 4 digits"):
        theorem_verify_enumerate(CHAIN2, 3)


def test_enumerate_matches_endomorphism_scan():
    cases = [(poset, 2) for poset in SMALL_POSETS] + [(CHAIN2, 3)]
    for poset, p in cases:
        n_der, n_loc, agree = scan_endomorphisms(poset, p)
        report = theorem_verify_enumerate(poset, p)
        assert report.s_der == n_der
        assert report.s_loc == n_loc
        assert report.probes_checked == p ** (poset.npairs ** 2)
        assert report.verdict == ("confirmed" if agree else "REFUTED")


def test_enumerate_walks_units_before_denser_probes():
    # Der is zero on an antichain, whose T(P) is its 18 units alone, so
    # the rank computation takes 18 probes, not the 2^18 exhaustive ones.
    antichain = parse_poset("elements: " + " ".join(f"a{t}" for t in range(18)))
    start = time.perf_counter()
    report = theorem_verify_enumerate(antichain, 2)
    assert time.perf_counter() - start < 2
    assert report.verdict == "confirmed"
    assert report.s_der == report.s_loc == 1


def test_local_dimension_equals_derivation_dimension():
    # Out of reach of an endomorphism walk: 2^36, 2^81 and 3^64 maps, and
    # infinitely many over q.
    cases = ((CHAIN3, GF(2)), (DIAMOND, GF(2)), (CROWN, GF(3)), (chain(8), QQ))
    for poset, ring in cases:
        assert local_dimension(poset, ring) == len(derivation_basis(poset, ring))


def test_local_dimension_at_scale_matches_the_order_complex():
    # dim Der = npairs - components + h1 of the order complex, and Loc = Der,
    # far past the census: T(P) needs no elimination per probe.
    labels = [[f"l{k}_{i}" for i in range(8)] for k in range(3)]
    covers = [
        (a, b) for low, high in zip(labels, labels[1:]) for a in low for b in high
    ]
    layers = Poset([label for layer in labels for label in layer], covers)
    for poset in (chain(32), layers, random_poset(40, 0.1, 1)):
        for ring in (GF(101), QQ):
            expected = poset.npairs - components(poset) + order_complex_h1(poset, ring)
            assert local_dimension(poset, ring) == expected


@functools.lru_cache(maxsize=None)
def _oracle_basis(poset, ring):
    return leibniz_kernel_basis(poset, ring)


def _oracle_dimension(poset, ring):
    return len(_oracle_basis(poset, ring))


CENSUS_RINGS = (GF(2), GF(3), GF(5), QQ)


def test_local_dimension_matches_leibniz_oracle(monkeypatch):
    # T(P) saturates over every field, q included: its nullity is the
    # dimension of the solver-free Leibniz kernel on each of the 407
    # posets of at most five elements.  It reads no Der, as W_a = [FI, a]
    # on T(P).  On the 12-chain it has 78 units, 3 * 66 two-unit probes
    # and 55 chain idempotents.
    monkeypatch.setattr(locder, "_derivation_rref", _no_der)
    monkeypatch.setattr(deriv, "_derivation_rref", _no_der)
    posets = small_posets(5)
    assert len(posets) == 407
    for ring in CENSUS_RINGS:
        for poset in posets:
            assert local_dimension(poset, ring) == _oracle_dimension(poset, ring)
    assert sum(1 for _ in locder._t_p_conditions(chain(12), QQ)) == 331


@pytest.mark.parametrize("ring", CENSUS_RINGS, ids=lambda ring: ring.designator())
def test_census_der_and_campaign_match_leibniz_oracle(ring):
    # The same census for Der, which the test above keeps away.  The
    # campaign scans the same T(P) spans, so each of its two
    # non-derivation samples must fail a probe.  A map passing T(P) walks
    # npairs + 3(npairs - n) + #{x covered by y < z} probes, as README says.
    for poset in small_posets(5):
        assert derivation_dimension(poset, ring) == _oracle_dimension(poset, ring)
        report = theorem_verify_random(poset, ring, trials=2, seed=1)
        assert (report.verdict, report.s_loc) == ("confirmed", 2), poset.serialize()
        n, npairs = len(poset), poset.npairs
        covers = [(x, y) for x, y in poset.ipairs if len(poset.interval_idx(x, y)) == 2]
        chains = sum(poset.leq_idx(y, z) for _, y in covers for z in range(n) if z != y)
        size = npairs + 3 * (npairs - n) + chains
        zero_map = LinearEndo.zero(poset, ring)
        assert locder._t_p_failures(poset, ring, [zero_map]) == ({}, size)


def _no_der(poset, ring):
    raise AssertionError("Der was computed")


def test_no_t_p_path_eliminates(monkeypatch):
    # T(P) asks for supports and +-1 rows: local_dimension only grows a
    # rank with add_row, and spanning verify and _t_p_failures read entries
    # of d.  None of them reduces a vector, forms a commutator map or forms
    # images through verify's _images.
    rng = random.Random(53)
    cases = []
    for ring in (GF(2), GF(3), QQ):
        for poset in (CHAIN3, DIAMOND, CROWN, chain(5)):
            cases.append((poset, ring, _non_derivations(poset, ring, rng)))
            _oracle_dimension(poset, ring)

    def eliminates(*args):
        raise AssertionError("a T(P) path eliminated")

    for name in ("rref", "nullspace", "reduce_vector"):
        monkeypatch.setattr(_linalg, name, eliminates)
    monkeypatch.setattr(deriv, "_commutator_rows", eliminates)
    monkeypatch.setattr(locder, "_images", eliminates)
    for poset, ring, maps in cases:
        assert local_dimension(poset, ring) == _oracle_dimension(poset, ring)
        assert check_local_spanning(maps[0]).verdict == "rejected"
        failures, walked = locder._t_p_failures(poset, ring, maps)
        assert sorted(failures) == [0, 1]
        assert walked == max(index for index, _ in failures.values())


def _s_c(poset, ring, commutators, c):
    """The pairs [FI, e_c] spans, read off its dense_rref."""
    unit_c = [ring.one if t == c else ring.zero for t in range(poset.npairs)]
    rows = span_rref(commutators, unit_c, ring).values()
    return [r for r in range(poset.npairs) if any(row[r] for row in rows)]


def _maps_for_every_stage(poset, ring, rng, commutators):
    """Two derivations, then a random map, derivations bumped at one entry
    anywhere and inside some S_c, [alpha, .] + D_sigma for random alpha and
    sigma, and a patchwork."""
    n = poset.npairs
    basis = _oracle_basis(poset, ring)
    maps = [random_derivation(poset, ring, rng, basis) for _ in range(2)]
    cols = [[ring.sample(rng) for _ in range(n)] for _ in range(n)]
    maps.append(LinearEndo(poset, ring, cols))
    inside = [(c, r) for c in range(n) for r in _s_c(poset, ring, commutators, c)]
    bumps = [divmod(rng.randrange(n * n), n), *rng.sample(inside, min(2, len(inside)))]
    for c, r in bumps:
        d = random_derivation(poset, ring, rng, basis)
        d.cols[c][r] = ring.add(d.cols[c][r], ring.one)
        maps.append(d)
    for _ in range(3):
        entries = random_element(poset, ring, rng).entries.items()
        sigma = FiElement(poset, ring, {(x, y): v for (x, y), v in entries if x != y})
        maps.append(inner(random_element(poset, ring, rng)) + sigma_endo(sigma))
    if _patchworks_exist(poset, ring):
        maps.append(_patchwork(poset, ring, rng))
    return maps


def test_t_p_failures_match_the_per_probe_elimination():
    # _t_p_failures reads each probe's condition off supports and +-1 rows;
    # the oracle eliminates per probe, [FI, a] the dense_rref of the
    # commutator images at a, in its own T(P) order.  Both must stop each
    # map at the same probe, and maps stop at units, two-unit probes and
    # chain idempotents alike.  [FI, a] lies in W_a, and on T(P) both have
    # one dimension: a's off-diagonal pairs lie in one chain, on which a
    # cocycle agrees with a coboundary, whose diagonal map is inner.
    rng = random.Random(67)
    stages = set()
    for ring in (GF(2), GF(3), QQ):
        for poset in small_posets(4):
            commutators = commutator_span_basis(poset, ring)
            probes = [probe for probe, _ in locder._t_p_conditions(poset, ring)]
            assert probes == t_p_probes(poset)
            for probe in probes:
                a = [ring.one if t in probe else ring.zero for t in range(poset.npairs)]
                w_a = span_rref(_oracle_basis(poset, ring), a, ring)
                assert len(w_a) == len(span_rref(commutators, a, ring))
            maps = _maps_for_every_stage(poset, ring, rng, commutators)
            failures, walked = locder._t_p_failures(poset, ring, maps)
            # The first two maps are derivations, so the walk is all of T(P).
            assert walked == len(probes)
            for k, d in enumerate(maps):
                expected = t_p_first_failure(d, commutators)
                assert failures.get(k) == expected
                if expected is not None:
                    stages.add(len(expected[1]))
    assert stages == {1, 2, 4}
    # Off T(P), W_a can exceed [FI, a], which is why verify's exhaustive
    # mode reads Der: on the crown, W_zeta has dimension 4 and [FI, zeta] 3.
    for ring in (QQ, GF(2)):
        zeta = [ring.one] * CROWN.npairs
        assert len(span_rref(_oracle_basis(CROWN, ring), zeta, ring)) == 4
        assert len(span_rref(commutator_span_basis(CROWN, ring), zeta, ring)) == 3


def _probe_kind(poset, probe):
    if len(probe) == 1:
        return "unit"
    if len(probe) == 4:
        return "chain idempotent"
    diagonal = sum(i == j for i, j in (poset.ipairs[t] for t in probe))
    return "point sum" if diagonal == 2 else "corner"


@pytest.mark.parametrize("dropped", ["unit", "point sum", "corner", "chain idempotent"])
def test_probe_family_needs_every_kind(monkeypatch, dropped):
    # Without any one kind of probe (corner: e_x + e_xy or e_xy + e_y),
    # T(P) lets some non-derivation through on a poset of at most four
    # elements.
    conditions = locder._t_p_conditions
    monkeypatch.setattr(
        locder,
        "_t_p_conditions",
        lambda poset, ring: (
            (p, c)
            for p, c in conditions(poset, ring)
            if _probe_kind(poset, p) != dropped
        ),
    )
    assert any(
        local_dimension(poset, ring) != _oracle_dimension(poset, ring)
        for ring in (GF(2), GF(3), QQ)
        for poset in small_posets(4)
    )


def test_cocycle_rows_and_chain_idempotents_share_their_triples():
    # Step 3 of the saturation proof matches each chain idempotent
    # e_xy + e_xz + e_y + e_yz with the cocycle row sigma(x, y) + sigma(y, z)
    # - sigma(x, z), so both must run over the triples x < y < z with y
    # covering x, and over nothing else.
    ring = GF(3)
    for poset in small_posets(4):
        ipairs = poset.ipairs
        rows = []
        for row in deriv._cocycle_rows(poset, ring):
            if len(row) == 1:
                continue
            (x, z), = (ipairs[t] for t, v in row.items() if v == ring.neg(ring.one))
            (y,) = (j for i, j in (ipairs[t] for t in row) if i == x and j != z)
            rows.append((x, y, z))
        chains = []
        for probe, _ in locder._t_p_conditions(poset, ring):
            if len(probe) == 4:
                pairs = {ipairs[t] for t in probe}
                (y,) = (i for i, j in pairs if i == j)
                (x,) = (i for i, j in pairs if j == y and i != y)
                (z,) = (j for i, j in pairs if i == y and j != y)
                assert pairs == {(x, y), (x, z), (y, y), (y, z)}
                chains.append((x, y, z))
        covers = {(x, y) for x, y in ipairs if len(poset.interval_idx(x, y)) == 2}
        expected = sorted(
            (x, y, z) for x, y in covers for z in range(len(poset))
            if z != y and poset.leq_idx(y, z)
        )
        assert sorted(rows) == sorted(chains) == expected


def test_enumerate_refutes_when_dimensions_differ(monkeypatch):
    monkeypatch.setattr(locder, "local_dimension", lambda poset, ring: 3)
    report = theorem_verify_enumerate(CHAIN2, 2)
    assert report.verdict == "REFUTED"
    assert report.s_der == 4
    assert report.s_loc == 8


# -- theorem harness: random campaigns ----------------------------------------


def test_random_campaign_rationals():
    report = theorem_verify_random(CHAIN3, QQ, trials=8, seed=5)
    assert report.verdict == "confirmed"
    assert report.s_der == 8
    assert report.s_loc == 8
    assert report.trials == 8
    assert report.seed == 5
    obj = report.to_json()
    assert obj["mode"] == "random"
    assert obj["trials"] == 8


def test_random_campaign_checks_each_sample_once(monkeypatch):
    seen = []

    def counting(d):
        seen.append(d)
        return is_derivation(d)

    monkeypatch.setattr(locder, "is_derivation", counting)
    report = theorem_verify_random(chain(4), QQ, trials=20, seed=3)
    assert report.verdict == "confirmed"
    # 20 derivation and 20 non-derivation samples, each passed once.
    assert len(seen) == 40
    assert len({id(d) for d in seen}) == 40


def test_random_campaign_counts_t_of_p_probes():
    # Each derivation sample is charged all |T(P)| probes (6 on the
    # 2-chain, 16 on the 3-chain) and each non-derivation the probes up
    # to its first witness-less one, over every field alike.
    for poset, family in ((CHAIN2, 6), (CHAIN3, 16)):
        for ring in (GF(2), GF(3), QQ):
            report = theorem_verify_random(poset, ring, trials=5, seed=1)
            assert report.verdict == "confirmed"
            assert 5 * family + 5 <= report.probes_checked <= 10 * family
    assert theorem_verify_random(CHAIN3, GF(3), trials=3).probes_checked == 51
    assert theorem_verify_random(CHAIN2, QQ, trials=3).probes_checked == 21


def _patchwork(poset, ring, rng):
    """A map that passes every unit probe but is no derivation.

    Column c is a combination of the D_k(e_c), for D_k the Leibniz-kernel
    basis, with coefficients drawn for each column on its own; it is
    redrawn until the map breaks the Leibniz rule on some pair of units.
    """
    basis = _oracle_basis(poset, ring)
    n = poset.npairs
    while True:
        cols = []
        for c in range(n):
            col = [ring.zero] * n
            for b in basis:
                k = ring.sample(rng)
                col = [ring.add(v, ring.mul(k, w)) for v, w in zip(col, b.cols[c])]
            cols.append(col)
        d = LinearEndo(poset, ring, cols)
        if not leibniz_on_units(d):
            return d


def _patchworks_exist(poset, ring):
    """Whether _patchwork can find a map on poset over ring.

    The patchworks form the direct sum of the W_{e_c}, which holds Der and
    is Der when the ranks add up to dim Der.
    """
    basis = _oracle_basis(poset, ring)
    columns = range(poset.npairs)
    ranks = [len(dense_rref([b.cols[c] for b in basis], ring)) for c in columns]
    return sum(ranks) > len(basis)


def test_random_campaign_rejects_patchworks_that_pass_every_unit(monkeypatch):
    # Only the sums and chain idempotents of T(P) can reject a patchwork,
    # so a campaign that scanned the units alone would count each one
    # local and report a refutation.
    monkeypatch.setattr(locder, "_non_derivation", _patchwork)
    campaigns = 0
    for ring in (GF(2), GF(3), QQ):
        for poset in small_posets(4):
            if not _patchworks_exist(poset, ring):
                continue
            # T(P) opens with the units, so a patchwork scanned past them
            # passed every one.
            d = _patchwork(poset, ring, random.Random(0))
            assert check_local_spanning(d).probes_checked > poset.npairs
            report = theorem_verify_random(poset, ring, trials=3, seed=4)
            assert report.verdict == "confirmed"
            assert report.s_loc == 3
            campaigns += 1
    assert campaigns >= 100


def test_spanning_reads_no_der_and_fails_where_it_says(monkeypatch):
    # Spanning verify reads W_a = [FI, a] off T(P), never Der, and rejects
    # random maps, derivations bumped at one entry and patchworks, which
    # pass every unit, at a probe with no witness in Der; over a prime
    # field the exhaustive scan rejects the same maps.
    rng = random.Random(61)
    checked = set()
    for ring in (GF(2), GF(3), QQ):
        for poset in small_posets(4):
            basis = derivation_basis(poset, ring)
            maps = _non_derivations(poset, ring, rng)
            if _patchworks_exist(poset, ring):
                maps.append(_patchwork(poset, ring, rng))
            for d in maps:
                with monkeypatch.context() as m:
                    m.setattr(locder, "_derivation_rref", _no_der)
                    m.setattr(deriv, "_derivation_rref", _no_der)
                    report = check_local_spanning(d)
                assert report.verdict == "rejected"
                assert witness_for(d, report.failing_probe, basis) is None
                if ring.kind == "zp":
                    assert check_local_exhaustive(d).verdict == "rejected"
                checked.add((len(report.failing_probe.entries), len(maps)))
    # Probes of one, two and four units reject, on posets with and
    # without patchworks.
    assert {size for size, _ in checked} == {1, 2, 4}
    assert {count for _, count in checked} == {2, 3}


def test_random_campaign_zero_trials():
    # Zero samples would confirm the theorem vacuously.
    for trials in (0, -5):
        with pytest.raises(AlgebraError, match="trials"):
            theorem_verify_random(CHAIN2, QQ, trials=trials, seed=0)

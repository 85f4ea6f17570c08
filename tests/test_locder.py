import functools
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from fia import deriv, locder
from fia.deriv import (
    LinearEndo,
    _derivation_rref,
    derivation_basis,
    inner,
    inner_basis,
    is_derivation,
    sigma_endo,
)
from fia.fialg import AlgebraError, FiElement, delta, element, unit, zero
from fia.locder import (
    CapExceededError,
    LocalCheckReport,
    _spanning_probes,
    check_local_exhaustive,
    check_local_spanning,
    lemma_conformance,
    local_dimension,
    theorem_verify_enumerate,
    theorem_verify_random,
    witness_for,
)
from fia.poset import parse_poset, random_poset
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
    dense_rref,
    exhaustive_scan,
    leibniz_kernel_basis,
    leibniz_on_units,
    random_derivation,
    random_element,
    scan_endomorphisms,
    small_posets,
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
                "exhaustive", "local_derivation", total, ring.designator()
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
    # 6 units, 8 subset idempotents, then the one chain probe: 15th.
    assert report.probes_checked == 15
    assert report.failing_probe == (
        unit(CHAIN3, QQ, "x", "y")
        + unit(CHAIN3, QQ, "y", "z")
        - unit(CHAIN3, QQ, "x", "z")
        - unit(CHAIN3, QQ, "y", "y")
    )


def test_spanning_is_only_inconclusive_on_derivations():
    rng = random.Random(13)
    basis = derivation_basis(CHAIN3, QQ)
    d = random_derivation(CHAIN3, QQ, rng, basis)
    report = check_local_spanning(d, seed=9)
    assert report.verdict == "inconclusive"
    assert report.seed == 9
    # 6 units + 8 subsets + 1 chain element + 32 random draws.
    assert report.probes_checked == 47
    assert report.to_json()["seed"] == 9


def test_spanning_deterministic_per_seed():
    sigma = element(CHAIN3, QQ, NON_COCYCLE_CHAIN3)
    d = sigma_endo(sigma)
    a = check_local_spanning(d, seed=4).to_json()
    b = check_local_spanning(d, seed=4).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_spanning_probe_cap_refuses_a_longer_family(monkeypatch):
    # A cut-short family could pass a map a later probe rejects, so a cap
    # below the family length is refused, for derivations and others.
    family = locder._spanning_count(CHAIN3)
    sigma = element(CHAIN3, QQ, NON_COCYCLE_CHAIN3)
    for d in (LinearEndo.zero(CHAIN3, QQ), sigma_endo(sigma)):
        for cap in (5, family - 1):
            monkeypatch.setattr(locder, "PROBE_CAP", cap)
            with pytest.raises(CapExceededError, match=f"cap of {cap}$"):
                check_local_spanning(d)
    monkeypatch.setattr(locder, "PROBE_CAP", family)
    report = check_local_spanning(LinearEndo.zero(CHAIN3, QQ))
    assert report.verdict == "inconclusive"
    assert report.probes_checked == family


def test_spanning_derivation_report_matches_full_scan(monkeypatch):
    # A derivation is accepted without probing; the report must be the
    # one the verb's own scan of the spanning family gives.
    rng = random.Random(31)
    for poset in (*SMALL_POSETS, DIAMOND, CROWN):
        for ring in (QQ, GF(5)):
            basis = derivation_basis(poset, ring)
            for _ in range(2):
                d = random_derivation(poset, ring, rng, basis)
                seed = rng.randrange(1 << 16)
                family = list(_spanning_probes(poset, ring, seed))
                expected = LocalCheckReport(
                    "spanning",
                    "inconclusive",
                    len(family),
                    ring.designator(),
                    seed=seed,
                )
                got = check_local_spanning(d, seed=seed)
                assert got.to_json() == expected.to_json()
                scan = _scanned(monkeypatch, check_local_spanning, d, seed)
                assert scan.to_json() == expected.to_json()


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
    # that entry of the family.  It must have no witness.
    rng = random.Random(41)
    indices = set()
    # Every map on the empty poset is a derivation, so it is left out.
    for poset in (*SMALL_POSETS[1:], DIAMOND, CROWN):
        cases = [(ring, None) for ring in (GF(2), GF(3))]
        cases += [(ring, seed) for ring in (QQ, GF(5)) for seed in (0, 7, 1 << 15)]
        for ring, seed in cases:
            for d in _non_derivations(poset, ring, rng):
                if seed is None:
                    report = check_local_exhaustive(d)
                    index = report.probes_checked - 1
                    digits = [index // ring.p**t % ring.p for t in range(poset.npairs)]
                    entries = {pair: v for pair, v in zip(poset.ipairs, digits) if v}
                    expected = FiElement(poset, ring, entries)
                else:
                    report = check_local_spanning(d, seed=seed)
                    family = list(_spanning_probes(poset, ring, seed))
                    expected = family[report.probes_checked - 1]
                assert report.verdict == "rejected"
                assert report.failing_probe == expected
                basis = derivation_basis(poset, ring)
                assert witness_for(d, report.failing_probe, basis) is None
                indices.add(report.probes_checked)
    # The scan stops at many different probes, not only the first ones.
    assert len(indices) > 10


def test_spanning_count_is_the_untruncated_family_length():
    # Thirteen elements take the subset limit of twelve into account.
    posets = [CHAIN3, DIAMOND, CROWN, random_poset(13, 0.2, 5)]
    posets += [random_poset(6, 0.5, seed) for seed in range(6)]
    for poset in posets:
        family = list(_spanning_probes(poset, QQ, 0))
        assert locder._spanning_count(poset) == len(family)


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


@functools.lru_cache(maxsize=None)
def _oracle_basis(poset, ring):
    return leibniz_kernel_basis(poset, ring)


def _oracle_dimension(poset, ring):
    return len(_oracle_basis(poset, ring))


def test_local_dimension_matches_leibniz_oracle(monkeypatch):
    # T(P) saturates over every field, q included: its nullity is the
    # dimension of the solver-free Leibniz kernel on every poset of at
    # most four elements.  It reads no Der, as W_a = [FI, a] on T(P).  On
    # the 12-chain it has 78 units, 3 * 66 two-unit probes and 55 chain
    # idempotents.
    monkeypatch.setattr(locder, "_derivation_rref", _no_der)
    monkeypatch.setattr(deriv, "_derivation_rref", _no_der)
    for ring in (GF(2), GF(3), GF(5), QQ):
        for poset in small_posets(4):
            assert local_dimension(poset, ring) == _oracle_dimension(poset, ring)
    assert sum(1 for _ in locder._probe_family(chain(12))) == 331


def _no_der(poset, ring):
    raise AssertionError("Der was computed")


def test_theorem_harnesses_read_w_a_from_the_t_p_spans(monkeypatch):
    # Both T(P) harnesses take W_a = [FI, a] from _t_p_spans; neither
    # forms images through verify's _images.
    def no_images(*args):
        raise AssertionError("_images was called")

    monkeypatch.setattr(locder, "_images", no_images)
    for ring in (GF(2), GF(3), QQ):
        for poset in (CHAIN3, DIAMOND, CROWN):
            assert local_dimension(poset, ring) == _oracle_dimension(poset, ring)
            report = theorem_verify_random(poset, ring, trials=3, seed=2)
            assert (report.verdict, report.s_loc) == ("confirmed", 3)


def _span_rref(maps, vec, ring):
    """dense_rref of the images m(a) of the given maps, a as a dense vector."""
    images = []
    for m in maps:
        image = [ring.zero] * len(vec)
        for col, v in zip(m.cols, vec):
            if v:
                image = [ring.add(x, ring.mul(v, w)) for x, w in zip(image, col)]
        images.append(image)
    return dense_rref(images, ring)


def test_w_a_is_the_commutator_span_on_every_t_p_probe():
    # [FI, a] lies in W_a, so equal dimensions make them equal: a's
    # off-diagonal pairs lie in one chain, on which a cocycle agrees with
    # a coboundary, whose diagonal map is inner.  Both spans come from
    # the solver-free oracles, and the span _t_p_spans reads off a's own
    # columns must be the commutator span, row for row in dense_rref.
    for ring in (GF(2), GF(3), QQ):
        for poset in small_posets(4):
            n = poset.npairs
            der = _oracle_basis(poset, ring)
            commutators = commutator_span_basis(poset, ring)
            spans = list(locder._t_p_spans(poset, ring))
            assert [probe for probe, _ in spans] == list(locder._probe_family(poset))
            for probe, w_a in spans:
                a = [ring.one if t in probe else ring.zero for t in range(n)]
                expected = _span_rref(commutators, a, ring)
                assert len(_span_rref(der, a, ring)) == len(expected)
                rows = [[row.get(r, ring.zero) for r in range(n)] for row in w_a.values()]
                assert dense_rref(rows, ring) == expected
    # Off T(P) they can differ, which is why verify's modes read Der: on
    # the crown, W_zeta has dimension 4 and [FI, zeta] 3.
    for ring in (QQ, GF(2)):
        zeta = [ring.one] * CROWN.npairs
        assert len(_span_rref(_oracle_basis(CROWN, ring), zeta, ring)) == 4
        assert len(_span_rref(commutator_span_basis(CROWN, ring), zeta, ring)) == 3


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
    family = locder._probe_family
    monkeypatch.setattr(
        locder,
        "_probe_family",
        lambda poset: (p for p in family(poset) if _probe_kind(poset, p) != dropped),
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
        for probe in locder._probe_family(poset):
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


def test_random_campaign_rejects_patchworks_that_pass_every_unit(monkeypatch):
    # Only the sums and chain idempotents of T(P) can reject a patchwork,
    # so a campaign that scanned the units alone would count each one
    # local and report a refutation.
    monkeypatch.setattr(locder, "_non_derivation", _patchwork)
    campaigns = 0
    for ring in (GF(2), GF(3), QQ):
        for poset in small_posets(4):
            basis = _oracle_basis(poset, ring)
            n = poset.npairs
            # The patchworks form the direct sum of the W_{e_c}, which holds
            # Der and is Der when the ranks add up to dim Der.
            ranks = [len(dense_rref([b.cols[c] for b in basis], ring)) for c in range(n)]
            if sum(ranks) == len(basis):
                continue
            # The spanning family opens with the units, so a patchwork
            # scanned past them passed every one.
            d = _patchwork(poset, ring, random.Random(0))
            assert check_local_spanning(d).probes_checked > n
            report = theorem_verify_random(poset, ring, trials=3, seed=4)
            assert report.verdict == "confirmed"
            assert report.s_loc == 3
            campaigns += 1
    assert campaigns >= 100


def test_random_campaign_zero_trials():
    # Zero samples would confirm the theorem vacuously.
    for trials in (0, -5):
        with pytest.raises(AlgebraError, match="trials"):
            theorem_verify_random(CHAIN2, QQ, trials=trials, seed=0)

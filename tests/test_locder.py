import itertools
import json
import random

import pytest

from fia import locder
from fia.deriv import (
    LinearEndo,
    derivation_basis,
    inner,
    is_derivation,
    sigma_endo,
    transitive_map,
)
from fia.fialg import delta, element, unit
from fia.locder import (
    CapExceededError,
    LocalCheckReport,
    _first_witnessless,
    check_local_exhaustive,
    check_local_spanning,
    lemma_conformance,
    local_dimension,
    theorem_verify_enumerate,
    theorem_verify_random,
    witness_for,
)
from fia.poset import parse_poset, random_poset
from fia.scalars import GF, QQ, ZZ, RingError

from helpers import (
    ANTICHAIN2,
    CHAIN2,
    CHAIN3,
    CROWN,
    DIAMOND,
    SINGLETON,
    random_derivation,
    random_element,
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
        assert w.element == a
        assert is_derivation(w.derivation)
        assert w.derivation.apply(a) == d.apply(a)


def test_witness_none_at_chain_probe():
    # The four-term chain element separates the non-cocycle diagonal map
    # from every derivation at once.
    sigma = transitive_map(CHAIN3, QQ, NON_COCYCLE_CHAIN3)
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


def test_exhaustive_probe_cap():
    d = LinearEndo.zero(CHAIN3, GF(2))
    with pytest.raises(CapExceededError, match="probe-cap"):
        check_local_exhaustive(d, probe_cap=32)
    report = check_local_exhaustive(d, probe_cap=64)
    assert report.verdict == "local_derivation"


def test_exhaustive_empty_poset():
    empty = parse_poset("elements:\n")
    report = check_local_exhaustive(LinearEndo.zero(empty, GF(2)))
    assert report.verdict == "local_derivation"
    assert report.probes_checked == 1


def test_exhaustive_derivation_report_matches_full_scan():
    # A derivation is accepted without probing; the report must be the
    # one a full scan of every probe would give.
    rng = random.Random(29)
    cases = [(poset, GF(2)) for poset in SMALL_POSETS]
    cases += [(CHAIN2, GF(3)), (CHAIN3, GF(2))]
    for poset, ring in cases:
        basis = derivation_basis(poset, ring)
        basis_cols = [b.cols for b in basis]
        total = ring.p ** poset.npairs
        for _ in range(3):
            d = random_derivation(poset, ring, rng, basis)
            scan = _first_witnessless(poset, ring, d.cols, basis_cols)
            assert scan is None
            expected = LocalCheckReport(
                "exhaustive", "local_derivation", total, ring.designator()
            )
            assert check_local_exhaustive(d).to_json() == expected.to_json()


def test_exhaustive_probe_cap_applies_to_derivations():
    basis = derivation_basis(CHAIN3, GF(2))
    d = random_derivation(CHAIN3, GF(2), random.Random(5), basis)
    with pytest.raises(CapExceededError, match="probe-cap"):
        check_local_exhaustive(d, probe_cap=63)


# -- spanning probes ---------------------------------------------------------


def test_spanning_rejects_non_cocycle_diagonal_map():
    sigma = transitive_map(CHAIN3, QQ, NON_COCYCLE_CHAIN3)
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


def test_spanning_requires_field():
    with pytest.raises(RingError):
        check_local_spanning(LinearEndo.zero(CHAIN2, ZZ))


def test_spanning_deterministic_per_seed():
    sigma = transitive_map(CHAIN3, QQ, NON_COCYCLE_CHAIN3)
    d = sigma_endo(sigma)
    a = check_local_spanning(d, seed=4).to_json()
    b = check_local_spanning(d, seed=4).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_spanning_probe_cap_truncates():
    d = LinearEndo.zero(CHAIN3, QQ)
    report = check_local_spanning(d, probe_cap=5)
    assert report.probes_checked <= 5
    assert report.verdict == "inconclusive"


def test_spanning_count_is_the_untruncated_family_length():
    # Thirteen elements take the subset limit of twelve into account.
    posets = [CHAIN3, DIAMOND, CROWN, random_poset(13, 0.2, 5)]
    posets += [random_poset(6, 0.5, seed) for seed in range(6)]
    for poset in posets:
        family = locder._spanning_probes(poset, QQ, 0, 32, 12, 1 << 30)
        assert locder._spanning_count(poset) == len(family)


def test_random_campaign_refuses_a_truncated_spanning_family():
    family = locder._spanning_count(CHAIN2)
    with pytest.raises(CapExceededError, match="probe-cap"):
        theorem_verify_random(CHAIN2, QQ, trials=3, probe_cap=family - 1)
    report = theorem_verify_random(CHAIN2, QQ, trials=3, probe_cap=family)
    assert report.verdict == "confirmed"


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
    assert not report.diagonal_sign
    assert not report.reduced_support
    assert not report.all_pass


def test_lemmas_flag_restriction_violation():
    # d(a)(x,z) reads a(y,y), which restriction to the (x,z) corner kills.
    d = LinearEndo.zero(CHAIN3, QQ)
    d.cols[CHAIN3.pair_pos(1, 1)][CHAIN3.pair_pos(0, 2)] = QQ.one
    report = lemma_conformance(d, seed=0)
    assert not report.restriction
    assert not report.all_pass


def test_lemmas_flag_subset_rule_violation():
    # d(e_z)(x,y) = 1: the subset {z} should act as zero on the pair (x, y).
    d = LinearEndo.zero(CHAIN3, QQ)
    d.cols[CHAIN3.pair_pos(2, 2)][CHAIN3.pair_pos(0, 1)] = QQ.one
    report = lemma_conformance(d, seed=0)
    assert not report.subset_rule
    assert not report.all_pass


def test_lemmas_flag_idempotent_violation():
    # e_x -> e_x fails d(e) = d(e)e + e d(e) at e = e_x.
    d = LinearEndo.zero(CHAIN2, QQ)
    t = CHAIN2.pair_pos(0, 0)
    d.cols[t][t] = QQ.one
    report = lemma_conformance(d, seed=0)
    assert not report.idempotent_identity
    assert not report.all_pass


def test_lemmas_pass_on_inner_maps():
    rng = random.Random(19)
    a = random_element(CHAIN3, QQ, rng)
    assert lemma_conformance(inner(a), seed=2).all_pass


def test_lemmas_cannot_see_cocycle_defects():
    # The structural checks are necessary conditions only: a diagonal map
    # with non-additive sigma passes all five and still gets rejected by
    # the probing check.  Completeness lives in the probes, not here.
    sigma = transitive_map(CHAIN3, QQ, NON_COCYCLE_CHAIN3)
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


def test_enumerate_endo_cap():
    with pytest.raises(CapExceededError, match="endo-cap"):
        theorem_verify_enumerate(CHAIN2, 3, endo_cap=100)


def scan_endomorphisms(poset, p):
    """Walk every endomorphism over GF(p): (derivations, local ones, agree).

    The endomorphism walk that theorem enumeration used before it went
    by rank: each map is tested with the Leibniz check and with a full
    probe scan, independently of the local-derivation space.
    """
    ring = GF(p)
    n = poset.npairs
    basis_cols = [b.cols for b in derivation_basis(poset, ring)]
    n_der = n_loc = 0
    agree = True
    for entries in itertools.product(range(p), repeat=n * n):
        cols = [list(entries[c * n:(c + 1) * n]) for c in range(n)]
        der = is_derivation(LinearEndo(poset, ring, cols))
        loc = _first_witnessless(poset, ring, cols, basis_cols) is None
        n_der += der
        n_loc += loc
        agree = agree and der == loc
    return n_der, n_loc, agree


def test_enumerate_matches_endomorphism_scan():
    cases = [(poset, 2) for poset in SMALL_POSETS] + [(CHAIN2, 3)]
    for poset, p in cases:
        n_der, n_loc, agree = scan_endomorphisms(poset, p)
        report = theorem_verify_enumerate(poset, p)
        assert report.s_der == n_der
        assert report.s_loc == n_loc
        assert report.probes_checked == p ** (poset.npairs ** 2)
        assert report.verdict == ("confirmed" if agree else "REFUTED")


def test_local_dimension_equals_derivation_dimension():
    # Out of reach of an endomorphism walk: 2^36, 2^81 and 3^64 maps.
    for poset, ring in ((CHAIN3, GF(2)), (DIAMOND, GF(2)), (CROWN, GF(3))):
        assert local_dimension(poset, ring) == len(derivation_basis(poset, ring))


def test_local_dimension_needs_prime_field():
    with pytest.raises(RingError):
        local_dimension(CHAIN2, QQ)


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


def test_random_campaign_prime_field_goes_exhaustive():
    report = theorem_verify_random(CHAIN2, GF(2), trials=5, seed=1)
    assert report.verdict == "confirmed"
    # Each accepted derivation sample walks all 8 probes.
    assert report.probes_checked >= 5 * 8


def test_random_campaign_zero_trials():
    report = theorem_verify_random(CHAIN2, QQ, trials=0, seed=0)
    assert report.verdict == "confirmed"
    assert report.s_der == 0
    assert report.s_loc == 0
    assert report.probes_checked == 0


def test_random_campaign_requires_field():
    with pytest.raises(RingError):
        theorem_verify_random(CHAIN2, ZZ)

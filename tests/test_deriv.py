import itertools
import json
import random
from fractions import Fraction

import pytest

from fia import _linalg
from fia._linalg import add_row, nullspace, reduce_vector, rref
from fia.deriv import (
    LinearEndo,
    _cocycle_basis,
    coboundary,
    decompose,
    _derivation_rref,
    derivation_basis,
    derivation_dimension,
    endo_from_json,
    h1_dimension,
    idempotent_identity_check,
    inner,
    inner_basis,
    is_cocycle,
    is_derivation,
    sigma_endo,
)
from fia.fialg import (
    AlgebraError,
    FiElement,
    delta,
    element,
    subset_idempotent,
    unit,
    zero,
)
from fia.poset import Poset, PosetError, random_poset
from fia.scalars import GF, QQ

from helpers import (
    ANTICHAIN2,
    CHAIN2,
    CHAIN3,
    CROWN,
    DIAMOND,
    SINGLETON,
    all_units,
    chain,
    cocycle_by_definition,
    commutator_span_basis,
    dense_decomposition,
    leibniz_kernel_basis,
    leibniz_on_units,
    order_complex_h1,
    random_derivation,
    random_element,
    small_posets,
)


def in_span(d, pivot_rows):
    """Whether d, flattened to {c*N + r: value}, lies in the rows' span."""
    n = d.poset.npairs
    vec = {c * n + r: v for c, col in enumerate(d.cols) for r, v in enumerate(col)}
    return not reduce_vector(vec, pivot_rows, d.ring)


# -- the derivation space ----------------------------------------------


def test_dimension_two_chain():
    # By hand: images of the two point idempotents are pinned to the
    # strict pair up to sign, the strict unit maps into its own slot.
    for ring in (QQ, GF(2), GF(5)):
        assert len(derivation_basis(CHAIN2, ring)) == 2


def test_dimension_degenerate_posets():
    for poset in (SINGLETON, ANTICHAIN2):
        for ring in (QQ, GF(2)):
            assert derivation_basis(poset, ring) == []


def test_dimension_chain3():
    # 5 inner plus 2 free cocycle values minus 2 coboundary directions.
    assert len(derivation_basis(CHAIN3, QQ)) == 5
    assert len(inner_basis(CHAIN3, QQ)) == 5
    assert h1_dimension(CHAIN3, QQ) == 0


def test_brute_force_enumeration_two_chain_mod_two():
    # All 512 linear endos, Leibniz checked through convolve alone.
    ring = GF(2)
    units = all_units(CHAIN2, ring)
    candidates = list(itertools.product(range(2), repeat=3))
    elements = [
        element(
            CHAIN2,
            ring,
            {("a", "a"): c0, ("a", "b"): c1, ("b", "b"): c2},
        )
        for c0, c1, c2 in candidates
    ]
    brute = set()
    for images in itertools.product(elements, repeat=3):
        d = LinearEndo.from_images(CHAIN2, ring, images)
        if leibniz_on_units(d):
            brute.add(tuple(tuple(col) for col in d.cols))
    basis = derivation_basis(CHAIN2, ring)
    span = set()
    for c0, c1 in itertools.product(range(2), repeat=2):
        d = basis[0].scale(c0) + basis[1].scale(c1)
        span.add(tuple(tuple(col) for col in d.cols))
    assert brute == span
    assert len(brute) == 4


def test_basis_members_satisfy_leibniz_everywhere():
    rng = random.Random(61)
    for seed in range(8):
        poset = random_poset(rng.randint(1, 5), 0.5, seed + 400)
        ring = (QQ, GF(2), GF(5))[seed % 3]
        for b in derivation_basis(poset, ring):
            assert is_derivation(b)
            assert leibniz_on_units(b)
            # Leibniz extends bilinearly to arbitrary elements.
            r = random_element(poset, ring, rng)
            s = random_element(poset, ring, rng)
            assert b.apply(r * s) == b.apply(r) * s + r * b.apply(s)


def _bumped(d, c, r, delta):
    cols = [list(col) for col in d.cols]
    cols[c][r] = d.ring.add(cols[c][r], delta)
    return LinearEndo(d.poset, d.ring, cols)


def test_is_derivation_agrees_with_convolve_leibniz():
    rng = random.Random(67)
    branches = set()
    for ring in (GF(3), QQ):
        for seed in range(10):
            poset = random_poset(rng.randint(1, 4), 0.6, seed + 500)
            n = poset.npairs
            cols = [[ring.sample(rng) for _ in range(n)] for _ in range(n)]
            f = {x: ring.sample(rng) for x in poset.elements}
            d = inner(random_element(poset, ring, rng)) + sigma_endo(
                coboundary(poset, ring, f)
            )
            candidates = [LinearEndo(poset, ring, cols), d]
            # One entry off anywhere, and one in the last column only, which
            # the split reaches after every other column.
            for c in (rng.randrange(n), n - 1):
                candidates.append(_bumped(d, c, rng.randrange(n), ring.one))
            for e in candidates:
                assert is_derivation(e) == leibniz_on_units(e)
                dec = decompose(e)
                branches.add((dec.residual_norm == 0, is_cocycle(dec.sigma)))
    # Zero residual with a sigma that is not additive on the 3-chain.
    sigma = element(CHAIN3, QQ, {("x", "y"): 1, ("y", "z"): 1})
    alpha = element(CHAIN3, QQ, {("x", "y"): 2, ("x", "z"): -1})
    e = inner(alpha) + sigma_endo(sigma)
    dec = decompose(e)
    assert dec.residual_norm == 0 and not is_cocycle(dec.sigma)
    assert not is_derivation(e) and not leibniz_on_units(e)
    assert branches == {(True, True), (False, True), (False, False), (True, False)}


def _json_bytes(endos):
    return json.dumps([d.to_json() for d in endos], sort_keys=True)


def _check_against_oracles(poset, ring, rng):
    basis = derivation_basis(poset, ring)
    assert _json_bytes(basis) == _json_bytes(leibniz_kernel_basis(poset, ring))
    assert _json_bytes(inner_basis(poset, ring)) == _json_bytes(
        commutator_span_basis(poset, ring)
    )
    n = poset.npairs
    samples = [
        LinearEndo(poset, ring, [[ring.sample(rng) for _ in range(n)] for _ in range(n)]),
        random_derivation(poset, ring, rng, basis),
    ]
    for d in samples:
        dec = decompose(d)
        assert (dec.alpha, dec.sigma, dec.residual_norm) == dense_decomposition(d)


ORACLE_RINGS = (QQ, GF(2), GF(3), GF(101))


def test_bases_match_oracles_on_every_poset_up_to_four_elements():
    rng = random.Random(43)
    for poset in small_posets(4):
        for ring in ORACLE_RINGS:
            _check_against_oracles(poset, ring, rng)


def test_bases_match_oracles_on_chains_diamond_and_crown():
    rng = random.Random(47)
    for poset in [chain(k) for k in range(2, 7)] + [DIAMOND, CROWN]:
        for ring in ORACLE_RINGS:
            _check_against_oracles(poset, ring, rng)


def test_derivations_kill_the_identity():
    # d(delta) = d(delta^2) = 2 d(delta) forces d(delta) = 0 in any ring.
    rng = random.Random(71)
    for seed in range(6):
        poset = random_poset(rng.randint(1, 5), 0.5, seed + 600)
        ring = (QQ, GF(2))[seed % 2]
        basis = derivation_basis(poset, ring)
        d = random_derivation(poset, ring, rng, basis)
        assert d.apply(delta(poset, ring)).is_zero()


# -- inner derivations ---------------------------------------------------


def test_inner_maps_are_derivations():
    rng = random.Random(73)
    for seed in range(6):
        poset = random_poset(rng.randint(1, 5), 0.5, seed + 700)
        ring = (QQ, GF(5))[seed % 2]
        a = random_element(poset, ring, rng)
        ad = inner(a)
        assert is_derivation(ad)
        assert leibniz_on_units(ad)


def test_inner_span_inside_derivation_span():
    rng = random.Random(79)
    for seed in range(5):
        poset = random_poset(rng.randint(1, 5), 0.5, seed + 800)
        a = random_element(poset, QQ, rng)
        assert in_span(inner(a), _derivation_rref(poset, QQ))


def test_inner_dimension_counts_center():
    # dim inner = npairs - dim(center); a connected poset has center R*delta.
    assert len(inner_basis(CHAIN3, QQ)) == CHAIN3.npairs - 1
    assert len(inner_basis(DIAMOND, QQ)) == DIAMOND.npairs - 1
    # Fully disconnected: the algebra is commutative, nothing is inner.
    assert inner_basis(ANTICHAIN2, QQ) == []
    assert inner_basis(SINGLETON, QQ) == []


def test_h1_vanishes_on_chains_and_diamond():
    assert h1_dimension(CHAIN2, QQ) == 0
    assert h1_dimension(DIAMOND, QQ) == 0
    assert h1_dimension(DIAMOND, GF(2)) == 0


def _components(poset):
    """The connected components of the comparability graph, by union-find."""
    root = list(range(len(poset)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for x, y in poset.ipairs:
        root[find(x)] = find(y)
    return sum(find(x) == x for x in range(len(poset)))


def test_dimensions_match_the_order_complex():
    # dim Der = npairs - components + dim H^1(order complex), with H^1
    # read off the simplicial coboundaries by the oracle's own elimination.
    outer = 0
    for ring in (QQ, GF(2), GF(3)):
        for n in (3, 5, 7):
            for seed in range(100):
                poset = random_poset(n, 0.35, seed)
                h1 = order_complex_h1(poset, ring)
                dim = derivation_dimension(poset, ring)
                assert dim == poset.npairs - _components(poset) + h1
                assert h1_dimension(poset, ring) == h1
                outer += h1 > 0
    assert outer > 20


def test_h1_crown_has_outer_derivation():
    # Cocycles are free on the four strict pairs (no three-chains to
    # constrain them); coboundaries have rank 3 on the connected
    # four-cycle, leaving one outer direction.
    assert h1_dimension(CROWN, QQ) == 1
    sigma = element(CROWN, QQ, {("a", "c"): 1})
    d = sigma_endo(sigma)
    assert is_derivation(d)
    # No point function has f(c)-f(a) = 1 but zero on a-d, b-c, b-d, so
    # this diagonal map lies outside the commutator span.
    n = CROWN.npairs
    rows = [
        {
            c * n + r: b.cols[c][r]
            for c in range(n)
            for r in range(n)
            if b.cols[c][r] != QQ.zero
        }
        for b in inner_basis(CROWN, QQ)
    ]
    assert not in_span(d, rref(rows, QQ))


def _span_by_enumeration(rows, nvars, p):
    """Every combination of the sparse rows over GF(p), as dense tuples."""
    dense = [[row.get(c, 0) for c in range(nvars)] for row in rows]
    return {
        tuple(sum(k * r[c] for k, r in zip(ks, dense)) % p for c in range(nvars))
        for ks in itertools.product(range(p), repeat=len(rows))
    }


def _gf3_systems(count, seed):
    """Seeded systems over GF(3): up to 5 sparse rows in up to 5 variables."""
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(1, 5)
        rows = []
        for _ in range(rng.randint(0, 5)):
            row = {c: rng.randint(1, 2) for c in range(nvars) if rng.random() < 0.6}
            rows.append(row)
        yield rows, nvars


def test_add_row_counts_rank_and_matches_rref_pivots():
    rows = [{0: 2, 2: 1}, {0: 4, 2: 2}, {1: 3}, {0: 1, 1: 1, 2: 5}]
    pivots = {}
    grew = [add_row(pivots, row, GF(7)) for row in rows]
    assert grew == [True, False, True, True]
    assert set(pivots) == set(rref(rows, GF(7))) == {0, 1, 2}
    assert all(pivots[lead][lead] == 1 for lead in pivots)
    # Against enumeration of GF(3)^k: a row raises the rank iff it is no
    # combination of the rows before it; the pivots are the leading
    # variables of the span; rref rows are one at their pivot and zero at
    # every other; a vector reduces to nothing, against rref rows or
    # against add_row's echelon, iff it is a combination of the rows; and
    # nullspace yields one sparse row per free variable, one there, that
    # is orthogonal to every row, and together they span all such vectors.
    ring = GF(3)
    for rows, nvars in _gf3_systems(80, seed=59):
        span = _span_by_enumeration(rows, nvars, 3)
        pivots = {}
        for k, row in enumerate(rows):
            new = tuple(row.get(c, 0) for c in range(nvars))
            assert add_row(pivots, row, ring) == (
                new not in _span_by_enumeration(rows[:k], nvars, 3)
            )
        reduced = rref(rows, ring)
        leads = {max(c for c, v in enumerate(vec) if v) for vec in span if any(vec)}
        assert set(pivots) == set(reduced) == leads
        assert len(span) == 3 ** len(reduced)
        for lead, row in reduced.items():
            assert row[lead] == 1
            assert not set(row) & (set(reduced) - {lead})
            assert all(row.values())
        for vec in itertools.product(range(3), repeat=nvars):
            sparse = {c: v for c, v in enumerate(vec) if v}
            for echelon in (reduced, pivots):
                residual = reduce_vector(sparse, echelon, ring)
                assert (not residual) == (vec in span)
        kernel = nullspace(reduced, range(nvars), ring)
        free = [c for c in range(nvars) if c not in reduced]
        assert len(kernel) == len(free) == nvars - len(reduced)
        for f, y in zip(free, kernel):
            assert y[f] == 1 and set(y) - set(reduced) == {f}
            assert all(y.values())
        orthogonal = {
            vec
            for vec in itertools.product(range(3), repeat=nvars)
            if all(sum(v * row.get(c, 0) for c, v in enumerate(vec)) % 3 == 0
                   for row in rows)
        }
        assert _span_by_enumeration(kernel, nvars, 3) == orthogonal


def test_elimination_work_stays_bounded(monkeypatch):
    # Leading on the largest variable keeps the cocycle and derivation
    # eliminations from filling in: 530 and 1,183 row steps here, where
    # leading on the smallest takes 2,510 and 8,799.
    steps = 0
    eliminate = _linalg._eliminate

    def counted(*args):
        nonlocal steps
        steps += 1
        eliminate(*args)

    monkeypatch.setattr(_linalg, "_eliminate", counted)
    assert derivation_dimension(chain(24), GF(101)) == 299
    assert steps <= 1_000
    names = [[f"x{i}_{j}" for j in range(8)] for i in range(3)]
    relations = [(a, b) for lo, hi in zip(names, names[1:]) for a in lo for b in hi]
    layers = Poset([x for layer in names for x in layer], relations)
    steps = 0
    _cocycle_basis(layers, GF(101))
    assert steps <= 2_500


# -- cocycles -------------------------------------------------------------


def test_cocycle_iff_diagonal_map_is_derivation():
    # Exhaustive over Zp(2) on small posets: the diagonal map of sigma
    # obeys Leibniz exactly when sigma is additive across factorizations.
    ring = GF(2)
    for poset in (SINGLETON, ANTICHAIN2, CHAIN2, CHAIN3, CROWN):
        pairs = poset.pairs()
        for bits in itertools.product(range(2), repeat=len(pairs)):
            sigma = element(
                poset, ring, {pair: v for pair, v in zip(pairs, bits)}
            )
            assert is_derivation(sigma_endo(sigma)) == is_cocycle(sigma)


def test_cocycle_iff_derivation_rational_samples():
    rng = random.Random(83)
    for seed in range(10):
        poset = random_poset(rng.randint(1, 5), 0.5, seed + 900)
        values = {
            pair: QQ.sample(rng) for pair in poset.pairs() if rng.random() < 0.7
        }
        sigma = element(poset, QQ, values)
        assert is_derivation(sigma_endo(sigma)) == is_cocycle(sigma)


def test_is_cocycle_matches_the_definition_on_every_gf2_sigma():
    # is_cocycle reads only the diagonal and cover rows; the oracle checks
    # every factorization i <= k <= j.
    ring = GF(2)
    outcomes = set()
    for poset in small_posets(4) + [DIAMOND, CROWN, chain(4)]:
        for bits in itertools.product(range(2), repeat=poset.npairs):
            entries = {pair: 1 for pair, v in zip(poset.ipairs, bits) if v}
            sigma = FiElement(poset, ring, entries)
            got = is_cocycle(sigma)
            assert got == cocycle_by_definition(sigma)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_is_cocycle_matches_the_definition_on_seeded_sigma():
    rng = random.Random(61)
    outcomes = set()
    for seed in range(24):
        poset = random_poset(rng.randint(1, 6), 0.5, seed + 1300)
        ring = (QQ, GF(3))[seed % 2]
        basis = derivation_basis(poset, ring)
        cocycle = decompose(random_derivation(poset, ring, rng, basis)).sigma
        bumped = dict(cocycle.entries)
        pair = rng.choice(poset.ipairs)
        bumped[pair] = ring.add(bumped.get(pair, ring.zero), ring.one)
        bumped = FiElement(poset, ring, {k: v for k, v in bumped.items() if v})
        for sigma in (cocycle, bumped, random_element(poset, ring, rng)):
            got = is_cocycle(sigma)
            assert got == cocycle_by_definition(sigma)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_coboundaries_are_cocycles():
    rng = random.Random(89)
    for seed in range(8):
        poset = random_poset(rng.randint(1, 6), 0.5, seed + 1000)
        f = {x: QQ.sample(rng) for x in poset.elements}
        sigma = coboundary(poset, QQ, f)
        assert is_cocycle(sigma)
        # The diagonal map of f(y) - f(x) is the commutator with -diag(f).
        diag = element(poset, QQ, {(x, x): -v for x, v in f.items()})
        assert sigma_endo(sigma) == inner(diag)


def test_coboundary_rejects_unknown_labels():
    with pytest.raises(PosetError, match="unknown label"):
        coboundary(CHAIN3, QQ, {"nope": 3})
    with pytest.raises(PosetError, match="unknown label"):
        coboundary(CHAIN3, GF(5), {"x": 1, "nope": 0})


def test_non_cocycle_on_chain3_breaks_leibniz():
    sigma = element(
        CHAIN3, QQ, {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 0}
    )
    assert not is_cocycle(sigma)
    d = sigma_endo(sigma)
    assert not is_derivation(d)
    # The defect is visible on the factored unit: d(e_xz) = 0 but the
    # Leibniz side d(e_xy)e_yz + e_xy d(e_yz) = 2 e_xz.
    exy = unit(CHAIN3, QQ, "x", "y")
    eyz = unit(CHAIN3, QQ, "y", "z")
    lhs = d.apply(exy * eyz)
    rhs = d.apply(exy) * eyz + exy * d.apply(eyz)
    assert lhs.is_zero()
    assert rhs == 2 * unit(CHAIN3, QQ, "x", "z")
    # The same values over Zp(2) do satisfy additivity: 1 + 1 = 0.
    sigma2 = element(
        CHAIN3, GF(2), {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 0}
    )
    assert is_cocycle(sigma2)
    assert is_derivation(sigma_endo(sigma2))


def test_degenerate_triples_force_zero_on_diagonal():
    for ring in (QQ, GF(2), GF(5)):
        sigma = element(CHAIN2, ring, {("a", "a"): 1})
        assert not is_cocycle(sigma)
        assert not is_derivation(sigma_endo(sigma))


# -- the constructive decomposition ---------------------------------------


def test_decompose_random_derivations():
    rng = random.Random(97)
    for seed in range(10):
        poset = random_poset(rng.randint(1, 5), 0.5, seed + 1100)
        ring = (QQ, GF(5))[seed % 2]
        basis = derivation_basis(poset, ring)
        d = random_derivation(poset, ring, rng, basis)
        dec = decompose(d)
        assert dec.residual_norm == 0
        assert is_cocycle(dec.sigma)
        assert inner(dec.alpha) + sigma_endo(dec.sigma) == d
        # After peeling the commutator part, every point idempotent dies.
        reduced = d - inner(dec.alpha)
        for x in poset.elements:
            assert reduced.apply(subset_idempotent(poset, ring, [x])).is_zero()


def test_decompose_recovers_exact_parts():
    # Zero-diagonal commutator data comes back verbatim.
    alpha = element(CHAIN3, QQ, {("x", "y"): 3, ("y", "z"): -2, ("x", "z"): 7})
    sigma = coboundary(CHAIN3, QQ, {"x": 0, "y": 5, "z": 1})
    d = inner(alpha) + sigma_endo(sigma)
    dec = decompose(d)
    assert dec.alpha == alpha
    assert dec.sigma == sigma
    assert dec.residual_norm == 0


def test_decompose_moves_diagonal_into_sigma():
    # A diagonal summand of alpha acts as a coboundary; decompose returns
    # the strict part of alpha and shifts sigma accordingly.
    strict = {("x", "y"): 2, ("y", "z"): 1}
    diag = {"x": 4, "y": -1, "z": 3}
    alpha = element(CHAIN3, QQ, {**strict, **{(x, x): v for x, v in diag.items()}})
    d = inner(alpha)
    dec = decompose(d)
    assert dec.alpha == element(CHAIN3, QQ, strict)
    assert dec.sigma == coboundary(CHAIN3, QQ, {x: -v for x, v in diag.items()})
    assert dec.residual_norm == 0
    assert inner(dec.alpha) + sigma_endo(dec.sigma) == d


def test_decompose_non_derivation_leaves_residual():
    # e_x -> e_xz: no commutator produces this image, so after peeling
    # the (vanishing) commutator part one off-diagonal defect remains.
    d = LinearEndo.zero(CHAIN3, QQ)
    t = CHAIN3.pair_pos(0, 0)
    u = CHAIN3.pair_pos(0, 2)
    d.cols[t][u] = QQ.one
    dec = decompose(d)
    assert dec.residual_norm == 1
    reduced = d - inner(dec.alpha)
    off = sum(
        1
        for c in range(CHAIN3.npairs)
        for r in range(CHAIN3.npairs)
        if r != c and reduced.cols[c][r] != QQ.zero
    )
    assert dec.residual_norm == off


def test_decomposition_json_shape():
    alpha = element(CHAIN2, QQ, {("a", "b"): 2})
    sigma = coboundary(CHAIN2, QQ, {"a": 1})
    dec = decompose(inner(alpha) + sigma_endo(sigma))
    obj = dec.to_json()
    assert set(obj) == {"alpha", "sigma", "residual"}
    assert obj["residual"] == 0
    assert obj["alpha"]["ring"] == "q"
    assert all(set(e) == {"from", "to", "value"} for e in obj["sigma"])


# -- idempotent identity ---------------------------------------------------


def test_idempotent_identity_for_derivations():
    rng = random.Random(101)
    for seed in range(5):
        poset = random_poset(rng.randint(1, 5), 0.5, seed + 1200)
        basis = derivation_basis(poset, QQ)
        d = random_derivation(poset, QQ, rng, basis)
        for x in poset.elements:
            assert idempotent_identity_check(d, subset_idempotent(poset, QQ, [x]))
        labels = [x for x in poset.elements if rng.random() < 0.5]
        assert idempotent_identity_check(d, subset_idempotent(poset, QQ, labels))
        assert idempotent_identity_check(d, delta(poset, QQ))


def test_idempotent_identity_violated_by_identity_map():
    # e_a -> e_a gives d(e) = e but d(e)e + e d(e) = 2e.
    d = LinearEndo.zero(CHAIN2, QQ)
    t = CHAIN2.pair_pos(0, 0)
    d.cols[t][t] = QQ.one
    assert not idempotent_identity_check(d, subset_idempotent(CHAIN2, QQ, ["a"]))


def test_idempotent_identity_rejects_non_idempotent():
    d = LinearEndo.zero(CHAIN2, QQ)
    with pytest.raises(AlgebraError):
        idempotent_identity_check(d, delta(CHAIN2, QQ).scale(2))


# -- endo JSON ------------------------------------------------------------


def test_endo_json_round_trip():
    rng = random.Random(103)
    for ring in (QQ, GF(7)):
        n = CHAIN3.npairs
        cols = [[ring.sample(rng) for _ in range(n)] for _ in range(n)]
        d = LinearEndo(CHAIN3, ring, cols)
        obj = d.to_json()
        assert obj["poset_hash"] == CHAIN3.digest()
        assert endo_from_json(CHAIN3, obj) == d


def test_endo_json_matches_an_entrywise_encoding():
    rng = random.Random(67)
    for ring in (QQ, GF(5)):
        for seed in range(4):
            poset = random_poset(rng.randint(1, 5), 0.5, seed + 1400)
            n = poset.npairs
            cols = [
                [ring.sample(rng) if rng.random() < 0.3 else ring.zero
                 for _ in range(n)]
                for _ in range(n)
            ]
            d = LinearEndo(poset, ring, cols)
            want = [[ring.scalar_to_json(v) for v in col] for col in cols]
            assert d.to_json()["columns"] == want
            assert endo_from_json(poset, d.to_json()) == d


def test_endo_json_rejects_wrong_poset():
    d = LinearEndo.zero(CHAIN3, QQ)
    obj = d.to_json()
    with pytest.raises(AlgebraError, match="different poset"):
        endo_from_json(CHAIN2, obj)


def test_endo_json_rejects_bad_shape():
    obj = LinearEndo.zero(CHAIN2, QQ).to_json()
    obj["columns"] = obj["columns"][:-1]
    with pytest.raises(AlgebraError):
        endo_from_json(CHAIN2, obj)
    with pytest.raises(AlgebraError):
        endo_from_json(CHAIN2, {"ring": "q"})


def test_from_images_validation():
    with pytest.raises(AlgebraError):
        LinearEndo.from_images(CHAIN2, QQ, [zero(CHAIN2, QQ)])
    with pytest.raises(AlgebraError):
        LinearEndo.from_images(
            CHAIN2, QQ, [zero(CHAIN3, QQ)] * CHAIN2.npairs
        )


def test_apply_coeff_matches_apply():
    rng = random.Random(107)
    poset = random_poset(5, 0.5, 1300)
    n = poset.npairs
    cols = [[QQ.sample(rng) for _ in range(n)] for _ in range(n)]
    d = LinearEndo(poset, QQ, cols)
    a = random_element(poset, QQ, rng)
    img = d.apply(a)
    for x, y in poset.pairs():
        assert d.apply_coeff(a, x, y) == img.coeff(x, y)


def test_coefficients_come_back_raw():
    a = element(CHAIN3, GF(5), {("x", "y"): 7})
    assert a.coeff("x", "y") == 2 and type(a.coeff("x", "y")) is int
    assert [(x, y, v, type(v)) for x, y, v in a.support()] == [("x", "y", 2, int)]
    d = inner(element(CHAIN3, QQ, {("x", "y"): 1}))
    b = unit(CHAIN3, QQ, "y", "z")
    got = d.apply_coeff(b, "x", "z")
    assert type(got) is Fraction and got == d.apply(b).coeff("x", "z") != 0

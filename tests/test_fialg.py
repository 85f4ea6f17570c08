import random
from fractions import Fraction

import pytest

from fia.fialg import (
    AlgebraError,
    FiElement,
    convolve,
    delta,
    element,
    element_from_json,
    moebius,
    restrict,
    sandwich,
    subset_idempotent,
    unit,
    zero,
    zeta,
)
from fia.poset import parse_poset, random_poset
from fia.scalars import GF, QQ, RingError, RingMismatchError

CHAIN3 = parse_poset("elements: x y z\nx < y\ny < z\n")
DIAMOND = parse_poset("elements: bot a b top\nbot < a\nbot < b\na < top\nb < top\n")


def oracle_product(a, b):
    """Entry-by-entry convolution straight from the triple-sum formula."""
    poset, ring = a.poset, a.ring
    entries = {}
    for i, j in poset.ipairs:
        acc = ring.zero
        for z in poset.interval_idx(i, j):
            acc = ring.add(
                acc,
                ring.mul(
                    a.entries.get((i, z), ring.zero),
                    b.entries.get((z, j), ring.zero),
                ),
            )
        if acc != ring.zero:
            entries[(i, j)] = acc
    return FiElement(poset, ring, entries)


def random_element(poset, ring, rng, fill=0.6):
    entries = {}
    for pair in poset.ipairs:
        if rng.random() < fill:
            v = ring.sample(rng)
            if v != ring.zero:
                entries[pair] = v
    return FiElement(poset, ring, entries)


def test_element_builder_and_coeff():
    a = element(CHAIN3, QQ, {("x", "y"): 3, ("x", "z"): 0, ("y", "z"): -1})
    assert a.coeff("x", "y") == 3
    assert a.coeff("x", "z") == 0
    assert ("x", "z", 0) not in a.support()
    assert [(x, y) for x, y, _ in a.support()] == [("x", "y"), ("y", "z")]


def test_element_rejects_incomparable_pair():
    with pytest.raises(AlgebraError):
        element(DIAMOND, QQ, {("a", "b"): 1})
    with pytest.raises(AlgebraError):
        unit(DIAMOND, QQ, "a", "b")


def test_module_operations():
    rng = random.Random(3)
    a = random_element(CHAIN3, QQ, rng)
    b = random_element(CHAIN3, QQ, rng)
    assert a + b == b + a
    assert a - a == zero(CHAIN3, QQ)
    assert (a + b) - b == a
    assert 2 * a == a + a
    assert -1 * a == -a
    assert a.scale(0).is_zero()


def test_rmul_takes_raw_ring_values():
    a = element(CHAIN3, QQ, {("x", "y"): 3})
    assert Fraction(1, 2) * a == element(CHAIN3, QQ, {("x", "y"): Fraction(3, 2)})
    # A Fraction is no value of zp:5: refused as scale() refuses it.
    b = element(CHAIN3, GF(5), {("x", "y"): 3})
    with pytest.raises(RingError):
        Fraction(1, 2) * b
    for other in (0.5, True, "2"):
        with pytest.raises(TypeError):
            other * a


def test_mixed_ring_operations_raise():
    a = delta(CHAIN3, QQ)
    b = delta(CHAIN3, GF(5))
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(RingMismatchError):
        convolve(a, b)


def test_unit_product_law_exhaustive():
    # e_xy e_uv = e_xv when y = u, else 0, over every pair of units.
    for poset in (CHAIN3, DIAMOND):
        ring = GF(5)
        for x, y in poset.pairs():
            for u, v in poset.pairs():
                got = unit(poset, ring, x, y) * unit(poset, ring, u, v)
                if y == u:
                    assert got == unit(poset, ring, x, v)
                else:
                    assert got.is_zero()


def test_convolve_matches_triple_sum_oracle():
    rng = random.Random(17)
    for seed in range(12):
        poset = random_poset(rng.randint(1, 6), rng.random(), seed)
        for ring in (QQ, GF(3)):
            a = random_element(poset, ring, rng)
            b = random_element(poset, ring, rng)
            assert convolve(a, b) == oracle_product(a, b)


def test_convolution_associative_and_distributive():
    rng = random.Random(29)
    for seed in range(8):
        poset = random_poset(rng.randint(1, 5), 0.6, seed + 100)
        ring = GF(7) if seed % 2 else QQ
        a = random_element(poset, ring, rng)
        b = random_element(poset, ring, rng)
        c = random_element(poset, ring, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_delta_is_identity():
    rng = random.Random(31)
    for seed in range(8):
        poset = random_poset(rng.randint(0, 6), 0.5, seed + 50)
        ring = (QQ, GF(2))[seed % 2]
        a = random_element(poset, ring, rng)
        d = delta(poset, ring)
        assert d * a == a
        assert a * d == a
        assert d * d == d


def test_subset_idempotents():
    e = subset_idempotent(DIAMOND, QQ, ["a", "top"])
    assert e * e == e
    full = subset_idempotent(DIAMOND, QQ, DIAMOND.elements)
    assert full == delta(DIAMOND, QQ)
    # Orthogonality of the point idempotents.
    ea = subset_idempotent(DIAMOND, QQ, ["a"])
    eb = subset_idempotent(DIAMOND, QQ, ["b"])
    assert (ea * eb).is_zero()
    assert ea + eb == subset_idempotent(DIAMOND, QQ, ["a", "b"])


def test_zeta_counts_intervals():
    z = zeta(CHAIN3, QQ)
    zz = z * z
    # (zeta^2)(x,y) is the number of points between x and y.
    assert zz.coeff("x", "z") == 3
    assert zz.coeff("x", "y") == 2
    assert zz.coeff("x", "x") == 1


def test_moebius_inverts_zeta():
    rng = random.Random(41)
    for seed in range(10):
        poset = random_poset(rng.randint(0, 6), rng.random(), seed + 7)
        for ring in (QQ, GF(2), GF(5)):
            z = zeta(poset, ring)
            m = moebius(poset, ring)
            d = delta(poset, ring)
            assert z * m == d
            assert m * z == d


def test_moebius_chain3_values():
    m = moebius(CHAIN3, QQ)
    assert m.coeff("x", "x") == 1
    assert m.coeff("x", "y") == -1
    assert m.coeff("y", "z") == -1
    assert m.coeff("x", "z") == 0


def test_moebius_diamond_value():
    # Two middle points: mu(bot, top) = -1 - mu(a) - mu(b) contributions.
    m = moebius(DIAMOND, QQ)
    assert m.coeff("bot", "top") == 1
    assert m.coeff("bot", "a") == -1


def test_sandwich_picks_single_coefficient():
    rng = random.Random(43)
    for poset in (CHAIN3, DIAMOND):
        a = random_element(poset, QQ, rng)
        for x, y in poset.pairs():
            got = sandwich(x, a, y)
            ex = subset_idempotent(poset, QQ, [x])
            ey = subset_idempotent(poset, QQ, [y])
            assert got == ex * a * ey
            assert got == a.coeff(x, y) * unit(poset, QQ, x, y)
        # Incomparable corners give zero, not an error.
        if poset is DIAMOND:
            assert sandwich("a", a, "b").is_zero()


def test_restrict_keeps_row_and_column_of_corner():
    a = element(
        CHAIN3,
        QQ,
        {
            ("x", "x"): 1, ("x", "y"): 2, ("x", "z"): 3,
            ("y", "y"): 4, ("y", "z"): 5, ("z", "z"): 6,
        },
    )
    r = restrict(a, "x", "z")
    assert r == element(
        CHAIN3,
        QQ,
        {("x", "x"): 1, ("x", "y"): 2, ("x", "z"): 3, ("y", "z"): 5, ("z", "z"): 6},
    )
    # (y, y) lies inside the interval but on neither the row nor the column.
    assert r.coeff("y", "y") == 0
    assert restrict(a, "x", "x") == element(CHAIN3, QQ, {("x", "x"): 1})


def test_restrict_linear_and_idempotent():
    rng = random.Random(47)
    for seed in range(8):
        poset = random_poset(rng.randint(1, 6), 0.5, seed + 13)
        a = random_element(poset, QQ, rng)
        b = random_element(poset, QQ, rng)
        c = QQ.sample(rng)
        for x, y in poset.pairs():
            ra = restrict(a, x, y)
            assert restrict(ra, x, y) == ra
            assert restrict(a + b, x, y) == ra + restrict(b, x, y)
            assert restrict(a.scale(c), x, y) == ra.scale(c)


def test_restrict_of_subset_idempotent():
    # Restricting e_X to the corner (x, y) leaves e_{X meet {x,y}}.
    rng = random.Random(53)
    for seed in range(8):
        poset = random_poset(rng.randint(1, 6), 0.5, seed + 29)
        ring = GF(3)
        labels = [s for s in poset.elements if rng.random() < 0.5]
        ex = subset_idempotent(poset, ring, labels)
        for x, y in poset.pairs():
            expect = subset_idempotent(poset, ring, [s for s in (x, y) if s in labels])
            assert restrict(ex, x, y) == expect


def test_restrict_incomparable_raises():
    with pytest.raises(AlgebraError):
        restrict(delta(DIAMOND, QQ), "a", "b")


def test_json_round_trip():
    rng = random.Random(59)
    for seed in range(6):
        poset = random_poset(rng.randint(1, 5), 0.6, seed + 71)
        for ring in (QQ, GF(7)):
            a = random_element(poset, ring, rng)
            assert element_from_json(poset, a.to_json()) == a


def test_json_entries_sorted_canonically():
    a = element(CHAIN3, QQ, {("y", "z"): 2, ("x", "x"): 1, ("x", "z"): 3})
    pairs = [(e["from"], e["to"]) for e in a.to_json()["entries"]]
    assert pairs == [("x", "x"), ("x", "z"), ("y", "z")]


def test_element_from_json_rejections():
    ok = {"ring": "q", "entries": [
        {"from": "x", "to": "y", "value": {"num": "1", "den": "1"}}
    ]}
    assert element_from_json(CHAIN3, ok).coeff("x", "y") == 1
    with pytest.raises(AlgebraError):
        element_from_json(CHAIN3, {"entries": []})
    for entries in (5, None, "xy", {"x": 1}):
        with pytest.raises(AlgebraError, match="entries"):
            element_from_json(CHAIN3, {"ring": "q", "entries": entries})
    with pytest.raises(AlgebraError):
        element_from_json(
            CHAIN3,
            {"ring": "q", "entries": [
                {"from": "z", "to": "x", "value": {"num": "1", "den": "1"}}
            ]},
        )
    with pytest.raises(AlgebraError):
        element_from_json(
            CHAIN3,
            {"ring": "q", "entries": [
                {"from": "x", "to": "y", "value": {"num": "1", "den": "1"}},
                {"from": "x", "to": "y", "value": {"num": "2", "den": "1"}},
            ]},
        )
    with pytest.raises(AlgebraError):
        element_from_json(
            CHAIN3,
            {"ring": "q", "entries": [
                {"from": "x", "to": "y", "value": {"num": "0", "den": "1"}}
            ]},
        )
    with pytest.raises(AlgebraError):
        element_from_json(
            CHAIN3,
            {"ring": "q", "entries": [{"from": "x", "to": "y"}]},
        )

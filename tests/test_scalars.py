import copy
import pickle
import random
from fractions import Fraction

import pytest

from fia.deriv import derivation_basis
from fia.fialg import element
from fia.scalars import (
    GF,
    QQ,
    CoeffRing,
    RingError,
    is_prime,
    parse_ring,
)

from helpers import CHAIN3


def test_designators_round_trip():
    for text in ("q", "zp:2", "zp:5", "zp:97"):
        assert parse_ring(text).designator() == text


def test_parse_ring_rejects_garbage():
    for text in ("Q", "zp", "zp:", "zp:x", "zp:4", "zp:1", "zp:-3", "gf:5", ""):
        with pytest.raises(RingError):
            parse_ring(text)
    # int() reads these as 7 or 13; only the designator GF(p) prints is
    # accepted, and a digit string too long for int() is a RingError too.
    for text in ("zp: 7", "zp:+7", "zp:07 ", "zp:07", "zp:\u0667", "zp:1_3",
                 "zp:" + "7" * 5000):
        with pytest.raises(RingError, match="bad modulus"):
            parse_ring(text)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)


def test_gf_is_cached():
    assert GF(7) is GF(7)
    assert parse_ring("zp:7") is GF(7)


def test_rings_elements_and_maps_pickle_and_deepcopy():
    # A ring unpickles to the cached instance its designator names.
    for ring in (QQ, GF(7)):
        assert pickle.loads(pickle.dumps(ring)) is ring
        assert copy.deepcopy(ring) is ring
    a = element(CHAIN3, GF(5), {("x", "y"): 3, ("y", "z"): 4})
    d = derivation_basis(CHAIN3, QQ)[-1]
    for obj in (QQ, GF(5), a, d):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert twin == obj
    assert pickle.loads(pickle.dumps(a)).ring is GF(5)


def test_ring_constructor_validation():
    with pytest.raises(RingError):
        CoeffRing("zp")
    with pytest.raises(RingError):
        CoeffRing("q", 5)
    with pytest.raises(RingError):
        CoeffRing("zp", 1 << 31)


def test_zp_arithmetic_is_modular():
    F5 = GF(5)
    assert F5.add(3, 4) == 2
    assert F5.sub(1, 3) == 3
    assert F5.neg(2) == 3
    assert F5.mul(3, 4) == 2
    assert F5.inv(3) == 2
    assert F5.inv(4) == 4


def test_q_arithmetic_uses_fractions():
    half = QQ.canonical(Fraction(1, 2))
    third = QQ.canonical(Fraction(1, 3))
    assert QQ.add(half, third) == Fraction(5, 6)
    assert QQ.inv(half) == 2


def test_z_is_refused():
    # Every ring is a field: the integers are no ring kind or designator.
    with pytest.raises(RingError, match="unknown ring designator 'z'"):
        parse_ring("z")
    with pytest.raises(RingError):
        CoeffRing("z")


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(10)


def test_canonical_accepts_ints_fractions():
    assert GF(5).canonical(7) == 2
    assert GF(5).canonical(-1) == 4
    assert QQ.canonical(Fraction(6, 4)) == Fraction(3, 2)
    assert QQ.canonical(2) == Fraction(2)


def test_canonical_rejects_foreign_values():
    with pytest.raises(RingError):
        QQ.canonical(True)
    with pytest.raises(RingError):
        GF(5).canonical(Fraction(1, 2))
    with pytest.raises(RingError):
        QQ.canonical(0.5)


def test_field_axioms_on_samples():
    rng = random.Random(11)
    for ring in (QQ, GF(2), GF(5), GF(97)):
        kind = Fraction if ring is QQ else int
        assert type(ring.zero) is kind and type(ring.one) is kind
        for _ in range(50):
            a = ring.sample(rng)
            b = ring.sample(rng)
            c = ring.sample(rng)
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
            assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
            assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
            assert ring.mul(a, ring.add(b, c)) == ring.add(
                ring.mul(a, b), ring.mul(a, c)
            )
            assert ring.add(a, ring.neg(a)) == ring.zero
            assert ring.sub(a, b) == ring.add(a, ring.neg(b))
            assert ring.add(a, ring.zero) == a
            assert ring.mul(a, ring.one) == a
            nz = ring.sample_nonzero(rng)
            assert ring.mul(nz, ring.inv(nz)) == ring.one


def test_sample_stays_in_ring():
    rng = random.Random(0)
    for _ in range(100):
        v = GF(7).sample(rng)
        assert 0 <= v < 7
        q = QQ.sample(rng)
        assert isinstance(q, Fraction)


def test_scalar_json_shapes():
    assert QQ.scalar_to_json(Fraction(-3, 4)) == {"num": "-3", "den": "4"}
    assert GF(5).scalar_to_json(GF(5).canonical(9)) == {"res": 4}


def test_scalar_json_round_trip():
    rng = random.Random(23)
    for ring in (QQ, GF(2), GF(13)):
        for _ in range(30):
            raw = ring.sample(rng)
            assert ring.scalar_from_json(ring.scalar_to_json(raw)) == raw


def test_scalar_from_json_validation():
    with pytest.raises(RingError):
        QQ.scalar_from_json({"num": "1"})
    with pytest.raises(RingError):
        QQ.scalar_from_json({"num": "1", "den": "0"})
    with pytest.raises(RingError):
        QQ.scalar_from_json({"num": "1", "den": "-2"})
    with pytest.raises(RingError):
        QQ.scalar_from_json({"res": 1})
    with pytest.raises(RingError):
        GF(5).scalar_from_json({"int": "1"})
    with pytest.raises(RingError):
        GF(5).scalar_from_json({"res": 5})
    with pytest.raises(RingError):
        GF(5).scalar_from_json({"res": -1})
    with pytest.raises(RingError):
        GF(5).scalar_from_json({"res": "2"})
    with pytest.raises(RingError):
        GF(5).scalar_from_json([2])


def test_scalar_from_json_rejects_non_decimal_string():
    with pytest.raises(RingError, match="numerator"):
        QQ.scalar_from_json({"num": "x", "den": "2"})
    with pytest.raises(RingError, match="denominator"):
        QQ.scalar_from_json({"num": "1", "den": "1.5"})
    with pytest.raises(RingError, match="numerator"):
        QQ.scalar_from_json({"num": " 7", "den": "1"})
    with pytest.raises(RingError, match="numerator"):
        QQ.scalar_from_json({"num": "9" * 5000, "den": "1"})
    assert QQ.scalar_from_json({"num": "-3", "den": "4"}) == Fraction(-3, 4)
    assert QQ.scalar_from_json({"num": 7, "den": 1}) == 7


def test_scalar_from_json_rejects_floats():
    with pytest.raises(RingError, match="numerator"):
        QQ.scalar_from_json({"num": 1.5, "den": "1"})
    with pytest.raises(RingError, match="denominator"):
        QQ.scalar_from_json({"num": "1", "den": 2.0})
    with pytest.raises(RingError):
        GF(5).scalar_from_json({"res": 1.0})


def test_scalar_from_json_rejects_booleans():
    with pytest.raises(RingError):
        GF(5).scalar_from_json({"res": True})
    with pytest.raises(RingError):
        QQ.scalar_from_json({"num": True, "den": "1"})
    with pytest.raises(RingError):
        QQ.scalar_from_json({"num": "1", "den": False})

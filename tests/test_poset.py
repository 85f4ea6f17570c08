import hashlib
import random
import sys
from pathlib import Path

import pytest

from fia.poset import (
    Poset,
    PosetError,
    PosetParseError,
    parse_poset,
    random_poset,
)

from helpers import small_posets

CHAIN3 = "elements: x y z\nx < y\ny < z\n"
DIAMOND = "elements: bot a b top\nbot < a\nbot < b\na < top\nb < top\n"


def test_parse_chain3():
    p = parse_poset(CHAIN3)
    assert p.elements == ("x", "y", "z")
    assert p.covers == (("x", "y"), ("y", "z"))
    assert p.leq_idx(0, 2)
    assert not p.leq_idx(2, 0)
    assert p.npairs == 6


def test_parse_skips_blank_and_comment_lines():
    text = "# a chain\n\nelements: a b\n  # noise\na < b\n\n"
    p = parse_poset(text)
    assert p.covers == (("a", "b"),)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PosetParseError) as err:
        parse_poset("a < b\n")
    assert err.value.line == 1
    with pytest.raises(PosetParseError) as err:
        parse_poset("elements: a b\na<b\n")
    assert err.value.line == 2
    with pytest.raises(PosetParseError) as err:
        parse_poset("elements: a b\n\na < c\n")
    assert err.value.line == 3
    with pytest.raises(PosetParseError, match="^line 2: undeclared label 'z'$"):
        parse_poset("elements: a b\nz < a\n")
    with pytest.raises(PosetParseError) as err:
        parse_poset("elements: a a\n")
    assert err.value.line == 1
    with pytest.raises(PosetParseError) as err:
        parse_poset("elements: a b!\n")
    assert err.value.line == 1
    with pytest.raises(PosetParseError) as err:
        parse_poset("# only comments\n")
    assert err.value.line == 0


def test_empty_poset_parses():
    p = parse_poset("elements:\n")
    assert len(p) == 0
    assert p.npairs == 0


def test_cycle_rejected():
    with pytest.raises(PosetError, match="cycle"):
        parse_poset("elements: a b\na < b\nb < a\n")
    with pytest.raises(PosetError, match="cycle"):
        parse_poset("elements: a b c\na < b\nb < c\nc < a\n")
    with pytest.raises(PosetError, match="cycle"):
        Poset(("a",), (("a", "a"),))


def test_transitive_closure_and_reduction():
    # Declaring the composite relation changes nothing.
    p = parse_poset("elements: x y z\nx < y\ny < z\nx < z\n")
    q = parse_poset(CHAIN3)
    assert p == q
    assert p.covers == (("x", "y"), ("y", "z"))
    assert p.digest() == q.digest()


def test_interval_and_comparability():
    p = parse_poset(DIAMOND)
    assert p.interval_idx(0, 3) == [0, 1, 2, 3]
    assert p.interval_idx(1, 1) == [1]
    assert not p.leq_idx(1, 2)
    assert p.interval_idx(1, 2) == []
    with pytest.raises(PosetError):
        p.index("missing")


def test_pairs_canonical_order():
    p = parse_poset(CHAIN3)
    assert p.pairs() == [
        ("x", "x"), ("x", "y"), ("x", "z"),
        ("y", "y"), ("y", "z"), ("z", "z"),
    ]
    for t, (i, j) in enumerate(p.ipairs):
        assert p.pair_pos(i, j) == t
    with pytest.raises(PosetError):
        p.pair_pos(2, 0)


def test_pair_order_is_reflexive_and_antisymmetric():
    rng = random.Random(5)
    for _ in range(20):
        p = random_poset(rng.randint(0, 7), rng.random(), rng.randrange(10**6))
        n = len(p)
        for i in range(n):
            assert p.leq_idx(i, i)
            for j in range(n):
                if i != j and p.leq_idx(i, j):
                    assert not p.leq_idx(j, i)


def test_order_is_transitive_on_random_posets():
    for seed in range(15):
        p = random_poset(6, 0.4, seed)
        n = len(p)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if p.leq_idx(i, j) and p.leq_idx(j, k):
                        assert p.leq_idx(i, k)


def test_topo_order_is_a_linear_extension():
    for seed in range(15):
        p = random_poset(7, 0.5, seed)
        position = {v: t for t, v in enumerate(p.topo_order)}
        for i, j in p.ipairs:
            assert position[i] <= position[j]


def test_serialize_round_trip():
    for seed in range(10):
        p = random_poset(6, 0.5, seed)
        assert parse_poset(p.serialize()) == p
        assert parse_poset(p.serialize()).digest() == p.digest()


def test_digest_ignores_cover_presentation():
    p = parse_poset("elements: x y z\nx < z\nx < y\ny < z\n")
    assert p.digest() == parse_poset(CHAIN3).digest()
    # Element order is part of the identity.
    assert parse_poset("elements: y x\n").digest() != parse_poset(
        "elements: x y\n"
    ).digest()


def _four_layers():
    """64 elements in 4 layers of 16, each below every element of the next."""
    layers = [[f"l{k}_{i}" for i in range(16)] for k in range(4)]
    covers = [
        (a, b) for low, high in zip(layers, layers[1:]) for a in low for b in high
    ]
    return Poset([label for layer in layers for label in layer], covers)


def _digest_cases():
    golden = sorted((Path(__file__).resolve().parent / "golden").glob("*.poset"))
    texts = [path.read_text(encoding="utf-8") for path in golden]
    return [*map(parse_poset, texts), *small_posets(4), _four_layers()]


def test_digest_is_sha256_of_the_serialization():
    # hashlib is the reference: the digest must match it byte for byte.
    cases = _digest_cases()
    assert len(cases[-1]) == 64
    for p in cases:
        assert p.digest() == hashlib.sha256(p.serialize().encode()).hexdigest()


def test_digest_falls_back_to_hashlib(monkeypatch):
    # A CPython built without its own SHA-256 module still names posets alike.
    module = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    expected = [p.digest() for p in _digest_cases()]
    reference, calls = hashlib.sha256, []

    def sha256(data):
        calls.append(data)
        return reference(data)

    monkeypatch.setattr(hashlib, "sha256", sha256)
    assert [p.digest() for p in _digest_cases()] == expected
    assert calls == []
    monkeypatch.setitem(sys.modules, module, None)
    assert [p.digest() for p in _digest_cases()] == expected
    assert len(calls) == len(expected)


def test_size_cap():
    # Both the reader's Poset and random_poset admit 64 elements, not 65.
    labels = [f"v{i}" for i in range(65)]
    assert len(Poset(labels[:64], ())) == 64
    with pytest.raises(PosetError, match="65 elements, cap is 64"):
        Poset(labels, ())
    assert len(random_poset(64, 0.5, seed=3)) == 64
    with pytest.raises(PosetError, match="n must be between 0 and 64"):
        random_poset(65, 0.5, seed=3)


def test_undeclared_cover_label():
    with pytest.raises(PosetError, match="undeclared label 'b'"):
        Poset(("a",), (("a", "b"),))
    with pytest.raises(PosetError, match="undeclared label 'z'"):
        Poset(("a",), (("z", "a"),))


def test_constructor_rejects_bad_and_duplicate_labels():
    # The same label checks as the reader's, for callers that build a Poset.
    with pytest.raises(PosetError, match="bad label 'b!'"):
        Poset(("a", "b!"), ())
    with pytest.raises(PosetError, match="duplicate element label 'a'"):
        Poset(("a", "b", "a"), ())


def test_random_poset_determinism_and_extremes():
    a = random_poset(6, 0.5, seed=42)
    b = random_poset(6, 0.5, seed=42)
    assert a == b
    assert a.serialize() == b.serialize()
    assert random_poset(5, 0.0, seed=1).npairs == 5
    chain = random_poset(5, 1.0, seed=1)
    assert chain.npairs == 15
    with pytest.raises(PosetError):
        random_poset(-1, 0.5, seed=0)


def test_interval_members_are_between():
    p = random_poset(7, 0.45, seed=9)
    for i, j in p.ipairs:
        for z in p.interval_idx(i, j):
            assert p.leq_idx(i, z) and p.leq_idx(z, j)

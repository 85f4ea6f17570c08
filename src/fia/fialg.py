"""The incidence algebra of a finite poset over an exact coefficient ring.

Elements are functions on comparable pairs, stored sparsely on their
nonzero support and multiplied by convolution.  Matrix units e_xy (basis
elements supported on one pair), subset idempotents, the zeta, delta and
moebius elements and the restriction of an element to an interval corner
are provided as constructors.
"""

from __future__ import annotations

from .poset import Poset
from .scalars import CoeffRing, is_fraction, parse_ring


class AlgebraError(ValueError):
    """Invalid incidence-algebra construction or operand combination."""


class CapExceededError(ValueError):
    """The requested enumeration is larger than the configured cap."""


def _check_compatible(a, b):
    """Raise unless the operands (elements or maps) share poset and ring."""
    if a.poset != b.poset:
        raise AlgebraError("operands live over different posets")
    a.ring.check_same(b.ring)


def _comparable(poset: Poset, x: str, y: str) -> tuple[int, int]:
    """The index pair of the labels x <= y; raises if they are not comparable."""
    i, j = poset.index(x), poset.index(y)
    if not poset.leq_idx(i, j):
        raise AlgebraError(f"pair ({x!r}, {y!r}) is not comparable")
    return i, j


class FiElement:
    """A sparse incidence-algebra element; entries keyed by index pairs."""

    __slots__ = ("poset", "ring", "entries")

    def __init__(self, poset: Poset, ring: CoeffRing, entries: dict):
        self.poset = poset
        self.ring = ring
        self.entries = entries

    # -- access --------------------------------------------------------

    def coeff(self, x: str, y: str):
        """The raw coefficient at (x, y); zero when absent or incomparable."""
        i, j = self.poset.index(x), self.poset.index(y)
        return self.entries.get((i, j), self.ring.zero)

    def support(self) -> list[tuple]:
        """Nonzero entries (x, y, raw value) in canonical pair order."""
        pos = self.poset.pair_pos
        els = self.poset.elements
        out = []
        for (i, j) in sorted(self.entries, key=lambda p: pos(*p)):
            out.append((els[i], els[j], self.entries[(i, j)]))
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, FiElement):
            return NotImplemented
        return (
            self.poset == other.poset
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __repr__(self):
        terms = ", ".join(
            f"{x}<{y}:{v}" if x != y else f"{x}:{v}"
            for x, y, v in self.support()
        )
        return f"FiElement({self.ring.designator()}, {{{terms or '0'}}})"

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FiElement):
            return NotImplemented
        _check_compatible(self, other)
        ring = self.ring
        out = dict(self.entries)
        for key, v in other.entries.items():
            nv = ring.add(out.get(key, ring.zero), v)
            if nv == ring.zero:
                out.pop(key, None)
            else:
                out[key] = nv
        return FiElement(self.poset, ring, out)

    def __sub__(self, other):
        if not isinstance(other, FiElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        ring = self.ring
        return FiElement(
            self.poset, ring, {k: ring.neg(v) for k, v in self.entries.items()}
        )

    def scale(self, c) -> "FiElement":
        ring = self.ring
        raw = ring.canonical(c)
        if raw == ring.zero:
            return FiElement(self.poset, ring, {})
        out = {k: ring.mul(raw, v) for k, v in self.entries.items()}
        return FiElement(self.poset, ring, out)

    def __rmul__(self, other):
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, int) or is_fraction(other):
            return self.scale(other)
        return NotImplemented

    # -- convolution -------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, FiElement):
            return NotImplemented
        return convolve(self, other)

    def to_json(self) -> dict:
        to_j = self.ring.scalar_to_json
        entries = [
            {"from": x, "to": y, "value": to_j(v)} for x, y, v in self.support()
        ]
        return {"ring": self.ring.designator(), "entries": entries}


def element(poset: Poset, ring: CoeffRing, data=None) -> FiElement:
    """Build an element from {(x_label, y_label): value}; zeros are dropped."""
    entries = {}
    if data:
        for (x, y), value in data.items():
            i, j = _comparable(poset, x, y)
            raw = ring.canonical(value)
            if raw != ring.zero:
                entries[(i, j)] = raw
    return FiElement(poset, ring, entries)


def zero(poset: Poset, ring: CoeffRing) -> FiElement:
    return FiElement(poset, ring, {})


def unit(poset: Poset, ring: CoeffRing, x: str, y: str) -> FiElement:
    """The matrix unit e_xy, requiring x <= y."""
    i, j = _comparable(poset, x, y)
    return FiElement(poset, ring, {(i, j): ring.one})


def subset_idempotent(poset: Poset, ring: CoeffRing, labels) -> FiElement:
    """The diagonal idempotent supported on a subset of elements."""
    entries = {}
    for x in labels:
        i = poset.index(x)
        entries[(i, i)] = ring.one
    return FiElement(poset, ring, entries)


def delta(poset: Poset, ring: CoeffRing) -> FiElement:
    """The multiplicative identity: ones on the diagonal."""
    return subset_idempotent(poset, ring, poset.elements)


def zeta(poset: Poset, ring: CoeffRing) -> FiElement:
    """One on every comparable pair."""
    return FiElement(poset, ring, {pair: ring.one for pair in poset.ipairs})


def moebius(poset: Poset, ring: CoeffRing) -> FiElement:
    """The convolution inverse of zeta, by the interval recursion."""
    ring_zero = ring.zero
    entries = {}
    mu = {}
    order = poset.topo_order
    for i in range(len(poset)):
        for j in order:
            if not poset.leq_idx(i, j):
                continue
            if i == j:
                val = ring.one
            else:
                acc = ring_zero
                for z in poset.interval_idx(i, j):
                    if z != j:
                        acc = ring.add(acc, mu[(i, z)])
                val = ring.neg(acc)
            mu[(i, j)] = val
            if val != ring_zero:
                entries[(i, j)] = val
    return FiElement(poset, ring, entries)


def convolve(a: FiElement, b: FiElement) -> FiElement:
    """The incidence-algebra product: sum over z in [x, y] of a(x,z) b(z,y)."""
    _check_compatible(a, b)
    ring = a.ring
    by_row: dict[int, list] = {}
    for (z, j), vb in b.entries.items():
        by_row.setdefault(z, []).append((j, vb))
    out: dict = {}
    zero_raw = ring.zero
    for (i, z), va in a.entries.items():
        group = by_row.get(z)
        if not group:
            continue
        for j, vb in group:
            key = (i, j)
            nv = ring.add(out.get(key, zero_raw), ring.mul(va, vb))
            if nv == zero_raw:
                out.pop(key, None)
            else:
                out[key] = nv
    return FiElement(a.poset, ring, out)


def restrict(a: FiElement, x: str, y: str) -> FiElement:
    """Restriction of a to the corner at (x, y), requiring x <= y.

    Keeps the row of x and the column of y inside the interval [x, y]:
    entries at (x, v) and (u, y) for u, v in [x, y], everything else
    dropped.  Linear in a and idempotent.
    """
    poset = a.poset
    i, j = _comparable(poset, x, y)
    out = {}
    for z in poset.interval_idx(i, j):
        v = a.entries.get((i, z))
        if v is not None:
            out[(i, z)] = v
        v = a.entries.get((z, j))
        if v is not None:
            out[(z, j)] = v
    return FiElement(poset, a.ring, out)


def element_from_json(poset: Poset, obj) -> FiElement:
    """Parse element JSON; rejects bad pairs, duplicates and zero values."""
    if not isinstance(obj, dict) or "ring" not in obj or "entries" not in obj:
        raise AlgebraError("element JSON needs 'ring' and 'entries'")
    ring = parse_ring(obj["ring"])
    if not isinstance(obj["entries"], list):
        raise AlgebraError("element JSON 'entries' must be a list")
    entries = {}
    for item in obj["entries"]:
        if not isinstance(item, dict) or set(item) != {"from", "to", "value"}:
            raise AlgebraError(f"bad element entry {item!r}")
        x, y = item["from"], item["to"]
        if not (isinstance(x, str) and isinstance(y, str)):
            raise AlgebraError(f"element labels must be strings, got {x!r}, {y!r}")
        i, j = _comparable(poset, x, y)
        if (i, j) in entries:
            raise AlgebraError(f"duplicate entry for pair ({x!r}, {y!r})")
        raw = ring.scalar_from_json(item["value"])
        if raw == ring.zero:
            raise AlgebraError(f"explicit zero value at pair ({x!r}, {y!r})")
        entries[(i, j)] = raw
    return FiElement(poset, ring, entries)

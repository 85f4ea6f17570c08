"""Derivations of a finitary incidence algebra.

A linear endomorphism is an N x N matrix over the coefficient ring, N the
number of comparable pairs; column t is the image of the t-th basis unit.
The derivation space is the exact nullspace of the Leibniz system on all
basis-unit products, inner derivations are the commutator maps, and every
derivation splits as an inner part plus a diagonal part coming from an
additive-on-intervals function of pairs.  decompose() computes that
splitting constructively and reports the residual, which is zero exactly
on derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import _linalg
from .fialg import AlgebraError, FiElement, convolve, unit, zero as zero_element
from .poset import Poset
from .scalars import CoeffRing, RingError, Scalar


@lru_cache(maxsize=256)
def _basis_products(poset: Poset):
    """Table of basis-unit products: position of e_i e_j, or -1 when zero."""
    ip = poset.ipairs
    table = []
    for (x, y) in ip:
        row = []
        for (u, v) in ip:
            row.append(poset.pair_pos(x, v) if y == u else -1)
        table.append(tuple(row))
    return tuple(table)


class LinearEndo:
    """A ring-linear endomorphism of the incidence algebra, stored by columns."""

    __slots__ = ("poset", "ring", "cols")

    def __init__(self, poset: Poset, ring: CoeffRing, cols):
        self.poset = poset
        self.ring = ring
        self.cols = cols

    # -- building ------------------------------------------------------

    @classmethod
    def zero(cls, poset: Poset, ring: CoeffRing) -> "LinearEndo":
        n = poset.npairs
        return cls(poset, ring, [[ring.zero] * n for _ in range(n)])

    @classmethod
    def from_images(cls, poset, ring, images) -> "LinearEndo":
        """Build from the list of basis-unit images, in canonical pair order."""
        n = poset.npairs
        images = list(images)
        if len(images) != n:
            raise AlgebraError(f"need {n} images, got {len(images)}")
        cols = []
        for img in images:
            if img.poset != poset:
                raise AlgebraError("image lives over a different poset")
            ring.check_same(img.ring)
            col = [ring.zero] * n
            for pair, v in img.entries.items():
                col[poset.pair_pos(*pair)] = v
            cols.append(col)
        return cls(poset, ring, cols)

    # -- application -----------------------------------------------------

    def apply(self, a: FiElement) -> FiElement:
        if a.poset != self.poset:
            raise AlgebraError("element lives over a different poset")
        self.ring.check_same(a.ring)
        ring = self.ring
        n = self.poset.npairs
        pos = self.poset.pair_pos
        out = [ring.zero] * n
        for pair, v in a.entries.items():
            col = self.cols[pos(*pair)]
            for r in range(n):
                w = col[r]
                if w != ring.zero:
                    out[r] = ring.add(out[r], ring.mul(v, w))
        ip = self.poset.ipairs
        entries = {ip[r]: out[r] for r in range(n) if out[r] != ring.zero}
        return FiElement(self.poset, ring, entries)

    def apply_coeff(self, a: FiElement, x: str, y: str) -> Scalar:
        """The (x, y) coefficient of apply(a), without forming the image."""
        ring = self.ring
        pos = self.poset.pair_pos
        row = pos(self.poset.index(x), self.poset.index(y))
        acc = ring.zero
        for pair, v in a.entries.items():
            w = self.cols[pos(*pair)][row]
            if w != ring.zero:
                acc = ring.add(acc, ring.mul(v, w))
        return Scalar(ring, acc)

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LinearEndo):
            return NotImplemented
        if self.poset != other.poset:
            raise AlgebraError("endomorphisms live over different posets")
        self.ring.check_same(other.ring)
        add = self.ring.add
        cols = [
            [add(a, b) for a, b in zip(ca, cb)]
            for ca, cb in zip(self.cols, other.cols)
        ]
        return LinearEndo(self.poset, self.ring, cols)

    def __sub__(self, other):
        if not isinstance(other, LinearEndo):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        neg = self.ring.neg
        return LinearEndo(
            self.poset, self.ring, [[neg(v) for v in col] for col in self.cols]
        )

    def scale(self, c) -> "LinearEndo":
        ring = self.ring
        raw = ring.canonical(c)
        return LinearEndo(
            self.poset, ring, [[ring.mul(raw, v) for v in col] for col in self.cols]
        )

    def nonzero_count(self) -> int:
        zero_raw = self.ring.zero
        return sum(1 for col in self.cols for v in col if v != zero_raw)

    def __eq__(self, other):
        if not isinstance(other, LinearEndo):
            return NotImplemented
        return (
            self.poset == other.poset
            and self.ring == other.ring
            and self.cols == other.cols
        )

    def __repr__(self):
        return (
            f"LinearEndo({self.ring.designator()},"
            f" {self.poset.npairs}x{self.poset.npairs})"
        )

    def to_json(self) -> dict:
        to_j = self.ring.scalar_to_json
        return {
            "ring": self.ring.designator(),
            "poset_hash": self.poset.digest(),
            "columns": [[to_j(v) for v in col] for col in self.cols],
        }


def endo_from_json(poset: Poset, obj) -> LinearEndo:
    from .scalars import parse_ring

    if not isinstance(obj, dict) or not {"ring", "poset_hash", "columns"} <= set(obj):
        raise AlgebraError("map JSON needs 'ring', 'poset_hash' and 'columns'")
    if obj["poset_hash"] != poset.digest():
        raise AlgebraError("map JSON was written for a different poset")
    ring = parse_ring(obj["ring"])
    n = poset.npairs
    columns = obj["columns"]
    if not isinstance(columns, list) or len(columns) != n:
        raise AlgebraError(f"map JSON needs {n} columns")
    cols = []
    for col in columns:
        if not isinstance(col, list) or len(col) != n:
            raise AlgebraError(f"each column needs {n} entries")
        cols.append([ring.scalar_from_json(v) for v in col])
    return LinearEndo(poset, ring, cols)


def is_derivation(d: LinearEndo) -> bool:
    """Whether d satisfies the Leibniz rule on every pair of basis units."""
    poset, ring = d.poset, d.ring
    n = poset.npairs
    table = _basis_products(poset)
    cols = d.cols
    zero_raw = ring.zero
    add = ring.add
    for i in range(n):
        row_i = table[i]
        col_i = cols[i]
        for j in range(n):
            col_j = cols[j]
            rhs = [zero_raw] * n
            for a in range(n):
                va = col_i[a]
                if va != zero_raw:
                    c = table[a][j]
                    if c >= 0:
                        rhs[c] = add(rhs[c], va)
                vb = col_j[a]
                if vb != zero_raw:
                    c = row_i[a]
                    if c >= 0:
                        rhs[c] = add(rhs[c], vb)
            k = row_i[j]
            if k >= 0:
                if rhs != cols[k]:
                    return False
            elif any(v != zero_raw for v in rhs):
                return False
    return True


def inner(a: FiElement) -> LinearEndo:
    """The commutator map r -> a r - r a."""
    poset, ring = a.poset, a.ring
    els = poset.elements
    images = []
    for i, j in poset.ipairs:
        e = unit(poset, ring, els[i], els[j])
        images.append(convolve(a, e) - convolve(e, a))
    return LinearEndo.from_images(poset, ring, images)


class TransitiveMap:
    """A ring-valued function on comparable pairs; zeros stored implicitly."""

    __slots__ = ("poset", "ring", "values")

    def __init__(self, poset: Poset, ring: CoeffRing, values: dict):
        self.poset = poset
        self.ring = ring
        self.values = values

    def value(self, x: str, y: str) -> Scalar:
        i, j = self.poset.index(x), self.poset.index(y)
        self.poset.pair_pos(i, j)
        return Scalar(self.ring, self.values.get((i, j), self.ring.zero))

    def support(self) -> list[tuple[str, str, Scalar]]:
        pos = self.poset.pair_pos
        els = self.poset.elements
        out = []
        for (i, j) in sorted(self.values, key=lambda p: pos(*p)):
            out.append((els[i], els[j], Scalar(self.ring, self.values[(i, j)])))
        return out

    def __eq__(self, other):
        if not isinstance(other, TransitiveMap):
            return NotImplemented
        return (
            self.poset == other.poset
            and self.ring == other.ring
            and self.values == other.values
        )

    def __repr__(self):
        return f"TransitiveMap({self.ring.designator()}, {len(self.values)} nonzero)"

    def to_json_entries(self) -> list:
        return [
            {"from": x, "to": y, "value": s.to_json()}
            for x, y, s in self.support()
        ]


def transitive_map(poset: Poset, ring: CoeffRing, data=None) -> TransitiveMap:
    values = {}
    if data:
        for (x, y), value in data.items():
            i, j = poset.index(x), poset.index(y)
            poset.pair_pos(i, j)
            raw = ring.canonical(value)
            if raw != ring.zero:
                values[(i, j)] = raw
    return TransitiveMap(poset, ring, values)


def coboundary(poset: Poset, ring: CoeffRing, point_values) -> TransitiveMap:
    """The map (x, y) -> f(y) - f(x) induced by a function on elements."""
    raw = {x: ring.canonical(v) for x, v in point_values.items()}
    values = {}
    for i, j in poset.ipairs:
        fy = raw.get(poset.elements[j], ring.zero)
        fx = raw.get(poset.elements[i], ring.zero)
        v = ring.sub(fy, fx)
        if v != ring.zero:
            values[(i, j)] = v
    return TransitiveMap(poset, ring, values)


def is_cocycle(sigma: TransitiveMap) -> bool:
    """Additivity across every factorization x <= y <= z of a comparable pair."""
    poset, ring = sigma.poset, sigma.ring
    vals = sigma.values
    zero_raw = ring.zero
    for i, j in poset.ipairs:
        target = vals.get((i, j), zero_raw)
        for k in poset.interval_idx(i, j):
            left = vals.get((i, k), zero_raw)
            right = vals.get((k, j), zero_raw)
            if ring.add(left, right) != target:
                return False
    return True


def sigma_endo(sigma: TransitiveMap) -> LinearEndo:
    """The diagonal map e_xy -> sigma(x, y) e_xy."""
    poset, ring = sigma.poset, sigma.ring
    d = LinearEndo.zero(poset, ring)
    for t, pair in enumerate(poset.ipairs):
        v = sigma.values.get(pair)
        if v is not None:
            d.cols[t][t] = v
    return d


# -- the derivation space ------------------------------------------------


@lru_cache(maxsize=256)
def _leibniz_rows(poset: Poset):
    """Integer-coefficient rows of the Leibniz system, variable (r, c) = c*N + r."""
    n = poset.npairs
    table = _basis_products(poset)
    rows = []
    for i in range(n):
        row_i = table[i]
        for j in range(n):
            k = row_i[j]
            by_row: dict[int, dict] = {}
            if k >= 0:
                for c in range(n):
                    by_row[c] = {k * n + c: 1}
            for a in range(n):
                c = table[a][j]
                if c >= 0:
                    row = by_row.setdefault(c, {})
                    var = i * n + a
                    row[var] = row.get(var, 0) - 1
                c = row_i[a]
                if c >= 0:
                    row = by_row.setdefault(c, {})
                    var = j * n + a
                    row[var] = row.get(var, 0) - 1
            for row in by_row.values():
                cleaned = {var: cf for var, cf in row.items() if cf != 0}
                if cleaned:
                    rows.append(tuple(sorted(cleaned.items())))
    return tuple(sorted(set(rows)))


def _require_field(ring: CoeffRing):
    if not ring.is_field():
        raise RingError(
            f"nullspace computations need a field, not {ring.designator()}"
        )


def _vec_to_endo(poset, ring, vec) -> LinearEndo:
    n = poset.npairs
    return LinearEndo(poset, ring, [list(vec[c * n:(c + 1) * n]) for c in range(n)])


def _endo_to_vec(endo: LinearEndo) -> dict:
    """The sparse vector {c*N + r: value} of the nonzero entries of endo."""
    n = endo.poset.npairs
    zero_raw = endo.ring.zero
    return {
        c * n + r: v
        for c, col in enumerate(endo.cols)
        for r, v in enumerate(col)
        if v != zero_raw
    }


@lru_cache(maxsize=64)
def _derivation_basis(poset: Poset, ring: CoeffRing):
    _require_field(ring)
    n = poset.npairs
    zero_raw = ring.zero
    seen = set()
    ring_rows = []
    for int_row in _leibniz_rows(poset):
        row = {}
        for var, cf in int_row:
            v = ring.from_int(cf)
            if v != zero_raw:
                row[var] = v
        if not row:
            continue
        frozen = tuple(sorted(row.items()))
        if frozen not in seen:
            seen.add(frozen)
            ring_rows.append(row)
    pivots = _linalg.rref(ring_rows, ring)
    vecs = _linalg.nullspace(pivots, n * n, ring)
    return tuple(_vec_to_endo(poset, ring, v) for v in vecs)


def derivation_basis(poset: Poset, ring: CoeffRing) -> list[LinearEndo]:
    """Canonical basis of the space of derivations, by exact elimination."""
    return list(_derivation_basis(poset, ring))


@lru_cache(maxsize=64)
def _inner_basis(poset: Poset, ring: CoeffRing):
    _require_field(ring)
    n = poset.npairs
    els = poset.elements
    zero_raw = ring.zero
    rows = []
    for i, j in poset.ipairs:
        row = _endo_to_vec(inner(unit(poset, ring, els[i], els[j])))
        if row:
            rows.append(row)
    pivots = _linalg.rref(rows, ring)
    basis = []
    for lead in sorted(pivots):
        vec = [zero_raw] * (n * n)
        for var, v in pivots[lead].items():
            vec[var] = v
        basis.append(_vec_to_endo(poset, ring, vec))
    return tuple(basis)


def inner_basis(poset: Poset, ring: CoeffRing) -> list[LinearEndo]:
    """Canonical basis of the span of commutator maps of basis units."""
    return list(_inner_basis(poset, ring))


def h1_dimension(poset: Poset, ring: CoeffRing) -> int:
    """dim(derivations) - dim(inner derivations); zero when all are inner."""
    return len(_derivation_basis(poset, ring)) - len(_inner_basis(poset, ring))


def derivation_span_rref(poset: Poset, ring: CoeffRing) -> dict[int, dict]:
    """The rref of the derivation space, for exact membership tests."""
    rows = [_endo_to_vec(endo) for endo in _derivation_basis(poset, ring)]
    return _linalg.rref(rows, ring)


def endo_in_span(d: LinearEndo, span_rref: dict[int, dict]) -> bool:
    return not _linalg.reduce_vector(_endo_to_vec(d), span_rref, d.ring)


# -- constructive decomposition -------------------------------------------


@dataclass
class Decomposition:
    """d = (commutator with alpha) + (diagonal map of sigma), up to residual."""

    alpha: FiElement
    sigma: TransitiveMap
    residual_norm: int

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.to_json(),
            "sigma": self.sigma.to_json_entries(),
            "residual": self.residual_norm,
        }


def decompose(d: LinearEndo) -> Decomposition:
    """Split d into an inner part and a diagonal part, reading both off d.

    The inner witness collects, for each comparable (x, y), the (x, y)
    coefficient of the image of e_y.  The diagonal part is what remains on
    the matrix diagonal after subtracting that commutator; the residual
    counts every other surviving entry and vanishes iff d was a derivation
    with this exact shape.
    """
    poset, ring = d.poset, d.ring
    pos = poset.pair_pos
    zero_raw = ring.zero
    alpha_entries = {}
    for t, (x, y) in enumerate(poset.ipairs):
        v = d.cols[pos(y, y)][t]
        if v != zero_raw:
            alpha_entries[(x, y)] = v
    alpha = FiElement(poset, ring, alpha_entries)
    reduced = d - inner(alpha)
    sigma_values = {}
    for t, pair in enumerate(poset.ipairs):
        v = reduced.cols[t][t]
        if v != zero_raw:
            sigma_values[pair] = v
    sigma = TransitiveMap(poset, ring, sigma_values)
    residual = reduced - sigma_endo(sigma)
    return Decomposition(alpha, sigma, residual.nonzero_count())


def idempotent_identity_check(d: LinearEndo, e: FiElement) -> bool:
    """Whether d(e) = d(e) e + e d(e) for the given idempotent e."""
    if convolve(e, e) != e:
        raise AlgebraError("element is not idempotent")
    image = d.apply(e)
    return image == convolve(image, e) + convolve(e, image)

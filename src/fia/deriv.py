"""Derivations of a finitary incidence algebra.

A linear endomorphism is an N x N matrix over the coefficient ring, N the
number of comparable pairs; column t is the image of the t-th basis unit.
Der is described one way: every derivation splits as an inner part
[alpha, .] plus the diagonal map D_sigma of a function sigma on the pairs
that is additive along chains (a cocycle), and every such sum is a
derivation.  Both alpha and sigma are functions on the pairs, so both are
algebra elements (FiElement).  _split reads them off a map and lists what
the split leaves over; is_derivation and decompose read their answers off
it.  The cocycle condition is one row set, _cocycle_rows, which is_cocycle
evaluates, _cocycle_basis eliminates and locder's chain probes read on a
map's diagonal.  Der is the exact span of the commutator maps [e_xy, .]
and of D_sigma over a cocycle basis, reduced to sparse rows once per
caller, which passes them on; its basis and dimension come from them.
They are the one form of Der that library paths read: a dense map is
built from rows only by _endo_from_rows, for callers that get a map.
Each report, here and in locder, is a record: a SimpleNamespace whose
fields are set by keyword, and whose set fields one to_json writes.
"""

from __future__ import annotations

import json
from itertools import chain
from types import SimpleNamespace

from . import _linalg
from .fialg import AlgebraError, FiElement, _check_compatible, convolve, unit
from .poset import Poset
from .scalars import CoeffRing, parse_ring


def _canonical_json(obj) -> str:
    """The one canonical JSON text: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _split_json(obj: dict, key: str) -> tuple[str, str]:
    """(head, tail) of obj's canonical text with a list at key, around its items."""
    marker = _canonical_json(key) + ":["
    head, tail = _canonical_json({**obj, key: []}).split(marker + "]")
    return head + marker, "]" + tail


def _dense_vector(poset: Poset, a: FiElement) -> list:
    """The coefficients of a in canonical pair order."""
    vec = [a.ring.zero] * poset.npairs
    pos = poset.pair_pos
    for pair, v in a.entries.items():
        vec[pos(*pair)] = v
    return vec


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
            cols.append(_dense_vector(poset, img))
        return cls(poset, ring, cols)

    # -- application -----------------------------------------------------

    def apply(self, a: FiElement) -> FiElement:
        _check_compatible(self, a)
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

    def apply_coeff(self, a: FiElement, x: str, y: str):
        """The raw (x, y) coefficient of apply(a), without forming the image."""
        ring = self.ring
        pos = self.poset.pair_pos
        row = pos(self.poset.index(x), self.poset.index(y))
        acc = ring.zero
        for pair, v in a.entries.items():
            w = self.cols[pos(*pair)][row]
            if w != ring.zero:
                acc = ring.add(acc, ring.mul(v, w))
        return acc

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LinearEndo):
            return NotImplemented
        _check_compatible(self, other)
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


def inner(a: FiElement) -> LinearEndo:
    """The commutator map r -> a r - r a."""
    poset, ring = a.poset, a.ring
    els = poset.elements
    images = []
    for i, j in poset.ipairs:
        e = unit(poset, ring, els[i], els[j])
        images.append(convolve(a, e) - convolve(e, a))
    return LinearEndo.from_images(poset, ring, images)


def coboundary(poset: Poset, ring: CoeffRing, point_values) -> FiElement:
    """The function (x, y) -> f(y) - f(x) induced by a function on elements."""
    raw = {poset.index(x): ring.canonical(v) for x, v in point_values.items()}
    values = {}
    for i, j in poset.ipairs:
        v = ring.sub(raw.get(j, ring.zero), raw.get(i, ring.zero))
        if v != ring.zero:
            values[(i, j)] = v
    return FiElement(poset, ring, values)


def _cocycle_rows(poset: Poset, ring: CoeffRing):
    """The cocycle condition as sparse rows {pair position: value}.

    A cocycle is additive across every factorization: sigma(i, k) +
    sigma(k, j) = sigma(i, j) for i <= k <= j.  With k = i or k = j that
    says sigma(i, i) = 0.  Of the others only the cover chains, k covering
    i, are yielded: they imply the rest, by induction on the length of [i, k].
    """
    pos = poset.pair_pos
    one, minus_one = ring.one, ring.neg(ring.one)
    for i in range(len(poset)):
        yield {pos(i, i): one}
    for i, k, j in poset.cover_chains():
        yield {pos(i, k): one, pos(k, j): one, pos(i, j): minus_one}


def is_cocycle(sigma: FiElement) -> bool:
    """Whether sigma, a function on the pairs, is additive along chains."""
    poset, ring = sigma.poset, sigma.ring
    ipairs = poset.ipairs
    values = sigma.entries
    zero_raw = ring.zero
    for row in _cocycle_rows(poset, ring):
        acc = zero_raw
        for var, c in row.items():
            v = values.get(ipairs[var])
            if v is not None:
                acc = ring.add(acc, ring.mul(c, v))
        if acc != zero_raw:
            return False
    return True


def sigma_endo(sigma: FiElement) -> LinearEndo:
    """The diagonal map e_xy -> sigma(x, y) e_xy."""
    poset, ring = sigma.poset, sigma.ring
    d = LinearEndo.zero(poset, ring)
    for t, pair in enumerate(poset.ipairs):
        v = sigma.entries.get(pair)
        if v is not None:
            d.cols[t][t] = v
    return d


# -- the split d = [alpha, .] + D_sigma --------------------------------------


def _split(d: LinearEndo):
    """Read alpha and sigma off d, and what keeps d from [alpha, .] + D_sigma.

    alpha(x, y) is the (x, y) coefficient of d(e_yy), and sigma(u, v) is
    the (u, v) coefficient of d(e_uv) less that of [alpha, e_uv], which is
    alpha(u, u) - alpha(v, v).  Off the diagonal, [alpha, e_uv] is
    sum_x alpha(x, u) e_xv - sum_w alpha(v, w) e_uw; the third value
    returned lazily yields, column by column, each position (c, r), r != c,
    where d differs from it.
    """
    poset, ring = d.poset, d.ring
    pos = poset.pair_pos
    ipairs = poset.ipairs
    cols = d.cols
    zero_raw = ring.zero
    alpha = {}
    for t, (x, y) in enumerate(ipairs):
        v = cols[pos(y, y)][t]
        if v != zero_raw:
            alpha[(x, y)] = v
    sigma = {}
    for t, (u, v) in enumerate(ipairs):
        s = ring.sub(cols[t][t], alpha.get((u, u), zero_raw))
        s = ring.add(s, alpha.get((v, v), zero_raw))
        if s != zero_raw:
            sigma[(u, v)] = s
    ending_at, starting_at = {}, {}
    for (x, y), v in alpha.items():
        ending_at.setdefault(y, []).append((x, v))
        starting_at.setdefault(x, []).append((y, ring.neg(v)))

    def off_diagonal():
        for c, (u, v) in enumerate(ipairs):
            want = {pos(x, v): a for x, a in ending_at.get(u, ())}
            want.update((pos(u, w), a) for w, a in starting_at.get(v, ()))
            for r, got in enumerate(cols[c]):
                if (got or r in want) and r != c and got != want.get(r, zero_raw):
                    yield c, r

    return (
        FiElement(poset, ring, alpha),
        FiElement(poset, ring, sigma),
        off_diagonal(),
    )


def is_derivation(d: LinearEndo) -> bool:
    """Whether d = [alpha, .] + D_sigma with sigma a cocycle.

    Every derivation has that shape and every such map is one, so this is
    the Leibniz rule on every pair of basis units.
    """
    _, sigma, off_diagonal = _split(d)
    return next(off_diagonal, None) is None and is_cocycle(sigma)


class _Report(SimpleNamespace):
    """A record of fields set by keyword, each an attribute of the report."""

    def to_json(self) -> dict:
        """The fields that are set, in order; an element as its JSON."""
        return {
            name: value.to_json() if isinstance(value, FiElement) else value
            for name, value in vars(self).items()
            if value is not None
        }


class Decomposition(_Report):
    """d = (commutator with alpha) + (diagonal map of sigma), up to residual."""

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.to_json(),
            "sigma": self.sigma.to_json()["entries"],
            "residual": self.residual_norm,
        }


def decompose(d: LinearEndo) -> Decomposition:
    """Split d into [alpha, .] + D_sigma, both read off d.

    The residual counts the off-diagonal entries of d - [alpha, .]; it
    vanishes iff d has exactly this shape.
    """
    alpha, sigma, off_diagonal = _split(d)
    residual_norm = sum(1 for _ in off_diagonal)
    return Decomposition(alpha=alpha, sigma=sigma, residual_norm=residual_norm)


# -- the derivation space ------------------------------------------------


def _commutator_rows(poset: Poset, ring: CoeffRing):
    """The maps [e_xy, .] as sparse rows {c*N + r: value}, zero ones skipped.

    [e_xy, e_uv] = [y = u] e_xv - [v = x] e_uy; the two terms meet only
    at u = v = x = y, where they cancel.
    """
    n = poset.npairs
    pos = poset.pair_pos
    minus_one = ring.neg(ring.one)
    above, below = {}, {}
    for i, j in poset.ipairs:
        above.setdefault(i, []).append(j)
        below.setdefault(j, []).append(i)
    for x, y in poset.ipairs:
        row = {pos(y, v) * n + pos(x, v): ring.one for v in above[y]}
        for u in below[x]:
            var = pos(u, x) * n + pos(u, y)
            if row.pop(var, None) is None:
                row[var] = minus_one
        if row:
            yield row


def _cocycle_basis(poset: Poset, ring: CoeffRing) -> list[dict]:
    """Canonical basis of the cocycles, as sparse rows over the pair positions."""
    pivots = _linalg.rref(_cocycle_rows(poset, ring), ring)
    return _linalg.nullspace(pivots, range(poset.npairs), ring)


def _derivation_rref(poset: Poset, ring: CoeffRing) -> dict[int, dict]:
    """Der in reduced echelon form, keyed by pivot in pivot order.

    Der is spanned by the commutator maps and the D_sigma of a cocycle
    basis.  Each reduced row has a one on its pivot, its largest variable
    c*N + r, and zeros on every other pivot, so the rows in pivot order
    are the canonical nullspace-form basis of Der.
    """
    n = poset.npairs
    diagonal_maps = (
        {t * n + t: s for t, s in sigma.items()}
        for sigma in _cocycle_basis(poset, ring)
    )
    rows = chain(_commutator_rows(poset, ring), diagonal_maps)
    return _linalg.rref(rows, ring)


def _endo_from_rows(poset: Poset, ring: CoeffRing, terms) -> LinearEndo:
    """The map sum_k c_k row_k of raw c_k and sparse rows {c*N + r: value}."""
    n = poset.npairs
    cols = [[ring.zero] * n for _ in range(n)]
    for coeff, row in terms:
        for var, v in row.items():
            c, r = divmod(var, n)
            cols[c][r] = ring.add(cols[c][r], ring.mul(coeff, v))
    return LinearEndo(poset, ring, cols)


def _endo_row(m: LinearEndo) -> dict:
    """A map as the one sparse row {c*N + r: value} that _endo_from_rows reads."""
    return {var: v for var, v in enumerate(chain.from_iterable(m.cols)) if v}


def _dense_basis(poset: Poset, ring: CoeffRing, rows: dict[int, dict]):
    """Reduced rows {pivot: {c*N + r: value}} as maps, in pivot order."""
    return [_endo_from_rows(poset, ring, [(ring.one, row)]) for row in rows.values()]


def derivation_basis(poset: Poset, ring: CoeffRing) -> list[LinearEndo]:
    """Canonical basis of the space of derivations, by exact elimination."""
    return _dense_basis(poset, ring, _derivation_rref(poset, ring))


def derivation_basis_json(poset: Poset, ring: CoeffRing, rows: dict, payload: dict):
    """Yield, in chunks, the canonical JSON line of payload with "basis" added.

    The basis is the list of derivation_basis maps' to_json(), in order,
    but written straight from rows, _derivation_rref(poset, ring): no map
    is built, zero scalars and all-zero columns are one shared string each.
    """
    n = poset.npairs
    zero = _canonical_json(ring.scalar_to_json(ring.zero))
    zero_col = "[" + ",".join([zero] * n) + "]"
    head, tail = _split_json(payload, "basis")
    map_head, map_tail = _split_json(
        {"poset_hash": poset.digest(), "ring": ring.designator()}, "columns"
    )
    yield head
    for k, row in enumerate(rows.values()):
        cols = {}
        for var, v in row.items():
            c, r = divmod(var, n)
            cols.setdefault(c, {})[r] = _canonical_json(ring.scalar_to_json(v))
        texts = [zero_col] * n
        for c, col in cols.items():
            texts[c] = "[" + ",".join([col.get(r, zero) for r in range(n)]) + "]"
        yield ("," if k else "") + map_head + ",".join(texts) + map_tail
    yield tail + "\n"


def inner_basis(poset: Poset, ring: CoeffRing) -> list[LinearEndo]:
    """Canonical basis of the span of commutator maps of basis units."""
    return _dense_basis(poset, ring, _linalg.rref(_commutator_rows(poset, ring), ring))


def derivation_dimension(poset: Poset, ring: CoeffRing) -> int:
    """dim Der, the pivot count of its elimination; builds no basis."""
    return len(_derivation_rref(poset, ring))


def inner_dimension(poset: Poset, ring: CoeffRing) -> int:
    """dim Inner, the pivot count of the commutator rows; builds no basis."""
    return len(_linalg.rref(_commutator_rows(poset, ring), ring))


# -- idempotent identity --------------------------------------------------


def idempotent_identity_check(d: LinearEndo, e: FiElement) -> bool:
    """Whether d(e) = d(e) e + e d(e) for the given idempotent e."""
    if convolve(e, e) != e:
        raise AlgebraError("element is not idempotent")
    image = d.apply(e)
    return image == convolve(image, e) + convolve(e, image)

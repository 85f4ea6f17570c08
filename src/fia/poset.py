"""Finite posets given by cover relations.

The text format is one "elements:" line followed by cover lines "a < b",
with '#' comment lines allowed.  A Poset is immutable; the order relation
is closed transitively at construction, cycles are rejected, and the
stored covers are recomputed as the transitive reduction, so equal orders
compare equal however they were entered.

Comparable pairs carry a canonical order, lexicographic by declaration
index.  Every matrix and serialization downstream indexes rows and
columns by it.
"""

from __future__ import annotations

import random
import re
import sys

SIZE_CAP = 64

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class PosetError(ValueError):
    """Invalid poset construction or query."""


class PosetParseError(PosetError):
    """Malformed poset text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """An immutable finite poset on string labels."""

    __slots__ = (
        "elements", "covers", "_icovers", "_idx", "_up", "_down",
        "_ipairs", "_pair_pos", "_topo",
    )

    def __init__(self, elements, cover_pairs):
        elements = tuple(elements)
        if len(elements) > SIZE_CAP:
            raise PosetError(f"poset has {len(elements)} elements, cap is {SIZE_CAP}")
        idx = {}
        for label in elements:
            if not _LABEL_RE.match(label):
                raise PosetError(f"bad label {label!r}")
            if label in idx:
                raise PosetError(f"duplicate element label {label!r}")
            idx[label] = len(idx)
        n = len(elements)

        up = [1 << i for i in range(n)]
        for a, b in cover_pairs:
            if a not in idx:
                raise PosetError(f"cover references undeclared label {a!r}")
            if b not in idx:
                raise PosetError(f"cover references undeclared label {b!r}")
            if a == b:
                raise PosetError(f"cycle detected at {a!r}")
            up[idx[a]] |= 1 << idx[b]
        # Warshall closure on bitmask rows.
        for k in range(n):
            bit = 1 << k
            row = up[k]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= row
        down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                down[j] |= 1 << i
        for i in range(n):
            if up[i] & down[i] != 1 << i:
                other = next(j for j in _bits(up[i] & down[i]) if j != i)
                raise PosetError(
                    f"cycle detected through {elements[i]!r} and {elements[other]!r}"
                )

        # Transitive reduction: drop strict relations with a middle point.
        strict = [up[i] ^ (1 << i) for i in range(n)]
        icovers = []
        for i in range(n):
            twostep = 0
            for z in _bits(strict[i]):
                twostep |= strict[z]
            icovers.extend((i, j) for j in _bits(strict[i] & ~twostep))

        ipairs = tuple(
            (i, j) for i in range(n) for j in range(n) if up[i] >> j & 1
        )

        self.elements = elements
        self.covers = tuple((elements[i], elements[j]) for i, j in icovers)
        self._icovers = tuple(icovers)
        self._idx = idx
        self._up = tuple(up)
        self._down = tuple(down)
        self._ipairs = ipairs
        self._pair_pos = {pair: t for t, pair in enumerate(ipairs)}
        # Sorting by how much lies below an element is a linear extension.
        self._topo = tuple(
            sorted(range(n), key=lambda i: (bin(down[i]).count("1"), i))
        )

    # -- queries -------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self._idx[label]
        except KeyError:
            raise PosetError(f"unknown label {label!r}") from None

    def leq_idx(self, i: int, j: int) -> bool:
        return self._up[i] >> j & 1 == 1

    def interval_idx(self, i: int, j: int) -> list[int]:
        mask = self._up[i] & self._down[j]
        return list(_bits(mask))

    def pairs(self) -> list[tuple[str, str]]:
        """All comparable pairs (x, y) with x <= y, in canonical order."""
        return [(self.elements[i], self.elements[j]) for i, j in self._ipairs]

    @property
    def ipairs(self) -> tuple[tuple[int, int], ...]:
        return self._ipairs

    @property
    def npairs(self) -> int:
        return len(self._ipairs)

    def pair_pos(self, i: int, j: int) -> int:
        """Canonical position of the comparable index pair (i, j)."""
        try:
            return self._pair_pos[(i, j)]
        except KeyError:
            raise PosetError(
                f"{self.elements[i]!r} and {self.elements[j]!r}"
                " are not comparable in order"
            ) from None

    def cover_chains(self):
        """Index triples (x, y, z), y covering x and y < z, by cover, then z."""
        for x, y in self._icovers:
            for z in _bits(self._up[y] ^ (1 << y)):
                yield x, y, z

    @property
    def topo_order(self) -> tuple[int, ...]:
        return self._topo

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self._up == other._up
        )

    def __hash__(self):
        return hash((self.elements, self._up))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {self.npairs} pairs)"

    # -- serialization ---------------------------------------------------

    def serialize(self) -> str:
        lines = [("elements: " + " ".join(self.elements)).rstrip()]
        lines.extend(f"{a} < {b}" for a, b in self.covers)
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """Hex digest of the canonical serialization; names the poset in maps.

        The SHA-256 is CPython's own module, the one hashlib falls back to,
        since hashlib loads OpenSSL.  It is picked by version, so no import
        fails on the way; hashlib serves only a CPython built without it.
        """
        try:
            if sys.version_info >= (3, 12):
                from _sha2 import sha256
            else:
                from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
        return sha256(self.serialize().encode()).hexdigest()


def parse_poset(text: str) -> Poset:
    """Parse the poset text format; blank and '#' lines are skipped."""
    elements = None
    covers = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if elements is None:
            if not line.startswith("elements:"):
                raise PosetParseError(lineno, "expected an 'elements:' line")
            labels = line[len("elements:"):].split()
            seen = set()
            for label in labels:
                if not _LABEL_RE.match(label):
                    raise PosetParseError(lineno, f"bad label {label!r}")
                if label in seen:
                    raise PosetParseError(lineno, f"duplicate element label {label!r}")
                seen.add(label)
            elements = labels
            continue
        parts = line.split()
        if len(parts) != 3 or parts[1] != "<":
            raise PosetParseError(lineno, f"expected '<a> < <b>', got {line!r}")
        a, _, b = parts
        if a not in elements:
            raise PosetParseError(lineno, f"undeclared label {a!r}")
        if b not in elements:
            raise PosetParseError(lineno, f"undeclared label {b!r}")
        covers.append((a, b))
    if elements is None:
        raise PosetParseError(0, "missing 'elements:' line")
    return Poset(elements, covers)


def random_poset(n: int, density, seed: int) -> Poset:
    """Random poset: a random DAG on n nodes, closed transitively.

    Nodes are shuffled into a random order and each forward edge in that
    order is kept with probability `density`.  Deterministic in
    (n, density, seed); density 0 gives an antichain, density 1 a chain.
    """
    if not 0 <= n <= SIZE_CAP:
        raise PosetError(f"n must be between 0 and {SIZE_CAP}")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    labels = [f"v{i}" for i in range(n)]
    covers = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                covers.append((labels[perm[a]], labels[perm[b]]))
    return Poset(labels, covers)

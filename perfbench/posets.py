"""The benchmark's own view of finite posets, independent of fia.

A PosetSpec is the text the CLI reads plus the facts the oracle needs:
the comparable pairs in fia's canonical order (lexicographic by
declaration index), connected components by union-find, and h1 where
the order complex makes it known without solving anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class PosetSpec:
    """A named poset: element labels and strict relations as index pairs."""

    name: str
    elements: tuple[str, ...]
    relations: tuple[tuple[int, int], ...]

    @property
    def up(self) -> tuple[int, ...]:
        """Bitmask of the elements above or equal to each element."""
        return _closure(len(self.elements), self.relations)

    def pairs(self) -> list[tuple[int, int]]:
        """Comparable index pairs (i, j), i <= j in the order, canonical order."""
        up = self.up
        n = len(self.elements)
        return [(i, j) for i in range(n) for j in range(n) if up[i] >> j & 1]

    @property
    def npairs(self) -> int:
        return sum(bin(mask).count("1") for mask in self.up)

    def covers(self) -> list[tuple[int, int]]:
        """The transitive reduction, sorted by index."""
        up = self.up
        n = len(self.elements)
        strict = [up[i] & ~(1 << i) for i in range(n)]
        out = []
        for i in range(n):
            twostep = 0
            for z in range(n):
                if strict[i] >> z & 1:
                    twostep |= strict[z]
            out.extend((i, j) for j in range(n) if (strict[i] & ~twostep) >> j & 1)
        return out

    def text(self) -> str:
        """The poset file, in the form fia serializes it."""
        els = self.elements
        lines = ["elements: " + " ".join(els)]
        lines.extend(f"{els[i]} < {els[j]}" for i, j in self.covers())
        return "\n".join(lines) + "\n"

    def components(self) -> int:
        """Connected components of the comparability graph, by union-find."""
        parent = list(range(len(self.elements)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        count = len(parent)
        for i, j in self.relations:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                count -= 1
        return count

    def height(self) -> int:
        """Length of the longest chain, counted in strict steps."""
        up = self.up
        n = len(self.elements)
        below = [sum(1 for k in range(n) if up[k] >> i & 1) for i in range(n)]
        longest = [0] * n
        for i in sorted(range(n), key=lambda v: below[v]):
            for j in range(n):
                if j != i and up[i] >> j & 1:
                    longest[j] = max(longest[j], longest[i] + 1)
        return max(longest, default=0)

    def h1(self) -> int | None:
        """dim H^1 of the order complex where it is known in closed form.

        A poset with a least or greatest element is a cone, so h1 = 0.
        A poset of height at most one is its own Hasse graph, so h1 is
        the graph's cycle rank E - V + C.  Otherwise None.
        """
        up = self.up
        n = len(self.elements)
        full = (1 << n) - 1
        has_top = any(all(up[k] >> i & 1 for k in range(n)) for i in range(n))
        has_bottom = any(up[i] == full for i in range(n))
        if n and (has_top or has_bottom):
            return 0
        if self.height() <= 1:
            edges = self.npairs - n
            return edges - n + self.components()
        return None


def _closure(n: int, relations) -> tuple[int, ...]:
    up = [1 << i for i in range(n)]
    for i, j in relations:
        up[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in range(n):
                if acc >> j & 1:
                    acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in range(n):
            if i != j and up[i] >> j & 1 and up[j] >> i & 1:
                raise ValueError(f"relations have a cycle through {i} and {j}")
    return tuple(up)


def chain(n: int) -> PosetSpec:
    return PosetSpec(
        f"chain{n}", tuple(f"c{i}" for i in range(n)),
        tuple((i, i + 1) for i in range(n - 1)),
    )


def antichain(n: int) -> PosetSpec:
    return PosetSpec(f"antichain{n}", tuple(f"x{i}" for i in range(n)), ())


def diamond() -> PosetSpec:
    return PosetSpec(
        "diamond", ("bot", "a", "b", "top"), ((0, 1), (0, 2), (1, 3), (2, 3))
    )


def crown() -> PosetSpec:
    """The four-cycle of height one; the smallest poset with h1 = 1."""
    return PosetSpec("crown", ("a", "b", "c", "d"), ((0, 2), (0, 3), (1, 2), (1, 3)))


def complete_bipartite(k: int) -> PosetSpec:
    """K(k,k): every one of k minimal elements below every one of k maximal."""
    els = tuple(f"a{i}" for i in range(k)) + tuple(f"b{i}" for i in range(k))
    rel = tuple((i, k + j) for i in range(k) for j in range(k))
    return PosetSpec(f"k{k}{k}", els, rel)


def chain2_point() -> PosetSpec:
    """A 2-chain beside an isolated point: three elements, four pairs."""
    return PosetSpec("chain2_point", ("p", "q", "r"), ((0, 1),))


def random_spec(name: str, n: int, npairs: int, rng: random.Random) -> PosetSpec:
    """A seeded random poset on n elements with exactly npairs comparable pairs.

    Cover candidates are forward edges of a random linear order, added
    one at a time; a draw that overshoots npairs is discarded.  Fixing
    npairs keeps the cost of the exact solvers nearly the same from seed
    to seed, since it grows with a power of npairs.
    """
    if not n <= npairs <= n * (n + 1) // 2:
        raise ValueError(f"{npairs} pairs impossible on {n} elements")
    for _ in range(10_000):
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
        rng.shuffle(edges)
        relations = []
        up = [1 << i for i in range(n)]
        count = n
        for a, b in edges:
            relations.append((perm[a], perm[b]))
            up = list(_closure(n, relations))
            count = sum(bin(mask).count("1") for mask in up)
            if count >= npairs:
                break
        if count == npairs:
            return PosetSpec(name, tuple(f"v{i}" for i in range(n)), tuple(relations))
    raise ValueError(f"no {n}-element poset with {npairs} pairs found")

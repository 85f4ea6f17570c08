"""Shared fixtures-by-hand for the derivation and local-derivation tests.

The Leibniz checks here go straight through convolve on unit elements, so
they share no code path with the solver-based machinery they are used to
cross-check.  The oracles for Der and Inner build the Leibniz system on
basis units and the commutator maps through convolve, and share only the
elimination of fia._linalg with the library's split-based route.  The
endomorphism scan reads Der and every W_a off that Leibniz kernel as
sets, so it shares nothing with the probe scan of fia.locder.
"""

import itertools

from fia import _linalg
from fia.deriv import LinearEndo, inner, sigma_endo
from fia.fialg import FiElement, convolve, unit
from fia.poset import Poset, parse_poset
from fia.scalars import GF

CHAIN2 = parse_poset("elements: a b\na < b\n")
CHAIN3 = parse_poset("elements: x y z\nx < y\ny < z\n")
SINGLETON = parse_poset("elements: s\n")
ANTICHAIN2 = parse_poset("elements: a b\n")
DIAMOND = parse_poset("elements: bot a b top\nbot < a\nbot < b\na < top\nb < top\n")
# Height-one four-cycle: the smallest poset with an outer derivation.
CROWN = parse_poset("elements: a b c d\na < c\na < d\nb < c\nb < d\n")


def random_element(poset, ring, rng, fill=0.6):
    entries = {}
    for pair in poset.ipairs:
        if rng.random() < fill:
            v = ring.sample(rng)
            if v != ring.zero:
                entries[pair] = v
    return FiElement(poset, ring, entries)


def all_units(poset, ring):
    els = poset.elements
    return [unit(poset, ring, els[i], els[j]) for i, j in poset.ipairs]


def leibniz_on_units(d) -> bool:
    """d(uv) == d(u)v + u d(v) over every pair of basis units, via convolve."""
    units = all_units(d.poset, d.ring)
    images = [d.apply(u) for u in units]
    for u, du in zip(units, images):
        for v, dv in zip(units, images):
            if d.apply(convolve(u, v)) != convolve(du, v) + convolve(u, dv):
                return False
    return True


def random_derivation(poset, ring, rng, basis):
    """A random combination of the given derivation basis."""
    d = LinearEndo.zero(poset, ring)
    for b in basis:
        c = ring.sample(rng)
        if c != ring.zero:
            d = d + b.scale(c)
    return d


def small_posets(max_elements):
    """Posets on 1..max_elements elements, at least one of each isomorphism type.

    Every poset has a linear extension, and relabelling by it makes each
    cover go from a smaller to a larger index, so the posets whose covers
    all rise include every type (some of them several times).
    """
    found = []
    for n in range(1, max_elements + 1):
        labels = [f"p{i}" for i in range(n)]
        rising = list(itertools.combinations(labels, 2))
        for mask in range(1 << len(rising)):
            covers = [c for t, c in enumerate(rising) if mask >> t & 1]
            poset = Poset(labels, covers)
            if poset not in found:
                found.append(poset)
    return found


def chain(n):
    labels = [f"c{i}" for i in range(n)]
    return Poset(labels, list(zip(labels, labels[1:])))


def complete_bipartite(k):
    """K(k,k): each of k minimal elements below each of k maximal ones."""
    low = [f"a{i}" for i in range(k)]
    high = [f"b{i}" for i in range(k)]
    return Poset(low + high, [(a, b) for a in low for b in high])


def leibniz_kernel_basis(poset, ring):
    """Der as the canonical nullspace of the Leibniz system on basis units.

    Variable c*N + r is the e_r coefficient of d(e_c).  For units e_i, e_j
    with product e_k (or zero) and each output coordinate, d(e_i e_j) =
    d(e_i) e_j + e_i d(e_j) is one integer row, mapped into the ring.
    """
    n = poset.npairs
    ip = poset.ipairs
    product = [[poset.pair_pos(x, v) if y == u else -1 for u, v in ip] for x, y in ip]
    int_rows = set()
    for i in range(n):
        for j in range(n):
            by_out = {}
            if product[i][j] >= 0:
                for out in range(n):
                    by_out[out] = {product[i][j] * n + out: 1}
            for a in range(n):
                for out, var in ((product[a][j], i * n + a), (product[i][a], j * n + a)):
                    if out >= 0:
                        row = by_out.setdefault(out, {})
                        row[var] = row.get(var, 0) - 1
            for row in by_out.values():
                int_rows.add(tuple(sorted((v, c) for v, c in row.items() if c)))
    rows = [{v: ring.from_int(c) for v, c in int_row} for int_row in sorted(int_rows)]
    rows = [{v: x for v, x in row.items() if x != ring.zero} for row in rows]
    vecs = _linalg.nullspace(_linalg.rref(rows, ring), n * n, ring)
    return [
        LinearEndo(poset, ring, [list(vec[c * n:(c + 1) * n]) for c in range(n)])
        for vec in vecs
    ]


def scan_endomorphisms(poset, p):
    """Walk every endomorphism over GF(p): (derivations, local ones, agree).

    Solver-free: Der is the set of all combinations of
    leibniz_kernel_basis, W_a is the set of the tuples D(a) over Der, and
    a map d is local iff d(a) lies in W_a at each of the p^npairs probes
    a.  A map is flattened column by column, entry c*n + r being the e_r
    coefficient of d(e_c).
    """
    n = poset.npairs
    basis = [
        [v for col in b.cols for v in col] for b in leibniz_kernel_basis(poset, GF(p))
    ]
    der = {
        tuple(sum(c * b[k] for c, b in zip(coeffs, basis)) % p for k in range(n * n))
        for coeffs in itertools.product(range(p), repeat=len(basis))
    }

    def image(flat, a):
        return tuple(
            sum(a[c] * flat[c * n + r] for c in range(n) if a[c]) % p for r in range(n)
        )

    probes = list(itertools.product(range(p), repeat=n))
    w = [(a, {image(dd, a) for dd in der}) for a in probes]
    n_der = n_loc = 0
    agree = True
    for flat in itertools.product(range(p), repeat=n * n):
        is_der = flat in der
        is_loc = all(image(flat, a) in w_a for a, w_a in w)
        n_der += is_der
        n_loc += is_loc
        agree = agree and is_der == is_loc
    return n_der, n_loc, agree


def commutator_span_basis(poset, ring):
    """The rref of the maps inner(e_xy), built through convolve, by pivot."""
    n = poset.npairs
    rows = []
    for u in all_units(poset, ring):
        d = inner(u)
        row = {c * n + r: v for c, col in enumerate(d.cols) for r, v in enumerate(col) if v}
        if row:
            rows.append(row)
    pivots = _linalg.rref(rows, ring)
    basis = []
    for lead in sorted(pivots):
        cols = [[ring.zero] * n for _ in range(n)]
        for var, v in pivots[lead].items():
            cols[var // n][var % n] = v
        basis.append(LinearEndo(poset, ring, cols))
    return basis


def dense_decomposition(d):
    """(alpha, sigma, residual) of d by dense subtraction of inner(alpha)."""
    poset, ring = d.poset, d.ring
    pos = poset.pair_pos
    alpha = {}
    for t, (x, y) in enumerate(poset.ipairs):
        if d.cols[pos(y, y)][t] != ring.zero:
            alpha[(x, y)] = d.cols[pos(y, y)][t]
    alpha = FiElement(poset, ring, alpha)
    reduced = d - inner(alpha)
    sigma = {}
    for t, pair in enumerate(poset.ipairs):
        if reduced.cols[t][t] != ring.zero:
            sigma[pair] = reduced.cols[t][t]
    sigma = FiElement(poset, ring, sigma)
    residual = reduced - sigma_endo(sigma)
    nonzero = sum(1 for col in residual.cols for v in col if v != ring.zero)
    return alpha, sigma, nonzero


def cocycle_by_definition(sigma):
    """Additivity of sigma across every factorization i <= k <= j of a pair."""
    poset, ring = sigma.poset, sigma.ring
    values = sigma.entries
    for i, j in poset.ipairs:
        target = values.get((i, j), ring.zero)
        for k in poset.interval_idx(i, j):
            left = values.get((i, k), ring.zero)
            right = values.get((k, j), ring.zero)
            if ring.add(left, right) != target:
                return False
    return True

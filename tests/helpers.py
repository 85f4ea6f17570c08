"""Shared fixtures-by-hand for the derivation and local-derivation tests.

The Leibniz checks here go straight through convolve on unit elements, so
they share no code path with the solver-based machinery they are used to
cross-check.  The oracles for Der and Inner build the Leibniz system on
basis units and the commutator maps through convolve, and reduce them by
their own dense Gauss-Jordan elimination, so they share no code with the
library's split-based route and its sparse fia._linalg.  The
endomorphism scan reads Der and every W_a off that Leibniz kernel as
sets, and the exhaustive scan tests each probe against the span of its
images, so neither shares anything with the probe scan of fia.locder.
t_p_first_failure walks T(P) in its own order and finds each probe's
[FI, a] by elimination, where fia.locder reads supports and +-1 rows.
"""

import itertools
import os
from pathlib import Path

import fia
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
    rows = []
    for int_row in sorted(int_rows):
        row = [ring.zero] * (n * n)
        for v, c in int_row:
            row[v] = ring.from_int(c)
        rows.append(row)
    pivots = dense_rref(rows, ring)
    basis = []
    for free in range(n * n):
        if free not in pivots:
            vec = [ring.zero] * (n * n)
            vec[free] = ring.one
            for lead, row in pivots.items():
                vec[lead] = ring.neg(row[free])
            basis.append(LinearEndo(poset, ring, _columns(vec, n)))
    return basis


def dense_rref(rows, ring):
    """Gauss-Jordan on dense rows: {pivot column: reduced row}, by pivot.

    The reduced echelon form of a row space is unique, so this agrees
    with any other exact elimination that leads on the smallest column.
    Each row op touches only the columns where the pivot row is nonzero.
    """
    sub, mul = ring.sub, ring.mul

    def subtract(row, f, piv):
        for c, v in enumerate(piv):
            if v:
                row[c] = sub(row[c], mul(f, v))

    pivots = {}
    for row in rows:
        row = list(row)
        for lead, piv in pivots.items():
            if row[lead]:
                subtract(row, row[lead], piv)
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = ring.inv(row[lead])
        row = [mul(v, inv) if v else v for v in row]
        for piv in pivots.values():
            if piv[lead]:
                subtract(piv, piv[lead], row)
        pivots[lead] = row
    return dict(sorted(pivots.items()))


def _columns(vec, n):
    """The n columns of a map flattened column by column."""
    return [vec[c * n:(c + 1) * n] for c in range(n)]


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


def exhaustive_scan(d):
    """(probes checked, first witness-less probe or None) of d over GF(p).

    Solver-free: probe i has the base-p digits of i on the canonical
    pairs, least significant first, and d(a) has a witness iff adding it
    to the images D(a) of leibniz_kernel_basis leaves the rank that
    dense_rref reads unchanged.  d itself is scanned, never a residue.
    """
    poset, ring = d.poset, d.ring
    p, n = ring.p, poset.npairs
    basis = leibniz_kernel_basis(poset, ring)

    def image(m, a):
        return [sum(a[c] * m.cols[c][r] for c in range(n)) % p for r in range(n)]

    for index, digits in enumerate(itertools.product(range(p), repeat=n)):
        a = digits[::-1]
        w_a = [image(b, a) for b in basis]
        if len(dense_rref([*w_a, image(d, a)], ring)) > len(dense_rref(w_a, ring)):
            entries = {pair: v for pair, v in zip(poset.ipairs, a) if v}
            return index + 1, FiElement(poset, ring, entries)
    return p**n, None


def commutator_span_basis(poset, ring):
    """The rref of the maps inner(e_xy), built through convolve, by pivot.

    fia leads on the largest variable, so the columns go to dense_rref
    reversed and come back reversed.  dense_rref itself stays smallest
    first: leibniz_kernel_basis reads Der's largest-first basis as the
    nullspace of the Leibniz rows reduced smallest-first.
    """
    n = poset.npairs
    rows = [
        [v for col in inner(u).cols for v in col][::-1] for u in all_units(poset, ring)
    ]
    reduced = dense_rref(rows, ring).values()
    return [LinearEndo(poset, ring, _columns(r[::-1], n)) for r in reversed(reduced)]


def span_rref(maps, vec, ring):
    """dense_rref of the images m(a) of the given maps, a as a dense vector."""
    images = []
    for m in maps:
        image = [ring.zero] * len(vec)
        for col, v in zip(m.cols, vec):
            if v:
                image = [ring.add(x, ring.mul(v, w)) for x, w in zip(image, col)]
        images.append(image)
    return dense_rref(images, ring)


def t_p_probes(poset):
    """T(P) in its order, each probe as the pair positions of its units.

    Every unit; e_x + e_y, e_x + e_xy and e_xy + e_y for each x < y in pair
    order; e_xy + e_xz + e_y + e_yz for each cover (x, y), in the poset's
    cover order, and each z > y by index.
    """
    pos = poset.pair_pos
    probes = [(t,) for t in range(poset.npairs)]
    for x, y in poset.ipairs:
        if x != y:
            xx, xy, yy = pos(x, x), pos(x, y), pos(y, y)
            probes += [(xx, yy), (xx, xy), (xy, yy)]
    for low, high in poset.covers:
        x, y = poset.index(low), poset.index(high)
        for z in range(len(poset)):
            if z != y and poset.leq_idx(y, z):
                probes.append((pos(x, y), pos(x, z), pos(y, y), pos(y, z)))
    return probes


def t_p_first_failure(d, commutators):
    """(index, probe) of d's first T(P) probe a with d(a) outside [FI, a], or None.

    The per-probe elimination: [FI, a] is the span of the images at a of
    commutators, commutator_span_basis(d.poset, d.ring), and d(a) lies in it
    iff adding it leaves the rank that dense_rref reads unchanged.
    """
    poset, ring = d.poset, d.ring
    for index, probe in enumerate(t_p_probes(poset), 1):
        a = [ring.one if t in probe else ring.zero for t in range(poset.npairs)]
        rank = len(span_rref(commutators, a, ring))
        if len(span_rref([*commutators, d], a, ring)) > rank:
            return index, probe
    return None


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


def components(poset):
    """The connected components of the comparability graph, by union-find."""
    root = list(range(len(poset)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for x, y in poset.ipairs:
        root[find(x)] = find(y)
    return sum(find(x) == x for x in range(len(poset)))


def order_complex_h1(poset, ring):
    """dim H^1 of the order complex of the poset, from simplicial ranks.

    The simplices are the chains of the poset: points, pairs x < y and
    triples x < y < z.  H^1 is the kernel of the coboundary d1 on pairs
    modulo the image of d0 on points, so h1 = #pairs - rank d1 - rank d0,
    the ranks read off dense_rref of the coboundary matrices.  d1's
    columns number the pairs from the last, so dense_rref, which leads on
    the smallest column, leads a triple's row on its last pair, which on
    chain32 more than halves the oracle's time over q and zp:101.
    """
    one, minus_one = ring.one, ring.neg(ring.one)
    points = range(len(poset))
    edges = [(x, y) for x, y in poset.ipairs if x != y]
    column = {edge: t for t, edge in enumerate(reversed(edges))}
    d0 = []
    for x, y in edges:
        row = [ring.zero] * len(points)
        row[x], row[y] = minus_one, one
        d0.append(row)
    d1 = []
    for x, y in edges:
        for z in points:
            if (y, z) in column:
                row = [ring.zero] * len(edges)
                row[column[(y, z)]] = row[column[(x, y)]] = one
                row[column[(x, z)]] = minus_one
                d1.append(row)
    return len(edges) - len(dense_rref(d1, ring)) - len(dense_rref(d0, ring))


def child_env():
    """The environment for a child Python that imports fia from this tree."""
    src = str(Path(fia.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env

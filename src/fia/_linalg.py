"""Exact Gaussian elimination over a coefficient field.

Rows are sparse dicts mapping variable index to a nonzero raw value.
add_row is the one elimination step: it grows an echelon basis by one
row.  rref is add_row plus back substitution, and solve is rref on the
augmented rows; nullspace and reduce_vector only read echelon rows.
Pivots always sit on the smallest variable present, so the reduced
echelon form, the pivot set and the nullspace basis depend only on the
row space and the variable order, never on the order rows arrive in.
"""

from __future__ import annotations


def add_row(pivot_rows: dict[int, dict], incoming, ring) -> bool:
    """Eliminate one sparse row against echelon rows {pivot var: row}.

    A row that survives is normalised and stored under its smallest
    variable; returns whether it did, i.e. whether the rank grew.
    """
    row = dict(incoming)
    zero = ring.zero
    while row:
        lead = min(row)
        piv = pivot_rows.get(lead)
        if piv is None:
            inv = ring.inv(row[lead])
            pivot_rows[lead] = {c: ring.mul(v, inv) for c, v in row.items()}
            return True
        factor = row.pop(lead)
        for c, v in piv.items():
            if c == lead:
                continue
            nv = ring.sub(row.get(c, zero), ring.mul(factor, v))
            if nv == zero:
                row.pop(c, None)
            else:
                row[c] = nv
    return False


def rref(rows, ring) -> dict[int, dict]:
    """Reduce an iterable of sparse rows; returns {pivot var: row}.

    Every returned row has coefficient one at its pivot and support only
    on its pivot and on free variables.
    """
    pivot_rows: dict[int, dict] = {}
    zero = ring.zero
    for incoming in rows:
        add_row(pivot_rows, incoming, ring)
    # Back substitution: clear pivot columns out of earlier pivot rows.
    for lead in sorted(pivot_rows, reverse=True):
        row = pivot_rows[lead]
        for c in sorted(c for c in row if c != lead and c in pivot_rows):
            factor = row.pop(c)
            for c2, v2 in pivot_rows[c].items():
                if c2 == c:
                    continue
                nv = ring.sub(row.get(c2, zero), ring.mul(factor, v2))
                if nv == zero:
                    row.pop(c2, None)
                else:
                    row[c2] = nv
    return pivot_rows


def nullspace(pivot_rows: dict[int, dict], nvars: int, ring) -> list[list]:
    """Canonical nullspace basis, one dense vector per free variable."""
    basis = []
    zero = ring.zero
    one = ring.one
    for free in range(nvars):
        if free in pivot_rows:
            continue
        vec = [zero] * nvars
        vec[free] = one
        for lead, row in pivot_rows.items():
            coeff = row.get(free)
            if coeff is not None and coeff != zero:
                vec[lead] = ring.neg(coeff)
        basis.append(vec)
    return basis


def reduce_vector(vec: dict, pivot_rows: dict[int, dict], ring) -> dict:
    """Residual of a sparse vector against echelon rows; empty iff in span.

    The rows may come from add_row alone, or be fully reduced in either
    variable order: each is eliminated at its pivot in increasing pivot
    order, which leaves the other pivots of such rows untouched.
    """
    zero = ring.zero
    row = {c: v for c, v in vec.items() if v != zero}
    for lead in sorted(pivot_rows):
        factor = row.get(lead)
        if factor is None or factor == zero:
            continue
        for c, v in pivot_rows[lead].items():
            nv = ring.sub(row.get(c, zero), ring.mul(factor, v))
            if nv == zero:
                row.pop(c, None)
            else:
                row[c] = nv
    return row


def solve(rows: list[list], rhs: list, ring):
    """The canonical exact solution of A x = b, or None if inconsistent.

    The rref of the augmented rows [A | b] carries b as one more
    variable, the last; the system is inconsistent iff that variable is
    a pivot.  Free variables are set to zero, so each pivot variable
    takes its row's entry on the last variable.  The rref is unique for
    the column order, hence so is the solution.
    """
    zero = ring.zero
    ncols = len(rows[0]) if rows else 0
    pivots = rref(
        (
            {c: v for c, v in enumerate([*row, b]) if v != zero}
            for row, b in zip(rows, rhs)
        ),
        ring,
    )
    if ncols in pivots:
        return None
    solution = [zero] * ncols
    for lead, row in pivots.items():
        solution[lead] = row.get(ncols, zero)
    return solution

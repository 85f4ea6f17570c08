"""Exact Gaussian elimination over a coefficient field.

Rows are sparse dicts mapping variable index to a nonzero raw value.
_eliminate is the one row step, row -= factor * pivot row with zeros
dropped.  add_row grows an echelon basis by one row with it; rref is
add_row plus back substitution with it; reduce_vector reduces a vector
with it; nullspace only reads rref rows and yields sparse rows too.
Pivots always sit on the largest variable present, so the reduced
echelon form, the pivot set and the nullspace basis depend only on the
row space and the variable order, never on the order rows arrive in.
"""

from __future__ import annotations


def _eliminate(row: dict, lead, pivot_row: dict, ring) -> None:
    """row -= row[lead] * pivot_row in place, zeros dropped; pivot_row[lead] is 1."""
    factor = row.pop(lead)
    zero = ring.zero
    for c, v in pivot_row.items():
        if c == lead:
            continue
        nv = ring.sub(row.get(c, zero), ring.mul(factor, v))
        if nv == zero:
            row.pop(c, None)
        else:
            row[c] = nv


def add_row(pivot_rows: dict[int, dict], incoming, ring) -> bool:
    """Eliminate one sparse row against echelon rows {pivot var: row}.

    A row that survives is normalised and stored under its largest
    variable; returns whether it did, i.e. whether the rank grew.
    """
    row = dict(incoming)
    while row:
        lead = max(row)
        piv = pivot_rows.get(lead)
        if piv is None:
            inv = ring.inv(row[lead])
            pivot_rows[lead] = {c: ring.mul(v, inv) for c, v in row.items()}
            return True
        _eliminate(row, lead, piv, ring)
    return False


def rref(rows, ring) -> dict[int, dict]:
    """Reduce an iterable of sparse rows; returns {pivot var: row} in pivot order.

    Every returned row has coefficient one at its pivot and support only
    on its pivot and on free variables.
    """
    pivot_rows: dict[int, dict] = {}
    for incoming in rows:
        add_row(pivot_rows, incoming, ring)
    # Back substitution: clear pivot columns out of later pivot rows.
    for lead in sorted(pivot_rows):
        row = pivot_rows[lead]
        others = (c for c in row if c != lead and c in pivot_rows)
        for c in sorted(others, reverse=True):
            _eliminate(row, c, pivot_rows[c], ring)
    return {lead: pivot_rows[lead] for lead in sorted(pivot_rows)}


def nullspace(pivot_rows: dict[int, dict], variables, ring) -> list[dict]:
    """Canonical nullspace basis of rref rows, one sparse row per free variable.

    Free f in variables has one at f and -row[f] at each rref row's pivot.
    """
    one, neg = ring.one, ring.neg
    basis = {f: {f: one} for f in variables if f not in pivot_rows}
    for lead, row in pivot_rows.items():
        for c, v in row.items():
            if c != lead:
                basis[c][lead] = neg(v)
    return list(basis.values())


def reduce_vector(vec: dict, pivot_rows: dict[int, dict], ring) -> dict:
    """Residual of a sparse vector against echelon rows; empty iff in span.

    The rows may come from add_row or rref: each is eliminated at its
    pivot in decreasing pivot order, and it brings in only variables below it.
    """
    row = {c: v for c, v in vec.items() if v != ring.zero}
    for lead in sorted(pivot_rows, reverse=True):
        if lead in row:
            _eliminate(row, lead, pivot_rows[lead], ring)
    return row

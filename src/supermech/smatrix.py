"""Exact linear algebra for supermatrices: one Gauss-Jordan elimination.

A supported matrix entry is a constant "body" plus a "soul" in which every
term contains at least one odd generator; such souls are nilpotent.  The one
pivot rule, pivot_inverse, takes an entry with a nonzero body and such a
soul.  The one elimination, _eliminate, takes rows in turn without swapping
them and combines them from the left, over Coefficient rows (body rank,
pivots, null space and SpanReducer's span) and over SuperPoly rows
(supermatrix inverse and solves, and the block of solve_linear_rows); it
terminates exactly.
"""
from __future__ import annotations

from .errors import NonNumericBody, SingularBody
from .superalgebra import (
    C_ONE,
    C_ZERO,
    ONE,
    SuperPoly,
    ZERO,
    as_poly,
    const_poly,
    factor_order,
)


def has_nilpotent_soul(p):
    """True when every non-constant term carries an odd generator."""
    return all(any(g.parity for g, _ in m.factors)
               for m in as_poly(p).terms if m.factors)


def check_numeric_body(p):
    if not has_nilpotent_soul(p):
        raise NonNumericBody(f"entry {p} has a non-constant even part")


def body_matrix(m):
    for row in m:
        for entry in row:
            check_numeric_body(entry)
    return [[as_poly(entry).body for entry in row] for row in m]


def _coefficient_inverse(c):
    """Pivot inverse of a number; None for zero."""
    return None if c.is_zero else c.inv()


def pivot_inverse(p):
    """Inverse b^-1 * sum_k (-s*b^-1)^k of an entry with nonzero body b and
    nilpotent soul s; None for any other entry, which is not a pivot.

    The series ends because the soul is nilpotent: a product of more terms
    than it has distinct odd generators repeats one of them.
    """
    p = as_poly(p)
    body = p.body
    if body.is_zero or not has_nilpotent_soul(p):
        return None
    binv = body.inv()
    series = power = const_poly(binv)
    if p.is_constant:
        return series
    step = SuperPoly(p.terms[1:]) * -binv
    for _ in range(len({g for m in step.terms for g, _ in m.factors if g.parity})):
        power = power * step
        if power.is_zero:
            break
        series = series + power
    return series


def _eliminate(rows, ncols, inverse):
    """Gauss-Jordan elimination of rows in place; returns {pivot column:
    row index}.

    Rows are taken in turn and never swapped.  Each one subtracts the
    earlier pivot rows, takes its first column whose entry inverse inverts
    (None: not a pivot), is scaled to 1 there and clears that column from
    every earlier pivot row.  Rows are scaled and combined from the left,
    and products with a zero entry are skipped.  The pivot rows are the
    first independent rows; in column order they are the reduced echelon
    form, which is unique, so the pivots are the first column basis.
    """
    pivots = {}
    for r, row in enumerate(rows):
        for col, p in pivots.items():
            f = row[col]
            if not f.is_zero:
                row = [x if y.is_zero else x - f * y for x, y in zip(row, rows[p])]
        for col in range(ncols):
            inv = inverse(row[col])
            if inv is not None:
                break
        else:
            rows[r] = row
            continue
        row = rows[r] = [x if x.is_zero else inv * x for x in row]
        for p in pivots.values():
            f = rows[p][col]
            if not f.is_zero:
                rows[p] = [x if y.is_zero else x - f * y for x, y in zip(rows[p], row)]
        pivots[col] = r
    return pivots


def body_pivots(b):
    """Pivot columns of a Coefficient matrix: its first column basis."""
    return tuple(sorted(_eliminate([list(row) for row in b], len(b[0]) if b else 0,
                                   _coefficient_inverse)))


def body_rank(b):
    """Rank of a matrix of Coefficients via fraction-exact elimination."""
    return len(body_pivots(b))


def body_nullspace(b):
    """Right null vectors of a Coefficient matrix, keyed by free column.

    The vector of free column fc is 1 there and 0 on every other free
    column; keys ascend.
    """
    rows = [list(row) for row in b]
    ncols = len(rows[0]) if rows else 0
    pivots = _eliminate(rows, ncols, _coefficient_inverse)
    basis = {}
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [C_ZERO] * ncols
        vec[fc] = C_ONE
        for pc, r in pivots.items():
            vec[pc] = -rows[r][fc]
        basis[fc] = vec
    return basis


def _reduce_augmented(m, rhs):
    """Eliminate [m | rhs] for square m; returns the rows of m^-1 rhs.

    Raises NonNumericBody for an entry of m with a non-constant even part
    and SingularBody when the body of m is singular.
    """
    for row in m:
        for entry in row:
            check_numeric_body(entry)
    n = len(m)
    rows = [[as_poly(x) for x in row] + extra for row, extra in zip(m, rhs)]
    pivots = _eliminate(rows, n, pivot_inverse)
    if len(pivots) < n:
        raise SingularBody("matrix body is singular")
    return [rows[pivots[c]][n:] for c in range(n)]


def invert_supermatrix(m):
    """Exact inverse by eliminating [m | I] on body-invertible pivots.

    Requires an invertible body and nilpotent souls; m @ result is exactly
    the identity.
    """
    n = len(m)
    return _reduce_augmented(
        m, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


def solve_left(m, rhs):
    """Solve sum_j m[i][j] * x[j] = rhs[i] for the column x."""
    return [row[0] for row in _reduce_augmented(m, [[as_poly(x)] for x in rhs])]


def solve_linear_rows(rows, unknowns, reduce_fn):
    """Jointly solve rows of the form const + sum_k coeff_k * x_k = 0.

    rows: (label, const: SuperPoly, {unknown_key: coeff SuperPoly}).
    Unknowns are eliminated one at a time where a single pivot exists.
    Otherwise one elimination over the rows whose coefficients all have
    numeric bodies solves every unknown left, from the first
    body-independent rows, or none.  Returns (solution, pivot_labels,
    residual_rows, implicit_rows): residual rows lost all unknowns but kept
    a nonzero constant part; implicit rows could not be solved.
    """
    solution = {}
    pivot_labels = set()
    residuals = []
    pending = list(rows)
    for _ in range(len(unknowns) + 2):
        next_rows = []
        progress = False
        for label, const, coeffs in pending:
            acc = const
            live = {}
            for key, c in coeffs.items():
                if key in solution:
                    acc = acc + c * solution[key]
                else:
                    live[key] = c
            acc = reduce_fn(acc)
            live = {k: reduce_fn(c) for k, c in live.items()}
            live = {k: c for k, c in live.items() if not c.is_zero}
            if not live:
                if not acc.is_zero:
                    residuals.append((label, acc))
                continue
            if len(live) == 1:
                (key, c), = live.items()
                inv = pivot_inverse(c)
                if inv is not None:
                    solution[key] = reduce_fn(-(inv * acc))
                    pivot_labels.add(label)
                    progress = True
                    continue
            next_rows.append((label, acc, live))
        pending = next_rows
        if progress:
            continue
        # block: the pivot rows of one elimination are the first
        # body-independent rows, and their last column is the solution
        present = [u for u in unknowns
                   if u not in solution and any(u in live for _, _, live in pending)]
        if not present:
            break
        eligible = [row for row in pending
                    if all(has_nilpotent_soul(row[2].get(u, ZERO)) for u in present)]
        block = [[row[2].get(u, ZERO) for u in present] + [-row[1]] for row in eligible]
        picked = _eliminate(block, len(present), pivot_inverse)
        if len(picked) != len(present):
            break
        for k, u in enumerate(present):
            solution[u] = reduce_fn(block[picked[k]][-1])
        pivot_labels.update(eligible[r][0] for r in picked.values())
    return solution, pivot_labels, residuals, pending


class SpanReducer:
    """Normal forms modulo the span of the added expressions.

    Coefficients of the eliminating combinations are rational constants,
    so the reduction never invents relations that do not already hold.  The
    first reduce eliminates the added expressions as Coefficient rows over
    their monomials in the global term order, keyed by factor tuples; a
    reduction subtracts one row per pivot monomial of p.
    """

    def __init__(self):
        self.exprs = []  # {factors: coeff} per added expression
        self.rows = None  # {pivot factors: {factors: coeff}}

    def add(self, expr):
        self.exprs.append({m.factors: m.coeff for m in as_poly(expr).terms})
        self.rows = None

    def reduce(self, p):
        if self.rows is None:
            keys = sorted({k for e in self.exprs for k in e}, key=factor_order)
            rows = [[e.get(k, C_ZERO) for k in keys] for e in self.exprs]
            pivots = _eliminate(rows, len(keys), _coefficient_inverse)
            self.rows = {keys[c]: {k: x for k, x in zip(keys, rows[r]) if not x.is_zero}
                         for c, r in pivots.items()}
        coeffs = {m.factors: m.coeff for m in as_poly(p).terms}
        for key in [k for k in coeffs if k in self.rows]:
            c = coeffs[key]
            for k, v in self.rows[key].items():
                coeffs[k] = coeffs.get(k, C_ZERO) - c * v
        return SuperPoly._from_map(coeffs)

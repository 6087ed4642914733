"""Exact linear algebra for supermatrices: one Gauss-Jordan elimination.

A supported matrix entry is a constant "body" plus a "soul" in which every
term contains at least one odd generator; such souls are nilpotent.  A pivot
is an entry with a nonzero body, and rows are scaled and combined by
multiplying from the left, so the one elimination runs over Coefficient rows
(body rank, pivots and null space) and over SuperPoly rows (the inverse and
linear solves of a supermatrix), and it terminates exactly.
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


def _poly_inverse(p):
    """Pivot inverse b^-1 * sum_k (-s*b^-1)^k of body b and soul s; None
    when b is zero.

    The series ends because the soul is nilpotent: a product of more terms
    than it has distinct odd generators repeats one of them.
    """
    body = p.body
    if body.is_zero:
        return None
    binv = body.inv()
    series = power = const_poly(binv)
    if p.is_constant:
        return series
    step = SuperPoly(p.terms[1:]) * -binv
    n_odd = len({g for m in step.terms for g, _ in m.factors if g.parity})
    for _ in range(n_odd + 1):
        power = power * step
        if power.is_zero:
            return series
        series = series + power
    raise NonNumericBody("soul part is not nilpotent")


def _eliminate(rows, ncols, pivot_inverse):
    """Gauss-Jordan elimination of rows in place; returns the pivot columns.

    pivot_inverse gives an entry's inverse, or None when the entry is not a
    pivot.  Rows are scaled and combined from the left, and products with a
    zero entry are skipped.  Columns are taken in order, so the pivots are
    the first column basis.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        for pivot in range(rank, len(rows)):
            inv = pivot_inverse(rows[pivot][col])
            if inv is not None:
                break
        else:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        row = rows[rank] = [x if x.is_zero else inv * x for x in rows[rank]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != rank and not f.is_zero:
                rows[r] = [x if y.is_zero else x - f * y
                           for x, y in zip(rows[r], row)]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots


def body_pivots(b):
    """Pivot columns of a Coefficient matrix: its first column basis."""
    return tuple(_eliminate([list(row) for row in b], len(b[0]) if b else 0,
                            _coefficient_inverse))


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
        for r, pc in enumerate(pivots):
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
    if len(_eliminate(rows, n, _poly_inverse)) < n:
        raise SingularBody("matrix body is singular")
    return [row[n:] for row in rows]


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


def invert_poly(p):
    """Inverse of a ring element with invertible body and nilpotent soul."""
    p = as_poly(p)
    check_numeric_body(p)
    inv = _poly_inverse(p)
    if inv is None:
        raise SingularBody(f"entry {p} has a zero body")
    return inv


def solve_linear_rows(rows, unknowns, reduce_fn):
    """Jointly solve rows of the form const + sum_k coeff_k * x_k = 0.

    rows: (label, const: SuperPoly, {unknown_key: coeff SuperPoly}).
    Unknowns are eliminated one at a time where a body-invertible single
    pivot exists, falling back to a block solve over a body-invertible
    square subsystem.  Returns (solution, pivot_labels, residual_rows,
    implicit_rows): residual rows lost all unknowns but kept a nonzero
    constant part; implicit rows could not be solved.
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
                if not c.body.is_zero and has_nilpotent_soul(c):
                    solution[key] = reduce_fn(-(invert_poly(c) * acc))
                    pivot_labels.add(label)
                    progress = True
                    continue
            next_rows.append((label, acc, live))
        if progress:
            pending = next_rows
            continue
        # block fallback: square body-invertible subsystem
        present = [u for u in unknowns
                   if u not in solution and any(u in live for _, _, live in next_rows)]
        if not present or not next_rows:
            pending = next_rows
            break
        eligible = []
        for row in next_rows:
            vec = [row[2].get(u, ZERO) for u in present]
            if all(has_nilpotent_soul(v) for v in vec):
                eligible.append((row, vec))
        # pivot columns of the transpose: the first body-independent rows
        picked = body_pivots([[vec[k].body for _, vec in eligible]
                              for k in range(len(present))])
        if len(picked) != len(present):
            pending = next_rows
            break
        chosen = [eligible[k][0] for k in picked]
        mat = [eligible[k][1] for k in picked]
        rhs = [-row[1] for row in chosen]
        values = solve_left(mat, rhs)
        for u, v in zip(present, values):
            solution[u] = reduce_fn(v)
        pivot_labels.update(row[0] for row in chosen)
        pending = next_rows
    return solution, pivot_labels, residuals, pending


class SpanReducer:
    """Row-echelon reduction of expressions over their monomial supports.

    Coefficients of the eliminating combinations are rational constants,
    so the reduction never invents relations that do not already hold.
    Rows are keyed by factor tuples, which hash and compare by generator
    identity, and pivots follow the global term order.
    """

    def __init__(self):
        self.pivots = []  # (pivot factors, {factors: coeff})

    def _reduce_vec(self, p):
        coeffs = {m.factors: m.coeff for m in as_poly(p).terms}
        for key, row in self.pivots:
            c = coeffs.get(key)
            if c is not None and not c.is_zero:
                for k, v in row.items():
                    coeffs[k] = coeffs.get(k, C_ZERO) - c * v
        return coeffs

    def add(self, expr):
        coeffs = {k: v for k, v in self._reduce_vec(expr).items() if not v.is_zero}
        if not coeffs:
            return
        pivot = min(coeffs, key=factor_order)
        inv = coeffs[pivot].inv()
        self.pivots.append((pivot, {k: v * inv for k, v in coeffs.items()}))
        self.pivots.sort(key=lambda item: factor_order(item[0]))

    def reduce(self, p):
        return SuperPoly._from_map(self._reduce_vec(p))

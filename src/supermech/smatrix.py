"""Exact linear algebra for supermatrices: body operations plus nilpotent-soul
corrections.

A supported matrix entry is a constant plus a "soul" in which every term
contains at least one odd generator; such souls are nilpotent, so inverses
and linear solves terminate exactly.
"""
from __future__ import annotations

from .errors import NonNumericBody, SingularBody
from .superalgebra import (
    C_ONE,
    C_ZERO,
    SuperPoly,
    ZERO,
    as_poly,
    const_poly,
    factor_order,
)


def soul_terms(p):
    return [m for m in as_poly(p).terms if m.factors]


def has_nilpotent_soul(p):
    """True when every non-constant term carries an odd generator."""
    return all(
        any(g.parity for g, _ in m.factors) for m in soul_terms(as_poly(p))
    )


def soul_of(p):
    p = as_poly(p)
    return p - const_poly(p.body)


def check_numeric_body(p):
    if not has_nilpotent_soul(p):
        raise NonNumericBody(f"entry {p} has a non-constant even part")


def body_matrix(m):
    for row in m:
        for entry in row:
            check_numeric_body(entry)
    return [[as_poly(entry).body for entry in row] for row in m]


def _eliminate(rows, ncols):
    """Gauss-Jordan elimination of rows in place; returns the pivot columns.

    Columns are taken in order, so the pivots are the first column basis.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots


def body_pivots(b):
    """Pivot columns of a Coefficient matrix: its first column basis."""
    return tuple(_eliminate([list(row) for row in b], len(b[0]) if b else 0))


def body_rank(b):
    """Rank of a matrix of Coefficients via fraction-exact elimination."""
    return len(body_pivots(b))


def body_inverse(b):
    """Gauss-Jordan inverse of a Coefficient matrix; raises SingularBody."""
    n = len(b)
    aug = [list(row) + [C_ONE if i == j else C_ZERO for j in range(n)]
           for i, row in enumerate(b)]
    if len(_eliminate(aug, n)) < n:
        raise SingularBody("matrix body is singular")
    return [row[n:] for row in aug]


def body_nullspace(b):
    """Right null vectors of a Coefficient matrix, keyed by free column.

    The vector of free column fc is 1 there and 0 on every other free
    column; keys ascend.
    """
    rows = [list(row) for row in b]
    ncols = len(rows[0]) if rows else 0
    pivots = _eliminate(rows, ncols)
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


def mat_identity(n):
    return [[ONE_P if i == j else ZERO for j in range(n)] for i in range(n)]


ONE_P = const_poly(1)


def mat_from_bodies(b):
    return [[const_poly(x) for x in row] for row in b]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ZERO
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_is_zero(m):
    return all(entry.is_zero for row in m for entry in row)


def invert_supermatrix(m):
    """Exact inverse: body inverse composed with a terminating Neumann series.

    Requires an invertible body and nilpotent souls; m @ result is exactly
    the identity.
    """
    n = len(m)
    if n == 0:
        return []
    bodies = body_matrix(m)
    binv = mat_from_bodies(body_inverse(bodies))
    souls = [[soul_of(entry) for entry in row] for row in m]
    if mat_is_zero(souls):
        return binv
    x = mat_mul(binv, souls)
    series = mat_identity(n)
    power = mat_identity(n)
    n_odd = len({g for row in souls for entry in row
                 for mono in entry.terms for g, _ in mono.factors if g.parity})
    for _ in range(n_odd + 1):
        power = [[-entry for entry in row] for row in mat_mul(power, x)]
        if mat_is_zero(power):
            break
        series = [[series[i][j] + power[i][j] for j in range(n)] for i in range(n)]
    else:
        raise NonNumericBody("soul part is not nilpotent")
    return mat_mul(series, binv)


def solve_left(m, rhs):
    """Solve sum_j m[i][j] * x[j] = rhs[i] for the column x."""
    inv = invert_supermatrix(m)
    return [sum((inv[i][j] * rhs[j] for j in range(len(rhs))), ZERO)
            for i in range(len(rhs))]


def invert_poly(p):
    """Inverse of a ring element with invertible body and nilpotent soul."""
    return invert_supermatrix([[as_poly(p)]])[0][0]


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

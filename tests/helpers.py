"""Shared builders for the test models and randomized expressions."""
from __future__ import annotations

import pathlib
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction

from supermech.brackets import PhaseBasis, berezin
from supermech.dirac import Surface, dirac_bracket
from supermech.legendre import ModelBuilder, RankSplit, analyze
from supermech.errors import (
    FlowError,
    GradeMismatch,
    NonNumericBody,
    ParityMismatch,
    SingularBody,
    UnsolvableConstraint,
)
from supermech.numeric_flow import (
    FlowResult,
    GrassmannValue,
    _product,
    evaluate,
    lower,
    make_flow,
)
from supermech.smatrix import body_matrix, body_rank, has_nilpotent_soul
from supermech.superalgebra import (
    Coefficient,
    Generator,
    Kind,
    Parity,
    SuperPoly,
    C_I,
    C_ZERO,
    ZERO,
    accumulate,
    as_poly,
    const_poly,
    factor_order,
    gen_poly,
    normalize,
    parity_of,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "supermech" / "fixtures"
DATA = pathlib.Path(__file__).resolve().parent / "data"

HALF = Fraction(1, 2)
HALF_I = Coefficient(0, HALF)


def fixture_text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def data_text(name):
    return (DATA / name).read_text(encoding="utf-8")


# ----------------------------------------------------------- random inputs

def random_poly(rng, gens, parity=None, max_terms=4, max_degree=4):
    """Random canonical polynomial; optionally parity-homogeneous."""
    acc = SuperPoly()
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randint(0, max_degree)
        factors = [rng.choice(gens) for _ in range(k)]
        coeff = Coefficient(Fraction(rng.randint(-4, 4)),
                            Fraction(rng.randint(-2, 2)))
        term = normalize([(coeff, factors)])
        if term.is_zero:
            continue
        if parity is not None and parity_of(term) != parity:
            continue
        acc = acc + term
    return acc


def random_homogeneous(rng, gens, max_terms=4, max_degree=4):
    return random_poly(rng, gens, Parity(rng.randint(0, 1)), max_terms, max_degree)


def small_basis():
    """Two even pairs and one odd pair: six generators."""
    q1 = Generator("q1", Parity.EVEN, Kind.COORDINATE, None, 0)
    q2 = Generator("q2", Parity.EVEN, Kind.COORDINATE, None, 1)
    th = Generator("th", Parity.ODD, Kind.COORDINATE, None, 2)
    p1 = Generator("p1", Parity.EVEN, Kind.MOMENTUM, None, 0)
    p2 = Generator("p2", Parity.EVEN, Kind.MOMENTUM, None, 1)
    pth = Generator("pth", Parity.ODD, Kind.MOMENTUM, None, 2)
    return PhaseBasis(((q1, p1), (q2, p2), (th, pth)))


# ------------------------------------------------------ reference derivative

def reference_derive(p, g, left):
    """Graded derivative by g taken from the left or from the right.

    Each occurrence of g is commuted to that end of its monomial, picking up
    a sign per odd factor it crosses, then removed.  For even g this is the
    ordinary partial derivative.  superalgebra.gradient must match this
    reference exactly.
    """
    acc = {}
    for m in as_poly(p).terms:
        for pos, (h, e) in enumerate(m.factors):
            if h != g:
                continue
            if g.parity:
                crossed = m.factors[:pos] if left else m.factors[pos + 1:]
                crossings = sum(1 for hh, _ in crossed if hh.parity)
                coeff = -m.coeff if crossings & 1 else m.coeff
                factors = m.factors[:pos] + m.factors[pos + 1:]
            else:
                coeff = m.coeff * e
                if e > 1:
                    factors = m.factors[:pos] + ((g, e - 1),) + m.factors[pos + 1:]
                else:
                    factors = m.factors[:pos] + m.factors[pos + 1:]
            prev = acc.get(factors)
            acc[factors] = coeff if prev is None else prev + coeff
            break
    return SuperPoly._from_map(acc)


def reference_berezin(f, g, basis):
    """Berezin bracket summed over every basis pair with reference_derive.

    brackets.berezin must match this reference exactly.
    """
    sign = 1 if parity_of(f) == Parity.ODD and parity_of(g) == Parity.ODD else -1
    acc = {}
    for q, p in basis.pairs:
        accumulate(acc, reference_derive(f, q, False) * reference_derive(g, p, True))
        accumulate(acc, reference_derive(g, q, False) * reference_derive(f, p, True),
                   sign)
    return SuperPoly._from_map(acc)


def simpletic_metric(basis):
    """Sparse E^{IJ} over the flattened basis (q_0, p_0, q_1, p_1, ...).

    Within each conjugate pair the (coordinate, momentum) entry is +1 and
    the (momentum, coordinate) entry is -(-1)^{P(pair)}; everything else
    vanishes.  Returns the nonzero entries as (eta^I, eta^J, sign).
    """
    entries = []
    for q, p in basis.pairs:
        entries.append((q, p, 1))
        entries.append((p, q, 1 if q.parity else -1))
    return tuple(entries)


def simpletic_bracket(f, g, basis):
    """Bracket as d_r F/d eta^I E^{IJ} d_l G/d eta^J over simpletic_metric,
    with every derivative from reference_derive; brackets.berezin must
    match it exactly."""
    parity_of(f)
    parity_of(g)
    acc = {}
    for gi, gj, sign in simpletic_metric(basis):
        accumulate(acc, reference_derive(f, gi, False) * reference_derive(g, gj, True),
                   sign)
    return SuperPoly._from_map(acc)


# ------------------------------------------------------ reference reduction

def reference_substitute(p, bindings):
    """Simultaneous substitution with one SuperPoly product per factor.

    superalgebra.substitute must match this reference exactly.
    """
    bindings = {g: as_poly(v) for g, v in bindings.items()}
    for g, v in bindings.items():
        if not v.is_zero and parity_of(v) != g.parity:
            raise ParityMismatch(f"cannot bind {g} to {v}")
    acc = {}
    for m in as_poly(p).terms:
        term = const_poly(m.coeff)
        for g, e in m.factors:
            rep = bindings.get(g)
            factor = gen_poly(g, e) if rep is None else rep ** e
            term = term * factor
            if term.is_zero:
                break
        accumulate(acc, term)
    return SuperPoly._from_map(acc)


def reference_weak_reduce(p, records):
    """Weak reduction that rebuilds the surface from records on every call.

    Surface.reduce must match this reference exactly: the raw solved forms
    are substituted, by reference_substitute, until nothing changes, then
    the span of the records' residuals eliminates exact constant-coefficient
    combinations.
    """
    p = as_poly(p)
    active = [rec for rec in records if not rec.superseded]
    bindings = {rec.solved[0]: rec.solved[1] for rec in active if rec.solved}

    def to_fixpoint(expr):
        if not bindings:
            return expr
        for _ in range(len(bindings) + 2):
            reduced = reference_substitute(expr, bindings)
            if reduced == expr:
                return expr
            expr = reduced
        raise UnsolvableConstraint("solved forms do not reach a fixpoint")

    p = to_fixpoint(p)
    span = ReferenceSpan()
    for rec in active:
        residual = to_fixpoint(rec.expr)
        if not residual.is_zero:
            span.add(residual)
    return span.reduce(p)


def integrability_matrix(sys, family=None):
    """All pairwise {H'_b, H'_a}, raw and weakly reduced on the family's
    surface, computed afresh; closure_loop's matrices must match it."""
    family = family or sys.family()
    surface = Surface(family)
    raw = {}
    reduced = {}
    for mb in family:
        for ma in family:
            entry = berezin(mb.expr, ma.expr, sys.basis)
            raw[(mb.label, ma.label)] = entry
            reduced[(mb.label, ma.label)] = surface.reduce(entry)
    return raw, reduced


def reference_constraint_matrix(records, basis, surface):
    """Delta_st = {Phi_s, Phi_t} with all n^2 brackets computed, each one
    reduced on surface; dirac.constraint_matrix must match it."""
    return [[surface.reduce(berezin(rs.expr, rt.expr, basis)) for rt in records]
            for rs in records]


def reference_bracket_table(analysis):
    """Every nonvanishing {a, b}_D, a before b, by dirac_bracket, which
    computes both {a, Phi_s} and {Phi_t, b}; bracket_table must match it."""
    basis = analysis.basis
    gens = list(basis.coordinates) + list(basis.momenta)
    table = []
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            value = dirac_bracket(gen_poly(a), gen_poly(b), analysis)
            if not value.is_zero:
                table.append((a, b, value))
    return table


def reference_rank_and_split(hess):
    """Hessian split by scanning principal blocks in lexicographic order.

    rank_and_split must match this reference exactly on graded-symmetric
    bodies: the first subset of size rank with an invertible block wins.
    """
    bodies = body_matrix(hess)
    n = len(bodies)
    rank = body_rank(bodies)
    if rank == 0:
        return RankSplit(0, (), tuple(range(n)))
    for subset in combinations(range(n), rank):
        block = [[bodies[i][j] for j in subset] for i in subset]
        if body_rank(block) == rank:
            expressible = subset
            break
    unexpressed = tuple(i for i in range(n) if i not in expressible)
    return RankSplit(rank, expressible, unexpressed)


def random_graded_body(rng, n):
    """Random graded-symmetric n x n body as const_poly entries, with parities.

    Interleaved parities; the even block is a symmetric sum of outer
    products v v^T and the odd block an antisymmetric sum of u w^T - w u^T,
    each of random rank, so rank-deficient bodies are common.  Entries of
    mixed parity have zero body.
    """
    parities = [rng.choice((Parity.EVEN, Parity.ODD)) for _ in range(n)]
    body = [[Coefficient() for _ in range(n)] for _ in range(n)]

    def vec():
        return [Coefficient(rng.randint(-2, 2), rng.choice((0, 0, rng.randint(-1, 1))))
                for _ in range(n)]

    for parity in (Parity.EVEN, Parity.ODD):
        idx = [i for i in range(n) if parities[i] == parity]
        for _ in range(rng.randint(0, len(idx))):
            u, w = vec(), vec()
            for i in idx:
                for j in idx:
                    if parity == Parity.EVEN:
                        body[i][j] = body[i][j] + u[i] * u[j]
                    else:
                        body[i][j] = body[i][j] + u[i] * w[j] - w[i] * u[j]
    return [[const_poly(c) for c in row] for row in body], parities


# --------------------------------------------------- reference supermatrices

def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = SuperPoly()
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def _reference_body_inverse(b):
    """Gauss-Jordan inverse of a Coefficient matrix; raises SingularBody."""
    n = len(b)
    rows = [list(row) + [Coefficient(int(i == j)) for j in range(n)]
            for i, row in enumerate(b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero), None)
        if pivot is None:
            raise SingularBody("matrix body is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inv()
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and not f.is_zero:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def reference_invert_supermatrix(m):
    """Inverse as sum_k (-B^-1 S)^k B^-1 for body B and souls S.

    The Neumann series ends because the souls are nilpotent; an oracle for
    smatrix's elimination on body-invertible pivots.
    """
    n = len(m)
    if n == 0:
        return []
    binv = [[const_poly(x) for x in row]
            for row in _reference_body_inverse(body_matrix(m))]
    souls = [[as_poly(e) - const_poly(as_poly(e).body) for e in row] for row in m]
    x = mat_mul(binv, souls)
    series = power = [[const_poly(int(i == j)) for j in range(n)] for i in range(n)]
    n_odd = len({g for row in souls for e in row
                 for mono in e.terms for g, _ in mono.factors if g.parity})
    for _ in range(n_odd + 1):
        power = [[-e for e in row] for row in mat_mul(power, x)]
        if all(e.is_zero for row in power for e in row):
            return mat_mul(series, binv)
        series = [[a + b for a, b in zip(r, s)] for r, s in zip(series, power)]
    raise NonNumericBody("soul part is not nilpotent")


def _reference_pivot_columns(b):
    """First column basis of a Coefficient matrix, by column-wise
    elimination with row swaps."""
    rows = [list(row) for row in b]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != rank and not f.is_zero:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return pivots


def reference_solve_linear_rows(rows, unknowns, reduce_fn):
    """Jointly solve rows of the form const + sum_k coeff_k * x_k = 0.

    smatrix.solve_linear_rows must match this reference exactly.  It is the
    former solver: each block picks the first body-independent rows by
    column-wise elimination with row swaps, and solves them through the
    Neumann-series inverse.

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
                    solution[key] = reduce_fn(
                        -(reference_invert_supermatrix([[c]])[0][0] * acc))
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
        picked = _reference_pivot_columns([[vec[k].body for _, vec in eligible]
                                           for k in range(len(present))])
        if len(picked) != len(present):
            pending = next_rows
            break
        chosen = [eligible[k][0] for k in picked]
        mat = [eligible[k][1] for k in picked]
        rhs = [-row[1] for row in chosen]
        values = [row[0] for row in mat_mul(reference_invert_supermatrix(mat),
                                            [[x] for x in rhs])]
        for u, v in zip(present, values):
            solution[u] = reduce_fn(v)
        pivot_labels.update(row[0] for row in chosen)
        pending = next_rows
    return solution, pivot_labels, residuals, pending


class ReferenceSpan:
    """Row-echelon reduction of expressions over their monomial supports.

    smatrix.SpanReducer must give the same normal forms.  It is the former
    span: each added expression is reduced by the pivots already held, and
    a new pivot row is never subtracted from the earlier ones.

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


def random_supermatrix(rng, n):
    """Random graded n x n supermatrix over a fixed set of generators.

    Entry (i, j) has the parity of i plus that of j: odd entries are souls
    alone, even entries a Gaussian-integer body plus an even soul.  Some
    bodies are singular (a zero row or a repeated row), and now and then a
    diagonal entry gains a bare even generator, which is not a numeric body.
    """
    q = Generator("rq", Parity.EVEN, Kind.COORDINATE, None, 0)
    odd = [Generator(f"rth{k}", Parity.ODD, Kind.COORDINATE, None, k + 1)
           for k in range(5)]
    parities = [rng.randint(0, 1) for _ in range(n)]

    def soul(parity):
        acc = SuperPoly()
        for _ in range(rng.randint(0, 2)):
            factors = rng.sample(odd, rng.choice((1, 1, 3) if parity else (2, 2, 4)))
            if rng.random() < 0.3:
                factors.append(q)
            coeff = Coefficient(rng.randint(-2, 2), rng.choice((0, rng.randint(-1, 1))))
            acc = acc + normalize([(coeff, factors)])
        return acc

    bodies = [[Coefficient(rng.randint(-3, 3), rng.choice((0, 0, rng.randint(-2, 2))))
               if parities[i] == parities[j] else Coefficient()
               for j in range(n)] for i in range(n)]
    shape = rng.random()
    if shape < 0.15:
        bodies[rng.randrange(n)] = [Coefficient()] * n
    elif shape < 0.3 and n > 1:
        i, j = rng.sample(range(n), 2)
        if parities[i] == parities[j]:
            bodies[j] = list(bodies[i])
    m = [[const_poly(bodies[i][j]) + soul((parities[i] + parities[j]) & 1)
          for j in range(n)] for i in range(n)]
    if rng.random() < 0.05:
        i = rng.randrange(n)
        m[i][i] = m[i][i] + gen_poly(q)
    return m


# ------------------------------------------------------- reference Lambda_n

def reference_sign(a, b):
    """Sign of sorting the generators of subset a followed by those of b:
    one flip per pair i in a, j in b with i > j."""
    swaps = sum(1 for i in range(a.bit_length()) if a >> i & 1
                for j in range(i) if b >> j & 1)
    return -1 if swaps & 1 else 1


def reference_product(x, y):
    """x*y in Lambda_n with one sign per pair of masks; numeric_flow's
    products must agree with it."""
    out = {}
    for ma, va in x.coeff.items():
        for mb, vb in y.coeff.items():
            if not ma & mb:
                out[ma | mb] = out.get(ma | mb, 0j) + va * vb * reference_sign(ma, mb)
    return GrassmannValue(max(x.n, y.n), out)


def reference_evaluate(p, assignment, n):
    """p in Lambda_n under generator -> GrassmannValue, walking its terms
    and factors with reference_product and summing in dict order."""
    total = GrassmannValue(n)
    for mono in p.terms:
        acc = GrassmannValue.body_value(n, complex(mono.coeff))
        for g, e in mono.factors:
            for _ in range(e):
                acc = reference_product(acc, assignment[g])
        total = total + acc
    return total


def run_program(program, env):
    """Value of a lowered polynomial under env, a list of mask -> complex
    dicts in which a missing slot is zero, multiplied with `_product`.

    A term's first factor scales its coefficient slot by slot, and the
    first term starts the total.  The result may hold exact zeros.
    """
    total = None
    for coeff, slots in program:
        acc = {m: coeff * v for m, v in env[slots[0]].items()} if slots else {0: coeff}
        for slot in slots[1:]:
            acc = _product(acc, env[slot])
        if total is None:
            total = acc
        else:
            for m, v in acc.items():
                total[m] = total.get(m, 0j) + v
    return {} if total is None else total


def reference_integrate(tds, path, init, report, fold=True):
    """numeric_flow.integrate_flow as a dict-based RK4 loop: every value a
    mask -> complex dict of the slots it holds, every program run with
    run_program, and the update summed as
    ((k1 + 2k2) + 2k3) + k4, then times h/6, with z4*1 for Z.  A slot
    missing from a value is 0j wherever it enters a sum.  Like the flow, it
    checks the grade of every initial value once, and lowers with every
    constant whose value has no soul folded into the coefficients, so the
    planned flow must equal it bit for bit, but for the sign of zero parts.
    With fold=False every constant stays a slot, as a flow lowered before
    the fold did: that run agrees with the folded one to rounding, and bit
    for bit when every folded value is a power of two."""
    flow = make_flow(tds, report)
    sys = flow.tds.system
    n = max((v.n for v in init.values()), default=0)
    lifted = {g: v if v.n == n else GrassmannValue(n, v.coeff)
              for g, v in init.items()}
    state_gens = [g for g in flow.state_gens if g != sys.p0]
    for g in state_gens:
        if g not in lifted:
            raise FlowError(f"initial state misses {g}")
    state_gens.append(sys.p0)
    order = state_gens + [g for g in lifted if g not in flow.state_gens]
    slot_of = {g: i for i, g in enumerate(order)}
    p0_slot = len(state_gens) - 1

    segments = []
    for w0, w1 in zip(path.waypoints, path.waypoints[1:]):
        moving = [(i, complex(w1[i] - w0[i])) for i in range(len(path.params))
                  if w1[i] - w0[i] != 0.0]
        segments.append((w1, moving))
    moved = {i for _, moving in segments for i, _ in moving}
    for g, value in lifted.items():
        if not value.pure_grade(g.parity):
            raise GradeMismatch(f"{g} assigned a value of the wrong grade")
    fixed = {g: lifted[g].body for g in order[p0_slot + 1:]
             if fold and set(lifted[g].coeff) <= {0}}
    h0 = lower(sys.legres.h0, slot_of, fixed)
    invariants = [(label, lower(expr, slot_of, fixed))
                  for label, expr in flow.invariants]
    dz = {i: lower(flow.dz[path.params[i]], slot_of, fixed) for i in moved}
    rhs = {}
    for i in moved:
        row = ((j, lower(flow.rhs[(g, path.params[i])], slot_of, fixed))
               for j, g in enumerate(state_gens))
        rhs[i] = [(j, prog) for j, prog in row if prog]

    def largest(value):
        return max(map(abs, value.values()), default=0.0)

    env = [None if g == sys.p0 else lifted[g].coeff for g in order]
    # P0 is -evaluate(h0), which reads every constant as a slot
    env[p0_slot] = (-evaluate(sys.legres.h0, lifted)).coeff
    state, constants = env[:p0_slot + 1], env[p0_slot + 1:]

    def sample(point):
        return (tuple(point),
                {g: GrassmannValue(n, v) for g, v in zip(state_gens, state)})

    residual = 0.0
    for label, prog in invariants:
        residual = max(residual, largest(run_program(prog, env)))
    if residual > 1e-12:
        raise FlowError(
            f"initial state violates the constraint surface by {residual:.3e}")

    z = {}
    drift = 0.0
    drift_by = {label: 0.0 for label, _ in invariants}
    samples = [sample(path.waypoints[0])]

    def add(into, value, factor):
        for m, v in value.items():
            into[m] = into.get(m, 0j) + v * factor
        return into

    def deriv(env, moving):
        ks = [{} for _ in state]
        zdot = {}
        for i, vf in moving:
            for j, prog in rhs[i]:
                add(ks[j], run_program(prog, env), vf)
            add(zdot, run_program(dz[i], env), vf)
        return ks, zdot

    def shifted(k, factor):
        return [add(dict(s), d, factor) for s, d in zip(state, k)] + constants

    def advance(s, a, b, c, d):
        out = dict(s)
        for m in {**a, **b, **c, **d}:
            out[m] = out.get(m, 0j) + (a.get(m, 0j) + b.get(m, 0j) * two
                                       + c.get(m, 0j) * two + d.get(m, 0j)) * sixth
        return out

    h = 1.0 / path.steps
    half, full, sixth = complex(h / 2), complex(h), complex(h / 6)
    one, two = complex(1), complex(2)
    for w1, moving in segments:
        for _ in range(path.steps):
            k1, z1 = deriv(state + constants, moving)
            k2, z2 = deriv(shifted(k1, half), moving)
            k3, z3 = deriv(shifted(k2, half), moving)
            k4, z4 = deriv(shifted(k3, full), moving)
            state = [advance(*parts) for parts in zip(state, k1, k2, k3, k4)]
            z = advance(z, z1, z2, z3, {m: v * one for m, v in z4.items()})
            env = state + constants
            for label, prog in invariants:
                value = largest(run_program(prog, env))
                if value > drift_by[label]:
                    drift_by[label] = value
                    if value > drift:
                        drift = value
        samples.append(sample(w1))
    end_by = {label: largest(run_program(prog, env)) for label, prog in invariants}
    return FlowResult(samples, GrassmannValue(n, z), drift, drift_by, end_by, residual)

# ------------------------------------------------------------- test models

@dataclass
class Model:
    model: object
    legres: object
    gens: dict


def build_sho():
    b = ModelBuilder("sho")
    q, qd, pq = b.coordinate("q", Parity.EVEN)
    lagrangian = HALF * gen_poly(qd) ** 2 - HALF * gen_poly(q) ** 2
    model = b.finish(lagrangian)
    return Model(model, analyze(model), {"q": q, "qd": qd, "pq": pq})


def build_free_singular():
    b = ModelBuilder("free_singular")
    q1, q1d, p1 = b.coordinate("q1", Parity.EVEN)
    q2, q2d, p2 = b.coordinate("q2", Parity.EVEN)
    model = b.finish(HALF * gen_poly(q1d) ** 2)
    return Model(model, analyze(model),
                 {"q1": q1, "q1d": q1d, "p1": p1, "q2": q2, "q2d": q2d, "p2": p2})


def build_gauge_toy():
    b = ModelBuilder("gauge_toy")
    q1, q1d, p1 = b.coordinate("q1", Parity.EVEN)
    q2, q2d, p2 = b.coordinate("q2", Parity.EVEN)
    model = b.finish(HALF * (gen_poly(q1d) - gen_poly(q2)) ** 2)
    return Model(model, analyze(model),
                 {"q1": q1, "q1d": q1d, "p1": p1, "q2": q2, "q2d": q2d, "p2": p2})


def build_fermionic():
    b = ModelBuilder("fermionic_oscillator")
    psi, psid, ppsi = b.coordinate("psi", Parity.ODD)
    psib, psibd, ppsib = b.coordinate("psibar", Parity.ODD)
    m = b.parameter("m")
    lagrangian = HALF_I * (gen_poly(psib) * gen_poly(psid)
                           - gen_poly(psibd) * gen_poly(psi)) \
        - gen_poly(m) * gen_poly(psib) * gen_poly(psi)
    model = b.finish(lagrangian)
    return Model(model, analyze(model),
                 {"psi": psi, "psid": psid, "ppsi": ppsi,
                  "psibar": psib, "psibard": psibd, "ppsibar": ppsib, "m": m})


# Standard 4x4 gamma matrices with diagonal gamma0, as Coefficient entries.
def gamma_matrices():
    z = Coefficient(0)
    o = Coefficient(1)
    i = C_I
    g0 = ((o, z, z, z), (z, o, z, z), (z, z, -o, z), (z, z, z, -o))
    g1 = ((z, z, z, o), (z, z, o, z), (z, -o, z, z), (-o, z, z, z))
    g2 = ((z, z, z, -i), (z, z, i, z), (z, i, z, z), (-i, z, z, z))
    g3 = ((z, z, o, z), (z, z, z, -o), (-o, z, z, z), (z, o, z, z))
    return (g0, g1, g2, g3)


def bilinear(matrix, left_gens, right_polys):
    """sum_ab left_a matrix[a][b] right_b as a SuperPoly."""
    acc = SuperPoly()
    for a in range(4):
        for b in range(4):
            c = matrix[a][b]
            if c.is_zero:
                continue
            acc = acc + c * (gen_poly(left_gens[a]) * right_polys[b])
    return acc


def build_qed():
    """Spinor electrodynamics reduced to one spatial point."""
    b = ModelBuilder("dirac_maxwell_reduced")
    a0 = b.coordinate("A0", Parity.EVEN)
    aa = [b.coordinate("A", Parity.EVEN, j) for j in (1, 2, 3)]
    psi = [b.coordinate("psi", Parity.ODD, a) for a in (1, 2, 3, 4)]
    psib = [b.coordinate("psibar", Parity.ODD, a) for a in (1, 2, 3, 4)]
    e = b.parameter("e")
    m = b.parameter("m")
    gammas = gamma_matrices()
    psb = [q for q, _, _ in psib]
    psidot = [gen_poly(v) for _, v, _ in psi]
    psip = [gen_poly(q) for q, _, _ in psi]
    lagrangian = SuperPoly()
    for _, v, _ in aa:
        lagrangian = lagrangian + HALF * gen_poly(v) ** 2
    lagrangian = lagrangian + C_I * bilinear(gammas[0], psb, psidot)
    lagrangian = lagrangian - gen_poly(e) * gen_poly(a0[0]) * bilinear(
        gammas[0], psb, psip)
    for j, (q, _, _) in enumerate(aa):
        lagrangian = lagrangian - gen_poly(e) * gen_poly(q) * bilinear(
            gammas[j + 1], psb, psip)
    mass = SuperPoly()
    for a in range(4):
        mass = mass + gen_poly(psb[a]) * psip[a]
    lagrangian = lagrangian - gen_poly(m) * mass
    model = b.finish(lagrangian)
    return Model(model, analyze(model), {
        "A0": a0, "A": aa, "psi": psi, "psibar": psib, "e": e, "m": m,
        "gammas": gammas,
    })

"""Generalized Hamiltonian constraint algorithm.

Runs the consistency loop with undetermined multipliers, classifies
constraints through the bracket supermatrix, recombines first-class
directions from its null vectors, inverts the second-class block exactly
and provides Dirac brackets.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .brackets import berezin
from .errors import (
    Inconsistent,
    NonNumericBody,
    SingularBody,
    UnsolvableConstraint,
    UnsupportedLagrangian,
)
from .smatrix import (
    SpanReducer,
    body_nullspace,
    body_rank,
    has_nilpotent_soul,
    invert_poly,
    invert_supermatrix,
    solve_left,
    solve_linear_rows,
)
from .superalgebra import (
    Generator,
    Kind,
    Parity,
    SuperPoly,
    ZERO,
    as_poly,
    contains,
    derive_right,
    gen_poly,
    parity_of,
    substitute,
)

__all__ = [
    "ConstraintRecord",
    "DiracAnalysis",
    "Surface",
    "consistency_step",
    "constraint_matrix",
    "dirac_bracket",
    "dirac_bracket_table",
    "first_class_recombination",
    "invert_supermatrix",
    "run_dirac",
    "weak_reduce",
]


@dataclass
class ConstraintRecord:
    """One constraint with its stage, class and solved form when available."""

    name: str
    expr: SuperPoly
    stage: int
    cls: str = "undetermined"  # "first" | "second" | "undetermined"
    solved: tuple[Generator, SuperPoly] | None = None
    coordinate: Generator | None = None
    origin: str = "primary"  # "primary" | "consistency" | "recombination"
    superseded: bool = False

    def __post_init__(self):
        parity_of(self.expr)

    @property
    def parity(self):
        return parity_of(self.expr)


def try_solve(expr, basis):
    """Attempt to isolate one canonical variable with body-invertible coefficient.

    Momenta are preferred over coordinates; the first candidate in basis
    order wins, so solved forms are deterministic.
    """
    candidates = list(basis.momenta) + list(basis.coordinates)
    for g in candidates:
        if not contains(expr, g):
            continue
        a = derive_right(expr, g)
        if contains(a, g) or a.body.is_zero or not has_nilpotent_soul(a):
            continue
        rest = expr - a * gen_poly(g)
        if contains(rest, g):
            continue
        value = -(invert_poly(a) * rest)
        if not value.is_zero and parity_of(value) != g.parity:
            continue
        if substitute(expr, {g: value}).is_zero:
            return g, value
    return None


class Surface:
    """The constraint surface of one record set, built once and reused.

    Holds the solved-form bindings of the active records and the span over
    the residuals the records leave once those bindings reach a fixpoint.
    A surface belongs to the analysis or closure round that built it:
    build a new one whenever the active record set changes.
    """

    def __init__(self, records):
        active = [rec for rec in records if not rec.superseded]
        self.bindings = {rec.solved[0]: rec.solved[1]
                         for rec in active if rec.solved}
        self.unsolved = [(rec.name, set(rec.expr.generators()))
                         for rec in active if rec.solved is None]
        # the residuals still vanish on the surface, and they are what
        # unsolvable constraints (secondaries, recombinations) reduce to
        self.span = SpanReducer()
        for rec in active:
            residual = self._to_fixpoint(rec.expr)
            if not residual.is_zero:
                self.span.add(residual)

    def _to_fixpoint(self, expr):
        bindings = self.bindings
        if not bindings:
            return expr
        for _ in range(len(bindings) + 2):
            reduced = substitute(expr, bindings)
            if reduced == expr:
                return expr
            expr = reduced
        raise UnsolvableConstraint("solved forms do not reach a fixpoint")

    def reduce(self, p, on_unsolved="raise"):
        """Canonical representative of p on the surface.

        Substitutes solved constraint forms to a fixpoint, then eliminates
        exact constant-coefficient combinations of the constraint
        residuals.  With on_unsolved="raise", an unsolvable constraint
        whose generators survive in the result raises UnsolvableConstraint
        instead of being silently ignored.
        """
        p = self.span.reduce(self._to_fixpoint(as_poly(p)))
        if on_unsolved == "raise" and not p.is_zero:
            support = set(p.generators())
            for name, generators in self.unsolved:
                if support & generators:
                    raise UnsolvableConstraint(
                        f"{name} has no solved form but touches the expression")
        return p


def weak_reduce(p, records, on_unsolved="raise"):
    """Canonical representative of p on the surface of records (see Surface)."""
    return Surface(records).reduce(p, on_unsolved)


def constraint_matrix(constraints, basis, surface=None):
    """Delta_st = {Phi_s, Phi_t}, weakly reduced on surface when given."""
    exprs = [c.expr if isinstance(c, ConstraintRecord) else as_poly(c)
             for c in constraints]
    rows = [[berezin(es, et, basis) for et in exprs] for es in exprs]
    if surface is None:
        return rows
    return [[surface.reduce(entry, on_unsolved="ignore") for entry in row]
            for row in rows]


@dataclass
class DiracAnalysis:
    """Outcome of the full constraint algorithm for one model."""

    model: object
    basis: object
    h0: SuperPoly
    hp: SuperPoly
    records: list[ConstraintRecord] = field(default_factory=list)
    multipliers: dict[Generator, SuperPoly | None] = field(default_factory=dict)
    multiplier_symbols: dict[Generator, Generator] = field(default_factory=dict)
    delta: list[list[SuperPoly]] = field(default_factory=list)
    second_class: tuple[int, ...] = ()
    delta_inverse: list[list[SuperPoly]] = field(default_factory=list)
    _surface: Surface | None = field(
        default=None, init=False, repr=False, compare=False)
    _surface_key: tuple = field(
        default=(), init=False, repr=False, compare=False)

    @property
    def surface(self):
        """The constraint surface of the current records.

        Built on first use and rebuilt whenever a record is added, edited
        or superseded, so it always matches records.
        """
        key = tuple((rec.name, rec.expr, rec.solved, rec.superseded)
                    for rec in self.records)
        if self._surface is None or key != self._surface_key:
            self._surface = Surface(self.records)
            self._surface_key = key
        return self._surface

    def active(self):
        return [rec for rec in self.records if not rec.superseded]

    def second_class_records(self):
        active = self.active()
        return [active[i] for i in self.second_class]


def _multiplier_terms(p, symbols):
    return [v for v in symbols if contains(p, v)]


def consistency_step(analysis, h0, basis):
    """One consistency sweep: the reduced time derivative of every constraint.

    Returns a list of (record, outcome, payload) with outcome one of
    "zero", "multiplier", "new".  Determined multipliers already known to
    the analysis are substituted before classification.
    """
    solved_mults = {v: val for v, val in
                    ((analysis.multiplier_symbols[q], analysis.multipliers[q])
                     for q in analysis.multipliers)
                    if val is not None}
    outcomes = []
    symbols = list(analysis.multiplier_symbols.values())
    surface = analysis.surface
    for rec in analysis.active():
        r = berezin(rec.expr, analysis.hp, basis)
        if solved_mults:
            r = substitute(r, solved_mults)
        r = surface.reduce(r, on_unsolved="ignore")
        if r.is_zero:
            outcomes.append((rec, "zero", r))
        elif _multiplier_terms(r, symbols):
            outcomes.append((rec, "multiplier", r))
        else:
            if r.is_constant:
                raise Inconsistent(f"consistency of {rec.name} yields {r}")
            outcomes.append((rec, "new", r))
    return outcomes


def _solve_multiplier_rows(rows, symbols, surface):
    """Jointly eliminate multiplier symbols from consistency rows.

    Returns (solved map, leftover v-free expressions).  Rows that keep a
    multiplier with no body-invertible coefficient are unsupported.
    """

    def reduce_fn(p):
        return surface.reduce(p, on_unsolved="ignore")

    prepared = []
    for i, r in enumerate(rows):
        coeffs = {}
        for v in symbols:
            if contains(r, v):
                a = derive_right(r, v)
                if any(contains(a, w) for w in symbols):
                    raise UnsupportedLagrangian(
                        f"multiplier {v} enters a consistency row nonlinearly")
                coeffs[v] = a
        const = substitute(r, {v: ZERO for v in coeffs})
        prepared.append((i, const, coeffs))
    solved, _, residuals, implicit = solve_linear_rows(prepared, symbols, reduce_fn)
    if implicit:
        raise UnsupportedLagrangian(
            "multiplier system has no body-invertible pivot")
    return solved, [expr for _, expr in residuals]


def _classification_sign(p_phi, p_t, p_s):
    """Sign of Delta_st v_s inside {sum_s Phi_s v_s, Phi_t}, weakly."""
    return -1 if (p_phi * p_t + p_t * p_s) & 1 else 1


def first_class_recombination(delta, records, basis):
    """Classify records using delta; recombine null directions into first class.

    Null vectors are found on the body of delta and lifted with exact soul
    corrections; a lift that fails to close leaves the participants
    undetermined rather than forcing a classification.
    """
    active = [rec for rec in records if not rec.superseded]
    n = len(active)
    zero_rows = set()
    for i in range(n):
        if all(delta[i][j].is_zero for j in range(n)):
            active[i].cls = "first"
            zero_rows.add(i)
    remaining = [i for i in range(n) if i not in zero_rows]
    new_records = []
    while remaining:
        block = [[delta[i][j].body for j in remaining] for i in remaining]
        if body_rank(block) == len(remaining):
            for i in remaining:
                active[i].cls = "second"
            break
        # the active set loses a record with every supersede below
        surface = Surface(records)
        lifted = None
        for target in (Parity.EVEN, Parity.ODD):
            cols = [i for i in remaining if active[i].parity == target]
            if not cols:
                continue
            # body equations: sum_s body(Delta[s][t]) v0_s = 0 for all t
            bmat = [[delta[s][t].body for s in cols] for t in remaining]
            null = body_nullspace(bmat)
            if not null:
                continue
            v0 = null[0]
            support = [cols[k] for k, c in enumerate(v0) if not c.is_zero]
            lifted = _lift_null_vector(delta, active, remaining, cols, v0,
                                       support, target, surface)
            if lifted is not None:
                break
        if lifted is None:
            for i in remaining:
                active[i].cls = "undetermined"
            break
        pivot, vector = lifted
        combo = ZERO
        for s, vs in vector.items():
            combo = combo + active[s].expr * vs
        rec = ConstraintRecord(
            name=f"{active[pivot].name}~rec",
            expr=combo,
            stage=active[pivot].stage,
            cls="first",
            solved=try_solve(combo, basis),
            coordinate=active[pivot].coordinate,
            origin="recombination",
        )
        active[pivot].superseded = True
        new_records.append(rec)
        remaining = [i for i in remaining if i != pivot]
    return new_records


def _lift_null_vector(delta, active, remaining, cols, v0, support, p_phi, surface):
    """Extend a body null vector with soul corrections; None when it fails."""
    from .superalgebra import const_poly

    for pivot in support:
        rest = [i for i in remaining if i != pivot]
        if not rest:
            continue
        sign = _classification_sign
        block = [[const_poly(sign(p_phi, active[t].parity, active[s].parity))
                  * delta[s][t] for s in rest] for t in rest]
        try:
            bodies = [[entry.body for entry in row] for row in block]
            if body_rank(bodies) != len(rest):
                continue
        except (SingularBody, NonNumericBody):
            continue
        fixed = {s: const_poly(v0[cols.index(s)]) for s in support}
        rhs = []
        for t in rest:
            acc = ZERO
            for s in support:
                acc = acc + const_poly(
                    sign(p_phi, active[t].parity, active[s].parity)) \
                    * delta[s][t] * fixed[s]
            rhs.append(-acc)
        try:
            correction = solve_left(block, rhs)
        except (SingularBody, NonNumericBody):
            continue
        vector = dict(fixed)
        for s, w in zip(rest, correction):
            w = surface.reduce(w, on_unsolved="ignore")
            if not w.is_zero:
                vector[s] = w
        # verify the lifted row closes weakly over every remaining direction
        ok = True
        for t in remaining:
            acc = ZERO
            for s, vs in vector.items():
                acc = acc + const_poly(
                    sign(p_phi, active[t].parity, active[s].parity)) \
                    * delta[s][t] * vs
            if not surface.reduce(acc, on_unsolved="ignore").is_zero:
                ok = False
                break
        if ok:
            return pivot, vector
    return None


def run_dirac(legres, max_rounds=None):
    """Iterate consistency to closure, then classify and invert.

    Terminates because every round either adds an independent constraint
    (bounded by the phase-space dimension) or determines a multiplier.
    """
    model = legres.model
    basis = model.phase_basis()
    analysis = DiracAnalysis(model=model, basis=basis, h0=legres.h0, hp=legres.h0)
    order0 = 10 ** 6
    for k, (q, expr) in enumerate(legres.primary_constraints()):
        rec = ConstraintRecord(
            name=f"Phi{k + 1}",
            expr=expr,
            stage=0,
            solved=try_solve(expr, basis),
            coordinate=q,
        )
        analysis.records.append(rec)
        v = Generator(f"v_{q.name}", q.parity, Kind.AUXILIARY, q.index, order0 + k)
        analysis.multiplier_symbols[q] = v
        analysis.multipliers[q] = None
        analysis.hp = analysis.hp + expr * gen_poly(v)

    if max_rounds is None:
        max_rounds = 4 * len(basis.pairs) + 8
    symbols = list(analysis.multiplier_symbols.values())
    stage = 0
    for _ in range(max_rounds):
        stage += 1
        changed = False
        outcomes = consistency_step(analysis, legres.h0, basis)
        mult_rows = [r for _, kind, r in outcomes if kind == "multiplier"]
        candidates = [r for _, kind, r in outcomes if kind == "new"]
        if mult_rows:
            solved, leftovers = _solve_multiplier_rows(
                mult_rows, symbols, analysis.surface)
            for q, v in analysis.multiplier_symbols.items():
                if v in solved and analysis.multipliers[q] != solved[v]:
                    analysis.multipliers[q] = solved[v]
                    changed = True
            candidates.extend(leftovers)
        for expr in candidates:
            expr = analysis.surface.reduce(expr, on_unsolved="ignore")
            if expr.is_zero:
                continue
            if expr.is_constant:
                raise Inconsistent(f"consistency yields the constant {expr}")
            rec = ConstraintRecord(
                name=f"Phi{len(analysis.records) + 1}",
                expr=expr,
                stage=stage,
                solved=try_solve(expr, basis),
                origin="consistency",
            )
            analysis.records.append(rec)
            changed = True
        if not changed:
            break
    else:
        raise Inconsistent("consistency loop failed to close")

    delta = constraint_matrix(analysis.active(), basis, analysis.surface)
    new_records = first_class_recombination(delta, analysis.records, basis)
    analysis.records.extend(new_records)
    active = analysis.active()
    analysis.delta = constraint_matrix(active, basis, analysis.surface)
    analysis.second_class = tuple(
        i for i, rec in enumerate(active) if rec.cls == "second")
    if analysis.second_class:
        block = [[analysis.delta[i][j] for j in analysis.second_class]
                 for i in analysis.second_class]
        analysis.delta_inverse = invert_supermatrix(block)
    return analysis


def dirac_bracket(f, g, analysis, basis=None):
    """{F,G}_D = {F,G} - {F,Phi_s} (Delta^-1)_st {Phi_t,G}, weakly reduced."""
    basis = basis or analysis.basis
    second = analysis.second_class_records()
    left = [berezin(f, rec.expr, basis) for rec in second]
    right = [berezin(rec.expr, g, basis) for rec in second]
    return _dirac_correct(berezin(f, g, basis), left, right, analysis)


def _dirac_correct(result, left, right, analysis):
    """Subtract left_s (Delta^-1)_st right_t from result and reduce weakly."""
    inv = analysis.delta_inverse
    for s, left_s in enumerate(left):
        if left_s.is_zero:
            continue
        for t, right_t in enumerate(right):
            if inv[s][t].is_zero or right_t.is_zero:
                continue
            result = result - left_s * inv[s][t] * right_t
    return analysis.surface.reduce(result, on_unsolved="ignore")


def dirac_bracket_table(analysis):
    """Nonvanishing {a, b}_D over pairs of basis generators, a before b.

    Generators run over coordinates then momenta.  The columns {x, Phi_s}
    and {Phi_t, x} are computed once per generator, not once per pair.
    """
    basis = analysis.basis
    second = analysis.second_class_records()
    gens = list(basis.coordinates) + list(basis.momenta)
    polys = [gen_poly(x) for x in gens]
    left = [[berezin(x, rec.expr, basis) for rec in second] for x in polys]
    right = [[berezin(rec.expr, x, basis) for rec in second] for x in polys]
    table = []
    for i, a in enumerate(gens):
        for j in range(i + 1, len(gens)):
            value = _dirac_correct(berezin(polys[i], polys[j], basis),
                                   left[i], right[j], analysis)
            if not value.is_zero:
                table.append((a, gens[j], value))
    return table

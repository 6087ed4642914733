"""Generalized Hamiltonian constraint algorithm.

Runs the consistency loop with undetermined multipliers, classifies
constraints through the bracket supermatrix, recombines first-class
directions from its null vectors, inverts the second-class block exactly
and provides Dirac brackets.
"""
from __future__ import annotations

from .brackets import berezin, generator_bracket, reversed_bracket
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
    invert_supermatrix,
    pivot_inverse,
    solve_left,
    solve_linear_rows,
)
from .superalgebra import (
    Generator,
    Kind,
    ONE,
    Parity,
    SuperPoly,
    ZERO,
    as_poly,
    contains,
    gen_poly,
    gradient,
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
    "first_class_recombination",
    "invert_supermatrix",
    "run_dirac",
    "weak_reduce",
]


class ConstraintRecord:
    """One constraint with its stage, class and solved form when available."""

    __slots__ = ("name", "expr", "stage", "cls", "solved", "coordinate", "origin",
                 "superseded")

    def __init__(self, name, expr, stage, cls="undetermined", solved=None,
                 coordinate=None, origin="primary", superseded=False):
        parity_of(expr)
        self.name: str = name
        self.expr: SuperPoly = expr
        self.stage: int = stage
        self.cls: str = cls  # "first" | "second" | "undetermined"
        self.solved: tuple[Generator, SuperPoly] | None = solved
        self.coordinate: Generator | None = coordinate
        self.origin: str = origin  # "primary" | "consistency" | "recombination"
        self.superseded: bool = superseded

    @property
    def parity(self):
        return parity_of(self.expr)


def try_solve(expr, basis):
    """Attempt to isolate one canonical variable with body-invertible coefficient.

    Momenta are preferred over coordinates; the first candidate in basis
    order wins, so solved forms are deterministic.
    """
    candidates = list(basis.momenta) + list(basis.coordinates)
    grad = gradient(expr, False)
    for g in candidates:
        a = grad.get(g)
        if a is None:
            continue
        inv = None if contains(a, g) else pivot_inverse(a)
        if inv is None:
            continue
        rest = expr - a * gen_poly(g)
        if contains(rest, g):
            continue
        value = -(inv * rest)
        if not value.is_zero and parity_of(value) != g.parity:
            continue
        if substitute(expr, {g: value}).is_zero:
            return g, value
    return None


class Surface:
    """The constraint surface of active constraints, built once and reused.

    Each constraint has an `expr` and a `solved` form or None: the active
    records of a Dirac analysis, or a Hamilton-Jacobi family.  The surface
    holds their solved-form bindings, closed once so that no bound value
    contains a bound generator, the nonzero residuals they leave under those
    bindings, in constraint order, and the span over those residuals.  A
    surface is the extension of the empty one by its constraints; when
    constraints are only appended, `extend` grows it, and otherwise build a
    new one.
    """

    __slots__ = ("constraints", "bindings", "residuals", "span")

    def __init__(self, constraints):
        self._grow((), {}, [], constraints)

    def extend(self, constraints):
        """The surface of this one's constraints followed by constraints.

        The closed bindings are kept when constraints bring no solved form;
        otherwise the old closed ones and the new raw ones are closed
        together, which changes only the values that hold a newly bound
        generator.  Every old residual that holds none is kept, the others
        are taken to the new fixpoint, and the new residuals follow.  The
        closed bindings of an acyclic set are unique and substitution is a
        ring homomorphism, so this is the surface a fresh build on all the
        constraints gives, residuals and their order included.  A new solved
        form for a generator already bound replaces it in a fresh build, so
        then the surface is built afresh.
        """
        surface = Surface.__new__(Surface)
        if any(c.solved and c.solved[0] in self.bindings for c in constraints):
            surface._grow((), {}, [], self.constraints + tuple(constraints))
        else:
            surface._grow(self.constraints, self.bindings, self.residuals,
                          constraints)
        return surface

    def _grow(self, old, bindings, residuals, constraints):
        """Set this surface to that of old, whose closed bindings and residuals
        are given, followed by constraints."""
        self.constraints = (*old, *constraints)
        solved = {c.solved[0]: c.solved[1] for c in constraints if c.solved}
        if solved:
            self.bindings = _close({**bindings, **solved})
            residuals = [r for r in map(self._to_fixpoint, residuals)
                         if not r.is_zero]
        else:
            self.bindings = bindings
            residuals = list(residuals)
        # the residuals still vanish on the surface, and they are what
        # unsolvable constraints (secondaries, recombinations) reduce to
        for c in constraints:
            residual = self._to_fixpoint(c.expr)
            if not residual.is_zero:
                residuals.append(residual)
        self.residuals = residuals
        self.span = SpanReducer()
        for residual in residuals:
            self.span.add(residual)

    def _to_fixpoint(self, expr):
        # substitution is a ring homomorphism, so one pass of the closed
        # bindings gives the fixpoint of the raw ones
        if not _holds_bound(expr, self.bindings):
            return expr
        return substitute(expr, self.bindings)

    def reduce(self, p):
        """Canonical representative of p on the surface.

        Substitutes the closed solved forms in one pass (none when p holds
        no bound generator), then eliminates exact constant-coefficient
        combinations of the constraint residuals.  A constraint without a
        solved form acts only through its residual in the span.  A zero p
        is returned at once: most reductions of an analysis are of zero.
        """
        p = as_poly(p)
        if p.is_zero:
            return p
        return self.span.reduce(self._to_fixpoint(p))


def _holds_bound(expr, bindings):
    return any(g in bindings for m in expr.terms for g, _ in m.factors)


def _close(bindings):
    """Substitute bindings into their own values until no value holds a
    bound generator; raises UnsolvableConstraint when they do not resolve.

    Each round substitutes the current values into themselves, which
    doubles the depth of the chains they resolve, so an acyclic set closes
    in about log2(len(bindings)) rounds.
    """
    for _ in range(len(bindings) + 2):
        pending = [g for g, v in bindings.items() if _holds_bound(v, bindings)]
        if not pending:
            return bindings
        bindings = {**bindings,
                    **{g: substitute(bindings[g], bindings) for g in pending}}
    raise UnsolvableConstraint("solved forms do not reach a fixpoint")


def weak_reduce(p, records):
    """p reduced on the surface of the records not superseded (see Surface)."""
    return Surface([rec for rec in records if not rec.superseded]).reduce(p)


def constraint_matrix(constraints, basis, surface):
    """Delta_st = {Phi_s, Phi_t}, weakly reduced on surface.

    Entries below the diagonal follow by graded antisymmetry."""
    exprs = [c.expr if isinstance(c, ConstraintRecord) else as_poly(c)
             for c in constraints]
    parities = [parity_of(e) for e in exprs]
    delta = [[None] * len(exprs) for _ in exprs]
    for s, es in enumerate(exprs):
        for t in range(s, len(exprs)):
            value = surface.reduce(berezin(es, exprs[t], basis))
            delta[t][s] = reversed_bracket(value, parities[s], parities[t])
            delta[s][t] = value
    return delta


class DiracAnalysis:
    """Outcome of the full constraint algorithm for one model."""

    __slots__ = ("model", "basis", "h0", "hp", "records", "multipliers",
                 "multiplier_symbols", "_surface", "_surface_key", "_derived")

    def __init__(self, model, basis, h0, hp, records=None, multipliers=None,
                 multiplier_symbols=None):
        self.model = model
        self.basis = basis
        self.h0: SuperPoly = h0
        self.hp: SuperPoly = hp
        self.records: list[ConstraintRecord] = [] if records is None else records
        # coordinate -> its multiplier (None until determined), and its symbol
        self.multipliers = {} if multipliers is None else multipliers
        self.multiplier_symbols = (
            {} if multiplier_symbols is None else multiplier_symbols)
        self._surface: Surface | None = None
        self._surface_key: tuple = ()
        # [surface, classes, delta, second-class rows, Delta^-1, bracket table]
        self._derived: list = [None] * 6

    @property
    def surface(self):
        """The constraint surface of the active records.

        Built on first use and kept while the active records stay as they
        are.  When records were only added, the surface of the first active
        ones, on which it was built, is extended by the others; when one of
        those was edited or superseded, as a recombination supersedes one,
        it is built afresh.  So it always matches records.
        """
        active = self.active()
        key = tuple((rec.expr, rec.solved) for rec in active)
        built = self._surface_key
        if self._surface is None or key[:len(built)] != built:
            self._surface = Surface(active)
        elif len(key) > len(built):
            self._surface = self._surface.extend(active[len(built):])
        self._surface_key = key
        return self._surface

    def _derived_state(self):
        """[surface, classes, delta, second-class rows, Delta^-1, table].

        delta is built again only when the surface is built or extended;
        the rest is derived again whenever the active records' classes
        change too (the table on first read), so all of it always matches
        the records.
        """
        surface = self.surface
        state = self._derived
        if state[0] is not surface:
            delta = constraint_matrix(self.active(), self.basis, surface)
            state = self._derived = [surface, None, delta, None, None, None]
        classes = tuple(rec.cls for rec in self.active())
        if state[1] != classes:
            second = tuple(i for i, cls in enumerate(classes) if cls == "second")
            block = [[state[2][i][j] for j in second] for i in second]
            state[1:] = [classes, state[2], second, invert_supermatrix(block), None]
        return state

    @property
    def delta(self):
        return self._derived_state()[2]

    @property
    def second_class(self):
        return self._derived_state()[3]

    @property
    def delta_inverse(self):
        return self._derived_state()[4]

    @property
    def bracket_table(self):
        """Nonvanishing {a, b}_D over pairs of basis generators, a before b.

        Generators run over coordinates then momenta.  {x, Phi_s} is
        `generator_bracket`, a kept gradient of Phi_s, taken once per
        generator, not once per pair, and gives {Phi_t, x} by graded
        antisymmetry.  {a, b} vanishes unless b is the momentum of a, when
        it is 1 for either parity, and the correction unless both
        {a, Phi_s} and {b, Phi_t} hold a nonzero entry, so only those pairs
        are visited.  The table is computed on first read and kept with the
        rest of the derived state.
        """
        state = self._derived_state()
        if state[5] is not None:
            return state[5]
        surface, inverse = state[0], state[4]
        basis = self.basis
        second = self.second_class_records()
        gens = list(basis.coordinates) + list(basis.momenta)
        left = [[generator_bracket(x, rec.expr, basis) for rec in second]
                for x in gens]
        right = [[reversed_bracket(v, x.parity, rec.parity)
                  for v, rec in zip(row, second)] for row, x in zip(left, gens)]
        coupled = [any(not v.is_zero for v in row) for row in left]
        momentum = basis.momentum
        table = []
        for i, a in enumerate(gens):
            conjugate = momentum.get(a)
            for j in range(i + 1, len(gens)):
                if gens[j] is conjugate:
                    raw = ONE
                elif coupled[i] and coupled[j]:
                    raw = ZERO
                else:
                    continue
                value = _dirac_correct(raw, left[i], right[j], inverse, surface)
                if not value.is_zero:
                    table.append((a, gens[j], value))
        state[5] = table
        return table

    def active(self):
        return [rec for rec in self.records if not rec.superseded]

    def second_class_records(self):
        active = self.active()
        return [active[i] for i in self.second_class]


def _multiplier_terms(p, symbols):
    return [v for v in symbols if contains(p, v)]


def consistency_step(analysis):
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
        r = berezin(rec.expr, analysis.hp, analysis.basis)
        if solved_mults:
            r = substitute(r, solved_mults)
        r = surface.reduce(r)
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
    prepared = []
    for i, r in enumerate(rows):
        grad = gradient(r, False)
        coeffs = {}
        for v in symbols:
            a = grad.get(v)
            if a is not None:
                if any(contains(a, w) for w in symbols):
                    raise UnsupportedLagrangian(
                        f"multiplier {v} enters a consistency row nonlinearly")
                coeffs[v] = a
        const = substitute(r, {v: ZERO for v in coeffs})
        prepared.append((i, const, coeffs))
    solved, _, residuals, implicit = solve_linear_rows(
        prepared, symbols, surface.reduce)
    if implicit:
        raise UnsupportedLagrangian(
            "multiplier system has no body-invertible pivot")
    return solved, [expr for _, expr in residuals]


def _classification_sign(p_phi, p_t, p_s):
    """Sign of Delta_st v_s inside {sum_s Phi_s v_s, Phi_t}, weakly."""
    return -1 if (p_phi * p_t + p_t * p_s) & 1 else 1


def first_class_recombination(delta, records, basis, surface):
    """Classify records using delta; recombine null directions into first class.

    Each round takes one body null space of the remaining block, which is
    block-diagonal by parity (a mixed-parity bracket has no body); an empty
    one leaves the rest second class.  The first even null vector, else the
    first odd one, is lifted with exact soul corrections, reduced on the
    surface of records; a lift that fails to close leaves the participants
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
        # body equations: sum_s body(Delta[s][t]) v0_s = 0 for all t
        null = body_nullspace([[delta[s][t].body for s in remaining]
                               for t in remaining])
        if not null:
            for i in remaining:
                active[i].cls = "second"
            break
        # one null direction is lifted at a time; the free columns of the
        # others get no correction, or the block the lift solves is singular
        free = {remaining[fc] for fc in null}
        lifted = None
        for target in (Parity.EVEN, Parity.ODD):
            fc = next((fc for fc in null if active[remaining[fc]].parity == target),
                      None)
            if fc is None:
                continue
            weights = {remaining[k]: c for k, c in enumerate(null[fc]) if not c.is_zero}
            lifted = _lift_null_vector(delta, active, remaining, weights, target,
                                       surface, free - {remaining[fc]})
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


def _lift_null_vector(delta, active, remaining, weights, p_phi, surface, held):
    """Extend a body null vector with soul corrections; None when it fails.

    weights maps each record of the vector's support to its body weight.
    The records in held get no correction.
    """
    # signed[s][t] is Delta_st with the sign it takes in the closure condition
    signed = {s: {t: delta[s][t] if _classification_sign(
        p_phi, active[t].parity, active[s].parity) > 0 else -delta[s][t]
        for t in remaining} for s in remaining}
    for pivot in weights:
        rest = [i for i in remaining if i != pivot and i not in held]
        if not rest:
            continue
        block = [[signed[s][t] for s in rest] for t in rest]
        rhs = []
        for t in rest:
            acc = ZERO
            for s, w in weights.items():
                acc = acc + signed[s][t] * w
            rhs.append(-acc)
        try:
            correction = solve_left(block, rhs)
        except (SingularBody, NonNumericBody):
            continue
        # Coefficient weights on the support, poly corrections on the rest
        vector = dict(weights)
        for s, w in zip(rest, correction):
            w = surface.reduce(w)
            if not w.is_zero:
                vector[s] = w
        # verify the lifted row closes weakly over every remaining direction
        ok = True
        for t in remaining:
            acc = ZERO
            for s, vs in vector.items():
                acc = acc + signed[s][t] * vs
            if not surface.reduce(acc).is_zero:
                ok = False
                break
        if ok:
            return pivot, vector
    return None


def run_dirac(legres):
    """Iterate consistency to closure, then classify and invert.

    Terminates because every round either adds an independent constraint
    (bounded by the phase-space dimension) or determines a multiplier.
    """
    model = legres.model
    basis = model.phase_basis()
    analysis = DiracAnalysis(model=model, basis=basis, h0=legres.h0, hp=legres.h0)
    order0 = 10 ** 6
    for k, (q, expr) in enumerate(legres.primary.items()):
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

    max_rounds = 4 * len(basis.pairs) + 8
    symbols = list(analysis.multiplier_symbols.values())
    stage = 0
    for _ in range(max_rounds):
        stage += 1
        changed = False
        outcomes = consistency_step(analysis)
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
            expr = analysis.surface.reduce(expr)
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

    new_records = first_class_recombination(analysis.delta, analysis.records, basis,
                                            analysis.surface)
    analysis.records.extend(new_records)
    analysis._derived_state()  # so a singular second-class block fails here
    return analysis


def dirac_bracket(f, g, analysis):
    """{F,G}_D = {F,G} - {F,Phi_s} (Delta^-1)_st {Phi_t,G}, weakly reduced."""
    basis = analysis.basis
    second = analysis.second_class_records()
    left = [berezin(f, rec.expr, basis) for rec in second]
    right = [berezin(rec.expr, g, basis) for rec in second]
    return _dirac_correct(berezin(f, g, basis), left, right,
                          analysis.delta_inverse, analysis.surface)


def _dirac_correct(result, left, right, inv, surface):
    """Subtract left_s (Delta^-1)_st right_t from result, reduce on surface."""
    for s, left_s in enumerate(left):
        if left_s.is_zero:
            continue
        for t, right_t in enumerate(right):
            if inv[s][t].is_zero or right_t.is_zero:
                continue
            result = result - left_s * inv[s][t] * right_t
    return surface.reduce(result)


"""Hamilton-Jacobi construction for singular models.

Builds the family of extended Hamiltonians H'_alpha over the enlarged
phase space (the time pair (t0, P0) plus the declared pairs), derives the
multi-parameter total differential equations, runs the integrability
closure loop and cross-checks its outcome against the constraint
algorithm.
"""
from __future__ import annotations

from .brackets import berezin, generator_bracket, reversed_bracket
from .errors import ClosureDiverged, Inconsistent
from .dirac import Surface, try_solve
from .smatrix import solve_linear_rows
from .superalgebra import (
    Generator,
    Kind,
    Parity,
    SuperPoly,
    gen_poly,
    monic,
    parity_of,
)

_T0_ORDER = 10 ** 7


class HPrime:
    """One member of the Hamilton-Jacobi family."""

    __slots__ = ("label", "expr", "param", "solved")

    def __init__(self, label, expr, param, solved=None):
        self.label: str = label
        self.expr: SuperPoly = expr
        self.param = param  # evolution parameter; None for a member found by closure
        self.solved: tuple[Generator, SuperPoly] | None = solved

    @property
    def parity(self):
        return parity_of(self.expr)


class HJSystem:
    """The family H'_alpha with its parameters over the extended basis."""

    __slots__ = ("legres", "basis", "t0", "p0", "parameters", "hamiltonians")

    def __init__(self, legres, basis, t0, p0, parameters, hamiltonians):
        self.legres = legres
        self.basis = basis
        self.t0: Generator = t0
        self.p0: Generator = p0
        self.parameters: tuple[Generator, ...] = parameters
        self.hamiltonians: dict[Generator, SuperPoly] = hamiltonians

    def label_of(self, param):
        return f"H'{self.parameters.index(param)}"

    def family(self):
        out = []
        for param in self.parameters:
            expr = self.hamiltonians[param]
            out.append(HPrime(self.label_of(param), expr, param,
                              try_solve(expr, self.basis)))
        return out


def build_hj_system(legres):
    """Assemble H'_0 = P0 + H0; H'_alpha is the Legendre primary Phi_alpha itself."""
    t0 = Generator("t0", Parity.EVEN, Kind.COORDINATE, None, _T0_ORDER)
    p0 = Generator("P0", Parity.EVEN, Kind.MOMENTUM, None, _T0_ORDER)
    basis = legres.model.phase_basis().extend([(t0, p0)])
    hamiltonians = {t0: gen_poly(p0) + legres.h0}
    parity_of(hamiltonians[t0])
    hamiltonians.update(legres.primary)
    return HJSystem(legres, basis, t0, p0, tuple(hamiltonians), hamiltonians)


class TotalDifferentialSystem:
    """Coefficients of dt^alpha in dq, dp and dZ along the characteristics."""

    __slots__ = ("system", "dq", "dp", "dz")

    def __init__(self, system, dq, dp, dz):
        self.system: HJSystem = system
        self.dq: dict[tuple[Generator, Generator], SuperPoly] = dq
        self.dp: dict[tuple[Generator, Generator], SuperPoly] = dp
        self.dz: dict[Generator, SuperPoly] = dz


def total_differentials(sys):
    """dq^i = {q^i, H'_a} dt^a, dp_i = {p_i, H'_a} dt^a, dZ = (p_i dq^i - H_a) dt^a.

    Each coefficient is `brackets.generator_bracket`: {q^i, H'_a} is the
    kept left gradient of H'_a at p_i, and its kept right gradient at q^i
    is {H'_a, p_i}, reversed into {p_i, H'_a}.  dZ sums over the
    expressible coordinates."""
    dq = {}
    dp = {}
    dz = {}
    legres = sys.legres
    momentum = legres.model.momentum
    basis = sys.basis
    for param in sys.parameters:
        h = sys.hamiltonians[param]
        for q, p in basis.pairs:
            dq[(q, param)] = generator_bracket(q, h, basis)
            dp[(p, param)] = generator_bracket(p, h, basis)
        acc = -(legres.h0 if param is sys.t0 else legres.primary_h[param])
        for q in legres.expressible_coords:
            acc = acc + gen_poly(momentum(q)) * dq[(q, param)]
        dz[param] = acc
    return TotalDifferentialSystem(sys, dq, dp, dz)


class ClosureOutcome:
    __slots__ = ("kind", "detail")

    def __init__(self, kind, detail=""):
        self.kind = kind  # strict_zero, weak_zero, new_hamiltonian or dt_relation
        self.detail: str = detail


class IntegrabilityReport:
    __slots__ = ("system", "family", "added", "outcomes", "dt_relations", "matrix_raw",
                 "matrix_reduced", "rounds", "surface")

    def __init__(self, system, family, added, outcomes, dt_relations, matrix_raw,
                 matrix_reduced, rounds, surface):
        self.system: HJSystem = system
        self.family: list[HPrime] = family
        self.added: list[HPrime] = added
        self.outcomes: dict[str, ClosureOutcome] = outcomes
        self.dt_relations: dict[Generator, SuperPoly] = dt_relations
        self.matrix_raw = matrix_raw
        self.matrix_reduced = matrix_reduced
        self.rounds: int = rounds
        self.surface = surface  # of the closed family, for callers that reduce on it

    @property
    def strictly_integrable(self):
        return all(entry.is_zero for entry in self.matrix_raw.values())


def closure_loop(sys, max_rounds=32):
    """Iterate dH'_mu = {H'_mu, H'_alpha} dt^alpha to closure.

    Rows that survive reduction either contribute a new family member
    (single surviving differential dt^0) or relations among the dt^alpha;
    both are folded back in until every row vanishes.  A row that was a
    relation's pivot is then a dt relation, and every other row keeps its
    zero kind.  If no relation row can be solved, each is marked an
    implicit dt relation and the loop stops without zero kinds.
    """
    family = sys.family()
    added = []
    outcomes = {}
    relations = {}
    pivot_history = set()
    params = sys.parameters
    t0 = sys.t0
    # extended by every member that joins the family
    surface = Surface(family)
    # {H'_b, H'_a} by (label_b, label_a): a bracket never changes between
    # rounds, so each pair is computed once; graded antisymmetry gives the other
    brackets = {}

    def bracket(mb, ma):
        key = (mb.label, ma.label)
        if key not in brackets:
            twin = brackets.get(key[::-1])
            if twin is None:
                brackets[key] = berezin(mb.expr, ma.expr, sys.basis)
            else:
                brackets[key] = reversed_bracket(twin, ma.parity, mb.parity)
        return brackets[key]

    # the first members are the parameters' H'_alpha, in parameter order
    param_members = family[:len(params)]
    for round_no in range(1, max_rounds + 1):
        new_members = []
        relation_rows = []
        zeros = {}  # the kind of each row that vanishes
        for member in family:
            coeffs = {param: bracket(member, ma)
                      for param, ma in zip(params, param_members)}
            if all(c.is_zero for c in coeffs.values()):
                zeros[member.label] = "strict_zero"
                continue
            eff0 = coeffs[t0]
            live = {}
            for param in params[1:]:
                c = coeffs[param]
                if param in relations:
                    eff0 = eff0 + c * relations[param]
                else:
                    live[param] = surface.reduce(c)
            eff0 = surface.reduce(eff0)
            live = {p: c for p, c in live.items() if not c.is_zero}
            if eff0.is_zero and not live:
                zeros[member.label] = "weak_zero"
            elif not live:
                if eff0.is_constant:
                    raise Inconsistent(
                        f"d{member.label} reduces to the constant {eff0}")
                new_members.append((member.label, eff0))
            else:
                relation_rows.append((member.label, eff0, live))
        if new_members:
            for source, expr in new_members:
                candidate = monic(surface.reduce(expr))
                if candidate.is_zero:
                    continue
                label = f"H'{len(family)}"
                member = HPrime(label, candidate, None,
                                try_solve(candidate, sys.basis))
                family.append(member)
                added.append(member)
                surface = surface.extend([member])
                outcomes[source] = ClosureOutcome(
                    "new_hamiltonian", detail=f"adds {label}")
            continue
        if relation_rows:
            unknowns = [p for p in params[1:] if p not in relations]
            new_rel, pivots, _, implicit = solve_linear_rows(
                relation_rows, unknowns, surface.reduce)
            if new_rel:
                relations.update(new_rel)
                pivot_history |= pivots
                continue
            # nothing solvable: record implicit rows and stop
            for label, _, _ in implicit:
                outcomes.setdefault(label, ClosureOutcome("dt_relation", detail="implicit"))
            zeros = {}
        break
    else:
        raise ClosureDiverged(f"closure loop exceeded {max_rounds} rounds")
    for member in family:
        if member.label in pivot_history:
            outcomes.setdefault(member.label, ClosureOutcome("dt_relation"))
    for label, kind in zeros.items():
        outcomes.setdefault(label, ClosureOutcome(kind))
    raw = {(mb.label, ma.label): bracket(mb, ma)
           for mb in family for ma in family}
    return IntegrabilityReport(
        system=sys,
        family=family,
        added=added,
        outcomes=outcomes,
        dt_relations=relations,
        matrix_raw=raw,
        matrix_reduced={key: surface.reduce(entry) for key, entry in raw.items()},
        rounds=round_no,
        surface=surface,
    )


class CorrespondenceReport:
    __slots__ = ("verdict", "matched", "mismatched")

    def __init__(self, verdict, matched, mismatched):
        self.verdict: str = verdict
        self.matched = matched
        self.mismatched = mismatched

    @property
    def equivalent(self):
        return self.verdict == "equivalent"


def cross_check_dirac(hj_report, analysis):
    """Match the two analyses item by item.

    Secondary constraints must pair with added family members (up to a
    constant factor), determined multipliers with dt relations (equal on
    the surface), and the two constraint surfaces must reduce into each
    other.  A mismatch is reported in the verdict, never raised.
    """
    matched = []
    mismatched = []
    sys = hj_report.system
    family_surface = hj_report.surface
    dirac_surface = analysis.surface

    secondaries = [rec for rec in analysis.records if rec.origin == "consistency"]
    added = list(hj_report.added)
    used = set()
    for rec in secondaries:
        target = monic(rec.expr)
        hit = next((m for m in added
                    if m.label not in used and monic(m.expr) == target), None)
        if hit is None:
            mismatched.append(f"secondary {rec.name} has no added member")
        else:
            used.add(hit.label)
            matched.append(f"{rec.name} <-> {hit.label}")
    for m in added:
        if m.label not in used:
            mismatched.append(f"added {m.label} has no secondary constraint")

    det = {q: v for q, v in analysis.multipliers.items() if v is not None}
    rels = dict(hj_report.dt_relations)
    for q, v in det.items():
        r = rels.pop(q, None)
        if r is None:
            mismatched.append(f"multiplier for {q} has no dt relation")
            continue
        diff = family_surface.reduce(dirac_surface.reduce(v - r))
        if diff.is_zero:
            matched.append(f"multiplier {q} <-> dt relation")
        else:
            mismatched.append(f"multiplier for {q} differs from dt relation: {diff}")
    for q in rels:
        mismatched.append(f"dt relation for {q} has no determined multiplier")

    for rec in analysis.active():
        residual = family_surface.reduce(rec.expr)
        if not residual.is_zero:
            mismatched.append(f"{rec.name} not on the HJ surface: {residual}")
    for m in hj_report.family:
        if m.param is sys.t0:
            continue
        residual = dirac_surface.reduce(m.expr)
        if not residual.is_zero:
            mismatched.append(f"{m.label} not on the constraint surface: {residual}")

    verdict = "equivalent" if not mismatched else "mismatch"
    return CorrespondenceReport(verdict, matched, mismatched)

"""Hamilton-Jacobi construction for singular models.

Builds the family of extended Hamiltonians H'_alpha over the enlarged
phase space (the time pair (t0, P0) plus the declared pairs), derives the
multi-parameter total differential equations, runs the integrability
closure loop and cross-checks its outcome against the constraint
algorithm.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .brackets import berezin
from .errors import ClosureDiverged, CrossCheckMismatch, Inconsistent
from .dirac import ConstraintRecord, Surface, try_solve
from .smatrix import solve_linear_rows
from .superalgebra import (
    Generator,
    Kind,
    Parity,
    SuperPoly,
    derive_right,
    gen_poly,
    monic,
    parity_of,
)

_T0_ORDER = 10 ** 7


@dataclass
class HPrime:
    """One member of the Hamilton-Jacobi family."""

    label: str
    expr: SuperPoly
    param: Generator | None  # evolution parameter; None for members found by closure
    solved: tuple[Generator, SuperPoly] | None = None

    @property
    def parity(self):
        return parity_of(self.expr)


@dataclass
class HJSystem:
    """The family H'_alpha with its parameters over the extended basis."""

    model: object
    legres: object
    basis: object
    t0: Generator
    p0: Generator
    parameters: tuple[Generator, ...]
    hamiltonians: dict[Generator, SuperPoly]
    h_parts: dict[Generator, SuperPoly]

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
    """Assemble H'_0 = P0 + H0 and H'_alpha = P_alpha + H_alpha."""
    model = legres.model
    t0 = Generator("t0", Parity.EVEN, Kind.COORDINATE, None, _T0_ORDER)
    p0 = Generator("P0", Parity.EVEN, Kind.MOMENTUM, None, _T0_ORDER)
    basis = model.phase_basis().extend([(t0, p0)])
    parameters = [t0]
    hamiltonians = {t0: gen_poly(p0) + legres.h0}
    h_parts = {t0: legres.h0}
    for q in legres.unexpressed_coords:
        parameters.append(q)
        h_alpha = legres.primary_h[q]
        hamiltonians[q] = gen_poly(model.momentum(q)) + h_alpha
        h_parts[q] = h_alpha
    for expr in hamiltonians.values():
        parity_of(expr)
    return HJSystem(model, legres, basis, t0, p0, tuple(parameters),
                    hamiltonians, h_parts)


@dataclass
class TotalDifferentialSystem:
    """Coefficients of dt^alpha in dq, dp and dZ along the characteristics."""

    system: HJSystem
    dq: dict[tuple[Generator, Generator], SuperPoly]
    dp: dict[tuple[Generator, Generator], SuperPoly]
    dz: dict[Generator, SuperPoly]

    @property
    def coordinates(self):
        return self.system.basis.coordinates

    @property
    def momenta(self):
        return self.system.basis.momenta


def total_differentials(sys):
    """dq^i = (-1)^{P_i + P_i P_a} d_r H'_a/dp_i dt^a and its dp, dZ partners."""
    dq = {}
    dp = {}
    dz = {}
    model = sys.model
    expressible = sys.legres.expressible_coords
    for param in sys.parameters:
        hp = sys.hamiltonians[param]
        p_a = param.parity
        for q, p in sys.basis.pairs:
            p_i = q.parity
            cq = derive_right(hp, p)
            if (p_i + p_i * p_a) & 1:
                cq = -cq
            dq[(q, param)] = cq
            cp = derive_right(hp, q)
            if not (p_i * p_a) & 1:
                cp = -cp
            dp[(p, param)] = cp
        acc = -sys.h_parts[param]
        for q in expressible:
            mom = model.momentum(q)
            term = gen_poly(mom) * derive_right(hp, mom)
            if (q.parity + q.parity * p_a) & 1:
                term = -term
            acc = acc + term
        dz[param] = acc
    return TotalDifferentialSystem(sys, dq, dp, dz)


def apply_X(sys, alpha, f):
    """The flow operator of parameter alpha applied to f: {f, H'_alpha}."""
    if isinstance(alpha, int):
        alpha = sys.parameters[alpha]
    return berezin(f, sys.hamiltonians[alpha], sys.basis)


def _family_surface(family):
    return Surface([
        ConstraintRecord(m.label, m.expr, 0, solved=m.solved)
        for m in family
    ])


def integrability_matrix(sys, family=None):
    """All pairwise {H'_b, H'_a}, raw and weakly reduced."""
    family = family or sys.family()
    surface = _family_surface(family)
    raw = {}
    reduced = {}
    for mb in family:
        for ma in family:
            entry = berezin(mb.expr, ma.expr, sys.basis)
            raw[(mb.label, ma.label)] = entry
            reduced[(mb.label, ma.label)] = surface.reduce(
                entry, on_unsolved="ignore")
    return raw, reduced


@dataclass
class ClosureOutcome:
    kind: str  # "strict_zero" | "weak_zero" | "new_hamiltonian" | "dt_relation"
    detail: str = ""
    relations: dict = field(default_factory=dict)


@dataclass
class IntegrabilityReport:
    system: HJSystem
    family: list[HPrime]
    added: list[HPrime]
    outcomes: dict[str, ClosureOutcome]
    dt_relations: dict[Generator, SuperPoly]
    matrix_raw: dict
    matrix_reduced: dict
    rounds: int

    @property
    def strictly_integrable(self):
        return all(entry.is_zero for entry in self.matrix_raw.values())

    def closed_invariants(self):
        """Expressions preserved along any admissible flow."""
        return [(m.label, m.expr) for m in self.family]


def _solve_relation_rows(rows, unknowns, surface):
    """Eliminate free differentials dt^beta = r_beta dt^0 from closure rows.

    rows: list of (label, eff0, {param: coeff}).  Returns the relation map,
    the labels whose rows produced a pivot, and rows left implicit.
    """

    def reduce_fn(p):
        return surface.reduce(p, on_unsolved="ignore")

    relations, pivot_labels, _, implicit = solve_linear_rows(
        rows, unknowns, reduce_fn)
    return relations, pivot_labels, implicit


def closure_loop(sys, max_rounds=32):
    """Iterate dH'_mu = {H'_mu, H'_alpha} dt^alpha to closure.

    Rows that survive reduction either contribute a new family member
    (single surviving differential dt^0) or relations among the dt^alpha;
    both are folded back in until every row closes.
    """
    family = sys.family()
    added = []
    outcomes = {}
    relations = {}
    pivot_history = set()
    params = sys.parameters
    t0 = sys.t0
    # rebuilt whenever a member joins the family
    surface = _family_surface(family)
    for round_no in range(1, max_rounds + 1):
        new_members = []
        relation_rows = []
        statuses = {}
        for member in family:
            coeffs = {param: berezin(member.expr, sys.hamiltonians[param], sys.basis)
                      for param in params}
            if all(c.is_zero for c in coeffs.values()):
                statuses[member.label] = "strict_zero"
                continue
            eff0 = coeffs[t0]
            live = {}
            for param in params[1:]:
                c = coeffs[param]
                if param in relations:
                    eff0 = eff0 + c * relations[param]
                else:
                    live[param] = surface.reduce(c, on_unsolved="ignore")
            eff0 = surface.reduce(eff0, on_unsolved="ignore")
            live = {p: c for p, c in live.items() if not c.is_zero}
            if eff0.is_zero and not live:
                statuses[member.label] = "weak_zero"
            elif not live:
                if eff0.is_constant:
                    raise Inconsistent(
                        f"d{member.label} reduces to the constant {eff0}")
                new_members.append((member.label, eff0))
                statuses[member.label] = "pending_new"
            else:
                relation_rows.append((member.label, eff0, live))
                statuses[member.label] = "pending_relation"
        if new_members:
            for source, expr in new_members:
                candidate = monic(surface.reduce(expr, on_unsolved="ignore"))
                if candidate.is_zero:
                    continue
                label = f"H'{len(family)}"
                member = HPrime(label, candidate, None,
                                try_solve(candidate, sys.basis))
                family.append(member)
                added.append(member)
                surface = _family_surface(family)
                outcomes[source] = ClosureOutcome(
                    "new_hamiltonian", detail=f"adds {label}")
            continue
        if relation_rows:
            unknowns = [p for p in params[1:] if p not in relations]
            new_rel, pivots, implicit = _solve_relation_rows(
                relation_rows, unknowns, surface)
            if new_rel:
                relations.update(new_rel)
                pivot_history |= pivots
                continue
            # nothing solvable: record implicit rows and stop
            for label, eff0, live in implicit:
                outcomes.setdefault(label, ClosureOutcome(
                    "dt_relation", detail="implicit", relations=dict(live)))
            break
        # stable: finalize statuses
        for label, status in statuses.items():
            if label in outcomes:
                continue
            if label in pivot_history:
                outcomes[label] = ClosureOutcome("dt_relation")
            else:
                outcomes[label] = ClosureOutcome(status)
        break
    else:
        raise ClosureDiverged(f"closure loop exceeded {max_rounds} rounds")
    for label in pivot_history:
        if label not in outcomes or outcomes[label].kind in ("weak_zero", "strict_zero"):
            outcomes[label] = ClosureOutcome("dt_relation")
    raw, reduced = integrability_matrix(sys, family)
    return IntegrabilityReport(
        system=sys,
        family=family,
        added=added,
        outcomes=outcomes,
        dt_relations=relations,
        matrix_raw=raw,
        matrix_reduced=reduced,
        rounds=round_no,
    )


@dataclass
class CorrespondenceReport:
    verdict: str
    matched: list
    mismatched: list

    @property
    def equivalent(self):
        return self.verdict == "equivalent"


def cross_check_dirac(hj_report, analysis, strict=False):
    """Match the two analyses item by item.

    Secondary constraints must pair with added family members (up to a
    constant factor), determined multipliers with dt relations (equal on
    the surface), and the two constraint surfaces must reduce into each
    other.  With strict=True a mismatch raises CrossCheckMismatch.
    """
    matched = []
    mismatched = []
    sys = hj_report.system
    family_surface = _family_surface(hj_report.family)
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
        diff = dirac_surface.reduce(v - r, on_unsolved="ignore")
        diff = family_surface.reduce(diff, on_unsolved="ignore")
        if diff.is_zero:
            matched.append(f"multiplier {q} <-> dt relation")
        else:
            mismatched.append(f"multiplier for {q} differs from dt relation: {diff}")
    for q in rels:
        mismatched.append(f"dt relation for {q} has no determined multiplier")

    for rec in analysis.active():
        residual = family_surface.reduce(rec.expr, on_unsolved="ignore")
        if not residual.is_zero:
            mismatched.append(f"{rec.name} not on the HJ surface: {residual}")
    for m in hj_report.family:
        if m.param is sys.t0:
            continue
        residual = dirac_surface.reduce(m.expr, on_unsolved="ignore")
        if not residual.is_zero:
            mismatched.append(f"{m.label} not on the constraint surface: {residual}")

    verdict = "equivalent" if not mismatched else "mismatch"
    if strict and mismatched:
        raise CrossCheckMismatch(mismatched)
    return CorrespondenceReport(verdict, matched, mismatched)

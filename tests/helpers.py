"""Shared builders for the test models and randomized expressions."""
from __future__ import annotations

import pathlib
from dataclasses import dataclass
from fractions import Fraction

from supermech.brackets import PhaseBasis
from supermech.errors import UnsolvableConstraint
from supermech.legendre import ModelBuilder, analyze
from supermech.smatrix import SpanReducer
from supermech.superalgebra import (
    Coefficient,
    Generator,
    Kind,
    Parity,
    SuperPoly,
    C_I,
    as_poly,
    gen_poly,
    normalize,
    parity_of,
    substitute,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "supermech" / "fixtures"

HALF = Fraction(1, 2)
HALF_I = Coefficient(0, HALF)


def fixture_text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


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


# ------------------------------------------------------ reference reduction

def reference_weak_reduce(p, records, on_unsolved="raise"):
    """Weak reduction that rebuilds the surface from records on every call.

    Surface.reduce must match this reference exactly: solved forms are
    substituted to a fixpoint, then the span of the records' residuals
    eliminates exact constant-coefficient combinations.
    """
    p = as_poly(p)
    active = [rec for rec in records if not rec.superseded]
    bindings = {rec.solved[0]: rec.solved[1] for rec in active if rec.solved}

    def to_fixpoint(expr):
        if not bindings:
            return expr
        for _ in range(len(bindings) + 2):
            reduced = substitute(expr, bindings)
            if reduced == expr:
                return expr
            expr = reduced
        raise UnsolvableConstraint("solved forms do not reach a fixpoint")

    p = to_fixpoint(p)
    span = SpanReducer()
    for rec in active:
        residual = to_fixpoint(rec.expr)
        if not residual.is_zero:
            span.add(residual)
    p = span.reduce(p)
    if on_unsolved == "raise" and not p.is_zero:
        support = set(p.generators())
        for rec in active:
            if rec.solved is None and support & set(rec.expr.generators()):
                raise UnsolvableConstraint(
                    f"{rec.name} has no solved form but touches the expression")
    return p


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

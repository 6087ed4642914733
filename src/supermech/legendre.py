"""Legendre analysis of an even polynomial Lagrangian.

Derives momenta, the velocity Hessian and its body rank, solves the
expressible velocities exactly, builds the primary constraint
Phi_alpha = p_alpha + H_alpha for each unexpressed direction and assembles
the canonical Hamiltonian.  Phi_alpha is built here only: the Dirac stage's
primary records and the Hamilton-Jacobi H'_alpha are the same objects.
Supported Lagrangians are polynomial and at most quadratic in velocities,
which keeps velocity solving inside exact graded linear algebra.
"""
from __future__ import annotations

from .brackets import PhaseBasis
from .errors import ResidualVelocity, SingularBody, UnsupportedLagrangian
from .smatrix import body_matrix, body_pivots, body_rank, solve_left
from .superalgebra import (
    Generator,
    Kind,
    Parity,
    SuperPoly,
    ZERO,
    contains,
    derive_right,
    gen_poly,
    parity_of,
    substitute,
)


class LagrangianModel:
    """Declared generators plus an even Lagrangian over them."""

    __slots__ = ("name", "coordinates", "velocities", "momenta", "parameters",
                 "lagrangian")

    def __init__(self, name, coordinates, velocities, momenta, parameters, lagrangian):
        if parity_of(lagrangian) != Parity.EVEN:
            raise UnsupportedLagrangian("Lagrangian must be even")
        for g in lagrangian.generators():
            if g.kind == Kind.VELOCITY and g not in velocities.values():
                raise UnsupportedLagrangian(f"velocity {g} has no declared coordinate")
        self.name: str = name
        self.coordinates: tuple[Generator, ...] = coordinates
        self.velocities: dict[Generator, Generator] = velocities
        self.momenta: dict[Generator, Generator] = momenta
        self.parameters: tuple[Generator, ...] = parameters
        self.lagrangian: SuperPoly = lagrangian

    def velocity(self, q):
        return self.velocities[q]

    def momentum(self, q):
        return self.momenta[q]

    def phase_basis(self):
        return PhaseBasis(tuple((q, self.momenta[q]) for q in self.coordinates))


class ModelBuilder:
    """Declares generators with stable ordering and assembles a model."""

    def __init__(self, name):
        self.name = name
        self._coords = []
        self._velocities = {}
        self._momenta = {}
        self._params = []
        self._seq = 0

    def coordinate(self, name, parity, index=None):
        """Declare a coordinate; returns (coordinate, velocity, momentum)."""
        n = self._seq
        self._seq += 1
        q = Generator(name, parity, Kind.COORDINATE, index, n)
        v = Generator(f"dot({name})", parity, Kind.VELOCITY, index, n)
        p = Generator(f"p_{name}", parity, Kind.MOMENTUM, index, n)
        self._coords.append(q)
        self._velocities[q] = v
        self._momenta[q] = p
        return q, v, p

    def parameter(self, name, parity=Parity.EVEN):
        g = Generator(name, parity, Kind.PARAMETER, None, self._seq)
        self._seq += 1
        self._params.append(g)
        return g

    def velocity_of(self, q):
        return self._velocities[q]

    def finish(self, lagrangian):
        return LagrangianModel(
            self.name,
            tuple(self._coords),
            dict(self._velocities),
            dict(self._momenta),
            tuple(self._params),
            lagrangian,
        )


class RankSplit:
    __slots__ = ("rank", "expressible", "unexpressed")

    def __init__(self, rank, expressible, unexpressed):
        self.rank: int = rank
        self.expressible: tuple[int, ...] = expressible
        self.unexpressed: tuple[int, ...] = unexpressed

    def __eq__(self, other):
        return type(other) is RankSplit and (
            self.rank, self.expressible, self.unexpressed) == (
            other.rank, other.expressible, other.unexpressed)


class LegendreResult:
    __slots__ = ("model", "momenta_defs", "hessian", "split", "solved_velocities",
                 "primary_h", "primary", "h0")

    def __init__(self, model, momenta_defs, hessian, split, solved_velocities,
                 primary_h, primary, h0):
        self.model: LagrangianModel = model
        self.momenta_defs: dict[Generator, SuperPoly] = momenta_defs
        self.hessian: list[list[SuperPoly]] = hessian
        self.split: RankSplit = split
        self.solved_velocities: dict[Generator, SuperPoly] = solved_velocities
        self.primary_h: dict[Generator, SuperPoly] = primary_h  # H_alpha
        self.primary: dict[Generator, SuperPoly] = primary  # Phi_alpha
        self.h0: SuperPoly = h0

    @property
    def rank(self):
        return self.split.rank

    @property
    def expressible_coords(self):
        return tuple(self.model.coordinates[i] for i in self.split.expressible)

    @property
    def unexpressed_coords(self):
        return tuple(self.model.coordinates[i] for i in self.split.unexpressed)


def momenta(model):
    """p_i as the right derivative of the Lagrangian by each velocity."""
    return {
        q: derive_right(model.lagrangian, model.velocity(q))
        for q in model.coordinates
    }


def hessian(model, momenta_defs):
    """H_ij as the second right velocity derivatives of the Lagrangian."""
    return [
        [derive_right(momenta_defs[qi], model.velocity(qj))
         for qj in model.coordinates]
        for qi in model.coordinates
    ]


def rank_and_split(hess):
    """Body rank and the first coordinate subset carrying an invertible block.

    The Hessian body is graded-symmetric (B^T = B D, D = +-1 by parity), so
    its first column basis spans an invertible principal block, and that
    block is the lexicographically first one; the split is deterministic.
    Raises NonNumericBody when an entry has a non-constant even part and
    SingularBody when that block is singular, which only a body that is not
    graded-symmetric gives.
    """
    bodies = body_matrix(hess)
    n = len(bodies)
    expressible = body_pivots(bodies)
    if not expressible:
        return RankSplit(0, (), tuple(range(n)))
    block = [[bodies[i][j] for j in expressible] for i in expressible]
    if body_rank(block) != len(expressible):
        raise SingularBody("Hessian body is not graded-symmetric: "
                           "its pivot block is singular")
    unexpressed = tuple(i for i in range(n) if i not in expressible)
    return RankSplit(len(expressible), expressible, unexpressed)


def _check_affine(model, hess):
    velocities = set(model.velocities.values())
    for row in hess:
        for entry in row:
            if any(g in velocities for m in entry.terms for g, _ in m.factors):
                raise UnsupportedLagrangian(
                    "Lagrangian is more than quadratic in velocities")


def solve_velocities(model, momenta_defs, hess, split):
    """Invert the expressible momentum-velocity block of hess exactly.

    Returns the association velocity -> f(q, p); substituting it back into
    the momenta definitions reproduces them identically.
    """
    coords = model.coordinates
    block_idx = split.expressible
    if not block_idx:
        return {}
    m = [[hess[i][j] for j in block_idx] for i in block_idx]
    zero_vels = {model.velocity(coords[j]): ZERO for j in block_idx}
    rhs = []
    for i in block_idx:
        q = coords[i]
        rest = substitute(momenta_defs[q], zero_vels)
        rhs.append(gen_poly(model.momentum(q)) - rest)
    solution = solve_left(m, rhs)
    solved = {}
    for j, value in zip(block_idx, solution):
        solved[model.velocity(coords[j])] = value
    for i in block_idx:
        q = coords[i]
        if substitute(momenta_defs[q], solved) != gen_poly(model.momentum(q)):
            raise UnsupportedLagrangian(
                f"velocity inversion failed to reproduce p_{q}")
    return solved


def primary_constraints(model, momenta_defs, split, solved_velocities):
    """H_alpha and Phi_alpha = p_alpha + H_alpha for each unexpressed direction.

    Returns the two as {q: H_alpha} and {q: Phi_alpha}, in split order.
    """
    primary_h = {}
    primary = {}
    for i in split.unexpressed:
        q = model.coordinates[i]
        expr = substitute(momenta_defs[q], solved_velocities)
        for v in model.velocities.values():
            if contains(expr, v):
                raise UnsupportedLagrangian(
                    f"constraint for {q} retains a velocity: {expr}")
        primary_h[q] = -expr
        primary[q] = gen_poly(model.momentum(q)) + primary_h[q]
        parity_of(primary[q])
    return primary_h, primary


def canonical_hamiltonian(model, momenta_defs, split, solved_velocities, primary_h):
    """H0 = p_a f^a + p_alpha|_(p=-H) qdot^alpha - L|_(qdot_a=f^a).

    Momenta are kept left of velocities; every unexpressed velocity must
    cancel exactly or ResidualVelocity is raised.
    """
    h0 = ZERO
    for i in split.expressible:
        q = model.coordinates[i]
        h0 = h0 + gen_poly(model.momentum(q)) * solved_velocities[model.velocity(q)]
    for i in split.unexpressed:
        q = model.coordinates[i]
        h0 = h0 + (-primary_h[q]) * gen_poly(model.velocity(q))
    h0 = h0 - substitute(model.lagrangian, solved_velocities)
    for v in model.velocities.values():
        if contains(h0, v):
            raise ResidualVelocity(f"H0 still contains {v}: {h0}")
    return h0


def analyze(model):
    """Run the full Legendre analysis for a model."""
    defs = momenta(model)
    hess = hessian(model, defs)
    _check_affine(model, hess)
    split = rank_and_split(hess)
    solved = solve_velocities(model, defs, hess, split)
    primary_h, primary = primary_constraints(model, defs, split, solved)
    h0 = canonical_hamiltonian(model, defs, split, solved, primary_h)
    return LegendreResult(model, defs, hess, split, solved, primary_h, primary, h0)

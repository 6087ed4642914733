"""Graded Poisson (Berezin) bracket over a declared phase basis.

Two routes are provided: the direct sum over conjugate pairs and the
simplectic-metric contraction.  They must agree exactly, which the test
suite uses as an oracle for the summation.  Both take their graded
derivatives from the left and right gradients that every SuperPoly builds
once and keeps; the tests check the derivative itself against a separate
reference implementation.
"""
from __future__ import annotations

from .superalgebra import (
    Parity,
    SuperPoly,
    accumulate,
    derive_left,
    derive_right,
    gradient,
    parity_of,
)


class PhaseBasis:
    """Ordered conjugate pairs (coordinate, momentum); the bracket sums over
    them.  momentum maps each coordinate to its conjugate momentum."""

    __slots__ = ("pairs", "momentum")

    def __init__(self, pairs):
        seen = set()
        for q, p in pairs:
            if q.parity != p.parity:
                raise ValueError(f"pair ({q}, {p}) mixes parities")
            for g in (q, p):
                if g in seen:
                    raise ValueError(f"generator {g} appears in two pairs")
                seen.add(g)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "momentum", dict(pairs))

    def __setattr__(self, *_):
        raise AttributeError("a phase basis is read-only")

    @property
    def coordinates(self):
        return tuple(q for q, _ in self.pairs)

    @property
    def momenta(self):
        return tuple(p for _, p in self.pairs)

    def extend(self, extra_pairs):
        return PhaseBasis(self.pairs + tuple(extra_pairs))


def berezin(f, g, basis):
    """Berezin bracket {f, g} over the basis pairs.

    For homogeneous f, g:
        {f,g} = sum_i d_r f/dq^i * d_l g/dp_i
                - (-1)^{P(f)P(g)} d_r g/dq^i * d_l f/dp_i

    The derivatives come from `gradient`, which each operand builds once and
    keeps.  Only the coordinates that occur in an operand are visited, and a
    product is formed only for the pairs where both of its factors are
    nonzero; the sum is exact, so the order of the pairs does not matter.

    The result is exactly graded antisymmetric: {g, f} is {f, g} when both
    are odd and -{f, g} otherwise.  dirac.constraint_matrix,
    DiracAnalysis.bracket_table and hamilton_jacobi.closure_loop rely on
    that and compute one order of each pair.
    """
    pf = parity_of(f)
    pg = parity_of(g)
    sign = 1 if pf == Parity.ODD and pg == Parity.ODD else -1
    f_right, f_left = gradient(f, False), gradient(f, True)
    g_right, g_left = gradient(g, False), gradient(g, True)
    momentum = basis.momentum
    acc = {}
    for right, left, factor in ((f_right, g_left, 1), (g_right, f_left, sign)):
        for q, a in right.items():
            b = left.get(momentum.get(q))
            if b is not None:
                accumulate(acc, a * b, factor)
    return SuperPoly._from_map(acc)


class SimplecticMetric:
    """Sparse E^{IJ} over the flattened basis (q_0, p_0, q_1, p_1, ...).

    Within each conjugate pair the (coordinate, momentum) entry is +1 and the
    (momentum, coordinate) entry is -(-1)^{P(pair)}; everything else vanishes.
    """

    __slots__ = ("basis", "entries")

    def __init__(self, basis):
        entries = []
        for q, p in basis.pairs:
            entries.append((q, p, 1))
            entries.append((p, q, 1 if q.parity else -1))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, *_):
        raise AttributeError("a simplectic metric is read-only")


def simpletic_bracket(f, g, metric):
    """Bracket via d_r F/d eta^I E^{IJ} d_l G/d eta^J; equals berezin exactly."""
    parity_of(f)
    parity_of(g)
    acc = {}
    for gi, gj, sign in metric.entries:
        accumulate(acc, derive_right(f, gi) * derive_left(g, gj), sign)
    return SuperPoly._from_map(acc)

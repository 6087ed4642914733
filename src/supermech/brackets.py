"""Graded Poisson (Berezin) bracket over a declared phase basis.

The bracket is the direct sum over conjugate pairs.  It takes its graded
derivatives from the left and right gradients that every SuperPoly builds
once and keeps.  The tests check it against a simplectic-metric
contraction and a pair sum that both take every derivative from a
separate reference implementation.
"""
from __future__ import annotations

from .superalgebra import (
    ZERO,
    SuperPoly,
    accumulate,
    gradient,
    parity_of,
)


class PhaseBasis:
    """Ordered conjugate pairs (coordinate, momentum); the bracket sums over
    them.  momentum maps each coordinate to its conjugate momentum, and
    coordinate each momentum to its conjugate coordinate."""

    __slots__ = ("pairs", "momentum", "coordinate")

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
        object.__setattr__(self, "coordinate", {p: q for q, p in pairs})

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

    The result is exactly graded antisymmetric (see reversed_bracket).
    dirac.constraint_matrix and hamilton_jacobi.closure_loop rely on that
    and compute one order of each pair.  A bracket with a basis generator
    is `generator_bracket`.
    """
    sign = reversed_bracket(1, parity_of(f), parity_of(g))
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


def generator_bracket(x, f, basis):
    """{x, f} for a generator x of the basis and a homogeneous f: the one
    pair of the bracket sum that x enters.

    For a coordinate, {q, f} is f's kept left gradient at q's momentum;
    for a momentum, {f, p} is f's kept right gradient at p's coordinate,
    reversed into {p, f}.  It equals berezin(gen_poly(x), f, basis) and
    builds no gradient of x.
    """
    p = basis.momentum.get(x)
    if p is not None:
        return gradient(f, True).get(p, ZERO)
    return reversed_bracket(gradient(f, False).get(basis.coordinate[x], ZERO),
                            x.parity, parity_of(f))


def reversed_bracket(value, pf, pg):
    """{g, f} from value = {f, g}, for f of parity pf and g of parity pg.

    Graded antisymmetry: {g, f} is {f, g} when both are odd and -{f, g}
    otherwise.
    """
    return value if pf and pg else -value

"""Graded Poisson (Berezin) bracket over a declared phase basis.

Two independent routes are provided: the direct sum over conjugate pairs
and the simplectic-metric contraction.  They must agree exactly, which the
test suite uses as a cross-implementation oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .superalgebra import (
    Generator,
    Parity,
    SuperPoly,
    accumulate,
    derive_left,
    derive_right,
    parity_of,
)


@dataclass(frozen=True)
class PhaseBasis:
    """Ordered conjugate pairs (coordinate, momentum); the bracket sums over them."""

    pairs: tuple[tuple[Generator, Generator], ...]
    extended: bool = False

    def __post_init__(self):
        seen = set()
        for q, p in self.pairs:
            if q.parity != p.parity:
                raise ValueError(f"pair ({q}, {p}) mixes parities")
            for g in (q, p):
                if g in seen:
                    raise ValueError(f"generator {g} appears in two pairs")
                seen.add(g)

    @property
    def coordinates(self):
        return tuple(q for q, _ in self.pairs)

    @property
    def momenta(self):
        return tuple(p for _, p in self.pairs)

    def momentum_of(self, q):
        for qq, pp in self.pairs:
            if qq == q:
                return pp
        raise KeyError(q)

    def extend(self, extra_pairs):
        return PhaseBasis(self.pairs + tuple(extra_pairs), extended=True)


def berezin(f, g, basis):
    """Berezin bracket {f, g} over the basis pairs.

    For homogeneous f, g:
        {f,g} = sum_i d_r f/dq^i * d_l g/dp_i
                - (-1)^{P(f)P(g)} d_r g/dq^i * d_l f/dp_i
    """
    pf = parity_of(f)
    pg = parity_of(g)
    flip = pf == Parity.ODD and pg == Parity.ODD
    acc = {}
    for q, p in basis.pairs:
        accumulate(acc, derive_right(f, q) * derive_left(g, p))
        accumulate(acc, derive_right(g, q) * derive_left(f, p), 1 if flip else -1)
    return SuperPoly._from_map(acc)


@dataclass(frozen=True)
class SimplecticMetric:
    """Sparse E^{IJ} over the flattened basis (q_0, p_0, q_1, p_1, ...).

    Within each conjugate pair the (coordinate, momentum) entry is +1 and the
    (momentum, coordinate) entry is -(-1)^{P(pair)}; everything else vanishes.
    """

    basis: PhaseBasis
    entries: tuple[tuple[Generator, Generator, int], ...] = field(init=False)

    def __post_init__(self):
        entries = []
        for q, p in self.basis.pairs:
            entries.append((q, p, 1))
            entries.append((p, q, 1 if q.parity else -1))
        object.__setattr__(self, "entries", tuple(entries))


def simpletic_bracket(f, g, metric):
    """Bracket via d_r F/d eta^I E^{IJ} d_l G/d eta^J; equals berezin exactly."""
    parity_of(f)
    parity_of(g)
    acc = {}
    for gi, gj, sign in metric.entries:
        accumulate(acc, derive_right(f, gi) * derive_left(g, gj), sign)
    return SuperPoly._from_map(acc)

"""Exact graded-commutative polynomial kernel over even and odd generators.

All values are immutable and canonical: two expressions are equal iff their
term tuples compare equal.  Downstream modules rely on that for every
symbolic assertion, so no operation here ever rounds or reorders
nondeterministically.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import MixedParity, ParityMismatch, SingularBody


class Parity(enum.IntEnum):
    EVEN = 0
    ODD = 1


class Kind(enum.IntEnum):
    """Generator role; also the major key of the global generator order."""

    COORDINATE = 0
    VELOCITY = 1
    MOMENTUM = 2
    PARAMETER = 3
    AUXILIARY = 4


@dataclass(frozen=True)
class Generator:
    """A single even or odd symbol.

    The global order is (kind, order, name, index): coordinates first, then
    velocities, momenta, parameters and auxiliaries, each group in
    declaration order.  Canonical forms depend on this order being stable.
    """

    name: str
    parity: Parity = Parity.EVEN
    kind: Kind = Kind.COORDINATE
    index: int | None = None
    order: int = 0

    def __post_init__(self):
        object.__setattr__(
            self,
            "skey",
            (int(self.kind), self.order, self.name,
             -1 if self.index is None else self.index),
        )

    def __str__(self):
        if self.index is None:
            return self.name
        return f"{self.name}[{self.index}]"


class Coefficient:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @property
    def is_zero(self):
        return not self.re and not self.im

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Coefficient(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Coefficient(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Coefficient(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return Coefficient(-self.re, -self.im)

    def inv(self):
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise SingularBody("division by zero coefficient")
        return Coefficient(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        return self * _as_coeff(other).inv()

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            if isinstance(other, (int, Fraction)):
                other = Coefficient(other)
            else:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"Coefficient({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        tail = _imag_str(self.im)
        if not tail.startswith("-"):
            tail = "+" + tail
        return f"{self.re}{tail}"


def _imag_str(im):
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}i"


def _coerce(value):
    if isinstance(value, Coefficient):
        return value
    if isinstance(value, (int, Fraction)):
        return Coefficient(value)
    return None


def _as_coeff(value):
    coeff = _coerce(value)
    if coeff is None:
        raise TypeError(f"cannot use {value!r} as a coefficient")
    return coeff


C_ZERO = Coefficient(0)
C_ONE = Coefficient(1)
C_I = Coefficient(0, 1)


def _sort_factors(seq):
    """Insertion-sort (generator, exponent) pairs into the global order.

    Returns (sign, factors) or None when an odd generator repeats, which
    annihilates the term.  Adjacent odd-odd transpositions flip the sign.
    """
    out = []
    sign = 1
    for g, e in seq:
        if e < 1:
            raise ValueError("exponent must be >= 1")
        if g.parity and e > 1:
            return None
        pos = len(out)
        while pos > 0 and out[pos - 1][0].skey > g.skey:
            if g.parity and out[pos - 1][0].parity:
                sign = -sign
            pos -= 1
        if pos > 0 and out[pos - 1][0].skey == g.skey:
            if g.parity:
                return None
            out[pos - 1] = (g, out[pos - 1][1] + e)
        else:
            out.insert(pos, (g, e))
    return sign, tuple(out)


def _merge_factors(fa, fb):
    """Merge two canonical factor tuples; returns (sign, factors) or None."""
    out = []
    sign = 1
    i, j = 0, 0
    la, lb = len(fa), len(fb)
    odd_rest = sum(1 for g, _ in fa if g.parity)
    while i < la and j < lb:
        ga, ea = fa[i]
        gb, eb = fb[j]
        if ga.skey == gb.skey:
            if ga.parity:
                return None
            out.append((ga, ea + eb))
            i += 1
            j += 1
        elif gb.skey < ga.skey:
            if gb.parity and odd_rest & 1:
                sign = -sign
            out.append((gb, eb))
            j += 1
        else:
            if ga.parity:
                odd_rest -= 1
            out.append((ga, ea))
            i += 1
    out.extend(fa[i:])
    out.extend(fb[j:])
    return sign, tuple(out)


class Monomial:
    """A coefficient times an ordered product of generator powers.

    Instances are assumed canonical (factors sorted, odd exponents 1,
    nonzero coefficient); use normalize() to build from raw data.
    """

    __slots__ = ("coeff", "factors")

    def __init__(self, coeff, factors=()):
        self.coeff = coeff
        self.factors = factors

    @property
    def fkey(self):
        return tuple((g.skey, e) for g, e in self.factors)

    @property
    def parity(self):
        return Parity(sum(e * g.parity for g, e in self.factors) & 1)

    @property
    def degree(self):
        return sum(e for _, e in self.factors)

    def __eq__(self, other):
        return (isinstance(other, Monomial)
                and self.coeff == other.coeff and self.factors == other.factors)

    def __hash__(self):
        return hash((self.coeff, self.factors))

    def __repr__(self):
        return f"Monomial({self.coeff!r}, {self.factors!r})"

    def __str__(self):
        parts = [f"{g}^{e}" if e > 1 else str(g) for g, e in self.factors]
        c = str(self.coeff)
        if not parts:
            return c
        if c == "1":
            return "*".join(parts)
        if c == "-1":
            return "-" + "*".join(parts)
        if "+" in c[1:] or "-" in c[1:]:
            c = f"({c})"
        return "*".join([c] + parts)


class SuperPoly:
    """Canonical multivariate polynomial over even/odd generators."""

    __slots__ = ("terms", "_parity")

    def __init__(self, terms=()):
        self.terms = terms
        self._parity = None

    @staticmethod
    def _from_map(acc):
        monos = [Monomial(c, f) for f, c in acc.items() if not c.is_zero]
        monos.sort(key=lambda m: m.fkey)
        return SuperPoly(tuple(monos))

    @property
    def is_zero(self):
        return not self.terms

    @property
    def body(self):
        """Constant part of the expression."""
        if self.terms and not self.terms[0].factors:
            return self.terms[0].coeff
        return C_ZERO

    @property
    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and not self.terms[0].factors)

    def generators(self):
        seen = {}
        for m in self.terms:
            for g, _ in m.factors:
                seen[g] = None
        return tuple(seen)

    def __add__(self, other):
        other = as_poly(other)
        acc = {m.factors: m.coeff for m in self.terms}
        for m in other.terms:
            c = acc.get(m.factors)
            acc[m.factors] = m.coeff if c is None else c + m.coeff
        return SuperPoly._from_map(acc)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-as_poly(other))

    def __rsub__(self, other):
        return as_poly(other) + (-self)

    def __neg__(self):
        return SuperPoly(tuple(Monomial(-m.coeff, m.factors) for m in self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            c = _as_coeff(other)
            if c.is_zero:
                return ZERO
            return SuperPoly(tuple(Monomial(m.coeff * c, m.factors) for m in self.terms))
        other = as_poly(other)
        acc = {}
        for ma in self.terms:
            for mb in other.terms:
                merged = _merge_factors(ma.factors, mb.factors)
                if merged is None:
                    continue
                sign, factors = merged
                c = ma.coeff * mb.coeff
                if sign < 0:
                    c = -c
                prev = acc.get(factors)
                acc[factors] = c if prev is None else prev + c
        return SuperPoly._from_map(acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            return self * other
        return as_poly(other) * self

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            other = const_poly(other)
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple((m.fkey, m.coeff) for m in self.terms))

    def __repr__(self):
        return f"SuperPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [str(self.terms[0])]
        for m in self.terms[1:]:
            s = str(m)
            if s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        return "".join(parts)


ZERO = SuperPoly()
ONE = SuperPoly((Monomial(C_ONE, ()),))


def const_poly(c):
    c = _as_coeff(c)
    if c.is_zero:
        return ZERO
    return SuperPoly((Monomial(c, ()),))


def gen_poly(g, exponent=1):
    return SuperPoly((Monomial(C_ONE, ((g, exponent),)),))


def as_poly(value):
    if isinstance(value, SuperPoly):
        return value
    if isinstance(value, Generator):
        return gen_poly(value)
    if isinstance(value, (int, Fraction, Coefficient)):
        return const_poly(value)
    raise TypeError(f"cannot use {value!r} as a polynomial")


def normalize(raw):
    """Build a canonical SuperPoly from (coefficient, generator sequence) pairs.

    Reordering adjacent odd generators flips the sign; a repeated odd
    generator annihilates its term.
    """
    acc = {}
    for coeff, gens in raw:
        coeff = _as_coeff(coeff)
        if coeff.is_zero:
            continue
        sorted_ = _sort_factors([(g, 1) for g in gens])
        if sorted_ is None:
            continue
        sign, factors = sorted_
        if sign < 0:
            coeff = -coeff
        prev = acc.get(factors)
        acc[factors] = coeff if prev is None else prev + coeff
    return SuperPoly._from_map(acc)


def multiply(a, b):
    """Graded ring product: multiply(a,b) = (-1)^{P(a)P(b)} multiply(b,a)."""
    return as_poly(a) * as_poly(b)


def parity_of(p):
    """Common parity of all terms; raises MixedParity when they disagree.

    The zero polynomial counts as even.
    """
    p = as_poly(p)
    if p._parity == "mixed":
        raise MixedParity(f"mixed-parity expression: {p}")
    if p._parity is not None:
        return p._parity
    if not p.terms:
        p._parity = Parity.EVEN
        return Parity.EVEN
    parity = p.terms[0].parity
    for m in p.terms[1:]:
        if m.parity != parity:
            p._parity = "mixed"
            raise MixedParity(f"mixed-parity expression: {p}")
    p._parity = parity
    return parity


def is_homogeneous(p):
    try:
        parity_of(p)
    except MixedParity:
        return False
    return True


def derive_right(p, g):
    """Right graded derivative.

    Each occurrence of g is commuted to the rightmost position, picking up a
    sign per odd factor it crosses, then removed.  For even g this is the
    ordinary partial derivative.
    """
    acc = {}
    for m in as_poly(p).terms:
        for pos, (h, e) in enumerate(m.factors):
            if h != g:
                continue
            if g.parity:
                crossings = sum(1 for hh, _ in m.factors[pos + 1:] if hh.parity)
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


def derive_left(p, g):
    """Left graded derivative: g is commuted to the leftmost position instead."""
    acc = {}
    for m in as_poly(p).terms:
        for pos, (h, e) in enumerate(m.factors):
            if h != g:
                continue
            if g.parity:
                crossings = sum(1 for hh, _ in m.factors[:pos] if hh.parity)
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


def substitute(p, bindings):
    """Simultaneous substitution followed by normalization.

    Every replacement must have the parity of the generator it replaces
    (zero is allowed for either parity).
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


def accumulate(acc, p, sign=1):
    """Add sign * p into acc, a {factors: coefficient} map for _from_map.

    Summing many terms into one map and normalizing once is linear in the
    total term count, where repeated SuperPoly addition is quadratic.
    """
    for m in p.terms:
        c = m.coeff if sign > 0 else -m.coeff
        prev = acc.get(m.factors)
        acc[m.factors] = c if prev is None else prev + c


def contains(p, g):
    return any(h == g for m in as_poly(p).terms for h, _ in m.factors)


def leading_coefficient(p):
    p = as_poly(p)
    return p.terms[0].coeff if p.terms else C_ZERO


def monic(p):
    """Scale so the first canonical term has coefficient one."""
    p = as_poly(p)
    lead = leading_coefficient(p)
    if lead.is_zero or lead == C_ONE:
        return p
    return p * lead.inv()

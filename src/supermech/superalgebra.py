"""Exact graded-commutative polynomial kernel over even and odd generators.

All values are immutable and canonical: two expressions are equal iff their
term tuples compare equal.  Downstream modules rely on that for every
symbolic assertion, so no operation here ever rounds or reorders
nondeterministically.

A sum or product with a zero or constant operand takes a fast path: it may
return an operand itself (p + 0 is p, p * 0 is the shared ZERO) or a copy of
the other operand with its coefficients scaled, in the same canonical order.
Since values are never mutated, sharing an operand is safe.
"""
from __future__ import annotations

import enum
import threading
import weakref
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


class Generator:
    """A single even or odd symbol, interned and immutable.

    The global order is (kind, order, name, index): coordinates first, then
    velocities, momenta, parameters and auxiliaries, each group in
    declaration order.  Canonical forms depend on this order being stable.

    Constructing equal fields returns the one live generator that holds
    them, so equality and hashing are object identity.  Factor tuples key
    every polynomial map, and they hash and compare without a Python call.
    Copies and pickle round trips return the interned object.  The table
    holds generators weakly, so one that nothing references is dropped.
    """

    __slots__ = ("name", "parity", "kind", "index", "order", "skey", "__weakref__")
    _live = weakref.WeakValueDictionary()
    _lock = threading.Lock()  # two threads must not intern equal fields twice

    def __new__(cls, name, parity=Parity.EVEN, kind=Kind.COORDINATE, index=None,
                order=0):
        fields = (name, Parity(parity), Kind(kind), index, order)
        with cls._lock:
            g = cls._live.get(fields)
            if g is None:
                g = cls._live[fields] = object.__new__(cls)
                skey = (int(kind), order, name, -1 if index is None else index)
                for slot, value in zip(cls.__slots__, fields + (skey,)):
                    object.__setattr__(g, slot, value)
        return g

    def __setattr__(self, *_):
        raise AttributeError(f"generator {self} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Generator, (self.name, self.parity, self.kind, self.index, self.order)

    def __repr__(self):
        return f"Generator{self.__reduce__()[1]!r}"

    def __str__(self):
        if self.index is None:
            return self.name
        return f"{self.name}[{self.index}]"


class Coefficient:
    """Gaussian rational a + b*i with exact parts.

    Each part is canonical: an int when its value is integral, otherwise a
    Fraction in lowest terms with denominator > 1, and never a float.  So
    integer +, - and * run on machine ints, and an int part hashes and prints
    as the equal Fraction would.  Most coefficients are real, so
    multiplication skips the products of a zero imaginary part; these fast
    paths give exactly the value of the full formula.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _part(re)
        self.im = im if type(im) is int else _part(im)

    @property
    def is_zero(self):
        return not self.re and not self.im

    def __add__(self, other):
        if type(other) is not Coefficient:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return Coefficient(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Coefficient(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Coefficient:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if not other.im:
            if not self.im:
                return Coefficient(self.re * other.re)
            return Coefficient(self.re * other.re, self.im * other.re)
        if not self.im:
            return Coefficient(self.re * other.re, self.re * other.im)
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
        return Coefficient(Fraction(self.re, norm), Fraction(-self.im, norm))

    def __truediv__(self, other):
        return self * _as_coeff(other).inv()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            if isinstance(other, (int, Fraction)):
                other = Coefficient(other)
            else:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value hashes as the equal int or Fraction
        return hash((self.re, self.im)) if self.im else hash(self.re)

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


def _part(value):
    """The canonical form of a Coefficient part that is not a plain int."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"a coefficient part must be an int or a Fraction, not {value!r}")


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


def factor_order(factors):
    """Sort key of a canonical factor tuple in the global generator order."""
    return [(g.skey, e) for g, e in factors]


def _term_order(m):
    return [(g.skey, e) for g, e in m.factors]


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
    def parity(self):
        return Parity(sum(e * g.parity for g, e in self.factors) & 1)

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

    # _grad_left/_grad_right hold gradient(self, side), built on first use
    __slots__ = ("terms", "_parity", "_grad_left", "_grad_right")

    def __init__(self, terms=()):
        self.terms = terms
        self._parity = None
        self._grad_left = None
        self._grad_right = None

    @staticmethod
    def _from_map(acc):
        monos = [Monomial(c, f) for f, c in acc.items() if not c.is_zero]
        if len(monos) > 1:
            monos.sort(key=_term_order)
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
        if type(other) is not SuperPoly:
            other = as_poly(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
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
        terms = self.terms
        if type(other) is not SuperPoly and isinstance(other, (int, Fraction, Coefficient)):
            c = _as_coeff(other)
        else:
            other_terms = as_poly(other).terms
            if not terms or not other_terms:
                return ZERO
            # a constant operand scales the other's terms, which keeps their
            # canonical order: a product of nonzero coefficients is nonzero
            if len(other_terms) == 1 and not other_terms[0].factors:
                c = other_terms[0].coeff
            elif len(terms) == 1 and not terms[0].factors:
                c, terms = terms[0].coeff, other_terms
            else:
                return _product(terms, other_terms)
        if c.is_zero:
            return ZERO
        return SuperPoly(tuple(Monomial(m.coeff * c, m.factors) for m in terms))

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
        # a constant hashes as its body, so as the equal number
        if self.is_constant:
            return hash(self.body)
        return hash(tuple((m.factors, m.coeff) for m in self.terms))

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


def _product(terms_a, terms_b):
    """The canonical product of two term tuples, term by term."""
    acc = {}
    for ma in terms_a:
        for mb in terms_b:
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


def const_poly(c):
    c = _as_coeff(c)
    if c.is_zero:
        return ZERO
    return SuperPoly((Monomial(c, ()),))


def gen_poly(g, exponent=1):
    return SuperPoly((Monomial(C_ONE, ((g, exponent),)),))


def as_poly(value):
    if type(value) is SuperPoly or isinstance(value, SuperPoly):
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


def derive_right(p, g):
    """Right graded derivative: g is commuted to the rightmost position."""
    return gradient(p, False).get(g, ZERO)


def derive_left(p, g):
    """Left graded derivative: g is commuted to the leftmost position."""
    return gradient(p, True).get(g, ZERO)


def gradient(p, left):
    """{generator: graded derivative} for every generator that occurs in p.

    The derivative by g is taken from the left or from the right: each
    occurrence of g is commuted to that end of its monomial, picking up a
    sign per odd factor it crosses, then removed.  For even g this is the
    ordinary partial derivative.  Generators absent from p get no key, and
    no value is zero.  The map is built in one pass over p's terms on first
    use and kept on the instance, so it lives as long as p.  Callers must
    not mutate it.
    """
    p = as_poly(p)
    grad = p._grad_left if left else p._grad_right
    if grad is None:
        grad = _build_gradient(p, left)
        if left:
            p._grad_left = grad
        else:
            p._grad_right = grad
    return grad


def _build_gradient(p, left):
    # the graded sign rule, the only copy in the package: an odd generator
    # crosses the odd factors on the side it is commuted to.  Distinct
    # canonical terms have distinct derivatives by any one generator, so no
    # two terms land on one key.
    accs = {}
    for m in p.terms:
        factors = m.factors
        odd_total = sum(1 for h, _ in factors if h.parity)
        odd_before = 0
        for pos, (h, e) in enumerate(factors):
            if h.parity:
                crossings = odd_before if left else odd_total - odd_before - 1
                odd_before += 1
                coeff = -m.coeff if crossings & 1 else m.coeff
                rest = factors[:pos] + factors[pos + 1:]
            else:
                coeff = m.coeff * e
                if e > 1:
                    rest = factors[:pos] + ((h, e - 1),) + factors[pos + 1:]
                else:
                    rest = factors[:pos] + factors[pos + 1:]
            accs.setdefault(h, {})[rest] = coeff
    return {h: SuperPoly._from_map(acc) for h, acc in accs.items()}


def substitute(p, bindings):
    """Simultaneous substitution followed by normalization.

    Every replacement must have the parity of the generator it replaces
    (zero is allowed for either parity).  A term that holds no bound
    generator joins the result as it is.  In a term that does, each run of
    consecutive unbound factors, which is itself canonical, enters the
    product as one monomial; the products keep the factors' left-to-right
    order, so odd factors keep their signs.
    """
    bindings = {g: as_poly(v) for g, v in bindings.items()}
    for g, v in bindings.items():
        if not v.is_zero and parity_of(v) != g.parity:
            raise ParityMismatch(f"cannot bind {g} to {v}")
    acc = {}
    for m in as_poly(p).terms:
        factors = m.factors
        term = None
        start = 0
        for pos, (g, e) in enumerate(factors):
            rep = bindings.get(g)
            if rep is None:
                continue
            if term is None:
                term = SuperPoly((Monomial(m.coeff, factors[:pos]),))
            elif start < pos:
                term = term * SuperPoly((Monomial(C_ONE, factors[start:pos]),))
            term = term * (rep if e == 1 else rep ** e)
            start = pos + 1
            if term.is_zero:
                break
        if term is None:
            prev = acc.get(factors)
            acc[factors] = m.coeff if prev is None else prev + m.coeff
            continue
        if start < len(factors) and not term.is_zero:
            term = term * SuperPoly((Monomial(C_ONE, factors[start:]),))
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

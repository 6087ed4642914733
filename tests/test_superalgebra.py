"""Kernel tests: canonical forms, graded arithmetic and derivatives."""
import copy
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    random_homogeneous,
    random_poly,
    reference_derive,
    reference_substitute,
    small_basis,
)
from supermech import superalgebra
from supermech.errors import MixedParity, ParityMismatch, SingularBody
from supermech.superalgebra import (
    C_I,
    Coefficient,
    Generator,
    Kind,
    Parity,
    ZERO,
    const_poly,
    derive_left,
    derive_right,
    gen_poly,
    gradient,
    monic,
    normalize,
    parity_of,
    substitute,
)

TH1 = Generator("th1", Parity.ODD, Kind.COORDINATE, None, 0)
TH2 = Generator("th2", Parity.ODD, Kind.COORDINATE, None, 1)
ETA = Generator("eta", Parity.ODD, Kind.COORDINATE, None, 2)
Q = Generator("q", Parity.EVEN, Kind.COORDINATE, None, 3)
P1 = Generator("p1", Parity.EVEN, Kind.MOMENTUM, None, 0)
P2 = Generator("p2", Parity.EVEN, Kind.MOMENTUM, None, 1)
Q1 = Generator("q1", Parity.EVEN, Kind.COORDINATE, None, 4)


def test_normalize_anticommutation_sign():
    assert normalize([(1, [TH2, TH1])]) == -(gen_poly(TH1) * gen_poly(TH2))


def test_normalize_odd_square_vanishes():
    assert normalize([(1, [TH1, TH1])]).is_zero


def test_normalize_even_commutes_through():
    assert normalize([(1, [Q, TH1, Q])]) == gen_poly(Q, 2) * gen_poly(TH1)


def test_multiply_sign_rule():
    assert gen_poly(TH1) * gen_poly(TH2) == normalize([(1, [TH1, TH2])])
    assert gen_poly(TH2) * gen_poly(TH1) == -normalize([(1, [TH1, TH2])])


def test_multiply_nilpotent_pair():
    u = const_poly(1) + gen_poly(TH1) * gen_poly(TH2)
    assert u * u == const_poly(1) + 2 * gen_poly(TH1) * gen_poly(TH2)


def test_multiply_odd_linear_factors():
    # (a + b th)(c + d th) = ac + (ad + bc) th for even scalars a..d
    a, b, c, d = (Fraction(x) for x in (2, 3, 5, 7))
    th = gen_poly(TH1)
    left = const_poly(a) + b * th
    right = const_poly(c) + d * th
    assert left * right == const_poly(a * c) + (a * d + b * c) * th


def test_parity_of_two_odd_factors_is_even():
    assert parity_of(gen_poly(TH1) * gen_poly(TH2)) == Parity.EVEN


def test_parity_of_mixed_raises():
    with pytest.raises(MixedParity):
        parity_of(gen_poly(Q) + gen_poly(TH1))


def test_parity_of_mass_term():
    m = Generator("m", Parity.EVEN, Kind.PARAMETER, None, 0)
    term = gen_poly(m) * gen_poly(TH1) * gen_poly(TH2)
    assert parity_of(term) == Parity.EVEN


def test_derive_right_examples():
    t12 = gen_poly(TH1) * gen_poly(TH2)
    assert derive_right(t12, TH2) == gen_poly(TH1)
    assert derive_right(t12, TH1) == -gen_poly(TH2)
    assert derive_right(gen_poly(Q, 2) * gen_poly(TH1), Q) == \
        2 * gen_poly(Q) * gen_poly(TH1)


def test_derive_left_examples():
    t12 = gen_poly(TH1) * gen_poly(TH2)
    assert derive_left(t12, TH1) == gen_poly(TH2)
    assert derive_left(t12, TH2) == -gen_poly(TH1)


def test_left_right_relation_instance():
    # even p, odd g: d_l p/dg = (-1)^1 (-1)^{1*0} d_r p/dg
    t12 = gen_poly(TH1) * gen_poly(TH2)
    assert derive_left(t12, TH1) == -derive_right(t12, TH1)


def test_substitute_examples():
    half = Fraction(1, 2)
    expr = half * gen_poly(P1) ** 2 + gen_poly(P2) * gen_poly(Q1)
    assert substitute(expr, {P2: const_poly(0)}) == half * gen_poly(P1) ** 2
    # linearity over an odd replacement
    expr = gen_poly(TH1) * gen_poly(ETA)
    out = substitute(expr, {TH1: gen_poly(TH2) + gen_poly(ETA)})
    assert out == gen_poly(TH2) * gen_poly(ETA)


def test_substitute_parity_mismatch():
    with pytest.raises(ParityMismatch):
        substitute(gen_poly(TH1), {TH1: gen_poly(Q)})


def test_substitute_matches_reference():
    # the run-at-a-time product equals one product per factor, whatever is
    # bound: odd and even generators, powers, zero, and values that hold
    # other bound generators
    rng = random.Random(29)
    gens = _pool() + [TH1, TH2, ETA]
    seen = {"odd": 0, "power": 0, "zero": 0, "partial": 0, "nested": 0}
    for _ in range(300):
        p = random_poly(rng, gens, max_terms=5, max_degree=6)
        bound = rng.sample(gens, rng.randint(1, 4))
        bindings = {}
        for g in bound:
            if rng.random() < 0.2:
                bindings[g] = ZERO
            else:
                bindings[g] = random_poly(rng, gens, g.parity, max_terms=3,
                                          max_degree=2)
        assert substitute(p, bindings) == reference_substitute(p, bindings)
        present = set(p.generators())
        seen["odd"] += any(g.parity for g in bound if g in present)
        seen["power"] += any(g in bindings and e > 1
                             for m in p.terms for g, e in m.factors)
        seen["zero"] += any(v.is_zero for v in bindings.values())
        seen["partial"] += bool(present - set(bound))
        seen["nested"] += any(h in bindings for v in bindings.values()
                              for h in v.generators())
    assert all(seen.values()), seen
    for ref in (substitute, reference_substitute):
        with pytest.raises(ParityMismatch):
            ref(gen_poly(Q) * gen_poly(TH1), {TH1: gen_poly(Q)})


def test_monic_flips_leading_sign():
    assert monic(-gen_poly(P1)) == gen_poly(P1)
    assert monic(Coefficient(0, 1) * gen_poly(P1)) == \
        Coefficient(0, -1) * Coefficient(0, 1) * gen_poly(P1)


def _pool():
    basis = small_basis()
    return [g for pair in basis.pairs for g in pair]


def test_multiply_associative_and_distributive():
    rng = random.Random(11)
    gens = _pool()
    for _ in range(300):
        a = random_poly(rng, gens)
        b = random_poly(rng, gens)
        c = random_poly(rng, gens)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_zero_and_constant_operands_match_the_expanded_terms():
    # the kernel's fast paths for a zero or constant operand give the terms
    # that normalizing the expanded products gives
    rng = random.Random(18)
    gens = _pool()
    for _ in range(300):
        p = random_poly(rng, gens)
        expanded = [[g for g, e in m.factors for _ in range(e)] for m in p.terms]
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = rng.choice([0, Fraction(rng.randint(-3, 3), rng.randint(1, 2))])
        coeff = Coefficient(re, im)
        forms = [const_poly(coeff), coeff]
        if not im:
            forms += [coeff.re, Fraction(re)]
        expected = normalize([(m.coeff * coeff, gens_)
                              for m, gens_ in zip(p.terms, expanded)]).terms
        for c in forms:
            assert (p * c).terms == expected, (str(p), c)
            assert (c * p).terms == expected, (str(p), c)
        assert (p * ZERO).terms == () and (ZERO * p).terms == ()
        own = normalize(list(zip((m.coeff for m in p.terms), expanded))).terms
        assert (p + ZERO).terms == own and (ZERO + p).terms == own


def test_graded_commutativity():
    rng = random.Random(12)
    gens = _pool()
    for _ in range(400):
        a = random_homogeneous(rng, gens)
        b = random_homogeneous(rng, gens)
        sign = -1 if (parity_of(a) and parity_of(b)) else 1
        assert a * b == sign * (b * a)


def test_graded_leibniz_right_derivative():
    rng = random.Random(13)
    gens = _pool()
    for _ in range(400):
        a = random_poly(rng, gens)
        b = random_homogeneous(rng, gens)
        g = rng.choice(gens)
        sign = -1 if (g.parity and parity_of(b)) else 1
        lhs = derive_right(a * b, g)
        rhs = a * derive_right(b, g) + sign * (derive_right(a, g) * b)
        assert lhs == rhs, (str(a), str(b), str(g))


def test_left_right_derivative_relation():
    rng = random.Random(14)
    gens = _pool()
    for _ in range(400):
        p = random_homogeneous(rng, gens)
        g = rng.choice(gens)
        sign = 1
        if g.parity:
            sign = -sign
            if parity_of(p):
                sign = -sign
        assert derive_left(p, g) == sign * derive_right(p, g)


def test_second_derivative_symmetry():
    rng = random.Random(15)
    gens = _pool()
    for _ in range(400):
        s = random_poly(rng, gens, Parity.EVEN)
        gi = rng.choice(gens)
        gj = rng.choice(gens)
        sign = -1 if (gi.parity and gj.parity) else 1
        lhs = derive_right(derive_right(s, gi), gj)
        rhs = sign * derive_right(derive_right(s, gj), gi)
        assert lhs == rhs


def test_normalize_idempotent_and_equality_decidable():
    rng = random.Random(16)
    gens = _pool()
    for _ in range(200):
        p = random_poly(rng, gens)
        raw = [(m.coeff, [g for g, e in m.factors for _ in range(e)])
               for m in p.terms]
        assert normalize(raw) == p


def test_gradient_matches_derive():
    rng = random.Random(17)
    # three more odd generators give monomials with up to five odd factors
    gens = _pool() + [TH1, TH2, ETA]
    high_even = odd_seen = 0
    for _ in range(300):
        p = random_poly(rng, gens, max_terms=5, max_degree=6)
        present = set(p.generators())
        for left in (False, True):
            grad = gradient(p, left)
            assert set(grad) == present
            derive = derive_left if left else derive_right
            for g in gens:
                expected = reference_derive(p, g, left)
                assert grad.get(g, ZERO) == expected
                assert derive(p, g) == expected
            assert gradient(p, left) is grad
        high_even += any(e > 1 and not g.parity for m in p.terms for g, e in m.factors)
        odd_seen += any(g.parity for g in present)
    assert high_even and odd_seen
    assert gradient(ZERO, False) == {} and gradient(ZERO, True) == {}


# ------------------------------------------- Coefficient and Generator laws

_PROPERTY = settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
_FRACTIONS = st.fractions(min_value=-40, max_value=40, max_denominator=24)
# zero parts, int operands and Fraction operands each get a branch of their own
_SCALARS = st.one_of(st.just(0), st.integers(-9, 9), _FRACTIONS)
_COEFFS = st.builds(Coefficient, _SCALARS, _SCALARS)
_OPERANDS = st.one_of(_COEFFS, _COEFFS, st.integers(-9, 9), _FRACTIONS)


def _parts(x):
    if isinstance(x, Coefficient):
        return Fraction(x.re), Fraction(x.im)
    return Fraction(x), Fraction(0)


def _four_fraction(op, x, y):
    """(re, im) of x op y by the plain formula on four Fractions."""
    (a, b), (c, d) = _parts(x), _parts(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def _canonical_part(part):
    # an int when integral, otherwise a Fraction with denominator > 1
    return type(part) is (int if part.denominator == 1 else Fraction)


def _equal_values_hash_equal(c):
    # a Coefficient equals its constant SuperPoly and, when real, the int or
    # Fraction of its value; equal values hash equal, so each finds the
    # others in a set
    twins = [c, const_poly(c), Coefficient(Fraction(c.re), Fraction(c.im))]
    if not c.im:
        twins.append(Fraction(c.re))
        if Fraction(c.re).denominator == 1:
            twins.append(int(c.re))
    for a in twins:
        for b in twins:
            assert a == b and hash(a) == hash(b) and a in {b}


def _exact(result, want):
    assert isinstance(result, Coefficient)
    assert _canonical_part(result.re) and _canonical_part(result.im)
    assert (result.re, result.im) == want
    assert result == Coefficient(*want)
    _equal_values_hash_equal(result)


@_PROPERTY
@given(_COEFFS, _OPERANDS)
def test_coefficient_arithmetic_matches_four_fraction_formula(x, y):
    _exact(x + y, _four_fraction("+", x, y))
    _exact(y + x, _four_fraction("+", y, x))
    _exact(x - y, _four_fraction("-", x, y))
    _exact(y - x, _four_fraction("-", y, x))
    _exact(x * y, _four_fraction("*", x, y))
    _exact(y * x, _four_fraction("*", y, x))
    _exact(-x, _four_fraction("-", 0, x))
    if _parts(y) == (0, 0):
        with pytest.raises(SingularBody):
            x / y
    else:
        _exact(x / y, _four_fraction("/", x, y))
    if x.is_zero:
        with pytest.raises(SingularBody):
            x.inv()
        with pytest.raises(SingularBody):
            y / x
    else:
        _exact(x.inv(), _four_fraction("/", 1, x))
        _exact(y / x, _four_fraction("/", y, x))


@_PROPERTY
@given(_SCALARS, _SCALARS)
def test_coefficient_parts_are_canonical(re, im):
    for c in (Coefficient(re, im), Coefficient(re), Coefficient(),
              Coefficient(Fraction(re), Fraction(im))):
        assert _canonical_part(c.re) and _canonical_part(c.im)
        assert (c.re, c.im) in ((re, im), (re, 0), (0, 0))
    c, twin = Coefficient(re, im), Coefficient(Fraction(re), Fraction(im))
    assert c == twin and hash(c) == hash(twin) and str(c) == str(twin)
    assert hash(Coefficient(re)) == hash(Coefficient(Fraction(re), 0))
    _equal_values_hash_equal(c)


@pytest.mark.parametrize("bad", [0.1, 2.0, 1j, complex(3, 0), True, False])
def test_coefficient_rejects_inexact_parts(bad):
    # a float would enter the exact kernel as its binary expansion
    with pytest.raises(TypeError):
        Coefficient(bad)
    with pytest.raises(TypeError):
        Coefficient(1, bad)
    with pytest.raises(TypeError):
        superalgebra._as_coeff(bad)


def test_coefficient_operands_compare_and_coerce_by_value():
    half = Coefficient(Fraction(1, 2))
    assert half == Fraction(1, 2) and half != 1 and half == Coefficient(Fraction(2, 4))
    assert Coefficient(2) == 2 and Coefficient(2) == Fraction(4, 2)
    assert Coefficient(0, 1) != 1 and Coefficient(0, 1) == C_I
    assert (half == 0.5) is False
    assert superalgebra._coerce(half) is half
    assert superalgebra._coerce(0.5) is None and superalgebra._coerce("1") is None
    for value in (3, Fraction(6, 2), Parity.ODD):
        c = superalgebra._coerce(value)
        assert c == value and type(c.re) is int and type(c.im) is int
    assert superalgebra._coerce(Fraction(-1, 3)).re == Fraction(-1, 3)
    with pytest.raises(TypeError):
        half + 0.5


_GENERATORS = st.builds(
    Generator,
    st.text("abpqz_", min_size=1, max_size=4),
    st.sampled_from(Parity),
    st.sampled_from(Kind),
    st.one_of(st.none(), st.integers(0, 9)),
    st.integers(0, 30),
)


def _copy(g):
    return Generator(g.name, g.parity, g.kind, g.index, g.order)


@_PROPERTY
@given(_GENERATORS, _GENERATORS)
def test_generator_is_interned(g, other):
    # equal fields give the one live generator, so equality is identity
    fields = (g.name, g.parity, g.kind, g.index, g.order)
    assert _copy(g) is g
    assert (other is g) == ((other.name, other.parity, other.kind, other.index,
                             other.order) == fields)
    moved = Generator(g.name, g.parity, g.kind, g.index, g.order + 1)
    assert moved is not g and moved != g
    with pytest.raises(AttributeError):
        g.order = g.order + 1
    with pytest.raises(AttributeError):
        del g.name
    assert (g.name, g.parity, g.kind, g.index, g.order) == fields
    # copies and pickle round trips return the interned object
    assert copy.copy(g) is g and copy.deepcopy(g) is g
    assert pickle.loads(pickle.dumps(g)) is g
    assert copy.deepcopy(((g, 2), (other, 1)))[1][0] is other
    # dict keys made of factor tuples find their entries
    table = {((g, 1),): "g", ((g, 2), (other, 1)): "g2 other"}
    assert table[((_copy(g), 1),)] == "g"
    assert table[((_copy(g), 2), (_copy(other), 1))] == "g2 other"
    assert ((moved, 1),) not in table


def test_generator_interning_is_thread_safe():
    # threads racing to construct the same fields still share one generator
    names = [f"race{k}" for k in range(500)]
    results = []
    barrier = threading.Barrier(4)

    def build():
        barrier.wait(timeout=10)
        results.append([Generator(name, Parity.ODD) for name in names])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4
    for built in zip(*results):
        assert all(g is built[0] for g in built)

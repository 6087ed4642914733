"""Bracket axioms, and the bracket against its test-side references."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    DATA,
    FIXTURES,
    build_qed,
    gamma_matrices,
    random_homogeneous,
    reference_berezin,
    simpletic_metric,
    small_basis,
)
from supermech import superalgebra
from supermech.brackets import PhaseBasis, berezin, generator_bracket
from supermech.frontend.parser import parse_model
from supermech.frontend.pipeline import run_pipeline
from supermech.superalgebra import (
    ZERO,
    Coefficient,
    Generator,
    Kind,
    Parity,
    const_poly,
    gen_poly,
    normalize,
    parity_of,
)


def test_even_pair():
    basis = small_basis()
    q, p = basis.pairs[0]
    assert berezin(gen_poly(q), gen_poly(p), basis) == const_poly(1)
    assert berezin(gen_poly(p), gen_poly(q), basis) == const_poly(-1)


def test_phase_basis_refuses_a_bad_pair():
    basis = small_basis()
    (q1, p1), (_, p2), (_, pth) = basis.pairs
    for pairs, message in [(((q1, pth),), r"pair \(q1, pth\) mixes parities"),
                           (((q1, p1), (q1, p2)), "generator q1 appears in two pairs")]:
        with pytest.raises(ValueError, match=message):
            PhaseBasis(pairs)


def test_odd_pair_symmetric():
    basis = small_basis()
    th, pth = basis.pairs[2]
    assert berezin(gen_poly(th), gen_poly(pth), basis) == const_poly(1)
    assert berezin(gen_poly(pth), gen_poly(th), basis) == const_poly(1)


def test_reduced_model_constraint_pair_bracket():
    # {(phi2)_b, (phi3)_a} = -i gamma0[a][b] component-wise
    qed = build_qed()
    legres = qed.legres
    basis = qed.model.phase_basis()
    g0 = gamma_matrices()[0]
    primaries = legres.primary
    for b in range(4):
        phi2 = primaries[qed.gens["psi"][b][0]]
        for a in range(4):
            phi3 = primaries[qed.gens["psibar"][a][0]]
            value = berezin(phi2, phi3, basis)
            from supermech.superalgebra import C_I
            assert value == const_poly(-(C_I * g0[a][b]))


def test_simpletic_entries():
    basis = small_basis()
    signs = {(str(a), str(b)): s for a, b, s in simpletic_metric(basis)}
    assert signs[("q1", "p1")] == 1
    assert signs[("p1", "q1")] == -1
    assert signs[("th", "pth")] == 1
    assert signs[("pth", "th")] == 1
    for name in ("pairs", "momentum"):
        with pytest.raises(AttributeError):
            setattr(basis, name, None)


def test_bracket_routes_share_no_derivative(monkeypatch):
    # berezin reads the kept gradients; reference_berezin takes every
    # derivative from the test-side reference_derive and builds no
    # gradient, so the agreement checks the gradient's sign rule as well as
    # the summation
    builds = [0]
    build = superalgebra._build_gradient

    def counting(p, left):
        builds[0] += 1
        return build(p, left)

    monkeypatch.setattr(superalgebra, "_build_gradient", counting)
    rng = random.Random(24)
    basis = small_basis()
    gens = [g for pair in basis.pairs for g in pair]
    for _ in range(400):
        f = random_homogeneous(rng, gens)
        g = random_homogeneous(rng, gens)
        before = builds[0]
        expected = reference_berezin(f, g, basis)
        assert builds[0] == before
        assert berezin(f, g, basis) == expected


def test_graded_antisymmetry():
    rng = random.Random(22)
    basis = small_basis()
    gens = [g for pair in basis.pairs for g in pair]
    for _ in range(400):
        f = random_homogeneous(rng, gens)
        g = random_homogeneous(rng, gens)
        sign = -1 if (parity_of(f) and parity_of(g)) else 1
        assert (berezin(f, g, basis) + sign * berezin(g, f, basis)).is_zero


# two even and two odd conjugate pairs
_MIXED = PhaseBasis(tuple(
    (Generator(f"x{k}", parity, Kind.COORDINATE, None, k),
     Generator(f"p_x{k}", parity, Kind.MOMENTUM, None, k))
    for k, parity in enumerate((Parity.EVEN, Parity.ODD, Parity.EVEN, Parity.ODD))))
_MIXED_GENS = [g for pair in _MIXED.pairs for g in pair]


@st.composite
def _homogeneous(draw):
    """A polynomial whose terms all have one drawn parity (zero is even)."""
    parity = draw(st.sampled_from(Parity))
    raw = draw(st.lists(st.tuples(
        st.integers(-4, 4), st.integers(-2, 2),
        st.lists(st.sampled_from(_MIXED_GENS), min_size=1, max_size=3)),
        min_size=3, max_size=8))
    terms = (normalize([(Coefficient(re, im), gens)]) for re, im, gens in raw)
    return sum((t for t in terms if not t.is_zero and parity_of(t) == parity), ZERO)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_homogeneous(), _homogeneous())
def test_berezin_graded_antisymmetry_property(f, g):
    # constraint_matrix, DiracAnalysis.bracket_table and closure_loop
    # compute one order of each pair and derive the other by this rule
    forward = berezin(f, g, _MIXED)
    if parity_of(f) and parity_of(g):
        assert berezin(g, f, _MIXED) == forward
    else:
        assert berezin(g, f, _MIXED) == -forward


def test_graded_leibniz():
    rng = random.Random(23)
    basis = small_basis()
    gens = [g for pair in basis.pairs for g in pair]
    for _ in range(300):
        f = random_homogeneous(rng, gens)
        g = random_homogeneous(rng, gens)
        k = random_homogeneous(rng, gens)
        sign = -1 if (parity_of(f) and parity_of(g)) else 1
        lhs = berezin(f, g * k, basis)
        rhs = berezin(f, g, basis) * k + sign * (g * berezin(f, k, basis))
        assert lhs == rhs


def test_graded_jacobi():
    rng = random.Random(24)
    basis = small_basis()
    gens = [g for pair in basis.pairs for g in pair]
    for _ in range(300):
        f = random_homogeneous(rng, gens)
        g = random_homogeneous(rng, gens)
        k = random_homogeneous(rng, gens)
        pf, pg, pk = parity_of(f), parity_of(g), parity_of(k)
        s1 = -1 if (pf and pk) else 1
        s2 = -1 if (pg and pf) else 1
        s3 = -1 if (pk and pg) else 1
        total = (s1 * berezin(f, berezin(g, k, basis), basis)
                 + s2 * berezin(g, berezin(k, f, basis), basis)
                 + s3 * berezin(k, berezin(f, g, basis), basis))
        assert total.is_zero


def test_bracket_parity_rule():
    rng = random.Random(25)
    basis = small_basis()
    gens = [g for pair in basis.pairs for g in pair]
    for _ in range(400):
        f = random_homogeneous(rng, gens)
        g = random_homogeneous(rng, gens)
        out = berezin(f, g, basis)
        if out.is_zero:
            continue
        assert parity_of(out) == Parity((parity_of(f) + parity_of(g)) & 1)


def test_extended_basis_consistency():
    rng = random.Random(26)
    basis = small_basis()
    t0 = Generator("t0", Parity.EVEN, Kind.COORDINATE, None, 100)
    p0 = Generator("P0", Parity.EVEN, Kind.MOMENTUM, None, 100)
    extended = basis.extend([(t0, p0)])
    gens = [g for pair in basis.pairs for g in pair]
    for _ in range(200):
        f = random_homogeneous(rng, gens)
        h0 = random_homogeneous(rng, gens)
        if parity_of(h0) != Parity.EVEN:
            continue
        lhs = berezin(f, gen_poly(p0) + h0, extended)
        rhs = berezin(f, h0, basis)
        assert lhs == rhs


def test_generator_bracket_is_the_bracket_with_the_generator():
    # {x, f} read from f's kept gradients equals the full bracket sum, for
    # every basis generator x against every Dirac record and every member
    # of the closed Hamilton-Jacobi family of each fixture and tests/data
    # model, on random polynomials of the small basis, and on a generator
    # against itself and its conjugate
    paths = sorted(FIXTURES.glob("*.smf")) + sorted(DATA.glob("*.smf"))
    checked = 0
    for path in paths:
        result = run_pipeline(parse_model(path.read_text(encoding="utf-8")),
                              stage="all")
        for basis, exprs in [
                (result.analysis.basis, [rec.expr for rec in result.analysis.records]),
                (result.hj_system.basis, [m.expr for m in result.closure.family])]:
            for x in [g for pair in basis.pairs for g in pair]:
                for f in exprs:
                    assert generator_bracket(x, f, basis) == \
                        berezin(gen_poly(x), f, basis), (path.name, x, f)
                    checked += 1
    assert checked > 1000
    rng = random.Random(29)
    basis = small_basis()
    gens = [g for pair in basis.pairs for g in pair]
    for _ in range(200):
        f = random_homogeneous(rng, gens)
        for x in gens:
            assert generator_bracket(x, f, basis) == berezin(gen_poly(x), f, basis)
    for q, p in basis.pairs:
        for x in (q, p):
            for f in (gen_poly(q), gen_poly(p)):
                assert generator_bracket(x, f, basis) == berezin(gen_poly(x), f, basis)
        assert generator_bracket(q, gen_poly(p), basis) == const_poly(1)

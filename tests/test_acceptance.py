"""Acceptance suite: one test per criterion, each printing a PASS line.

Symbolic criteria demand exact equality of canonical forms; numeric
criteria pin their tolerances explicitly in the assertions.
"""
import math
import random

from helpers import (
    bilinear,
    fixture_text,
    gamma_matrices,
    random_homogeneous,
    simpletic_bracket,
    small_basis,
)
from supermech.brackets import berezin
from supermech.dirac import constraint_matrix, dirac_bracket, weak_reduce
from supermech.frontend.flowconfig import parse_path_config
from supermech.frontend.parser import parse_model
from supermech.frontend.pipeline import run_pipeline
from supermech.frontend.report import render_text
from supermech.numeric_flow import (
    GrassmannValue,
    PathSpec,
    integrate_flow,
    path_independence_check,
)
from supermech.superalgebra import (
    C_I,
    Coefficient,
    Parity,
    const_poly,
    gen_poly,
    parity_of,
)

MI = Coefficient(0, -1)
ALL_FIXTURES = ("sho", "free_singular", "gauge_toy", "fermionic_oscillator",
                "dirac_maxwell_reduced")

_PIPELINES = {}


def pipeline(name, stage="all"):
    key = (name, stage)
    if key not in _PIPELINES:
        doc = parse_model(fixture_text(f"{name}.smf"))
        _PIPELINES[key] = run_pipeline(doc, stage=stage)
    return _PIPELINES[key]


def _report(num, message):
    print(f"ACCEPTANCE {num}: PASS - {message}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_bracket_axioms():
    """Antisymmetry, Leibniz, Jacobi and the left/right derivative relation
    hold exactly on >=1000 randomized instances each."""
    basis = small_basis()
    gens = [g for pair in basis.pairs for g in pair]

    rng = random.Random(101)
    for _ in range(1000):
        f = random_homogeneous(rng, gens)
        g = random_homogeneous(rng, gens)
        sign = -1 if (parity_of(f) and parity_of(g)) else 1
        assert (berezin(f, g, basis) + sign * berezin(g, f, basis)).is_zero

    rng = random.Random(102)
    for _ in range(1000):
        f = random_homogeneous(rng, gens, max_terms=3)
        g = random_homogeneous(rng, gens, max_terms=3)
        k = random_homogeneous(rng, gens, max_terms=3)
        sign = -1 if (parity_of(f) and parity_of(g)) else 1
        lhs = berezin(f, g * k, basis)
        rhs = berezin(f, g, basis) * k + sign * (g * berezin(f, k, basis))
        assert lhs == rhs

    rng = random.Random(103)
    for _ in range(1000):
        f = random_homogeneous(rng, gens, max_terms=3)
        g = random_homogeneous(rng, gens, max_terms=3)
        k = random_homogeneous(rng, gens, max_terms=3)
        pf, pg, pk = parity_of(f), parity_of(g), parity_of(k)
        s1 = -1 if (pf and pk) else 1
        s2 = -1 if (pg and pf) else 1
        s3 = -1 if (pk and pg) else 1
        total = (s1 * berezin(f, berezin(g, k, basis), basis)
                 + s2 * berezin(g, berezin(k, f, basis), basis)
                 + s3 * berezin(k, berezin(f, g, basis), basis))
        assert total.is_zero

    from supermech.superalgebra import derive_left, derive_right

    rng = random.Random(104)
    for _ in range(1000):
        p = random_homogeneous(rng, gens)
        g = rng.choice(gens)
        sign = 1
        if g.parity:
            sign = -1 if not parity_of(p) else 1
        assert derive_left(p, g) == sign * derive_right(p, g)
    _report(1, "bracket axioms exact on 1000 randomized instances per axiom")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_simpletic_equivalence():
    """The E^{IJ} metric contraction, with every derivative taken by the
    test-side reference derivative, equals the direct bracket exactly on
    >=1000 randomized homogeneous pairs."""
    basis = small_basis()
    gens = [g for pair in basis.pairs for g in pair]
    rng = random.Random(201)
    for _ in range(1000):
        f = random_homogeneous(rng, gens)
        g = random_homogeneous(rng, gens)
        assert simpletic_bracket(f, g, basis) == berezin(f, g, basis)
    _report(2, "simpletic route equals the direct bracket on 1000 random pairs")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_reduced_constraint_algebra():
    """The reduced-model constraint supermatrix, its null direction, the
    recombined first-class constraint, the inverse block and the Dirac
    brackets all match their expected closed forms exactly."""
    result = pipeline("dirac_maxwell_reduced")
    elab = result.elaborated
    analysis = result.analysis
    model = elab.model
    basis = model.phase_basis()
    g0 = gamma_matrices()[0]
    e = gen_poly(elab.params["e"])
    psi = [elab.lookup("psi", k) for k in (1, 2, 3, 4)]
    psib = [elab.lookup("psibar", k) for k in (1, 2, 3, 4)]
    p_psi = [model.momentum(q) for q in psi]
    p_psib = [model.momentum(q) for q in psib]

    chi = [r for r in analysis.records if r.origin == "consistency"][0]
    phi2 = [r for r in analysis.records
            if r.origin == "primary" and r.coordinate in psi]
    phi3 = [r for r in analysis.records
            if r.origin == "primary" and r.coordinate in psib]
    assert len(phi2) == 4 and len(phi3) == 4

    def pbg0(b):  # (psibar gamma0)_b
        return g0[b][b] * gen_poly(psib[b])  # gamma0 is diagonal

    def g0p(a):  # (gamma0 psi)_a
        return g0[a][a] * gen_poly(psi[a])

    # secondary constraint: the charge density with spatial terms absent
    assert chi.expr == -(e * bilinear(g0, psib, [gen_poly(q) for q in psi]))

    # delta over (chi, phi2, phi3), entry by entry
    order = [chi] + phi2 + phi3
    delta = constraint_matrix(order, basis, analysis.surface)
    assert delta[0][0].is_zero
    for b in range(4):
        assert delta[0][1 + b] == -(e * pbg0(b))
        assert delta[1 + b][0] == e * pbg0(b)
        assert delta[0][5 + b] == e * g0p(b)
        assert delta[5 + b][0] == -(e * g0p(b))
    for b in range(4):
        for a in range(4):
            expect = const_poly(MI * g0[a][b])
            assert delta[1 + b][5 + a] == expect
            assert delta[5 + a][1 + b] == expect
            assert delta[1 + b][1 + a].is_zero
            assert delta[5 + b][5 + a].is_zero

    # null direction: v = (1, i e psi_b, -i e psibar_a); weakly annihilates
    # every row under sum_s (-1)^{P_t P_s} delta_st v_s
    v = [const_poly(1)] + [C_I * e * gen_poly(q) for q in psi] \
        + [MI * e * gen_poly(q) for q in psib]
    for t, rec_t in enumerate(order):
        acc = const_poly(0)
        for s, rec_s in enumerate(order):
            sign = -1 if (rec_t.parity and rec_s.parity) else 1
            acc = acc + sign * (delta[s][t] * v[s])
        assert weak_reduce(acc, analysis.records).is_zero

    # recombined first-class constraint equals the reduced charge generator
    phi = [r for r in analysis.records if r.origin == "recombination"][0]
    expect = const_poly(0)
    for q, p in zip(psi, p_psi):
        expect = expect + C_I * e * (gen_poly(p) * gen_poly(q))
    for q, p in zip(psib, p_psib):
        expect = expect + C_I * e * (gen_poly(q) * gen_poly(p))
    assert phi.expr == expect
    assert phi.cls == "first"
    # it equals constraints contracted with the null direction
    combo = const_poly(0)
    for rec, vs in zip(order, v):
        combo = combo + rec.expr * vs
    assert phi.expr == combo

    # inverse of the second-class block: off-diagonal +i gamma0 blocks
    second = analysis.second_class_records()
    assert [r.name for r in second] == [r.name for r in phi2 + phi3]
    inv = analysis.delta_inverse
    for b in range(4):
        for a in range(4):
            expect = const_poly(C_I * g0[b][a])
            assert inv[b][4 + a] == expect
            assert inv[4 + a][b] == expect
            assert inv[b][a].is_zero and inv[4 + b][4 + a].is_zero

    # Dirac brackets: {A_mu, p^nu}_D = delta, {psi_l, psibar_a}_D = -i g0,
    # {psi_l, p_psi_a}_D = delta
    for q, p in basis.pairs:
        if q.parity == Parity.EVEN:
            assert dirac_bracket(gen_poly(q), gen_poly(p), analysis) == const_poly(1)
    for l in range(4):
        for a in range(4):
            d = dirac_bracket(gen_poly(psi[l]), gen_poly(psib[a]), analysis)
            assert d == const_poly(MI * g0[l][a])
            d = dirac_bracket(gen_poly(psi[l]), gen_poly(p_psi[a]), analysis)
            assert d == (const_poly(1) if l == a else const_poly(0))
    _report(3, "reduced-model constraint algebra reproduced exactly")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_reduced_hj_closure():
    """The Hamilton-Jacobi family, its closure additions, the differential
    relations and the satisfied members match the reduced model exactly."""
    result = pipeline("dirac_maxwell_reduced")
    elab = result.elaborated
    closure = result.closure
    sys = result.hj_system
    model = elab.model
    e = gen_poly(elab.params["e"])
    m = gen_poly(elab.params["m"])
    gammas = gamma_matrices()
    g0 = gammas[0]
    psi = [elab.lookup("psi", k) for k in (1, 2, 3, 4)]
    psib = [elab.lookup("psibar", k) for k in (1, 2, 3, 4)]
    a0 = elab.lookup("A0")
    amu = [gen_poly(a0)] + [gen_poly(elab.lookup("A", j)) for j in (1, 2, 3)]

    members = {mm.label: mm for mm in closure.family}
    # the family: P0 + H0; p_A0; p_psi - i psibar g0; p_psibar
    assert members["H'0"].expr == gen_poly(sys.p0) + result.legres.h0
    assert members["H'1"].expr == gen_poly(model.momentum(a0))
    for b in range(4):
        expect = gen_poly(model.momentum(psi[b])) - C_I * g0[b][b] * gen_poly(psib[b])
        assert members[f"H'{2 + b}"].expr == expect
    for a in range(4):
        assert members[f"H'{6 + a}"].expr == gen_poly(model.momentum(psib[a]))

    # closure adds exactly the reduced secondary as a new member
    chi = -(e * bilinear(g0, psib, [gen_poly(q) for q in psi]))
    assert len(closure.added) == 1
    assert closure.added[0].expr == chi
    assert closure.outcomes["H'1"].kind == "new_hamiltonian"

    # spinor rows classify as differential relations, the rest as satisfied
    for k in range(2, 10):
        assert closure.outcomes[f"H'{k}"].kind == "dt_relation"
    assert closure.outcomes["H'0"].kind == "weak_zero"
    assert closure.outcomes["H'10"].kind == "weak_zero"

    # the relations are the reduced spinor equations of motion
    x_col = []
    for a in range(4):
        acc = m * gen_poly(psi[a])
        for mu in range(4):
            for b in range(4):
                if gammas[mu][a][b].is_zero:
                    continue
                acc = acc + e * amu[mu] * gammas[mu][a][b] * gen_poly(psi[b])
        x_col.append(acc)
    x_row = []
    for b in range(4):
        acc = m * gen_poly(psib[b])
        for mu in range(4):
            for a in range(4):
                if gammas[mu][a][b].is_zero:
                    continue
                acc = acc + e * amu[mu] * gen_poly(psib[a]) * gammas[mu][a][b]
        x_row.append(acc)
    for bidx, q in enumerate(psi):
        expect = MI * g0[bidx][bidx] * x_col[bidx]  # -i (g0 X)_b, diagonal g0
        assert closure.dt_relations[q] == expect
    for aidx, q in enumerate(psib):
        expect = C_I * x_row[aidx] * g0[aidx][aidx]
        assert closure.dt_relations[q] == expect
    assert a0 not in closure.dt_relations
    _report(4, "reduced-model HJ closure and relations reproduced exactly")


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_equivalence_on_fixture_library():
    """Both analyses correspond item by item on all five fixture models."""
    for name in ALL_FIXTURES:
        result = pipeline(name)
        assert result.crosscheck.verdict == "equivalent", \
            (name, result.crosscheck.mismatched)
    _report(5, f"analyses equivalent on all {len(ALL_FIXTURES)} fixtures")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_fermionic_oscillator_oracle():
    """Hand-expansion oracle: {psi, Phi1} = 1 and {Phi2, psibar} = 1 are the
    only surviving factors, the inverse block entry is i, so the correction
    is 1*i*1 and {psi, psibar}_D = 0 - i = -i."""
    result = pipeline("fermionic_oscillator")
    analysis = result.analysis
    elab = result.elaborated
    psi = elab.lookup("psi")
    psib = elab.lookup("psibar")
    basis = elab.model.phase_basis()
    zero = const_poly(0)

    assert analysis.delta == [[zero, const_poly(MI)], [const_poly(MI), zero]]
    assert analysis.delta_inverse == [[zero, const_poly(C_I)],
                                      [const_poly(C_I), zero]]
    phi1, phi2 = analysis.active()
    # independent oracle: expand the correction term by hand
    left = berezin(gen_poly(psi), phi1.expr, basis)
    right = berezin(phi2.expr, gen_poly(psib), basis)
    assert left == const_poly(1)
    assert right == const_poly(1)
    oracle = zero - left * const_poly(C_I) * right
    assert oracle == const_poly(MI)
    assert dirac_bracket(gen_poly(psi), gen_poly(psib), analysis) == oracle
    _report(6, "fermionic oscillator matches the hand-expansion oracle")


# ---------------------------------------------------------------- criterion 7

def _simpson(f, a, b, n):
    if n % 2:
        n += 1
    h = (b - a) / n
    total = f(a) + f(b)
    for k in range(1, n):
        total += f(a + k * h) * (4 if k % 2 else 2)
    return total * h / 3


def test_criterion_07_nonsingular_reduction():
    """For the harmonic oscillator the emitted flow equals the canonical
    equations symbolically; numerically the period closes within 1e-6, Z
    matches the action quadrature within 1e-6 at 2000 steps, and halving
    the steps changes the endpoint error by ~16x."""
    result = pipeline("sho")
    elab = result.elaborated
    sys = result.hj_system
    tds = result.tds
    q = elab.lookup("q")
    pq = elab.model.momentum(q)
    basis = elab.model.phase_basis()
    h0 = result.legres.h0
    assert tds.dq[(q, sys.t0)] == berezin(gen_poly(q), h0, basis)
    assert tds.dp[(pq, sys.t0)] == berezin(gen_poly(pq), h0, basis)
    assert tds.dq[(q, sys.t0)] == gen_poly(pq)
    assert tds.dp[(pq, sys.t0)] == -gen_poly(q)

    init = {q: GrassmannValue.body_value(0, 1.0),
            pq: GrassmannValue.body_value(0, 0.0)}
    period = 2 * math.pi
    path = PathSpec((sys.t0,), ((0.0,), (period,)), 2000)
    out = integrate_flow(tds, path, init, report=result.closure)
    end = out.samples[-1][1]
    assert abs(end[q].body.real - 1.0) <= 1e-6

    # independent oracle: Simpson quadrature of the closed-form integrand
    # L(t) = p(t)^2/2 - q(t)^2/2 with q = cos t, p = -sin t
    action = _simpson(lambda t: 0.5 * math.sin(t) ** 2 - 0.5 * math.cos(t) ** 2,
                      0.0, period, 4000)
    assert abs(out.z.body.real - action) <= 1e-6

    def endpoint_error(steps):
        p = PathSpec((sys.t0,), ((0.0,), (period,)), steps)
        o = integrate_flow(tds, p, init, report=result.closure)
        e = o.samples[-1][1]
        return abs(e[q].body.real - 1.0) + abs(e[pq].body.real)

    ratio = endpoint_error(500) / endpoint_error(1000)
    assert 10 < ratio < 24
    _report(7, f"nonsingular reduction exact; order-4 ratio {ratio:.1f}")


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_constraint_drift():
    """Every closed family member drifts by at most 1e-8 over 1e4 steps for
    the fermionic oscillator and the gauge toy model."""
    drifts = {}
    for name, cfg in (("fermionic_oscillator", "fermionic_flow.cfg"),
                      ("gauge_toy", "gauge_toy_flow.cfg")):
        result = pipeline(name)
        path, init = parse_path_config(
            fixture_text(cfg), result.elaborated, result.hj_system)
        total_steps = (len(path.waypoints) - 1) * path.steps
        assert total_steps >= 10 ** 4
        out = integrate_flow(result.tds, path, init, report=result.closure)
        assert out.drift <= 1e-8, (name, out.drift)
        drifts[name] = out.drift
    _report(8, "drift " + ", ".join(f"{k}={v:.2e}" for k, v in drifts.items()))


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_path_independence():
    """Strictly integrable flows agree in every component across staircase
    paths; for the gauge model only the first-class observables must agree
    and the gauge coordinate is flagged."""
    result = pipeline("free_singular")
    elab = result.elaborated
    sys = result.hj_system
    q2 = elab.lookup("q2")
    init = {elab.lookup("q1"): GrassmannValue.body_value(0, 0.3),
            elab.model.momentum(elab.lookup("q1")): GrassmannValue.body_value(0, 0.7),
            q2: GrassmannValue.body_value(0, 0.0),
            elab.model.momentum(q2): GrassmannValue.body_value(0, 0.0)}
    path_a = PathSpec((sys.t0, q2), ((0, 0), (1, 0), (1, 1)), 200)
    path_b = PathSpec((sys.t0, q2), ((0, 0), (0, 1), (1, 1)), 200)
    out = path_independence_check(result.tds, path_a, path_b, init,
                                  report=result.closure, tol=1e-8)
    assert out.strict and out.agree

    result = pipeline("gauge_toy")
    elab = result.elaborated
    sys = result.hj_system
    q1 = elab.lookup("q1")
    q2 = elab.lookup("q2")
    init = {q1: GrassmannValue.body_value(0, 0.5),
            elab.model.momentum(q1): GrassmannValue.body_value(0, 0.0),
            q2: GrassmannValue.body_value(0, 0.0),
            elab.model.momentum(q2): GrassmannValue.body_value(0, 0.0)}
    path_a = PathSpec((sys.t0, q2), ((0, 0), (1, 0), (1, 1)), 500)
    path_b = PathSpec((sys.t0, q2), ((0, 0), (0, 1), (1, 1)), 500)
    out = path_independence_check(result.tds, path_a, path_b, init,
                                  report=result.closure, tol=1e-8)
    comp = {name: (diff, checked, note)
            for name, diff, checked, note in out.comparisons}
    assert out.agree
    assert comp["p_q1"][1] and comp["p_q1"][0] <= 1e-8
    assert comp["p_q2"][1] and comp["p_q2"][0] <= 1e-8
    assert not comp["q1"][1] and comp["q1"][2] == "not first-class"
    _report(9, "path independence holds exactly where it must")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_deterministic_reports():
    """Two consecutive full pipeline runs emit byte-identical reports for
    every fixture, and they match the stored golden files."""
    import pathlib

    golden_dir = pathlib.Path(__file__).resolve().parent / "golden"
    for name in ALL_FIXTURES:
        text1 = render_text(run_pipeline(
            parse_model(fixture_text(f"{name}.smf")), stage="all"))
        text2 = render_text(run_pipeline(
            parse_model(fixture_text(f"{name}.smf")), stage="all"))
        assert text1.encode() == text2.encode(), name
        golden = (golden_dir / f"{name}.txt").read_bytes()
        assert text1.encode() == golden, name
    _report(10, "byte-identical reports across consecutive runs")

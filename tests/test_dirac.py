"""Constraint algorithm: consistency, classification, inversion, brackets."""
import random
from fractions import Fraction

import pytest

from helpers import (
    FIXTURES,
    build_fermionic,
    build_free_singular,
    build_gauge_toy,
    build_qed,
    build_sho,
    gamma_matrices,
    random_homogeneous,
    reference_weak_reduce,
    small_basis,
)
from supermech.dirac import (
    ConstraintRecord,
    DiracAnalysis,
    Surface,
    constraint_matrix,
    dirac_bracket,
    invert_supermatrix,
    run_dirac,
    try_solve,
    weak_reduce,
)
from supermech.errors import SingularBody, UnsolvableConstraint
from supermech.smatrix import mat_mul
from supermech.superalgebra import (
    C_I,
    Coefficient,
    Parity,
    const_poly,
    gen_poly,
    parity_of,
)

MI = Coefficient(0, -1)  # -i


def test_fundamental_brackets_all_fixtures():
    from supermech.brackets import berezin

    for built in (build_sho(), build_gauge_toy(), build_fermionic(), build_qed()):
        basis = built.model.phase_basis()
        for q, p in basis.pairs:
            assert berezin(gen_poly(q), gen_poly(p), basis) == const_poly(1)


def test_gauge_toy_all_first_class():
    gt = build_gauge_toy()
    analysis = run_dirac(gt.legres)
    assert len(analysis.records) == 2
    exprs = {str(r.expr) for r in analysis.records}
    assert exprs == {"p_q2", "-p_q1"}
    assert all(r.cls == "first" for r in analysis.records)
    assert analysis.multipliers[gt.gens["q2"]] is None
    assert not analysis.second_class
    assert all(e.is_zero for row in analysis.delta for e in row)


def test_gauge_toy_secondary_from_consistency():
    gt = build_gauge_toy()
    analysis = run_dirac(gt.legres)
    secondary = [r for r in analysis.records if r.origin == "consistency"]
    assert len(secondary) == 1
    assert secondary[0].stage == 1
    assert secondary[0].expr == -gen_poly(gt.gens["p1"])


def test_fermionic_oscillator_oracle():
    # independent hand expansion: {psi, Phi1} = 1, {Phi2, psibar} = 1,
    # the inverse block entry is i, so {psi, psibar}_D = -(1 * i * 1) = -i
    fo = build_fermionic()
    analysis = run_dirac(fo.legres)
    assert len(analysis.records) == 2
    assert all(r.cls == "second" for r in analysis.records)
    assert analysis.delta[0][0].is_zero and analysis.delta[1][1].is_zero
    assert analysis.delta[0][1] == const_poly(MI)
    assert analysis.delta[1][0] == const_poly(MI)
    assert analysis.delta_inverse[0][1] == const_poly(C_I)
    assert analysis.delta_inverse[1][0] == const_poly(C_I)
    g = fo.gens
    d = dirac_bracket(gen_poly(g["psi"]), gen_poly(g["psibar"]), analysis)
    assert d == const_poly(MI)
    # no secondary constraints, both multipliers determined
    assert all(r.origin == "primary" for r in analysis.records)
    assert analysis.multipliers[g["psi"]] == MI * gen_poly(g["m"]) * gen_poly(g["psi"])
    assert analysis.multipliers[g["psibar"]] == \
        C_I * gen_poly(g["m"]) * gen_poly(g["psibar"])


def test_reduced_model_stages_and_classes():
    qed = build_qed()
    analysis = run_dirac(qed.legres)
    primaries = [r for r in analysis.records if r.origin == "primary"]
    secondaries = [r for r in analysis.records if r.origin == "consistency"]
    recombined = [r for r in analysis.records if r.origin == "recombination"]
    assert len(primaries) == 9 and len(secondaries) == 1 and len(recombined) == 1
    assert secondaries[0].stage == 1
    # chi's own consistency is identically satisfied: the loop stops at one
    # secondary, A0's multiplier stays free, the eight spinor ones resolve
    assert analysis.multipliers[qed.gens["A0"][0]] is None
    determined = [q for q, v in analysis.multipliers.items() if v is not None]
    assert len(determined) == 8
    first = [r for r in analysis.active() if r.cls == "first"]
    second = [r for r in analysis.active() if r.cls == "second"]
    assert len(first) == 2 and len(second) == 8


def test_reduced_model_secondary_value():
    qed = build_qed()
    analysis = run_dirac(qed.legres)
    chi = [r for r in analysis.records if r.origin == "consistency"][0]
    g0 = gamma_matrices()[0]
    psb = [q for q, _, _ in qed.gens["psibar"]]
    psp = [gen_poly(q) for q, _, _ in qed.gens["psi"]]
    from helpers import bilinear

    assert chi.expr == -(gen_poly(qed.gens["e"]) * bilinear(g0, psb, psp))


def test_reduced_model_recombination():
    qed = build_qed()
    analysis = run_dirac(qed.legres)
    phi = [r for r in analysis.records if r.origin == "recombination"][0]
    assert phi.cls == "first"
    e = gen_poly(qed.gens["e"])
    expect = const_poly(0)
    for q, _, p in qed.gens["psi"]:
        expect = expect + C_I * e * (gen_poly(p) * gen_poly(q))
    for q, _, p in qed.gens["psibar"]:
        expect = expect + C_I * e * (gen_poly(q) * gen_poly(p))
    assert phi.expr == expect


def test_consistency_step_outcomes():
    from supermech.dirac import consistency_step

    gt = build_gauge_toy()
    analysis = run_dirac(gt.legres)
    # replay one sweep on the closed analysis: everything is satisfied
    outcomes = consistency_step(analysis, gt.legres.h0, analysis.basis)
    assert all(kind == "zero" for _, kind, _ in outcomes)

    # the fermionic sweep classifies both rows as multiplier equations
    fo = build_fermionic()
    fresh = run_dirac(fo.legres)
    for q in fresh.multipliers:
        fresh.multipliers[q] = None  # forget the solutions, re-derive
    outcomes = consistency_step(fresh, fo.legres.h0, fresh.basis)
    assert sorted(kind for _, kind, _ in outcomes) == ["multiplier", "multiplier"]


def test_constraint_matrix_single_even_first_class():
    gt = build_gauge_toy()
    basis = gt.model.phase_basis()
    delta = constraint_matrix([gen_poly(gt.gens["p2"])], basis)
    assert delta == [[const_poly(0)]] or delta[0][0].is_zero


def test_invert_supermatrix_examples():
    z = const_poly(0)
    mi = const_poly(MI)
    inv = invert_supermatrix([[z, mi], [mi, z]])
    assert inv[0][1] == const_poly(C_I) and inv[1][0] == const_poly(C_I)
    assert inv[0][0].is_zero and inv[1][1].is_zero
    ident = [[const_poly(1), z], [z, const_poly(1)]]
    assert invert_supermatrix(ident) == ident
    with pytest.raises(SingularBody):
        invert_supermatrix([[z, z], [z, const_poly(1)]])


def test_invert_supermatrix_with_soul():
    # soul entries are handled by the terminating series expansion
    fo = build_fermionic()
    g = fo.gens
    th = gen_poly(g["psi"]) * gen_poly(g["psibar"])
    m = [[const_poly(1) + th, const_poly(0)], [th, const_poly(2)]]
    inv = invert_supermatrix(m)
    assert mat_mul(m, inv) == [[const_poly(1), const_poly(0)],
                               [const_poly(0), const_poly(1)]]


def test_weak_reduce_examples():
    gt = build_gauge_toy()
    g = gt.gens
    basis = gt.model.phase_basis()
    rec = ConstraintRecord("c", gen_poly(g["p2"]), 0,
                           solved=try_solve(gen_poly(g["p2"]), basis))
    reduced = weak_reduce(gen_poly(g["p2"]) * gen_poly(g["q1"]), [rec])
    assert reduced.is_zero
    # unrelated expressions pass through
    assert weak_reduce(gen_poly(g["q1"]), [rec]) == gen_poly(g["q1"])


def test_weak_reduce_solved_momentum():
    fo = build_fermionic()
    g = fo.gens
    analysis = run_dirac(fo.legres)
    reduced = weak_reduce(gen_poly(g["ppsi"]), analysis.records)
    assert reduced == Coefficient(0, Fraction(1, 2)) * gen_poly(g["psibar"])


def test_weak_reduce_unsolvable_raises():
    qed = build_qed()
    analysis = run_dirac(qed.legres)
    chi = [r for r in analysis.records if r.origin == "consistency"][0]
    fresh = ConstraintRecord("chi", chi.expr, 1)  # no solved form exists
    probe = gen_poly(qed.gens["psi"][0][0]) * gen_poly(qed.gens["e"])
    with pytest.raises(UnsolvableConstraint):
        weak_reduce(probe, [fresh], on_unsolved="raise")


def test_second_class_brackets_weakly_vanish():
    rng = random.Random(31)
    for built in (build_fermionic(), build_qed()):
        analysis = run_dirac(built.legres)
        basis = built.model.phase_basis()
        gens = [g for pair in basis.pairs for g in pair]
        for rec in analysis.second_class_records():
            for _ in range(10):
                f = random_homogeneous(rng, gens, max_terms=3, max_degree=3)
                value = dirac_bracket(rec.expr, f, analysis)
                assert weak_reduce(value, analysis.records,
                                   on_unsolved="ignore").is_zero


def test_dirac_bracket_antisymmetry_and_parity():
    rng = random.Random(32)
    fo = build_fermionic()
    analysis = run_dirac(fo.legres)
    basis = fo.model.phase_basis()
    gens = [g for pair in basis.pairs for g in pair]
    for _ in range(100):
        f = random_homogeneous(rng, gens, max_terms=3, max_degree=3)
        g = random_homogeneous(rng, gens, max_terms=3, max_degree=3)
        sign = -1 if (parity_of(f) and parity_of(g)) else 1
        lhs = dirac_bracket(f, g, analysis) + sign * dirac_bracket(g, f, analysis)
        assert weak_reduce(lhs, analysis.records, on_unsolved="ignore").is_zero
        out = dirac_bracket(f, g, analysis)
        if not out.is_zero:
            assert parity_of(out) == Parity((parity_of(f) + parity_of(g)) & 1)


def test_delta_inverse_is_weak_identity():
    for built in (build_fermionic(), build_qed()):
        analysis = run_dirac(built.legres)
        if not analysis.second_class:
            continue
        block = [[analysis.delta[i][j] for j in analysis.second_class]
                 for i in analysis.second_class]
        prod = mat_mul(block, analysis.delta_inverse)
        for i, row in enumerate(prod):
            for j, entry in enumerate(row):
                expect = const_poly(1) if i == j else const_poly(0)
                assert weak_reduce(entry - expect, analysis.records,
                                   on_unsolved="ignore").is_zero


def test_classification_stable_under_rescaling():
    fo = build_fermionic()
    analysis = run_dirac(fo.legres)
    basis = fo.model.phase_basis()
    from supermech.dirac import first_class_recombination

    for factor in (2, MI):
        records = [
            ConstraintRecord(r.name, factor * r.expr, r.stage,
                             solved=try_solve(factor * r.expr, basis))
            for r in analysis.records
        ]
        delta = constraint_matrix(records, basis, Surface(records))
        first_class_recombination(delta, records, basis)
        assert [r.cls for r in records] == [r.cls for r in analysis.records]


def test_delta_graded_antisymmetry():
    # Delta_ts = -(-1)^{P_s P_t} Delta_st holds entrywise after reduction
    for built in (build_gauge_toy(), build_fermionic(), build_qed()):
        analysis = run_dirac(built.legres)
        active = analysis.active()
        for s, rec_s in enumerate(active):
            for t, rec_t in enumerate(active):
                sign = -1 if (rec_s.parity and rec_t.parity) else 1
                assert analysis.delta[t][s] == -sign * analysis.delta[s][t]


def test_dirac_bracket_graded_antisymmetry_reduced_model():
    qed = build_qed()
    analysis = run_dirac(qed.legres)
    psi1 = qed.gens["psi"][0][0]
    psib1 = qed.gens["psibar"][0][0]
    d1 = dirac_bracket(gen_poly(psi1), gen_poly(psib1), analysis)
    d2 = dirac_bracket(gen_poly(psib1), gen_poly(psi1), analysis)
    assert d1 == d2 == const_poly(MI)  # odd-odd brackets are symmetric


def _outcome(reduce):
    try:
        return reduce()
    except UnsolvableConstraint as exc:
        return ("raised", str(exc))


def test_surface_matches_per_call_reference_on_fixtures():
    # one surface serves many reductions and gives exactly what rebuilding
    # the surface from the records on every call gives
    from supermech.hamilton_jacobi import build_hj_system, closure_loop

    rng = random.Random(61)
    for built in (build_sho(), build_free_singular(), build_gauge_toy(),
                  build_fermionic(), build_qed()):
        analysis = run_dirac(built.legres)
        sys = build_hj_system(built.legres)
        family = closure_loop(sys).family
        hj_records = [ConstraintRecord(m.label, m.expr, 0, solved=m.solved)
                      for m in family]
        params = list(built.model.parameters)
        for records, basis in ((analysis.records, analysis.basis),
                               (hj_records, sys.basis)):
            surface = Surface(records)
            gens = [g for pair in basis.pairs for g in pair] + params
            for k in range(12):
                p = random_homogeneous(rng, gens, max_terms=3, max_degree=3)
                if records and k % 2:
                    # a multiple of a constraint, so the span has work to do
                    rec = rng.choice(records)
                    p = p + rec.expr * random_homogeneous(
                        rng, gens, max_terms=2, max_degree=1)
                for mode in ("ignore", "raise"):
                    want = _outcome(lambda: reference_weak_reduce(p, records, mode))
                    got = _outcome(lambda: surface.reduce(p, on_unsolved=mode))
                    assert got == want, (built.model.name, str(p), mode)
                    assert _outcome(lambda: weak_reduce(p, records, mode)) == want


def test_surface_builds_in_full_run_of_reduced_model(monkeypatch, capsys):
    # surfaces are built only when a record set changes; the count is exact
    from supermech.frontend.cli import main

    builds = []
    original = Surface.__init__

    def counting_init(self, records):
        builds.append(len(records))
        original(self, records)

    monkeypatch.setattr(Surface, "__init__", counting_init)
    path = FIXTURES / "dirac_maxwell_reduced.smf"
    assert main(["analyze", str(path), "--stage", "all"]) == 0
    capsys.readouterr()
    # record counts per build.  dirac: the 9 primaries, plus the secondary,
    # one recombination round, the final records; closure: the initial
    # family, its added member and the integrability matrix; cross-check:
    # the closed family (the Dirac surface is reused)
    assert builds == [9, 10, 10, 11, 10, 11, 11, 11]


def test_dirac_analysis_surface_follows_its_records():
    # an analysis built by hand, then records added and edited: the surface
    # dirac_bracket reduces on always matches the current records
    from supermech.brackets import berezin

    basis = small_basis()
    (q1, p1), (q2, p2), _ = basis.pairs
    analysis = DiracAnalysis(model=None, basis=basis, h0=const_poly(0),
                             hp=const_poly(0))
    f = gen_poly(q1) * gen_poly(p2)
    g = gen_poly(p1)

    def expected():
        return reference_weak_reduce(berezin(f, g, basis), analysis.records,
                                     "ignore")

    assert dirac_bracket(f, g, analysis) == expected() != const_poly(0)
    rec = ConstraintRecord("C1", gen_poly(p2), 0,
                           solved=try_solve(gen_poly(p2), basis))
    analysis.records.append(rec)
    assert dirac_bracket(f, g, analysis) == expected() == const_poly(0)
    rec.expr = gen_poly(q2)
    rec.solved = try_solve(rec.expr, basis)
    assert dirac_bracket(f, g, analysis) == expected() != const_poly(0)


def test_lift_null_vector_lets_unexpected_errors_through(monkeypatch):
    # only singular or non-numeric blocks mean "try the next pivot"
    import supermech.dirac as dirac

    def broken_solve_left(m, rhs):
        raise TypeError("unexpected")

    monkeypatch.setattr(dirac, "solve_left", broken_solve_left)
    with pytest.raises(TypeError, match="unexpected"):
        run_dirac(build_qed().legres)

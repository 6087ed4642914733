"""Hamilton-Jacobi family, total differentials, closure and the cross-check."""
import random

import pytest

from helpers import (
    HALF,
    HALF_I,
    bilinear,
    build_fermionic,
    build_gauge_toy,
    build_qed,
    build_sho,
    fixture_text,
    gamma_matrices,
    random_homogeneous,
)
from supermech.brackets import berezin
from supermech.dirac import run_dirac
from supermech.errors import CrossCheckMismatch
from supermech.frontend.parser import parse_model
from supermech.frontend.pipeline import run_pipeline
from supermech.hamilton_jacobi import (
    apply_X,
    build_hj_system,
    closure_loop,
    cross_check_dirac,
    integrability_matrix,
    total_differentials,
)
from supermech.superalgebra import (
    C_I,
    Coefficient,
    const_poly,
    gen_poly,
    parity_of,
)

MI = Coefficient(0, -1)


def test_build_sho_single_member():
    sho = build_sho()
    sys = build_hj_system(sho.legres)
    assert len(sys.parameters) == 1
    g = sho.gens
    assert sys.hamiltonians[sys.t0] == \
        gen_poly(sys.p0) + HALF * gen_poly(g["pq"]) ** 2 + HALF * gen_poly(g["q"]) ** 2


def test_build_gauge_toy_family():
    gt = build_gauge_toy()
    sys = build_hj_system(gt.legres)
    g = gt.gens
    assert sys.parameters == (sys.t0, g["q2"])
    assert sys.hamiltonians[g["q2"]] == gen_poly(g["p2"])
    assert sys.hamiltonians[sys.t0] == gen_poly(sys.p0) \
        + HALF * gen_poly(g["p1"]) ** 2 + gen_poly(g["p1"]) * gen_poly(g["q2"])


def test_build_fermionic_family():
    fo = build_fermionic()
    sys = build_hj_system(fo.legres)
    g = fo.gens
    assert sys.hamiltonians[sys.t0] == gen_poly(sys.p0) \
        + gen_poly(g["m"]) * gen_poly(g["psibar"]) * gen_poly(g["psi"])
    assert sys.hamiltonians[g["psi"]] == gen_poly(g["ppsi"]) - HALF_I * gen_poly(g["psibar"])
    assert sys.hamiltonians[g["psibar"]] == gen_poly(g["ppsibar"]) - HALF_I * gen_poly(g["psi"])


def test_total_differentials_sho_reduces_to_hamilton_equations():
    sho = build_sho()
    sys = build_hj_system(sho.legres)
    tds = total_differentials(sys)
    g = sho.gens
    # flow equals the bracket with the single family member
    assert tds.dq[(g["q"], sys.t0)] == gen_poly(g["pq"])
    assert tds.dq[(g["q"], sys.t0)] == berezin(
        gen_poly(g["q"]), sho.legres.h0, sho.model.phase_basis())
    assert tds.dp[(g["pq"], sys.t0)] == -gen_poly(g["q"])
    assert tds.dp[(g["pq"], sys.t0)] == berezin(
        gen_poly(g["pq"]), sho.legres.h0, sho.model.phase_basis())
    assert tds.dz[sys.t0] == HALF * gen_poly(g["pq"]) ** 2 - HALF * gen_poly(g["q"]) ** 2


def test_total_differentials_gauge_toy():
    gt = build_gauge_toy()
    sys = build_hj_system(gt.legres)
    tds = total_differentials(sys)
    g = gt.gens
    assert tds.dq[(g["q1"], sys.t0)] == gen_poly(g["p1"]) + gen_poly(g["q2"])
    assert tds.dp[(g["p2"], sys.t0)] == -gen_poly(g["p1"])
    assert tds.dq[(g["q2"], g["q2"])] == const_poly(1)  # identity row
    assert tds.dq[(g["q2"], sys.t0)].is_zero


def test_identity_rows_all_fixtures():
    for built in (build_sho(), build_gauge_toy(), build_fermionic(), build_qed()):
        sys = build_hj_system(built.legres)
        tds = total_differentials(sys)
        for alpha in sys.parameters:
            for beta in sys.parameters:
                coeff = tds.dq[(beta, alpha)]
                expect = const_poly(1) if alpha == beta else const_poly(0)
                assert coeff == expect


def test_apply_x_examples():
    sho = build_sho()
    sys = build_hj_system(sho.legres)
    assert apply_X(sys, 0, gen_poly(sho.gens["q"])) == gen_poly(sho.gens["pq"])
    gt = build_gauge_toy()
    sys = build_hj_system(gt.legres)
    g = gt.gens
    assert apply_X(sys, 1, gen_poly(g["q1"])).is_zero
    assert apply_X(sys, 1, gen_poly(g["p1"])).is_zero
    assert apply_X(sys, 1, gen_poly(g["q2"])) == const_poly(1)


def test_operator_commutator_identity():
    # [X_a, X_b] f = {f, {H'_b, H'_a}} on random arguments
    rng = random.Random(41)
    gt = build_gauge_toy()
    sys = build_hj_system(gt.legres)
    basis = sys.basis
    gens = [g for pair in basis.pairs for g in pair]
    members = [sys.hamiltonians[p] for p in sys.parameters]
    for _ in range(60):
        f = random_homogeneous(rng, gens, max_terms=3, max_degree=3)
        for a, ha in enumerate(members):
            for b, hb in enumerate(members):
                pa = parity_of(ha)
                pb = parity_of(hb)
                sign = -1 if (pa and pb) else 1
                lhs = berezin(berezin(f, hb, basis), ha, basis) \
                    - sign * berezin(berezin(f, ha, basis), hb, basis)
                rhs = berezin(f, berezin(hb, ha, basis), basis)
                assert lhs == rhs


def test_integrability_matrix_values():
    sho = build_sho()
    sys = build_hj_system(sho.legres)
    raw, _ = integrability_matrix(sys)
    assert len(raw) == 1 and raw[("H'0", "H'0")].is_zero

    fo = build_fermionic()
    sys = build_hj_system(fo.legres)
    raw, _ = integrability_matrix(sys)
    assert raw[("H'1", "H'2")] == const_poly(MI)


def test_closure_gauge_toy():
    gt = build_gauge_toy()
    sys = build_hj_system(gt.legres)
    report = closure_loop(sys)
    assert [str(m.expr) for m in report.added] == ["p_q1"]
    assert report.outcomes["H'1"].kind == "new_hamiltonian"
    assert report.outcomes["H'0"].kind == "weak_zero"
    assert report.outcomes["H'2"].kind == "strict_zero"
    assert not report.dt_relations
    assert not report.strictly_integrable  # {H'0, H'1} = p1 only weakly zero


def test_closure_fermionic_relations():
    fo = build_fermionic()
    sys = build_hj_system(fo.legres)
    report = closure_loop(sys)
    g = fo.gens
    assert not report.added
    assert report.outcomes["H'1"].kind == "dt_relation"
    assert report.outcomes["H'2"].kind == "dt_relation"
    assert report.outcomes["H'0"].kind == "weak_zero"
    assert report.dt_relations[g["psi"]] == MI * gen_poly(g["m"]) * gen_poly(g["psi"])
    assert report.dt_relations[g["psibar"]] == C_I * gen_poly(g["m"]) * gen_poly(g["psibar"])


def test_closure_reduced_model():
    qed = build_qed()
    sys = build_hj_system(qed.legres)
    report = closure_loop(sys)
    kinds = {label: out.kind for label, out in report.outcomes.items()}
    assert kinds["H'1"] == "new_hamiltonian"
    for k in range(2, 10):
        assert kinds[f"H'{k}"] == "dt_relation"
    assert kinds["H'0"] == "weak_zero"
    assert kinds["H'10"] == "weak_zero"
    # the added member is exactly the reduced secondary constraint
    g0 = gamma_matrices()[0]
    psb = [q for q, _, _ in qed.gens["psibar"]]
    psp = [gen_poly(q) for q, _, _ in qed.gens["psi"]]
    chi = -(gen_poly(qed.gens["e"]) * bilinear(g0, psb, psp))
    assert len(report.added) == 1 and report.added[0].expr == chi


def test_closure_reduced_model_relations_are_spinor_equations():
    qed = build_qed()
    sys = build_hj_system(qed.legres)
    report = closure_loop(sys)
    gammas = qed.gens["gammas"]
    e = gen_poly(qed.gens["e"])
    m = gen_poly(qed.gens["m"])
    psp = [gen_poly(q) for q, _, _ in qed.gens["psi"]]
    psbp = [gen_poly(q) for q, _, _ in qed.gens["psibar"]]
    amu = [gen_poly(qed.gens["A0"][0])] + [gen_poly(q) for q, _, _ in qed.gens["A"]]
    # column X_a = (e A_mu gamma^mu psi + m psi)_a
    x_col = []
    for a in range(4):
        acc = m * psp[a]
        for mu in range(4):
            for b in range(4):
                if gammas[mu][a][b].is_zero:
                    continue
                acc = acc + e * amu[mu] * gammas[mu][a][b] * psp[b]
        x_col.append(acc)
    # row Xbar_b = (e A_mu psibar gamma^mu + m psibar)_b
    x_row = []
    for b in range(4):
        acc = m * psbp[b]
        for mu in range(4):
            for a in range(4):
                if gammas[mu][a][b].is_zero:
                    continue
                acc = acc + e * amu[mu] * psbp[a] * gammas[mu][a][b]
        x_row.append(acc)
    g0 = gammas[0]
    for bidx, (q, _, _) in enumerate(qed.gens["psi"]):
        expect = const_poly(0)
        for c in range(4):
            if g0[bidx][c].is_zero:
                continue
            expect = expect + MI * g0[bidx][c] * x_col[c]
        assert report.dt_relations[q] == expect
    for aidx, (q, _, _) in enumerate(qed.gens["psibar"]):
        expect = const_poly(0)
        for c in range(4):
            if g0[c][aidx].is_zero:
                continue
            expect = expect + C_I * x_row[c] * g0[c][aidx]
        assert report.dt_relations[q] == expect
    assert qed.gens["A0"][0] not in report.dt_relations


def test_df_assembly_matches_bracket():
    # assembling dF from the flow coefficients equals {F, H'_a} for each a
    rng = random.Random(42)
    for built in (build_sho(), build_gauge_toy(), build_fermionic()):
        sys = build_hj_system(built.legres)
        tds = total_differentials(sys)
        basis = sys.basis
        gens = [g for pair in basis.pairs for g in pair]
        from supermech.superalgebra import derive_right

        for _ in range(40):
            f = random_homogeneous(rng, gens, max_terms=3, max_degree=3)
            for alpha in sys.parameters:
                assembled = const_poly(0)
                for qq, pp in basis.pairs:
                    assembled = assembled \
                        + derive_right(f, qq) * tds.dq[(qq, alpha)] \
                        + derive_right(f, pp) * tds.dp[(pp, alpha)]
                direct = berezin(f, sys.hamiltonians[alpha], basis)
                assert assembled == direct, (str(f), str(alpha))


def test_simpletic_route_gives_same_flow():
    from supermech.brackets import SimplecticMetric, simpletic_bracket

    rng = random.Random(43)
    fo = build_fermionic()
    sys = build_hj_system(fo.legres)
    metric = SimplecticMetric(sys.basis)
    gens = [g for pair in sys.basis.pairs for g in pair]
    for _ in range(60):
        f = random_homogeneous(rng, gens, max_terms=3, max_degree=3)
        for alpha in sys.parameters:
            assert simpletic_bracket(f, sys.hamiltonians[alpha], metric) == \
                berezin(f, sys.hamiltonians[alpha], sys.basis)


def test_cross_check_all_fixtures():
    for built in (build_sho(), build_free_singular_like(), build_gauge_toy(),
                  build_fermionic(), build_qed()):
        sys = build_hj_system(built.legres)
        report = closure_loop(sys)
        analysis = run_dirac(built.legres)
        cc = cross_check_dirac(report, analysis)
        assert cc.verdict == "equivalent", (built.model.name, cc.mismatched)


def build_free_singular_like():
    from helpers import build_free_singular

    return build_free_singular()


def test_strictly_integrable_commutators_annihilate():
    # with a strictly closed family, [X_a, X_b] kills every test function
    from helpers import build_free_singular

    rng = random.Random(44)
    fs = build_free_singular()
    sys = build_hj_system(fs.legres)
    report = closure_loop(sys)
    assert report.strictly_integrable
    basis = sys.basis
    gens = [g for pair in basis.pairs for g in pair]
    members = [m.expr for m in report.family]
    for _ in range(40):
        f = random_homogeneous(rng, gens, max_terms=3, max_degree=3)
        for ha in members:
            for hb in members:
                sign = -1 if (parity_of(ha) and parity_of(hb)) else 1
                commutator = berezin(berezin(f, hb, basis), ha, basis) \
                    - sign * berezin(berezin(f, ha, basis), hb, basis)
                assert commutator.is_zero


def test_cross_check_multiplier_values_match_relations():
    fo = build_fermionic()
    sys = build_hj_system(fo.legres)
    report = closure_loop(sys)
    analysis = run_dirac(fo.legres)
    for q, v in analysis.multipliers.items():
        assert v == report.dt_relations[q]


def test_cross_check_strict_reduced_model():
    result = run_pipeline(parse_model(fixture_text("dirac_maxwell_reduced.smf")),
                          stage="hj")
    cc = cross_check_dirac(result.closure, result.analysis, strict=True)
    assert cc.verdict == "equivalent" and not cc.mismatched
    secondary = [r for r in result.analysis.records
                 if r.origin == "consistency"][0]
    a1 = result.elaborated.lookup("A", 1)
    secondary.expr = gen_poly(a1)
    with pytest.raises(CrossCheckMismatch) as err:
        cross_check_dirac(result.closure, result.analysis, strict=True)
    assert f"secondary {secondary.name} has no added member" in err.value.items

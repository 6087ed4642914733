"""Hamilton-Jacobi family, total differentials, closure and the cross-check."""
import contextlib
import io
import json
import random

import pytest

from helpers import (
    DATA,
    FIXTURES,
    HALF,
    HALF_I,
    bilinear,
    build_fermionic,
    build_free_singular,
    build_gauge_toy,
    build_qed,
    build_sho,
    fixture_text,
    gamma_matrices,
    integrability_matrix,
    random_homogeneous,
    simpletic_bracket,
)
from supermech.brackets import berezin
from supermech.dirac import ConstraintRecord, run_dirac
from supermech.errors import Inconsistent
from supermech.frontend import cli, pipeline
from supermech.frontend.parser import parse_model
from supermech.frontend.pipeline import run_pipeline
from supermech.hamilton_jacobi import (
    build_hj_system,
    closure_loop,
    cross_check_dirac,
    total_differentials,
)
from supermech.superalgebra import (
    C_I,
    Coefficient,
    ZERO,
    const_poly,
    gen_poly,
    parity_of,
    substitute,
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


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.smf")) + sorted(DATA.glob("*.smf")),
                         ids=lambda path: path.stem)
def test_dirac_and_hj_read_the_legendre_primary_constraints(path):
    # Phi_alpha is built once, by the Legendre stage: the Dirac stage-0
    # records and the family's H'_alpha are that same object
    result = run_pipeline(parse_model(path.read_text(encoding="utf-8")), stage="hj")
    primary = result.legres.primary
    records = [rec for rec in result.analysis.records if rec.origin == "primary"]
    assert [rec.coordinate for rec in records] == list(primary)
    assert result.hj_system.parameters[1:] == tuple(primary)
    for rec in records:
        assert rec.expr is primary[rec.coordinate]
        assert result.hj_system.hamiltonians[rec.coordinate] is primary[rec.coordinate]


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


ODD_VELOCITIES = """model odd_velocities
even x
odd th1 th2
lagrangian: 1/2*dot(x)*dot(x) + dot(th1)*dot(th2) + x*th1*th2
"""


def test_dz_of_odd_expressible_coordinates_is_the_lagrangian():
    # along t0, dZ = p_i dq^i - H0 dt0 is L on the solved velocities; the
    # p_th terms come in with the odd coordinates' sign, and no fixture has
    # an expressible odd coordinate whose momentum enters H0
    result = run_pipeline(parse_model(ODD_VELOCITIES), stage="hj")
    legres = result.legres
    dz = result.tds.dz[result.hj_system.t0]
    assert dz == substitute(legres.model.lagrangian, legres.solved_velocities)
    assert str(dz) == "x*th1*th2 + 1/2*p_x^2 + p_th1*p_th2"


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
    # the flow operator of parameter alpha: X_alpha f = {f, H'_alpha}
    sho = build_sho()
    sys = build_hj_system(sho.legres)
    t0 = sys.parameters[0]
    assert berezin(gen_poly(sho.gens["q"]), sys.hamiltonians[t0],
                   sys.basis) == gen_poly(sho.gens["pq"])
    gt = build_gauge_toy()
    sys = build_hj_system(gt.legres)
    g = gt.gens
    h1 = sys.hamiltonians[sys.parameters[1]]
    assert berezin(gen_poly(g["q1"]), h1, sys.basis).is_zero
    assert berezin(gen_poly(g["p1"]), h1, sys.basis).is_zero
    assert berezin(gen_poly(g["q2"]), h1, sys.basis) == const_poly(1)


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


def _all_fixtures():
    return (build_sho(), build_free_singular(), build_gauge_toy(),
            build_fermionic(), build_qed())


def test_closure_computes_each_family_bracket_once(monkeypatch):
    # one {H'_b, H'_a} per unordered pair of the closed family, and nothing
    # more: the other order follows by graded antisymmetry
    import supermech.hamilton_jacobi as hj

    calls = []

    def counting_berezin(f, g, basis):
        calls.append((f, g))
        return berezin(f, g, basis)

    monkeypatch.setattr(hj, "berezin", counting_berezin)
    counts = {}
    for built in _all_fixtures():
        calls.clear()
        report = closure_loop(build_hj_system(built.legres))
        n = len(report.family)
        assert len(calls) == n * (n + 1) // 2
        assert len({frozenset((id(f), id(g))) for f, g in calls}) == len(calls)
        counts[built.model.name] = len(calls)
    assert counts == {"sho": 1, "free_singular": 3, "gauge_toy": 6,
                      "fermionic_oscillator": 6, "dirac_maxwell_reduced": 66}


def test_closure_matrix_matches_integrability_matrix():
    for built in _all_fixtures():
        sys = build_hj_system(built.legres)
        report = closure_loop(sys)
        raw, reduced = integrability_matrix(sys, report.family)
        assert list(report.matrix_raw.items()) == list(raw.items())
        assert list(report.matrix_reduced.items()) == list(reduced.items())


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


def _leave_every_row_implicit(monkeypatch):
    import supermech.hamilton_jacobi as hj

    monkeypatch.setattr(hj, "solve_linear_rows",
                        lambda rows, unknowns, reduce_fn: ({}, set(), [], list(rows)))


def test_closure_stops_on_implicit_rows(monkeypatch):
    # no relation row has a pivot, so each one is marked implicit and the
    # loop stops in its first round
    _leave_every_row_implicit(monkeypatch)
    result = run_pipeline(parse_model(fixture_text("fermionic_oscillator.smf")),
                          stage="all")
    closure = result.closure
    assert {label: (out.kind, out.detail) for label, out in closure.outcomes.items()} \
        == {f"H'{k}": ("dt_relation", "implicit") for k in range(3)}
    assert not closure.dt_relations
    assert result.crosscheck.verdict == "mismatch"


def test_closure_implicit_stop_keeps_an_added_member(monkeypatch):
    _leave_every_row_implicit(monkeypatch)
    result = run_pipeline(parse_model(fixture_text("dirac_maxwell_reduced.smf")),
                          stage="all")
    kinds = {label: (out.kind, out.detail) for label, out in result.closure.outcomes.items()}
    assert kinds == {"H'1": ("new_hamiltonian", "adds H'10"),
                     **{f"H'{k}": ("dt_relation", "implicit")
                        for k in (0, *range(2, 11))}}
    assert result.closure.rounds == 2
    assert not result.closure.dt_relations


GAUGE_AND_FERMION = """model gauge_and_fermion
even q1 q2
odd psi psibar
param m: even
lagrangian: 1/2*(dot(q1) - q2)*(dot(q1) - q2) + 1/2*i*(psibar*dot(psi) - dot(psibar)*psi) - m*psibar*psi
"""


def test_closure_implicit_stop_gives_no_zero_kind(monkeypatch):
    # the gauge sector adds H'4 = p_q1 in round 1; in round 2 the fermion
    # rows stay implicit while H'4's row vanishes, and a stop on implicit
    # rows leaves a vanishing row without an outcome
    _leave_every_row_implicit(monkeypatch)
    closure = run_pipeline(parse_model(GAUGE_AND_FERMION), stage="hj").closure
    assert [str(m.expr) for m in closure.added] == ["p_q1"]
    assert {label: (out.kind, out.detail) for label, out in closure.outcomes.items()} == {
        "H'1": ("new_hamiltonian", "adds H'4"),
        **{f"H'{k}": ("dt_relation", "implicit") for k in (0, 2, 3)}}


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
    # each flow coefficient is a bracket with H'_a, {q, H'_a} and {p, H'_a},
    # and assembling dF from them equals {F, H'_a} for each a: on the test
    # builders and on every fixture and tests/data model
    from supermech.superalgebra import derive_right

    rng = random.Random(42)
    legs = [built.legres for built in (build_sho(), build_gauge_toy(), build_fermionic())]
    legs += [run_pipeline(parse_model(path.read_text(encoding="utf-8")),
                          stage="legendre").legres
             for path in sorted(FIXTURES.glob("*.smf")) + sorted(DATA.glob("*.smf"))]
    for legres in legs:
        sys = build_hj_system(legres)
        tds = total_differentials(sys)
        basis = sys.basis
        gens = [g for pair in basis.pairs for g in pair]
        for alpha in sys.parameters:
            h = sys.hamiltonians[alpha]
            for qq, pp in basis.pairs:
                assert tds.dq[(qq, alpha)] == berezin(gen_poly(qq), h, basis)
                assert tds.dp[(pp, alpha)] == berezin(gen_poly(pp), h, basis)
        for _ in range(40):
            f = random_homogeneous(rng, gens, max_terms=3, max_degree=3)
            for alpha in sys.parameters:
                assembled = const_poly(0)
                for qq, pp in basis.pairs:
                    assembled = assembled \
                        + derive_right(f, qq) * tds.dq[(qq, alpha)] \
                        + derive_right(f, pp) * tds.dp[(pp, alpha)]
                direct = berezin(f, sys.hamiltonians[alpha], basis)
                assert assembled == direct, (legres.model.name, str(f), str(alpha))


def test_simpletic_route_gives_same_flow():
    rng = random.Random(43)
    fo = build_fermionic()
    sys = build_hj_system(fo.legres)
    gens = [g for pair in sys.basis.pairs for g in pair]
    for _ in range(60):
        f = random_homogeneous(rng, gens, max_terms=3, max_degree=3)
        for alpha in sys.parameters:
            assert simpletic_bracket(f, sys.hamiltonians[alpha], sys.basis) == \
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
    cc = cross_check_dirac(result.closure, result.analysis)
    assert cc.verdict == "equivalent" and not cc.mismatched
    secondary = [r for r in result.analysis.records
                 if r.origin == "consistency"][0]
    a1 = result.elaborated.lookup("A", 1)
    secondary.expr = gen_poly(a1)
    cc = cross_check_dirac(result.closure, result.analysis)
    assert cc.verdict == "mismatch"
    assert f"secondary {secondary.name} has no added member" in cc.mismatched


def _hj_run(name):
    result = run_pipeline(parse_model(fixture_text(name)), stage="hj")
    assert result.crosscheck.verdict == "equivalent"
    return result


def _determine_q2(result):
    result.analysis.multipliers[result.elaborated.lookup("q2")] = ZERO
    return "multiplier for q2 has no dt relation"


def _shift_psi_multiplier(result):
    psi = result.elaborated.lookup("psi")
    result.analysis.multipliers[psi] += gen_poly(psi)
    return "multiplier for psi differs from dt relation: psi"


def _forget_psibar_multiplier(result):
    result.analysis.multipliers[result.elaborated.lookup("psibar")] = None
    return "dt relation for psibar has no determined multiplier"


def _add_record_off_hj_surface(result):
    q1 = result.elaborated.lookup("q1")
    result.analysis.records.append(ConstraintRecord("Phi3", gen_poly(q1), 1))
    return "Phi3 not on the HJ surface: q1"


def _supersede_secondary(result):
    secondary = next(rec for rec in result.analysis.records
                     if rec.origin == "consistency")
    secondary.superseded = True
    return "H'2 not on the constraint surface: p_q1"


@pytest.mark.parametrize("name, perturb", [
    ("gauge_toy.smf", _determine_q2),
    ("fermionic_oscillator.smf", _shift_psi_multiplier),
    ("fermionic_oscillator.smf", _forget_psibar_multiplier),
    ("gauge_toy.smf", _add_record_off_hj_surface),
    ("gauge_toy.smf", _supersede_secondary),
])
def test_cross_check_mismatch_lines(name, perturb):
    # each perturbation of the Dirac analysis breaks one correspondence,
    # which the cross-check reports as exactly one line
    result = _hj_run(name)
    line = perturb(result)
    cc = cross_check_dirac(result.closure, result.analysis)
    assert cc.verdict == "mismatch"
    assert cc.mismatched == [line]


def test_cli_mismatch_exits_3(monkeypatch):
    def perturbed_dirac(legres):
        analysis = run_dirac(legres)
        psibar = next(q for q in analysis.multipliers if str(q) == "psibar")
        analysis.multipliers[psibar] = None
        return analysis

    monkeypatch.setattr(pipeline, "run_dirac", perturbed_dirac)
    path = str(FIXTURES / "fermionic_oscillator.smf")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", path, "--stage", "hj"])
    assert (code, err.getvalue()) == (3, "")
    assert "  MISMATCH: dt relation for psibar has no determined multiplier\n" \
        in out.getvalue()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["analyze", path, "--stage", "hj", "--format", "structured"])
    assert code == 3
    cc = json.loads(out.getvalue())["hj"]["cross_check"]
    assert cc["verdict"] == "mismatch"
    assert cc["mismatched"] == ["dt relation for psibar has no determined multiplier"]


def test_closure_loop_refuses_a_differential_that_is_a_constant():
    # L = x: H'1 = p_x - x, whose differential along t0 reduces to 1; the
    # pipeline's Dirac stage refuses the model first (exit 3)
    result = run_pipeline(parse_model("model m\neven x\nlagrangian: x\n"),
                          stage="legendre")
    with pytest.raises(Inconsistent, match="dH'1 reduces to the constant 1"):
        closure_loop(build_hj_system(result.legres))

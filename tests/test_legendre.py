"""Legendre analysis: momenta, Hessian rank, velocity solving and H0."""
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
    random_graded_body,
    reference_rank_and_split,
)
from supermech import legendre
from supermech.errors import NonNumericBody, SingularBody, UnsupportedLagrangian
from supermech.frontend.parser import parse_model
from supermech.frontend.pipeline import run_pipeline
from supermech.legendre import ModelBuilder, analyze, rank_and_split
from supermech.superalgebra import (
    C_I,
    Generator,
    Kind,
    Parity,
    const_poly,
    contains,
    gen_poly,
    parity_of,
    substitute,
)


def test_sho_momentum_and_h0():
    sho = build_sho()
    g = sho.gens
    assert sho.legres.momenta_defs[g["q"]] == gen_poly(g["qd"])
    assert sho.legres.rank == 1
    assert sho.legres.solved_velocities[g["qd"]] == gen_poly(g["pq"])
    assert sho.legres.h0 == HALF * gen_poly(g["pq"]) ** 2 + HALF * gen_poly(g["q"]) ** 2


def test_fermionic_momenta_and_h0():
    fo = build_fermionic()
    g = fo.gens
    assert fo.legres.momenta_defs[g["psi"]] == HALF_I * gen_poly(g["psibar"])
    assert fo.legres.momenta_defs[g["psibar"]] == HALF_I * gen_poly(g["psi"])
    assert fo.legres.rank == 0
    assert fo.legres.solved_velocities == {}
    assert fo.legres.primary_h[g["psi"]] == -(HALF_I * gen_poly(g["psibar"]))
    assert fo.legres.primary_h[g["psibar"]] == -(HALF_I * gen_poly(g["psi"]))
    assert fo.legres.h0 == gen_poly(g["m"]) * gen_poly(g["psibar"]) * gen_poly(g["psi"])


def test_gauge_toy_full_chain():
    gt = build_gauge_toy()
    g = gt.gens
    legres = gt.legres
    assert [[str(e) for e in row] for row in legres.hessian] == [["1", "0"], ["0", "0"]]
    assert legres.rank == 1
    assert legres.split.expressible == (0,)
    assert legres.split.unexpressed == (1,)
    assert legres.solved_velocities[g["q1d"]] == gen_poly(g["p1"]) + gen_poly(g["q2"])
    assert legres.primary_h[g["q2"]].is_zero
    assert legres.h0 == HALF * gen_poly(g["p1"]) ** 2 + gen_poly(g["p1"]) * gen_poly(g["q2"])


def test_hessian_fermionic_is_zero():
    fo = build_fermionic()
    assert all(e.is_zero for row in fo.legres.hessian for e in row)


def test_rank_split_examples():
    gt = build_gauge_toy()
    split = rank_and_split(gt.legres.hessian)
    assert split.rank == 1 and split.expressible == (0,) and split.unexpressed == (1,)
    fo = build_fermionic()
    split = rank_and_split(fo.legres.hessian)
    assert split.rank == 0 and split.expressible == ()


def test_rank_split_matches_subset_scan_on_fixtures():
    names = ["sho", "free_singular", "gauge_toy", "fermionic_oscillator",
             "dirac_maxwell_reduced"]
    hessians = [run_pipeline(parse_model(fixture_text(f"{name}.smf")),
                             stage="legendre").legres.hessian for name in names]
    b = ModelBuilder("odd_kinetic")
    _, ad, _ = b.coordinate("a", Parity.ODD)
    _, xd, _ = b.coordinate("x", Parity.EVEN)
    _, cd, _ = b.coordinate("c", Parity.ODD)
    hessians.append(analyze(b.finish(
        C_I * gen_poly(ad) * gen_poly(cd) + gen_poly(xd) ** 2)).hessian)
    for hess in hessians:
        assert rank_and_split(hess) == reference_rank_and_split(hess)
    assert rank_and_split(hessians[-1]).expressible == (0, 1, 2)


def test_rank_split_matches_subset_scan_on_random_graded_bodies():
    rng = random.Random(20260)
    ranks = set()
    for trial in range(1000):
        n = 1 + trial % 7
        hess, parities = random_graded_body(rng, n)
        sign = [-1 if p == Parity.ODD else 1 for p in parities]
        # graded symmetry B^T = B D
        assert all(hess[j][i] == hess[i][j] * sign[j]
                   for i in range(n) for j in range(n))
        split = rank_and_split(hess)
        assert split == reference_rank_and_split(hess)
        ranks.add((n, split.rank))
    # full rank, rank 0 and deficient ranks in between all occur
    assert {(7, 0), (7, 7), (7, 3), (6, 4)} <= ranks


def test_rank_split_checks_one_block(monkeypatch):
    # the expressible block is the last 4 of 16 coordinates; a subset scan
    # would try C(16, 4) = 1820 blocks
    source = """model wide
even w[16]
lagrangian: 1/2*sum(j in 13..16, dot(w)[j]*dot(w)[j]) - sum(j in 1..16, w[j]*w[j])
"""
    calls = []
    body_rank = legendre.body_rank

    def counting(b):
        calls.append(len(b))
        return body_rank(b)

    monkeypatch.setattr(legendre, "body_rank", counting)
    legres = run_pipeline(parse_model(source), stage="legendre").legres
    assert legres.split.expressible == (12, 13, 14, 15)
    assert calls == [4]


def test_rank_split_rejects_non_graded_symmetric_body():
    hess = [[const_poly(0), const_poly(1)], [const_poly(0), const_poly(0)]]
    with pytest.raises(SingularBody, match="not graded-symmetric"):
        rank_and_split(hess)


def test_rank_split_reduced_model():
    qed = build_qed()
    assert qed.legres.rank == 3
    assert [str(qed.model.coordinates[i]) for i in qed.legres.split.expressible] == \
        ["A[1]", "A[2]", "A[3]"]


def test_reduced_model_momenta_and_constraints():
    qed = build_qed()
    legres = qed.legres
    g0 = gamma_matrices()[0]
    psib = [q for q, _, _ in qed.gens["psibar"]]
    for b, (q, _, _) in enumerate(qed.gens["psi"]):
        expect = C_I * g0[b][b] * gen_poly(psib[b])  # diagonal gamma0
        assert legres.momenta_defs[q] == expect
    for q, _, _ in qed.gens["psibar"]:
        assert legres.momenta_defs[q].is_zero
    assert legres.momenta_defs[qed.gens["A0"][0]].is_zero
    # primary constraints: p_A0; p_psi - i psibar gamma0; p_psibar
    primaries = legres.primary
    a0 = qed.gens["A0"][0]
    assert primaries[a0] == gen_poly(qed.model.momentum(a0))


def test_reduced_model_h0():
    qed = build_qed()
    g = qed.gens
    gammas = g["gammas"]
    psb = [q for q, _, _ in g["psibar"]]
    psp = [gen_poly(q) for q, _, _ in g["psi"]]
    expect = const_poly(0)
    for q, _, p in [g["A0"]] + g["A"]:
        if str(q) != "A0":
            expect = expect + HALF * gen_poly(p) ** 2
    amu = [gen_poly(g["A0"][0])] + [gen_poly(q) for q, _, _ in g["A"]]
    for mu in range(4):
        expect = expect + gen_poly(g["e"]) * amu[mu] * bilinear(gammas[mu], psb, psp)
    mass = const_poly(0)
    for a in range(4):
        mass = mass + gen_poly(psb[a]) * psp[a]
    expect = expect + gen_poly(g["m"]) * mass
    assert qed.legres.h0 == expect


def test_h0_independent_of_unexpressed_velocities():
    from supermech.superalgebra import derive_right

    for built in (build_gauge_toy(), build_fermionic(), build_qed()):
        for q in built.legres.unexpressed_coords:
            v = built.model.velocity(q)
            assert derive_right(built.legres.h0, v).is_zero


def test_solved_velocities_reproduce_momenta():
    for built in (build_sho(), build_gauge_toy(), build_qed()):
        legres = built.legres
        for q in legres.expressible_coords:
            reproduced = substitute(legres.momenta_defs[q], legres.solved_velocities)
            assert reproduced == gen_poly(built.model.momentum(q))


def test_constraint_parity_matches_coordinate():
    for built in (build_gauge_toy(), build_fermionic(), build_qed()):
        for q, expr in built.legres.primary.items():
            assert parity_of(expr) == q.parity


def test_cubic_velocity_rejected():
    b = ModelBuilder("cubic")
    q, qd, _ = b.coordinate("q", Parity.EVEN)
    model = b.finish(gen_poly(qd) ** 3)
    with pytest.raises(UnsupportedLagrangian, match="more than quadratic in velocities"):
        analyze(model)
    # each velocity sits only in off-diagonal entries: (q, s) holds dot(r)
    b = ModelBuilder("cubic_off_diagonal")
    q, qd, _ = b.coordinate("q", Parity.EVEN)
    r, rd, _ = b.coordinate("r", Parity.EVEN)
    s, sd, _ = b.coordinate("s", Parity.EVEN)
    model = b.finish(HALF * gen_poly(qd) ** 2 + HALF * gen_poly(sd) ** 2
                     + gen_poly(qd) * gen_poly(sd) * gen_poly(rd))
    with pytest.raises(UnsupportedLagrangian, match="more than quadratic in velocities"):
        analyze(model)


def test_coordinate_dependent_kinetic_rejected():
    b = ModelBuilder("curved")
    q, qd, _ = b.coordinate("q", Parity.EVEN)
    model = b.finish(HALF * gen_poly(q) ** 2 * gen_poly(qd) ** 2)
    with pytest.raises(NonNumericBody):
        analyze(model)


def test_coupled_rows_reduce_exactly():
    # L = 1/2 (qdot1 + qdot2)^2: rank 1, constraint p2 - p1
    b = ModelBuilder("coupled")
    q1, q1d, p1 = b.coordinate("q1", Parity.EVEN)
    q2, q2d, p2 = b.coordinate("q2", Parity.EVEN)
    model = b.finish(HALF * (gen_poly(q1d) + gen_poly(q2d)) ** 2)
    legres = analyze(model)
    assert legres.rank == 1
    (coord, constraint), = legres.primary.items()
    assert coord == q2
    assert constraint == gen_poly(p2) - gen_poly(p1)
    assert not contains(legres.h0, q1d) and not contains(legres.h0, q2d)
    assert legres.h0 == HALF * gen_poly(p1) ** 2


def test_model_refuses_an_odd_lagrangian_or_a_stray_velocity():
    b = ModelBuilder("m")
    q, _, _ = b.coordinate("q", Parity.EVEN)
    _, thd, _ = b.coordinate("th", Parity.ODD)
    with pytest.raises(UnsupportedLagrangian, match="must be even"):
        b.finish(gen_poly(thd) * gen_poly(q))
    stray = gen_poly(Generator("dot(r)", Parity.EVEN, Kind.VELOCITY, None, 9))
    with pytest.raises(UnsupportedLagrangian, match="has no declared coordinate"):
        b.finish(stray * stray)

"""Constraint algorithm: consistency, classification, inversion, brackets."""
import json
import random
from fractions import Fraction

import pytest

from helpers import (
    DATA,
    FIXTURES,
    ReferenceSpan,
    build_fermionic,
    build_free_singular,
    build_gauge_toy,
    build_qed,
    build_sho,
    data_text,
    gamma_matrices,
    mat_mul,
    random_homogeneous,
    random_poly,
    random_supermatrix,
    reference_bracket_table,
    reference_constraint_matrix,
    reference_invert_supermatrix,
    reference_solve_linear_rows,
    reference_substitute,
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
from supermech.errors import (
    MixedParity,
    NonNumericBody,
    SingularBody,
    UnsolvableConstraint,
    UnsupportedLagrangian,
)
from supermech.frontend import cli
from supermech.frontend.parser import parse_model
from supermech.frontend.pipeline import run_pipeline
from supermech.smatrix import (
    SpanReducer,
    body_nullspace,
    body_pivots,
    body_rank,
    pivot_inverse,
    solve_left,
    solve_linear_rows,
)
from supermech.brackets import PhaseBasis
from supermech.superalgebra import (
    C_I,
    Coefficient,
    Generator,
    Kind,
    Parity,
    ZERO,
    as_poly,
    const_poly,
    gen_poly,
    parity_of,
    substitute,
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
    outcomes = consistency_step(analysis)
    assert all(kind == "zero" for _, kind, _ in outcomes)

    # the fermionic sweep classifies both rows as multiplier equations
    fo = build_fermionic()
    fresh = run_dirac(fo.legres)
    for q in fresh.multipliers:
        fresh.multipliers[q] = None  # forget the solutions, re-derive
    outcomes = consistency_step(fresh)
    assert sorted(kind for _, kind, _ in outcomes) == ["multiplier", "multiplier"]


def test_constraint_matrix_single_even_first_class():
    gt = build_gauge_toy()
    basis = gt.model.phase_basis()
    delta = constraint_matrix([gen_poly(gt.gens["p2"])], basis, Surface([]))
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
    # soul entries: each pivot's inverse is a series in its soul that ends
    # because the soul is nilpotent
    fo = build_fermionic()
    g = fo.gens
    th = gen_poly(g["psi"]) * gen_poly(g["psibar"])
    m = [[const_poly(1) + th, const_poly(0)], [th, const_poly(2)]]
    inv = invert_supermatrix(m)
    assert mat_mul(m, inv) == [[const_poly(1), const_poly(0)],
                               [const_poly(0), const_poly(1)]]
    assert pivot_inverse(const_poly(2) - th) * (const_poly(2) - th) == const_poly(1)
    # the pivot rule: a zero body or a non-constant even part is no pivot
    assert pivot_inverse(th) is None and pivot_inverse(const_poly(0)) is None
    assert pivot_inverse(const_poly(1) + gen_poly(g["m"])) is None


def _random_body(rng, nrows, ncols):
    """Gaussian-rational matrix of random rank: a product of two factors."""
    k = rng.randint(0, min(nrows, ncols))

    def entry():
        return Coefficient(rng.randint(-3, 3), rng.choice((0, rng.randint(-2, 2))))

    left = [[entry() for _ in range(k)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(k)]
    return [[sum((left[i][t] * right[t][j] for t in range(k)), Coefficient())
             for j in range(ncols)] for i in range(nrows)]


def test_body_elimination_kernel():
    rng = random.Random(7)
    zero = Coefficient()
    inverted = singular = 0
    for trial in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        if trial % 3 == 0:
            ncols = nrows
        b = _random_body(rng, nrows, ncols)
        pivots = body_pivots(b)
        rank = body_rank(b)
        assert rank == len(pivots)
        # pivots are the first column basis: each one raises the prefix rank
        for j in range(ncols):
            grows = (body_rank([row[:j + 1] for row in b])
                     > body_rank([row[:j] for row in b]))
            assert grows == (j in pivots)
        null = body_nullspace(b)
        assert list(null) == [j for j in range(ncols) if j not in pivots]
        for vec in null.values():
            assert all(sum((row[j] * vec[j] for j in range(ncols)), zero).is_zero
                       for row in b)
        if nrows != ncols:
            continue
        # a constant supermatrix is inverted on its body alone
        m = [[const_poly(x) for x in row] for row in b]
        if rank < nrows:
            singular += 1
            with pytest.raises(SingularBody):
                invert_supermatrix(m)
            continue
        inverted += 1
        inv = invert_supermatrix(m)
        assert all(x.is_constant for row in inv for x in row)
        assert mat_mul(inv, m) == \
            [[const_poly(int(i == j)) for j in range(nrows)] for i in range(nrows)]
    assert inverted > 10 and singular > 10


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (SingularBody, NonNumericBody) as exc:
        return type(exc)


def test_invert_and_solve_graded_supermatrices_match_reference():
    # the elimination on body-invertible pivots against the body inverse
    # composed with a Neumann series over the souls
    rng = random.Random(17)
    outcomes = {"inverse": 0, SingularBody: 0, NonNumericBody: 0}
    for _ in range(150):
        n = rng.randint(1, 4)
        m = random_supermatrix(rng, n)
        rhs = [random_supermatrix(rng, 1)[0][0] for _ in range(n)]
        ref = _outcome(reference_invert_supermatrix, m)
        inv = _outcome(invert_supermatrix, m)
        x = _outcome(solve_left, m, rhs)
        if isinstance(ref, type):
            assert inv is ref and x is ref
            outcomes[ref] += 1
            continue
        outcomes["inverse"] += 1
        ident = [[const_poly(int(i == j)) for j in range(n)] for i in range(n)]
        assert mat_mul(m, inv) == ident and mat_mul(inv, m) == ident
        assert inv == ref
        assert x == [row[0] for row in mat_mul(ref, [[v] for v in rhs])]
    assert min(outcomes.values()) >= 5, outcomes


def _random_row_system(rng, q, psi, chi):
    """Rows const + sum_k coeff_k * x_k = 0 over 1-4 unknowns: numeric,
    soul-carrying (psi*chi) and non-numeric (+ q) coefficients, 1-5 rows,
    and constants that are consistent with a chosen solution or random."""
    soul = gen_poly(psi) * gen_poly(chi)
    unknowns = [f"x{k}" for k in range(rng.randint(1, 4))]

    def entry():
        p = const_poly(Coefficient(rng.choice((0, rng.randint(-3, 3), rng.randint(1, 3))),
                                   rng.choice((0, 0, rng.randint(-2, 2)))))
        if rng.random() < 0.3:
            p = p + soul * rng.randint(-2, 2)
        if rng.random() < 0.1:
            p = p + gen_poly(q)
        return p

    target = {u: entry() for u in unknowns}
    consistent = rng.random() < 0.5
    rows = []
    for r in range(rng.randint(1, 5)):
        coeffs = {u: entry() for u in unknowns if rng.random() < 0.7}
        coeffs = {u: c for u, c in coeffs.items() if not c.is_zero}
        const = ZERO
        for u, c in coeffs.items():
            const = const - c * target[u]
        if not consistent or rng.random() < 0.1:
            const = entry()
        rows.append((f"r{r}", const, coeffs))
    return rows, unknowns


def test_solve_linear_rows_matches_reference():
    # the single pivots, the one block elimination and the residual and
    # implicit rows, against the former solver kept in tests/helpers.py
    rng = random.Random(27)
    q = Generator("sq", Parity.EVEN, Kind.COORDINATE, None, 0)
    psi = Generator("spsi", Parity.ODD, Kind.COORDINATE, None, 1)
    chi = Generator("schi", Parity.ODD, Kind.COORDINATE, None, 2)
    reductions = (lambda p: p, lambda p: substitute(p, {q: const_poly(2)}))
    seen = {"block": 0, "residual": 0, "implicit": 0}
    for trial in range(1500):
        rows, unknowns = _random_row_system(rng, q, psi, chi)
        reduce_fn = reductions[trial % 2]
        got = solve_linear_rows(rows, unknowns, reduce_fn)
        ref = reference_solve_linear_rows(rows, unknowns, reduce_fn)
        assert got[:3] == ref[:3], rows
        assert [row[0] for row in got[3]] == [row[0] for row in ref[3]], rows
        # no row starts with a single unknown, so a solve is a block solve
        seen["block"] += bool(got[0]) and all(len(c) != 1 for _, _, c in rows)
        seen["residual"] += bool(got[2])
        seen["implicit"] += bool(got[3])
    assert min(seen.values()) >= 50, seen


def test_span_reducer_matches_reference():
    # normal forms over spans with complex coefficients, constant monomials
    # and dependent rows, against the former span kept in tests/helpers.py
    rng = random.Random(270)
    gens = [Generator(f"sg{k}", Parity(k % 2), Kind.COORDINATE, None, k)
            for k in range(4)]
    for _ in range(600):
        span, ref = SpanReducer(), ReferenceSpan()
        added = []
        for _ in range(rng.randint(1, 5)):
            if added and rng.random() < 0.3:
                expr = added[0] * rng.randint(-2, 2) + added[-1] * Coefficient(1, 1)
            else:
                expr = random_poly(rng, gens, max_terms=4, max_degree=2)
            added.append(expr)
            span.add(expr)
            ref.add(expr)
        for _ in range(3):
            p = random_poly(rng, gens, max_terms=5, max_degree=2)
            if rng.random() < 0.4:
                p = p + rng.choice(added) * Coefficient(rng.randint(-2, 2), 1)
            assert span.reduce(p) == ref.reduce(p)
        assert span.reduce(added[0] * Coefficient(0, 3) - added[-1]).is_zero


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
                assert weak_reduce(value, analysis.records).is_zero


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
        assert weak_reduce(lhs, analysis.records).is_zero
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
                assert weak_reduce(entry - expect, analysis.records).is_zero


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
        surface = Surface(records)
        delta = constraint_matrix(records, basis, surface)
        first_class_recombination(delta, records, basis, surface)
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
        # a surface takes the active constraints, the reference all records:
        # the family is taken as it is, and given to the reference as records
        hj_records = [ConstraintRecord(m.label, m.expr, 0, solved=m.solved)
                      for m in family]
        params = list(built.model.parameters)
        for surface, records, basis in (
                (Surface(analysis.active()), analysis.records, analysis.basis),
                (Surface(family), hj_records, sys.basis)):
            gens = [g for pair in basis.pairs for g in pair] + params
            for k in range(12):
                p = random_homogeneous(rng, gens, max_terms=3, max_degree=3)
                if records and k % 2:
                    # a multiple of a constraint, so the span has work to do
                    rec = rng.choice(records)
                    p = p + rec.expr * random_homogeneous(
                        rng, gens, max_terms=2, max_degree=1)
                want = reference_weak_reduce(p, records)
                assert surface.reduce(p) == want, (built.model.name, str(p))
                assert weak_reduce(p, records) == want


def _chained_records():
    # p1 is solved in terms of p2, p2 in terms of pth, pth in terms of q1:
    # the raw solved forms need three substitution passes to resolve
    basis = small_basis()
    (q1, p1), (q2, p2), (th, pth) = basis.pairs
    exprs = [gen_poly(p1) - gen_poly(q2) * gen_poly(p2),
             gen_poly(p2) - gen_poly(pth) * gen_poly(th) - gen_poly(q1) ** 2,
             gen_poly(pth) - gen_poly(th) * gen_poly(q1)]
    records = [ConstraintRecord(f"C{k}", e, 0, solved=try_solve(e, basis))
               for k, e in enumerate(exprs)]
    return basis, records


def test_surface_closes_chained_solved_forms():
    basis, records = _chained_records()
    (q1, p1), (q2, p2), (th, pth) = basis.pairs
    assert [rec.solved[0] for rec in records] == [p1, p2, pth]
    surface = Surface(records)
    bound = set(surface.bindings)
    assert bound == {p1, p2, pth}
    assert not any(bound & set(v.generators()) for v in surface.bindings.values())
    assert surface.bindings[p1] == gen_poly(q2) * gen_poly(q1) ** 2
    rng = random.Random(43)
    gens = [g for pair in basis.pairs for g in pair]
    for _ in range(40):
        p = random_homogeneous(rng, gens, max_terms=4, max_degree=3)
        assert surface.reduce(p) == reference_weak_reduce(p, records)


def _extension_sets():
    """(basis, constraints) sets to grow surfaces on: the active Dirac records
    and the closed Hamilton-Jacobi family of every fixture and tests/data
    model, and the chained solved forms with two unsolved records that hold
    generators the chain binds, and with a record that binds p1 again."""
    sets = []
    for path in sorted(FIXTURES.glob("*.smf")) + sorted(DATA.glob("*.smf")):
        result = run_pipeline(parse_model(path.read_text(encoding="utf-8")),
                              stage="all")
        sets.append((result.analysis.basis, result.analysis.active()))
        sets.append((result.hj_system.basis, result.closure.family))
    basis, records = _chained_records()
    (q1, p1), (q2, p2), (th, pth) = basis.pairs
    unsolved = [gen_poly(q1) * gen_poly(p1) - gen_poly(q2) ** 2,
                gen_poly(th) * gen_poly(pth) * gen_poly(q2) + gen_poly(q1) * gen_poly(p2)]
    rebind = gen_poly(p1) - gen_poly(q1) * gen_poly(q2)
    records += [ConstraintRecord(f"R{k}", e, 1) for k, e in enumerate(unsolved)]
    records.append(ConstraintRecord("C3", rebind, 1, solved=try_solve(rebind, basis)))
    assert [rec.solved is None for rec in records] == [False] * 3 + [True] * 2 + [False]
    sets.append((basis, records))
    return sets


def test_an_extended_surface_is_a_fresh_one():
    # for seeded record sets A inside B, the surface of A extended by the
    # rest of B is a fresh build on A followed by the rest: the same
    # bindings, residuals in the same order, and the same reductions of
    # random polynomials and of products of them with B's constraints.
    # Unless two constraints solve for one generator, where the later one
    # wins, it has the bindings of a fresh build on B in B's order too and
    # reduces as that build does: the span's reduced echelon form does not
    # depend on the order of its rows
    rng = random.Random(53)
    grown_count = rebound = 0
    for basis, constraints in _extension_sets():
        if not constraints:
            continue
        gens = [g for pair in basis.pairs for g in pair]
        for _ in range(6):
            chosen = sorted(rng.sample(range(len(constraints)),
                                       rng.randint(1, len(constraints))))
            inner = set(rng.sample(chosen, rng.randint(0, len(chosen))))
            whole = [constraints[k] for k in chosen]
            first = [constraints[k] for k in chosen if k in inner]
            rest = [constraints[k] for k in chosen if k not in inner]
            grown = Surface(first).extend(rest)
            fresh = Surface(first + rest)
            assert grown.bindings == fresh.bindings
            assert grown.residuals == fresh.residuals
            solved = [c.solved[0] for c in whole if c.solved]
            in_order = Surface(whole) if len(set(solved)) == len(solved) else None
            if in_order is None:
                rebound += 1
            else:
                assert grown.bindings == in_order.bindings
            probes = [random_homogeneous(rng, gens, max_terms=3, max_degree=3)
                      for _ in range(6)]
            probes += [c.expr * random_homogeneous(rng, gens, max_terms=2, max_degree=2)
                       for c in rng.sample(whole, min(3, len(whole)))]
            for p in probes:
                reduced = grown.reduce(p)
                assert reduced == fresh.reduce(p)
                assert in_order is None or reduced == in_order.reduce(p)
            grown_count += bool(first and rest)
    assert grown_count > 50 and rebound


def test_surface_extends_in_steps_as_one_build():
    # extending one constraint at a time gives the surface of one build,
    # residuals included: the two unsolved records come first, so each
    # solved form of the chain that follows takes their residuals to a new
    # fixpoint
    basis, records = _extension_sets()[-1]
    records = records[3:5] + records[:3]
    grown = Surface([])
    for rec in records:
        grown = grown.extend([rec])
    fresh = Surface(records)
    assert grown.bindings == fresh.bindings
    assert grown.residuals == fresh.residuals
    assert len(fresh.residuals) == 2
    assert all(not set(fresh.bindings) & set(r.generators()) for r in fresh.residuals)


def test_surface_resolves_nilpotent_cycle():
    # p1 -> th*pth*p2 and p2 -> p1 form a cycle, but (th*pth)^2 = 0 ends
    # it: p1 = th*pth*p1 forces p1 = 0.  The per-call reference gives up on
    # the record C2 after len(bindings) + 2 passes; closing the bindings
    # doubles the depth resolved per pass and gets there
    basis = small_basis()
    (q1, p1), (q2, p2), (th, pth) = basis.pairs
    loop = gen_poly(th) * gen_poly(pth)
    records = [
        ConstraintRecord("C1", gen_poly(p1) - loop * gen_poly(p2), 0,
                         solved=(p1, loop * gen_poly(p2))),
        ConstraintRecord("C2", gen_poly(p2) - gen_poly(p1), 0,
                         solved=(p2, gen_poly(p1))),
    ]
    surface = Surface(records)
    zero = {p1: const_poly(0), p2: const_poly(0)}
    assert surface.bindings == zero
    rng = random.Random(47)
    gens = [g for pair in basis.pairs for g in pair]
    for _ in range(20):
        p = random_homogeneous(rng, gens, max_terms=4, max_degree=3)
        assert surface.reduce(p) == reference_substitute(p, zero)


def test_surface_cyclic_solved_forms_raise():
    basis = small_basis()
    (q1, p1), (q2, p2), _ = basis.pairs
    records = [
        ConstraintRecord("C1", gen_poly(p1) - gen_poly(p2), 0,
                         solved=(p1, gen_poly(p2))),
        ConstraintRecord("C2", gen_poly(p2) - gen_poly(p1), 0,
                         solved=(p2, gen_poly(p1))),
    ]
    with pytest.raises(UnsolvableConstraint, match="do not reach a fixpoint"):
        Surface(records)
    with pytest.raises(UnsolvableConstraint, match="do not reach a fixpoint"):
        reference_weak_reduce(gen_poly(q1), records)


def test_surface_substitutes_at_most_once_per_reduction(monkeypatch, capsys):
    # a reduction substitutes the closed solved forms once, and not at all
    # when the expression holds no bound generator
    import supermech.dirac as dirac
    from supermech.frontend.cli import main

    calls = []
    substitute = dirac.substitute

    def counting_substitute(p, bindings):
        calls.append(p)
        return substitute(p, bindings)

    monkeypatch.setattr(dirac, "substitute", counting_substitute)
    basis, records = _chained_records()
    (q1, p1), (q2, p2), _ = basis.pairs
    surface = Surface(records)
    calls.clear()
    free = gen_poly(q1) * gen_poly(q2) + gen_poly(q2) ** 3
    assert surface.reduce(free) == free
    assert calls == []
    assert surface.reduce(gen_poly(p1) * gen_poly(p2)) == \
        reference_weak_reduce(gen_poly(p1) * gen_poly(p2), records)
    assert len(calls) == 1

    per_reduce = []
    reduce = Surface.reduce

    def counting_reduce(self, p):
        before = len(calls)
        out = reduce(self, p)
        per_reduce.append(len(calls) - before)
        return out

    monkeypatch.setattr(Surface, "reduce", counting_reduce)
    calls.clear()
    path = FIXTURES / "dirac_maxwell_reduced.smf"
    assert main(["analyze", str(path), "--stage", "all"]) == 0
    capsys.readouterr()
    # 670 reductions, of which 27 hold a bound generator; the other 66
    # calls come from try_solve, the consistency rows and closing the
    # bindings of each surface.  A surface that is extended closes only the
    # values that hold a newly bound generator and takes only the residuals
    # that hold one to the new fixpoint.  Each delta entry below the
    # diagonal is derived from its mirror, not reduced, and the bracket
    # table reduces only the pairs that can be nonzero
    assert len(per_reduce) == 670
    assert max(per_reduce) == 1
    assert sum(per_reduce) == 27
    assert len(calls) == 93


def test_surface_returns_a_zero_at_once(monkeypatch, capsys):
    # 434 of the headline model's 670 reductions are of zero: each comes
    # back at once, with no pass over the span
    from supermech.frontend.cli import main

    reduce, span_reduce = Surface.reduce, SpanReducer.reduce
    zeros, spans = [], []

    def counting_reduce(self, p):
        out = reduce(self, p)
        if as_poly(p).is_zero:
            zeros.append(out)
        return out

    def counting_span_reduce(self, p):
        spans.append(p)
        return span_reduce(self, p)

    monkeypatch.setattr(Surface, "reduce", counting_reduce)
    monkeypatch.setattr(SpanReducer, "reduce", counting_span_reduce)
    path = FIXTURES / "dirac_maxwell_reduced.smf"
    assert main(["analyze", str(path), "--stage", "all"]) == 0
    capsys.readouterr()
    assert len(zeros) == 434
    assert all(out.is_zero for out in zeros)
    assert len(spans) == 670 - 434


def _surface_builds(monkeypatch, capsys, path):
    """The constraint count of every surface built afresh in a full CLI run
    of path, and (old count, added count) of every extension."""
    from supermech.frontend.cli import main

    builds, extensions = [], []
    init, extend = Surface.__init__, Surface.extend

    def counting_init(self, constraints):
        builds.append(len(constraints))
        init(self, constraints)

    def counting_extend(self, constraints):
        extensions.append((len(self.constraints), len(constraints)))
        return extend(self, constraints)

    monkeypatch.setattr(Surface, "__init__", counting_init)
    monkeypatch.setattr(Surface, "extend", counting_extend)
    assert main(["analyze", str(path), "--stage", "all"]) == 0
    capsys.readouterr()
    return builds, extensions


def test_surface_builds_in_full_run_of_reduced_model(monkeypatch, capsys):
    # surfaces are built only when the active constraints change, and
    # extended when constraints are only appended; the counts are exact.
    # Fresh builds: dirac's 9 primaries, and its final records after one
    # recombination, which supersedes one record and reduces on the surface
    # of the records it classifies; the closure's initial family.
    # Extensions: dirac's primaries by the secondary, and the family by its
    # added member.  The closure's final surface serves its integrability
    # matrix and the cross-check, which also reuses the Dirac surface
    builds = _surface_builds(monkeypatch, capsys,
                             FIXTURES / "dirac_maxwell_reduced.smf")
    assert builds == ([9, 10, 10], [(9, 1), (10, 1)])


def test_surface_builds_in_full_run_of_two_gauss(monkeypatch, capsys):
    # fresh builds: dirac's 10 primaries, its final records after two
    # recombinations on one surface, which supersede two records, and the
    # closure's initial family; extensions: the records by each of the two
    # secondaries, and the family by each of its two added members
    builds = _surface_builds(monkeypatch, capsys, DATA / "two_gauss.smf")
    assert builds == ([10, 12, 11], [(10, 1), (11, 1), (11, 1), (12, 1)])


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
        return reference_weak_reduce(berezin(f, g, basis), analysis.records)

    assert dirac_bracket(f, g, analysis) == expected() != const_poly(0)
    rec = ConstraintRecord("C1", gen_poly(p2), 0,
                           solved=try_solve(gen_poly(p2), basis))
    analysis.records.append(rec)
    assert dirac_bracket(f, g, analysis) == expected() == const_poly(0)
    rec.expr = gen_poly(q2)
    rec.solved = try_solve(rec.expr, basis)
    assert dirac_bracket(f, g, analysis) == expected() != const_poly(0)


def test_bracket_table_kept_until_the_surface_is_rebuilt():
    # the report's Dirac-bracket table is computed on first read, kept while
    # the records stand, and recomputed once they change
    fo = build_fermionic()
    analysis = run_dirac(fo.legres)
    basis = analysis.basis
    gens = list(basis.coordinates) + list(basis.momenta)

    def per_pair():
        return [(a, b, value) for i, a in enumerate(gens) for b in gens[i + 1:]
                if not (value := dirac_bracket(gen_poly(a), gen_poly(b),
                                               analysis)).is_zero]

    table = analysis.bracket_table
    assert analysis.bracket_table is table
    assert table == per_pair()
    rec = analysis.second_class_records()[0]
    rec.expr = 2 * rec.expr
    rebuilt = analysis.bracket_table
    assert rebuilt is not table
    assert rebuilt == per_pair()
    assert analysis.bracket_table is rebuilt


def test_derived_state_follows_a_reclassification():
    # a class set by hand keeps the surface and delta, but the second-class
    # rows, Delta^-1 and the bracket table are derived again: on flavour3,
    # declaring the conjugate pair Phi1, Phi4 first class leaves the other
    # two pairs second class
    analysis = run_pipeline(parse_model(data_text("flavour3.smf")),
                            stage="dirac").analysis
    delta = analysis.delta
    assert analysis.second_class == (0, 1, 2, 3, 4, 5)
    table = analysis.bracket_table
    for i in (0, 3):
        analysis.active()[i].cls = "first"
    assert analysis.delta is delta
    assert analysis.second_class == (1, 2, 4, 5)
    assert analysis.bracket_table != table
    assert analysis.bracket_table == reference_bracket_table(analysis)


def test_dirac_brackets_unchanged_by_rescaling_a_second_class_record():
    # delta and Delta^-1 follow the records, so a constraint scaled by 2
    # scales its row and column of delta by 2 and of Delta^-1 by 1/2, and
    # {psi, psibar}_D keeps its value
    fo = build_fermionic()
    analysis = run_dirac(fo.legres)
    psi, psibar = gen_poly(fo.gens["psi"]), gen_poly(fo.gens["psibar"])
    before = dirac_bracket(psi, psibar, analysis)
    assert before == const_poly(MI)
    rec = analysis.second_class_records()[0]
    rec.expr = rec.expr * const_poly(2)
    assert analysis.delta[0][1] == analysis.delta[1][0] == const_poly(2 * MI)
    assert analysis.delta_inverse[0][1] == const_poly(C_I / 2)
    assert dirac_bracket(psi, psibar, analysis) == before


def test_lift_null_vector_lets_unexpected_errors_through(monkeypatch):
    # only singular or non-numeric blocks mean "try the next pivot"
    import supermech.dirac as dirac

    def broken_solve_left(m, rhs):
        raise TypeError("unexpected")

    monkeypatch.setattr(dirac, "solve_left", broken_solve_left)
    with pytest.raises(TypeError, match="unexpected"):
        run_dirac(build_qed().legres)


def test_block_fallback_solves_coupled_fermions(monkeypatch):
    # both consistency rows carry both multipliers, so no single pivot
    # exists; tests/golden pins this model's reports byte for byte
    import sys
    import supermech.smatrix as smatrix

    block_solves = []
    eliminate = smatrix._eliminate

    def recording(rows, ncols, inverse):
        pivots = eliminate(rows, ncols, inverse)
        if sys._getframe(1).f_code.co_name == "solve_linear_rows":
            block_solves.append((len(rows), ncols, sorted(pivots.values())))
        return pivots

    monkeypatch.setattr(smatrix, "_eliminate", recording)
    result = run_pipeline(parse_model(data_text("coupled_fermions.smf")), stage="hj")
    expected = {"a": "-2i*a*m - 3i*b*m", "b": "2i*a*m + 2i*b*m"}
    assert {str(q): str(v) for q, v in result.analysis.multipliers.items()} == expected
    assert {str(q): str(v) for q, v in result.closure.dt_relations.items()} == expected
    assert result.crosscheck.equivalent
    # one elimination for the multipliers and one for the dt relations, and
    # both rows of each are pivots; dH'0's row, whose coefficients -b*m and
    # a*m have no body, joins the second elimination as no pivot
    assert block_solves == [(2, 2, [0, 1]), (3, 2, [1, 2])]


def _assert_no_multiplier_pivot(path, capsys):
    with pytest.raises(UnsupportedLagrangian,
                       match="^multiplier system has no body-invertible pivot$"):
        run_pipeline(parse_model(path.read_text(encoding="utf-8")), stage="dirac")
    assert cli.main(["analyze", str(path), "--format", "structured"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": {
        "kind": "model", "message": "multiplier system has no body-invertible pivot"}}


def test_block_fallback_rank_deficient_is_unsupported(capsys):
    # three coupled fermions whose multiplier block has a singular body
    _assert_no_multiplier_pivot(DATA / "unsupported" / "three_fermions.smf", capsys)


def test_odd_auxiliary_coupling_is_unsupported(capsys):
    # the smallest generated model of this class: an odd velocity-free
    # auxiliary ch3 that enters only as ch3*mj2*dot(q1)
    _assert_no_multiplier_pivot(DATA / "unsupported" / "odd_auxiliary.smf", capsys)


def _classes(analysis):
    return {(str(rec.expr), rec.cls, rec.superseded) for rec in analysis.records}


def test_independent_gauss_sectors_classify_as_alone():
    # two Gauss sectors give two even body null directions; each must be
    # lifted with the other one held out of its block
    both = run_pipeline(parse_model(data_text("two_gauss.smf")), stage="dirac")
    alone = [run_pipeline(parse_model(data_text(name)), stage="dirac").analysis
             for name in ("gauss_sector_a.smf", "gauss_sector_c.smf")]
    analysis = both.analysis
    assert _classes(analysis) == _classes(alone[0]) | _classes(alone[1])
    assert not any(rec.cls == "undetermined" for rec in analysis.active())
    assert [rec.name for rec in analysis.active() if rec.cls == "first"] == [
        "Phi1", "Phi2", "Phi11~rec", "Phi12~rec"]
    assert len(analysis.second_class) == 8
    gens = [g for pair in analysis.basis.pairs for g in pair]
    for rec in analysis.second_class_records():
        for g in gens:
            value = dirac_bracket(rec.expr, gen_poly(g), analysis)
            assert weak_reduce(value, analysis.records).is_zero


def test_odd_null_direction_recombines():
    # Delta = {C_s, C_t} has all four entries equal, so its body null space
    # is one odd direction, C1 - C2 = -p_th; no fixture or generated model
    # lifts an odd direction
    from supermech.dirac import first_class_recombination

    psi, th = (Generator(name, Parity.ODD, Kind.COORDINATE, None, k)
               for k, name in enumerate(("psi", "th")))
    p_psi, p_th = (Generator(name, Parity.ODD, Kind.MOMENTUM, None, k)
                   for k, name in enumerate(("p_psi", "p_th")))
    basis = PhaseBasis(((psi, p_psi), (th, p_th)))
    c1 = gen_poly(p_psi) + C_I / 2 * gen_poly(psi)
    records = [ConstraintRecord(name, expr, 0, solved=try_solve(expr, basis))
               for name, expr in (("C1", c1), ("C2", c1 + gen_poly(p_th)))]
    surface = Surface(records)
    delta = constraint_matrix(records, basis, surface)
    added = first_class_recombination(delta, records, basis, surface)
    assert [(rec.name, rec.expr, rec.cls, rec.origin) for rec in added] == [
        ("C1~rec", gen_poly(p_th), "first", "recombination")]
    assert [(rec.name, rec.superseded) for rec in records] == [
        ("C1", True), ("C2", False)]
    assert records[1].cls == "second"


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.smf")) + sorted(DATA.glob("*.smf")),
                         ids=lambda path: path.stem)
def test_antisymmetric_halves_match_full_reference(path):
    # constraint_matrix and bracket_table compute one order of each pair and
    # derive the other by graded antisymmetry; the references compute both
    analysis = run_pipeline(parse_model(path.read_text(encoding="utf-8")),
                            stage="dirac").analysis
    active, surface = analysis.active(), analysis.surface
    delta = constraint_matrix(active, analysis.basis, surface)
    assert delta == reference_constraint_matrix(active, analysis.basis, surface)
    assert analysis.delta == delta
    assert analysis.bracket_table == reference_bracket_table(analysis)


def test_constraint_record_refuses_a_mixed_parity_expression():
    (_, p1), _, (_, pth) = small_basis().pairs
    with pytest.raises(MixedParity):
        ConstraintRecord("C", gen_poly(p1) + gen_poly(pth), 0)

"""Grassmann-valued evaluation and flow integration."""
import cmath
import math
import random
from itertools import groupby

import pytest

from helpers import (
    DATA,
    build_fermionic,
    build_free_singular,
    build_gauge_toy,
    build_sho,
    data_text,
    fixture_text,
    random_poly,
    reference_evaluate,
    reference_integrate,
    reference_product,
    reference_sign,
    small_basis,
)
from supermech import numeric_flow
from supermech.errors import FlowError, GradeMismatch, SupermechError
from supermech.frontend.flowconfig import parse_path_config, parse_value
from supermech.frontend.parser import parse_model
from supermech.frontend.report import _fmt_grassmann
from supermech.frontend.pipeline import run_pipeline
from supermech.hamilton_jacobi import build_hj_system, closure_loop, total_differentials
from supermech.numeric_flow import (
    LAMBDA_CAP,
    GrassmannValue,
    PathSpec,
    evaluate,
    integrate_flow,
    lower,
    path_independence_check,
)
from supermech.superalgebra import Generator, Kind, Parity, const_poly, gen_poly


def test_product_signs_and_nilpotency():
    g1 = GrassmannValue.generator(3, 1)
    g2 = GrassmannValue.generator(3, 2)
    g3 = GrassmannValue.generator(3, 3)
    assert (g1 * g2).coeff == {0b011: 1 + 0j}
    assert (g2 * g1).coeff == {0b011: -1 + 0j}
    assert (g1 * g1).coeff == {}
    assert ((g1 * g2) * g3).coeff == {0b111: 1 + 0j}
    assert ((g3 * g2) * g1).coeff == {0b111: -1 + 0j}
    assert (g1 * g3).coeff == {0b101: 1 + 0j}
    # soul nilpotency: (g1 g2)^2 = 0
    u = g1 * g2
    assert (u * u).coeff == {}


def test_products_landing_on_one_slot_sum_in_left_mask_order():
    # three products land on g1 g2 g3; 1 + 1e16 - 1e16 is 0 in floating
    # point, summed the other way round it is 1
    left = GrassmannValue(3, {0b100: -1e16, 0b010: -1e16, 0b001: 1.0})
    right = GrassmannValue(3, {0b011: 1, 0b101: 1, 0b110: 1})
    want = 0j
    for a in (0b001, 0b010, 0b100):
        want += left.coeff[a] * reference_sign(a, 0b111 ^ a)
    assert want == 0
    assert (left * right).coeff.get(0b111, 0j) == want


def test_evaluate_examples():
    th1 = Generator("th1", Parity.ODD, Kind.COORDINATE, None, 0)
    th2 = Generator("th2", Parity.ODD, Kind.COORDINATE, None, 1)
    q = Generator("q", Parity.EVEN, Kind.COORDINATE, None, 2)
    g1 = GrassmannValue.generator(2, 1)
    g2 = GrassmannValue.generator(2, 2)
    value = evaluate(const_poly(1) + gen_poly(th1) * gen_poly(th2),
                     {th1: g1, th2: g2})
    assert value.coeff == {0: 1 + 0j, 0b11: 1 + 0j}
    assert evaluate(gen_poly(th1, 1) * gen_poly(th1, 1), {th1: g1}).coeff == {}
    value = evaluate(gen_poly(q) * gen_poly(th1),
                     {q: GrassmannValue.body_value(2, 2.0), th1: g1})
    assert value.coeff == {0b01: 2 + 0j}
    # a zero polynomial lies in the assignment's Lambda_n, as a constant does
    for p in (const_poly(0), gen_poly(th1) - gen_poly(th1), const_poly(3)):
        assert evaluate(p, {th1: g1}).n == 2


def test_evaluate_grade_mismatch():
    th = Generator("th", Parity.ODD, Kind.COORDINATE, None, 0)
    with pytest.raises(GradeMismatch):
        evaluate(gen_poly(th), {th: GrassmannValue.body_value(2, 1.0)})
    q = Generator("q", Parity.EVEN, Kind.COORDINATE, None, 1)
    with pytest.raises(GradeMismatch):
        evaluate(gen_poly(q), {q: GrassmannValue.generator(2, 1)})


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(51)
    basis = small_basis()
    gens = [g for pair in basis.pairs for g in pair]
    values = {}
    slots = iter(range(1, 3))
    for g in gens:
        if g.parity:
            k = next(slots)
            values[g] = GrassmannValue.generator(2, k).scaled(rng.uniform(0.5, 2.0))
        else:
            values[g] = GrassmannValue.body_value(2, rng.uniform(-2.0, 2.0))
    for _ in range(150):
        a = random_poly(rng, gens, max_terms=3, max_degree=3)
        b = random_poly(rng, gens, max_terms=3, max_degree=3)
        lhs = evaluate(a * b, values)
        rhs = evaluate(a, values) * evaluate(b, values)
        diff = (lhs - rhs).max_abs
        scale = max(lhs.max_abs, rhs.max_abs, 1.0)
        assert diff <= 1e-12 * scale


def _sho_setup():
    sho = build_sho()
    sys = build_hj_system(sho.legres)
    return sho, sys, total_differentials(sys), closure_loop(sys)


def test_sho_flow_period_and_action():
    sho, sys, tds, report = _sho_setup()
    g = sho.gens
    init = {g["q"]: GrassmannValue.body_value(0, 1.0),
            g["pq"]: GrassmannValue.body_value(0, 0.0)}
    path = PathSpec((sys.t0,), ((0.0,), (2 * math.pi,)), 2000)
    out = integrate_flow(tds, path, init, report=report)
    end = out.samples[-1][1]
    assert abs(end[g["q"]].body.real - 1.0) < 1e-6
    # action quadrature along the closed orbit: integral of L dt = 0
    assert abs(out.z.body.real - 0.0) < 1e-6


def test_sho_order_four_convergence():
    sho, sys, tds, report = _sho_setup()
    g = sho.gens
    init = {g["q"]: GrassmannValue.body_value(0, 1.0),
            g["pq"]: GrassmannValue.body_value(0, 0.0)}

    def endpoint_error(steps):
        path = PathSpec((sys.t0,), ((0.0,), (2 * math.pi,)), steps)
        out = integrate_flow(tds, path, init, report=report)
        end = out.samples[-1][1]
        return abs(end[g["q"]].body.real - 1.0) + abs(end[g["pq"]].body.real)

    e_coarse = endpoint_error(500)
    e_fine = endpoint_error(1000)
    assert 10 < e_coarse / e_fine < 24


def test_sho_two_step_counts_agree():
    sho, sys, tds, report = _sho_setup()
    g = sho.gens
    init = {g["q"]: GrassmannValue.body_value(0, 1.0),
            g["pq"]: GrassmannValue.body_value(0, 0.0)}
    ends = []
    for steps in (700, 1100):
        path = PathSpec((sys.t0,), ((0.0,), (1.0,)), steps)
        out = integrate_flow(tds, path, init, report=report)
        ends.append(out.samples[-1][1])
    for gen in ends[0]:
        assert (ends[0][gen] - ends[1][gen]).max_abs < 1e-7


def test_fermionic_flow_drift():
    fo = build_fermionic()
    sys = build_hj_system(fo.legres)
    tds = total_differentials(sys)
    report = closure_loop(sys)
    g = fo.gens
    g1 = GrassmannValue.generator(2, 1)
    g2 = GrassmannValue.generator(2, 2)
    init = {g["psi"]: g1, g["psibar"]: g2,
            g["ppsi"]: g2.scaled(0.5j), g["ppsibar"]: g1.scaled(0.5j),
            g["m"]: GrassmannValue.body_value(2, 1.0)}
    path = PathSpec((sys.t0,), ((0.0,), (1.0,)), 10000)
    out = integrate_flow(tds, path, init, report=report)
    assert out.drift <= 1e-8
    # the flow is the phase rotation generated by the mass term
    psi_end = out.samples[-1][1][g["psi"]].coeff[0b01]
    assert abs(psi_end - cmath.exp(-1j)) < 1e-9


def test_fermionic_off_surface_rejected():
    fo = build_fermionic()
    sys = build_hj_system(fo.legres)
    tds = total_differentials(sys)
    report = closure_loop(sys)
    g = fo.gens
    g1 = GrassmannValue.generator(2, 1)
    g2 = GrassmannValue.generator(2, 2)
    init = {g["psi"]: g1, g["psibar"]: g2,
            g["ppsi"]: g2.scaled(0.7j),  # violates the constraint
            g["ppsibar"]: g1.scaled(0.5j),
            g["m"]: GrassmannValue.body_value(2, 1.0)}
    path = PathSpec((sys.t0,), ((0.0,), (1.0,)), 10)
    with pytest.raises(ValueError):
        integrate_flow(tds, path, init, report=report)


def test_gauge_toy_flow_drift():
    gt = build_gauge_toy()
    sys = build_hj_system(gt.legres)
    tds = total_differentials(sys)
    report = closure_loop(sys)
    g = gt.gens
    init = {g["q1"]: GrassmannValue.body_value(0, 0.5),
            g["p1"]: GrassmannValue.body_value(0, 0.0),
            g["q2"]: GrassmannValue.body_value(0, 0.0),
            g["p2"]: GrassmannValue.body_value(0, 0.0)}
    path = PathSpec((sys.t0, g["q2"]), ((0.0, 0.0), (1.0, 0.5), (2.0, 0.0)), 5000)
    out = integrate_flow(tds, path, init, report=report)
    assert out.drift <= 1e-8


def _path_pair(build, init_values, steps):
    """tds, closure report, initial state and two paths around the unit
    square of (t0, q2), for a model with even pairs q1 and q2."""
    model = build()
    sys = build_hj_system(model.legres)
    tds = total_differentials(sys)
    report = closure_loop(sys)
    g = model.gens
    init = {g[name]: GrassmannValue.body_value(0, v)
            for name, v in zip(("q1", "p1", "q2", "p2"), init_values)}
    path_a = PathSpec((sys.t0, g["q2"]), ((0, 0), (1, 0), (1, 1)), steps)
    path_b = PathSpec((sys.t0, g["q2"]), ((0, 0), (0, 1), (1, 1)), steps)
    return tds, report, init, path_a, path_b


PATH_PAIRS = {
    "free_singular": (build_free_singular, (0.3, 0.7, 0.0, 0.0), 200),
    "gauge_toy": (build_gauge_toy, (0.5, 0.0, 0.0, 0.0), 500),
}


def test_free_singular_path_independence():
    tds, report, init, path_a, path_b = _path_pair(*PATH_PAIRS["free_singular"])
    assert report.strictly_integrable
    out = path_independence_check(tds, path_a, path_b, init, report=report)
    assert out.strict and out.agree
    assert all(diff <= 1e-8 for _, diff, checked, _ in out.comparisons if checked)


def test_gauge_toy_path_independence_observables_only():
    tds, report, init, path_a, path_b = _path_pair(*PATH_PAIRS["gauge_toy"])
    assert not report.strictly_integrable
    out = path_independence_check(tds, path_a, path_b, init, report=report)
    comp = {name: (diff, checked, note) for name, diff, checked, note in out.comparisons}
    assert out.agree
    assert comp["p_q1"][1] and comp["p_q1"][0] <= 1e-8
    assert comp["p_q2"][1] and comp["p_q2"][0] <= 1e-8
    assert not comp["q1"][1] and comp["q1"][2] == "not first-class"
    assert comp["q1"][0] > 1e-3  # the gauge direction genuinely differs


@pytest.mark.parametrize("name", sorted(PATH_PAIRS))
def test_path_independence_builds_one_flow(monkeypatch, name):
    tds, report, init, path_a, path_b = _path_pair(*PATH_PAIRS[name])
    calls = [0]
    make_flow = numeric_flow.make_flow

    def counting(*args):
        calls[0] += 1
        return make_flow(*args)

    monkeypatch.setattr(numeric_flow, "make_flow", counting)
    out = path_independence_check(tds, path_a, path_b, init, report=report)
    assert calls[0] == 1
    assert out.agree


@pytest.mark.parametrize("name,moves", [
    (name, moves) for name in sorted(PATH_PAIRS) for moves in ("both", "t0 alone")])
def test_path_independence_plans_once_for_both_paths(monkeypatch, name, moves):
    # one lowering and one set of layouts, on the union of what the paths
    # move, and each path from the initial registers, equal to the reference
    tds, report, init, path_a, path_b = _path_pair(*PATH_PAIRS[name])
    if moves == "t0 alone":
        path_a = PathSpec(path_a.params, ((0, 0), (1, 0)), 30)
        path_b = PathSpec(path_b.params, ((0, 0), (0, 1), (1, 1), (1, 0)), 20)
    layouts = []
    static = numeric_flow._static_layouts

    def recording(*args):
        layouts.append(static(*args))
        return layouts[-1]

    monkeypatch.setattr(numeric_flow, "_static_layouts", recording)
    flow = numeric_flow.make_flow(tds, report)
    got = numeric_flow._integrate(flow, (path_a, path_b), init)
    assert len(layouts) == 1
    for result, path in zip(got, (path_a, path_b)):
        _assert_same_flow(result, reference_integrate(tds, path, init, report))
    layouts.clear()
    assert path_independence_check(tds, path_a, path_b, init, report=report).agree
    assert len(layouts) == 1


def test_lambda_cap():
    with pytest.raises(ValueError):
        GrassmannValue(13)


@pytest.mark.parametrize("n", range(7))
def test_single_products_match_reference(n):
    # small integer parts keep every sum exact, so the order of summation
    # cannot matter and the products must agree bit for bit
    rng = random.Random(700 + n)

    def value(size):
        return GrassmannValue(size, {
            rng.getrandbits(size): complex(rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 1 << size))})

    for _ in range(60):
        x, y = value(n), value(rng.randint(max(n - 1, 0), n))
        assert (x * y).coeff == reference_product(x, y).coeff
        assert (x * y).n == max(x.n, y.n)


def test_sums_across_lambda_n_keep_the_larger_n():
    g3 = GrassmannValue.generator(3, 3)
    total = GrassmannValue(2) + g3
    assert (total.n, total.coeff) == (3, {0b100: 1 + 0j})
    assert _fmt_grassmann(total) == "(1)*g3"
    diff = GrassmannValue.body_value(1, 1) - g3 * GrassmannValue.generator(3, 1)
    assert (diff.n, diff.coeff) == (3, {0: 1 + 0j, 0b101: 1 + 0j})
    assert _fmt_grassmann(diff) == "1 + (1)*g1*g3"
    # x - y is x + (-y) bit for bit, the sign of zero parts included
    rng = random.Random(15)

    def part():
        return rng.choice((0.0, -0.0, rng.uniform(-1, 1)))

    def value():
        n = rng.randint(0, 3)
        return GrassmannValue(n, {rng.getrandbits(n): complex(part(), part())
                                  for _ in range(3)})

    for _ in range(50):
        x, y = value(), value()
        assert repr(x - y) == repr(x + (-y))
        assert (x - y).n == max(x.n, y.n)


def _count_signs(monkeypatch):
    """The mask pairs whose sign is worked out from now on."""
    signed = []
    sign = numeric_flow._signed

    def counting(a, b):
        signed.append((a, b))
        return sign(a, b)

    monkeypatch.setattr(numeric_flow, "_signed", counting)
    return signed


def test_lambda12_literal_builds_only_the_signs_it_meets(monkeypatch):
    signed = _count_signs(monkeypatch)
    g = GrassmannValue.body_value(12, 1) * GrassmannValue.generator(12, 5)
    assert g.coeff == {1 << 4: 1 + 0j}
    assert len(signed) == 1
    signed.clear()
    value = parse_value("2*g12*g1*g7 - 0.5j*g3", LAMBDA_CAP)
    assert value.coeff == {0b100001000001: 2 + 0j, 0b100: -0.5j}
    # one sign per generator factor, 3 + 1; the body's full row holds 4096
    assert len(signed) == 4


def _parts(step):
    """A step plan split where its kind of entry changes: the stage copies
    and the audit (ops -2..3), the stage inputs (op 4), the updates (op 5)
    and the peak entries (op 6)."""
    return [list(part) for _, part in groupby(step, key=lambda e: max(e[3], 3))]


def test_flow_plan_holds_the_disjoint_pairs_of_its_supports(monkeypatch):
    # the three-flavour flow in Lambda_6: every register of the plan holds
    # one mask of a value (coefficients, rates and the step's constants hold
    # mask 0)
    masks, plans, layouts = {}, {}, []
    alloc, run = numeric_flow._Plan.alloc, numeric_flow._run
    static = numeric_flow._static_layouts

    def recording_alloc(self, keys):
        out = alloc(self, keys)
        masks.update((r, m) for m, r in out.items())
        return out

    def recording_run(plan, reg, times=1):
        plans.setdefault(id(plan), plan)
        return run(plan, reg, times)

    def recording_static(*args):
        layouts.append(static(*args))
        return layouts[-1]

    monkeypatch.setattr(numeric_flow._Plan, "alloc", recording_alloc)
    monkeypatch.setattr(numeric_flow, "_run", recording_run)
    monkeypatch.setattr(numeric_flow, "_static_layouts", recording_static)
    run_pipeline(parse_model(data_text("flavour3.smf")), stage="flow",
                 path_text=data_text("flavour3_flow.cfg"))
    (values, z_layout), = layouts
    # x, psi[1..3], psibar[1..3], p_x, p_psi[1..3], p_psibar[1..3], P0, m
    # and g each hold at most 7 of the 64 slots of Lambda_6; m and g keep
    # their registers, though no program reads them once they are folded
    assert [len(v) for v in values] == [7, 4, 4, 4, 4, 4, 4, 7, 4, 4, 4, 4, 4, 4, 3, 1, 1]
    assert len(z_layout) == 4
    # one plan for the drift audit, which first measures the initial state,
    # and one for the RK4 step, which ends in that audit and one peak entry
    # for each of the audit's 31 registers; with m = 1 and
    # g = 0.5 folded into the coefficients, no term multiplies by m or g
    # last, and the Yukawa terms of the audit scale x by their coefficient
    # -0.5 once, where they started from x with a carried sign
    audit, step = plans.values()
    assert (len(step), len(audit)) == (1178, 154)
    # the stage four times, whose derivatives land on k or are copied from
    # p_x's registers (dx/dt0 = p_x), the 37 stage inputs that a later copy
    # reads after each of the first three, the update of the 66 numbers the
    # stage moves (every number of the state and Z but P0's 3), the audit,
    # and the peak entries
    parts = _parts(step)
    assert [len(part) for part in parts] == [
        204, 37, 204, 37, 204, 37, 204, 66, 154, 31]
    copies, inputs, updates = parts[0:7:2], parts[1:7:2], parts[7]
    assert parts[8] == audit
    # a peak entry each for 31 registers that the audit writes, each with a
    # peak register of its own
    peaks = {out: left for out, left, _, op in parts[9] if op == 6}
    assert len(peaks) == len(set(peaks.values())) == len(parts[9]) == 31
    assert set(peaks.values()) <= {out for out, *_ in audit}
    shape = [[(op, masks.get(left, 0), masks.get(right, 0), masks[out])
              for out, left, right, op in copy] for copy in copies]
    assert shape[1:] == shape[:1] * 3
    # a term whose coefficient is exactly -1 starts from the env bank and
    # carries the sign into its first product: H'0's three mass terms in
    # the audit, 27 entries; no stage term does, as each coefficient of
    # more than one slot there, g = 0.5 of p_x's g*psi*psibar terms
    # included, is neither 1 nor -1
    env_bank = sum(map(len, values))
    read_as_state = set(range(env_bank)) | {out for part in inputs for out, *_ in part}
    for plan, carried, count in [*((copy, 1, 0) for copy in copies), (audit, -1, 27)]:
        assert sum(left in read_as_state and op not in (0, 3)
                   for _, left, _, op in plan) == count
        written = set()
        for out, left, right, op in plan:
            # the first write of a register sets it (op 2, -2 or 3), every
            # later write adds to it (op 1, -1 or 0)
            assert (abs(op) >= 2) == (out not in written)
            written.add(out)
            a, b = masks.get(left, 0), masks.get(right, 0)
            if op in (0, 3):
                assert masks[out] == a
            else:
                assert not a & b
                assert masks[out] == a | b
                sign = carried if left in read_as_state else 1
                assert (1 if op > 0 else -1) == sign * reference_sign(a, b)
    # a stage input is s + k * c on one mask, and an update reads the four
    # derivatives of its number's mask
    for out, left, (k, c), op in (entry for part in inputs for entry in part):
        assert masks[out] == masks[left] == masks[k] and masks.get(c, 0) == 0
    for out, left, (*ks, two, sixth), op in updates:
        assert out == left and {masks[k] for k in ks} == {masks[out]}
        assert masks.get(two, 0) == masks.get(sixth, 0) == 0


def _assert_same_flow(got, want):
    """Bit for bit, with zeros compared by value."""
    assert len(got.samples) == len(want.samples)
    for (point, values), (want_point, want_values) in zip(got.samples, want.samples):
        assert point == want_point
        assert list(values) == list(want_values)
        for g, value in values.items():
            assert (value.n, value.coeff) == (want_values[g].n, want_values[g].coeff)
    assert (got.z.n, got.z.coeff) == (want.z.n, want.z.coeff)
    assert got.drift == want.drift
    assert got.drift_by_invariant == want.drift_by_invariant
    assert got.end_by_invariant == want.end_by_invariant
    assert got.onsurface_residual == want.onsurface_residual


BUNDLED_FLOWS = [
    ("sho.smf", "sho_flow.cfg"),
    ("free_singular.smf", "free_singular_flow.cfg"),
    ("gauge_toy.smf", "gauge_toy_flow.cfg"),
    ("fermionic_oscillator.smf", "fermionic_flow.cfg"),
    # t0 and q2 move in one segment
    ("free_singular.smf", "free_singular_diagonal_flow.cfg"),
    # the drift carries over from one segment to the next
    ("fermionic_oscillator.smf", "fermionic_two_segment_flow.cfg"),
]


@pytest.mark.parametrize("model,cfg", BUNDLED_FLOWS)
def test_planned_flow_matches_dict_reference_on_bundled_flows(model, cfg):
    result = run_pipeline(parse_model(fixture_text(model)), stage="hj")
    cfg_text = data_text(cfg) if (DATA / cfg).exists() else fixture_text(cfg)
    path, init = parse_path_config(cfg_text, result.elaborated, result.hj_system)
    _assert_same_flow(integrate_flow(result.tds, path, init, report=result.closure),
                      reference_integrate(result.tds, path, init, result.closure))


def _written_and_read(entry):
    """The register an entry writes and those it reads, its own output
    included when it adds to it."""
    out, left, right, op = entry
    reads = (left,) if op in (0, 3, 6) else (left, *right) if op > 3 else (left, right)
    return out, reads + (out,) * (op in (-1, 0, 1, 6))


@pytest.mark.parametrize("model,cfg",
                         BUNDLED_FLOWS + [("flavour3.smf", "flavour3_flow.cfg")])
def test_a_plan_writes_only_what_it_reads_and_each_partial_product_once(
        monkeypatch, model, cfg):
    # the registers a run leaves for the flow: the values of the family
    # members, and those another run reads before it writes them: the
    # state and Z, which a step reads, advances and carries to the next
    # step, and the update that the first run of a segment whose stage
    # reads nothing it moves leaves for its steps, and the peak registers,
    # which every step plan raises
    plans, values, audited = {}, set(), set()
    program, run = numeric_flow._Plan.program, numeric_flow._run

    def recording_program(self, *args):
        out = program(self, *args)
        values.update(out.values())
        return out

    def recording_run(plan, reg, times=1):
        if not plans:
            # the audit's programs are planned before its first run
            audited.update(values)
        plans.setdefault(id(plan), plan)
        return run(plan, reg, times)

    monkeypatch.setattr(numeric_flow._Plan, "program", recording_program)
    monkeypatch.setattr(numeric_flow, "_run", recording_run)
    text = data_text(model) if (DATA / model).exists() else fixture_text(model)
    cfg_text = data_text(cfg) if (DATA / cfg).exists() else fixture_text(cfg)
    run_pipeline(parse_model(text), stage="flow", path_text=cfg_text)
    first_read = {}
    for key, plan in plans.items():
        first_read[key], written = set(), set()
        for entry in plan:
            out, reads = _written_and_read(entry)
            first_read[key].update(r for r in reads if r not in written)
            written.add(out)
    handed = set().union(*first_read.values())
    for key, plan in plans.items():
        written = {out for out, *_ in plan}
        # a register that a run reads before it writes it is only ever
        # advanced by it (the state and Z) or raised (a peak), never set
        carried = first_read[key] & written
        assert all(op in (0, 5, 6) for out, *_, op in plan if out in carried)
        roots = (audited | handed) & written
        # every write is read before the next write that sets its register,
        # or is the last write of a register the flow reads
        live = set(roots)
        for entry in reversed(plan):
            out, reads = _written_and_read(entry)
            assert out in live
            if out not in reads:
                live.discard(out)
            live.update(reads)
        # a partial product is identified by how its register is computed:
        # (op, left, right) per write, a register the plan does not write
        # standing for itself; no two registers compute the same one, so
        # each is made once in each copy of the stage
        made = {}
        for out, left, right, op in plan:
            if op in (0, 3, 6):
                right = None
            elif op > 3:
                right = tuple(made.get(r, r) for r in right)
            else:
                right = made.get(right, right)
            step = (op, made.get(left, left), right)
            made[out] = made.get(out, ()) + (step,)
        partial = [how for r, how in made.items()
                   if r not in values and r not in roots]
        assert len(set(partial)) == len(partial)


def _plan_runs(monkeypatch, model, cfg):
    """The size of the plan and the steps of each run of a bundled flow, in
    the order of the runs."""
    runs = []
    run = numeric_flow._run

    def recording(plan, reg, times=1):
        runs.append((len(plan), times))
        return run(plan, reg, times)

    monkeypatch.setattr(numeric_flow, "_run", recording)
    cfg_text = data_text(cfg) if (DATA / cfg).exists() else fixture_text(cfg)
    run_pipeline(parse_model(fixture_text(model)), stage="flow", path_text=cfg_text)
    return runs


@pytest.mark.parametrize("model,cfg,runs", [
    # the drift audit, whose one product nothing reads; then each segment's
    # stage, which reads no number that it moves (dq1/dt0 = p_q1 while p_q1
    # stays, dq1/dq2 = 1), runs once with the update its four equal rates
    # sum to, and one run of the step plan adds that update to q1 at each of
    # the 5,000 steps
    ("gauge_toy.smf", "gauge_toy_flow.cfg",
     [(0, 1), (2, 1), (1, 5_000), (2, 1), (1, 5_000)]),
    # t0 and q2 move together over 100 steps, then q2 alone; the first
    # stage copies dq1/dt0 = p_q1 straight from p_q1's registers and adds
    # dq1/dq2 = 1 from the coefficient's register, and its steps add the
    # updates of q1 and Z's two numbers before the audit and the peak of
    # its one register
    ("free_singular.smf", "free_singular_diagonal_flow.cfg",
     [(3, 1), (7, 1), (7, 100), (2, 1), (5, 100)]),
])
def test_a_stage_that_reads_no_state_runs_once_a_segment(monkeypatch, model, cfg, runs):
    assert _plan_runs(monkeypatch, model, cfg) == runs


def test_a_flow_runs_one_plan_a_segment(monkeypatch):
    # the audit of the initial state, then one run of the step plan that
    # covers all 2,000 steps of the one segment; the step plan ends in the
    # peak entry of the audit's one register
    assert _plan_runs(monkeypatch, "sho.smf", "sho_flow.cfg") == [(5, 1), (47, 2_000)]


def test_segments_that_move_the_same_parameters_share_their_plans(monkeypatch):
    # t0 moves at rates 0.25, 0.5 and 0.25 and then at 1: two step plans, so
    # the register file does not grow with the number of segments, each
    # segment one run of 10 steps
    sho, sys, tds, report = _sho_setup()
    g = sho.gens
    init = {g["q"]: GrassmannValue.body_value(0, 1.0),
            g["pq"]: GrassmannValue.body_value(0, 0.0)}
    plans, runs = {}, []
    run = numeric_flow._run

    def recording(plan, reg, times=1):
        runs.append((plans.setdefault(id(plan), len(plans)), times))
        return run(plan, reg, times)

    monkeypatch.setattr(numeric_flow, "_run", recording)
    path = PathSpec((sys.t0,), ((0.0,), (0.25,), (0.75,), (1.0,), (2.0,)), 10)
    integrate_flow(tds, path, init, report=report)
    assert runs == [(0, 1), (1, 10), (1, 10), (1, 10), (2, 10)]


def test_a_peak_entry_keeps_the_peak_through_a_nan():
    # op 6 raises the float peak in register 1 to abs(reg[0]) when that is
    # larger, as max(peak, value) does: a NaN, a smaller value and an equal
    # one keep it
    plan = [(1, 0, 0, 6)]
    reg = [complex("nan"), 0.5]
    numeric_flow._run(plan, reg)
    assert reg[1] == 0.5
    for value, peak in [(0.3j, 0.5), (-0.5, 0.5), (3 + 4j, 5.0), (complex("nan"), 5.0),
                        (complex("inf"), math.inf), (complex("nan"), math.inf)]:
        reg[0] = value
        numeric_flow._run(plan, reg)
        assert reg[1] == peak == max(peak, abs(value))
        assert type(reg[1]) is float


def _op_registers():
    # distinct values, so that no two ops leave the same output register;
    # registers 6-9 are k1..k4 of an RK4 update, on which the reference's
    # association and a plain left-to-right sum differ in the last bit
    return [0.75 - 0.5j, 1.5 + 2j, -0.25 + 3j, 0.5 + 0j, 2 + 0j, 1 / 6 + 0j,
            1e16 + 0j, 0.5 + 0j, 0.5 + 0j, 0.5 + 1j, 0.5]


@pytest.mark.parametrize("entry, expected", [
    ((0, 1, 2, 2), lambda r: r[1] * r[2]),
    ((0, 1, 2, 1), lambda r: r[0] + r[1] * r[2]),
    ((0, 1, 2, -2), lambda r: -(r[1] * r[2])),
    ((0, 1, 2, -1), lambda r: r[0] - r[1] * r[2]),
    ((0, 1, 0, 0), lambda r: r[0] + r[1]),
    ((0, 2, 0, 3), lambda r: r[2]),
    ((0, 1, (2, 3), 4), lambda r: r[1] + r[2] * r[3]),
    ((0, 1, (6, 7, 8, 9, 4, 5), 5),
     lambda r: r[1] + (((r[6] + r[7] * r[4]) + r[8] * r[4]) + r[9]) * r[5]),
    ((10, 2, 0, 6), lambda r: max(r[10], abs(r[2]))),
])
def test_each_op_of_a_run_computes_its_expression(entry, expected):
    # one one-entry plan per op code: the entry leaves its output register
    # at the expression `_run`'s docstring gives, computed here by hand, and
    # touches no other register
    reg = _op_registers()
    want = list(reg)
    want[entry[0]] = expected(reg)
    numeric_flow._run([entry], reg)
    assert reg == want


def test_an_update_sums_its_rates_in_the_reference_order():
    # the registers of the op-5 case above tell the reference's association
    # from a plain sum, so that case pins the order
    r = _op_registers()
    ordered = r[1] + (((r[6] + r[7] * r[4]) + r[8] * r[4]) + r[9]) * r[5]
    plain = r[1] + (r[6] + (r[7] * r[4] + r[8] * r[4] + r[9])) * r[5]
    assert ordered != plain


def test_a_first_write_sets_and_later_writes_add():
    # one register written by a first product, then a product added, a
    # product subtracted and a register added; another first written by a
    # negated product then set again by a copy: each first write discards
    # the register's old value
    reg = _op_registers()
    r = list(reg)
    plan = [(0, 1, 2, 2), (0, 2, 3, 1), (0, 1, 1, -1), (0, 9, 0, 0),
            (4, 1, 9, -2), (4, 4, 3, 1), (3, 2, 0, 3), (3, 1, 0, 0)]
    numeric_flow._run(plan, reg)
    want = list(r)
    want[0] = ((r[1] * r[2] + r[2] * r[3]) - r[1] * r[1]) + r[9]
    want[4] = -(r[1] * r[9]) + -(r[1] * r[9]) * r[3]
    want[3] = r[2] + r[1]
    assert reg == want


def test_a_run_repeats_its_plan():
    # reg[0] doubles and then adds reg[1] on each of five passes, as five
    # runs of one pass leave it
    plan = [(0, 0, 2, 2), (0, 1, 0, 0)]
    reg, want = [1 + 1j, 0.25, 2 + 0j], [1 + 1j, 0.25, 2 + 0j]
    numeric_flow._run(plan, reg, 5)
    for _ in range(5):
        numeric_flow._run(plan, want)
    assert reg == want and reg[0] == (1 + 1j) * 32 + 0.25 * 31


def test_a_flow_whose_family_holds_no_register_has_no_peaks(monkeypatch):
    # gauge_toy starts at p_q1 = p_q2 = 0, which no step moves, so the
    # values of its family members, H'0, p_q2 and p_q1, hold no mask and no
    # register: its step plans hold no peak entry and its drift is 0
    plans = []
    run = numeric_flow._run

    def recording(plan, reg, times=1):
        plans.append(plan)
        return run(plan, reg, times)

    monkeypatch.setattr(numeric_flow, "_run", recording)
    result = run_pipeline(parse_model(fixture_text("gauge_toy.smf")), stage="flow",
                          path_text=fixture_text("gauge_toy_flow.cfg"))
    assert plans and not any(op == 6 for plan in plans for *_, op in plan)
    flow = result.flow
    assert flow.drift == 0.0 and set(flow.drift_by_invariant.values()) == {0.0}


@pytest.mark.parametrize("name", sorted(PATH_PAIRS))
def test_state_free_segments_match_the_reference(name):
    # q2 alone moves by 0.7 and by -0.9 over 7 steps, where the update that
    # the four equal rates sum to differs in its last bit from rate * h
    tds, report, init, path, _ = _path_pair(*PATH_PAIRS[name])
    path = PathSpec(path.params, ((0, 0), (0, 0.7), (1, 1.1), (1, 0.2)), 7)
    _assert_same_flow(integrate_flow(tds, path, init, report=report),
                      reference_integrate(tds, path, init, report))


def test_a_state_free_segment_that_overflows_fails():
    gt = build_gauge_toy()
    sys = build_hj_system(gt.legres)
    tds = total_differentials(sys)
    g = gt.gens
    init = {g["q1"]: GrassmannValue.body_value(0, 1.0),
            g["p1"]: GrassmannValue.body_value(0, 0.0),
            g["q2"]: GrassmannValue.body_value(0, 1e308),
            g["p2"]: GrassmannValue.body_value(0, 0.0)}
    # q2's rate, -2e308, is already infinite
    path = PathSpec((sys.t0, g["q2"]), ((1.0, 1e308), (1.0, -1e308)), 10)
    with pytest.raises(FlowError, match=r"not finite at waypoint \(1, -1e\+308\)"):
        integrate_flow(tds, path, init, report=closure_loop(sys))


def test_flow_from_the_zero_state_audits_no_register():
    # every value of this flow has an empty layout, so its drift audit
    # reads no register at all
    result = run_pipeline(parse_model(fixture_text("sho.smf")), stage="hj")
    path, init = parse_path_config("params t0\n0\n1\nsteps 10\nq = 0\np_q = 0\n",
                                   result.elaborated, result.hj_system)
    out = integrate_flow(result.tds, path, init, report=result.closure)
    _assert_same_flow(out, reference_integrate(result.tds, path, init, result.closure))
    assert (out.drift, out.drift_by_invariant) == (0.0, {"H'0": 0.0})


SHEAR = """\
model shear
even q1 q2
lagrangian: 1/2*(dot(q1) - dot(q2))*(dot(q1) - dot(q2))
"""


def test_two_parameters_moving_one_coordinate_add_their_rates():
    # dq1 = p_q1 dt0 + dq2: on the segment where t0 and q2 move together,
    # both rates scale into q1's derivative
    result = run_pipeline(parse_model(SHEAR), stage="hj")
    path, init = parse_path_config(
        "params t0 q2\n0, 0\n1, 1\n1, 2\nsteps 50\nq1 = 0.3\np_q1 = 0.7\n"
        "p_q2 = -0.7\n", result.elaborated, result.hj_system)
    out = integrate_flow(result.tds, path, init, report=result.closure)
    _assert_same_flow(out, reference_integrate(result.tds, path, init, result.closure))
    q1 = result.elaborated.lookup("q1")
    assert [values[q1].body for _, values in out.samples] == \
        pytest.approx([0.3, 2.0, 3.0], abs=1e-12)


@pytest.mark.parametrize("model,cfg,waypoints,steps", [
    # t0 and q2 at unequal rates, neither 1, then q2 alone, then both again;
    # each rate scales into q1's derivative of every stage copy
    (SHEAR, "params t0 q2\n0, 0\n1, 1\nsteps 1\nq1 = 0.3\np_q1 = 0.7\n"
     "p_q2 = -0.7\n", ((0, 0), (0.7, 0.3), (0.7, 1.1), (1.9, 0.4)), 37),
    # t0 at rates 0.35 and 0.85: every derivative of the three flavours is
    # scaled, not landed, in all four copies of the stage
    (data_text("flavour3.smf"), data_text("flavour3_flow.cfg"),
     ((0.0,), (0.35,), (1.2,)), 20),
], ids=["shear", "flavour3"])
def test_unequal_rates_match_the_reference(model, cfg, waypoints, steps):
    result = run_pipeline(parse_model(model), stage="hj")
    path, init = parse_path_config(cfg, result.elaborated, result.hj_system)
    path = PathSpec(path.params, waypoints, steps)
    out = integrate_flow(result.tds, path, init, report=result.closure)
    _assert_same_flow(out, reference_integrate(result.tds, path, init, result.closure))
    assert out.z.max_abs > 0


def _seeded_init(elab, n, rng, flavours, evens):
    """Random values of Lambda_n on the surface p_psi = i/2 psibar,
    p_psibar = i/2 psi: four to six odd slots per fermion (every odd slot
    of Lambda_2), so that three or more products land on one slot, and a
    body with at most one even soul slot for each of evens."""
    def value(parity, count):
        masks = [m for m in range(1 << n) if bin(m).count("1") % 2 == parity]
        return GrassmannValue(n, {
            m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for m in rng.sample(masks, min(count, len(masks)))})

    init = {}
    for index in flavours:
        psi, psibar = value(1, rng.randint(4, 6)), value(1, rng.randint(4, 6))
        init[elab.lookup("psi", index)] = psi
        init[elab.lookup("psibar", index)] = psibar
        init[elab.lookup("p_psi", index)] = psibar.scaled(0.5j)
        init[elab.lookup("p_psibar", index)] = psi.scaled(0.5j)
    for name in evens:
        init[elab.lookup(name)] = (GrassmannValue.body_value(n, rng.uniform(0.5, 1.5))
                                   + value(0, rng.randint(0, 1)))
    return init


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("text,n,flavours,evens", [
    (fixture_text("fermionic_oscillator.smf"), 2, (None,), ("m",)),
    (data_text("flavour3.smf"), 6, (1, 2, 3), ("x", "p_x", "m", "g")),
], ids=["fermionic", "flavour3"])
def test_planned_flow_matches_dict_reference_on_seeded_flows(seed, text, n,
                                                               flavours, evens):
    result = run_pipeline(parse_model(text), stage="hj")
    rng = random.Random(1300 + seed)
    init = _seeded_init(result.elaborated, n, rng, flavours, evens)
    path = PathSpec((result.hj_system.t0,), ((0.0,), (rng.uniform(0.5, 2.0),)), 12)
    _assert_same_flow(integrate_flow(result.tds, path, init, report=result.closure),
                      reference_integrate(result.tds, path, init, result.closure))


FOLDED_FLOWS = [
    (fixture_text("fermionic_oscillator.smf"), 2, (None,), (), ("m",)),
    (data_text("flavour3.smf"), 6, (1, 2, 3), ("x", "p_x"), ("m", "g")),
]


def _folded_and_slotted(text, n, flavours, evens, params, rng, values):
    """A seeded flow whose params have the body values that values draws
    from rng, run as integrate_flow folds them and by the dict reference
    with every param a slot."""
    result = run_pipeline(parse_model(text), stage="hj")
    init = _seeded_init(result.elaborated, n, rng, flavours, evens)
    for name in params:
        init[result.elaborated.lookup(name)] = GrassmannValue.body_value(n, values(rng))
    path = PathSpec((result.hj_system.t0,), ((0.0,), (rng.uniform(0.5, 2.0),)), 12)
    return (integrate_flow(result.tds, path, init, report=result.closure),
            reference_integrate(result.tds, path, init, result.closure, fold=False))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("text,n,flavours,evens,params", FOLDED_FLOWS,
                         ids=["fermionic", "flavour3"])
def test_folded_params_agree_with_slots_to_rounding(seed, text, n, flavours,
                                                    evens, params):
    # m and g in 0.5..1.5, which no power of two is: folding them rounds
    # differently.  Single numbers and the drift come out of cancellations,
    # so each is measured against the largest number of the endpoint
    # state and Z
    folded, slotted = _folded_and_slotted(text, n, flavours, evens, params,
                                          random.Random(3100 + seed),
                                          lambda rng: rng.uniform(0.5, 1.5))
    ends = [(folded.samples[-1][1][g], value)
            for g, value in slotted.samples[-1][1].items()]
    ends.append((folded.z, slotted.z))
    scale = max(value.max_abs for pair in ends for value in pair)
    assert scale > 0.5
    tol = 1e-12 * scale
    for got, want in ends:
        for m in got.coeff.keys() | want.coeff.keys():
            assert abs(got.coeff.get(m, 0j) - want.coeff.get(m, 0j)) <= tol
    assert folded.drift_by_invariant.keys() == slotted.drift_by_invariant.keys()
    for label, drift in slotted.drift_by_invariant.items():
        assert abs(folded.drift_by_invariant[label] - drift) <= tol
    assert abs(folded.drift - slotted.drift) <= tol
    assert abs(folded.onsurface_residual - slotted.onsurface_residual) <= tol


@pytest.mark.parametrize("values", [(1.0, 0.5), (2.0, 1.0), (0.5, 2.0)],
                         ids=["1,0.5", "2,1", "0.5,2"])
@pytest.mark.parametrize("text,n,flavours,evens,params", FOLDED_FLOWS,
                         ids=["fermionic", "flavour3"])
def test_folded_powers_of_two_equal_slots_bit_for_bit(values, text, n, flavours,
                                                      evens, params):
    # scaling by a power of two commutes with rounding
    chosen = iter(values)
    folded, slotted = _folded_and_slotted(text, n, flavours, evens, params,
                                          random.Random(3200),
                                          lambda rng: next(chosen))
    _assert_same_flow(folded, slotted)


def test_folded_odd_param_keeps_its_grade_check():
    # a body value for an odd param is refused, as for any generator, and
    # is never folded in silently; a value with a soul runs as a slot.  th
    # enters only Phi_psi = p_psi - i/2 psibar - th, not H0, so the flow's
    # own grade check is the one that sees it
    source = ("model odd_source\nodd psi psibar\nparam m: even\nparam th: odd\n"
              "lagrangian: 1/2*i*(psibar*dot(psi) - dot(psibar)*psi)"
              " - m*psibar*psi + th*dot(psi)\n")
    result = run_pipeline(parse_model(source), stage="hj")
    path, init = parse_path_config(
        "params t0\n0\n1\nsteps 10\npsi = 1*g1\npsibar = 1*g2\n"
        "p_psi = 0.5j*g2 + 1*g3\np_psibar = 0.5j*g1\nm = 0.3\nth = 1*g3\n",
        result.elaborated, result.hj_system)
    _assert_same_flow(integrate_flow(result.tds, path, init, report=result.closure),
                      reference_integrate(result.tds, path, init, result.closure))
    th = result.elaborated.lookup("th")
    for value in (GrassmannValue.body_value(3, 1.0), GrassmannValue.body_value(3, 0.5j)):
        with pytest.raises(GradeMismatch, match="th assigned a value of the wrong grade"):
            integrate_flow(result.tds, path, {**init, th: value}, report=result.closure)


@pytest.mark.parametrize("dense", ["x", "fermions"])
def test_flow_plan_above_the_limit_fails_before_any_entry(monkeypatch, dense):
    # the three-flavour flow in Lambda_12 with a dense x, whose supports
    # outgrow the limit on the way to their fixpoint, or with dense
    # fermions, whose P0 program alone passes it; either way no sign is
    # worked out
    result = run_pipeline(parse_model(data_text("flavour3.smf")), stage="hj")
    elab, n = result.elaborated, LAMBDA_CAP
    init = {elab.lookup(name): GrassmannValue.body_value(n, 1.0)
            for name in ("x", "p_x", "m", "g")}
    for index in (1, 2, 3):
        psi = GrassmannValue.generator(n, index)
        psibar = GrassmannValue.generator(n, index + 3)
        if dense == "fermions":
            psi = psibar = GrassmannValue(n, {
                m: 1e-3 for m in range(1 << n) if bin(m).count("1") % 2})
        init[elab.lookup("psi", index)] = psi
        init[elab.lookup("psibar", index)] = psibar
        init[elab.lookup("p_psi", index)] = psibar.scaled(0.5j)
        init[elab.lookup("p_psibar", index)] = psi.scaled(0.5j)
    if dense == "x":
        init[elab.lookup("x")] = GrassmannValue(n, {
            m: 1e-3 for m in range(1 << n) if not bin(m).count("1") % 2})
    signed = _count_signs(monkeypatch)
    path = PathSpec((result.hj_system.t0,), ((0.0,), (1.0,)), 1)
    with pytest.raises(FlowError, match=f"PLAN_LIMIT = {numeric_flow.PLAN_LIMIT:,}"):
        integrate_flow(result.tds, path, init, report=result.closure)
    assert signed == []


def test_the_plan_limit_counts_a_peak_entry_per_audited_register(monkeypatch):
    # sho's step plan, counted before any entry is shared or dropped: the
    # one product of each of dq/dt0 = p_q and dp_q/dt0 = -q and the four of
    # Z's two terms, four times (24), the audit's 5 products, one peak entry
    # for its one register, and three stage inputs and one update for each
    # of the state's 3 numbers and one update for Z's (13): 43 entries
    sho, sys, tds, report = _sho_setup()
    g = sho.gens
    init = {g["q"]: GrassmannValue.body_value(0, 1.0),
            g["pq"]: GrassmannValue.body_value(0, 0.0)}
    path = PathSpec((sys.t0,), ((0.0,), (1.0,)), 1)
    monkeypatch.setattr(numeric_flow, "PLAN_LIMIT", 43)
    integrate_flow(tds, path, init, report=report)
    monkeypatch.setattr(numeric_flow, "PLAN_LIMIT", 42)
    with pytest.raises(FlowError, match="the flow needs more than PLAN_LIMIT"):
        integrate_flow(tds, path, init, report=report)


def _random_graded(rng, n, parity):
    """A pure-grade value of Lambda_n with about half its slots nonzero."""
    coeff = {}
    for mask in range(1 << n):
        if bin(mask).count("1") % 2 == parity and rng.random() < 0.5:
            coeff[mask] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return GrassmannValue(n, coeff)


LOWERED_GRID = [(0, 150), (1, 150), (2, 150), (3, 80), (6, 25)]


def test_lower_folds_fixed_values_into_coefficients():
    # m**2 scales the coefficient, a zero value drops its terms, and a
    # generator neither fixed nor in a slot is refused
    q = Generator("q", Parity.EVEN, Kind.COORDINATE, None, 0)
    m = Generator("m", Parity.EVEN, Kind.PARAMETER, None, 1)
    g = Generator("g", Parity.EVEN, Kind.PARAMETER, None, 2)
    p = (const_poly(3) * gen_poly(m) * gen_poly(m) * gen_poly(q)
         + const_poly(2) * gen_poly(m) * gen_poly(g) * gen_poly(q) * gen_poly(q)
         + gen_poly(g) * gen_poly(q) + gen_poly(m))
    program = lower(p, {q: 0}, {m: 0.5 + 0j, g: 0j})
    assert sorted(program, key=lambda term: term[1]) == [(0.5 + 0j, ()), (0.75 + 0j, (0,))]
    assert len(lower(p, {q: 0, m: 1, g: 2}, {})) == 4
    with pytest.raises(GradeMismatch, match="no value assigned to q"):
        lower(p, {}, {m: 0.5 + 0j, g: 1j})


@pytest.mark.parametrize("n,count", LOWERED_GRID)
def test_lowered_programs_match_evaluate(n, count):
    # a flow's plan of one lowered program, on values that hold about half
    # their slots, against evaluate and the reference
    rng = random.Random(400 + n)
    gens = [g for pair in small_basis().pairs for g in pair]
    slot_of = {g: i for i, g in enumerate(gens)}
    for _ in range(count):
        values = {g: _random_graded(rng, n, g.parity) for g in gens}
        p = random_poly(rng, gens, max_terms=4, max_degree=4)
        want = reference_evaluate(p, values, n)
        plan = numeric_flow._Plan([values[g].coeff for g in gens],
                                  [tuple(sorted(values[g].coeff)) for g in gens])
        entries = []
        out = plan.program(lower(p, slot_of, {}), entries, {})
        numeric_flow._run(entries, plan.reg)
        got = GrassmannValue(n, {m: plan.reg[r] for m, r in out.items()})
        assert evaluate(p, values).coeff == got.coeff
        if n <= 2:
            # at most two products land on one slot, so no sum is reordered
            assert got.coeff == want.coeff
            continue
        scale = 0.0
        for mono in p.terms:
            size = abs(complex(mono.coeff))
            for g, e in mono.factors:
                size *= sum(map(abs, values[g].coeff.values())) ** e
            scale += size
        assert (got - want).max_abs <= 1e-12 * scale


@pytest.mark.parametrize("n,count", LOWERED_GRID)
def test_lowered_programs_initialise_their_registers(n, count):
    # a plan's first write of a register sets it, so a second run on the
    # same register file, with no reset between, leaves what one run leaves
    rng = random.Random(900 + n)
    gens = [g for pair in small_basis().pairs for g in pair]
    slot_of = {g: i for i, g in enumerate(gens)}
    for _ in range(count):
        values = {g: _random_graded(rng, n, g.parity) for g in gens}
        plan = numeric_flow._Plan([values[g].coeff for g in gens],
                                  [tuple(sorted(values[g].coeff)) for g in gens])
        entries, held = [], {}
        for _ in range(rng.randint(1, 3)):
            p = random_poly(rng, gens, max_terms=4, max_degree=4)
            plan.program(lower(p, slot_of, {}), entries, held)
        numeric_flow._run(entries, plan.reg)
        once = list(plan.reg)
        numeric_flow._run(entries, plan.reg)
        assert list(map(repr, plan.reg)) == list(map(repr, once))


def test_product_matches_reference_product(monkeypatch):
    n = 4
    for a in range(1 << n):
        for b in range(1 << n):
            x, y = GrassmannValue(n, {a: 1}), GrassmannValue(n, {b: 1})
            prod = reference_product(x, y)
            assert (x * y).coeff == prod.coeff
            assert numeric_flow._product(x.coeff, y.coeff) == prod.coeff
    # at the cap, a product works out the sign of only the disjoint pairs
    # it meets, each once
    rng = random.Random(12)

    def mask():
        # about a quarter of the bits, so that many pairs are disjoint
        return rng.getrandbits(LAMBDA_CAP) & rng.getrandbits(LAMBDA_CAP)

    x = GrassmannValue(LAMBDA_CAP, {mask(): 1j for _ in range(4)})
    y = GrassmannValue(LAMBDA_CAP, {mask(): 1j for _ in range(40)})
    signed = _count_signs(monkeypatch)
    assert numeric_flow._product(x.coeff, y.coeff) == reference_product(x, y).coeff
    assert len(signed) > 40
    assert sorted(signed) == sorted((a, b) for a in x.coeff for b in y.coeff
                                    if not a & b)


def test_flow_makes_no_per_step_evaluation(monkeypatch):
    sho, sys, tds, report = _sho_setup()
    g = sho.gens
    init = {g["q"]: GrassmannValue.body_value(0, 1.0),
            g["pq"]: GrassmannValue.body_value(0, 0.0)}
    calls = {"evaluate": 0, "mul": 0}
    evaluate_orig = numeric_flow.evaluate
    mul_orig = GrassmannValue.__mul__

    def counting_evaluate(*args):
        calls["evaluate"] += 1
        return evaluate_orig(*args)

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul_orig(self, other)

    monkeypatch.setattr(numeric_flow, "evaluate", counting_evaluate)
    monkeypatch.setattr(GrassmannValue, "__mul__", counting_mul)
    seen = []
    for steps in (20, 2000):
        calls.update(evaluate=0, mul=0)
        path = PathSpec((sys.t0,), ((0.0,), (1.0,)), steps)
        integrate_flow(tds, path, init, report=report)
        seen.append(dict(calls))
    assert seen[0] == seen[1]


def _fermionic_setup():
    fo = build_fermionic()
    sys = build_hj_system(fo.legres)
    tds = total_differentials(sys)
    g1 = GrassmannValue.generator(2, 1)
    g2 = GrassmannValue.generator(2, 2)
    g = fo.gens
    init = {g["psi"]: g1, g["psibar"]: g2,
            g["ppsi"]: g2.scaled(0.5j), g["ppsibar"]: g1.scaled(0.5j),
            g["m"]: GrassmannValue.body_value(2, 1.0)}
    return fo, sys, tds, closure_loop(sys), init


def test_flow_checks_grades_and_assignments_on_init():
    # the flow and the reference refuse each init alike
    fo, sys, tds, report, init = _fermionic_setup()
    g = fo.gens
    path = PathSpec((sys.t0,), ((0.0,), (1.0,)), 10)
    fs_tds, fs_report, fs_init, fs_path, _ = _path_pair(*PATH_PAIRS["free_singular"])
    q2 = fs_path.params[1]
    for flow, init_, error, message in [
            ((tds, path, report), {**init, g["psi"]: GrassmannValue.body_value(2, 1.0)},
             GradeMismatch, "psi assigned a value of the wrong grade"),
            ((tds, path, report), {**init, g["m"]: GrassmannValue.generator(2, 1)},
             GradeMismatch, "m assigned a value of the wrong grade"),
            ((tds, path, report), {k: v for k, v in init.items() if k != g["m"]},
             GradeMismatch, "no value assigned to m"),
            ((tds, path, report), {k: v for k, v in init.items() if k != g["psi"]},
             FlowError, "initial state misses psi"),
            # no program reads q2: the flow used to run and report an odd q2
            ((fs_tds, fs_path, fs_report), {**fs_init, q2: GrassmannValue.generator(1, 1)},
             GradeMismatch, "q2 assigned a value of the wrong grade")]:
        tds_, path_, report_ = flow
        for integrate in (integrate_flow, reference_integrate):
            with pytest.raises(error, match=message):
                integrate(tds_, path_, init_, report=report_)


def test_library_refusals():
    sho, sys, tds, report = _sho_setup()
    q, pq = sho.gens["q"], sho.gens["pq"]
    one = GrassmannValue.body_value(1, 1.0)
    init = {q: one, pq: GrassmannValue(1)}
    path = PathSpec((sys.t0,), ((0.0,), (1.0,)), 4)
    for call, error, message in [
            (lambda: evaluate(gen_poly(q) * gen_poly(pq), {q: one}),
             GradeMismatch, "no value assigned to p_q"),
            (lambda: evaluate(gen_poly(q) * gen_poly(pq),
                              {q: one, pq: GrassmannValue.body_value(2, 1.0)}),
             GradeMismatch, "assignments mix different Lambda_n"),
            (lambda: GrassmannValue.generator(2, 0),
             FlowError, r"generator index 0 outside 1\.\.2"),
            (lambda: path_independence_check(
                tds, path, PathSpec((sys.t0,), ((0.0,), (2.0,)), 4), init, report=report),
             FlowError, "paths must share their endpoints")]:
        with pytest.raises(error, match=message):
            call()


def test_path_pair_that_disagrees():
    # four RK4 steps over one period against a thousand per half period: the
    # coarse path ends elsewhere, at another energy
    sho, sys, tds, report = _sho_setup()
    init = {sho.gens["q"]: GrassmannValue.body_value(0, 1.0),
            sho.gens["pq"]: GrassmannValue.body_value(0, 0.0)}
    paths = (PathSpec((sys.t0,), ((0.0,), (2 * math.pi,)), 4),
             PathSpec((sys.t0,), ((0.0,), (math.pi,), (2 * math.pi,)), 1000))
    out = path_independence_check(tds, *paths, init, report=report)
    assert out.strict and not out.agree
    diff = {name: d for name, d, compared, _ in out.comparisons if compared}
    assert diff.keys() == {"q", "p_q", "H'0"} and min(diff.values()) > 1e-3
    # a family member is compared as evaluate measures it at each endpoint
    expr = dict(numeric_flow.make_flow(tds, report).invariants)["H'0"]
    va, vb = (evaluate(expr, integrate_flow(tds, path, init, report).samples[-1][1]).max_abs
              for path in paths)
    assert math.isclose(diff["H'0"], abs(va - vb), rel_tol=1e-12)


def test_path_independence_lifts_constants_to_the_flow():
    # a soulless m given in Lambda_0, the odd values in Lambda_2: the flow
    # lifts m, and so must the comparison of the family members
    fo, sys, tds, report, init = _fermionic_setup()
    path_a = PathSpec((sys.t0,), ((0.0,), (1.0,)), 40)
    path_b = PathSpec((sys.t0,), ((0.0,), (0.5,), (1.0,)), 20)
    want = path_independence_check(tds, path_a, path_b, init, report=report)
    init[fo.gens["m"]] = GrassmannValue.body_value(0, 1.0)
    out = path_independence_check(tds, path_a, path_b, init, report=report)
    assert out.agree
    assert out.comparisons == want.comparisons
    assert [name for name, *_ in out.comparisons if name.startswith("H'")]


def test_flow_that_is_not_finite_fails():
    sho, sys, tds, report = _sho_setup()
    g = sho.gens
    init = {g["q"]: GrassmannValue.body_value(0, 1.0),
            g["pq"]: GrassmannValue.body_value(0, 0.0)}
    # the RK4 steps overflow to inf and then nan on the way to the waypoint
    path = PathSpec((sys.t0,), ((0.0,), (1e300,)), 10)
    with pytest.raises(FlowError, match=r"not finite at waypoint \(1e\+300\)"):
        integrate_flow(tds, path, init, report=report)
    # an infinite q makes P0 infinite and the surface residual nan
    init[g["q"]] = GrassmannValue.body_value(0, math.inf)
    with pytest.raises(FlowError, match="constraint surface by nan"):
        integrate_flow(tds, PathSpec((sys.t0,), ((0.0,), (1.0,)), 10), init,
                       report=report)


ODD_GAUGE = """\
model oddgauge
even q
odd chi
lagrangian: 1/2*dot(q)*dot(q) - 1/2*q*q + 0*chi
"""


def test_flow_failures_are_flow_errors():
    assert issubclass(FlowError, SupermechError) and issubclass(FlowError, ValueError)
    with pytest.raises(FlowError):
        GrassmannValue(13)
    for params, waypoints, steps, message in [
            ((1,), ((0,), (1,)), 0, "steps must be >= 1"),
            ((1,), ((0,), (1,)), 2.5, "steps must be >= 1 and an int, got 2.5"),
            ((1,), ((0,), (1,)), "10", "steps must be >= 1 and an int, got '10'"),
            ((1,), ((0,), (1,)), True, "steps must be >= 1 and an int, got True"),
            ((1,), ((0,),), 5, "need at least two waypoints"),
            ((1,), ((0,), (1, 2)), 5, "waypoint arity does not match parameters"),
            ((1,), ((0,), (0,)), 5, "consecutive waypoints must differ")]:
        with pytest.raises(FlowError, match=message):
            PathSpec(params, waypoints, steps)

    result = run_pipeline(parse_model(ODD_GAUGE), stage="hj")
    sys, elab = result.hj_system, result.elaborated
    q, chi = elab.lookup("q"), elab.lookup("chi")
    path = PathSpec((sys.t0, chi), ((0, 0), (1, 0)), 5)
    with pytest.raises(AttributeError, match="read-only"):
        path.steps = 2
    # an odd parameter's value has no body: a path neither starts it off 0
    # nor moves it
    for waypoints, message in [
            (((0, 0.5), (1, 0.5)), "chi assigned a value of the wrong grade"),
            (((0, 0), (1, 0), (1, 1)), "odd free parameter chi cannot be moved")]:
        with pytest.raises(FlowError, match=message):
            PathSpec((sys.t0, chi), waypoints, 5)
    init = {q: GrassmannValue.body_value(1, 1.0), elab.lookup("p_q"): GrassmannValue(1),
            chi: GrassmannValue(1), elab.lookup("p_chi"): GrassmannValue(1)}
    with pytest.raises(FlowError, match="do not match"):
        integrate_flow(result.tds, PathSpec((sys.t0,), ((0,), (1,)), 5), init,
                       report=result.closure)
    out = integrate_flow(result.tds, PathSpec((sys.t0, chi), ((0, 0), (1, 0)), 50),
                         init, report=result.closure)
    assert abs(out.samples[-1][1][q].body - math.cos(1.0)) < 1e-8

    fo, sys, tds, report, init = _fermionic_setup()
    init[fo.gens["ppsi"]] = init[fo.gens["ppsi"]].scaled(1.4)
    with pytest.raises(FlowError, match="constraint surface"):
        integrate_flow(tds, PathSpec((sys.t0,), ((0.0,), (1.0,)), 10), init,
                       report=report)

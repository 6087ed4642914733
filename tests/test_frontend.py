"""Parser, elaborator, pipeline, CLI and report determinism."""
import cmath
import contextlib
import copy
import io
import json
import os
import pathlib
import pickle
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import DATA, FIXTURES, data_text, fixture_text
from supermech import superalgebra
from supermech.errors import (
    IndexOutOfRange,
    MixedParity,
    ModelSyntaxError,
    UnboundConstant,
    UnknownSymbol,
)
from supermech.frontend import cli
from supermech.frontend import parser as syn
from supermech.frontend.elaborator import elaborate
from supermech.frontend.parser import parse_model, to_source
from supermech.frontend.pipeline import run_pipeline
from supermech.frontend.report import render_json, render_text
from supermech.superalgebra import Coefficient, Parity

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ALL_FIXTURES = [
    "sho.smf",
    "free_singular.smf",
    "gauge_toy.smf",
    "fermionic_oscillator.smf",
    "dirac_maxwell_reduced.smf",
]

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_round_trip_parse(name):
    doc = parse_model(fixture_text(name))
    assert parse_model(to_source(doc)) == doc


def test_parse_preserves_written_order():
    doc = parse_model(
        "model m\nodd psi psibar\nlagrangian: psibar*dot(psi) - dot(psibar)*psi\n")
    assert to_source(doc).splitlines()[-1] == \
        "lagrangian: psibar*dot(psi) - dot(psibar)*psi"


def test_parse_syntax_error_location():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("model m\neven q\nlagrangian: q *\n")
    assert err.value.line == 3


@pytest.mark.parametrize("text, line, col", [
    ("model m\neven q\nlagrangian: 1/0*dot(q)*dot(q)\n", 3, 15),
    ("model m\nodd psi[2]\ntensor g[1,2] = [[1, 3/0]]\n"
     "lagrangian: psi[1]*g[1,2]*psi[2]\n", 3, 24),
])
def test_parse_division_by_zero_location(tmp_path, text, line, col):
    # a zero denominator is a typed syntax error at the denominator, in a
    # Lagrangian term or a tensor entry, and the CLI exits 2
    with pytest.raises(ModelSyntaxError, match="division by zero") as err:
        parse_model(text)
    assert (err.value.line, err.value.column) == (line, col)
    bad = tmp_path / "zero.smf"
    bad.write_text(text, encoding="utf-8")
    code, out, err_text = _cli_main("analyze", str(bad))
    assert code == 2 and out == ""
    assert err_text.startswith("error (model): division by zero")


def test_parse_refuses_a_second_lagrangian(tmp_path):
    # a second section would silently replace the first (L = x, rank 0)
    text = "model m\neven x\nlagrangian: 1/2*dot(x)*dot(x)\nlagrangian: x\n"
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(text)
    assert str(err.value) == "lagrangian already given on line 3 (line 4, column 1)"
    bad = tmp_path / "twice.smf"
    bad.write_text(text, encoding="utf-8")
    code, out, err_text = _cli_main("analyze", str(bad), "--format", "structured")
    assert code == 2 and out == ""
    assert json.loads(err_text)["error"] == {"kind": "model", "message": str(err.value)}


@pytest.mark.parametrize("text, message", [
    # each names and points at the token it refuses
    ("model m\nparam m: big\nlagrangian: 1\n",
     "parameter parity must be even or odd, found 'big' (line 2, column 10)"),
    # a row of the wrong length, one row too many, and rows missing, which
    # the ']' that ends the value shows
    ("model m\neven x\ntensor g[2,2] = [[1,2],[3]]\nlagrangian: x\n",
     "tensor g shape does not match [2,2] (line 3, column 24)"),
    ("model m\neven x\ntensor g[1,2] = [[1,2],[3,4]]\nlagrangian: x\n",
     "tensor g shape does not match [1,2] (line 3, column 24)"),
    ("model m\neven x\ntensor g[2,2] = [[1,2]]\nlagrangian: x\n",
     "tensor g shape does not match [2,2] (line 3, column 23)"),
    ("model m\neven x[2]\nlagrangian: dot(x[1])[1]",
     "dot() indexed both inside and outside, found '[' (line 3, column 22)"),
], ids=["parity", "tensor-row", "tensor-extra-row", "tensor-rows-missing", "dot-indexed-twice"])
def test_parse_errors_point_at_the_token_they_refuse(text, message):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(text)
    assert str(err.value) == message


# a model that elaborates, for the rows below to break one line of
_WELL = "model m\neven x\nlagrangian: 1/2*dot(x)*dot(x)\n"


@pytest.mark.parametrize("text, code, message", [
    (_WELL.replace("x", "t0"), 2, "'t0' is reserved"),
    (_WELL.replace("x", "v_x"), 2, "'v_x' collides with derived generator names"),
    (_WELL.replace("even x", "even x\nodd x"), 2, "'x' declared twice"),
    ("model m\neven x\nparam m: even\nlagrangian: m[1]*x\n", 2,
     "parameter m takes no index"),
    ("model m\neven x\ntensor g[1,1] = [[1]]\nlagrangian: g[1]*x\n", 2,
     "tensor g needs two indices"),
    ("model m\neven x\ntensor g[1,1] = [[1]]\nlagrangian: g[2,1]*x\n", 2,
     "tensor index [2,1] outside g"),
    ("model m\neven x[2]\nlagrangian: sum(a in 1..2, a*dot(x[a])*dot(x[a]))\n", 2,
     "index variable 'a' used as a value"),
    (_WELL.replace("dot(x)*dot(x)", "dot(y)*dot(y)"), 2, "dot() of unknown coordinate 'y'"),
    ("model m\neven x[2]\nlagrangian: dot(x[b])*dot(x[1])\n", 2,
     "unbound index variable 'b'"),
    (_WELL.replace("\n", " $\n"), 2, "unexpected character '$' (line 1, column 9)"),
    (_WELL.replace("even", "5"), 2,
     "expected a declaration keyword, found '5' (line 2, column 1)"),
    (_WELL.replace(" x\n", "\n"), 2,
     "expected at least one name, found 'lagrangian' (line 3, column 1)"),
    (_WELL.replace("even", "foo"), 2, "unknown declaration, found 'foo' (line 2, column 1)"),
    ("model m\neven x\n", 2, "model has no lagrangian (line 1, column 1)"),
    # H = -x: consistency of the primary p_x leaves the constant 1
    ("model m\neven x\nlagrangian: x\n", 3, "consistency of Phi1 yields 1"),
], ids=["reserved", "derived-name", "declared-twice", "param-index", "tensor-arity",
        "tensor-index", "index-as-value", "dot-unknown", "unbound-index",
        "character", "keyword", "no-name", "declaration", "no-lagrangian",
        "inconsistent"])
def test_cli_refuses_a_bad_model(tmp_path, text, code, message):
    model = tmp_path / "bad.smf"
    model.write_text(text, encoding="utf-8")
    kind = "model" if code == 2 else "inconsistent"
    assert _cli_main("analyze", str(model)) == (code, "", f"error ({kind}): {message}\n")


def test_index_out_of_range():
    doc = parse_model("model m\nodd psi[4]\nlagrangian: psi[5]*psi[1]\n")
    with pytest.raises(IndexOutOfRange):
        elaborate(doc)


def test_unknown_symbol():
    doc = parse_model("model m\neven q\nlagrangian: dot(q)*dot(q) + w\n")
    with pytest.raises(UnknownSymbol):
        elaborate(doc)


def test_unbound_tensor():
    doc = parse_model("model m\nodd psi[2]\nlagrangian: psi[1]*gam[1,2]*psi[2]\n")
    with pytest.raises(UnboundConstant):
        elaborate(doc)


def _tensor_model(entry):
    return ("model m\neven q\nodd psi[2]\nparam m: even\n"
            f"tensor g[1,1] = [[{entry}]]\n"
            "lagrangian: 1/2*dot(q)*dot(q) + i*psi[1]*g[1,1]*psi[2]\n")


@pytest.mark.parametrize("entry, value", [
    ("1/2 + 3/2*i", Coefficient(Fraction(1, 2), Fraction(3, 2))),
    ("-(1 + i)*2", Coefficient(-2, -2)),
    # elaborated like any expression, so a constant sum(...) is accepted
    ("sum(a in 1..3, 1/3)", Coefficient(1)),
])
def test_tensor_entry_constant_expression(entry, value):
    elab = elaborate(parse_model(_tensor_model(entry)))
    assert elab.tensors["g"] == ((value,),)


@pytest.mark.parametrize("entry, message", [
    ("q", "tensor g entry is not a numeric constant"),
    ("m", "tensor g entry is not a numeric constant"),
    ("dot(q)", "tensor g entry is not a numeric constant"),
    # a declared tensor, here the one being defined, is no numeric constant
    ("g[1,1]", "tensor g entry is not a numeric constant"),
])
def test_tensor_entry_not_constant(entry, message):
    with pytest.raises(UnboundConstant) as info:
        elaborate(parse_model(_tensor_model(entry)))
    assert str(info.value) == message


@pytest.mark.parametrize("tensors, message", [
    ("tensor h[1,1] = [[2]]\ntensor g[1,1] = [[h[1,1]]]\n",
     "tensor g entry is not a numeric constant"),
    ("tensor g[1,1] = [[h[1,1]]]\ntensor h[1,1] = [[2]]\n",
     "tensor g entry is not a numeric constant"),
    # a two-index name no tensor declares keeps its own message
    ("tensor g[1,1] = [[k[1,1]]]\n", "tensor 'k' is not declared"),
])
def test_tensor_entry_naming_a_tensor(tensors, message):
    text = f"model m\neven q\n{tensors}lagrangian: dot(q)*dot(q)\n"
    with pytest.raises(UnboundConstant) as info:
        elaborate(parse_model(text))
    assert str(info.value) == message


def test_tensor_entry_unknown_name(tmp_path):
    # an undeclared name in an entry is an unknown symbol, a model error
    with pytest.raises(UnknownSymbol, match="unknown symbol 'w'"):
        elaborate(parse_model(_tensor_model("1 + w")))
    bad = tmp_path / "tensor.smf"
    bad.write_text(_tensor_model("1 + w"), encoding="utf-8")
    code, out, err = _cli_main("analyze", str(bad))
    assert (code, out) == (2, "")
    assert err == "error (model): unknown symbol 'w'\n"


def test_odd_lagrangian_rejected():
    doc = parse_model("model m\nodd psi\nparam m: even\nlagrangian: m*psi\n")
    with pytest.raises(MixedParity):
        elaborate(doc)


def test_gamma0_contraction_survivors():
    text = (
        "model m\n"
        "odd psi[4] psibar[4]\n"
        "tensor gamma0[4,4] = [[1,0,0,0],[0,1,0,0],[0,0,-1,0],[0,0,0,-1]]\n"
        "lagrangian: i*sum(a in 1..4, sum(b in 1..4,"
        " psibar[a]*gamma0[a,b]*dot(psi)[b]))\n"
    )
    elab = elaborate(parse_model(text))
    assert len(elab.model.lagrangian.terms) == 4


def test_reduced_fixture_generator_counts():
    elab = elaborate(parse_model(fixture_text("dirac_maxwell_reduced.smf")))
    model = elab.model
    evens = [g for g in (*model.coordinates, *model.velocities.values(),
                         *model.momenta.values()) if g.parity == Parity.EVEN]
    odd_coords = [q for q in model.coordinates if q.parity == Parity.ODD]
    assert len(evens) == 12
    assert len(odd_coords) == 8
    assert elab.n_odd == 8


def test_elaboration_deterministic():
    text = fixture_text("dirac_maxwell_reduced.smf")
    one = elaborate(parse_model(text))
    two = elaborate(parse_model(text))
    assert [str(q) for q in one.model.coordinates] == \
        [str(q) for q in two.model.coordinates]
    assert one.model.lagrangian == two.model.lagrangian


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_pipeline_all_stages(name):
    doc = parse_model(fixture_text(name))
    result = run_pipeline(doc, stage="all")
    assert result.crosscheck.verdict == "equivalent"


def bundled_text(name):
    """A model or flow config from the fixtures, else from tests/data."""
    return fixture_text(name) if (FIXTURES / name).exists() else data_text(name)


# Every report golden, text (.txt) or structured (.json), of a full run of
# the model of the same name.  Among them: the headline model, whose
# structured report pins delta, its inverse, the multipliers and the closure
# outcomes as keys; sweep_gauss_fermi, a gauge field, a fermion pair and a
# Gauss-law coupling whose reports hold proper fractions (1/2, 1/3, 1/4,
# 1/6, 2/5, 5/2), pinning exact rational arithmetic end to end; and
# two_gauss, two independent Gauss sectors whose generators differ only by
# name, pinning that each stays distinct from its twin through
# classification, recombination and the bracket table.  Each golden holds
# its cross-check verdict.
REPORT_GOLDENS = sorted(GOLDEN.glob("*.txt")) + sorted(GOLDEN.glob("*.json"))


@pytest.mark.parametrize("golden", REPORT_GOLDENS, ids=lambda golden: golden.stem + ".smf"
                         + ("" if golden.suffix == ".txt" else "-structured"))
def test_reports_match_golden(golden):
    result = run_pipeline(parse_model(bundled_text(golden.stem + ".smf")), stage="all")
    render = render_text if golden.suffix == ".txt" else render_json
    assert render(result) == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("text", [fixture_text("dirac_maxwell_reduced.smf"),
                                  data_text("sweep_gauss_fermi.smf")],
                         ids=["dirac_maxwell_reduced", "sweep_gauss_fermi"])
def test_pipeline_coefficients_are_canonical(text):
    # every part is an int when integral, otherwise a Fraction with
    # denominator > 1, through every stage that inverts or divides
    result = run_pipeline(parse_model(text), stage="all")
    analysis, family = result.analysis, result.closure.family
    polys = [rec.expr for rec in analysis.records]
    polys += [rec.solved[1] for rec in analysis.records if rec.solved]
    polys += [entry for row in analysis.delta_inverse for entry in row]
    polys += [value for _, _, value in analysis.bracket_table]
    polys += [h.expr for h in family] + [h.solved[1] for h in family if h.solved]
    parts = [part for p in polys for m in p.terms for part in (m.coeff.re, m.coeff.im)]
    assert any(type(part) is Fraction for part in parts)
    for part in parts:
        assert type(part) is (int if part.denominator == 1 else Fraction)


def test_structured_output_shape():
    doc = parse_model(fixture_text("gauge_toy.smf"))
    result = run_pipeline(doc, stage="all")
    payload = json.loads(render_json(result))
    assert set(payload) == {"model", "legendre", "dirac", "hj"}
    assert payload["hj"]["cross_check"]["verdict"] == "equivalent"
    assert payload["legendre"]["rank"] == 1


def _run_python(*args, env=None, text=True):
    # the child must import this checkout's package, installed or not
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=text, env=env)


def _run_cli(*args, env=None, text=True):
    return _run_python("-m", "supermech.frontend.cli", *args, env=env, text=text)


def test_cli_text_and_exit_codes():
    out = _run_cli("analyze", str(FIXTURES / "gauge_toy.smf"), "--stage", "dirac")
    assert out.returncode == 0
    assert "== dirac ==" in out.stdout

    bad = _run_cli("analyze", str(FIXTURES / "does_not_exist.smf"))
    assert bad.returncode == 2


def test_cli_model_error_exit(tmp_path):
    bad = tmp_path / "bad.smf"
    bad.write_text("model m\neven q\nlagrangian: q *\n", encoding="utf-8")
    out = _run_cli("analyze", str(bad))
    assert out.returncode == 2
    assert "error (model)" in out.stderr

    odd = tmp_path / "odd.smf"
    odd.write_text("model m\nodd psi\nparam m: even\nlagrangian: m*psi\n",
                   encoding="utf-8")
    out = _run_cli("analyze", str(odd))
    assert out.returncode == 2


def test_cli_flow_stage():
    out = _run_cli(
        "analyze", str(FIXTURES / "sho.smf"), "--stage", "flow",
        "--path", str(FIXTURES / "sho_flow.cfg"))
    assert out.returncode == 0
    assert "== flow ==" in out.stdout
    assert "drift tolerance (1e-08): ok" in out.stdout


def test_cli_structured_format():
    out = _run_cli(
        "analyze", str(FIXTURES / "fermionic_oscillator.smf"),
        "--format", "structured")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["hj"]["cross_check"]["verdict"] == "equivalent"


def test_cli_inconsistent_dynamics_exit(tmp_path):
    # a Lagrangian linear in the coordinate forces a constant consistency
    # residue: contradictory dynamics, reported with exit status 3
    bad = tmp_path / "inconsistent.smf"
    bad.write_text("model inconsistent\neven q\nlagrangian: q\n", encoding="utf-8")
    out = _run_cli("analyze", str(bad), "--stage", "dirac")
    assert out.returncode == 3
    assert "inconsistent" in out.stderr


def test_cli_closure_round_limit():
    # the headline model's closure loop needs three rounds: a limit of two
    # is a ClosureDiverged, reported as inconsistent with exit status 3
    path = str(FIXTURES / "dirac_maxwell_reduced.smf")
    code, out, err = _cli_main("analyze", path, "--max-closure-rounds", "2")
    assert (code, out) == (3, "")
    assert err == "error (inconsistent): closure loop exceeded 2 rounds\n"
    code, out, err = _cli_main("analyze", path, "--max-closure-rounds", "2",
                               "--format", "structured")
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": {
        "kind": "inconsistent", "message": "closure loop exceeded 2 rounds"}}
    code, _, err = _cli_main("analyze", path, "--max-closure-rounds", "3")
    assert (code, err) == (0, "")



def test_cli_lets_a_bare_value_error_through(monkeypatch):
    # only typed SupermechErrors are model errors; a bare ValueError is a bug
    def broken(*args, **kwargs):
        raise ValueError("a bug, not a model error")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    with pytest.raises(ValueError, match="a bug, not a model error"):
        cli.main(["analyze", str(FIXTURES / "sho.smf")])

def test_cli_structured_io_error(tmp_path):
    missing = tmp_path / "missing.smf"
    code, out, err = _cli_main("analyze", str(missing), "--format", "structured")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {
        "kind": "io", "message": f"[Errno 2] No such file or directory: '{missing}'"}}


@pytest.mark.parametrize("args,golden", [
    (("dirac_maxwell_reduced.smf", "--stage", "all"), "dirac_maxwell_reduced.txt"),
    (("fermionic_oscillator.smf", "--stage", "flow", "--format", "structured",
      "--path", "fermionic_flow.cfg"), "flow/fermionic_flow.json"),
])
def test_output_independent_of_hash_seed(args, golden):
    # gradients, surfaces and bracket memos are dicts keyed by generators,
    # factor tuples and labels.  Labels and names hash by the string hash
    # seed, which this test varies; generators hash by their addresses,
    # which the next test varies.  No output byte may depend on either
    args = [str(FIXTURES / a) if a.endswith((".smf", ".cfg")) else a
            for a in args]
    expected = (GOLDEN / golden).read_bytes()
    for seed in ("0", "4242"):
        out = _run_cli("analyze", *args, env={"PYTHONHASHSEED": seed},
                       text=False)
        assert out.returncode == 0, out.stderr
        assert out.stdout == expected, seed


# Runs each model twice in one interpreter.  Between the runs the first
# run's generators are freed and their memory is refilled, so the second
# run's generators get new addresses.  Prints both runs' reports and the
# overlap of the two runs' generator addresses as JSON.
_TWO_RUNS = """
import gc, json, pathlib, sys
from supermech.superalgebra import Generator
from supermech.frontend.parser import parse_model
from supermech.frontend.pipeline import run_pipeline
from supermech.frontend.report import render_json, render_text
texts = {pathlib.Path(path).stem: pathlib.Path(path).read_text(encoding="utf-8")
         for path in sys.argv[1:]}
reports, addresses, ballast = {}, {}, []
for run in range(2):
    for name, text in texts.items():
        result = run_pipeline(parse_model(text), stage="all")
        reports.setdefault(name, []).append([render_text(result), render_json(result)])
        addresses.setdefault(name, []).append(
            {id(g) for pair in result.analysis.basis.pairs for g in pair})
        del result
    gc.collect()
    ballast.append([Generator(f"ballast{run}_{k}") for k in range(4000)])
overlap = {name: len(a & b) for name, (a, b) in addresses.items()}
print(json.dumps({"reports": reports, "overlap": overlap}))
"""


def test_output_independent_of_generator_addresses():
    # a generator is interned and hashes by its address, so the layout of
    # every dict keyed by generators or factor tuples follows the addresses:
    # both runs must still print the golden bytes
    out = _run_python("-c", _TWO_RUNS, str(FIXTURES / "dirac_maxwell_reduced.smf"),
                      str(DATA / "sweep_gauss_fermi.smf"))
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["overlap"] == {"dirac_maxwell_reduced": 0, "sweep_gauss_fermi": 0}
    for name, runs in payload["reports"].items():
        golden = [(GOLDEN / f"{name}{suffix}").read_text(encoding="utf-8")
                  for suffix in (".txt", ".json")]
        assert runs == [golden, golden], name


def test_qed_gradient_counts(monkeypatch):
    # a deterministic count for the headline model: every derivative, in
    # the brackets and in the Legendre and Dirac solvers alike, reads a
    # kept gradient, built at most once per polynomial and side; the Dirac
    # and Hamilton-Jacobi stages share each Phi_alpha, so its gradients too.
    # A bracket with a basis generator builds no gradient of the generator
    builds = []
    build = superalgebra._build_gradient

    def counting_build(p, left):
        builds.append((p, left))  # keeps p alive, so ids stay distinct
        return build(p, left)

    monkeypatch.setattr(superalgebra, "_build_gradient", counting_build)
    # the shared ZERO keeps its (empty) gradients too: forget them, so the
    # count does not depend on which tests ran before
    monkeypatch.setattr(superalgebra.ZERO, "_grad_right", None)
    monkeypatch.setattr(superalgebra.ZERO, "_grad_left", None)
    result = run_pipeline(parse_model(fixture_text("dirac_maxwell_reduced.smf")),
                          stage="all")
    render_text(result)
    assert len(builds) == 45
    assert len({(id(p), left) for p, left in builds}) == len(builds)


def _berezin_calls(monkeypatch, name, render):
    """berezin calls in a full run of the fixture name, rendered by render."""
    from supermech import brackets, dirac, hamilton_jacobi

    calls = [0]
    berezin = brackets.berezin

    def counting_berezin(f, g, basis):
        calls[0] += 1
        return berezin(f, g, basis)

    for module in (brackets, dirac, hamilton_jacobi):
        monkeypatch.setattr(module, "berezin", counting_berezin)
    render(run_pipeline(parse_model(fixture_text(name)), stage="all"))
    return calls[0]


def test_qed_berezin_count(monkeypatch):
    # a deterministic count for the headline model: each unordered pair of
    # delta and of the closure family is bracketed once, and its other
    # order follows by graded antisymmetry; the bracket table's columns
    # {x, Phi_s} and its conjugate pairs are generator brackets, read from
    # kept gradients with no call to berezin
    assert _berezin_calls(monkeypatch, "dirac_maxwell_reduced.smf", render_text) == 195


def test_delta_built_once_when_nothing_recombines(monkeypatch):
    # the fermionic oscillator recombines nothing, so the delta that
    # run_dirac classifies with is the one the analysis keeps: its three
    # unordered pairs are bracketed once, not again after classification
    assert _berezin_calls(monkeypatch, "fermionic_oscillator.smf", render_json) == 13


def test_qed_merge_count(monkeypatch):
    # a product with a zero or constant operand scales or vanishes without a
    # factor merge, so the headline model merges factor tuples 685 times
    from supermech import superalgebra

    calls = [0]
    merge = superalgebra._merge_factors

    def counting_merge(fa, fb):
        calls[0] += 1
        return merge(fa, fb)

    monkeypatch.setattr(superalgebra, "_merge_factors", counting_merge)
    result = run_pipeline(parse_model(fixture_text("dirac_maxwell_reduced.smf")),
                          stage="all")
    render_text(result)
    assert calls[0] == 685


def test_reports_deterministic_across_runs():
    for name in ALL_FIXTURES:
        doc1 = parse_model(fixture_text(name))
        doc2 = parse_model(fixture_text(name))
        text1 = render_text(run_pipeline(doc1, stage="all"))
        text2 = render_text(run_pipeline(doc2, stage="all"))
        assert text1 == text2


FLOW_CONFIGS = [
    ("sho.smf", "sho_flow"),
    ("free_singular.smf", "free_singular_flow"),
    ("gauge_toy.smf", "gauge_toy_flow"),
    ("fermionic_oscillator.smf", "fermionic_flow"),
    # in two segments, so the drift carries across the waypoint between them
    ("fermionic_oscillator.smf", "fermionic_two_segment_flow"),
    # three flavours in Lambda_6, where several products land on one slot,
    # so a reordered sum would move the last bits of the pinned values
    ("flavour3.smf", "flavour3_flow"),
    # t0 and q2 move together on the first segment, so its RK4 stages run
    # the derivatives of both parameters
    ("free_singular.smf", "free_singular_diagonal_flow"),
    # m = 0.3 folded into the coefficients, which rounds otherwise than m
    # read as a value: the drift pins the folded arithmetic
    ("fermionic_oscillator.smf", "fermionic_m03_flow"),
]


@pytest.mark.parametrize("model,cfg", FLOW_CONFIGS)
def test_flow_structured_output_matches_golden(model, cfg):
    result = run_pipeline(parse_model(bundled_text(model)), stage="flow",
                          path_text=bundled_text(cfg + ".cfg"))
    golden = GOLDEN / "flow" / cfg
    assert render_json(result) == golden.with_suffix(".json").read_text(encoding="utf-8")
    assert render_text(result) == golden.with_suffix(".txt").read_text(encoding="utf-8")


def _cli_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _refuses(tmp_path, model, text, message, line, column=r"\d+"):
    """text, as a flow config of model, fails through run_pipeline and
    through the CLI's structured errors (exit 2, kind model) with message
    (a pattern) ending in its line and column."""
    want = rf"{message} \(line {line}, column {column}\)"
    with pytest.raises(ModelSyntaxError) as info:
        run_pipeline(parse_model(bundled_text(model)), stage="flow", path_text=text)
    assert re.fullmatch(want, str(info.value))
    cfg = tmp_path / "flow.cfg"
    cfg.write_text(text, encoding="utf-8")
    path = FIXTURES / model if (FIXTURES / model).exists() else DATA / model
    code, out, err = _cli_main("analyze", str(path), "--stage", "flow",
                               "--path", str(cfg), "--format", "structured")
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "model" and re.fullmatch(want, error["message"])


GAUGE_FROM_HALF = """\
params t0 q2
0, 0.5
1, 0.5
1, 1.5
steps 50
q1 = 0.5
p_q1 = 0
"""


def test_flow_free_parameter_starts_at_first_waypoint():
    result = run_pipeline(parse_model(fixture_text("gauge_toy.smf")), stage="flow",
                          path_text=GAUGE_FROM_HALF)
    end = {str(g): v for g, v in result.flow.samples[-1][1].items()}
    start = {str(g): v for g, v in result.flow.samples[0][1].items()}
    assert start["q2"].coeff == {0: 0.5}
    assert abs(end["q2"].body - 1.5) < 1e-12
    assert abs(end["q1"].body - 1.0) < 1e-12


FERMIONIC_AT_CAP = """\
params t0
0
1
steps 200
psi = 1*g1
psibar = 1*g12
p_psi = 0.5j*g12
p_psibar = 0.5j*g1
m = 1
"""


def test_fermionic_flow_at_the_lambda_cap(tmp_path):
    # Lambda_12, the largest algebra a flow may use, with values that touch
    # two of its 12 generators: the phase rotation of the mass term
    cfg = tmp_path / "fermionic_cap.cfg"
    cfg.write_text(FERMIONIC_AT_CAP, encoding="utf-8")
    code, out, _ = _cli_main("analyze", str(FIXTURES / "fermionic_oscillator.smf"),
                             "--stage", "flow", "--path", str(cfg),
                             "--format", "structured")
    assert code == 0
    coeff, gens = json.loads(out)["flow"]["endpoint"]["psi"].split(")*")
    assert gens == "g1"
    assert abs(complex(coeff.lstrip("(")) - cmath.exp(-1j)) < 1e-8


def test_flow_assignment_disagreeing_with_first_waypoint(tmp_path):
    _refuses(tmp_path, "gauge_toy.smf", GAUGE_FROM_HALF + "q2 = 0.25\n",
             "q2 is assigned a value other than its first waypoint 0.5", 8, 1)
    agree = tmp_path / "agree.cfg"
    agree.write_text(GAUGE_FROM_HALF + "q2 = 0.5\n", encoding="utf-8")
    code, _, _ = _cli_main("analyze", str(FIXTURES / "gauge_toy.smf"),
                           "--stage", "flow", "--path", str(agree))
    assert code == 0


@pytest.mark.parametrize("line", ["steps", "steps x", "steps 5 6", "steps -3"])
def test_cli_bad_steps_line_exits_2(tmp_path, line):
    _refuses(tmp_path, "sho.smf", f"params t0\n0\n1\n{line}\nq = 1\n",
             f"bad steps line '{line}'", 4, 1)


STEPSIZE = """\
model stepper
even stepsize
lagrangian: 1/2*dot(stepsize)*dot(stepsize) - 1/2*stepsize*stepsize
"""


def test_flow_config_keywords_are_whole_tokens(tmp_path):
    # `stepsize = 1` assigns a coordinate whose name starts with `steps`
    result = run_pipeline(parse_model(STEPSIZE), stage="flow",
                          path_text="params t0\n0\n1\nsteps 100\nstepsize = 1\n")
    end = {str(g): v for g, v in result.flow.samples[-1][1].items()}
    assert abs(end["stepsize"].body - cmath.cos(1)) < 1e-8
    # a header whose first token only starts with `params` is no params line
    cfg = tmp_path / "paramsx.cfg"
    cfg.write_text("paramsx t0\n0\n1\nsteps 10\nq = 1\n", encoding="utf-8")
    with pytest.raises(ModelSyntaxError, match="must start with a params line"):
        run_pipeline(parse_model(fixture_text("sho.smf")), stage="flow",
                     path_text=cfg.read_text(encoding="utf-8"))
    code, out, err = _cli_main("analyze", str(FIXTURES / "sho.smf"), "--stage", "flow",
                               "--path", str(cfg), "--format", "structured")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["kind"] == "model"


@pytest.mark.parametrize("lines,line,message", [
    ("0\nnan", 3, "waypoint 'nan' is not finite"),
    ("0\ninf", 3, "waypoint 'inf' is not finite"),
    ("-1e400\n0", 2, "waypoint '-1e400' is not finite"),
    ("0\n1\nsteps 10\nq = 1e400", 5, "number '1e400' is not finite"),
    ("0\n1\nsteps 10\nq = 0*1e400", 5, "number '1e400' is not finite"),
    ("0\n1\nsteps 10\nq = 1e200*1e200", 5, "value '1e200\\*1e200' is not finite"),
    ("0\n1\nsteps 10\nq = nan", 5, "bad value token 'nan'"),
    ("0\n1\nsteps 10\nq = inf", 5, "bad value token 'inf'"),
])
def test_flow_config_refuses_non_finite_numbers(tmp_path, lines, line, message):
    text = f"params t0\n{lines}\n"
    if "steps" not in text:
        text += "steps 10\n"
    _refuses(tmp_path, "sho.smf", text, message, line)


@pytest.mark.parametrize("value_line,column,message", [
    ("q = 1e400", 5, "number '1e400' is not finite"),
    ("q = 0*1e400", 7, "number '1e400' is not finite"),
    ("  q =   2 + 1e400j", 13, "number '1e400j' is not finite"),
    ("q = 1 $ 2", 7, "bad value token '\\$ 2'"),
    ("q=nan", 3, "bad value token 'nan'"),
    ("q = 1e200*1e200", 5, "value '1e200\\*1e200' is not finite"),
    ("q = * 2 *", 5, "'\\*' must stand between two factors"),
    ("q = 2 * * g1", 7, "'\\*' must stand between two factors"),
    ("q = 2 *", 7, "'\\*' must stand between two factors"),
    ("q = 1 + * g1", 9, "'\\*' must stand between two factors"),
    ("q = 2 * -1", 7, "'\\*' must stand between two factors"),
    ("q = 1 2", 7, "expected \\+ or - between terms"),
    ("q = g1 g2", 8, "expected \\+ or - between terms"),
    ("q = - + + g1", 9, "expected a term"),
    ("q = 1 +", 8, "expected a term"),
    ("q = g0", 5, "generator index 0 outside 1\\.\\.0"),
    ("q = 1 + 0.5*g13", 13, "Lambda_n capped at n=12, got g13"),
])
def test_flow_config_value_errors_count_columns_from_the_line_start(tmp_path, value_line,
                                                                    column, message):
    text = f"params t0\n0\n1\nsteps 10\n{value_line}  # on line 5\n"
    _refuses(tmp_path, "sho.smf", text, message, 5, column)


@pytest.mark.parametrize("lines,line,column,message", [
    # the last line used to win: q = 2, and 20 steps
    ("steps 10\nq = 1\np_q = 0\nq = 2", 7, 1, "q already assigned on line 5"),
    ("steps 10\nsteps 20\nq = 1", 5, 1, "steps already given on line 4"),
    ("steps 10\nq = 1\n  p_q = 0\n  p_q = 0", 7, 3, "p_q already assigned on line 6"),
], ids=["assignment", "steps", "indented"])
def test_flow_config_refuses_a_repeated_line(tmp_path, lines, line, column, message):
    _refuses(tmp_path, "sho.smf", f"params t0\n0\n1\n{lines}\n", message, line, column)


# each was a FlowError from PathSpec with no position
@pytest.mark.parametrize("text,line,column,message", [
    ("params t0 q2\n  0\n1, 1\nsteps 10\n", 2, 3,
     "waypoint arity does not match parameters"),
    ("params t0 q2\n0, 0\n1, 1\n1, 1\nsteps 10\n", 4, 1,
     "consecutive waypoints must differ"),
    ("params t0\n0\n  steps 10\n", 3, 3, "need at least two waypoints"),
], ids=["arity", "repeated", "too-few"])
def test_flow_config_waypoint_errors_carry_their_position(tmp_path, text, line, column,
                                                          message):
    _refuses(tmp_path, "gauge_toy.smf", text, message, line, column)


@pytest.mark.parametrize("model,text,line,column,message", [
    ("sho.smf", "params t0\n0\n1\nsteps 10\nzz = 3\n", 5, 1, "unknown generator 'zz'"),
    ("sho.smf", "params t0\n0\n1\nsteps 10\n  q[1] = 2\n", 5, 3,
     "q is not an indexed family"),
    ("sho.smf", "params t0 zz\n0, 0\n1, 0\nsteps 10\n", 1, 11, "unknown generator 'zz'"),
    ("flavour3.smf", "params t0\n0\n1\nsteps 10\npsi[4] = 1*g1\n", 5, 1,
     "index 4 outside psi\\[1..3\\]"),
    ("flavour3.smf", "params  t0   psi[0]\n0, 0\n1, 0\nsteps 10\n", 1, 14,
     "index 0 outside psi\\[1..3\\]"),
    # a parameter named twice was a FlowError with no position
    ("sho.smf", "params t0 q q\n0, 0, 0\n1, 0, 0\nsteps 10\n", 1, 13,
     "parameter q named twice"),
    # t0 named twice was looked up as a model generator
    ("sho.smf", "params t0 t0\n0, 0\n1, 1\nsteps 10\n", 1, 11,
     "parameter t0 named twice"),
    # a family named with no index, worded as the model source words it
    ("flavour3.smf", "params t0\n0\n1\nsteps 10\npsi = 1*g1\n", 5, 1,
     "psi needs exactly one index"),
    # a momentum's errors name the momentum, not its coordinate
    ("flavour3.smf", "params t0\n0\n1\nsteps 10\np_psi = 0.5j*g4\n", 5, 1,
     "p_psi needs exactly one index"),
    ("flavour3.smf", "params t0\n0\n1\nsteps 10\n p_psi[4] = 0.5j*g4\n", 5, 2,
     "index 4 outside p_psi\\[1..3\\]"),
    ("flavour3.smf", "params t0\n0\n1\nsteps 10\np_x[1] = 1\n", 5, 1,
     "p_x is not an indexed family"),
    # p_ of a parameter or of a momentum names nothing; both raised KeyError
    ("flavour3.smf", "params t0\n0\n1\nsteps 10\np_m = 1\n", 5, 1,
     "unknown generator 'p_m'"),
    ("flavour3.smf", "params t0\n0\n1\nsteps 10\np_p_x = 1\n", 5, 1,
     "unknown generator 'p_p_x'"),
], ids=["unknown", "scalar", "parameter", "index", "parameter-index", "parameter-twice",
        "t0-twice", "family-without-index", "momentum-without-index", "momentum-index",
        "scalar-momentum", "parameter-momentum", "momentum-momentum"])
def test_flow_config_name_errors_carry_their_position(tmp_path, model, text, line,
                                                      column, message):
    _refuses(tmp_path, model, text, message, line, column)


# each reported column 1, line 1 or no position before positions were taken
# from one record per line
@pytest.mark.parametrize("model,text,message,line,column", [
    ("sho.smf", "params t0\n0\n  nan\nsteps 10\n", "waypoint 'nan' is not finite", 3, 3),
    ("sho.smf", "params t0\n0\n  1, x\nsteps 10\n", "bad waypoint line '1, x'", 3, 3),
    ("sho.smf", "params t0\n0\n1\nsteps 10\n  2\n", "waypoints must precede steps", 5, 3),
    ("sho.smf", "params t0\n0\n1\n   steps x\n", "bad steps line 'steps x'", 4, 4),
    # a FlowError from PathSpec
    ("sho.smf", "params t0\n0\n1\nsteps 0\n", "bad steps line 'steps 0'", 4, 1),
    ("sho.smf", "params  q t0\n0, 0\n1, 0\nsteps 10\n",
     "first flow parameter must be t0", 1, 9),
    ("gauge_toy.smf", GAUGE_FROM_HALF + "  q2 = 1\n",
     "q2 is assigned a value other than its first waypoint 0.5", 8, 3),
    ("sho.smf", "# a path\n  0\n1\nsteps 10\n",
     "flow config must start with a params line", 2, 3),
    ("sho.smf", "# a path\nparams t0\n0\n1\n", "flow config misses a steps line", 2, 1),
    # a GradeMismatch with no position, raised only because a program reads psi
    ("fermionic_oscillator.smf", "params t0\n0\n1\nsteps 10\n  psi = 0.5\nm = 1\n",
     "psi assigned a value of the wrong grade", 5, 9),
    # accepted: no program reads q1
    ("free_singular.smf", "params t0 q2\n0, 0\n1, 0\nsteps 10\nq1 = 1*g1\n",
     "q1 assigned a value of the wrong grade", 5, 6),
    ("sho.smf", "params t0\n0\n1\nsteps 10\nq =  # no value\n", "empty value", 5, 4),
    ("sho.smf", "params t0\n0\n1\nsteps 10\n  q x = 1\n",
     "bad generator name 'q x'", 5, 3),
    ("sho.smf", "params t0 1q\n0, 0\n1, 0\nsteps 10\n", "bad parameter name '1q'", 1, 11),
    ("sho.smf", "  params\n0\n1\nsteps 10\n", "first flow parameter must be t0", 1, 3),
    ("sho.smf", "# only a comment\n", "flow config must start with a params line", 1, 1),
    # an odd free parameter, whose value has no body, at a nonzero first
    # waypoint and moved by a later one: each failed in the flow, with no
    # position
    ("odd_parameter.smf", "params t0 chi\n  0, 0.5\n1, 0.5\nsteps 10\nq = 1\n",
     "chi assigned a value of the wrong grade", 2, 3),
    ("odd_parameter.smf", "params t0 chi\n0, 0\n1, 0\n 1, 2\nsteps 10\nq = 1\n",
     "odd free parameter chi cannot be moved", 4, 2),
], ids=["nan-indented", "waypoint-indented", "waypoint-after-steps", "steps-indented",
        "steps-0", "t0-not-first", "first-waypoint-indented", "params-after-comment",
        "steps-missing-after-comment", "grade-read", "grade-unread", "empty-value",
        "generator-name", "parameter-name", "no-parameter", "empty", "odd-parameter-start",
        "odd-parameter-moved"])
def test_flow_config_errors_carry_their_position(tmp_path, model, text, message, line,
                                                 column):
    _refuses(tmp_path, model, text, message, line, column)


def test_cli_flow_that_overflows_exits_2(tmp_path):
    # each RK4 step of q over 1e299 time units overflows to inf, then nan
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("params t0\n0\n1e300\nsteps 10\nq = 1\np_q = 0\n", encoding="utf-8")
    code, out, err = _cli_main("analyze", str(FIXTURES / "sho.smf"), "--stage", "flow",
                               "--path", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error (model): the flow is not finite at waypoint (1e+300)\n"


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "1e400", "-1e-9", "x"])
def test_cli_refuses_a_tolerance_that_is_not_a_finite_number(tolerance, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["analyze", str(FIXTURES / "sho.smf"), "--stage", "flow",
                  "--path", str(FIXTURES / "sho_flow.cfg"), f"--tolerance={tolerance}"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tolerance: {tolerance!r} is not a finite number >= 0" in err


@pytest.mark.parametrize("rounds", ["0", "-1", "x"])
def test_cli_refuses_a_closure_round_limit_below_one(rounds, capsys):
    # a limit below one is a usage error, not a closure loop that diverged
    argv = ["analyze", str(FIXTURES / "sho.smf"), f"--max-closure-rounds={rounds}"]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: supermech analyze")
    assert err.endswith(f"error: argument --max-closure-rounds: {rounds!r} "
                        f"is not a whole number >= 1\n")
    code, out, err = _cli_main(*argv, "--format", "structured")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {
        "kind": "usage",
        "message": f"argument --max-closure-rounds: {rounds!r} is not a whole number >= 1"}}


@pytest.mark.parametrize("argv", [
    ("--tolerance", "nan", "--format", "structured"),
    ("--format=structured", "--tolerance", "nan"),
    ("--form", "structured", "--tolerance=nan"),
])
def test_cli_option_errors_respect_structured_format(argv):
    code, out, err = _cli_main("analyze", str(FIXTURES / "sho.smf"), *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {
        "kind": "usage", "message": "argument --tolerance: 'nan' is not a finite number >= 0"}}


def test_cli_structured_usage_error_names_an_unknown_argument():
    code, out, err = _cli_main("analyze", str(FIXTURES / "sho.smf"), "--bogus",
                               "--format", "structured")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {
        "kind": "usage", "message": "unrecognized arguments: --bogus"}}


def test_cli_accepts_a_zero_tolerance():
    code, out, _ = _cli_main("analyze", str(FIXTURES / "free_singular.smf"),
                             "--stage", "flow", "--path",
                             str(FIXTURES / "free_singular_flow.cfg"), "--tolerance", "0")
    assert code == 0
    assert "drift tolerance (0): ok" in out


LONG_CHAIN = ("model long\neven q\nlagrangian: 1/2*dot(q)*dot(q)"
              + " - 1/2*q*q" * 1000 + "\n")


def test_long_sum_chain_elaborates(tmp_path):
    # a chain of 1,000 differences is walked, not recursed into
    path = tmp_path / "long.smf"
    path.write_text(LONG_CHAIN, encoding="utf-8")
    code, out, err = _cli_main("analyze", str(path), "--stage", "legendre")
    assert code == 0, err
    long_h0 = run_pipeline(parse_model(LONG_CHAIN), stage="legendre").legres.h0
    single = "model long\neven q\nlagrangian: 1/2*dot(q)*dot(q) - 500*q*q\n"
    assert long_h0 == run_pipeline(parse_model(single), stage="legendre").legres.h0
    source = to_source(parse_model(LONG_CHAIN))
    assert source == LONG_CHAIN
    assert to_source(parse_model(source)) == source


def test_long_document_compares_hashes_and_prints():
    # '+'/'-' and '*' chains parse into flat nodes, so the equality, hash
    # and repr of a long model's document do not recurse once per term
    doc = parse_model(LONG_CHAIN)
    again = parse_model(LONG_CHAIN)
    assert doc == again
    assert hash(doc) == hash(again)
    assert repr(doc) == repr(again)
    assert parse_model(to_source(doc)) == doc


def _one_node_of_each_class():
    terms = ((1, syn.Ref("a")), (-1, syn.Imag()))
    return [
        syn.Num(Fraction(1, 2)), syn.Imag(), syn.Ref("a"), syn.Dot("a"),
        syn.SumExpr("k", 1, 2, syn.Ref("a", ("k",))), syn.Sum(terms),
        syn.Product(terms), syn.Neg(syn.Ref("a")), syn.CoordDecl("a", "even", None),
        syn.ParamDecl("a", "even"), syn.TensorDecl("a", 1, 1, ((syn.Num(2),),)),
        syn.ModelDocument("a", (), (), (), syn.Ref("a")),
    ]


def test_syntax_nodes_are_read_only_values():
    nodes, twins = _one_node_of_each_class(), _one_node_of_each_class()
    assert {type(node) for node in nodes} == set(syn.Node.__subclasses__())
    # equal only to a node of the same class with the same fields, even
    # where the fields match (Ref and Dot, Sum and Product)
    for i, node in enumerate(nodes):
        for j, other in enumerate(twins):
            assert (node == other) == (i == j) != (node != other)
    assert syn.Ref("a") == syn.Ref("a", ()) != syn.Ref("a", (1,))
    for node, twin in zip(nodes, twins):
        assert hash(node) == hash(twin) and repr(node) == repr(twin)
        for name in [*vars(node), "other"]:
            with pytest.raises(AttributeError):
                setattr(node, name, 1)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert node == twin
    assert repr(syn.Ref("a")) == "Ref(name='a', indices=())"
    doc = parse_model(fixture_text("dirac_maxwell_reduced.smf"))
    assert copy.deepcopy(doc) == doc == pickle.loads(pickle.dumps(doc))


def test_cli_import_loads_no_dataclasses_or_inspect():
    # start-up: building the package's records with dataclasses cost more
    # than the rest of its import; -S keeps site hooks out of the check
    out = _run_python("-S", "-c", "import sys, supermech.frontend.cli, supermech; "
                      "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_nested_sum_keeps_its_parentheses():
    # a parenthesized sum at the head of a sum is its own node, so the
    # source form keeps the parentheses and re-parses to the same document
    doc = parse_model("model m\neven q\nlagrangian: (dot(q) + q) + q*q*q\n")
    assert to_source(doc).splitlines()[-1] == "lagrangian: (dot(q) + q) + q*q*q"
    assert parse_model(to_source(doc)) == doc
    flat = parse_model("model m\neven q\nlagrangian: dot(q) + q + q*q*q\n")
    assert flat != doc
    assert to_source(flat).splitlines()[-1] == "lagrangian: dot(q) + q + q*q*q"
    products = parse_model("model m\neven q\nlagrangian: (dot(q)*q)*q + 1/2*q\n")
    assert to_source(products).splitlines()[-1] == \
        "lagrangian: (dot(q)*q)*q + 1/2*q"
    assert parse_model(to_source(products)) == products


def _nested(depth):
    inner = "q"
    for _ in range(depth):
        inner = f"(q + {inner})"
    return f"model deep\neven q\nlagrangian: 1/2*dot(q)*dot(q) - {inner}*q\n"


def test_nesting_cap(tmp_path):
    from supermech.frontend.parser import MAX_NESTING

    # at the cap a model still parses, elaborates and round-trips
    path = tmp_path / "at_cap.smf"
    path.write_text(_nested(MAX_NESTING), encoding="utf-8")
    code, _, err = _cli_main("analyze", str(path), "--stage", "legendre")
    assert code == 0, err
    source = to_source(parse_model(_nested(MAX_NESTING)))
    assert to_source(parse_model(source)) == source
    # past it, a typed syntax error at the first token nested too deep
    with pytest.raises(ModelSyntaxError) as info:
        parse_model("model m\neven q\nlagrangian: " + "-" * (MAX_NESTING + 1) + "q\n")
    assert (info.value.line, info.value.column) == (3, 14 + MAX_NESTING)
    deep = tmp_path / "deep.smf"
    deep.write_text("model deep\neven q\nlagrangian: 1/2*dot(q)*dot(q) - "
                    + "(" * 400 + "q" + ")" * 400 + "*q\n", encoding="utf-8")
    code, out, err = _cli_main("analyze", str(deep), "--stage", "legendre")
    assert code == 2
    assert out == ""
    assert err == (f"error (model): expression nested more than {MAX_NESTING}"
                   f" levels deep (line 3, column {34 + MAX_NESTING})\n")

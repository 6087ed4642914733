"""The benchmark's four workloads: their inputs, ops and output checks.

One op is the work of one `supermech analyze ...` invocation, run in-process
through `supermech.frontend.cli.main` with stdout captured; the
path-independence ops of flow-fixtures call the library the way acceptance
criterion 9 does.  Inputs are written under the run's output directory, so
every op can be replayed from the command in its `replay` field.
"""
from __future__ import annotations

import cmath
import contextlib
import io
import json
import os
from dataclasses import dataclass

from supermech import numeric_flow
from supermech.frontend import cli, parser, pipeline

import modelgen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(ROOT, "src", "supermech", "fixtures")
GOLDEN = os.path.join(ROOT, "tests", "golden")

DRIFT_LIMIT = 1e-8
REFERENCE_TOL = 1e-9
# RK4 truncation error of the bundled step counts stays far below this.
CLOSED_FORM_TOL = 1e-8
LAMBDA6_STEPS = 150


@dataclass
class Op:
    op_id: str
    run: object  # () -> (exit code, report text)
    check: object  # (exit code, report text) -> failure message or None
    replay: str
    steps: int = 0


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _cli_op(op_id, argv, check, steps=0):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    replay = "PYTHONPATH=src python3 -m supermech.frontend.cli " + " ".join(argv)
    return Op(op_id, run, check, replay, steps)


# ------------------------------------------------------------------ checks

def _parse_grassmann(text):
    """Invert frontend.report._fmt_grassmann: {odd slot mask: complex}."""
    value = {}
    if text == "0":
        return value
    for part in text.split(" + "):
        if part.startswith("("):
            coeff, gens = part[1:].split(")*", 1)
            mask = sum(1 << (int(g[1:]) - 1) for g in gens.split("*"))
        else:
            coeff, mask = part, 0
        value[mask] = complex(coeff)
    return value


def _distance(a, b):
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in set(a) | set(b)),
               default=0.0)


def _flow_check(reference, closed_form=()):
    """Drift limit, reference endpoint and Z, and closed-form components."""
    def check(code, text):
        if code != 0:
            return f"exit code {code}"
        flow = json.loads(text)["flow"]
        if not flow["max_drift"] <= DRIFT_LIMIT:
            return f"drift {flow['max_drift']:.3e} above {DRIFT_LIMIT:g}"
        got = dict(flow["endpoint"], Z=flow["z"])
        if set(got) != set(reference):
            return f"endpoint generators {sorted(got)} != {sorted(reference)}"
        for name, expected in reference.items():
            diff = _distance(_parse_grassmann(got[name]),
                             _parse_grassmann(expected))
            if diff > REFERENCE_TOL:
                return f"{name} differs from the reference by {diff:.3e}"
        for name, expected in closed_form:
            diff = _distance(_parse_grassmann(got[name]), expected)
            if diff > CLOSED_FORM_TOL:
                return f"{name} misses its closed form by {diff:.3e}"
        return None

    return check


def _golden_check(golden):
    def check(code, text):
        if code != 0:
            return f"exit code {code}"
        if text != golden:
            return "text report differs from the golden report"
        return None

    return check


def _equivalent_check(code, text):
    if code != 0:
        return f"exit code {code}"
    verdict = json.loads(text)["hj"]["cross_check"]["verdict"]
    if verdict != "equivalent":
        return f"cross-check verdict {verdict}"
    return None


def _agree_check(code, text):
    if code != 0 or not text.startswith("agree: True"):
        return "paths do not agree"
    return None


# --------------------------------------------------------------- workloads

def _qed_hj(seed, out_dir, reference):
    model = os.path.join(FIXTURES, "dirac_maxwell_reduced.smf")
    golden = _read(os.path.join(GOLDEN, "dirac_maxwell_reduced.txt"))
    op = _cli_op("dirac_maxwell_reduced",
                 ["analyze", model, "--stage", "all"], _golden_check(golden))
    return lambda k: [op]


def _model_sweep(seed, out_dir, reference):
    per_pass = len(modelgen.SCHEDULE)

    def make(index):
        path = _write(os.path.join(out_dir, "models", f"model_{index:04d}.smf"),
                      modelgen.sweep_model(seed, index))
        return _cli_op(f"model_{index:04d}",
                       ["analyze", path, "--stage", "all", "--format", "structured"],
                       _equivalent_check)

    def passes(k):
        return [make(k * per_pass + i) for i in range(per_pass)]

    first = passes(0)
    return lambda k: first if k == 0 else passes(k)


FLOW_FIXTURES = (
    # (model, flow config, closed-form endpoint components, RK4 steps)
    ("sho", "sho_flow", (("q", {0: 1}), ("p_q", {})), 2000),
    ("free_singular", "free_singular_flow", (("q1", {0: 1.0}),), 400),
    ("gauge_toy", "gauge_toy_flow", (), 10000),
    ("fermionic_oscillator", "fermionic_flow",
     (("psi", {1: cmath.exp(-1j)}),), 10000),
)

# Acceptance criterion 9: (model, {coordinate: initial value}, steps).
PATH_PAIRS = (
    ("free_singular", {"q1": 0.3, "p_q1": 0.7, "q2": 0.0, "p_q2": 0.0}, 200),
    ("gauge_toy", {"q1": 0.5, "p_q1": 0.0, "q2": 0.0, "p_q2": 0.0}, 500),
)


def _path_pair_op(model, values, steps):
    source = _read(os.path.join(FIXTURES, f"{model}.smf"))

    def run():
        result = pipeline.run_pipeline(parser.parse_model(source), stage="hj")
        elab = result.elaborated
        sys_ = result.hj_system
        init = {}
        for name, value in values.items():
            init[elab.lookup(name)] = numeric_flow.GrassmannValue.body_value(0, value)
        q2 = elab.lookup("q2")
        path_a = numeric_flow.PathSpec((sys_.t0, q2), ((0, 0), (1, 0), (1, 1)), steps)
        path_b = numeric_flow.PathSpec((sys_.t0, q2), ((0, 0), (0, 1), (1, 1)), steps)
        report = numeric_flow.path_independence_check(
            result.tds, path_a, path_b, init, report=result.closure, tol=1e-8)
        lines = [f"agree: {report.agree}", f"strict: {report.strict}"]
        lines += [f"{name} {diff!r} {compared} {note}"
                  for name, diff, compared, note in report.comparisons]
        return 0, "\n".join(lines) + "\n"

    replay = (f"path_independence_check on {model}.smf, paths (0,0)->(1,0)->(1,1)"
              f" and (0,0)->(0,1)->(1,1), {steps} steps per segment, init {values}")
    return Op(f"path_pair_{model}", run, _agree_check, replay, 4 * steps)


def _flow_fixtures(seed, out_dir, reference):
    ops = []
    for model, cfg, closed, steps in FLOW_FIXTURES:
        argv = ["analyze", os.path.join(FIXTURES, f"{model}.smf"), "--stage", "flow",
                "--path", os.path.join(FIXTURES, f"{cfg}.cfg"),
                "--format", "structured"]
        ops.append(_cli_op(cfg, argv, _flow_check(reference[cfg], closed), steps))
    ops.extend(_path_pair_op(*pair) for pair in PATH_PAIRS)
    return lambda k: ops


def _flow_lambda6(seed, out_dir, reference):
    model = _write(os.path.join(out_dir, "flavour3.smf"), modelgen.LAMBDA6_MODEL)
    cfg = _write(os.path.join(out_dir, "flavour3_flow.cfg"),
                 modelgen.lambda6_config(LAMBDA6_STEPS))
    argv = ["analyze", model, "--stage", "flow", "--path", cfg,
            "--format", "structured"]
    op = _cli_op("flavour3_flow", argv, _flow_check(reference["flavour3_flow"]),
                 LAMBDA6_STEPS)
    return lambda k: [op]


WORKLOADS = {
    "qed-hj": _qed_hj,
    "model-sweep": _model_sweep,
    "flow-fixtures": _flow_fixtures,
    "flow-lambda6": _flow_lambda6,
}


def load_reference():
    return json.loads(_read(os.path.join(HERE, "reference.json")))


def make(name, seed, out_dir):
    """Set up a workload: read or generate its inputs and build its ops.

    Returns the function that gives the ops of pass k; pass 0 is built here.
    """
    return WORKLOADS[name](seed, out_dir, load_reference())

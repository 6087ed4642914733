"""Spans and counters around calls into supermech's layers.

`install(tracer)` wraps the public functions of each layer wherever a
supermech module binds them, and returns a function that restores the
originals.  Nothing is wrapped unless a traced run asks for it.

Every wrapped call is timed on a stack, so each key gets an inclusive time
(outermost calls only, so recursion is not counted twice) and a self time
(duration minus the wrapped calls made inside it).  Calls of the keys in
SPAN_KEYS are also kept as spans: name, start, end, parent span and op id.
Hot kernels whose count matters but whose timing would swamp the run are
counted only.
"""
from __future__ import annotations

import importlib
import sys
from time import perf_counter

# Keys whose calls are kept as individual spans.
SPAN_KEYS = {
    "op", "parser", "elaborator", "legendre", "dirac",
    "hamilton_jacobi.build", "hamilton_jacobi.tds", "hamilton_jacobi.closure",
    "hamilton_jacobi.crosscheck", "flowconfig", "report.text", "report.json",
    "numeric_flow.integrate", "numeric_flow.make_flow",
    "numeric_flow.path_check", "dirac.weak_reduce", "dirac.dirac_bracket",
}

# Timed functions: (defining module, attribute, key).  The wrapper replaces
# every binding of the function in every loaded supermech module.
TIMED = (
    ("frontend.parser", "parse_model", "parser"),
    ("frontend.elaborator", "elaborate", "elaborator"),
    ("frontend.flowconfig", "parse_path_config", "flowconfig"),
    ("frontend.report", "render_text", "report.text"),
    ("frontend.report", "render_json", "report.json"),
    ("legendre", "analyze", "legendre"),
    ("dirac", "run_dirac", "dirac"),
    ("dirac", "weak_reduce", "dirac.weak_reduce"),
    ("dirac", "dirac_bracket", "dirac.dirac_bracket"),
    ("brackets", "berezin", "brackets.berezin"),
    ("superalgebra", "substitute", "superalgebra.substitute"),
    ("hamilton_jacobi", "build_hj_system", "hamilton_jacobi.build"),
    ("hamilton_jacobi", "total_differentials", "hamilton_jacobi.tds"),
    ("hamilton_jacobi", "closure_loop", "hamilton_jacobi.closure"),
    ("hamilton_jacobi", "cross_check_dirac", "hamilton_jacobi.crosscheck"),
    ("numeric_flow", "integrate_flow", "numeric_flow.integrate"),
    ("numeric_flow", "make_flow", "numeric_flow.make_flow"),
    ("numeric_flow", "path_independence_check", "numeric_flow.path_check"),
    ("numeric_flow", "evaluate", "numeric_flow.evaluate"),
)

# Timed methods: (defining module, class, method, key, extra count).
TIMED_METHODS = (
    ("superalgebra", "SuperPoly", "__mul__", "superalgebra.mul", None),
    ("smatrix", "SpanReducer", "add", "smatrix", None),
    ("smatrix", "SpanReducer", "reduce", "smatrix", "smatrix.span_reduce.calls"),
)

# Counted-only methods and functions: (module, class or None, name, key).
COUNTED = (
    ("superalgebra", "SuperPoly", "__add__", "superalgebra.add.calls"),
    ("numeric_flow", "GrassmannValue", "__mul__", "numeric_flow.grassmann_mul.calls"),
    ("dirac", None, "consistency_step", "dirac.rounds"),
)

# Counts taken from a call's arguments or result: key -> ((name, amount,
# combine), ...), where combine is "sum" or "max".
def _flow_steps(args, result):
    path = args[1]
    return path.steps * (len(path.waypoints) - 1)


DERIVED = {
    "dirac.weak_reduce": (
        ("dirac.weak_reduce.records", lambda a, r: len(a[1]), "sum"),),
    "dirac": (("dirac.records", lambda a, r: len(r.records), "sum"),),
    "hamilton_jacobi.closure": (
        ("hamilton_jacobi.closure_rounds", lambda a, r: r.rounds, "sum"),
        ("hamilton_jacobi.family_size", lambda a, r: len(r.family), "sum"),
    ),
    "numeric_flow.integrate": (
        ("numeric_flow.steps", _flow_steps, "sum"),
        ("numeric_flow.lambda_n",
         lambda a, r: max((v.n for v in a[2].values()), default=0), "max"),
    ),
}


class Tracer:
    """Collects per-key call counts, inclusive and self times, and spans."""

    def __init__(self):
        self.calls = {}
        self.incl = {}
        self.self_time = {}
        self.counts = {}
        self.spans = []
        self.op_id = None
        self._stack = []  # [key, seconds spent in wrapped calls inside]
        self._depth = {}
        self._span_stack = [None]

    def take(self):
        """Return and clear what was collected since the last take."""
        out = {"calls": dict(self.calls), "incl": dict(self.incl),
               "self": dict(self.self_time), "counts": dict(self.counts)}
        for table in (self.calls, self.incl, self.self_time, self.counts):
            table.clear()
        return out

    def count(self, key, amount=1, combine="sum"):
        if combine == "max":
            self.counts[key] = max(self.counts.get(key, amount), amount)
        else:
            self.counts[key] = self.counts.get(key, 0) + amount

    def timed(self, fn, key, extra_count=None):
        keep_span = key in SPAN_KEYS
        derived = DERIVED.get(key, ())
        stack = self._stack
        depth = self._depth

        def wrapper(*args, **kwargs):
            span_id = None
            if keep_span:
                span_id = len(self.spans)
                self.spans.append(None)
                self._span_stack.append(span_id)
            frame = [key, 0.0]
            stack.append(frame)
            depth[key] = depth.get(key, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[key] -= 1
                elapsed = end - start
                self.calls[key] = self.calls.get(key, 0) + 1
                self.self_time[key] = (self.self_time.get(key, 0.0)
                                       + elapsed - frame[1])
                if not depth[key]:
                    self.incl[key] = self.incl.get(key, 0.0) + elapsed
                if stack:
                    stack[-1][1] += elapsed
                if keep_span:
                    self._span_stack.pop()
                    self.spans[span_id] = (key, start, end,
                                           self._span_stack[-1], self.op_id)
            if extra_count:
                self.count(extra_count)
            for name, amount, combine in derived:
                self.count(name, amount(args, result), combine)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op_id, fn):
        """Run fn as the root span of one op."""
        self.op_id = op_id
        try:
            return self.timed(fn, "op")()
        finally:
            self.op_id = None


def _modules():
    return [m for name, m in list(sys.modules.items())
            if name == "supermech" or name.startswith("supermech.")]


def install(tracer):
    """Wrap every layer function where supermech binds it; return an undo."""
    undo = []

    def patch(owner, name, value):
        undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def rebind(original, wrapper):
        for module in _modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    patch(module, name, wrapper)

    def mod(name):
        return importlib.import_module(f"supermech.{name}")

    for modname, name, key in TIMED:
        original = getattr(mod(modname), name)
        rebind(original, tracer.timed(original, key))
    smatrix = mod("smatrix")
    for name, value in list(vars(smatrix).items()):
        if (callable(value) and not name.startswith("_")
                and getattr(value, "__module__", None) == smatrix.__name__
                and not isinstance(value, type)):
            rebind(value, tracer.timed(value, "smatrix"))
    # legendre's own binding of body_rank also counts the split attempts
    legendre = mod("legendre")
    body_rank = smatrix.body_rank.__wrapped__
    patch(legendre, "body_rank",
          tracer.timed(body_rank, "smatrix", "legendre.split_attempts"))
    for modname, cls, name, key, extra in TIMED_METHODS:
        owner = getattr(mod(modname), cls)
        patch(owner, name, tracer.timed(owner.__dict__[name], key, extra))
    for modname, cls, name, key in COUNTED:
        owner = mod(modname) if cls is None else getattr(mod(modname), cls)
        original = getattr(owner, name)
        wrapper = tracer.counted(original, key)
        if cls is None:
            rebind(original, wrapper)
        else:
            patch(owner, name, wrapper)

    def restore():
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)

    return restore


# Per-layer metrics.  A time metric is reported inclusive under its name and
# as self time under its name + ".self".
TIME_METRICS = {
    "parser": "parser.s",
    "elaborator": "elaborator.s",
    "flowconfig": "flowconfig.s",
    "legendre": "legendre.s",
    "dirac": "dirac.s",
    "dirac.weak_reduce": "dirac.weak_reduce.s",
    "dirac.dirac_bracket": "dirac.dirac_bracket.s",
    "brackets.berezin": "brackets.berezin.s",
    "superalgebra.substitute": "superalgebra.substitute.s",
    "superalgebra.mul": "superalgebra.mul.s",
    "smatrix": "smatrix.s",
    "hamilton_jacobi.build": "hamilton_jacobi.build_s",
    "hamilton_jacobi.tds": "hamilton_jacobi.tds_s",
    "hamilton_jacobi.closure": "hamilton_jacobi.closure_s",
    "hamilton_jacobi.crosscheck": "hamilton_jacobi.crosscheck_s",
    "report.text": "report.text_s",
    "report.json": "report.json_s",
    "numeric_flow.integrate": "numeric_flow.integrate_s",
    "numeric_flow.make_flow": "numeric_flow.make_flow_s",
    "numeric_flow.evaluate": "numeric_flow.evaluate.s",
    "numeric_flow.path_check": "numeric_flow.path_check_s",
}
CALL_METRICS = {
    "dirac.weak_reduce": "dirac.weak_reduce.calls",
    "dirac.dirac_bracket": "dirac.dirac_bracket.calls",
    "brackets.berezin": "brackets.berezin.calls",
    "superalgebra.substitute": "superalgebra.substitute.calls",
    "superalgebra.mul": "superalgebra.mul.calls",
    "numeric_flow.evaluate": "numeric_flow.evaluate.calls",
}
COUNT_METRICS = (
    "legendre.split_attempts", "dirac.records", "dirac.rounds",
    "superalgebra.add.calls", "smatrix.span_reduce.calls",
    "hamilton_jacobi.closure_rounds", "hamilton_jacobi.family_size",
    "numeric_flow.steps", "numeric_flow.grassmann_mul.calls",
    "numeric_flow.lambda_n",
)
RATIO_METRICS = {
    # name: (numerator count, denominator call key, unit)
    "dirac.weak_reduce.records_per_call": (
        "dirac.weak_reduce.records", "dirac.weak_reduce", "records/call"),
}


def per_layer_units():
    """{metric name: unit} of every per-layer metric the tracer yields."""
    units = {}
    for name in TIME_METRICS.values():
        units[name] = "s"
        units[name + ".self"] = "s"
    units.update({name: "count" for name in CALL_METRICS.values()})
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({name: unit for name, (_, _, unit) in RATIO_METRICS.items()})
    return units


def layer_times(stats):
    """Inclusive and self seconds by metric name, from one Tracer.take()."""
    out = {}
    for key, name in TIME_METRICS.items():
        out[name] = stats["incl"].get(key, 0.0)
        out[name + ".self"] = stats["self"].get(key, 0.0)
    return out


def layer_counts(stats):
    """Deterministic counts by metric name, from one Tracer.take()."""
    out = {name: stats["calls"].get(key, 0) for key, name in CALL_METRICS.items()}
    out.update({name: stats["counts"].get(name, 0) for name in COUNT_METRICS})
    for name, (num, key, _) in RATIO_METRICS.items():
        calls = stats["calls"].get(key, 0)
        out[name] = stats["counts"].get(num, 0) / calls if calls else 0.0
    return out

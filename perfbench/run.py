#!/usr/bin/env python3
"""supermech benchmark: one closed-loop client, one process, one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a source checkout.  A run sets up its workload, then
issues ops one after another, in whole passes, until --seconds have passed.
Every op's output is checked.  The last line of stdout is one JSON object
with "correct", "attempted", "failed" and "metrics": the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The full result, the
run environment, every failure with a replayable command and, for traced
runs, the spans go to perfbench/out/<workload>/seed-<seed>/.

--workload all runs the four workloads one after another, each in a fresh
interpreter, prints every metric by name and unit, and exits non-zero if any
output check failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("qed-hj", "model-sweep", "flow-fixtures", "flow-lambda6")
DEFAULT_SEED = 1
# A machine shared with other work can change speed by a factor of two or
# more within minutes.  A fixed pure-Python speed probe therefore samples the
# machine's speed while each op and each set-up runs, and the reported times
# are scaled to the speed at which the probe takes REFERENCE_PROBE_S: they
# read as seconds on a machine of that speed.  The probe's own time is taken
# out of the op's, and wall-clock figures are kept next to them in the
# results.
PROBE_ITERATIONS = 5000
PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.0008
# Set-up is measured in fresh interpreters, half before and half after the
# ops, so a slow spell of the machine does not decide the median alone.
SETUP_PROBES = 16
END_TO_END = {"setup_s": "s", "op_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
TRACE_METRICS = {"trace.op_s": "s", "trace.overhead": "ratio",
                 "trace.spans": "count"}


def _source_present():
    return os.path.isfile(os.path.join(SRC, "supermech", "frontend", "cli.py"))


def _import_program():
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402  (needs SRC on the path)

    return workloads


def _commit():
    """Commit hash of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _build():
    """Byte-compile the sources, so every set-up imports warm bytecode."""
    import compileall

    if not compileall.compile_dir(SRC, quiet=1):
        raise SystemExit("perfbench: byte-compiling src failed")


_PROBE_TABLE = {i: i * 7 + 1 for i in range(64)}


def _speed_probe():
    """Seconds one small fixed pure-Python task takes right now.

    The task allocates nothing that outlives it, so it reads the same in a
    fresh interpreter as in one that has run for a while.
    """
    start = perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + _PROBE_TABLE[i & 63]) & 0xFFFF
    return perf_counter() - start


class _SpeedSampler:
    """Runs the speed probe every PROBE_INTERVAL_S while an op runs.

    The probe runs from a SIGALRM handler between the op's bytecodes; the
    seconds it takes are reported in `spent`, so they can be taken out of
    the op's time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        seconds = _speed_probe()
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self):
        self.samples = [_speed_probe()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference(self, seconds):
        """Scale seconds measured while sampling to the reference speed."""
        return seconds * REFERENCE_PROBE_S / statistics.median(self.samples)


def _probe_setup(workload, seed):
    """Seconds from process start until the first op could be issued.

    Returns the wall and the reference-speed figure; the child samples the
    machine's speed while it sets up and reports it with "ready".
    """
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline().split()
        ready = perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or len(line) != 3 or line[0] != b"ready":
        raise SystemExit(f"perfbench: set-up probe failed ({proc.returncode})")
    speed, spent = float(line[1]), float(line[2])
    wall = ready - start - spent
    return wall, wall * REFERENCE_PROBE_S / speed


@dataclass
class OpResult:
    op: object
    wall_s: float
    ref_s: float  # wall_s scaled to the reference speed
    text: str
    failure: str | None


def _run_ops(ops, tracer=None):
    """Run ops in order, sampling the machine's speed while each runs."""
    results = []
    sampler = _SpeedSampler()
    for op in ops:
        with sampler:
            start = perf_counter()
            try:
                if tracer is None:
                    code, text = op.run()
                else:
                    code, text = tracer.run_op(op.op_id, op.run)
            except Exception as exc:  # an op that raises is a failed op
                code, text = None, f"raised {exc!r}"
            elapsed = perf_counter() - start - sampler.spent
        try:
            failure = op.check(code, text) if code is not None else text
        except Exception as exc:  # an unreadable report fails its check
            failure = f"check raised {exc!r}"
        results.append(OpResult(op, elapsed, sampler.at_reference(elapsed),
                                text, failure))
    return results


def _passes(passes, seconds):
    """Whole passes of ops until `seconds` have passed."""
    results = []
    start = perf_counter()
    k = 0
    while True:
        results.extend(_run_ops(passes(k)))
        k += 1
        if perf_counter() - start >= seconds:
            return results


def _tail(times):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    return {"value": ordered[n - 11], "percentile": round(100 * (n - 10) / n, 1),
            "samples": n}


def _timed(passes, seconds):
    results = _passes(passes, seconds)
    times = [r.ref_s for r in results]
    wall = [r.wall_s for r in results]
    steps = sum(r.op.steps for r in results)
    metrics = {
        "op_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
    }
    extra = {"op_s_tail": _tail(times), "ops": len(times),
             "op_wall_s": statistics.median(wall),
             "ops_per_wall_s": len(wall) / sum(wall)}
    if steps:
        extra["flow_steps_per_s"] = steps / sum(times)
    return results, metrics, extra


def _traced(passes, seconds):
    """One untraced pass of pass 0, then traced passes of it.

    Counts come from each traced pass and must repeat exactly; layer times
    are wall seconds, medians over the traced passes.  The speed probe runs
    here too, so every layer's time includes its share of about 2%.
    """
    baseline = _run_ops(passes(0))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    traced, times, counts, pass_times = [], [], [], []
    try:
        start = perf_counter()
        while not traced or perf_counter() - start < seconds:
            spans_before = len(tracer.spans)
            results = _run_ops(passes(0), tracer)
            stats = tracer.take()
            traced.extend(results)
            times.append(tracing.layer_times(stats))
            counts.append(dict(tracing.layer_counts(stats),
                               **{"trace.spans": len(tracer.spans) - spans_before}))
            pass_times.append(sum(r.ref_s for r in results))
    finally:
        restore()
    failures = []
    for plain, result in zip(baseline * len(times), traced):
        if plain.text != result.text:
            failures.append(f"{plain.op.op_id}: traced report bytes differ "
                            "from untraced")
    if any(c != counts[0] for c in counts):
        failures.append("traced counts differ between passes")
    metrics = {name: statistics.median(t[name] for t in times) for name in times[0]}
    metrics.update(counts[0])
    metrics["trace.op_s"] = statistics.median(r.ref_s for r in traced)
    metrics["trace.overhead"] = (statistics.median(pass_times)
                                 / sum(r.ref_s for r in baseline) - 1)
    extra = {"untraced_op_s": statistics.median(r.ref_s for r in baseline),
             "traced_passes": len(times), "spans": tracer.spans}
    return baseline + traced, metrics, extra, failures


def _environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "commit": _commit(),
        "platform": platform.platform(),
    }


def run_workload(args):
    env = _environment()
    _build()
    setup = [] if args.trace else [_probe_setup(args.workload, args.seed)
                                   for _ in range(SETUP_PROBES // 2)]
    workloads = _import_program()
    out_dir = os.path.join(OUT, args.workload, f"seed-{args.seed}")
    passes = workloads.make(args.workload, args.seed, out_dir)
    if args.trace:
        results, metrics, extra, failures = _traced(passes, args.seconds)
        units = dict(tracing.per_layer_units(), **TRACE_METRICS)
    else:
        results, metrics, extra = _timed(passes, args.seconds)
        failures = []
        setup += [_probe_setup(args.workload, args.seed)
                  for _ in range(SETUP_PROBES - len(setup))]
        metrics["setup_s"] = statistics.median(ref for _, ref in setup)
        extra["setup_wall_s"] = statistics.median(wall for wall, _ in setup)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024)
        units = END_TO_END
    env["loadavg_after"] = os.getloadavg()
    op_failures = [{"op": r.op.op_id, "failure": r.failure, "replay": r.op.replay}
                   for r in results if r.failure]
    attempted = len(results)
    failed = len(op_failures)
    extra["failed_share"] = failed / attempted
    correct = not op_failures and not failures
    spans = extra.pop("spans", None)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "attempted": attempted, "failed": failed, "failures": op_failures,
        "run_failures": failures, "setup_s_samples": setup,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "extra": extra,
        "ops": [{"op": r.op.op_id, "wall_s": r.wall_s, "ref_s": r.ref_s,
                 "failed": bool(r.failure)} for r in results],
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if spans is not None:
        with open(os.path.join(out_dir, "spans.jsonl"), "w",
                  encoding="utf-8") as handle:
            for span_id, (name, start, end, parent, op_id) in enumerate(spans):
                handle.write(json.dumps({"id": span_id, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent, "op": op_id}) + "\n")
    for item in op_failures:
        print(f"FAILED {item['op']}: {item['failure']}\n  replay: {item['replay']}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"environment {json.dumps(env)}")
    for name, value in extra.items():
        if value is not None:
            print(f"extra {name} = {json.dumps(value)}")
    for name, item in record["metrics"].items():
        print(f"metric {name} = {item['value']:.6g} {item['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def run_all(args):
    """Each workload in a fresh interpreter, one after another."""
    ok = True
    rows = []
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, item in result["metrics"].items():
            rows.append((workload, name, item["value"], item["unit"]))
    print()
    for workload, name, value, unit in rows:
        print(f"{workload:14} {name:44} {value:14.6g} {unit}")
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _source_present():
        print("perfbench: no supermech sources under src/; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        with _SpeedSampler() as sampler:
            workloads = _import_program()
            workloads.make(args.workload, args.seed,
                           os.path.join(OUT, args.workload, f"seed-{args.seed}"))
        print(f"ready {statistics.median(sampler.samples)!r} {sampler.spent!r}",
              flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

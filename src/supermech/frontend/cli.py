"""Command line interface.

    supermech analyze <file> [--stage legendre|dirac|hj|flow|all]
                             [--format text|structured] [--path <cfg>]
                             [--max-closure-rounds N] [--tolerance F]

Exit status: 0 on success, 2 on a model error, 3 on inconsistency findings.
"""
from __future__ import annotations

import argparse
import json
import sys

from ..errors import ClosureDiverged, Inconsistent, SupermechError
from .parser import parse_model
from .pipeline import STAGES, run_pipeline
from .report import render_json, render_text

MODEL_ERROR = 2
INCONSISTENT = 3


def _tolerance(text):
    """A drift tolerance: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="supermech",
        description="Constraint and Hamilton-Jacobi analysis of singular "
                    "Lagrangians with even and odd variables.")
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="analyze a model file")
    analyze.add_argument("file", help="model source (.smf)")
    analyze.add_argument("--stage", choices=STAGES, default="all")
    analyze.add_argument("--format", choices=("text", "structured"),
                         default="text", dest="fmt")
    analyze.add_argument("--path", help="flow path configuration file")
    analyze.add_argument("--max-closure-rounds", type=int, default=32)
    analyze.add_argument("--tolerance", type=_tolerance, default=1e-8)
    return parser


def _emit_error(kind, exc, fmt, stream):
    if fmt == "structured":
        payload = {"error": {"kind": kind, "message": str(exc)}}
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        stream.write(f"error ({kind}): {exc}\n")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        _emit_error("io", exc, args.fmt, sys.stderr)
        return MODEL_ERROR
    path_text = None
    if args.path:
        try:
            with open(args.path, encoding="utf-8") as handle:
                path_text = handle.read()
        except OSError as exc:
            _emit_error("io", exc, args.fmt, sys.stderr)
            return MODEL_ERROR
    try:
        doc = parse_model(source)
        result = run_pipeline(
            doc,
            stage=args.stage,
            path_text=path_text,
            max_closure_rounds=args.max_closure_rounds,
            tolerance=args.tolerance,
        )
    except (Inconsistent, ClosureDiverged) as exc:
        _emit_error("inconsistent", exc, args.fmt, sys.stderr)
        return INCONSISTENT
    except (SupermechError, ValueError) as exc:
        _emit_error("model", exc, args.fmt, sys.stderr)
        return MODEL_ERROR
    if args.fmt == "structured":
        sys.stdout.write(render_json(result))
    else:
        sys.stdout.write(render_text(result))
    if result.crosscheck is not None and not result.crosscheck.equivalent:
        return INCONSISTENT
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line interface.

    supermech analyze <file> [--stage legendre|dirac|hj|flow|all]
                             [--format text|structured] [--path <cfg>]
                             [--max-closure-rounds N] [--tolerance F]

Exit status: 0 on success, 2 on a model or usage error, 3 on inconsistency
findings.  With --format structured every error, a usage error included, is
a JSON payload on stderr.
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


class _UsageError(Exception):
    """A command line that does not parse: args are the parser that refused
    it and argparse's message."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise _UsageError, so that main can
    report them in the format the command line asks for."""

    def error(self, message):
        raise _UsageError(self, message)


def _format_of(argv):
    """The --format that argv asks for, read before argv is parsed."""
    pre = _Parser(add_help=False)
    pre.add_argument("--format", dest="fmt")
    try:
        return pre.parse_known_args(argv)[0].fmt
    except _UsageError:
        return None


def _rounds(text):
    """A closure round limit: a whole number >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number >= 1")
    return value


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
    parser = _Parser(
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
    analyze.add_argument("--max-closure-rounds", type=_rounds, default=32)
    analyze.add_argument("--tolerance", type=_tolerance, default=1e-8)
    return parser


def _emit_error(kind, exc, fmt, stream):
    if fmt == "structured":
        payload = {"error": {"kind": kind, "message": str(exc)}}
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        stream.write(f"error ({kind}): {exc}\n")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        parser, message = exc.args
        if _format_of(argv) != "structured":
            # argparse's own report: the usage text, then exit status 2
            argparse.ArgumentParser.error(parser, message)
        _emit_error("usage", message, "structured", sys.stderr)
        return MODEL_ERROR
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
    except SupermechError as exc:
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

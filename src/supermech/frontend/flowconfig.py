"""Flow path configuration files.

Plain text: a `params` line naming the free parameters (t0 first), one
waypoint per line as comma-separated values, `steps <N>`, then initial
state lines `generator = <value>` where the value is a sum of terms
`scalar*g<k>*...` over the odd basis slots g1..gn (scalars accept a
trailing `j` for the imaginary part).  Every waypoint, number and value must
be finite, `steps` is given once, each parameter named once and each
generator assigned at most once, a value of its generator's grade.  Each
waypoint must pass `numeric_flow.check_waypoint`, the rules a PathSpec
holds.  Each error points at the line's first character, or at the
parameter, name or value token it names.
"""
from __future__ import annotations

import re
from cmath import isfinite

from ..errors import FlowError, IndexOutOfRange, ModelSyntaxError, UnknownSymbol
from ..numeric_flow import LAMBDA_CAP, GrassmannValue, PathSpec, check_waypoint

_VALUE_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?j?)"
    r"|(?P<gen>g\d+)|(?P<op>[*+-]))")

_STRAY_STAR = "'*' must stand between two factors"

_NAME = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\[(\d+)\])?$")


def _tokenize_value(text, line_no, column):
    """The (kind, value, column) tokens of a value that starts at column of
    line line_no."""
    pos = 0
    out = []
    while pos < len(text):
        m = _VALUE_TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ModelSyntaxError(f"bad value token {rest!r}", line_no,
                                   column + len(text) - len(text[pos:].lstrip()))
        kind = m.lastgroup
        at = column + m.start(kind)
        if kind == "num":
            number = complex(m.group("num"))
            if not isfinite(number):
                raise ModelSyntaxError(f"number {m.group('num')!r} is not finite",
                                       line_no, at)
            out.append(("num", number, at))
        elif kind == "gen":
            k = int(m.group("gen")[1:])
            if k > LAMBDA_CAP:
                raise ModelSyntaxError(f"Lambda_n capped at n={LAMBDA_CAP}, got g{k}",
                                       line_no, at)
            out.append(("gen", k, at))
        else:
            out.append(("op", m.group("op"), at))
        pos = m.end()
    return out


def parse_value(text, n, line_no=0, column=1):
    """Parse a Lambda-value literal into a GrassmannValue of Lambda_n.

    text starts at column of line line_no, and errors count their columns
    from the start of that line.  Every `*` stands between two factors."""
    return _value(_tokenize_value(text, line_no, column), text, n, line_no, column)


def _value(tokens, text, n, line_no, column):
    """The GrassmannValue of Lambda_n that text's tokens spell."""
    if not tokens:
        raise ModelSyntaxError("empty value", line_no, column)
    end = column + len(text)
    total = GrassmannValue(n)
    pos = 0

    def factor():
        nonlocal pos
        if pos == len(tokens):
            raise ModelSyntaxError("expected a term", line_no, end)
        kind, value, at = tokens[pos]
        if kind == "op":
            raise ModelSyntaxError(_STRAY_STAR if value == "*" else "expected a term",
                                   line_no, at)
        if kind == "gen" and not 1 <= value <= n:
            raise ModelSyntaxError(f"generator index {value} outside 1..{n}", line_no, at)
        pos += 1
        return kind, value

    def term():
        nonlocal pos
        sign = 1.0
        while pos < len(tokens) and tokens[pos][:2] == ("op", "-"):
            sign = -sign
            pos += 1
        if pos < len(tokens) and tokens[pos][:2] == ("op", "+"):
            pos += 1
        factors = [factor()]
        while pos < len(tokens) and tokens[pos][:2] == ("op", "*"):
            star = tokens[pos][2]
            pos += 1
            if pos == len(tokens) or tokens[pos][0] == "op":
                raise ModelSyntaxError(_STRAY_STAR, line_no, star)
            factors.append(factor())
        acc = GrassmannValue.body_value(n, sign)
        for kind, value in factors:
            if kind == "num":
                acc = acc.scaled(value)
            else:
                acc = acc * GrassmannValue.generator(n, value)
        return acc

    total = total + term()
    while pos < len(tokens):
        kind, value, at = tokens[pos]
        if kind != "op" or value not in "+-":
            raise ModelSyntaxError("expected + or - between terms", line_no, at)
        if value == "+":
            pos += 1
        total = total + term()
    if not all(map(isfinite, total.coeff.values())):
        raise ModelSyntaxError(f"value {text!r} is not finite", line_no, column)
    return total


def _generator(elaborated, name, kind, line_no, column):
    """The generator that name, at column of line line_no, names."""
    m = _NAME.match(name)
    if m is None:
        raise ModelSyntaxError(f"bad {kind} name {name!r}", line_no, column)
    try:
        return elaborated.lookup(m.group(1), int(m.group(2)) if m.group(2) else None)
    except (UnknownSymbol, IndexOutOfRange) as exc:
        raise ModelSyntaxError(str(exc), line_no, column) from None


def parse_path_config(text, elaborated, hj_system):
    """Parse waypoints, steps and the initial state for a flow run.

    Every error is a ModelSyntaxError at the line's first character, or at
    the header parameter, target name or value token it names.  A config
    with no params line or no steps line fails at its first line that holds
    more than a comment, and at (1, 1) when it has none."""
    lines = (raw.split("#", 1)[0].rstrip() for raw in text.splitlines())
    # (line number, column of the first character, text) of every line that
    # holds more than a comment
    records = [(no, len(line) - len(line.lstrip()) + 1, line.lstrip())
               for no, line in enumerate(lines, 1) if line]
    no0, start0, header = records[0] if records else (1, 1, "")
    names = [(m.group(), start0 + m.start()) for m in re.finditer(r"\S+", header)]
    if not names or names[0][0] != "params":
        raise ModelSyntaxError("flow config must start with a params line", no0, start0)
    name, column = names[1] if len(names) > 1 else names[0]
    if name != "t0":
        raise ModelSyntaxError("first flow parameter must be t0", no0, column)
    params = [hj_system.t0]
    for name, column in names[2:]:
        gen = (hj_system.t0 if name == "t0"
               else _generator(elaborated, name, "parameter", no0, column))
        if gen in params:
            raise ModelSyntaxError(f"parameter {gen} named twice", no0, column)
        params.append(gen)

    waypoints, assignments = [], []
    steps = steps_at = None
    for no, start, line in records[1:]:
        parts = line.split()
        if parts[0] == "steps":
            if len(parts) != 2 or not parts[1].isdecimal() or not int(parts[1]):
                raise ModelSyntaxError(f"bad steps line {line!r}", no, start)
            if steps is not None:
                raise ModelSyntaxError(f"steps already given on line {steps_at[0]}",
                                       no, start)
            steps, steps_at = int(parts[1]), (no, start)
        elif "=" in line:
            target, value = line.split("=", 1)
            column = start + len(line) - len(value.lstrip())
            value = value.strip()
            assignments.append((no, start, target.strip(), value, column,
                                _tokenize_value(value, no, column)))
        elif steps is not None:
            raise ModelSyntaxError("waypoints must precede steps", no, start)
        else:
            try:
                point = tuple(float(x) for x in line.split(","))
            except ValueError:
                raise ModelSyntaxError(f"bad waypoint line {line!r}", no, start) from None
            if not all(map(isfinite, point)):
                raise ModelSyntaxError(f"waypoint {line!r} is not finite", no, start)
            try:
                check_waypoint(params, waypoints[-1] if waypoints else None, point)
            except FlowError as exc:
                raise ModelSyntaxError(str(exc), no, start) from None
            waypoints.append(point)
    if steps is None:
        raise ModelSyntaxError("flow config misses a steps line", no0, start0)
    if len(waypoints) < 2:
        raise ModelSyntaxError("need at least two waypoints", *steps_at)

    n = max([elaborated.n_odd] + [k for *_, tokens in assignments
                                  for kind, k, _ in tokens if kind == "gen"])
    init, at = {}, {}
    for no, start, target, value, column, tokens in assignments:
        gen = _generator(elaborated, target, "generator", no, start)
        if gen in init:
            raise ModelSyntaxError(f"{gen} already assigned on line {at[gen][0]}",
                                   no, start)
        init[gen] = _value(tokens, value, n, no, column)
        if not init[gen].pure_grade(gen.parity):
            raise ModelSyntaxError(f"{gen} assigned a value of the wrong grade",
                                   no, column)
        at[gen] = no, start

    # a free parameter starts at its first waypoint, also when it is a
    # coordinate that the defaults below would otherwise set to zero
    for p, x in zip(params[1:], waypoints[0][1:]):
        first = GrassmannValue.body_value(n, x)
        if p in init and init[p].coeff != first.coeff:
            raise ModelSyntaxError(
                f"{p} is assigned a value other than its first waypoint {x:g}", *at[p])
        init[p] = first
    model = elaborated.model
    zero = GrassmannValue(n)
    for q in model.coordinates:
        init.setdefault(q, zero)
        init.setdefault(model.momentum(q), zero)
    return PathSpec(tuple(params), tuple(waypoints), steps), init

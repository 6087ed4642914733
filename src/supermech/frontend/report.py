"""Deterministic report emission: plain text and a structured object.

Identical input produces byte-identical output; every table iterates
canonical orders only.
"""
from __future__ import annotations

import json


def _fmt_float(x):
    return f"{x:.12g}"


def _fmt_complex(z):
    z = complex(z)
    if z.imag == 0:
        return _fmt_float(z.real)
    if z.real == 0:
        return _fmt_float(z.imag) + "j"
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}j"


def _fmt_grassmann(value):
    if not value.coeff:
        return "0"
    parts = []
    for mask in sorted(value.coeff):
        coeff = _fmt_complex(value.coeff[mask])
        if mask == 0:
            parts.append(coeff)
        else:
            gens = "*".join(f"g{k + 1}" for k in range(value.n) if mask >> k & 1)
            parts.append(f"({coeff})*{gens}")
    return " + ".join(parts)


def _generator_lines(model):
    lines = []
    for q in model.coordinates:
        lines.append(f"  {q}: {q.parity.name.lower()} coordinate "
                     f"(velocity {model.velocity(q)}, momentum {model.momentum(q)})")
    for p in model.parameters:
        lines.append(f"  {p}: {p.parity.name.lower()} parameter")
    return lines


def _legendre_lines(result):
    legres = result.legres
    model = legres.model
    out = ["", "== legendre =="]
    out.append("momenta:")
    for q in model.coordinates:
        out.append(f"  {model.momentum(q)} = {legres.momenta_defs[q]}")
    n = len(model.coordinates)
    out.append(f"hessian rank: {legres.rank} of {n}")
    out.append("expressible: " + (", ".join(str(q) for q in legres.expressible_coords) or "(none)"))
    out.append("unexpressed: " + (", ".join(str(q) for q in legres.unexpressed_coords) or "(none)"))
    if legres.solved_velocities:
        out.append("solved velocities:")
        for q in legres.expressible_coords:
            v = model.velocity(q)
            out.append(f"  {v} = {legres.solved_velocities[v]}")
    if legres.unexpressed_coords:
        out.append("primary constraints:")
        for q, expr in legres.primary_constraints():
            out.append(f"  [{q}] {expr} = 0   (H[{q}] = {legres.primary_h[q]})")
    out.append(f"H0 = {legres.h0}")
    return out


def _dirac_lines(result):
    analysis = result.analysis
    out = ["", "== dirac =="]
    out.append("constraints:")
    for rec in analysis.records:
        flags = [f"stage {rec.stage}", rec.cls, rec.origin]
        if rec.coordinate is not None:
            flags.append(f"coordinate {rec.coordinate}")
        if rec.superseded:
            flags.append("superseded")
        out.append(f"  {rec.name}: " + ", ".join(flags))
        out.append(f"    expr = {rec.expr}")
        if rec.solved:
            out.append(f"    solved: {rec.solved[0]} = {rec.solved[1]}")
    active = analysis.active()
    out.append("delta (rows follow active constraints):")
    for rec, row in zip(active, analysis.delta):
        out.append(f"  {rec.name}: [" + ", ".join(str(e) for e in row) + "]")
    second = analysis.second_class_records()
    if second:
        out.append("second-class block: " + ", ".join(r.name for r in second))
        out.append("delta inverse:")
        for rec, row in zip(second, analysis.delta_inverse):
            out.append(f"  {rec.name}: [" + ", ".join(str(e) for e in row) + "]")
    else:
        out.append("second-class block: (empty)")
    out.append("multipliers:")
    for q in analysis.multipliers:
        value = analysis.multipliers[q]
        shown = "(undetermined)" if value is None else str(value)
        out.append(f"  v_{q} = {shown}")
    out.append("dirac brackets (nonvanishing among basis generators):")
    from ..dirac import dirac_bracket_table

    for a, b, value in dirac_bracket_table(analysis):
        out.append(f"  {{{a}, {b}}}_D = {value}")
    return out


def _hj_lines(result):
    sys = result.hj_system
    tds = result.tds
    closure = result.closure
    out = ["", "== hamilton-jacobi =="]
    out.append("parameters: " + ", ".join(str(p) for p in sys.parameters))
    out.append("family:")
    for member in closure.family:
        tag = f"dt {member.param}" if member.param is not None else "added"
        out.append(f"  {member.label} ({tag}) = {member.expr}")
    out.append("total differentials (nonzero coefficients):")
    for q, _ in sys.basis.pairs:
        for param in sys.parameters:
            c = tds.dq[(q, param)]
            if not c.is_zero:
                out.append(f"  d{q} <- [{c}] dt[{param}]")
    for _, p in sys.basis.pairs:
        for param in sys.parameters:
            c = tds.dp[(p, param)]
            if not c.is_zero:
                out.append(f"  d{p} <- [{c}] dt[{param}]")
    for param in sys.parameters:
        c = tds.dz[param]
        if not c.is_zero:
            out.append(f"  dZ <- [{c}] dt[{param}]")
    out.append("integrability matrix (nonzero raw entries):")
    empty = True
    for (lb, la), entry in closure.matrix_raw.items():
        if entry.is_zero:
            continue
        empty = False
        reduced = closure.matrix_reduced[(lb, la)]
        out.append(f"  {{{lb}, {la}}} = {entry}   (reduced: {reduced})")
    if empty:
        out.append("  (all zero)")
    out.append("closure outcomes:")
    for member in closure.family:
        outcome = closure.outcomes.get(member.label)
        if outcome is None:
            continue
        kind = {
            "strict_zero": "identically zero",
            "weak_zero": "zero after weak reduction",
            "new_hamiltonian": "new hamiltonian",
            "dt_relation": "differential relation",
        }[outcome.kind]
        detail = f" ({outcome.detail})" if outcome.detail else ""
        out.append(f"  d{member.label}: {kind}{detail}")
    if closure.dt_relations:
        out.append("dt relations:")
        for param in sys.parameters:
            if param in closure.dt_relations:
                out.append(f"  dt[{param}] = [{closure.dt_relations[param]}] dt[t0]")
    else:
        out.append("dt relations: (none)")
    out.append(f"strictly integrable: {'yes' if closure.strictly_integrable else 'no'}")
    cc = result.crosscheck
    out.append(f"cross-check vs constraint analysis: {cc.verdict}")
    for item in cc.matched:
        out.append(f"  match: {item}")
    for item in cc.mismatched:
        out.append(f"  MISMATCH: {item}")
    return out


def _flow_lines(result):
    flow = result.flow
    path = result.flow_path
    out = ["", "== flow =="]
    out.append("free parameters: " + ", ".join(str(p) for p in path.params))
    out.append("waypoints: " + " -> ".join(
        "(" + ", ".join(_fmt_float(x) for x in w) + ")" for w in path.waypoints))
    out.append(f"steps per segment: {path.steps}")
    out.append(f"initial surface residual: {_fmt_float(flow.onsurface_residual)}")
    out.append("endpoint state:")
    final = flow.samples[-1][1]
    for g in final:
        out.append(f"  {g} = {_fmt_grassmann(final[g])}")
    out.append(f"Z = {_fmt_grassmann(flow.z)}")
    out.append(f"max drift: {_fmt_float(flow.drift)}")
    for label in flow.drift_by_invariant:
        out.append(f"  {label}: {_fmt_float(flow.drift_by_invariant[label])}")
    tol = result.tolerance
    verdict = "ok" if flow.drift <= tol else "EXCEEDED"
    out.append(f"drift tolerance ({_fmt_float(tol)}): {verdict}")
    return out


def render_text(result):
    model = result.elaborated.model
    out = [f"model {model.name}", "generators:"]
    out.extend(_generator_lines(model))
    out.extend(_legendre_lines(result))
    if result.analysis is not None:
        out.extend(_dirac_lines(result))
    if result.hj_system is not None:
        out.extend(_hj_lines(result))
    if result.flow is not None:
        out.extend(_flow_lines(result))
    return "\n".join(out) + "\n"


def render_structured(result):
    """JSON-ready dict mirroring the text report."""
    model = result.elaborated.model
    legres = result.legres
    doc = {
        "model": {
            "name": model.name,
            "coordinates": [
                {"name": str(q), "parity": q.parity.name.lower()}
                for q in model.coordinates
            ],
            "parameters": [
                {"name": str(p), "parity": p.parity.name.lower()}
                for p in model.parameters
            ],
            "lagrangian": str(model.lagrangian),
        },
        "legendre": {
            "momenta": {str(model.momentum(q)): str(legres.momenta_defs[q])
                        for q in model.coordinates},
            "rank": legres.rank,
            "expressible": [str(q) for q in legres.expressible_coords],
            "unexpressed": [str(q) for q in legres.unexpressed_coords],
            "solved_velocities": {str(v): str(e)
                                  for v, e in legres.solved_velocities.items()},
            "primary_constraints": {str(q): str(e)
                                    for q, e in legres.primary_constraints()},
            "h0": str(legres.h0),
        },
    }
    if result.analysis is not None:
        analysis = result.analysis
        doc["dirac"] = {
            "constraints": [
                {
                    "name": rec.name,
                    "stage": rec.stage,
                    "class": rec.cls,
                    "origin": rec.origin,
                    "superseded": rec.superseded,
                    "expr": str(rec.expr),
                    "solved": (f"{rec.solved[0]} = {rec.solved[1]}"
                               if rec.solved else None),
                }
                for rec in analysis.records
            ],
            "delta": [[str(e) for e in row] for row in analysis.delta],
            "second_class": [rec.name for rec in analysis.second_class_records()],
            "delta_inverse": [[str(e) for e in row]
                              for row in analysis.delta_inverse],
            "multipliers": {str(q): (str(v) if v is not None else None)
                            for q, v in analysis.multipliers.items()},
        }
    if result.hj_system is not None:
        sys = result.hj_system
        closure = result.closure
        doc["hj"] = {
            "parameters": [str(p) for p in sys.parameters],
            "family": [
                {"label": m.label,
                 "parameter": str(m.param) if m.param is not None else None,
                 "expr": str(m.expr)}
                for m in closure.family
            ],
            "dq": {f"{q}|{param}": str(result.tds.dq[(q, param)])
                   for q, _ in sys.basis.pairs for param in sys.parameters
                   if not result.tds.dq[(q, param)].is_zero},
            "dp": {f"{p}|{param}": str(result.tds.dp[(p, param)])
                   for _, p in sys.basis.pairs for param in sys.parameters
                   if not result.tds.dp[(p, param)].is_zero},
            "dz": {str(param): str(result.tds.dz[param])
                   for param in sys.parameters
                   if not result.tds.dz[param].is_zero},
            "outcomes": {label: outcome.kind
                         for label, outcome in closure.outcomes.items()},
            "added": [m.label for m in closure.added],
            "dt_relations": {str(param): str(expr)
                             for param, expr in closure.dt_relations.items()},
            "strictly_integrable": closure.strictly_integrable,
            "cross_check": {
                "verdict": result.crosscheck.verdict,
                "matched": list(result.crosscheck.matched),
                "mismatched": list(result.crosscheck.mismatched),
            },
        }
    if result.flow is not None:
        flow = result.flow
        doc["flow"] = {
            "free_parameters": [str(p) for p in result.flow_path.params],
            "waypoints": [list(w) for w in result.flow_path.waypoints],
            "steps": result.flow_path.steps,
            "endpoint": {str(g): _fmt_grassmann(v)
                         for g, v in flow.samples[-1][1].items()},
            "z": _fmt_grassmann(flow.z),
            "max_drift": flow.drift,
            "drift_by_member": dict(flow.drift_by_invariant),
        }
    return doc


def render_json(result):
    return json.dumps(render_structured(result), indent=2, sort_keys=True) + "\n"

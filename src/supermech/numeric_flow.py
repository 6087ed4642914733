"""Numeric evaluation in a finite Grassmann algebra and flow integration.

Expressions are evaluated into Lambda_n (complex coefficients on the
subsets of {1..n}, held as a dict from subset bitmask to its nonzero
coefficient) and the multi-parameter total differential equations are
integrated with a fixed-step classical 4th-order scheme.  Dependent
parameters move along their dt relations; free parameters follow the
requested path exactly.

Every polynomial is lowered once into a program (`lower`) that
`run_program` runs on those sparse values; `evaluate` and a flow's RK4 steps
both run such programs.  Every product goes through `_product`, which fills
a sign table with the pairs of masks it meets.
"""
from __future__ import annotations

from dataclasses import dataclass

from .brackets import berezin
from .errors import FlowError, GradeMismatch
from .superalgebra import Parity, as_poly, gen_poly

LAMBDA_CAP = 12


def _signed(a, b):
    """a|b where a*b keeps its sign and ~(a|b) where it flips, for disjoint
    masks: one flip per generator of a above a generator of b."""
    odd, rest = 0, b
    while rest:
        low = rest & -rest
        odd += bin(a & -(low << 1)).count("1")
        rest ^= low
    return ~(a | b) if odd & 1 else a | b


def _product(left, right, signs):
    """left*right on mask -> complex dicts.  Products that land on one slot
    are summed in ascending order of the left mask.

    signs is a table {a: {b: _signed(a, b)}} that the product fills with the
    disjoint pairs it meets; callers that multiply often share one.
    """
    out = {}
    for a in sorted(left):
        va = left[a]
        row = signs.get(a)
        if row is None:
            row = signs[a] = {}
        for b, vb in right.items():
            if a & b:
                continue
            ab = row.get(b)
            if ab is None:
                ab = row[b] = _signed(a, b)
            if ab >= 0:
                out[ab] = out.get(ab, 0j) + va * vb
            else:
                out[~ab] = out.get(~ab, 0j) - va * vb
    return out


class GrassmannValue:
    """Element of Lambda_n: complex coefficients on subsets of {1..n}."""

    __slots__ = ("n", "coeff")

    def __init__(self, n, coeff=None):
        if n > LAMBDA_CAP:
            raise FlowError(f"Lambda_n capped at n={LAMBDA_CAP}, got {n}")
        self.n = n
        self.coeff = {}
        if coeff:
            for mask, value in coeff.items():
                value = complex(value)
                if value != 0:
                    self.coeff[mask] = value

    @classmethod
    def body_value(cls, n, value):
        return cls(n, {0: complex(value)})

    @classmethod
    def generator(cls, n, k):
        """The k-th (1-based) odd generator of Lambda_n."""
        if not 1 <= k <= n:
            raise FlowError(f"generator index {k} outside 1..{n}")
        return cls(n, {1 << (k - 1): 1.0})

    @property
    def body(self):
        return self.coeff.get(0, 0j)

    def __add__(self, other):
        out = dict(self.coeff)
        for mask, value in other.coeff.items():
            out[mask] = out.get(mask, 0j) + value
        return GrassmannValue(self.n, out)

    def __sub__(self, other):
        out = dict(self.coeff)
        for mask, value in other.coeff.items():
            out[mask] = out.get(mask, 0j) - value
        return GrassmannValue(self.n, out)

    def __neg__(self):
        return GrassmannValue(self.n, {m: -v for m, v in self.coeff.items()})

    def scaled(self, factor):
        factor = complex(factor)
        return GrassmannValue(self.n, {m: v * factor for m, v in self.coeff.items()})

    def __mul__(self, other):
        if not isinstance(other, GrassmannValue):
            return self.scaled(other)
        n = max(self.n, other.n)
        return GrassmannValue(n, _product(self.coeff, other.coeff, {}))

    def __rmul__(self, other):
        return self.scaled(other)

    @property
    def max_abs(self):
        return max((abs(v) for v in self.coeff.values()), default=0.0)

    def pure_grade(self, parity):
        return all((bin(m).count("1") & 1) == parity for m in self.coeff)

    def __repr__(self):
        return f"GrassmannValue({self.n}, {self.coeff!r})"


def evaluate(p, assignment):
    """Evaluate a SuperPoly under generator -> GrassmannValue.

    Every generator of p must be assigned; odd generators must carry pure
    odd-grade values and even generators pure even-grade ones.
    """
    p = as_poly(p)
    gens = p.generators()
    if not gens and not p.terms:
        return GrassmannValue(0)
    n = None
    for g in gens:
        value = assignment.get(g)
        if value is None:
            raise GradeMismatch(f"no value assigned to {g}")
        if n is None:
            n = value.n
        elif value.n != n:
            raise GradeMismatch("assignments mix different Lambda_n")
        if not value.pure_grade(g.parity):
            raise GradeMismatch(f"{g} assigned a value of the wrong grade")
    if n is None:
        n = next(iter(assignment.values())).n if assignment else 0
    slot_of = {g: i for i, g in enumerate(gens)}
    env = [assignment[g].coeff for g in gens]
    return GrassmannValue(n, run_program(lower(p, slot_of), env, {}))


@dataclass(frozen=True)
class PathSpec:
    """Waypoints in the free-parameter space, integrated with fixed steps."""

    params: tuple
    waypoints: tuple[tuple[float, ...], ...]
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise FlowError("steps must be >= 1")
        if len(self.waypoints) < 2:
            raise FlowError("need at least two waypoints")
        for w in self.waypoints:
            if len(w) != len(self.params):
                raise FlowError("waypoint arity does not match parameters")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a == b:
                raise FlowError("consecutive waypoints must differ")


@dataclass
class FlowSystem:
    """Total differential equations compiled against the closure relations."""

    tds: object
    free_params: tuple
    state_gens: tuple
    rhs: dict  # (state generator, free param) -> SuperPoly
    dz: dict  # free param -> SuperPoly
    invariants: list  # (label, SuperPoly)


def make_flow(tds, report):
    sys = tds.system
    relations = report.dt_relations
    free = tuple(p for p in sys.parameters if p not in relations)
    coords = tuple(q for q in sys.basis.coordinates if q != sys.t0)
    momenta = sys.basis.momenta
    state_gens = coords + momenta
    dependent = [p for p in sys.parameters if p in relations]
    rhs = {}
    dz = {}
    for f in free:
        for x in state_gens:
            table = tds.dq if x in coords else tds.dp
            poly = table[(x, f)]
            if f is sys.t0:
                for beta in dependent:
                    poly = poly + table[(x, beta)] * relations[beta]
            rhs[(x, f)] = poly
        zpoly = tds.dz[f]
        if f is sys.t0:
            for beta in dependent:
                zpoly = zpoly + tds.dz[beta] * relations[beta]
        dz[f] = zpoly
    invariants = [(m.label, m.expr) for m in report.family]
    return FlowSystem(tds, free, state_gens, rhs, dz, invariants)


@dataclass
class FlowResult:
    samples: list  # (parameter point, {generator: GrassmannValue})
    z: GrassmannValue
    drift: float
    drift_by_invariant: dict
    onsurface_residual: float = 0.0


def lower(p, slot_of):
    """Flatten p into a program over an environment of slot values.

    A program is a list of (complex coefficient, env slots) terms in the
    order of p's terms, with one slot per unit of exponent: the order in
    which `evaluate` multiplies and sums.
    """
    program = []
    for mono in as_poly(p).terms:
        slots = []
        for g, e in mono.factors:
            slot = slot_of.get(g)
            if slot is None:
                raise GradeMismatch(f"no value assigned to {g}")
            slots += [slot] * e
        program.append((complex(mono.coeff), tuple(slots)))
    return program


def run_program(program, env, signs):
    """Value of a lowered polynomial under env, a list of mask -> complex
    dicts in which a missing slot is zero, with the sign table `signs` of
    `_product`.

    A term's first factor scales its coefficient slot by slot, and the
    first term starts the total.  The result may hold exact zeros.
    """
    total = None
    for coeff, slots in program:
        acc = {m: coeff * v for m, v in env[slots[0]].items()} if slots else {0: coeff}
        for slot in slots[1:]:
            acc = _product(acc, env[slot], signs)
        if total is None:
            total = acc
        else:
            for m, v in acc.items():
                total[m] = total.get(m, 0j) + v
    return {} if total is None else total


def _largest(value):
    return max(map(abs, value.values()), default=0.0)


# how far the initial state may lie off the constraint surface
_SURFACE_TOL = 1e-12


def integrate_flow(tds, path, init, report):
    """Integrate the characteristic flow along a piecewise-linear path.

    report is the closure_loop outcome for tds.system.  init assigns every
    coordinate and momentum (P0 is derived so that the time member of the
    family starts at zero); each family member must vanish on it to within
    1e-12.  Z is accumulated alongside the state; drift reports the worst
    family-member violation seen.

    Every polynomial the run needs is lowered once against a fixed
    generator -> slot map, and grades are checked once on the initial
    assignment; the RK4 steps then work on the nonzero slots of each value.
    """
    return _integrate(make_flow(tds, report), path, init)


def _integrate(flow, path, init):
    """integrate_flow on a flow that make_flow has already built."""
    sys = flow.tds.system
    if tuple(path.params) != tuple(flow.free_params):
        raise FlowError(
            f"path parameters {[str(p) for p in path.params]} do not match the "
            f"free parameters {[str(p) for p in flow.free_params]}")
    for p in path.params:
        if p.parity == Parity.ODD:
            for a, b in zip(path.waypoints, path.waypoints[1:]):
                if a[path.params.index(p)] != b[path.params.index(p)]:
                    raise FlowError(f"odd free parameter {p} cannot be moved")

    n = max((v.n for v in init.values()), default=0)
    lifted = {g: v if v.n == n else GrassmannValue(n, v.coeff)
              for g, v in init.items()}
    state_gens = [g for g in flow.state_gens if g != sys.p0]
    for g in state_gens:
        if g not in lifted:
            raise FlowError(f"initial state misses {g}")
    # env layout: the state (P0 last, as it is derived), then the constants
    state_gens.append(sys.p0)
    order = state_gens + [g for g in lifted if g not in flow.state_gens]
    slot_of = {g: i for i, g in enumerate(order)}
    p0_slot = len(state_gens) - 1

    segments = []
    for w0, w1 in zip(path.waypoints, path.waypoints[1:]):
        moving = [(i, complex(w1[i] - w0[i])) for i in range(len(path.params))
                  if w1[i] - w0[i] != 0.0]
        segments.append((w1, moving))
    moved = {i for _, moving in segments for i, _ in moving}
    h0 = lower(sys.legres.h0, slot_of)
    invariants = [(label, lower(expr, slot_of)) for label, expr in flow.invariants]
    dz = {i: lower(flow.dz[path.params[i]], slot_of) for i in moved}
    # a zero right-hand side adds exact zeros: keep only the nonzero ones
    rhs = {}
    for i in moved:
        row = ((j, lower(flow.rhs[(g, path.params[i])], slot_of))
               for j, g in enumerate(state_gens))
        rhs[i] = [(j, prog) for j, prog in row if prog]
    programs = [h0, *(prog for _, prog in invariants), *dz.values(),
                *(prog for row in rhs.values() for _, prog in row)]
    used = {slot for prog in programs for _, slots in prog for slot in slots}
    for slot in sorted(used - {p0_slot}):
        g = order[slot]
        if not lifted[g].pure_grade(g.parity):
            raise GradeMismatch(f"{g} assigned a value of the wrong grade")

    signs = {}
    env = [None if g == sys.p0 else lifted[g].coeff for g in order]
    env[p0_slot] = {m: -v for m, v in run_program(h0, env, signs).items()}
    state, constants = env[:p0_slot + 1], env[p0_slot + 1:]

    def sample(point):
        return (tuple(point),
                {g: GrassmannValue(n, v) for g, v in zip(state_gens, state)})

    residual = 0.0
    for label, prog in invariants:
        residual = max(residual, _largest(run_program(prog, env, signs)))
    if residual > _SURFACE_TOL:
        raise FlowError(
            f"initial state violates the constraint surface by {residual:.3e}")

    # a slot missing from a value is 0j wherever it enters a sum
    z = {}
    drift = 0.0
    drift_by = {label: 0.0 for label, _ in invariants}
    samples = [sample(path.waypoints[0])]

    def add(into, value, factor):
        for m, v in value.items():
            into[m] = into.get(m, 0j) + v * factor
        return into

    def deriv(env, moving):
        ks = [{} for _ in state]
        zdot = {}
        for i, vf in moving:
            for j, prog in rhs[i]:
                add(ks[j], run_program(prog, env, signs), vf)
            add(zdot, run_program(dz[i], env, signs), vf)
        return ks, zdot

    def shifted(k, factor):
        return [add(dict(s), d, factor) for s, d in zip(state, k)] + constants

    def advance(s, a, b, c, d):
        out = dict(s)
        for m in {**a, **b, **c, **d}:
            out[m] = out.get(m, 0j) + (a.get(m, 0j) + b.get(m, 0j) * two
                                       + c.get(m, 0j) * two + d.get(m, 0j)) * sixth
        return out

    h = 1.0 / path.steps
    half, full, sixth = complex(h / 2), complex(h), complex(h / 6)
    one, two = complex(1), complex(2)
    for w1, moving in segments:
        for _ in range(path.steps):
            k1, z1 = deriv(state + constants, moving)
            k2, z2 = deriv(shifted(k1, half), moving)
            k3, z3 = deriv(shifted(k2, half), moving)
            k4, z4 = deriv(shifted(k3, full), moving)
            state = [advance(*parts) for parts in zip(state, k1, k2, k3, k4)]
            z = advance(z, z1, z2, z3, {m: v * one for m, v in z4.items()})
            env = state + constants
            for label, prog in invariants:
                value = _largest(run_program(prog, env, signs))
                if value > drift_by[label]:
                    drift_by[label] = value
                    if value > drift:
                        drift = value
        samples.append(sample(w1))
    return FlowResult(samples, GrassmannValue(n, z), drift, drift_by, residual)


@dataclass
class PathIndependenceReport:
    strict: bool
    comparisons: list  # (name, difference, compared: bool, note)
    agree: bool
    tolerance: float


def path_independence_check(tds, path_a, path_b, init, report, tol=1e-8):
    """Compare two flows that share endpoints.

    Strictly integrable systems must agree in every state component; weakly
    integrable ones only in the components whose generators commute weakly
    with the whole family (the flow-invariant observables) and in the
    family members themselves.
    """
    if path_a.waypoints[0] != path_b.waypoints[0] or \
            path_a.waypoints[-1] != path_b.waypoints[-1]:
        raise FlowError("paths must share their endpoints")
    flow = make_flow(tds, report)
    end_a = _integrate(flow, path_a, init).samples[-1][1]
    end_b = _integrate(flow, path_b, init).samples[-1][1]
    constants = {g: v for g, v in init.items() if g not in flow.state_gens}

    strict = report.strictly_integrable
    sys = tds.system
    observables = _weak_observables(sys, report)
    comparisons = []
    agree = True
    for g in end_a:
        if g == sys.p0:
            continue
        diff = (end_a[g] - end_b[g]).max_abs
        if strict or g in observables:
            comparisons.append((str(g), diff, True, "first-class observable"
                                if not strict else "state"))
            if diff > tol:
                agree = False
        else:
            comparisons.append((str(g), diff, False, "not first-class"))
    for label, expr in flow.invariants:
        va = evaluate(expr, {**constants, **end_a}).max_abs
        vb = evaluate(expr, {**constants, **end_b}).max_abs
        diff = abs(va - vb)
        comparisons.append((label, diff, True, "family member"))
        if diff > tol:
            agree = False
    return PathIndependenceReport(strict, comparisons, agree, tol)


def _weak_observables(sys, report):
    out = set()
    for g in sys.basis.coordinates + sys.basis.momenta:
        if g == sys.t0 or g == sys.p0:
            continue
        ok = True
        for m in report.family:
            br = berezin(gen_poly(g), m.expr, sys.basis)
            if not report.surface.reduce(br).is_zero:
                ok = False
                break
        if ok:
            out.add(g)
    return out

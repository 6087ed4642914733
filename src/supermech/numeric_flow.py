"""Numeric evaluation in a finite Grassmann algebra and flow integration.

Expressions are evaluated into Lambda_n (2^n components indexed by subset
bitmasks, complex coefficients) and the multi-parameter total differential
equations are integrated with a fixed-step classical 4th-order scheme.
Dependent parameters move along their dt relations; free parameters follow
the requested path exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import GradeMismatch
from .superalgebra import Parity, as_poly

LAMBDA_CAP = 12


def _merge_sign(a, b):
    """Sign of reordering the concatenation of subsets a and b."""
    sign = 1
    j = 0
    bb = b
    while bb:
        if bb & 1:
            if bin(a >> (j + 1)).count("1") & 1:
                sign = -sign
        bb >>= 1
        j += 1
    return sign


class GrassmannValue:
    """Element of Lambda_n: complex coefficients on subsets of {1..n}."""

    __slots__ = ("n", "coeff")

    def __init__(self, n, coeff=None):
        if n > LAMBDA_CAP:
            raise ValueError(f"Lambda_n capped at n={LAMBDA_CAP}, got {n}")
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
            raise ValueError(f"generator index {k} outside 1..{n}")
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
        out = {}
        for ma, va in self.coeff.items():
            for mb, vb in other.coeff.items():
                if ma & mb:
                    continue
                value = va * vb * _merge_sign(ma, mb)
                mask = ma | mb
                out[mask] = out.get(mask, 0j) + value
        return GrassmannValue(self.n, out)

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
    total = GrassmannValue(n)
    for mono in p.terms:
        acc = GrassmannValue.body_value(n, complex(mono.coeff))
        for g, e in mono.factors:
            value = assignment[g]
            for _ in range(e):
                acc = acc * value
        total = total + acc
    return total


@dataclass(frozen=True)
class PathSpec:
    """Waypoints in the free-parameter space, integrated with fixed steps."""

    params: tuple
    waypoints: tuple[tuple[float, ...], ...]
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if len(self.waypoints) < 2:
            raise ValueError("need at least two waypoints")
        for w in self.waypoints:
            if len(w) != len(self.params):
                raise ValueError("waypoint arity does not match parameters")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must differ")


@dataclass
class FlowSystem:
    """Total differential equations compiled against the closure relations."""

    tds: object
    report: object
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
    return FlowSystem(tds, report, free, state_gens, rhs, dz, invariants)


@dataclass
class FlowResult:
    samples: list  # (parameter point, {generator: GrassmannValue})
    z: GrassmannValue
    drift: float
    drift_by_invariant: dict
    onsurface_residual: float = 0.0


def _state_add(a, b, factor):
    return {g: a[g] + b[g].scaled(factor) for g in a}


def integrate_flow(tds, path, init, report=None, surface_tol=1e-12):
    """Integrate the characteristic flow along a piecewise-linear path.

    init assigns every coordinate and momentum (P0 is derived so that the
    time member of the family starts at zero); it must lie on the
    constraint surface within surface_tol.  Z is accumulated alongside
    the state; drift reports the worst family-member violation seen.
    """
    if report is None:
        from .hamilton_jacobi import closure_loop

        report = closure_loop(tds.system)
    flow = make_flow(tds, report)
    sys = tds.system
    if tuple(path.params) != tuple(flow.free_params):
        raise ValueError(
            f"path parameters {[str(p) for p in path.params]} do not match the "
            f"free parameters {[str(p) for p in flow.free_params]}")
    for p in path.params:
        if p.parity == Parity.ODD:
            for a, b in zip(path.waypoints, path.waypoints[1:]):
                if a[path.params.index(p)] != b[path.params.index(p)]:
                    raise ValueError(f"odd free parameter {p} cannot be moved")

    n = max((v.n for v in init.values()), default=0)
    lifted = {g: v if v.n == n else GrassmannValue(n, v.coeff)
              for g, v in init.items()}
    constants = {g: v for g, v in lifted.items() if g not in flow.state_gens}
    state = {}
    for g in flow.state_gens:
        if g == sys.p0:
            continue
        if g not in lifted:
            raise ValueError(f"initial state misses {g}")
        state[g] = lifted[g]
    h0_val = evaluate(sys.legres.h0, {**constants, **state})
    state[sys.p0] = -h0_val

    def assignment(current):
        return {**constants, **current}

    residual = 0.0
    for label, expr in flow.invariants:
        residual = max(residual, evaluate(expr, assignment(state)).max_abs)
    if residual > surface_tol:
        raise ValueError(
            f"initial state violates the constraint surface by {residual:.3e}")

    zero = GrassmannValue(n)
    z = zero
    drift = 0.0
    drift_by = {label: 0.0 for label, _ in flow.invariants}
    samples = [(tuple(path.waypoints[0]), dict(state))]

    def deriv(current, velocity):
        env = assignment(current)
        out = {}
        for g in flow.state_gens:
            acc = zero
            for f, vf in velocity.items():
                if vf == 0.0:
                    continue
                acc = acc + evaluate(flow.rhs[(g, f)], env).scaled(vf)
            out[g] = acc
        zdot = zero
        for f, vf in velocity.items():
            if vf != 0.0:
                zdot = zdot + evaluate(flow.dz[f], env).scaled(vf)
        return out, zdot

    for w0, w1 in zip(path.waypoints, path.waypoints[1:]):
        velocity = {p: w1[i] - w0[i] for i, p in enumerate(path.params)}
        h = 1.0 / path.steps
        for _ in range(path.steps):
            k1, z1 = deriv(state, velocity)
            s2 = _state_add(state, k1, h / 2)
            k2, z2 = deriv(s2, velocity)
            s3 = _state_add(state, k2, h / 2)
            k3, z3 = deriv(s3, velocity)
            s4 = _state_add(state, k3, h)
            k4, z4 = deriv(s4, velocity)
            for g in state:
                state[g] = state[g] + (k1[g] + k2[g].scaled(2) + k3[g].scaled(2)
                                       + k4[g]).scaled(h / 6)
            z = z + (z1 + z2.scaled(2) + z3.scaled(2) + z4.scaled(1)).scaled(h / 6)
            env = assignment(state)
            for label, expr in flow.invariants:
                value = evaluate(expr, env).max_abs
                if value > drift_by[label]:
                    drift_by[label] = value
                    if value > drift:
                        drift = value
        samples.append((tuple(w1), dict(state)))
    return FlowResult(samples, z, drift, drift_by, residual)


@dataclass
class PathIndependenceReport:
    strict: bool
    comparisons: list  # (name, difference, compared: bool, note)
    agree: bool
    tolerance: float


def path_independence_check(tds, path_a, path_b, init, report=None, tol=1e-8):
    """Compare two flows that share endpoints.

    Strictly integrable systems must agree in every state component; weakly
    integrable ones only in the components whose generators commute weakly
    with the whole family (the flow-invariant observables) and in the
    family members themselves.
    """
    if report is None:
        from .hamilton_jacobi import closure_loop

        report = closure_loop(tds.system)
    if path_a.waypoints[0] != path_b.waypoints[0] or \
            path_a.waypoints[-1] != path_b.waypoints[-1]:
        raise ValueError("paths must share their endpoints")
    ra = integrate_flow(tds, path_a, init, report=report)
    rb = integrate_flow(tds, path_b, init, report=report)
    end_a = ra.samples[-1][1]
    end_b = rb.samples[-1][1]
    flow = make_flow(tds, report)
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
    for label, expr in report.closed_invariants():
        va = evaluate(expr, {**constants, **end_a}).max_abs
        vb = evaluate(expr, {**constants, **end_b}).max_abs
        diff = abs(va - vb)
        comparisons.append((label, diff, True, "family member"))
        if diff > tol:
            agree = False
    return PathIndependenceReport(strict, comparisons, agree, tol)


def _weak_observables(sys, report):
    from .brackets import berezin
    from .dirac import ConstraintRecord, Surface, try_solve
    from .superalgebra import gen_poly

    surface = Surface([
        ConstraintRecord(m.label, m.expr, 0, solved=try_solve(m.expr, sys.basis))
        for m in report.family])
    out = set()
    for g in sys.basis.coordinates + sys.basis.momenta:
        if g == sys.t0 or g == sys.p0:
            continue
        ok = True
        for m in report.family:
            br = berezin(gen_poly(g), m.expr, sys.basis)
            if not surface.reduce(br, on_unsolved="ignore").is_zero:
                ok = False
                break
        if ok:
            out.add(g)
    return out

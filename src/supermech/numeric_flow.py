"""Numeric evaluation in a finite Grassmann algebra and flow integration.

Expressions are evaluated into Lambda_n (complex coefficients on the
subsets of {1..n}, held as a dict from subset bitmask to its nonzero
coefficient) and the multi-parameter total differential equations are
integrated with a fixed-step classical 4th-order scheme.  Dependent
parameters move along their dt relations; free parameters follow the
requested path exactly.

One-off values (literals, products, `evaluate`, a flow's P0) are sparse
dicts that `_product` multiplies.  A flow instead lowers its polynomials
once (`lower`), with each constant whose value has no soul folded into the
coefficients, finds the masks each value can hold during the run, lays
every value out as a flat run of complex registers, and plans the products
it reads, each once, as (output, left, right, op) entries, which one loop,
`_run`, applies for any n.  The terms of one plan that share a coefficient
and leading slots share their partial products, one backward pass (`_live`)
drops the entries nothing reads, a coefficient of exactly 1 or -1 is
carried as a sign instead of multiplied in, and a derivative whose rate is
exactly 1 lands on its k registers.  A plan's first write of a register
sets it and its later writes add to it, so no register is reset between
runs.  Each segment of a path is one run of its step plan, repeated once
per RK4 step.  A step plan holds its stage four times, on the state and
then on three sets of stage inputs, the inputs between the copies, the
update of the state and Z, the drift audit, and one peak entry per audited
register, which keeps that register's largest absolute value in a float
register, so the state, Z and the drift live only in the register file.  A
segment whose stage reads no number of the state that it moves runs the
stage once: its four rates are equal at every step, so its step adds one
update summed from them.  Segments that move the same parameters, each at a
rate of 1 or not, with steps of one size share their plans, also across the
two paths of a path-independence check.  Both engines sum the products that
land on one slot in ascending order of the left mask, and a step sums its
derivatives in the reference's order, so a flow gives what the same sums of
sparse products give, except possibly for the sign of zero parts.
"""
from __future__ import annotations

from cmath import isfinite

from .brackets import generator_bracket
from .errors import FlowError, GradeMismatch
from .superalgebra import Parity, as_poly

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


def _span(masks):
    """The generators any of masks uses, as one mask."""
    span = 0
    for m in masks:
        span |= m
    return span


def _partners(a, right, span):
    """The masks of right that share no generator with a, where span is
    _span(right).  right is scanned or the submasks of span & ~a are
    looked up in it, whichever is shorter, so a product of two dense
    values costs at most 3^n lookups."""
    free = span & ~a
    count = 1 << free.bit_count()
    if len(right) <= count:
        return [b for b in right if not a & b]
    out = []
    b = free
    for _ in range(count):
        if b in right:
            out.append(b)
        b = (b - 1) & free
    return out


def _product(left, right):
    """left*right on mask -> complex dicts.  Products that land on one slot
    are summed in ascending order of the left mask."""
    out = {}
    span = _span(right)
    for a in sorted(left):
        va = left[a]
        for b in _partners(a, right, span):
            ab = _signed(a, b)
            if ab >= 0:
                out[ab] = out.get(ab, 0j) + va * right[b]
            else:
                out[~ab] = out.get(~ab, 0j) - va * right[b]
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
        return GrassmannValue(max(self.n, other.n), out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GrassmannValue(self.n, {m: -v for m, v in self.coeff.items()})

    def scaled(self, factor):
        factor = complex(factor)
        return GrassmannValue(self.n, {m: v * factor for m, v in self.coeff.items()})

    def __mul__(self, other):
        if not isinstance(other, GrassmannValue):
            return self.scaled(other)
        n = max(self.n, other.n)
        return GrassmannValue(n, _product(self.coeff, other.coeff))

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
    total = None
    for mono in p.terms:
        coeff = complex(mono.coeff)
        factors = [assignment[g].coeff for g, e in mono.factors for _ in range(e)]
        acc = {m: coeff * v for m, v in factors[0].items()} if factors else {0: coeff}
        for value in factors[1:]:
            acc = _product(acc, value)
        if total is None:
            total = acc
        else:
            for m, v in acc.items():
                total[m] = total.get(m, 0j) + v
    return GrassmannValue(n, total)


def check_waypoint(params, before, point):
    """Raise FlowError unless point, after the waypoint before (None at the
    start), gives each of params one number, differs from before and leaves
    each odd parameter at 0: an odd value has no body to start at or move."""
    if len(point) != len(params):
        raise FlowError("waypoint arity does not match parameters")
    if point == before:
        raise FlowError("consecutive waypoints must differ")
    for p, x in zip(params, point):
        if x and p.parity == Parity.ODD:
            raise FlowError(f"{p} assigned a value of the wrong grade" if before is None
                            else f"odd free parameter {p} cannot be moved")


class PathSpec:
    """Waypoints in the free-parameter space, integrated with fixed steps: an
    int steps >= 1, not a bool, and waypoints that pass check_waypoint."""

    __slots__ = ("params", "waypoints", "steps")

    def __init__(self, params, waypoints, steps):
        if type(steps) is not int or steps < 1:
            raise FlowError(f"steps must be >= 1 and an int, got {steps!r}")
        if len(waypoints) < 2:
            raise FlowError("need at least two waypoints")
        for before, point in zip((None, *waypoints), waypoints):
            check_waypoint(params, before, point)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "waypoints", waypoints)  # tuple of float tuples
        object.__setattr__(self, "steps", steps)

    def __setattr__(self, *_):
        raise AttributeError("a path is read-only")


class FlowSystem:
    """Total differential equations compiled against the closure relations."""

    __slots__ = ("tds", "free_params", "state_gens", "rhs", "dz", "invariants")

    def __init__(self, tds, free_params, state_gens, rhs, dz, invariants):
        self.tds = tds
        self.free_params = free_params
        self.state_gens = state_gens
        self.rhs = rhs  # (state generator, free param) -> SuperPoly
        self.dz = dz  # free param -> SuperPoly
        self.invariants = invariants  # (label, SuperPoly)


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


class FlowResult:
    """Samples at each waypoint, Z at the endpoint, and the family members'
    largest absolute values: each member's over the steps (drift_by_invariant,
    their maximum drift) and at the endpoint (end_by_invariant), and all
    members' at the start (onsurface_residual)."""

    __slots__ = ("samples", "z", "drift", "drift_by_invariant", "end_by_invariant",
                 "onsurface_residual")

    def __init__(self, samples, z, drift, drift_by_invariant, end_by_invariant,
                 onsurface_residual=0.0):
        self.samples = samples  # (parameter point, {generator: GrassmannValue})
        self.z: GrassmannValue = z
        self.drift: float = drift
        self.drift_by_invariant = drift_by_invariant  # label -> float
        self.end_by_invariant = end_by_invariant  # label -> float
        self.onsurface_residual: float = onsurface_residual


def lower(p, slot_of, fixed):
    """Flatten p into a program over an environment of slot values.

    A program is a list of (complex coefficient, env slots) terms in the
    order of p's terms, with one slot per unit of exponent: the order in
    which `evaluate` and a flow's plan multiply and sum.  A generator of
    fixed, {generator: complex}, is a number no slot holds: each term
    that reads it multiplies its coefficient by value**e, in the order of
    its factors, and a term that reads one whose value is zero is dropped.
    """
    program = []
    for mono in as_poly(p).terms:
        coeff, slots = complex(mono.coeff), []
        for g, e in mono.factors:
            if g not in fixed:
                slot = slot_of.get(g)
                if slot is None:
                    raise GradeMismatch(f"no value assigned to {g}")
                slots += [slot] * e
            elif fixed[g]:
                coeff *= fixed[g] ** e
            else:
                break
        else:
            program.append((coeff, tuple(slots)))
    return program


# how far the initial state may lie off the constraint surface
_SURFACE_TOL = 1e-12

# the most entries a flow's step plan may hold, which holds it to about
# 10 MB: tracemalloc reads 133-150 bytes per counted entry, registers and
# the lists built while planning included, on the step plans of three-flavour
# flows with 19,000-58,000 entries in Lambda_9..Lambda_11
PLAN_LIMIT = 70_000
_over_the_limit = f"the flow needs more than PLAN_LIMIT = {PLAN_LIMIT:,} entries"


def integrate_flow(tds, path, init, report):
    """Integrate the characteristic flow along a piecewise-linear path.

    report is the closure_loop outcome for tds.system.  init assigns every
    coordinate and momentum (P0 is derived so that the time member of the
    family starts at zero); each family member must vanish on it to within
    1e-12.  Z is accumulated alongside the state; drift reports the worst
    family-member violation seen.

    Every value of init must have its generator's grade, which is
    checked once, and every polynomial the run needs is lowered once
    against a fixed generator -> slot map.  A constant (a generator that
    is neither state nor P0) whose value has no soul holds no slot: `lower`
    folds its value into the coefficients, so the plans and the PLAN_LIMIT
    count below are those of the folded programs.  Folding rounds as
    reading a slot does only for a power of two; for other values the
    results may differ in their last bits from a run that reads the value
    from a slot.  The programs the steps run are then planned once on the
    masks each value can hold (`_static_layouts`, `_Plan`), each partial
    product of a plan made once, coefficients of exactly 1 and -1 folded,
    and only the entries kept whose registers the flow reads (`_live`).
    Each segment plans its stage, the programs of its moving parameters
    joined into one that leaves the derivative of the state and of Z in one
    block of registers, a program with a rate of exactly 1 landing there
    and the others scaled into it.  Its step plan holds that stage four
    times, the first copy reading the state and each later one the stage
    inputs that the entries before it set from the state and the previous
    copy's block, then the RK4 update of every number the stage moves, then
    the drift audit and its peak entries.  Every segment is one run
    (`_run`) that repeats that plan once per step on a flat list of complex
    numbers, which holds the state, Z, the derivatives and every partial
    product.  The results are those of the same sums of sparse products,
    except possibly for the sign of zero parts.  A segment whose
    stage reads no number of the state that it moves (a gauge parameter
    whose H' has state-free coefficients, or dq/dt0 = p while p stays) runs
    it once; its step plan then adds the update its four equal rates sum to,
    bit for bit what four runs give.  P0 is `-evaluate(h0)` on the initial
    state.  The family members are measured only by the drift audit: its
    first run, on the initial state, gives the surface residual, and its run
    at the end of every step the drift.  Each register of the members'
    values has a peak register, a float that starts at 0.0; the peak entries
    that end every step plan raise it to the register's absolute value when
    that is larger, as max(peak, value) does, so a NaN keeps the peak.  The
    peaks carry across waypoints, as every step plan shares them, and after
    the last segment give each member's drift and their largest the flow's;
    the members' registers, which the last step's audit set, give each
    member's largest absolute value at the endpoint.  check_waypoint has
    passed path's waypoints, so no segment moves an odd parameter.
    A flow whose step plan, or whose P0 program alone, needs more than
    PLAN_LIMIT entries, counted before any is shared or dropped, fails with
    FlowError before any entry is built, and a flow whose initial residual
    is not a number, or whose state or Z at a waypoint is not finite, fails
    with FlowError too.
    """
    return _integrate(make_flow(tds, report), (path,), init)[0]


def _support(program, supports, budget):
    """The masks program can give a nonzero slot when each env slot holds
    the masks in supports, and the number of product entries its plan
    holds.  Raises FlowError as soon as that number passes budget."""
    out = set()
    entries = 0
    for _, slots in program:
        acc = {0}
        for slot in slots:
            right = supports[slot]
            span = _span(right)
            masks = set()
            for a in acc:
                partners = _partners(a, right, span)
                entries += len(partners)
                if entries > budget:
                    raise FlowError(_over_the_limit)
                masks.update([a | b for b in partners])
            acc = masks
        out |= acc
    return out, entries


def _static_layouts(supports, n, p0_slot, h0, rows, dz, audited):
    """The masks each env value can hold during a flow, and those of Z's
    derivative, each as a sorted tuple.

    supports holds the masks of each initial value; P0's follow from h0.
    They grow to the fixpoint of the (state slot, program) rows the RK4
    steps run.  What a step plan can hold is counted on the final supports
    against PLAN_LIMIT before any entry is built: the product entries of
    the rows and of the dz programs four times, as a step runs its stage
    four times, those of the audited programs once and one peak entry for
    each register of their values, and one entry for each of the three
    stage inputs and the update of every number of the state, and for the
    update of every number of Z.
    """
    supports[p0_slot] = _support(h0, supports, PLAN_LIMIT)[0]
    # every round but the last adds a mask to some state value
    for _ in range((len(rows) << n) + 1):
        budget = PLAN_LIMIT
        grown = []
        for j, prog in rows:
            masks, entries = _support(prog, supports, budget // 4)
            budget -= 4 * entries
            grown.append((j, masks - supports[j]))
        if not any(masks for _, masks in grown):
            break
        for j, masks in grown:
            supports[j] |= masks
    else:
        raise FlowError("the static supports of the flow did not settle")
    z = set()
    for prog in dz:
        masks, entries = _support(prog, supports, budget // 4)
        budget -= 4 * entries
        z |= masks
    for prog in audited:
        masks, entries = _support(prog, supports, budget)
        budget -= entries + len(masks)
    if 4 * sum(map(len, supports[:p0_slot + 1])) + len(z) > budget:
        raise FlowError(_over_the_limit)
    return [tuple(sorted(masks)) for masks in supports], tuple(sorted(z))


class _Plan:
    """Programs lowered onto one register file of complex numbers.

    `reg` starts with the env bank, each env value a run of registers, one
    per mask of its layout in ascending order.  Planning a program gives it
    registers for its value, fresh ones or those it is asked to land on,
    fresh ones for the partial products that no earlier program of its plan
    made, and each distinct coefficient one register.  A plan is a list of
    (output, left, right, op) entries, which `_run` applies in order; the
    first entry of a run that writes a register sets it, so no register
    needs zeroing between runs, and one plan may hold several copies of the
    same entries on other registers.
    """

    def __init__(self, values, layouts):
        self.reg = []
        self.env = []  # env slot -> {mask: register}
        self.consts = {}
        for value, layout in zip(values, layouts):
            self.env.append(self.alloc(layout))
            for m, r in self.env[-1].items():
                self.reg[r] = value.get(m, 0j)

    def alloc(self, keys):
        """{key: register} for a fresh run of zeroed registers."""
        start = len(self.reg)
        self.reg.extend([0j] * len(keys))
        return dict(zip(keys, range(start, len(self.reg))))

    def const(self, value):
        """The register that holds value."""
        if value not in self.consts:
            self.consts[value] = len(self.reg)
            self.reg.append(value)
        return self.consts[value]

    def program(self, program, entries, held, into=None):
        """Append to entries what leaves program's value in a run of
        registers, and return them as {mask: register}.

        A term multiplies in one env slot per step.  It starts from the
        longest run of its leading slots whose product held, {(coefficient,
        slots): {mask: register}}, already has, and every product it then
        leaves in registers of its own goes into held: the programs of one
        plan pass one held, and each partial product is made once.  A term
        that finds nothing held starts as its coefficient on mask 0; when
        that is exactly 1, or -1 and another slot follows, it starts from
        its first slot's registers and carries the sign into its next step.
        The entries of a step run in ascending order of the left mask, so
        products that land on one register are summed in the order
        `_product` sums them.  A term's last step lands on the value's
        registers when none of those it writes is written yet or when it
        puts one product on each mask; otherwise it lands on registers of
        its own, which are then added.  The value's registers are those of
        into, {mask: register}, which no earlier entry may write, or fresh
        ones.  The first entry that writes a register sets it and every
        later one adds to it, so the entries need no zeroed registers and
        may run again on their own results.  Entries that nothing reads are
        left for `_live` to drop.  A program that is one slot with
        coefficient 1 returns that slot's registers, and one that is a lone
        constant its coefficient's register; neither appends an entry.
        """
        if len(program) == 1 and not program[0][1]:
            return {0: self.const(program[0][0])}
        if len(program) == 1 and program[0][0] == 1 and len(program[0][1]) == 1:
            return self.env[program[0][1][0]]
        terms = []
        for coeff, slots in program:
            steps = []
            acc = (0,)
            for slot in slots:
                right = self.env[slot]
                span = _span(right)
                pairs = [(a, b) for a in acc for b in _partners(a, right, span)]
                acc = tuple(sorted({a | b for a, b in pairs}))
                steps.append((right, pairs, acc))
            terms.append((coeff, slots, steps, acc))
        masks = sorted(set().union(*(acc for *_, acc in terms)))
        total = self.alloc(masks) if into is None else {m: into[m] for m in masks}
        written = set()
        for coeff, slots, steps, _ in terms:
            done = len(slots)
            while done and (coeff, slots[:done]) not in held:
                done -= 1
            if done:
                acc, sign = held[coeff, slots[:done]], 1
            elif slots and (coeff == 1 or coeff == -1 and len(slots) > 1):
                acc, sign, done = self.env[slots[0]], int(coeff.real), 1
            else:
                acc, sign = {0: self.const(coeff)}, 1
            for k in range(done, len(steps)):
                right, pairs, layout = steps[k]
                if k == len(steps) - 1 and (
                        len(pairs) == len(layout)
                        or written.isdisjoint(map(total.get, layout))):
                    out = total
                else:
                    out = held[coeff, slots[:k + 1]] = self.alloc(layout)
                for a, b in pairs:
                    ab = _signed(a, b)
                    dest, op = (out[ab], sign) if ab >= 0 else (out[~ab], -sign)
                    if dest not in written:
                        written.add(dest)
                        op *= 2
                    entries.append((dest, acc[a], right[b], op))
                acc, sign = out, 1
            if acc is not total:
                for m, r in acc.items():
                    dest = total[m]
                    entries.append((dest, r, 0, 0 if dest in written else 3))
                    written.add(dest)
        return total


def _reads(left, right, op):
    """The registers an entry with these operands reads."""
    if op in (0, 3):
        return (left,)
    if op > 3:
        return (left, *right)
    return (left, right)


def _live(entries, roots):
    """The entries, in order, that write a register of roots or one that a
    later kept entry reads: one backward pass."""
    needed = set(roots)
    kept = []
    for entry in reversed(entries):
        if entry[0] in needed:
            kept.append(entry)
            needed.update(_reads(*entry[1:]))
    kept.reverse()
    return kept


def _run(plan, reg, times=1):
    """Apply a plan's entries (output, left, right, op) in order to the
    register file reg, times times over.  A first write (op 2, -2 or 3)
    sets reg[output] to reg[left] * reg[right], to its negative or to
    reg[left]; a later one (op 1, -1 or 0) adds, subtracts or adds that
    value.  Op 4 sets an RK4 stage input, reg[left] + reg[k] * reg[c] for
    right = (k, c), and op 5 advances a number of the state or Z by its four
    derivatives, right = (k1, k2, k3, k4, two, sixth), to
    reg[left] + (((reg[k1] + reg[k2] * reg[two]) + reg[k3] * reg[two]) + reg[k4])
    * reg[sixth], the order of the reference's sums.  Op 6 raises the peak
    reg[output] to abs(reg[left]) when that is larger, as max(peak, value)
    does, so a NaN keeps the peak.

    An entry is dispatched by family: the products and the add (ops below
    3), which most entries are, take one test to reach their family, and
    the RK4 and audit entries (ops 3 to 6) another."""
    for _ in range(times):
        for out, left, right, op in plan:
            if op < 3:
                if op == 2:
                    reg[out] = reg[left] * reg[right]
                elif op == 1:
                    reg[out] += reg[left] * reg[right]
                elif op == -2:
                    reg[out] = -(reg[left] * reg[right])
                elif op == -1:
                    reg[out] -= reg[left] * reg[right]
                else:
                    reg[out] += reg[left]
            elif op == 4:
                k, c = right
                reg[out] = reg[left] + reg[k] * reg[c]
            elif op == 5:
                k1, k2, k3, k4, two, sixth = right
                two = reg[two]
                reg[out] = reg[left] + (
                    ((reg[k1] + reg[k2] * two) + reg[k3] * two) + reg[k4]) * reg[sixth]
            elif op == 6:
                value = abs(reg[left])
                if value > reg[out]:
                    reg[out] = value
            else:
                reg[out] = reg[left]


def _integrate(flow, paths, init):
    """integrate_flow along each of paths on a flow that make_flow has
    already built, as a list of their FlowResults.

    The paths share one lowering, one set of static layouts, on the union
    of the parameters they move, and one set of plans; each path starts
    from the initial register values."""
    sys = flow.tds.system
    for path in paths:
        if tuple(path.params) != tuple(flow.free_params):
            raise FlowError(
                f"path parameters {[str(p) for p in path.params]} do not match the "
                f"free parameters {[str(p) for p in flow.free_params]}")
    n = max((v.n for v in init.values()), default=0)  # every value is lifted to it
    lifted = {g: v if v.n == n else GrassmannValue(n, v.coeff) for g, v in init.items()}
    state_gens = [g for g in flow.state_gens if g != sys.p0]
    for g in state_gens:
        if g not in lifted:
            raise FlowError(f"initial state misses {g}")
    # env layout: the state (P0 last, as it is derived), then the constants
    state_gens.append(sys.p0)
    order = state_gens + [g for g in lifted if g not in flow.state_gens]
    slot_of = {g: i for i, g in enumerate(order)}
    p0_slot = len(state_gens) - 1

    runs = []
    for path in paths:
        segments = []
        for w0, w1 in zip(path.waypoints, path.waypoints[1:]):
            moving = [(i, complex(w1[i] - w0[i])) for i in range(len(path.params))
                      if w1[i] - w0[i] != 0.0]
            segments.append((w1, moving))
        runs.append((path, segments))
    moved = sorted({i for _, segments in runs for _, moving in segments
                    for i, _ in moving})
    for g, value in lifted.items():
        if not value.pure_grade(g.parity):
            raise GradeMismatch(f"{g} assigned a value of the wrong grade")
    # a constant whose value has no soul is folded into the coefficients
    # that read it
    fixed = {g: lifted[g].body for g in order[p0_slot + 1:]
             if set(lifted[g].coeff) <= {0}}
    h0 = lower(sys.legres.h0, slot_of, fixed)
    invariants = [(label, lower(expr, slot_of, fixed))
                  for label, expr in flow.invariants]
    dz = {i: lower(flow.dz[flow.free_params[i]], slot_of, fixed) for i in moved}
    # a zero right-hand side adds exact zeros: keep only the nonzero ones
    rhs = {}
    for i in moved:
        row = ((j, lower(flow.rhs[(g, flow.free_params[i])], slot_of, fixed))
               for j, g in enumerate(state_gens))
        rhs[i] = [(j, prog) for j, prog in row if prog]

    # the masks each value can hold, and the plan's size, before any entry
    # or sign is built
    layouts, z_layout = _static_layouts(
        [set() if g == sys.p0 else set(lifted[g].coeff) for g in order], n,
        p0_slot, h0, [row for i in moved for row in rhs[i]], dz.values(),
        [prog for _, prog in invariants])

    lifted[sys.p0] = -evaluate(sys.legres.h0, lifted)

    # registers: the env bank (the state first), the rates of the moving
    # parameters, four derivative blocks k1..k4 in the layout of the state
    # then of Z, the stage inputs in the state's, Z itself, the step's
    # constants, the planned programs' own and the drift peaks
    plan = _Plan([lifted[g].coeff for g in order], layouts)
    reg = plan.reg
    shape = layouts[:p0_slot + 1]
    width = sum(map(len, shape))
    shape.append(z_layout)

    def bank(layouts):
        """The registers of a fresh run in the given layouts, as a list."""
        start = len(reg)
        for layout in layouts:
            plan.alloc(layout)
        return list(range(start, len(reg)))

    rate = {i: plan.alloc((0,))[0] for i in moved}
    ks = [bank(shape) for _ in range(4)]
    inputs = bank(shape[:-1])
    # the number of the state or Z that each offset of a block stands for
    home = [*range(width), *bank(shape[-1:])]
    k_regs = [{m: ks[0][r] for m, r in where.items()}
              for where in plan.env[:p0_slot + 1]]
    z_regs = dict(zip(z_layout, ks[0][width:]))
    two, zero = plan.const(complex(2)), plan.const(0j)

    # the registers of every family member's value, member after member;
    # each member reads its own span of them
    audit, held, audited, members = [], {}, [], []
    for label, prog in invariants:
        value = plan.program(prog, audit, held)
        members.append((label, len(audited), len(audited) + len(value)))
        audited += value.values()
    audit = _live(audit, audited)
    # the largest absolute value each audited register reaches after a
    # step: a float register each, as complex numbers do not order, which
    # the peak entries that end every step plan raise
    peaks = range(len(reg), len(reg) + len(audited))
    reg.extend([0.0] * len(audited))
    peak_entries = [(peak, r, 0, 6) for peak, r in zip(peaks, audited)]

    def step_plan(steps, moving):
        """The plans of a segment of the given number of steps that moves the
        parameters i of its (i, unit) pairs, unit when the rate is exactly 1:
        one to run when the segment starts, if any, and one to run at every
        step, which ends in the drift audit and the peak entries."""
        h = 1.0 / steps
        half, full = plan.const(complex(h / 2)), plan.const(complex(h))
        sixth = plan.const(complex(h / 6))
        # the stage: the moving parameters' programs in order, on k1 and Z's
        # block of it, sharing their partial products; a program with a rate
        # of 1 lands on its derivative's registers when it is the first to
        # write them, and otherwise its rate scales or copies it into them
        stage, held, written = [], {}, set()
        for i, unit in moving:
            first, more = (3, 0) if unit else (2, 1)
            for dest, prog in [*((k_regs[j], prog) for j, prog in rhs[i]),
                               (z_regs, dz[i])]:
                start = len(stage)
                land = unit and written.isdisjoint(dest.values())
                value = plan.program(prog, stage, held, dest if land else None)
                written.update(out for out, *_ in stage[start:])
                for m, r in value.items():
                    if dest[m] != r:
                        stage.append((dest[m], r, rate[i],
                                      more if dest[m] in written else first))
                        written.add(dest[m])
        stage = _live(stage, ks[0])
        # the offsets of the numbers the stage moves; the others keep their
        # value for the whole segment
        offset = {r: o for o, r in enumerate(ks[0])}
        moves = sorted({offset[out] for out, *_ in stage if out in offset})
        roots = [home[o] for o in moves] + audited
        shifted = [o for o in moves if o < width]
        shifting = set(shifted)
        if not any(left in shifting or op not in (0, 3) and right in shifting
                   for _, left, right, op in stage):
            # a stage that reads no number of the state that it moves gives
            # four equal rates at every step: run it once, with the update
            # they sum to (added to zero), and add that update at every step
            update = bank(shape)
            stage += [(update[o], zero, (*[ks[0][o]] * 4, two, sixth), 5)
                      for o in moves]
            step = [(home[o], update[o], 0, 0) for o in moves]
            return stage, _live(step + audit, roots) + peak_entries
        # the stage four times, the first on the state bank and the others on
        # the stage inputs, each on its own block; after each of the first
        # three, the inputs s + k * c, of which `_live` keeps those that a
        # later copy reads; then the update of every number moved
        step = list(stage)
        for k, c, next_k in zip(ks, (half, half, full), ks[1:]):
            step += [(inputs[o], o, (k[o], c), 4) for o in shifted]
            shift = {ks[0][o]: next_k[o] for o in moves}
            shift.update((o, inputs[o]) for o in shifted)
            step += [(shift.get(out, out), shift.get(left, left),
                      shift.get(right, right), op)
                     for out, left, right, op in stage]
        step += [(home[o], home[o], (*(k[o] for k in ks), two, sixth), 5)
                 for o in moves]
        step += audit
        return [], _live(step, roots) + peak_entries

    _run(audit, reg)
    residual = max((abs(reg[r]) for r in audited), default=0.0)
    if not residual <= _SURFACE_TOL:
        raise FlowError(
            f"initial state violates the constraint surface by {residual:.3e}")

    def sample(point):
        if not all(map(isfinite, map(reg.__getitem__, home))):
            raise FlowError(f"the flow is not finite at waypoint "
                            f"({', '.join(f'{x:g}' for x in point)})")
        return (tuple(point),
                {g: GrassmannValue(n, {m: reg[r] for m, r in where.items()})
                 for g, where in zip(state_gens, plan.env)})

    # the registers each path starts from: those that step plans add later
    # are constants, or set before any run reads them
    initial = list(reg)
    # segments that move the same parameters, each at a rate of 1 or not,
    # with steps of one size share their plans, which read the rates from
    # their registers
    plans, results = {}, []
    for path, segments in runs:
        reg[:len(initial)] = initial
        samples = [sample(path.waypoints[0])]
        for w1, moving in segments:
            for i, vf in moving:
                reg[rate[i]] = vf
            key = path.steps, tuple((i, vf == 1) for i, vf in moving)
            if key not in plans:
                plans[key] = step_plan(*key)
            once, step = plans[key]
            if once:
                _run(once, reg)
            _run(step, reg, path.steps)
            samples.append(sample(w1))
        drift_by = {label: max(map(reg.__getitem__, peaks[a:b]), default=0.0)
                    for label, a, b in members}
        drift = max(drift_by.values(), default=0.0)
        # the last step's audit left the members' endpoint values there
        end_by = {label: max((abs(reg[r]) for r in audited[a:b]), default=0.0)
                  for label, a, b in members}
        z = GrassmannValue(n, dict(zip(z_layout, map(reg.__getitem__, home[width:]))))
        results.append(FlowResult(samples, z, drift, drift_by, end_by, residual))
    return results


class PathIndependenceReport:
    __slots__ = ("strict", "comparisons", "agree", "tolerance")

    def __init__(self, strict, comparisons, agree, tolerance):
        self.strict: bool = strict
        self.comparisons = comparisons  # (name, difference, compared: bool, note)
        self.agree: bool = agree
        self.tolerance: float = tolerance


def path_independence_check(tds, path_a, path_b, init, report, tol=1e-8):
    """Compare two flows that share endpoints.

    Strictly integrable systems must agree in every state component; weakly
    integrable ones only in the components whose generators commute weakly
    with the whole family (the flow-invariant observables) and in the
    family members themselves, each by the largest absolute value that its
    path's drift audit read at the endpoint.  Both paths run on one lowering
    and one set of plans.
    """
    if path_a.waypoints[0] != path_b.waypoints[0] or \
            path_a.waypoints[-1] != path_b.waypoints[-1]:
        raise FlowError("paths must share their endpoints")
    result_a, result_b = _integrate(make_flow(tds, report), (path_a, path_b), init)
    end_a, end_b = result_a.samples[-1][1], result_b.samples[-1][1]

    strict = report.strictly_integrable
    sys = tds.system
    observables = () if strict else _weak_observables(sys, report)
    comparisons = []
    for g in end_a:
        if g != sys.p0:
            compared = strict or g in observables
            note = ("state" if strict else "first-class observable" if compared
                    else "not first-class")
            comparisons.append((str(g), (end_a[g] - end_b[g]).max_abs, compared, note))
    comparisons += [(label, abs(va - result_b.end_by_invariant[label]), True,
                     "family member") for label, va in result_a.end_by_invariant.items()]
    agree = not any(diff > tol for _, diff, compared, _ in comparisons if compared)
    return PathIndependenceReport(strict, comparisons, agree, tol)


def _weak_observables(sys, report):
    out = set()
    for g in sys.basis.coordinates + sys.basis.momenta:
        if g == sys.t0 or g == sys.p0:
            continue
        ok = True
        for m in report.family:
            br = generator_bracket(g, m.expr, sys.basis)
            if not report.surface.reduce(br).is_zero:
                ok = False
                break
        if ok:
            out.add(g)
    return out

"""Seeded generators for the benchmark's model inputs.

Every generated Lagrangian is at most quadratic in velocities, so it lies in
the class the analysis supports.  The same (seed, index) always gives the
same source text.
"""
from __future__ import annotations

import random
from fractions import Fraction

# Shapes of the model-sweep schedule: blocks with their sizes.  Model i has
# shape SCHEDULE[i % len(SCHEDULE)], so every run sees the same mix of
# shapes; the seed picks every coefficient.  A Yukawa block couples the last
# boson with velocity, a Gauss block the last velocity-free auxiliary, each
# to the first fermion family.
# A wide block is an even family of `size` coordinates whose last `rank`
# members carry velocities; legendre scans C(size, rank) subsets for it.
SCHEDULE = (
    (("osc",), ("gauge",)),
    (("osc",), ("fermi", 2), ("yukawa",)),
    (("gauge",), ("fermi", 2), ("gauss",)),
    (("fermi", 2), ("fermi", 1)),
    (("wide", 10, 5),),
    (("osc",), ("gauge",), ("fermi", 2), ("yukawa",)),
    (("osc",), ("osc",), ("fermi", 3), ("yukawa",)),
    (("gauge",), ("gauge",), ("fermi", 2), ("gauss",)),
    (("fermi", 3), ("fermi", 2)),
    (("wide", 14, 7),),
)


def _ratio(rng, scale=1):
    """A small positive rational, written the way .smf numbers are.

    Denominators stay small, so the cost of the exact arithmetic varies
    little between seeds.
    """
    return str(Fraction(rng.choice((1, 2, 3, 4, 5)), rng.choice((1, 2))) * scale)


class _Model:
    def __init__(self, name):
        self.name = name
        self.even = []
        self.odd = []
        self.terms = []
        self.bosons = []  # names of single even coordinates with velocities
        self.auxiliaries = []  # velocity-free even coordinates
        self.fermions = []  # (psi, psibar, size)

    def fresh(self, stem):
        return f"{stem}{len(self.even) + len(self.odd) + 1}"

    def source(self):
        lines = [f"model {self.name}"]
        if self.even:
            lines.append("even " + " ".join(self.even))
        if self.odd:
            lines.append("odd " + " ".join(self.odd))
        lines.append("lagrangian:")
        lines.append("    " + self.terms[0])
        lines.extend("  " + term for term in self.terms[1:])
        return "\n".join(lines) + "\n"


def _osc(model, rng):
    q = model.fresh("q")
    model.even.append(q)
    model.bosons.append(q)
    model.terms.append(f"+ 1/2*dot({q})*dot({q})")
    model.terms.append(f"- {_ratio(rng, Fraction(1, 2))}*{q}*{q}")


def _gauge(model, rng):
    a = model.fresh("a")
    model.even.append(a)
    b = model.fresh("b")
    model.even.append(b)
    model.bosons.append(a)
    model.auxiliaries.append(b)
    c = _ratio(rng, Fraction(1, 2))
    model.terms.append(f"+ {c}*(dot({a}) - {b})*(dot({a}) - {b})")


def _fermi(model, rng, n):
    psi = model.fresh("psi")
    model.odd.append(f"{psi}[{n}]")
    psibar = model.fresh("chi")
    model.odd.append(f"{psibar}[{n}]")
    model.fermions.append((psi, psibar, n))
    model.terms.append(
        f"+ 1/2*i*sum(a in 1..{n}, {psibar}[a]*dot({psi})[a]"
        f" - dot({psibar})[a]*{psi}[a])")
    model.terms.append(f"- {_ratio(rng)}*sum(a in 1..{n}, {psibar}[a]*{psi}[a])")


def _coupling(model, rng, x):
    psi, psibar, n = model.fermions[0]
    model.terms.append(
        f"- {_ratio(rng)}*{x}*sum(a in 1..{n}, {psibar}[a]*{psi}[a])")


def _yukawa(model, rng):
    _coupling(model, rng, model.bosons[-1])


def _gauss(model, rng):
    _coupling(model, rng, model.auxiliaries[-1])


def _wide(model, rng, size, rank):
    w = model.fresh("w")
    model.even.append(f"{w}[{size}]")
    first = size - rank + 1
    model.terms.append(
        f"+ 1/2*sum(j in {first}..{size}, dot({w})[j]*dot({w})[j])")
    model.terms.append(
        f"- {_ratio(rng, Fraction(1, 2))}*sum(j in 1..{size}, {w}[j]*{w}[j])")


_BLOCKS = {
    "osc": _osc,
    "gauge": _gauge,
    "fermi": _fermi,
    "yukawa": _yukawa,
    "gauss": _gauss,
    "wide": _wide,
}


def sweep_model(seed, index):
    """Source text of model `index` of the model-sweep run with `seed`."""
    rng = random.Random(seed * 1_000_003 + index)
    shape = SCHEDULE[index % len(SCHEDULE)]
    model = _Model(f"sweep_{seed}_{index}")
    for name, *sizes in shape:
        _BLOCKS[name](model, rng, *sizes)
    model.terms[0] = model.terms[0].removeprefix("+ ")
    return model.source()


LAMBDA6_MODEL = """\
model flavour3
# three fermion flavours with a first-order kinetic term, a mass and a
# Yukawa coupling to one even coordinate; the flow runs in Lambda_6
even x
odd psi[3] psibar[3]
param m: even
param g: even
lagrangian:
    1/2*dot(x)*dot(x)
  + 1/2*i*sum(a in 1..3, psibar[a]*dot(psi)[a] - dot(psibar)[a]*psi[a])
  - m*sum(a in 1..3, psibar[a]*psi[a])
  - g*x*sum(a in 1..3, psibar[a]*psi[a])
"""


def lambda6_config(steps):
    """Flow path for LAMBDA6_MODEL; the initial state is on the surface."""
    lines = ["params t0", "0", "1", f"steps {steps}"]
    for a in range(1, 4):
        lines.append(f"psi[{a}] = 1*g{a}")
        lines.append(f"psibar[{a}] = 1*g{a + 3}")
        lines.append(f"p_psi[{a}] = 0.5j*g{a + 3}")
        lines.append(f"p_psibar[{a}] = 0.5j*g{a}")
    lines.append("m = 1")
    lines.append("g = 0.5")
    return "\n".join(lines) + "\n"

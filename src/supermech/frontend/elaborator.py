"""Elaboration of a parsed model document into a Lagrangian model.

Index families and tensor contractions are expanded to scalar generators;
the expression tree is multiplied out in the written order so every sign
comes from canonicalization, never from the frontend.
"""
from __future__ import annotations

from ..errors import (
    IndexOutOfRange,
    MixedParity,
    UnboundConstant,
    UnknownSymbol,
)
from ..legendre import LagrangianModel, ModelBuilder
from ..superalgebra import (
    C_I,
    Coefficient,
    Parity,
    SuperPoly,
    accumulate,
    const_poly,
    gen_poly,
    parity_of,
)
from . import parser as syn

RESERVED = {"t0", "P0", "Z", "i", "dot", "sum", "in", "model", "even", "odd",
            "param", "tensor", "lagrangian", "steps", "params"}


class ElaboratedModel:
    __slots__ = ("document", "model", "families", "sizes", "params", "tensors")

    def __init__(self, document, model, families, sizes, params, tensors):
        self.document: syn.ModelDocument = document
        self.model: LagrangianModel = model
        self.families = families  # name -> list of coordinate Generators (1-based)
        self.sizes = sizes  # name -> size or None
        self.params = params  # name -> Generator
        self.tensors = tensors  # name -> tuple of tuples of Coefficient

    @property
    def n_odd(self):
        """The number of odd coordinates, the Lambda_n a flow needs at least."""
        return sum(q.parity == Parity.ODD for q in self.model.coordinates)

    def lookup(self, name, index=None):
        """Resolve a printed generator name (coordinates, momenta, params).
        A momentum p_q is that of a coordinate q, and its errors name p_q."""
        coord = name[2:] if name.startswith("p_") else name
        if coord in self.families:
            indices = () if index is None else (index,)
            q = _coordinate(self.families, self.sizes, coord, indices, {}, name)
            return q if coord == name else self.model.momentum(q)
        if name in self.params:
            return self.params[name]
        raise UnknownSymbol(f"unknown generator {name!r}")


def _resolve_index(ix, bindings):
    if isinstance(ix, int):
        return ix
    if ix in bindings:
        return bindings[ix]
    raise UnknownSymbol(f"unbound index variable {ix!r}")


def _coordinate(families, sizes, name, indices, bindings, shown=None):
    """The coordinate name[indices] of a declared family, one rule for the
    model source and the flow config: an unsized name takes no index and a
    family exactly one, in range.  Errors call it shown, by default name."""
    coords = families[name]
    size = sizes[name]
    shown = shown or name
    if size is None:
        if indices:
            raise IndexOutOfRange(f"{shown} is not an indexed family")
        return coords[0]
    if len(indices) != 1:
        raise IndexOutOfRange(f"{shown} needs exactly one index")
    k = _resolve_index(indices[0], bindings)
    if not 1 <= k <= size:
        raise IndexOutOfRange(f"index {k} outside {shown}[1..{size}]")
    return coords[k - 1]


def _check_name(name, seen):
    if name in RESERVED:
        raise UnknownSymbol(f"{name!r} is reserved")
    if name.startswith("p_") or name.startswith("v_"):
        raise UnknownSymbol(f"{name!r} collides with derived generator names")
    if name in seen:
        raise UnknownSymbol(f"{name!r} declared twice")
    seen.add(name)


def elaborate(doc):
    """Expand the document to scalar generators and an even SuperPoly."""
    builder = ModelBuilder(doc.name)
    families = {}
    sizes = {}
    seen = set()
    for decl in doc.declarations:
        _check_name(decl.name, seen)
        parity = Parity.EVEN if decl.parity == "even" else Parity.ODD
        if decl.size is None:
            q, _, _ = builder.coordinate(decl.name, parity)
            families[decl.name] = [q]
        else:
            coords = []
            for k in range(1, decl.size + 1):
                q, _, _ = builder.coordinate(decl.name, parity, k)
                coords.append(q)
            families[decl.name] = coords
        sizes[decl.name] = decl.size
    params = {}
    for pd in doc.params:
        _check_name(pd.name, seen)
        params[pd.name] = builder.parameter(
            pd.name, Parity.EVEN if pd.parity == "even" else Parity.ODD)
    tensors = {}
    constants = _Env(families, sizes, params,
                     dict.fromkeys(td.name for td in doc.tensors), builder)
    for td in doc.tensors:
        _check_name(td.name, seen)
        tensors[td.name] = tuple(
            tuple(_constant(constants, entry, td.name) for entry in row)
            for row in td.entries)

    env = _Env(families, sizes, params, tensors, builder)
    lagrangian = env.eval(doc.lagrangian, {})
    try:
        if parity_of(lagrangian) != Parity.EVEN:
            raise MixedParity("the Lagrangian must be even")
    except MixedParity:
        raise MixedParity("the Lagrangian must be even") from None
    model = builder.finish(lagrangian)
    return ElaboratedModel(doc, model, families, sizes, params, tensors)


class _TensorInEntry(Exception):
    """A tensor entry names a declared tensor."""


def _constant(env, node, tensor_name):
    # an entry may use any constant expression, but no generator and no
    # tensor: env's tensor table holds every declared tensor without entries
    try:
        value = env.eval(node, {})
        if value.is_constant:
            return value.body
    except _TensorInEntry:
        pass
    raise UnboundConstant(f"tensor {tensor_name} entry is not a numeric constant")


class _Env:
    def __init__(self, families, sizes, params, tensors, builder):
        self.families = families
        self.sizes = sizes
        self.params = params
        self.tensors = tensors
        self.builder = builder

    def eval(self, node, bindings):
        if isinstance(node, syn.Num):
            return const_poly(Coefficient(node.value))
        if isinstance(node, syn.Imag):
            return const_poly(C_I)
        if isinstance(node, syn.Neg):
            return -self.eval(node.item, bindings)
        if isinstance(node, syn.Sum):
            # one map for the whole sum, normalized once
            acc = {}
            for sign, term in node.terms:
                accumulate(acc, self.eval(term, bindings), sign)
            return SuperPoly._from_map(acc)
        if isinstance(node, syn.Product):
            head, *rest = node.factors
            product = self.eval(head, bindings)
            for factor in rest:
                product = product * self.eval(factor, bindings)
            return product
        if isinstance(node, syn.SumExpr):
            # one map over the whole index range, normalized once
            acc = {}
            for k in range(node.lo, node.hi + 1):
                inner = dict(bindings)
                inner[node.var] = k
                accumulate(acc, self.eval(node.body, inner))
            return SuperPoly._from_map(acc)
        if isinstance(node, syn.Dot):
            coord = self.coordinate_checked(node.name, node.indices, bindings)
            return gen_poly(self.builder.velocity_of(coord))
        if isinstance(node, syn.Ref):
            if node.name in self.families:
                return gen_poly(_coordinate(self.families, self.sizes, node.name,
                                            node.indices, bindings))
            if node.name in self.params:
                if node.indices:
                    raise IndexOutOfRange(f"parameter {node.name} takes no index")
                return const_poly(1) * gen_poly(self.params[node.name])
            if node.name in self.tensors:
                entries = self.tensors[node.name]
                if len(node.indices) != 2:
                    raise IndexOutOfRange(f"tensor {node.name} needs two indices")
                if entries is None:
                    raise _TensorInEntry
                r = _resolve_index(node.indices[0], bindings)
                c = _resolve_index(node.indices[1], bindings)
                if not (1 <= r <= len(entries) and 1 <= c <= len(entries[0])):
                    raise IndexOutOfRange(
                        f"tensor index [{r},{c}] outside {node.name}")
                return const_poly(entries[r - 1][c - 1])
            if len(node.indices) == 2:
                raise UnboundConstant(f"tensor {node.name!r} is not declared")
            if node.name in bindings:
                raise UnknownSymbol(
                    f"index variable {node.name!r} used as a value")
            raise UnknownSymbol(f"unknown symbol {node.name!r}")
        raise TypeError(f"not an expression node: {node!r}")

    def coordinate_checked(self, name, indices, bindings):
        if name not in self.families:
            raise UnknownSymbol(f"dot() of unknown coordinate {name!r}")
        return _coordinate(self.families, self.sizes, name, indices, bindings)

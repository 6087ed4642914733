"""Parser for the model-definition language (.smf files).

The expression tree preserves the written factor order; all sign handling
happens later during canonicalization.  Grammar::

    model <name>
    even <name>[N] ...          # coordinates, optional index families
    odd <name>[N] ...
    param <name>: even|odd
    tensor <name>[N,M] = [[...], ...]
    lagrangian: <expr>          # exactly once

    expr   := term (('+'|'-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | atom
    atom   := NUMBER | 'i' | ref | 'dot' '(' ref ')' indexes?
            | 'sum' '(' NAME 'in' INT '..' INT ',' expr ')' | '(' expr ')'
    ref    := NAME indexes?
    indexes:= '[' (INT|NAME) (',' (INT|NAME))* ']'
    NUMBER := INT ('/' INT)?

'#' starts a comment running to the end of the line.  Parentheses, unary
minus and sum() nest at most MAX_NESTING levels deep; '+', '-' and '*'
chains may be any length.
"""
from __future__ import annotations

import re
from fractions import Fraction

from ..errors import ModelSyntaxError

# deep enough for any hand-written model, shallow enough that parsing and
# elaborating stay well inside Python's default recursion limit
MAX_NESTING = 200

KEYWORDS = {"model", "even", "odd", "param", "tensor", "lagrangian",
            "sum", "dot", "in", "i"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<dots>\.\.)
  | (?P<sym>[][(),:*+=/-])
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "int" | "name" | "sym" | "eof"
        self.text = text
        self.line = line
        self.col = col


def tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ModelSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(chunk)
        elif kind == "dots":
            tokens.append(Token("sym", "..", line, col))
            col += 2
        else:
            tokens.append(Token(kind if kind != "sym" else "sym", chunk, line, col))
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------- AST nodes

class Node:
    """A read-only syntax-tree value, equal to a node of its class with equal fields."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        return type(self).__name__ + "(" + ", ".join(
            f"{name}={value!r}" for name, value in self.__dict__.items()) + ")"

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} nodes are read-only")

    __delattr__ = __setattr__


class Num(Node):
    def __init__(self, value):
        self.__dict__.update(value=value)  # a Fraction


class Imag(Node):
    pass


class Ref(Node):
    def __init__(self, name, indices=()):
        self.__dict__.update(name=name, indices=indices)


class Dot(Node):
    def __init__(self, name, indices=()):
        self.__dict__.update(name=name, indices=indices)


class SumExpr(Node):
    def __init__(self, var, lo, hi, body):
        self.__dict__.update(var=var, lo=lo, hi=hi, body=body)


class Sum(Node):
    """A '+'/'-' chain of two or more terms, flat however long it is."""

    def __init__(self, terms):
        # ((sign, term), ...); sign is 1 or -1, the first is 1
        self.__dict__.update(terms=terms)


class Product(Node):
    """A '*' chain of two or more factors, in written order."""

    def __init__(self, factors):
        self.__dict__.update(factors=factors)


class Neg(Node):
    def __init__(self, item):
        self.__dict__.update(item=item)


class CoordDecl(Node):
    def __init__(self, name, parity, size):
        # parity is "even" or "odd"; size is None for a single coordinate
        self.__dict__.update(name=name, parity=parity, size=size)


class ParamDecl(Node):
    def __init__(self, name, parity):
        self.__dict__.update(name=name, parity=parity)


class TensorDecl(Node):
    def __init__(self, name, rows, cols, entries):
        # entries: a tuple of row tuples of constant expression ASTs
        self.__dict__.update(name=name, rows=rows, cols=cols, entries=entries)


class ModelDocument(Node):
    def __init__(self, name, declarations, params, tensors, lagrangian):
        # CoordDecls in file order, then ParamDecls and TensorDecls
        self.__dict__.update(name=name, declarations=declarations, params=params,
                             tensors=tensors, lagrangian=lagrangian)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def current(self):
        return self.tokens[self.pos]

    def error(self, message, tok=None):
        tok = tok or self.current
        if tok.kind == "eof" and self.pos > 0:
            prev = self.tokens[self.pos - 1]
            return ModelSyntaxError(f"{message}, found end of input after "
                                    f"{prev.text!r}", prev.line, prev.col)
        return ModelSyntaxError(f"{message}, found {tok.text!r}", tok.line, tok.col)

    def accept(self, kind=None, text=None):
        tok = self.current
        if tok.kind == "eof":
            return None
        if kind is not None and tok.kind != kind:
            return None
        if text is not None and tok.text != text:
            return None
        self.pos += 1
        return tok

    def expect(self, kind=None, text=None, what=""):
        tok = self.accept(kind, text)
        if tok is None:
            raise self.error(f"expected {what or text or kind}")
        return tok

    # ------------------------------------------------------------- document

    def parse_document(self):
        self.expect("name", "model")
        name = self.expect("name", what="model name").text
        declarations = []
        params = []
        tensors = []
        lagrangian = lagrangian_line = None
        while self.current.kind != "eof":
            tok = self.current
            if tok.kind != "name":
                raise self.error("expected a declaration keyword")
            if tok.text in ("even", "odd"):
                self.pos += 1
                items = self.parse_decl_items(tok.text)
                if not items:
                    raise self.error("expected at least one name")
                declarations.extend(items)
            elif tok.text == "param":
                self.pos += 1
                pname = self.expect("name", what="parameter name").text
                self.expect("sym", ":")
                parity = self.expect("name", what="even or odd")
                if parity.text not in ("even", "odd"):
                    raise self.error("parameter parity must be even or odd", parity)
                params.append(ParamDecl(pname, parity.text))
            elif tok.text == "tensor":
                self.pos += 1
                tensors.append(self.parse_tensor())
            elif tok.text == "lagrangian":
                if lagrangian is not None:
                    raise ModelSyntaxError(f"lagrangian already given on line "
                                           f"{lagrangian_line}", tok.line, tok.col)
                self.pos += 1
                self.expect("sym", ":")
                lagrangian, lagrangian_line = self.parse_expr(), tok.line
            else:
                raise self.error("unknown declaration")
        if lagrangian is None:
            raise ModelSyntaxError("model has no lagrangian", 1, 1)
        return ModelDocument(name, tuple(declarations), tuple(params),
                             tuple(tensors), lagrangian)

    def parse_decl_items(self, parity):
        items = []
        while True:
            tok = self.current
            if tok.kind != "name" or tok.text in (
                    "even", "odd", "param", "tensor", "lagrangian"):
                break
            self.pos += 1
            size = None
            if self.accept("sym", "["):
                size = int(self.expect("int", what="family size").text)
                self.expect("sym", "]")
            items.append(CoordDecl(tok.text, parity, size))
        return items

    def parse_tensor(self):
        name = self.expect("name", what="tensor name").text
        self.expect("sym", "[")
        rows = int(self.expect("int", what="row count").text)
        self.expect("sym", ",")
        cols = int(self.expect("int", what="column count").text)
        self.expect("sym", "]")
        self.expect("sym", "=")
        self.expect("sym", "[")
        entries, misfit = [], None
        while True:
            start = self.expect("sym", "[")
            row = [self.parse_expr()]
            while self.accept("sym", ","):
                row.append(self.parse_expr())
            self.expect("sym", "]")
            if misfit is None and (len(entries) == rows or len(row) != cols):
                misfit = start  # the first row that does not fit
            entries.append(tuple(row))
            if not self.accept("sym", ","):
                break
        end = self.expect("sym", "]")
        if misfit or len(entries) < rows:
            at = misfit or end  # too few rows: the ']' that ends them
            raise ModelSyntaxError(
                f"tensor {name} shape does not match [{rows},{cols}]", at.line, at.col)
        return TensorDecl(name, rows, cols, tuple(entries))

    # ---------------------------------------------------------- expressions

    def parse_expr(self):
        terms = [(1, self.parse_term())]
        while True:
            if self.accept("sym", "+"):
                terms.append((1, self.parse_term()))
            elif self.accept("sym", "-"):
                terms.append((-1, self.parse_term()))
            else:
                return terms[0][1] if len(terms) == 1 else Sum(tuple(terms))

    def parse_term(self):
        factors = [self.parse_unary()]
        while self.accept("sym", "*"):
            factors.append(self.parse_unary())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_unary(self):
        # each parenthesis, unary minus and sum() adds one call of this
        # method to the stack, so depth is the nesting depth
        if self.depth > MAX_NESTING:
            tok = self.current
            raise ModelSyntaxError(
                f"expression nested more than {MAX_NESTING} levels deep",
                tok.line, tok.col)
        self.depth += 1
        if self.accept("sym", "-"):
            node = Neg(self.parse_unary())
        else:
            node = self.parse_atom()
        self.depth -= 1
        return node

    def parse_atom(self):
        tok = self.current
        if tok.kind == "int":
            self.pos += 1
            value = Fraction(int(tok.text))
            if self.accept("sym", "/"):
                den = self.expect("int", what="denominator")
                if not int(den.text):
                    raise ModelSyntaxError("division by zero", den.line, den.col)
                value = value / int(den.text)
            return Num(value)
        if self.accept("sym", "("):
            node = self.parse_expr()
            self.expect("sym", ")")
            return node
        if tok.kind != "name":
            raise self.error("expected an expression")
        if tok.text == "i":
            self.pos += 1
            return Imag()
        if tok.text == "sum":
            self.pos += 1
            self.expect("sym", "(")
            var = self.expect("name", what="index variable").text
            self.expect("name", "in")
            lo = int(self.expect("int", what="range start").text)
            self.expect("sym", "..")
            hi = int(self.expect("int", what="range end").text)
            self.expect("sym", ",")
            body = self.parse_expr()
            self.expect("sym", ")")
            return SumExpr(var, lo, hi, body)
        if tok.text == "dot":
            self.pos += 1
            self.expect("sym", "(")
            name = self.expect("name", what="coordinate name").text
            inner = self.parse_indices()
            self.expect("sym", ")")
            outer_at = self.current
            outer = self.parse_indices()
            if inner and outer:
                raise self.error("dot() indexed both inside and outside", outer_at)
            return Dot(name, inner or outer)
        self.pos += 1
        return Ref(tok.text, self.parse_indices())

    def parse_indices(self):
        if not self.accept("sym", "["):
            return ()
        indices = []
        while True:
            tok = self.current
            if tok.kind == "int":
                indices.append(int(tok.text))
                self.pos += 1
            elif tok.kind == "name":
                indices.append(tok.text)
                self.pos += 1
            else:
                raise self.error("expected an index")
            if not self.accept("sym", ","):
                break
        self.expect("sym", "]")
        return tuple(indices)


def parse_model(text):
    """Parse model source into a ModelDocument; errors carry line/column."""
    return _Parser(tokenize(text)).parse_document()


# ------------------------------------------------------------ pretty print

def _index_str(indices):
    if not indices:
        return ""
    return "[" + ",".join(str(ix) for ix in indices) + "]"


def expr_source(node, prec=0):
    """Deterministic source form; parse(expr_source(x)) == x."""
    if isinstance(node, Num):
        value = node.value
        text = str(value)
        return text if prec < 3 or value.denominator == 1 else f"({text})"
    if isinstance(node, Imag):
        return "i"
    if isinstance(node, Ref):
        return node.name + _index_str(node.indices)
    if isinstance(node, Dot):
        return f"dot({node.name})" + _index_str(node.indices)
    if isinstance(node, SumExpr):
        return f"sum({node.var} in {node.lo}..{node.hi}, {expr_source(node.body)})"
    if isinstance(node, Sum):
        # every term at precedence 2, so a Sum written in parentheses keeps
        # them, at the head as anywhere else
        (_, head), *rest = node.terms
        text = expr_source(head, 2) + "".join(
            f" {'+' if sign > 0 else '-'} {expr_source(term, 2)}"
            for sign, term in rest)
        return f"({text})" if prec >= 2 else text
    if isinstance(node, Product):
        head, *rest = node.factors
        text = expr_source(head, 3 if isinstance(head, Product) else 2) + "".join(
            f"*{expr_source(factor, 3)}" for factor in rest)
        return f"({text})" if prec >= 3 else text
    if isinstance(node, Neg):
        return f"-{expr_source(node.item, 3)}"
    raise TypeError(f"not an expression node: {node!r}")


def to_source(doc):
    """Regenerate model source; parsing it yields an equal document."""
    lines = [f"model {doc.name}"]
    for decl in doc.declarations:
        suffix = f"[{decl.size}]" if decl.size is not None else ""
        lines.append(f"{decl.parity} {decl.name}{suffix}")
    for param in doc.params:
        lines.append(f"param {param.name}: {param.parity}")
    for tensor in doc.tensors:
        rows = ",".join(
            "[" + ",".join(expr_source(entry) for entry in row) + "]"
            for row in tensor.entries)
        lines.append(f"tensor {tensor.name}[{tensor.rows},{tensor.cols}] = [{rows}]")
    lines.append(f"lagrangian: {expr_source(doc.lagrangian)}")
    return "\n".join(lines) + "\n"

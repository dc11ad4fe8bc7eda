"""Formal rational expressions: AST, parser, printer, involution, complexity.

An expression is an ordered rooted tree over complex scalars, variables
``x1..xd``, binary ``+`` and ``*``, and unary inverse, stored as a DAG of
hash-consed nodes: structurally equal subtrees are one object, so nodes
compare and hash by identity (a scalar's -0.0 parts are folded to 0.0).  The
printer, the involution and the complexity measure visit each distinct node
once, by one iterative `postorder` walk.  The adjoint is not a node kind:
``adj(e)`` in the surface syntax is eagerly pushed to the leaves (products
reversed, scalars conjugated, variables fixed).
"""

from __future__ import annotations

import cmath
import re
import struct
import weakref
from collections import Counter
from dataclasses import dataclass

__all__ = [
    "Expr",
    "ExprMatrix",
    "ParseError",
    "scalar",
    "var",
    "add",
    "mul",
    "inv",
    "sub",
    "neg",
    "involution",
    "postorder",
    "variables_used",
    "tau",
    "parse",
    "to_str",
]

SCALAR = "scalar"
VAR = "var"
ADD = "add"
MUL = "mul"
INV = "inv"


class Expr:
    """Immutable node of a formal rational expression DAG.

    Nodes are hash-consed: `_node` returns the live node with the same kind,
    children (by identity), scalar value (by bit pattern, signed zeros
    folded) and index, so structurally equal expressions built in one process
    are one object.  Equality and the hash are those of identity.
    """

    __slots__ = ("kind", "children", "value", "index", "__weakref__")

    def __new__(cls, *args, **kwargs):
        raise TypeError("build nodes with scalar, var, add, mul and inv")

    def __setattr__(self, name, val):
        raise AttributeError("expression nodes are immutable")

    def __reduce__(self):
        return _node, (self.kind, self.children, self.value, self.index)

    def __repr__(self):
        return f"Expr({to_str(self)!r})"

    def __str__(self):
        return to_str(self)


# every live node, by its key; an entry goes when its node is collected
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _node(kind: str, children: tuple[Expr, ...] = (), value: complex = 0j,
          index: int = 0) -> Expr:
    """The one node factory.  Scalars are keyed by the bits of their value
    after -0.0 is folded to 0.0, so a node's value does not depend on what
    the process built before, and NaNs with different bits are not merged."""
    if kind == SCALAR:
        value = complex(value.real + 0.0, value.imag + 0.0)
        key = (kind, struct.pack("<dd", value.real, value.imag))
    else:
        key = (kind, index, children)
    node = _NODES.get(key)
    if node is None:
        node = object.__new__(Expr)
        setattr_ = object.__setattr__
        setattr_(node, "kind", kind)
        setattr_(node, "children", children)
        setattr_(node, "value", value)
        setattr_(node, "index", index)
        _NODES[key] = node
    return node


def scalar(a) -> Expr:
    return _node(SCALAR, value=complex(a))


def var(j: int) -> Expr:
    if j < 1:
        raise ValueError("variable index must be >= 1")
    return _node(VAR, index=j)


def add(a: Expr, b: Expr) -> Expr:
    if a.kind == SCALAR and b.kind == SCALAR:
        return scalar(a.value + b.value)
    return _node(ADD, (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if a.kind == SCALAR and b.kind == SCALAR:
        return scalar(a.value * b.value)
    return _node(MUL, (a, b))


def inv(a: Expr) -> Expr:
    if a.kind == SCALAR and a.value != 0:
        return scalar(1 / a.value)
    return _node(INV, (a,))


def sub(a: Expr, b: Expr) -> Expr:
    """a - b, desugared to a + (-1)*b."""
    return add(a, mul(scalar(-1), b))


def neg(a: Expr) -> Expr:
    return mul(scalar(-1), a)


def involution(r: Expr) -> Expr:
    """Adjoint: transpose the tree left to right and conjugate scalars.
    Iterative, visiting each distinct node once."""
    adj: dict[Expr, Expr] = {}
    for e in postorder(r):
        if e.kind == SCALAR:
            out = scalar(e.value.conjugate())
        elif e.kind == VAR:
            out = e
        elif e.kind == ADD:
            out = add(*(adj[c] for c in e.children))
        elif e.kind == MUL:
            a, b = e.children
            # scalars commute; keeping them in place makes s* the node s for
            # hermitian s built with real scalar coefficients
            if a.kind == SCALAR or b.kind == SCALAR:
                out = mul(adj[a], adj[b])
            else:
                out = mul(adj[b], adj[a])
        else:
            out = _node(INV, (adj[e.children[0]],))
        adj[e] = out
    return adj[r]


def postorder(*roots: Expr, skip=()) -> list[Expr]:
    """Every distinct node under the roots, once, children before parents,
    in the order a left-to-right recursive walk of the expanded trees first
    finishes them.  Iterative, so depth is unbounded.  Nodes in `skip`, and
    nodes reached only through them, are left out."""
    seen: set[Expr] = set()
    out: list[Expr] = []
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        e, expanded = stack.pop()
        if expanded:
            out.append(e)
        elif e not in seen and e not in skip:
            seen.add(e)
            stack.append((e, True))
            stack.extend((c, False) for c in reversed(e.children))
    return out


def variables_used(r: Expr) -> set[int]:
    return {e.index for e in postorder(r) if e.kind == VAR}


def tau(r: Expr) -> int:
    """Tree-recursive complexity: additive on products, doubled by inverses."""
    t: dict[Expr, int] = {}
    for e in postorder(r):
        c = [t[q] for q in e.children]
        if e.kind == SCALAR:
            t[e] = 0
        elif e.kind == VAR:
            t[e] = 1
        elif e.kind == ADD:
            t[e] = max(c)
        elif e.kind == MUL:
            t[e] = c[0] + c[1]
        else:
            t[e] = 2 * c[0]
    return t[r]


@dataclass(frozen=True)
class ExprMatrix:
    """Rectangular matrix of expressions, row-major."""

    rows: int
    cols: int
    entries: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count must equal rows*cols")

    def at(self, i: int, j: int) -> Expr:
        return self.entries[i * self.cols + j]

    def adjoint(self) -> "ExprMatrix":
        ent = [involution(self.at(i, j)) for j in range(self.cols) for i in range(self.rows)]
        return ExprMatrix(self.cols, self.rows, tuple(ent))


# ---------------------------------------------------------------------------
# parsing

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


class _Parser:
    """Recursive descent over the grammar:

    expr   := term (('+'|'-') term)*
    term   := ('-')? factor ('*' factor)*
    factor := atom | 'inv(' expr ')' | 'adj(' expr ')'
    atom   := number | 'i' | 'x'index | '(' expr ')'
    """

    def __init__(self, text: str, d: int, split_adjoint: bool = False):
        self.text = text
        self.d = d
        self.split_adjoint = split_adjoint
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)
        return e

    def expr(self) -> Expr:
        start = self.pos
        e = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                e = self._finite(add(e, self.term()), start)
            elif c == "-":
                self.pos += 1
                e = self._finite(sub(e, self.term()), start)
            else:
                return e

    def term(self) -> Expr:
        start = self.pos
        negated = False
        if self.peek() == "-":
            self.pos += 1
            negated = True
        e = self.factor()
        while self.peek() == "*":
            self.pos += 1
            e = self._finite(mul(e, self.factor()), start)
        return neg(e) if negated else e

    def factor(self) -> Expr:
        self.skip_ws()
        start = self.pos
        if self.text.startswith("inv(", self.pos):
            self.pos += 4
            e = self.expr()
            self.expect(")")
            return self._finite(inv(e), start)
        if self.text.startswith("adj(", self.pos):
            self.pos += 4
            e = self.expr()
            self.expect(")")
            return involution(e)
        return self.atom()

    def atom(self) -> Expr:
        c = self.peek()
        start = self.pos
        if c == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if c == "i" and not self.text.startswith("inv(", self.pos):
            self.pos += 1
            return scalar(1j)
        if c == "x":
            self.pos += 1
            j = self._integer("variable index")
            if j < 1 or j > self.d:
                raise ParseError(f"variable index {j} out of range 1..{self.d}", start)
            if self.split_adjoint:
                # x_j = a_j + i b_j over 2d hermitian variables
                return add(var(j), mul(scalar(1j), var(self.d + j)))
            return var(j)
        if c.isdigit() or c == ".":
            return self._finite(scalar(self._number()), start)
        raise ParseError("expected atom", self.pos)

    def _integer(self, what: str) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        return int(self.text[start:self.pos])

    def _number(self) -> float:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            save = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = save
        try:
            return float(self.text[start:self.pos])
        except ValueError:
            raise ParseError("malformed number", start) from None

    def _finite(self, e: Expr, start: int) -> Expr:
        """e, unless it is a numeral or a folded constant that is not finite."""
        if e.kind == SCALAR and not cmath.isfinite(e.value):
            raise ParseError("constant is not finite", start)
        return e


def parse(text: str, d: int | None = None, split_adjoint: bool = False) -> Expr:
    """Parse an expression over variables x1..xd (d inferred when omitted).

    With ``split_adjoint`` each variable is replaced by ``x_j + i*x_{d+j}``
    over 2d hermitian variables, so that ``adj()`` acts as the formal adjoint
    of a non-hermitian variable.  A numeral, or a constant folded from
    numerals, that is not finite is a ParseError.
    """
    if d is None:
        found = re.findall(r"x(\d+)", text)
        d = max((int(s) for s in found), default=0)
    parser = _Parser(text, d, split_adjoint)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.pos) from None


# ---------------------------------------------------------------------------
# printing

def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _fmt_scalar(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return _fmt_real(re) if re >= 0 else f"({_fmt_real(re)})"
    if z == 1j:
        return "i"
    if re == 0:
        return f"({_fmt_real(im)}*i)" if im >= 0 else f"(-{_fmt_real(-im)}*i)"
    op = "+" if im >= 0 else "-"
    return f"({_fmt_real(re)}{op}{_fmt_real(abs(im))}*i)"


def to_str(r: Expr) -> str:
    """Print r so that parse(to_str(r)) is r.

    A node's text is kept until the last text made from it is printed, so a
    long sum chain does not hold every partial sum's text at once.
    """
    order = postorder(r)
    ops = {e: _operands(e) for e in order}
    uses = Counter(q for e in order for q in ops[e])
    s: dict[Expr, str] = {}

    def paren_if(e: Expr, kinds: tuple[str, ...]) -> str:
        return f"({s[e]})" if e.kind in kinds else s[e]

    for e in order:
        if e.kind == SCALAR:
            out = _fmt_scalar(e.value)
        elif e.kind == VAR:
            out = f"x{e.index}"
        elif e.kind == INV:
            out = f"inv({s[e.children[0]]})"
        elif e.kind == ADD:
            a, b = ops[e]
            # a + (-1)*c prints as subtraction a-c
            op = "+" if b is e.children[1] else "-"
            out = f"{s[a]}{op}{paren_if(b, (ADD,))}"
        else:
            a, b = e.children
            out = f"{paren_if(a, (ADD,))}*{paren_if(b, (ADD, MUL))}"
        s[e] = out
        for q in ops[e]:
            uses[q] -= 1
            if not uses[q]:
                del s[q]
    return s[r]


def _operands(e: Expr) -> tuple[Expr, ...]:
    """The nodes whose text the text of e is made from: its children, except
    that a + (-1)*c is printed from a and c when that round-trips."""
    if e.kind == ADD:
        a, b = e.children
        if b.kind == MUL and _is_minus_one(b.children[0]):
            c = b.children[1]
            if not (c.kind == MUL and _is_minus_one(c.children[0])):
                return a, c
    return e.children


def _is_minus_one(e: Expr) -> bool:
    return e.kind == SCALAR and e.value == -1

"""Metric definition files: parsing, evaluation over array jets, validation.

A metric file declares an n-dimensional chart with a symmetric matrix of
closed-form entries a_ij(x), a 1-form b_i(x), and a per-coordinate domain
box.  Line format (``#`` starts a comment)::

    dim = 3
    domain x1 = [0.5, 2]        # optional, default [-1, 1]
    a 1 1 = x1^2
    a 1 2 = sin(x2) * 0.1
    b 3 = 0.4

Each line is tokenized once and read to its end by one grammar::

    line   := "dim" "=" int | "domain" coord "=" "[" signed "," signed "]"
            | "a" int int "=" expr | "b" int "=" expr
    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" signed)?
    base   := number | coord | "(" expr ")" | "-" base | func "(" expr ")"
    signed := ("+"|"-")? number
    coord  := "x" digits
    func   := "sin" | "cos" | "exp" | "log" | "sqrt"

Digits are ASCII 0-9 only.  Exponents are literal (possibly signed,
possibly fractional) numbers, so every expression is an explicit
rational/power/trig form; there are no conditionals and no user-defined
functions.  An ``a``, ``b`` or ``domain`` line may repeat an earlier
line's entry with the same value (``a i j`` and ``a j i`` are one entry);
with another value it is an error.

Limits: ``dim`` is at most ``MAX_DIM``; an expression nests at most
``MAX_DEPTH`` levels, where each parenthesis, function call and unary minus
is a level and so is each operator of a chain such as ``1 + x1 + x1``; every
number, domain bounds and the width of a domain included, must be finite.
A file outside the grammar or these limits is a ``MetricFileError`` with its
line number and, where one token is at fault, that token's column, counted
from the start of the line.

Evaluation is one walk of the expression tree over ``ArrayJet``s at points
of any leading shape S, one point (S = ()) or a batch, as numpy broadcasts.
The points are lifted either to values alone, with no derivative directions
(``a_values``/``b_values``, which ``validate_spec`` runs on all its sample
points at once), or to exact first and second derivatives in the n chart
directions (``chart_jets``: ``riemann.passes`` walks a chunk of a run's
points at once, in ``_pass_fields``, and hands ``build_bundle`` each
point's slice).  Every operation of the walk is elementwise over S, so a
point's entries in a batch are the bits its own walk gives.  A domain
error, an overflow or any other non-finite intermediate is a
``JetError``; a batch raises it exactly when one of its points would.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .jets import ArrayJet, JetError

__all__ = [
    "MetricFileError",
    "MetricSpec",
    "ValidationReport",
    "parse_metric",
    "validate_spec",
]

_FUNCS = ("sin", "cos", "exp", "log", "sqrt")

MAX_DIM = 32
MAX_DEPTH = 100

# numpy error flags for an evaluation: a non-finite intermediate is an error
_RAISE = dict(over="raise", invalid="raise", divide="raise", under="ignore")


class MetricFileError(ValueError):
    """Syntax or consistency error in a metric file, with line/column info."""

    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(msg + loc)
        self.line = line
        self.col = col


# -- expression AST ----------------------------------------------------------


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    index: int  # 0-based coordinate index


class Neg(NamedTuple):
    child: object


class Bin(NamedTuple):
    op: str  # one of + - * /
    left: object
    right: object


class Pow(NamedTuple):
    base: object
    expo: float


class Fun(NamedTuple):
    name: str
    child: object


def _lift(v, env) -> ArrayJet:
    """A number as a constant jet in the directions of ``env``; a jet as it is."""
    if isinstance(v, ArrayJet):
        return v
    d = env[0].grad.shape[-1]
    return ArrayJet(v, np.zeros(d), np.zeros((d, d)))


def _walk(expr, env):
    if isinstance(expr, Const):
        return np.float64(expr.value)
    if isinstance(expr, Var):
        return env[expr.index]
    if isinstance(expr, Neg):
        return -_walk(expr.child, env)
    if isinstance(expr, Bin):
        a = _walk(expr.left, env)
        b = _walk(expr.right, env)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        return a * _lift(b, env).reciprocal()  # as the scalar jet divides, zero test included
    if isinstance(expr, Pow):
        return _lift(_walk(expr.base, env), env) ** expr.expo
    if isinstance(expr, Fun):  # every name in _FUNCS is an ArrayJet method
        return getattr(_lift(_walk(expr.child, env), env), expr.name)()
    raise TypeError(f"not an expression node: {expr!r}")


def _stack(exprs, env) -> ArrayJet:
    """The expressions over ``env`` as one ArrayJet, stacked on a last leading axis.

    The entries are walked in order with numpy's overflow, invalid and
    divide-by-zero flags raised, so the first entry with a non-finite value
    raises a ``JetError``, not a warning and a NaN.  A constant subtree is a
    number, lifted to a jet only where a jet operation needs one; a constant
    entry (the implicit zeros included) keeps the stack's zero derivatives.
    """
    shape, d, m = env[0].val.shape, env[0].grad.shape[-1], len(exprs)
    out = ArrayJet(np.zeros(shape + (m,)), np.zeros(shape + (m, d)), np.zeros(shape + (m, d, d)))
    try:
        with np.errstate(**_RAISE):
            for k, expr in enumerate(exprs):
                v = expr.value if isinstance(expr, Const) else _walk(expr, env)
                if isinstance(v, ArrayJet):
                    out.val[..., k], out.grad[..., k, :], out.hess[..., k, :, :] = v.val, v.grad, v.hess
                else:  # a constant broadcasts over the points
                    out.val[..., k] = v
    except FloatingPointError as exc:
        raise JetError(str(exc)) from None
    return out


# -- tokenizer / recursive-descent parser ------------------------------------


# Digits are ASCII only, [0-9] and not \d: '٢' and '１' are digits to Unicode, not to a metric file.
_SPACE = re.compile(r"\s*")  # any Unicode whitespace separates tokens
_TOKEN = re.compile(
    r"(?P<num>(?:[0-9]|\.[0-9])[0-9.]*(?:[eE][+-]?[0-9]+)?)|(?P<name>[^\W\d_]\w*)|(?P<op>[-+*/^()=\[\],])|#|\Z"
)
_COORDINATE = re.compile(r"x[0-9]+")


def _tokenize(text: str, line_no: int):
    """The line's tokens ``(kind, text, column)`` up to a comment, then ``("end", "", column)``.

    A token keeps its source text; a ``num`` token's text is a finite float.
    """
    toks, i = [], 0
    while True:
        i = _SPACE.match(text, i).end()
        m = _TOKEN.match(text, i)
        if m is None:
            raise MetricFileError(f"unexpected character {text[i]!r}", line_no, i + 1)
        kind, tok = m.lastgroup, m.group()
        if kind is None:
            toks.append(("end", "", i + 1))
            return toks
        if kind == "num":
            try:
                val = float(tok)
            except ValueError:
                raise MetricFileError(f"bad number {tok!r}", line_no, i + 1)
            if not math.isfinite(val):
                raise MetricFileError(f"number {tok!r} is not finite", line_no, i + 1)
        toks.append((tok if kind == "op" else kind, tok, i + 1))
        i = m.end()


def _shown(tok) -> str:
    """A token as an error message names it: its source text, or the end of the line."""
    return "end of line" if tok[0] == "end" else repr(tok[1])


class _Parser:
    """One line's tokens, read by the grammar of the module docstring."""

    def __init__(self, toks, line_no: int, dim: int | None):
        self.toks = toks
        self.pos = 0
        self.line = line_no
        self.dim = dim
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise MetricFileError(f"expected {kind!r}, found {_shown(tok)}", self.line, tok[2])
        self.pos += 1
        return tok

    def directive(self):
        """The line, read to its end, as ``(key, value)``: ``(("dim",), n)``,
        ``(("domain", k), (lo, hi))``, ``(("a", i, j), expr)`` with i <= j or
        ``(("b", i), expr)``, with 0-based indices.
        """
        _, head, col = self.take("name")
        if head == "dim":
            if self.dim is not None:
                raise MetricFileError("duplicate dim", self.line, col)
            self.take("=")
            key, value = ("dim",), self.integer("dim", 2, MAX_DIM)
        elif self.dim is None:
            raise MetricFileError("dim must be declared first", self.line, col)
        elif head == "domain":
            k = self.coordinate()
            self.take("=")
            bracket = self.take("[")[2]
            lo = self.signed()
            self.take(",")
            hi = self.signed()
            self.take("]")
            if not lo < hi:
                raise MetricFileError("domain must have lo < hi", self.line, bracket)
            if not math.isfinite(hi - lo):
                raise MetricFileError("domain width hi - lo must be finite", self.line, bracket)
            key, value = ("domain", k), (lo, hi)
        elif head in ("a", "b"):
            idx = sorted(self.integer("index", 1, self.dim) - 1 for _ in range(2 if head == "a" else 1))
            self.take("=")
            key, value = (head, *idx), self.expression()
        else:
            raise MetricFileError(f"unknown directive {head!r}", self.line, col)
        self.take("end")
        return key, value

    def integer(self, what: str, lo: int, hi: int) -> int:
        """A number token with an integral value in lo..hi."""
        _, text, col = self.take("num")
        val = float(text)
        if val != int(val) or not lo <= val <= hi:
            raise MetricFileError(f"{what} must be an integer in {lo}..{hi}, got {text}", self.line, col)
        return int(val)

    def signed(self) -> float:
        """A number with an optional leading '+' or '-': an exponent or a domain bound."""
        negative = self.peek()[0] in "+-" and self.take()[0] == "-"
        val = float(self.take("num")[1])
        return -val if negative else val

    def coordinate(self) -> int:
        """A name token ``x<k>`` as the 0-based index k - 1."""
        _, val, col = self.take("name")
        if not _COORDINATE.fullmatch(val):
            raise MetricFileError(f"unknown name {val!r}", self.line, col)
        # int() refuses a long enough digit string, which is out of range anyway
        digits = val[1:].lstrip("0")
        k = int(digits) if 0 < len(digits) <= len(str(MAX_DIM)) else 0
        if not 1 <= k <= self.dim:
            raise MetricFileError(f"variable {val} out of range 1..{self.dim}", self.line, col)
        return k - 1

    def expression(self):
        """An ``expr`` whose tree is at most ``MAX_DEPTH`` levels high."""
        col = self.peek()[2]
        node = self.expr()
        # a long operator chain is deep without any nesting in the text
        if _height(node) > MAX_DEPTH:
            raise MetricFileError(f"expression nested deeper than {MAX_DEPTH} levels", self.line, col)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            node = Bin(op, node, self.factor())
        return node

    def factor(self):
        node = self.base()
        if self.peek()[0] == "^":
            self.take()
            return Pow(node, self.signed())
        return node

    def nested(self, parse):
        """``parse()`` one level deeper: inside a parenthesis, a call or a unary minus."""
        if self.depth == MAX_DEPTH:
            col = self.peek()[2]
            raise MetricFileError(f"expression nested deeper than {MAX_DEPTH} levels", self.line, col)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def base(self):
        kind, val, col = self.peek()
        if kind == "num":
            self.take()
            return Const(float(val))
        if kind == "-":
            self.take()
            return Neg(self.nested(self.base))
        if kind == "(":
            self.take()
            node = self.nested(self.expr)
            self.take(")")
            return node
        if kind == "name" and val in _FUNCS:
            self.take()
            self.take("(")
            node = self.nested(self.expr)
            self.take(")")
            return Fun(val, node)
        if kind == "name":
            return Var(self.coordinate())
        raise MetricFileError(f"unexpected {_shown(self.peek())}", self.line, col)


def _height(expr) -> int:
    """Levels of the expression tree, counted without recursion."""
    height, stack = 0, [(expr, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        if isinstance(node, Bin):
            stack += [(node.left, level + 1), (node.right, level + 1)]
        elif isinstance(node, (Neg, Fun)):
            stack.append((node.child, level + 1))
        elif isinstance(node, Pow):
            stack.append((node.base, level + 1))
    return height


# -- metric spec --------------------------------------------------------------


@dataclass
class MetricSpec:
    """Parsed analytic metric: symmetric a_ij(x), 1-form b_i(x), domain box."""

    dim: int
    a_entries: dict = field(default_factory=dict)  # (i, j) with i <= j -> AST
    b_entries: dict = field(default_factory=dict)  # i -> AST
    domain: list = field(default_factory=list)  # per-coordinate (lo, hi)
    name: str = "metric"

    _ZERO = Const(0.0)

    def a_expr(self, i: int, j: int):
        return self.a_entries.get((min(i, j), max(i, j)), self._ZERO)

    def b_expr(self, i: int):
        return self.b_entries.get(i, self._ZERO)

    def chart_jets(self, x) -> list[ArrayJet]:
        """Points x of shape S + (n,) as jets of shape S, x^k seeded in direction k of n.

        The derivatives are the same at every point, so they are one unit
        gradient and one zero Hessian that broadcast over S.
        """
        x = np.asarray(x, dtype=float)
        eye, hess = np.eye(self.dim), np.zeros((self.dim, self.dim))
        return [ArrayJet(x[..., k], eye[k], hess) for k in range(self.dim)]

    def _points(self, x) -> list[ArrayJet]:
        """Points x of shape S + (n,) as value-only jets (no directions) of shape S."""
        x = np.asarray(x, dtype=float)
        grad, hess = np.zeros(x.shape[:-1] + (0,)), np.zeros(x.shape[:-1] + (0, 0))
        return [ArrayJet(x[..., k], grad, hess) for k in range(self.dim)]

    def a_jet(self, env: list[ArrayJet]) -> ArrayJet:
        """a_ij over ``env``, shape S + (n, n); each unordered pair is evaluated once and mirrored."""
        n = self.dim
        iu, ju = np.triu_indices(n)
        upper = _stack([self.a_expr(i, j) for i, j in zip(iu, ju)], env)
        table = np.empty((n, n), dtype=np.intp)
        table[iu, ju] = table[ju, iu] = np.arange(iu.size)
        return ArrayJet(upper.val.take(table, -1), upper.grad.take(table, -2), upper.hess.take(table, -3))

    def b_jet(self, env: list[ArrayJet]) -> ArrayJet:
        """b_i over ``env``, shape S + (n,)."""
        return _stack([self.b_expr(i) for i in range(self.dim)], env)

    def a_values(self, x) -> np.ndarray:
        """a(x) at points x of shape S + (n,), shape S + (n, n)."""
        return self.a_jet(self._points(x)).val

    def b_values(self, x) -> np.ndarray:
        """b(x) at points x of shape S + (n,), shape S + (n,)."""
        return self.b_jet(self._points(x)).val


def parse_metric(text: str, name: str = "metric") -> MetricSpec:
    """Parse a metric definition file into a MetricSpec, one ``_Parser.directive`` per line.

    An entry of ``a``, ``b`` or ``domain`` set twice must have the same value both times.
    """
    dim = None
    entries: dict = {}  # key -> (value, line of its first assignment)
    for line_no, line in enumerate(text.splitlines(), start=1):
        toks = _tokenize(line, line_no)
        if toks[0][0] == "end":
            continue
        key, value = _Parser(toks, line_no, dim).directive()
        if key == ("dim",):
            dim = value
            continue
        first, first_line = entries.setdefault(key, (value, line_no))
        # repr tells the node types apart, which == on the tuples does not: Var(0) == Const(0.0)
        if repr(first) != repr(value):
            raise MetricFileError(f"conflicting duplicate of line {first_line}", line_no, toks[0][2])

    if dim is None:
        raise MetricFileError("missing dim")
    by_kind = {"a": {}, "b": {}, "domain": {}}
    for (kind, *idx), (value, _) in entries.items():
        by_kind[kind][tuple(idx) if kind == "a" else idx[0]] = value
    domain = [by_kind["domain"].get(k, (-1.0, 1.0)) for k in range(dim)]
    return MetricSpec(dim=dim, a_entries=by_kind["a"], b_entries=by_kind["b"], domain=domain, name=name)


# -- validation ---------------------------------------------------------------


class ValidationReport(NamedTuple):
    spec_name: str
    samples: int
    violations: list

    @property
    def valid(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.valid:
            return f"{self.spec_name}: valid at {self.samples} sampled points"
        lines = [f"{self.spec_name}: {len(self.violations)} violation(s)"]
        for x, kind, detail in self.violations[:10]:
            lines.append(f"  at x={np.array2string(np.asarray(x), precision=4)}: {kind} ({detail})")
        if len(self.violations) > 10:
            lines.append(f"  ... {len(self.violations) - 10} more")
        return "\n".join(lines)


def sample_domain(spec: MetricSpec, count: int, rng, shrink: float = 0.0) -> np.ndarray:
    """Uniform samples from the domain box, optionally shrunk per side."""
    lo = np.array([d[0] for d in spec.domain])
    hi = np.array([d[1] for d in spec.domain])
    margin = shrink * (hi - lo)
    return rng.uniform(lo + margin, hi - margin, size=(count, spec.dim))


def validate_spec(spec: MetricSpec, samples: int = 200, seed: int = 0) -> ValidationReport:
    """Check positive-definiteness of a(x) and b^2(x) < 1/4 at sampled points.

    The 1/4 bound is the validity condition for the slope-type metric
    F = alpha^2/(alpha - beta): it needs |beta|_alpha < 1/2 pointwise.
    A component that cannot be evaluated at a sampled point (log or sqrt of
    a non-positive value, division by zero, overflow) is a violation too.
    Violations are reported as data, not raised, one per point at most.
    All points are evaluated, factored and solved as one batch; only when
    the batch fails are they taken one at a time, to find where.
    """
    rng = np.random.default_rng(seed)
    pts = sample_domain(spec, samples, rng)
    failed: dict[int, str] = {}
    try:
        a, b = spec.a_values(pts), spec.b_values(pts)
    except JetError:
        a, b = np.zeros((samples, spec.dim, spec.dim)), np.zeros((samples, spec.dim))
        for p, x in enumerate(pts):
            try:
                a[p], b[p] = spec.a_values(x), spec.b_values(x)
            except JetError as exc:
                failed[p] = str(exc)
    if not failed:
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            pass  # some a(x) is not positive definite: find which, point by point
        else:
            bsq = np.einsum("pi,pi->p", b, np.linalg.solve(a, b[..., None])[..., 0])
            violations = [(x, "b^2 >= 1/4", f"b^2 = {v:.6g}") for x, v in zip(pts, bsq) if v >= 0.25]
            return ValidationReport(spec.name, samples, violations)
    violations = []
    for p, x in enumerate(pts):
        if p in failed:
            violations.append((x, "evaluation failed", failed[p]))
            continue
        try:
            np.linalg.cholesky(a[p])
        except np.linalg.LinAlgError:
            violations.append((x, "not positive definite", f"min eig {np.linalg.eigvalsh(a[p])[0]:.3g}"))
            continue
        bsq = float(b[p] @ np.linalg.solve(a[p], b[p]))
        if bsq >= 0.25:
            violations.append((x, "b^2 >= 1/4", f"b^2 = {bsq:.6g}"))
    return ValidationReport(spec.name, samples, violations)

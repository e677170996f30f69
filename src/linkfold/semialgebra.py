"""Polynomial constraint systems for configuration spaces.

emit_conf describes the length bands alone; emit_nconf adds, for every
bar pair, a disjunction of strict separations weakened by allowance
clauses that permit contact exactly at endpoints merged through
collapsed short paths. Systems serialize to SMT-LIB2 (QF_NRA) and can
be evaluated exactly on rational assignments.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import LinkageError
from .linkage import Linkage

Monomial = tuple[str, ...]


@dataclass(frozen=True)
class Poly:
    """Multivariate polynomial with exact rational coefficients, as data.

    _norm builds it from a monomial -> coefficient dict: terms sorted by
    monomial (a sorted tuple of variable names), nonzero int or Fraction
    coefficients. Equal polynomials have equal terms and equal text.
    """

    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def _norm(data: dict[Monomial, Fraction]) -> "Poly":
        return Poly(tuple((m, c) for m, c in sorted(data.items()) if c != 0))


@dataclass(frozen=True)
class Atom:
    op: str  # "=", "<=", ">=", "<", ">" comparing poly against 0
    poly: Poly

    def __post_init__(self) -> None:
        if self.op not in ("=", "<=", ">=", "<", ">"):
            raise LinkageError(f"unknown relation {self.op!r}")


@dataclass(frozen=True)
class And:
    items: tuple

    def __init__(self, *items) -> None:
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class Or:
    items: tuple

    def __init__(self, *items) -> None:
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class Not:
    item: object


@dataclass(frozen=True)
class TaggedAssert:
    family: str
    node: object


@dataclass(frozen=True)
class ConstraintSystem:
    variables: tuple[str, ...]
    asserts: tuple[TaggedAssert, ...]


def _bilinear(terms) -> Poly:
    """Sum of c * u * v over (u, v, c) with int c, normalised.

    Terms whose monomials coincide (a vertex named twice, as when two
    bars share a joint) merge, and those that cancel drop out.
    """
    data: dict[Monomial, int] = {}
    for u, v, c in terms:
        m = (u, v) if u <= v else (v, u)
        data[m] = data.get(m, 0) + c
    return Poly._norm(data)


def _xy(vertex: str) -> tuple[str, str]:
    return f"x_{vertex}", f"y_{vertex}"


def _sq_poly(tail: str, head: str) -> Poly:
    """Squared distance |tail - head|^2."""
    xt, yt = _xy(tail)
    xh, yh = _xy(head)
    return _bilinear(
        (
            (xt, xt, 1), (xt, xh, -2), (xh, xh, 1),
            (yt, yt, 1), (yt, yh, -2), (yh, yh, 1),
        )
    )


def _orient_poly(a: str, b: str, c: str) -> Poly:
    """Cross product (b - a) x (c - a)."""
    xa, ya = _xy(a)
    xb, yb = _xy(b)
    xc, yc = _xy(c)
    return _bilinear(
        (
            (xa, yb, 1), (xa, yc, -1), (xb, yc, 1),
            (xb, ya, -1), (xc, ya, 1), (xc, yb, -1),
        )
    )


def _dot_poly(a: str, b: str, c: str, d: str) -> Poly:
    """Dot product of vectors (b - a) and (d - c)."""
    xa, ya = _xy(a)
    xb, yb = _xy(b)
    xc, yc = _xy(c)
    xd, yd = _xy(d)
    return _bilinear(
        (
            (xb, xd, 1), (xb, xc, -1), (xa, xd, -1), (xa, xc, 1),
            (yb, yd, 1), (yb, yc, -1), (ya, yd, -1), (ya, yc, 1),
        )
    )


def _coincide_node(u: str, v: str) -> And:
    """x_u = x_v and y_u = y_v."""
    if u == v:
        return And(Atom("=", Poly(())), Atom("=", Poly(())))
    (xu, yu), (xv, yv) = _xy(u), _xy(v)
    return And(
        Atom("=", Poly._norm({(xu,): 1, (xv,): -1})),
        Atom("=", Poly._norm({(yu,): 1, (yv,): -1})),
    )


def _shift(poly: Poly, value: Fraction) -> Poly:
    """poly - value, for a poly without a constant term."""
    if value == 0:
        return poly
    return Poly((((), -value),) + poly.terms)


def _variables(linkage: Linkage) -> tuple[str, ...]:
    out = []
    for v in linkage.vertices:
        out.append(f"x_{v}")
        out.append(f"y_{v}")
    return tuple(out)


def _band_asserts(linkage: Linkage, eps: Fraction, sq) -> list[TaggedAssert]:
    if eps < 0:
        raise LinkageError("negative epsilon")
    asserts: list[TaggedAssert] = []
    for e in linkage.edges:
        poly = sq(e.tail, e.head)
        if eps == 0:
            node = Atom("=", _shift(poly, e.rest_length**2))
            asserts.append(TaggedAssert(f"length:{e.id}", node))
            continue
        upper = Atom("<=", _shift(poly, (e.rest_length + eps) ** 2))
        asserts.append(TaggedAssert(f"length-upper:{e.id}", upper))
        if e.rest_length >= eps:
            lower = Atom(">=", _shift(poly, (e.rest_length - eps) ** 2))
            asserts.append(TaggedAssert(f"length-lower:{e.id}", lower))
    return asserts


def emit_conf(linkage: Linkage, epsilon) -> ConstraintSystem:
    """Length-band constraints for Conf_epsilon."""
    asserts = _band_asserts(linkage, Fraction(epsilon), _sq_poly)
    return ConstraintSystem(_variables(linkage), tuple(asserts))


class _ShortPaths:
    """Breadth-first paths through edges of rest length <= eps.

    One adjacency serves the whole emission, and one BFS parent map is
    kept per source vertex. Neighbours are visited in edge order, so
    the path to b is the one a search from a that stops at b finds.
    """

    def __init__(self, linkage: Linkage, eps: Fraction) -> None:
        adj: dict[str, list[tuple[str, str]]] = {v: [] for v in linkage.vertices}
        for e in linkage.edges:
            if e.rest_length <= eps:
                adj[e.tail].append((e.id, e.head))
                adj[e.head].append((e.id, e.tail))
        self._adj = adj
        self._parents: dict[str, dict[str, tuple[str, str]]] = {}

    def _bfs(self, a: str) -> dict[str, tuple[str, str]]:
        adj = self._adj
        prev: dict[str, tuple[str, str]] = {}
        frontier = [a]
        seen = {a}
        while frontier:
            nxt = []
            for u in frontier:
                for eid, w in adj[u]:
                    if w in seen:
                        continue
                    seen.add(w)
                    prev[w] = (u, eid)
                    nxt.append(w)
            frontier = nxt
        return prev

    def path(self, a: str, b: str) -> list[str] | None:
        """Edge ids of the path a -> b, or None when b is out of reach."""
        if a == b:
            return []
        prev = self._parents.get(a)
        if prev is None:
            prev = self._parents[a] = self._bfs(a)
        if b not in prev:
            return None
        path = []
        cur = b
        while cur != a:
            cur, eid = prev[cur]
            path.append(eid)
        path.reverse()
        return path


def emit_nconf(linkage: Linkage, epsilon) -> ConstraintSystem:
    """Length bands plus exact nontouching separation constraints."""
    eps = Fraction(epsilon)
    # caches owned by this call: each polynomial is built once per vertex
    # tuple, and every atom that needs it shares the object, which
    # serialize and eval_system then render and evaluate once
    sq = functools.cache(_sq_poly)
    orient = functools.cache(_orient_poly)
    dot = functools.cache(_dot_poly)
    asserts = _band_asserts(linkage, eps, sq)
    edges = linkage.edges
    paths = _ShortPaths(linkage, eps)

    def on_closed_segment(w: str, r: str, s: str) -> And:
        return And(Atom("=", orient(r, s, w)), Atom("<=", dot(r, w, s, w)))

    @functools.cache
    def collapsed_sum(a: str, b: str) -> Poly | None:
        """Sum of squared lengths along the short path a -> b, if any."""
        path = paths.path(a, b)
        if path is None:
            return None
        data: dict[Monomial, int] = {}
        for eid in path:
            pe = edges[linkage.edge_index(eid)]
            for m, c in sq(pe.tail, pe.head).terms:
                data[m] = data.get(m, 0) + c
        return Poly._norm(data)

    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            ei, ej = edges[i], edges[j]
            p, q = ei.tail, ei.head
            r, s = ej.tail, ej.head
            disjuncts: list[object] = []
            # strict same-side separations, both lines
            for (aa, bb), (cc, dd) in (((p, q), (r, s)), ((r, s), (p, q))):
                for op in (">", "<"):
                    disjuncts.append(
                        And(
                            Atom(op, orient(aa, bb, cc)),
                            Atom(op, orient(aa, bb, dd)),
                        )
                    )
            # axial separations along each bar's own direction
            for (aa, bb), (cc, dd) in (((p, q), (r, s)), ((r, s), (p, q))):
                disjuncts.append(
                    And(
                        Atom(">", dot(bb, cc, aa, bb)),
                        Atom(">", dot(bb, dd, aa, bb)),
                    )
                )
                disjuncts.append(
                    And(
                        Atom("<", dot(aa, cc, aa, bb)),
                        Atom("<", dot(aa, dd, aa, bb)),
                    )
                )
            # two collapsed bars may coexist at distinct points
            disjuncts.append(
                And(
                    Atom("=", sq(p, q)),
                    Atom("=", sq(r, s)),
                    Not(_coincide_node(p, r)),
                )
            )
            # allowances: touching only at endpoints merged via a
            # collapsed short path
            for a, other_i in ((p, q), (q, p)):
                for b, other_j in ((r, s), (s, r)):
                    psum = collapsed_sum(a, b)
                    if psum is None:
                        continue
                    contact_ok = Or(
                        And(
                            Not(on_closed_segment(other_i, r, s)),
                            Not(on_closed_segment(other_j, p, q)),
                        ),
                        Atom("=", sq(p, q)),
                        Atom("=", sq(r, s)),
                    )
                    disjuncts.append(And(Atom("=", psum), contact_ok))
            asserts.append(
                TaggedAssert(f"apart:{ei.id}:{ej.id}", Or(*disjuncts))
            )

    # isolated vertices carry no edge constraints; keep them off everything
    for w in linkage.vertices:
        if linkage.degree(w):
            continue
        for v in linkage.vertices:
            if v == w:
                continue
            asserts.append(
                TaggedAssert(f"apart-vertex:{w}:{v}", Not(_coincide_node(w, v)))
            )
        for e in edges:
            asserts.append(
                TaggedAssert(
                    f"clear:{w}:{e.id}",
                    Not(
                        And(
                            Atom("=", orient(e.tail, e.head, w)),
                            Atom("<", dot(e.tail, w, e.head, w)),
                        )
                    ),
                )
            )
    return ConstraintSystem(_variables(linkage), tuple(asserts))


@dataclass(frozen=True)
class EvalReport:
    ok: bool
    failures: tuple[str, ...]


# signs of a polynomial's value that satisfy "value <op> 0"
_SIGNS_OK = {
    "=": (0,),
    "<=": (-1, 0),
    ">=": (0, 1),
    "<": (-1,),
    ">": (1,),
}


def eval_system(system: ConstraintSystem, assignment) -> EvalReport:
    """Exact truth of every assert under a rational assignment.

    The assignment is scaled to integers by the LCM D of its
    denominators. A polynomial of degree g is evaluated as D^g times
    its value, each term c*m weighted by D^(g - deg m), which has the
    same sign and is an integer wherever c is. Each distinct Poly
    object is evaluated at most once.
    """
    values = {k: Fraction(v) for k, v in assignment.items()}
    for name in system.variables:
        if name not in values:
            raise LinkageError(f"assignment missing variable {name!r}")
    scale = math.lcm(*(v.denominator for v in values.values()))
    ints = {k: v.numerator * (scale // v.denominator) for k, v in values.items()}
    powers = [1]
    signs: dict[int, int] = {}

    def sign_of(poly: Poly) -> int:
        s = signs.get(id(poly))
        if s is None:
            terms = poly.terms
            g = max((len(m) for m, _ in terms), default=0)
            while len(powers) <= g:
                powers.append(powers[-1] * scale)
            total = 0
            for m, c in terms:
                v = c * powers[g - len(m)]
                for name in m:
                    v *= ints[name]
                total += v
            s = signs[id(poly)] = (total > 0) - (total < 0)
        return s

    def holds(node) -> bool:
        if isinstance(node, Atom):
            return sign_of(node.poly) in _SIGNS_OK[node.op]
        if isinstance(node, And):
            return all(holds(k) for k in node.items)
        if isinstance(node, Or):
            return any(holds(k) for k in node.items)
        if isinstance(node, Not):
            return not holds(node.item)
        raise LinkageError(f"unknown node {node!r}")

    failures = tuple(ta.family for ta in system.asserts if not holds(ta.node))
    return EvalReport(not failures, failures)


_PLAIN = re.compile(r"[A-Za-z0-9_.-]+\Z")
_FAMILY_PREFIX = "; family: "


def _symbol(name: str) -> str:
    if "|" in name or "\\" in name:
        raise LinkageError(f"id {name!r} cannot appear in SMT output")
    if _PLAIN.match(name) and not name[0].isdigit():
        return name
    return f"|{name}|"


def _literal(value: Fraction) -> str:
    if value < 0:
        return f"(- {_literal(-value)})"
    if value.denominator == 1:
        return str(value.numerator)
    return f"(/ {value.numerator} {value.denominator})"


def _term_sexp(m: Monomial, c: Fraction, symbol) -> str:
    if not m:
        return _literal(c)
    if c == 1 and len(m) == 1:
        return symbol(m[0])
    factors = " ".join(symbol(v) for v in m)
    return f"(* {_literal(c)} {factors})"


def serialize(system: ConstraintSystem) -> str:
    """SMT-LIB2 text of the system, one "; family:" comment per assert.

    Each distinct symbol, term and Poly object is rendered once.
    """
    symbols: dict[str, str] = {}
    terms: dict[tuple[Monomial, Fraction], str] = {}
    polys: dict[int, str] = {}

    def symbol(name: str) -> str:
        text = symbols.get(name)
        if text is None:
            text = symbols[name] = _symbol(name)
        return text

    def poly_sexp(poly: Poly) -> str:
        parts = []
        for t in poly.terms:
            text = terms.get(t)
            if text is None:
                text = terms[t] = _term_sexp(t[0], t[1], symbol)
            parts.append(text)
        if not parts:
            return "0"
        if len(parts) == 1:
            return parts[0]
        return f"(+ {' '.join(parts)})"

    def sexp(node) -> str:
        if isinstance(node, Atom):
            poly = node.poly
            text = polys.get(id(poly))
            if text is None:
                text = polys[id(poly)] = poly_sexp(poly)
            return f"({node.op} {text} 0)"
        if isinstance(node, And):
            if not node.items:
                return "true"
            inner = " ".join(sexp(k) for k in node.items)
            return f"(and {inner})" if len(node.items) > 1 else inner
        if isinstance(node, Or):
            if not node.items:
                return "false"
            inner = " ".join(sexp(k) for k in node.items)
            return f"(or {inner})" if len(node.items) > 1 else inner
        if isinstance(node, Not):
            return f"(not {sexp(node.item)})"
        raise LinkageError(f"unknown node {node!r}")

    lines = ["(set-logic QF_NRA)", ""]
    for name in system.variables:
        lines.append(f"(declare-const {symbol(name)} Real)")
    lines.append("")
    for ta in system.asserts:
        # a line break would end the comment and turn the rest into SMT
        if "\n" in ta.family or "\r" in ta.family:
            raise LinkageError(
                f"family {ta.family!r} has a line break; such ids cannot "
                "appear in SMT output"
            )
        lines.append(_FAMILY_PREFIX + ta.family)
        lines.append(f"(assert {sexp(ta.node)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# parse_constraints refuses deeper nesting; serialize nests 12 deep at most
MAX_NESTING = 64
# a comment, a parenthesis, a |quoted| symbol, a bare word or a stray bar
_TOKEN = re.compile(r";[^\n]*|[()]|\|[^|]*\||[^\s();|]+|\|")


def _read(text: str):
    """Yield (family, expr) per top-level s-expression.

    Lists read as tuples and unsigned decimals as ints. family is the
    "; family:" comment just before expr, or "".
    """
    stack: list[list] = []
    family = ""
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
            if len(stack) > MAX_NESTING:
                raise LinkageError(f"nesting deeper than {MAX_NESTING}")
        elif tok[0] == ";":
            if not stack and tok.startswith(_FAMILY_PREFIX):
                family = tok[len(_FAMILY_PREFIX) :]
        elif tok == "|":
            raise LinkageError("unterminated quoted symbol")
        else:
            if tok == ")":
                if not stack:
                    raise LinkageError("unbalanced ')'")
                tok = tuple(stack.pop())
            elif tok.isdecimal():
                try:
                    tok = int(tok)
                except ValueError:  # more digits than int() converts
                    raise LinkageError(f"{len(tok)}-digit integer") from None
            if stack:
                stack[-1].append(tok)
            else:
                yield family, tok
                family = ""
    if stack:
        raise LinkageError("unbalanced '(': text ends inside an expression")


def _symbol_name(tok) -> str:
    # serialize quotes every symbol that starts with a digit
    if isinstance(tok, str) and not tok[0].isdigit():
        return tok[1:-1] if tok[0] == "|" else tok
    raise LinkageError(f"expected a symbol, got {tok!r}")


def _literal_value(expr) -> Fraction | int:
    if isinstance(expr, int):
        return expr
    head, *args = expr if isinstance(expr, tuple) and expr else (None,)
    if head == "-" and len(args) == 1:
        return -_literal_value(args[0])
    if head == "/" and len(args) == 2 and args[1] == 0:
        raise LinkageError(f"zero denominator in {expr!r}")
    if head == "/" and len(args) == 2 and all(type(a) is int for a in args):
        return Fraction(*args)
    raise LinkageError(f"cannot parse literal {expr!r}")


def _poly_data(expr) -> dict[Monomial, Fraction]:
    plus = isinstance(expr, tuple) and len(expr) > 1 and expr[0] == "+"
    data: dict[Monomial, Fraction] = {}
    for t in expr[1:] if plus else (expr,):
        if isinstance(t, tuple) and len(t) > 2 and t[0] == "*":
            m, c = tuple(sorted(map(_symbol_name, t[2:]))), _literal_value(t[1])
        elif isinstance(t, str):
            m, c = (_symbol_name(t),), 1
        else:
            m, c = (), _literal_value(t)
        data[m] = data.get(m, 0) + c
    return data


def _parse_node(expr, polys: dict[object, Poly]):
    if expr == "true" or expr == "false":
        return And() if expr == "true" else Or()
    head, *args = expr if isinstance(expr, tuple) and expr else (None,)
    if head in _SIGNS_OK and len(args) == 2 and args[1] == 0:
        poly = polys.get(args[0])
        if poly is None:
            poly = polys[args[0]] = Poly._norm(_poly_data(args[0]))
        return Atom(head, poly)
    if head == "and" or head == "or":
        items = (_parse_node(a, polys) for a in args)
        return And(*items) if head == "and" else Or(*items)
    if head == "not" and len(args) == 1:
        return Not(_parse_node(args[0], polys))
    raise LinkageError(f"cannot parse node {expr!r}")


def parse_constraints(text: str) -> ConstraintSystem:
    """Read back a serialized system; inverse of serialize on its output.

    Atoms are (op polynomial 0), polynomials 0, one term or (+ term...),
    terms a literal, a symbol or (* literal symbol...), and literals an
    int, (- literal) or (/ int int); anything else raises LinkageError.
    Atoms with the same polynomial text share one Poly object.
    """
    variables: list[str] = []
    asserts: list[TaggedAssert] = []
    polys: dict[object, Poly] = {}
    for family, expr in _read(text):
        head = expr[0] if isinstance(expr, tuple) and expr else None
        if head == "declare-const" and len(expr) == 3:
            variables.append(_symbol_name(expr[1]))
        elif head == "assert" and len(expr) == 2:
            asserts.append(TaggedAssert(family, _parse_node(expr[1], polys)))
        elif head in ("declare-const", "assert"):
            raise LinkageError(f"cannot parse {expr!r}")
    return ConstraintSystem(tuple(variables), tuple(asserts))

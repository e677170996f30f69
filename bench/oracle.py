"""Known-answer checks, written without linkfold.

Everything here reads the program's output text with ``json`` and
``xml.etree`` and decides with exact ``Fraction`` arithmetic of its own,
so a defect in a linkfold predicate cannot hide itself from the check.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

Point = tuple[F, F]


def orient(a: Point, b: Point, c: Point) -> F:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def sqdist(a: Point, b: Point) -> F:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def strictly_inside(p: Point, a: Point, b: Point) -> bool:
    """p lies in the open segment ab."""
    return orient(a, b, p) == 0 and (p[0] - a[0]) * (p[0] - b[0]) + (p[1] - a[1]) * (p[1] - b[1]) < 0


def cross_properly(a: Point, b: Point, c: Point, d: Point) -> bool:
    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return ((o1 > 0 > o2) or (o1 < 0 < o2)) and ((o3 > 0 > o4) or (o3 < 0 < o4))


class Placed:
    """A linkfold/1 document as plain data: points, edges and extras."""

    def __init__(self, text: str) -> None:
        self.root = json.loads(text)
        self.points: dict[str, Point] = {
            v["id"]: (F(v["x"]), F(v["y"])) for v in self.root.get("vertices", []) if "x" in v
        }
        self.edges: list[tuple[str, str, str, F]] = [
            (e["id"], e["tail"], e["head"], F(e["length"])) for e in self.root.get("edges", [])
        ]
        self.epsilon = F(self.root.get("epsilon", "0"))


def touch_witness(points: dict[str, Point], edges) -> tuple | None:
    """Brute-force contact test over all pairs; None when nothing touches.

    Vertices joined by bars of realized length zero form one merged
    vertex. Distinct merged vertices must sit at distinct points, bars of
    positive realized length must not cross, overlap or coincide, and no
    point may lie inside a bar's open interior.
    """
    parent = {v: v for v in points}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    bars = []
    for eid, tail, head, _ in edges:
        a, b = points[tail], points[head]
        if a == b:
            parent[find(tail)] = find(head)
        else:
            bars.append((eid, a, b))
    owner: dict[Point, str] = {}
    for v, p in points.items():
        if p in owner and find(owner[p]) != find(v):
            return ("vertices coincide", owner[p], v)
        owner.setdefault(p, v)
    for x in range(len(bars)):
        e, a1, b1 = bars[x]
        for y in range(x + 1, len(bars)):
            f, a2, b2 = bars[y]
            if cross_properly(a1, b1, a2, b2):
                return ("bars cross", e, f)
            if {a1, b1} == {a2, b2}:
                return ("bars coincide", e, f)
    for p, v in owner.items():
        for e, a, b in bars:
            if strictly_inside(p, a, b):
                return ("vertex inside bar", v, e)
    return None


def band_violation(points: dict[str, Point], edges, eps: F) -> str | None:
    """First bar whose realized length leaves [l - eps, l + eps]."""
    for eid, tail, head, length in edges:
        d2 = sqdist(points[tail], points[head])
        if d2 > (length + eps) ** 2 or (length >= eps and d2 < (length - eps) ** 2):
            return eid
    return None


def convex_walk(pts: list[Point]) -> bool:
    """All turns of the closed walk go one way (flat turns allowed)."""
    m = len(pts)
    signs = {
        (o > 0) - (o < 0)
        for o in (orient(pts[i], pts[(i + 1) % m], pts[(i + 2) % m]) for i in range(m))
    }
    signs.discard(0)
    return len(signs) <= 1

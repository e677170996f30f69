"""Exact planar primitives over rational coordinates.

Points and vectors are pairs of Fractions, or of ints once a scan has
moved them onto a common integer lattice (``lattice``); the predicates
are generic over both. Every predicate here is exact; nothing in this
module touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key

Point = tuple[Fraction, Fraction]
Vec = tuple[Fraction, Fraction]


def pt(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def vsub(a: Point, b: Point) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def dot(a: Vec, b: Vec) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def cross(a: Vec, b: Vec) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def shoelace2(pts: list[Point] | tuple[Point, ...]) -> Fraction:
    """Twice the signed area of the closed polygon through pts."""
    total = Fraction(0)
    for a, b in zip(pts, pts[1:] + pts[:1]):
        total += cross(a, b)
    return total


def sqnorm(v: Vec) -> Fraction:
    return v[0] * v[0] + v[1] * v[1]


def sqdist(a: Point, b: Point) -> Fraction:
    return sqnorm(vsub(a, b))


def sign(x) -> int:
    return (x > 0) - (x < 0)


def orient(a: Point, b: Point, c: Point) -> Fraction:
    """Twice the signed area of triangle abc; > 0 iff c left of a->b."""
    return cross(vsub(b, a), vsub(c, a))


def on_closed_segment(p: Point, a: Point, b: Point) -> bool:
    return orient(a, b, p) == 0 and dot(vsub(p, a), vsub(p, b)) <= 0


def in_open_segment(p: Point, a: Point, b: Point) -> bool:
    return orient(a, b, p) == 0 and dot(vsub(p, a), vsub(p, b)) < 0


def properly_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff open segments ab and cd cross transversally."""
    o1 = sign(orient(a, b, c))
    o2 = sign(orient(a, b, d))
    o3 = sign(orient(c, d, a))
    o4 = sign(orient(c, d, b))
    return o1 * o2 < 0 and o3 * o4 < 0


def lattice(points) -> tuple[int, list[tuple[int, ...]]]:
    """Common denominator D of the points and their integer images D*p.

    Images come in input order. Scaling by D > 0 keeps every sign that
    orient, dot and cross give, so the predicates above answer the same
    on the images, with integer arithmetic only.
    """
    pts = list(points)
    D = math.lcm(*{c.denominator for p in pts for c in p})
    return D, [tuple(c.numerator * (D // c.denominator) for c in p) for p in pts]


def box_pairs(segments) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of segments whose closed boxes overlap.

    Pairs come in ascending order. A sort-and-sweep broad phase: the
    bounding boxes are swept by x-min with an active list pruned by
    x-max, and each survivor is tested for y-overlap, so every pair of
    overlapping boxes is listed. Boxes that only touch count as
    overlapping, and a point is the segment (p, p).
    """
    boxes = [
        (min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1]))
        for a, b in segments
    ]
    pairs = []
    active: list[int] = []
    for i in sorted(range(len(boxes)), key=lambda k: boxes[k][0]):
        x0, y0, _, y1 = boxes[i]
        active = [k for k in active if boxes[k][2] >= x0]
        for k in active:
            if boxes[k][1] <= y1 and y0 <= boxes[k][3]:
                pairs.append((k, i) if k < i else (i, k))
        active.append(i)
    pairs.sort()
    return pairs


def rot90ccw(v: Vec) -> Vec:
    return (-v[1], v[0])


def primitive_direction(v: Vec) -> tuple[int, int]:
    """Shortest integer vector with the same direction as v (v != 0)."""
    if v[0] == 0 and v[1] == 0:
        raise ValueError("zero vector has no direction")
    xd, yd = v[0].denominator, v[1].denominator
    den = math.lcm(xd, yd)
    ix = v[0].numerator * (den // xd)
    iy = v[1].numerator * (den // yd)
    g = math.gcd(ix, iy)
    return (ix // g, iy // g)


def _angle_band(u: tuple[int, int]) -> int:
    # bands by angle theta from +x, ccw: 0 at theta=0, 1 on (0,pi),
    # 2 at theta=pi, 3 on (pi,2pi)
    x, y = u
    if y == 0:
        return 0 if x > 0 else 2
    return 1 if y > 0 else 3


def compare_angle_descending(u: tuple[int, int], v: tuple[int, int]) -> int:
    """Order directions by strictly descending angle in [0, 2pi).

    Returns negative when u precedes v. Equal directions compare 0 only
    when the primitive vectors are identical.
    """
    if u == v:
        return 0
    bu, bv = _angle_band(u), _angle_band(v)
    if bu != bv:
        # descending theta: band order 3, 2, 1, 0
        return bv - bu
    # same open half-plane: u first iff theta(u) > theta(v) iff u ccw of v
    c = u[0] * v[1] - u[1] * v[0]  # cross(u, v)
    if c == 0:
        return 0
    return -1 if c < 0 else 1


angle_descending_key = cmp_to_key(compare_angle_descending)


def canonical_line(p: Point, q: Point) -> tuple[int, int, int]:
    """Canonical integer form (a, b, c) of the line ax + by = c through p, q.

    gcd(a, b, c) = 1 and the first nonzero of (a, b) is positive, so
    collinear segments land on the identical triple.
    """
    d = vsub(q, p)
    if d == (0, 0):
        raise ValueError("degenerate segment has no supporting line")
    n = rot90ccw(d)
    a, b = primitive_direction(n)
    c = a * p[0] + b * p[1]
    m = c.denominator
    ia, ib, ic = a * m, b * m, c.numerator
    g = math.gcd(math.gcd(abs(ia), abs(ib)), abs(ic))
    ia, ib, ic = ia // g, ib // g, ic // g
    if ia < 0 or (ia == 0 and ib < 0):
        ia, ib, ic = -ia, -ib, -ic
    return (ia, ib, ic)


def canonical_line_direction(line: tuple[int, int, int]) -> tuple[int, int]:
    """Right- or up-pointing primitive direction vector of the line."""
    a, b, _ = line
    dx, dy = b, -a
    g = math.gcd(abs(dx), abs(dy))
    dx, dy = dx // g, dy // g
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    return (dx, dy)


def point_on_line(p: Point, line: tuple[int, int, int]) -> bool:
    a, b, c = line
    return a * p[0] + b * p[1] == c

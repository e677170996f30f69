"""Slender decorations attached over base segments.

An adornment is a simple CCW polygon with a designated base (an edge or
an interior chord between two boundary vertices). Strict slenderness
demands that inward normal rays launched from the boundary always reach
the base: per non-base edge, the perpendicular shadow of the base must
span the whole edge with the base on the inward side, and (in the
default closure mode) no corner cone may contain a direction parallel
to the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AdornmentError
from .geometry import (
    Point,
    box_pairs,
    cross,
    dot,
    on_closed_segment,
    orient,
    properly_cross,
    rot90ccw,
    shoelace2,
    sqdist,
    vsub,
)
from .linkage import Configuration, Edge, Linkage, certify_epsilon
from .rationals import sqrt_lower_bound


@dataclass(frozen=True)
class Adornment:
    boundary: tuple[Point, ...]
    base: tuple[int, int]

    def __post_init__(self) -> None:
        pts = tuple(
            (Fraction(p[0]), Fraction(p[1])) for p in self.boundary
        )
        object.__setattr__(self, "boundary", pts)
        object.__setattr__(self, "base", (int(self.base[0]), int(self.base[1])))

    def base_points(self) -> tuple[Point, Point]:
        return self.boundary[self.base[0]], self.boundary[self.base[1]]


def validate_adornment(adornment: Adornment) -> None:
    pts = adornment.boundary
    n = len(pts)
    if n < 3:
        raise AdornmentError("polygon needs at least three vertices")
    if len(set(pts)) != n:
        raise AdornmentError("repeated boundary vertex")
    if shoelace2(pts) <= 0:
        raise AdornmentError("boundary must be counterclockwise")
    for k in range(n):
        a, b, c = pts[k - 1], pts[k], pts[(k + 1) % n]
        if orient(a, b, c) == 0:
            raise AdornmentError(f"collinear boundary corner at index {k}")
    sides = [(pts[k], pts[(k + 1) % n]) for k in range(n)]
    # sides whose boxes are disjoint neither cross nor touch, and the pairs
    # come in ascending order, so the first error is the all-pairs one
    for i, j in box_pairs(sides):
        if (j + 1) % n == i or (i + 1) % n == j:
            continue  # neighbours share a corner
        (a1, b1), (a2, b2) = sides[i], sides[j]
        if properly_cross(a1, b1, a2, b2):
            raise AdornmentError("boundary is self-intersecting")
        if any(on_closed_segment(w, a1, b1) for w in (a2, b2)) or any(
            on_closed_segment(w, a2, b2) for w in (a1, b1)
        ):
            raise AdornmentError("boundary is self-touching")
    i, j = adornment.base
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise AdornmentError("base must name two distinct boundary vertices")
    if (i + 1) % n == j or (j + 1) % n == i:
        return  # base is a boundary edge
    p, q = pts[i], pts[j]
    if any(properly_cross(p, q, a, b) for a, b in sides):
        raise AdornmentError("base chord crosses the boundary")
    if any(on_closed_segment(pts[k], p, q) for k in range(n) if k not in (i, j)):
        raise AdornmentError("base chord passes through a boundary vertex")
    # the chord meets the boundary only at its ends, so it lies inside iff
    # it leaves p into the interior angle there: into both side half-planes
    # at a convex corner, into either one at a reflex corner
    prev, nxt = pts[i - 1], pts[(i + 1) % n]
    left, right = orient(prev, p, q) > 0, orient(p, nxt, q) > 0
    if not ((left and right) if orient(prev, p, nxt) > 0 else (left or right)):
        raise AdornmentError("base chord lies outside the region")


def is_strictly_slender(adornment: Adornment, mode: str = "closure") -> bool:
    return not slender_failures(adornment, mode)


def slender_failures(
    adornment: Adornment, mode: str = "closure"
) -> tuple[tuple[int, str], ...]:
    """Reasons an adornment is not strictly slender, by boundary index.

    Edge failures carry the edge's start index; corner failures (closure
    mode only) carry the vertex index. A normal ray launched at an edge
    point perpendicular to the edge keeps that point's shadow coordinate
    along the edge, so it strikes the base exactly when the base's
    shadow covers the coordinate and the base sits on the inward side;
    corner cones between the adjacent edge normals fail only when they
    contain a base-parallel direction, whose ray can never arrive.
    """
    if mode not in ("closure", "interior"):
        raise AdornmentError(f"unknown mode {mode!r}")
    validate_adornment(adornment)
    pts = adornment.boundary
    n = len(pts)
    p, q = adornment.base_points()
    # once validated, the base's ends are the only boundary vertices on it
    base = set(adornment.base)
    failures: list[tuple[int, str]] = []
    for k in range(n):
        v, w = pts[k], pts[(k + 1) % n]
        if {k, (k + 1) % n} == base:
            continue  # the base edge itself
        d = vsub(w, v)
        side_p = cross(d, vsub(p, v))  # positive = inward for CCW
        side_q = cross(d, vsub(q, v))
        if side_p < 0 or side_q < 0 or (side_p == 0 and side_q == 0):
            failures.append((k, "base not on the inward side of the edge"))
            continue
        shadow_p = dot(vsub(p, v), d)
        shadow_q = dot(vsub(q, v), d)
        if shadow_p == shadow_q:
            failures.append((k, "edge normals run parallel to the base"))
            continue
        if not (
            min(shadow_p, shadow_q) <= 0
            and max(shadow_p, shadow_q) >= dot(d, d)
        ):
            failures.append((k, "base shadow does not span the edge"))
    if mode == "closure":
        base_dir = vsub(q, p)
        for k in range(n):
            if k in base:
                continue
            x = pts[k]
            prev, nxt = pts[(k - 1) % n], pts[(k + 1) % n]
            if orient(prev, x, nxt) <= 0:
                continue  # reflex corners carry no normal cone
            na = rot90ccw(vsub(x, prev))
            nb = rot90ccw(vsub(nxt, x))
            # convex CCW corner: cross(na, nb) > 0, cone narrower than a
            # half turn, so closed membership is a pair of cross signs
            for u in (base_dir, (-base_dir[0], -base_dir[1])):
                if cross(na, u) >= 0 and cross(u, nb) >= 0:
                    failures.append(
                        (k, "corner cone contains a base-parallel direction")
                    )
                    break
    return tuple(failures)


def _in_closed_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    return (
        orient(a, b, p) >= 0
        and orient(b, c, p) >= 0
        and orient(c, a, p) >= 0
    )


def triangulate(adornment: Adornment) -> tuple[tuple[Point, Point, Point], ...]:
    """Deterministic ear-clipping triangulation of the region."""
    validate_adornment(adornment)
    pts = adornment.boundary
    idx = list(range(len(pts)))
    tris: list[tuple[Point, Point, Point]] = []
    while len(idx) > 3:
        for k in range(len(idx)):
            i0 = idx[(k - 1) % len(idx)]
            i1 = idx[k]
            i2 = idx[(k + 1) % len(idx)]
            a, b, c = pts[i0], pts[i1], pts[i2]
            if orient(a, b, c) <= 0:
                continue
            if any(
                _in_closed_triangle(pts[m], a, b, c)
                for m in idx
                if m not in (i0, i1, i2)
            ):
                continue
            tris.append((a, b, c))
            idx.pop(k)
            break
        else:
            raise AdornmentError("ear clipping failed; polygon not simple")
    tris.append((pts[idx[0]], pts[idx[1]], pts[idx[2]]))
    area2 = sum(orient(a, b, c) for a, b, c in tris)
    if area2 != shoelace2(pts):
        raise AdornmentError("triangulation does not cover the region")
    return tuple(tris)


@dataclass(frozen=True)
class AdornedChain:
    adornments: tuple[Adornment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "adornments", tuple(self.adornments))


def adorned_chain_to_linkage(chain: AdornedChain) -> tuple[Linkage, Configuration]:
    """Bars from triangulated adornments strung along shared base endpoints.

    Every triangle edge and every base becomes a bar; vertices are keyed
    by exact location. Rest lengths are exact where the squared distance
    is a perfect square and otherwise rational lower bounds within
    10^-12 of the root at any size, so the slack bound certified against
    the placement is 0 or 10^-10.
    """
    if not chain.adornments:
        raise AdornmentError("empty adorned chain")
    # triangulate validates each polygon, before the bases are compared
    triangles = [triangulate(a) for a in chain.adornments]
    for a, b in zip(chain.adornments, chain.adornments[1:]):
        if a.base_points()[1] != b.base_points()[0]:
            raise AdornmentError("consecutive bases do not share an endpoint")

    vid: dict[Point, str] = {}

    def vertex(pt: Point) -> str:
        if pt not in vid:
            vid[pt] = f"v{len(vid)}"
        return vid[pt]

    seen: set[tuple[Point, Point]] = set()
    bars: list[tuple[Point, Point]] = []

    def add(u: Point, w: Point) -> None:
        key = (u, w) if u <= w else (w, u)
        if key in seen:
            return
        seen.add(key)
        bars.append(key)

    for a, tris in zip(chain.adornments, triangles):
        for t0, t1, t2 in tris:
            add(t0, t1)
            add(t1, t2)
            add(t2, t0)
        bp = a.base_points()
        add(bp[0], bp[1])

    edges = []
    for k, (u, w) in enumerate(bars):
        root = sqrt_lower_bound(sqdist(u, w))
        edges.append(Edge(f"e{k}", vertex(u), vertex(w), root))

    linkage = Linkage(tuple(vid[p] for p in vid), tuple(edges))
    placement = {vertex(p): p for p in vid}
    eps = certify_epsilon(linkage, placement, Fraction(1, 10**10))
    configuration = Configuration(linkage, placement, eps)
    return linkage, configuration

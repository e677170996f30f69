"""Canonical placements and straight-line motions for chain linkages.

Open chains straighten onto the positive x axis exactly. Closed chains
are placed on their circumscribing circle, found by bisecting the
central angle sum on whichever branch (center inside or outside the
longest bar's chord) brackets the closure equation; the flat degenerate
case where one bar balances all others folds onto a line exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ChainError
from .geometry import orient, shoelace2, sign
from .linkage import Configuration, DisjointSets, Linkage, certify_epsilon

_BISECT_STEPS = 200


@dataclass(frozen=True)
class ChainShape:
    kind: str  # "open" | "closed" | "other"
    vertices: tuple[str, ...]  # walk order; closed walks omit the repeat
    edges: tuple[str, ...]  # edge ids along the walk


def classify_chain(linkage: Linkage) -> ChainShape:
    """Detect open/closed chain structure by degrees and connectivity."""
    nv, ne = len(linkage.vertices), len(linkage.edges)
    if len(DisjointSets._partition(linkage.vertices, linkage.edges).classes) != 1:
        return ChainShape("other", (), ())
    degs = {v: linkage.degree(v) for v in linkage.vertices}

    def walk(start: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        verts = [start]
        eids = []
        used: set[int] = set()
        cur = start
        while True:
            i = next((i for i in linkage.incident_slots(cur) if i not in used), None)
            if i is None:
                break
            used.add(i)
            e = linkage.edges[i]
            w = e.head if e.tail == cur else e.tail
            eids.append(e.id)
            if w == start and len(used) == ne:
                break
            verts.append(w)
            cur = w
        return tuple(verts), tuple(eids)

    if ne == nv - 1:
        tips = sorted(v for v, d in degs.items() if d == 1)
        if len(tips) == 2 and all(d in (1, 2) for d in degs.values()):
            verts, eids = walk(tips[0])
            if len(eids) == ne:
                return ChainShape("open", verts, eids)
    if ne == nv and all(d == 2 for d in degs.values()):
        start = min(linkage.vertices)
        verts, eids = walk(start)
        if len(eids) == ne and len(verts) == nv:
            return ChainShape("closed", verts, eids)
    return ChainShape("other", (), ())


@dataclass(frozen=True)
class CanonicalConfiguration:
    configuration: Configuration
    kind: str  # "straight" | "concyclic" | "flat-degenerate"
    chain: ChainShape
    circumradius: float | None = None
    turning: str | None = None  # "ccw" | "cw" | None


def canonical_open(linkage: Linkage) -> CanonicalConfiguration:
    """Straighten an open chain along the positive x axis, exactly."""
    shape = classify_chain(linkage)
    if shape.kind != "open":
        raise ChainError("linkage is not an open chain")
    placement = {}
    x = Fraction(0)
    placement[shape.vertices[0]] = (Fraction(0), Fraction(0))
    for vid, eid in zip(shape.vertices[1:], shape.edges):
        x += linkage.edges[linkage.edge_index(eid)].rest_length
        placement[vid] = (x, Fraction(0))
    conf = Configuration(linkage, placement, Fraction(0))
    return CanonicalConfiguration(conf, "straight", shape)


def _bisect_radius(too_small, lo: float, hi: float) -> float:
    """Double hi until too_small(hi) fails, then bisect [lo, hi] to a radius."""
    tries = 0
    while too_small(hi):
        hi *= 2.0
        tries += 1
        if tries > 400:
            raise ChainError("closure equation does not bracket")
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if too_small(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def canonical_closed(
    linkage: Linkage, direction: str = "ccw"
) -> CanonicalConfiguration:
    """Place a closed chain on its circumscribing circle.

    Requires at least three bars of positive length. The circumradius
    solves the closure equation on the bracket found from the longest
    bar; when that bar exactly balances the rest the chain flattens
    onto a line instead.
    """
    if direction not in ("ccw", "cw"):
        raise ChainError(f"unknown direction {direction!r}")
    shape = classify_chain(linkage)
    if shape.kind != "closed":
        raise ChainError("linkage is not a closed chain")
    lengths = [
        linkage.edges[linkage.edge_index(eid)].rest_length for eid in shape.edges
    ]
    if sum(1 for l in lengths if l > 0) < 3:
        raise ChainError("closed chain needs at least three positive bars")
    lmax = max(lengths)
    imax = lengths.index(lmax)
    rest_sum = sum(lengths) - lmax
    if lmax > rest_sum:
        raise ChainError("longest bar exceeds the sum of the others")

    if lmax == rest_sum:
        # flat degenerate: all bars on one line, the longest folded back
        placement = {}
        pos = Fraction(0)
        steps = []
        for k, eid in enumerate(shape.edges):
            steps.append(-lengths[k] if k == imax else lengths[k])
        flip = -1 if imax == 0 else 1
        placement[shape.vertices[0]] = (Fraction(0), Fraction(0))
        for k, vid in enumerate(shape.vertices[1:]):
            pos += steps[k] * flip
            placement[vid] = (pos, Fraction(0))
        conf = Configuration(linkage, placement, Fraction(0))
        return CanonicalConfiguration(conf, "flat-degenerate", shape)

    fl = [float(l) for l in lengths]
    flmax = float(lmax)

    def angle_sum(r: float) -> float:
        return sum(2.0 * math.asin(min(1.0, l / (2.0 * r))) for l in fl)

    r0 = flmax / 2.0
    if angle_sum(r0) >= 2.0 * math.pi:
        # center inside: every central angle positive
        radius = _bisect_radius(
            lambda r: angle_sum(r) >= 2.0 * math.pi, r0, max(r0 * 2.0, sum(fl))
        )
        signs = [1.0] * len(fl)
    else:
        # center outside the longest chord: its angle counts negatively
        def gap(r: float) -> float:
            s = math.asin(min(1.0, flmax / (2.0 * r)))
            for k, l in enumerate(fl):
                if k != imax:
                    s -= math.asin(min(1.0, l / (2.0 * r)))
            return s

        radius = _bisect_radius(lambda r: gap(r) > 0.0, r0, r0 * 2.0)
        signs = [1.0 if k != imax else -1.0 for k in range(len(fl))]

    phis = [0.0]
    for k in range(len(fl)):
        theta = 2.0 * math.asin(min(1.0, fl[k] / (2.0 * radius)))
        phis.append(phis[-1] + signs[k] * theta)
    raw = [
        (radius * math.cos(phi), radius * math.sin(phi)) for phi in phis[:-1]
    ]
    # anchor the walk start at the origin, first positive bar along +x
    ox, oy = raw[0]
    shifted = [(x - ox, y - oy) for x, y in raw]
    kpos = next(k for k, l in enumerate(fl) if l > 0)
    ax0, ay0 = shifted[kpos]
    bx0, by0 = shifted[(kpos + 1) % len(shifted)]
    dx, dy = bx0 - ax0, by0 - ay0
    norm = math.hypot(dx, dy)
    cxv, sxv = dx / norm, dy / norm
    rotated = [
        (x * cxv + y * sxv, -x * sxv + y * cxv) for x, y in shifted
    ]
    cleaned = [
        (x, 0.0 if abs(y) < 1e-12 * max(1.0, radius) else y) for x, y in rotated
    ]

    placement = {
        vid: (
            Fraction(p[0]).limit_denominator(10**12),
            Fraction(p[1]).limit_denominator(10**12),
        )
        for vid, p in zip(shape.vertices, cleaned)
    }
    area2 = shoelace2([placement[v] for v in shape.vertices])
    if area2 == 0:
        raise ChainError("degenerate circular placement")
    want_ccw = direction == "ccw"
    if (area2 > 0) != want_ccw:
        placement = {vid: (x, -y) for vid, (x, y) in placement.items()}
    eps = certify_epsilon(linkage, placement, Fraction(1, 10**10))
    conf = Configuration(linkage, placement, eps)
    return CanonicalConfiguration(conf, "concyclic", shape, radius, direction)


def turning_direction(configuration: Configuration) -> str:
    """Orientation of a closed chain's walk polygon: "ccw" or "cw"."""
    shape = classify_chain(configuration.linkage)
    if shape.kind != "closed":
        raise ChainError("turning direction needs a closed chain")
    area2 = shoelace2([configuration.placement[v] for v in shape.vertices])
    if area2 == 0:
        raise ChainError("degenerate walk polygon has no turning direction")
    return "ccw" if area2 > 0 else "cw"


@dataclass(frozen=True)
class InterpolationResult:
    configuration: Configuration
    convex: bool
    t: Fraction


def convex_interpolate(
    conf_a: Configuration, conf_b: Configuration, t
) -> InterpolationResult:
    """Linear interpolation of two chain placements at parameter t.

    Both configurations must realize the same chain walk; closed chains
    must also agree on turning direction. The interpolated rest lengths
    are the edgewise blend, and the convexity flag reports whether the
    interpolated walk polygon is convex (all turns one way, flats
    allowed).
    """
    return interpolation_frames(conf_a, conf_b, (t,))[0]


def interpolation_frames(
    conf_a: Configuration, conf_b: Configuration, ts
) -> tuple[InterpolationResult, ...]:
    """convex_interpolate at every t in ts, checking the pair only once."""
    ts = [Fraction(t) for t in ts]
    if not all(0 <= t <= 1 for t in ts):
        raise ChainError("interpolation parameter must lie in [0, 1]")
    la, lb = conf_a.linkage, conf_b.linkage
    sa, sb = classify_chain(la), classify_chain(lb)
    if sa.kind == "other" or sa.kind != sb.kind:
        raise ChainError("interpolation needs two chains of the same kind")
    if sa.vertices != sb.vertices or sa.edges != sb.edges:
        raise ChainError("chains disagree on structure")
    if sa.kind == "closed" and turning_direction(conf_a) != turning_direction(conf_b):
        raise ChainError("closed chains turn in opposite directions")
    floor = max(conf_a.epsilon, conf_b.epsilon) or Fraction(1, 10**12)
    m = len(sa.vertices)
    turns = m if sa.kind == "closed" else m - 2  # open walks do not wrap
    pairs = [(ea, lb.edges[lb.edge_index(ea.id)]) for ea in la.edges]
    frames = []
    for t in ts:
        edges = []
        for ea, eb in pairs:
            rest = (1 - t) * ea.rest_length + t * eb.rest_length
            edges.append(type(ea)(ea.id, ea.tail, ea.head, rest))
        linkage = Linkage(la.vertices, tuple(edges))
        placement = {}
        for v in la.vertices:
            ax, ay = conf_a.placement[v]
            bx, by = conf_b.placement[v]
            placement[v] = ((1 - t) * ax + t * bx, (1 - t) * ay + t * by)
        eps = certify_epsilon(linkage, placement, floor)
        conf = Configuration(linkage, placement, eps)
        pts = [placement[v] for v in sa.vertices]
        signs = {
            sign(orient(pts[i], pts[(i + 1) % m], pts[(i + 2) % m]))
            for i in range(turns)
        }
        frames.append(InterpolationResult(conf, len(signs - {0}) <= 1, t))
    return tuple(frames)

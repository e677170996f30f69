"""Corridor decomposition and layer orders along shared lines.

Bars of positive length are grouped by their supporting line; each
corridor is cut into segments at every vertex location on the line, and
annotation signs impose a partial "above" relation per segment that
must extend to a consistent global layering of the corridor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .annotations import AnnotationMatrix, bars_by_line
from .errors import CorridorError
from .geometry import (
    Point,
    angle_descending_key,
    canonical_line_direction,
    cross,
    dot,
    point_on_line,
    primitive_direction,
    rot90ccw,
    sign,
    sqnorm,
    vsub,
)
from .linkage import Configuration, Linkage, require_conf0
from .rationals import sqrt_lower_bound

IntVec = tuple[int, int]


@dataclass(frozen=True)
class CorridorSegment:
    start: Point
    end: Point
    bars: tuple[int, ...]  # edge indices covering this stretch


@dataclass(frozen=True)
class Corridor:
    line: tuple[int, int, int]  # a x + b y + c = 0, canonical
    direction: IntVec  # canonical primitive direction along the line
    normal: IntVec  # left normal of direction
    bars: tuple[int, ...]  # all edge indices on the line, ascending
    segments: tuple[CorridorSegment, ...]  # ordered along direction


def corridors(linkage: Linkage, configuration: Configuration) -> tuple[Corridor, ...]:
    """Group positive bars by supporting line and cut into covered segments."""
    require_conf0(configuration)
    C = configuration
    groups = bars_by_line([C.segment(e) for e in linkage.edges])
    out = []
    for line in sorted(groups):
        bars = sorted(i for _, _, i in groups[line])
        spans = {i: (lo, hi) for lo, hi, i in groups[line]}
        direction = canonical_line_direction(line)
        dvec = (Fraction(direction[0]), Fraction(direction[1]))
        param_to_point = {
            dot(p, dvec): p for p in set(C.placement.values()) if point_on_line(p, line)
        }
        ordered = sorted(param_to_point)
        segments = []
        for sa, sb in zip(ordered, ordered[1:]):
            covering = tuple(
                i for i in bars if spans[i][0] <= sa and sb <= spans[i][1]
            )
            if covering:
                segments.append(
                    CorridorSegment(param_to_point[sa], param_to_point[sb], covering)
                )
        out.append(
            Corridor(
                line,
                direction,
                rot90ccw(direction),
                tuple(bars),
                tuple(segments),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class CorridorOrder:
    corridor: Corridor
    order: tuple[str, ...]  # edge ids, bottom layer first
    psi: dict[str, int]  # edge id -> layer height 0..m-1


def corridor_order(
    corridor: Corridor,
    annotation: AnnotationMatrix,
    linkage: Linkage,
    configuration: Configuration,
) -> CorridorOrder:
    """Extend the per-segment above relation to one layering of the corridor.

    Constraints are added segment by segment along the corridor
    direction; the first segment whose constraints close a cycle is
    reported in the error.
    """
    C = configuration
    dvec = (Fraction(corridor.direction[0]), Fraction(corridor.direction[1]))
    orient = {}
    for i in corridor.bars:
        a, b = C.segment(linkage.edges[i])
        orient[i] = sign(dot(vsub(b, a), dvec))

    above: dict[int, set[int]] = {i: set() for i in corridor.bars}
    for seg in corridor.segments:
        for x in range(len(seg.bars)):
            for y in range(x + 1, len(seg.bars)):
                i, j = seg.bars[x], seg.bars[y]
                s = annotation.value(i, j).sign()
                if s == 0:
                    raise CorridorError(
                        f"zero annotation between overlapping bars "
                        f"{linkage.edges[i].id} and {linkage.edges[j].id}"
                    )
                if s * orient[i] > 0:
                    above[i].add(j)  # j lies above i
                else:
                    above[j].add(i)
        if _has_cycle(above):
            raise CorridorError(
                f"inconsistent layer order at corridor segment starting "
                f"{tuple(map(str, seg.start))}"
            )

    indeg = {i: 0 for i in corridor.bars}
    for i, outs in above.items():
        for j in outs:
            indeg[j] += 1
    ready = sorted(i for i in corridor.bars if indeg[i] == 0)
    order: list[int] = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        for j in sorted(above[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
        ready.sort()
    if len(order) != len(corridor.bars):
        raise CorridorError("inconsistent layer order in corridor")
    ids = tuple(linkage.edges[i].id for i in order)
    return CorridorOrder(corridor, ids, {eid: k for k, eid in enumerate(ids)})


def _has_cycle(adj: dict[int, set[int]]) -> bool:
    state: dict[int, int] = {}

    def visit(u: int) -> bool:
        state[u] = 1
        for v in adj[u]:
            st = state.get(v, 0)
            if st == 1:
                return True
            if st == 0 and visit(v):
                return True
        state[u] = 2
        return False

    return any(state.get(u, 0) == 0 and visit(u) for u in adj)


def delta_bound(linkage: Linkage, configuration: Configuration) -> Fraction:
    """Admissible perturbation radius bound for an exact configuration.

    Takes the minimum of 1/n, the smallest positive rest length, and
    sin(theta_min)/(2n) over nonparallel positive bar pairs, where the
    sine lower bound is rationalized conservatively.
    """
    require_conf0(configuration)
    C = configuration
    n = max(len(linkage.edges), 1)
    if not linkage.edges:
        return Fraction(1, 2)
    candidates = [Fraction(1, n)]
    pos_lengths = [e.rest_length for e in linkage.edges if e.rest_length > 0]
    if pos_lengths:
        candidates.append(min(pos_lengths))

    # the least sine over nonparallel bars is reached between neighbouring
    # primitive directions sorted modulo pi, the last and first included
    dirs = set()
    for e in linkage.edges:
        if e.rest_length > 0:
            x, y = primitive_direction(vsub(*C.segment(e)))
            dirs.add((x, y) if y > 0 or (y == 0 and x > 0) else (-x, -y))
    ordered = sorted(dirs, key=angle_descending_key)
    sin_sq = [
        Fraction(c * c, sqnorm(u) * sqnorm(v))
        for u, v in zip(ordered, ordered[1:] + ordered[:1])
        if (c := cross(u, v)) != 0
    ]
    sin_lb = sqrt_lower_bound(min(sin_sq)) if sin_sq else Fraction(1)
    candidates.append(sin_lb / (2 * n))
    return min(candidates)

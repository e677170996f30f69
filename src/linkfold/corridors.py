"""Corridor decomposition and layer orders along shared lines.

Bars of positive length are grouped by their supporting line; each
corridor is cut into segments at every vertex location on the line, and
annotation signs impose a partial "above" relation per segment that
must extend to a consistent global layering of the corridor.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .annotations import AnnotationMatrix
from .errors import CorridorError
from .geometry import (
    Point,
    angle_descending_key,
    canonical_line,
    canonical_line_direction,
    cross,
    dot,
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
    """Group positive bars by supporting line and cut into covered segments.

    Grouping and cutting run on the configuration's integer lattice: the
    locations on each line are sorted once, and each bar covers the run
    of cuts between its two endpoint stations. Lines, directions and
    cut points are reported in the input's units.
    """
    require_conf0(configuration)
    C = configuration
    index = C.lines()
    where = {img: C.placement[v] for v, img in C.lattice().items()}
    out = []
    for lattice_line, group in index.bars.items():
        params, cuts = index.stations[lattice_line]
        covering: list[list[int]] = [[] for _ in cuts[1:]]
        bars = sorted((i, lo, hi) for lo, hi, i in group)
        for i, lo, hi in bars:
            for k in range(bisect_left(params, lo), bisect_left(params, hi)):
                covering[k].append(i)
        segments = tuple(
            CorridorSegment(where[p], where[q], tuple(cover))
            for p, q, cover in zip(cuts, cuts[1:], covering)
            if cover
        )
        direction = canonical_line_direction(lattice_line)
        out.append(
            Corridor(
                canonical_line(*C.segment(linkage.edges[bars[0][0]])),
                direction,
                rot90ccw(direction),
                tuple(i for i, _, _ in bars),
                segments,
            )
        )
    out.sort(key=lambda c: c.line)
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
    images = configuration.lattice()
    orient = {}
    for i in corridor.bars:
        e = linkage.edges[i]
        orient[i] = sign(dot(vsub(images[e.head], images[e.tail]), corridor.direction))

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
    ready = [i for i in corridor.bars if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in above[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(corridor.bars):
        raise CorridorError("inconsistent layer order in corridor")
    ids = tuple(linkage.edges[i].id for i in order)
    return CorridorOrder(corridor, ids, {eid: k for k, eid in enumerate(ids)})


def _has_cycle(adj: dict[int, set[int]]) -> bool:
    """True iff the directed graph has a cycle; depth-first, with an explicit stack."""
    state: dict[int, int] = {}  # 1 while on the current path, 2 when done
    for root in adj:
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(adj[root]))]
        while stack:
            u, succ = stack[-1]
            for v in succ:
                st = state.get(v, 0)
                if st == 1:
                    return True
                if st == 0:
                    state[v] = 1
                    stack.append((v, iter(adj[v])))
                    break
            else:
                state[u] = 2
                stack.pop()
    return False


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
    # line directions sorted by angle, the last and first included
    dirs = {canonical_line_direction(line) for line in C.lines().bars}
    ordered = sorted(dirs, key=angle_descending_key)
    sin_sq = [
        Fraction(c * c, sqnorm(u) * sqnorm(v))
        for u, v in zip(ordered, ordered[1:] + ordered[:1])
        if (c := cross(u, v)) != 0
    ]
    sin_lb = sqrt_lower_bound(min(sin_sq)) if sin_sq else Fraction(1)
    candidates.append(sin_lb / (2 * n))
    return min(candidates)

"""Corridor decomposition and layer orders along shared lines.

Bars of positive length are grouped by their supporting line; each
corridor is cut into segments at every vertex location on the line, and
annotation signs on its overlapping bar pairs impose an "above"
relation that must extend to one layering of the corridor.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .annotations import AnnotationMatrix, line_layering
from .errors import CorridorError
from .geometry import (
    Point,
    angle_descending_key,
    canonical_line,
    canonical_line_direction,
    cross,
    rot90ccw,
    sqnorm,
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
    """The corridor's layering, bottom layer first, from line_layering.

    A zero or disagreeing entry on an overlapping pair, or a cycle, is
    an error.
    """
    index = configuration.lines()
    order, fault = line_layering(index, annotation, index.line_of[corridor.bars[0]])
    if fault is not None:
        detail, *pair = fault
        names = " and ".join(linkage.edges[i].id for i in pair)
        raise CorridorError(f"{detail} {names or tuple(map(str, corridor.line))}")
    ids = tuple(linkage.edges[i].id for i in order)
    return CorridorOrder(corridor, ids, {eid: k for k, eid in enumerate(ids)})


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

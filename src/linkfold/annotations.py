"""Signed overlap values, line indexes and annotation matrices.

The signed overlap of a directed segment pair measures how much of the
second segment runs on the left of the first minus how much runs on the
right, after projecting onto the first segment's line and clamping to
its span. Values are exact: rational multiples of the first segment's
length, carried as SqrtRational.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .errors import AnnotationError
from .geometry import (
    Point,
    canonical_line,
    canonical_line_direction,
    cross,
    dot,
    properly_cross,
    sqnorm,
    vsub,
)
from .linkage import Configuration, Linkage, require_conf0
from .rationals import SqrtRational

Segment = tuple[Point, Point]
Line = tuple[int, int, int]  # canonical a x + b y = c


def _clipped_span(xa, ya, xb, yb, scale, side: int):
    """Stretch of e1's span covered by e2 clipped to one closed half-plane.

    Coordinates are in the frame scaled by |e1|: x runs over [0, scale]
    along e1, y is the (scaled) signed offset. side selects y >= 0 or
    y <= 0. The stretch is measured in the same scaled units, so integer
    inputs need no division until the caller's.
    """
    sa, sb = side * ya, side * yb
    if sa < 0 and sb < 0:
        return 0
    if sa >= 0 and sb >= 0:
        x1, x2 = xa, xb
    else:
        # where the segment crosses the y = 0 line
        xc = Fraction(sa * xb - sb * xa, sa - sb)
        x1, x2 = (xc, xb) if sa < 0 else (xa, xc)
    return abs(min(max(x2, 0), scale) - min(max(x1, 0), scale))


def ord_value(e1: Segment, e2: Segment) -> SqrtRational:
    """Signed overlap of e2 over e1: left span minus right span.

    Degenerate e1 gives 0. The result is (r+ - r-) * |e1| with rational
    r terms, hence exactly representable. The r terms do not change when
    every point is scaled by D > 0, so neither does the sign, and integer
    lattice images give it with integer arithmetic.
    """
    t1, h1 = e1
    d = vsub(h1, t1)
    scale = sqnorm(d)
    if scale == 0:
        return SqrtRational(0)
    qa = vsub(e2[0], t1)
    qb = vsub(e2[1], t1)
    xa, ya = dot(qa, d), cross(d, qa)
    xb, yb = dot(qb, d), cross(d, qb)
    r_plus = _clipped_span(xa, ya, xb, yb, scale, +1)
    r_minus = _clipped_span(xa, ya, xb, yb, scale, -1)
    return SqrtRational(Fraction(r_plus - r_minus, scale), scale)


def overlap_length(e1: Segment, e2: Segment) -> SqrtRational:
    """Length of the collinear overlap of two segments, else 0.

    Only genuinely one-dimensional intersections count; collinear
    segments sharing a single point overlap with length 0.
    """
    t1, h1 = e1
    d = vsub(h1, t1)
    scale = sqnorm(d)
    if scale == 0:
        return SqrtRational(0)
    qa = vsub(e2[0], t1)
    qb = vsub(e2[1], t1)
    if cross(d, qa) != 0 or cross(d, qb) != 0:
        return SqrtRational(0)
    xa, xb = dot(qa, d), dot(qb, d)
    lo = max(Fraction(0), min(xa, xb))
    hi = min(scale, max(xa, xb))
    if hi <= lo:
        return SqrtRational(0)
    return SqrtRational(Fraction(hi - lo, scale), scale)


def strict_crossing(e1: Segment, e2: Segment) -> bool:
    """True iff the open interiors cross transversally."""
    return properly_cross(e1[0], e1[1], e2[0], e2[1])


class LineIndex:
    """Line facts of one configuration's bars, on its integer lattice.

    ``Configuration.lines()`` builds it once. ``segments`` holds each
    edge's lattice images (D*tail, D*head) and ``line_of`` its canonical
    line there, None for a point bar, and ``orient`` its orientation
    along that line's canonical direction (+1 or -1; 0 for a point bar).
    Per line, ``bars`` lists the bars as (lo, hi, edge index), their
    parameter intervals along the line's canonical direction sorted by
    start, ``pairs`` its overlapping unordered pairs (i < j) in ascending
    order, and ``stations`` the sorted parameters and images of the
    locations on it. ``overlaps`` holds the positive overlap_length of
    every overlapping ordered pair in the input's units, row-major.
    """

    def __init__(self, linkage: Linkage, images: dict, D: int) -> None:
        self.D = D
        self.segments = segs = [(images[e.tail], images[e.head]) for e in linkage.edges]
        self.line_of = [canonical_line(a, b) if a != b else None for a, b in segs]
        self.orient = [0] * len(segs)
        self.bars: dict[Line, list[tuple[int, int, int]]] = {}
        for i, line in enumerate(self.line_of):
            if line is not None:
                (ax, ay), (bx, by) = segs[i]
                dx, dy = canonical_line_direction(line)
                sa, sb = ax * dx + ay * dy, bx * dx + by * dy
                self.orient[i] = 1 if sb > sa else -1
                self.bars.setdefault(line, []).append((min(sa, sb), max(sa, sb), i))
        # parallel lines share one pass over the locations
        on_line: dict[Line, list[tuple[int, tuple]]] = {line: [] for line in self.bars}
        points = set(images.values())
        for a, b in {line[:2] for line in self.bars}:
            dx, dy = canonical_line_direction((a, b, 0))
            for p in points:
                stations = on_line.get((a, b, a * p[0] + b * p[1]))
                if stations is not None:
                    stations.append((p[0] * dx + p[1] * dy, p))
        self.stations: dict[Line, tuple[list[int], list[tuple]]] = {}
        for line, group in self.bars.items():
            group.sort()
            stations = sorted(on_line[line])
            self.stations[line] = ([s for s, _ in stations], [p for _, p in stations])
        # each line's bars are swept by start, so overlap_length runs once
        # per unordered overlapping pair
        overlaps = {}
        self.pairs: dict[Line, list[tuple[int, int]]] = {}
        for line, group in self.bars.items():
            pairs = self.pairs[line] = []
            active: list[tuple[int, int]] = []
            for lo, hi, j in group:
                active = [(h, i) for h, i in active if h > lo]
                for _, i in active:
                    pairs.append((min(i, j), max(i, j)))
                    v = overlap_length(segs[i], segs[j])
                    overlaps[i, j] = self.unscale(v)
                    if v.radicand != 1:
                        # a bar is g times the line's primitive direction u,
                        # and an overlap k|u| reads k/g*sqrt(g^2|u|^2) from it
                        gi, gj = math.gcd(*vsub(*segs[i])), math.gcd(*vsub(*segs[j]))
                        v = SqrtRational._normal(v.coeff * gi / gj, v.radicand * gj**2 / gi**2)
                    overlaps[j, i] = self.unscale(v)
                active.append((hi, j))
            pairs.sort()
        self.overlaps = dict(sorted(overlaps.items()))

    def unscale(self, v: SqrtRational) -> SqrtRational:
        """A value measured on the lattice, in the input's units.

        c*sqrt(r) on the lattice is c*sqrt(r / D^2) in the input; a square
        radicand is 1 on both sides and any other stays no square.
        """
        D = self.D
        if D == 1:
            return v
        if v.radicand == 1:
            return SqrtRational._normal(v.coeff / D, v.radicand)
        return SqrtRational._normal(v.coeff, Fraction(v.radicand.numerator, D * D))

    def signed_overlap(self, i: int, j: int) -> SqrtRational:
        """ord_value of bar j over bar i, in the input's units."""
        return self.unscale(ord_value(self.segments[i], self.segments[j]))


class AnnotationMatrix:
    """Square matrix of signed overlap values, indexed like edges.

    Stored as explicit overrides on top of geometry defaults: an entry
    that is not overridden is the signed overlap on the line index
    ``lines`` the matrix was built from, computed the first time it is
    read and then cached. A matrix built from rows has no index and
    overrides every entry. ``entries`` builds the full grid, and
    matrices compare equal by entries.
    """

    def __init__(self, entries) -> None:
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise AnnotationError("annotation matrix is not square")
            if not row[i].is_zero:
                raise AnnotationError(f"nonzero diagonal entry at {i}")
        self.n = n
        self.lines: LineIndex | None = None  # defaults come from it
        self.overrides = {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)}
        self._defaults: dict[tuple[int, int], SqrtRational] = {}

    @classmethod
    def from_configuration(
        cls, configuration: Configuration, overrides=None
    ) -> "AnnotationMatrix":
        """Geometry defaults on the configuration's bars, with off-diagonal overrides."""
        matrix = cls(())
        matrix.lines = configuration.lines()
        matrix.n = len(matrix.lines.segments)
        matrix.overrides = dict(overrides or {})
        for (i, j), v in matrix.overrides.items():
            if i == j and not v.is_zero:
                raise AnnotationError(f"nonzero diagonal entry at {i}")
        return matrix

    @classmethod
    def from_rows(cls, rows) -> "AnnotationMatrix":
        conv = tuple(
            tuple(v if isinstance(v, SqrtRational) else SqrtRational(v) for v in row)
            for row in rows
        )
        return cls(conv)

    def value(self, i: int, j: int) -> SqrtRational:
        v = self.overrides.get((i, j))
        if v is None:
            v = self._defaults.get((i, j))
            if v is None:
                v = SqrtRational(0) if i == j else self.lines.signed_overlap(i, j)
                self._defaults[(i, j)] = v
        return v

    @property
    def entries(self) -> tuple[tuple[SqrtRational, ...], ...]:
        n = range(self.n)
        return tuple(tuple(self.value(i, j) for j in n) for i in n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnnotationMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)


def line_layering(index: LineIndex, annotation: AnnotationMatrix, line: Line):
    """Layer one line's bars from the annotation signs, bottom layer first.

    Each overlapping pair (i, j) is read once: both entries must be
    nonzero and agree, orient_i*sign(v_ij) = -orient_j*sign(v_ji), and
    then j lies above i iff orient_i*sign(v_ij) > 0. One Kahn pass, the
    smallest ready edge index first, orders the line. Returns (order,
    None), or (None, fault): a detail and the first bad pair, if any.
    """
    orient = index.orient
    above: dict[int, list[int]] = {i: [] for _, _, i in index.bars[line]}
    indeg = dict.fromkeys(above, 0)
    for i, j in index.pairs[line]:
        s, t = annotation.value(i, j).sign(), annotation.value(j, i).sign()
        if s == 0 or t == 0:
            return None, ("zero annotation between overlapping bars", i, j)
        if orient[i] * s != -orient[j] * t:
            return None, ("inconsistent layer order between overlapping bars", i, j)
        low, high = (i, j) if orient[i] * s > 0 else (j, i)
        above[low].append(high)
        indeg[high] += 1
    ready = [i for i, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in above[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) < len(above):
        return None, ("inconsistent layer order in the corridor on line",)
    return tuple(order), None


def annotate(linkage: Linkage, configuration: Configuration) -> AnnotationMatrix:
    """Annotation induced by an exact configuration: pairwise signed overlaps."""
    require_conf0(configuration)
    return AnnotationMatrix.from_configuration(configuration)

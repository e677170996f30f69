"""Signed overlap values, line indexes and annotation matrices.

The signed overlap of a directed segment pair measures how much of the
second segment runs on the left of the first minus how much runs on the
right, after projecting onto the first segment's line and clamping to
its span. Values are exact: rational multiples of the first segment's
length, carried as SqrtRational.
"""

from __future__ import annotations

import functools
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
    sign,
    sqnorm,
    vsub,
)
from .linkage import Configuration, Linkage, require_conf0
from .rationals import SqrtRational

Segment = tuple[Point, Point]
Line = tuple[int, int, int]  # canonical a x + b y = c


def _ord_parts(e1: Segment, e2: Segment):
    """ord_value(e1, e2) as (n, den, scale): the value is n/den * sqrt(scale).

    n/den is r+ - r-, with den > 0. Spans are measured in the frame scaled by
    |e1|: x runs over [0, scale] along e1, y is the (scaled) signed
    offset. When e2 crosses e1's line strictly, the crossing x is
    (ya*xb - yb*xa) / (ya - yb), so x is scaled once more by m = |ya - yb|
    and integer points give integers throughout.
    """
    t1, h1 = e1
    d = vsub(h1, t1)
    scale = sqnorm(d)
    if scale == 0:
        return 0, 1, 0
    qa = vsub(e2[0], t1)
    qb = vsub(e2[1], t1)
    xa, ya = dot(qa, d), cross(d, qa)
    xb, yb = dot(qb, d), cross(d, qb)
    if ya * yb >= 0:
        # one closed side holds all of e2, and the other only a point of it
        span = abs(min(max(xb, 0), scale) - min(max(xa, 0), scale))
        return (sign(ya) or sign(yb)) * span, scale, scale
    m = abs(ya - yb)
    xc = (ya * xb - yb * xa) * sign(ya - yb)
    top = scale * m
    xa, xb, xc = (min(max(x, 0), top) for x in (xa * m, xb * m, xc))
    left, right = abs(xc - xa), abs(xb - xc)
    return (left - right if ya > 0 else right - left), top, scale


def ord_value(e1: Segment, e2: Segment) -> SqrtRational:
    """Signed overlap of e2 over e1: left span minus right span.

    Degenerate e1 gives 0. The result is (r+ - r-) * |e1| with rational
    r terms, hence exactly representable. The r terms do not change when
    every point is scaled by D > 0, so neither does the sign, and integer
    lattice images give it with integer arithmetic (ord_sign).
    """
    n, den, scale = _ord_parts(e1, e2)
    return SqrtRational(Fraction(n, den), scale)


def ord_sign(e1: Segment, e2: Segment) -> int:
    """Sign of ord_value(e1, e2); integer points need no Fraction."""
    return sign(_ord_parts(e1, e2)[0])


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

    ``Configuration.lines()`` builds it once. ``D`` is the lattice's
    denominator, ``segments`` holds each edge's lattice images
    (D*tail, D*head) and ``line_of`` its canonical line there, None for a
    point bar, and ``orient`` its orientation along that line's canonical
    direction u (+1 or -1; 0 for a point bar). Per line, ``unit_sq`` is
    |u|^2, ``bars`` lists the bars as (lo, hi, edge index), their
    parameter intervals along u sorted by start, ``pairs`` its
    overlapping unordered pairs (i < j) in ascending order, and
    ``stations`` the sorted parameters and images of the locations on it.

    Lattice points of a line differ by whole multiples of u, so every
    overlap there is a whole number t of steps |u| on the lattice, |u|/D
    in the input. ``steps`` maps every overlapping ordered pair to its
    t, row-major; ``overlaps`` gives the same overlaps as SqrtRational.
    """

    def __init__(self, linkage: Linkage, images: dict, D: int) -> None:
        self.D = D
        self.segments = segs = [(images[e.tail], images[e.head]) for e in linkage.edges]
        self.line_of = [canonical_line(a, b) if a != b else None for a, b in segs]
        self.orient = [0] * len(segs)
        self.unit_sq: dict[Line, int] = {}
        self.bars: dict[Line, list[tuple[int, int, int]]] = {}
        for i, line in enumerate(self.line_of):
            if line is not None:
                (ax, ay), (bx, by) = segs[i]
                dx, dy = canonical_line_direction(line)
                sa, sb = ax * dx + ay * dy, bx * dx + by * dy
                self.orient[i] = 1 if sb > sa else -1
                self.unit_sq[line] = dx * dx + dy * dy
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
        # each line's bars are swept by start; an overlap runs from the later
        # start to the earlier end, and parameters step by |u|^2 per step |u|
        steps = {}
        self.pairs: dict[Line, list[tuple[int, int]]] = {}
        for line, group in self.bars.items():
            pairs = self.pairs[line] = []
            unit_sq = self.unit_sq[line]
            active: list[tuple[int, int]] = []
            for lo, hi, j in group:
                active = [(h, i) for h, i in active if h > lo]
                for h, i in active:
                    pairs.append((min(i, j), max(i, j)))
                    steps[i, j] = steps[j, i] = (min(h, hi) - lo) // unit_sq
                active.append((hi, j))
            pairs.sort()
        self.steps = dict(sorted(steps.items()))

    def length(self, i: int, k: int) -> SqrtRational:
        """k steps along bar i's line in the input's units, with the fields
        overlap_length gives on the input's Fractions: bar i is g times u,
        so k/g*sqrt(g^2|u|^2/D^2), which folds to k|u|/D for a square |u|^2."""
        g = math.gcd(*vsub(*self.segments[i]))
        unit_sq = self.unit_sq[self.line_of[i]]
        return SqrtRational(Fraction(k, g), Fraction(g * g * unit_sq, self.D**2))

    def in_steps(self, i: int, j: int, v: SqrtRational) -> int | None:
        """+-t when |v| is the overlap of t steps of pair (i, j), else None."""
        t = self.steps[i, j]
        a, b = v.coeff.numerator, v.coeff.denominator
        r, s = v.radicand.numerator, v.radicand.denominator
        unit_sq = self.unit_sq[self.line_of[i]]
        if a * a * r * self.D**2 != t * t * unit_sq * b * b * s:
            return None
        return t if a > 0 else -t

    @functools.cached_property
    def overlaps(self) -> dict[tuple[int, int], SqrtRational]:
        """The positive overlap_length of every overlapping ordered pair, in
        the input's units and row-major, built the first time it is read."""
        return {(i, j): self.length(i, t) for (i, j), t in self.steps.items()}

    def signed_overlap(self, i: int, j: int) -> SqrtRational:
        """ord_value of bar j over bar i, in the input's units."""
        n, den, scale = _ord_parts(self.segments[i], self.segments[j])
        return SqrtRational(Fraction(n, den), Fraction(scale, self.D**2))


class AnnotationMatrix:
    """Square matrix of signed overlap values, indexed like edges.

    Stored as explicit overrides on top of geometry defaults: an entry
    that is not overridden is the signed overlap on the line index
    ``lines`` the matrix was built from, computed the first time it is
    read and then cached. A matrix built from rows has no index and
    overrides every entry. On an index, an override of an overlapping
    pair is kept as a signed int count of its steps when it is one (every
    layer entry; a value entry of the right magnitude, which ``value``
    gives back as given), else as its SqrtRational; ``sign`` reads either
    form. ``entries`` builds the full grid; matrices compare equal by it.
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
        self._values: dict[tuple[int, int], SqrtRational] = {}

    @classmethod
    def from_configuration(
        cls, configuration: Configuration, overrides=None
    ) -> "AnnotationMatrix":
        """Geometry defaults on the configuration's bars, with off-diagonal
        overrides (SqrtRationals, or ints counting an overlapping pair's steps)."""
        matrix = cls(())
        lines = matrix.lines = configuration.lines()
        matrix.n = len(lines.segments)
        for (i, j), v in (overrides or {}).items():
            if i == j and v != 0:
                raise AnnotationError(f"nonzero diagonal entry at {i}")
            if (i, j) not in lines.steps:
                if not isinstance(v, SqrtRational):
                    raise AnnotationError(f"step count on non-overlapping pair {i}, {j}")
            elif isinstance(v, SqrtRational) and (k := lines.in_steps(i, j, v)) is not None:
                matrix._values[i, j] = v
                v = k
            matrix.overrides[i, j] = v
        return matrix

    @classmethod
    def from_rows(cls, rows) -> "AnnotationMatrix":
        conv = tuple(
            tuple(v if isinstance(v, SqrtRational) else SqrtRational(v) for v in row)
            for row in rows
        )
        return cls(conv)

    def value(self, i: int, j: int) -> SqrtRational:
        v = self._values.get((i, j))
        if v is None:
            k = self.overrides.get((i, j))
            if isinstance(k, SqrtRational):
                return k
            if k is not None:
                v = self.lines.length(i, k)
            else:
                v = SqrtRational(0) if i == j else self.lines.signed_overlap(i, j)
            self._values[i, j] = v
        return v

    def sign(self, i: int, j: int) -> int:
        """The sign of entry (i, j), read without building a SqrtRational."""
        v = self.overrides.get((i, j))
        if v is None:
            segs = self.lines.segments
            return 0 if i == j else ord_sign(segs[i], segs[j])
        return sign(v) if type(v) is int else v.sign()

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
        s, t = annotation.sign(i, j), annotation.sign(j, i)
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

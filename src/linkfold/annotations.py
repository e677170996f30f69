"""Signed overlap values and annotation matrices.

The signed overlap of a directed segment pair measures how much of the
second segment runs on the left of the first minus how much runs on the
right, after projecting onto the first segment's line and clamping to
its span. Values are exact: rational multiples of the first segment's
length, carried as SqrtRational.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AnnotationError
from .geometry import (
    Point,
    canonical_line,
    canonical_line_direction,
    cross,
    dot,
    lattice,
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


def bars_by_line(segs) -> dict[Line, list[tuple[Fraction, Fraction, int]]]:
    """Positive segments grouped by canonical supporting line.

    Each group lists (lo, hi, index): the segment's parameter interval
    along the line's canonical direction, sorted by start parameter.
    """
    groups: dict[Line, list[tuple[Fraction, Fraction, int]]] = {}
    for i, (a, b) in enumerate(segs):
        if a == b:
            continue
        line = canonical_line(a, b)
        dx, dy = canonical_line_direction(line)
        sa, sb = a[0] * dx + a[1] * dy, b[0] * dx + b[1] * dy
        groups.setdefault(line, []).append((min(sa, sb), max(sa, sb), i))
    for group in groups.values():
        group.sort()
    return groups


def stations_by_line(lines, points) -> dict[Line, list[tuple[int, tuple]]]:
    """For each canonical line, the points on it as sorted (param, point).

    Points are integer lattice images, and params run along the line's
    canonical direction, as in bars_by_line. Parallel lines share one
    pass over the points: a x + b y is computed once per direction.
    """
    by_normal: dict[tuple[int, int], set[int]] = {}
    for a, b, c in lines:
        by_normal.setdefault((a, b), set()).add(c)
    out: dict[Line, list[tuple[int, tuple]]] = {line: [] for line in lines}
    for (a, b), cs in by_normal.items():
        dx, dy = canonical_line_direction((a, b, 0))
        for p in points:
            c = a * p[0] + b * p[1]
            if c in cs:
                out[(a, b, c)].append((p[0] * dx + p[1] * dy, p))
    for stations in out.values():
        stations.sort()
    return out


def overlapping_pairs(segs) -> dict[tuple[int, int], SqrtRational]:
    """Positive overlap_length of every overlapping ordered pair, row-major.

    Only collinear bars with a one-dimensional common stretch overlap, so
    each line's bars are swept by start parameter; overlap_length runs
    once per overlapping ordered pair and never on any other pair. The
    scan runs on the segments' integer lattice D*p; a value c*sqrt(r)
    measured there is c*sqrt(r / D^2) back in the input's units.
    """
    D, images = lattice(p for seg in segs for p in seg)
    isegs = list(zip(images[::2], images[1::2]))
    pairs = []
    for group in bars_by_line(isegs).values():
        active: list[tuple[int, int]] = []
        for lo, hi, i in group:
            active = [(h, k) for h, k in active if h > lo]
            pairs.extend((min(i, k), max(i, k)) for _, k in active)
            active.append((hi, i))
    ordered = sorted(pairs + [(j, i) for i, j in pairs])
    out = {(i, j): overlap_length(isegs[i], isegs[j]) for i, j in ordered}
    if D != 1:
        # a square radicand is 1 on both sides; any other stays no square
        for key, v in out.items():
            if v.radicand == 1:
                out[key] = SqrtRational._normal(v.coeff / D, v.radicand)
            else:
                r = Fraction(v.radicand.numerator, D * D)
                out[key] = SqrtRational._normal(v.coeff, r)
    return out


class AnnotationMatrix:
    """Square matrix of signed overlap values, indexed like edges.

    Stored as explicit overrides on top of geometry defaults: an entry
    that is not overridden is ord_value on the matrix's own segments,
    computed the first time it is read and then cached. A matrix built
    from rows has no segments and overrides every entry. ``entries``
    builds the full grid, and matrices compare equal by entries.
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
        self.segments = None  # defaults come from these; None for rows
        self.overrides = {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)}
        self._defaults: dict[tuple[int, int], SqrtRational] = {}
        self._overlap_key = self._overlaps = None  # see overlaps()

    @classmethod
    def from_segments(cls, segments, overrides=None) -> "AnnotationMatrix":
        """Geometry defaults on segments, with off-diagonal overrides."""
        matrix = cls(())
        matrix.n, matrix.segments = len(segments), tuple(segments)
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
                segs = self.segments
                v = SqrtRational(0) if i == j else ord_value(segs[i], segs[j])
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

    def overlaps(self, segs) -> dict[tuple[int, int], SqrtRational]:
        """overlapping_pairs(segs), kept for the segments last asked about."""
        segs = tuple(segs)
        if self._overlap_key != segs:
            self._overlap_key, self._overlaps = segs, overlapping_pairs(segs)
        return self._overlaps


def annotate(linkage: Linkage, configuration: Configuration) -> AnnotationMatrix:
    """Annotation induced by an exact configuration: pairwise signed overlaps."""
    require_conf0(configuration)
    return AnnotationMatrix.from_segments(
        [configuration.segment(e) for e in linkage.edges]
    )

"""SVG rendering of configurations.

With a positive display delta the drawing shows a perturbed snapshot so
coincident bars separate visually; the original geometry is drawn
otherwise, with runs of bars through degree-2 vertices merged into
single polylines.
"""

from __future__ import annotations

from fractions import Fraction
from xml.sax.saxutils import escape

from .annotations import AnnotationMatrix, annotate
from .corridors import delta_bound
from .errors import ValidationFailure
from .geometry import Point
from .linkage import Configuration, Linkage
from .perturb import perturb

_WIDTH = 640  # pixels; the height follows the drawing's aspect ratio
_BAR = "#1f2937"
_NODE = "#b91c1c"
_LABEL = "#6b7280"


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _trails(linkage: Linkage) -> list[list[str]]:
    """Maximal edge runs whose interior vertices have degree 2.

    Returns vertex id paths; each edge appears in exactly one trail.
    """
    unused = set(range(len(linkage.edges)))
    incident: dict[str, list[int]] = {v: [] for v in linkage.vertices}
    for k, e in enumerate(linkage.edges):
        incident[e.tail].append(k)
        incident[e.head].append(k)
    trails = []
    for start_k, start_e in enumerate(linkage.edges):
        if start_k not in unused:
            continue
        # grow in both directions from this seed edge
        path = [start_e.tail, start_e.head]
        unused.discard(start_k)
        for endpoint in (1, 0):
            while True:
                v = path[-1] if endpoint == 1 else path[0]
                options = [k for k in incident[v] if k in unused]
                if len(incident[v]) != 2 or not options:
                    break
                k = options[0]
                e = linkage.edges[k]
                nxt = e.head if e.tail == v else e.tail
                unused.discard(k)
                if endpoint == 1:
                    path.append(nxt)
                else:
                    path.insert(0, nxt)
        trails.append(path)
    return trails


class _Canvas:
    def __init__(self, points: list[Point]) -> None:
        xs = [float(p[0]) for p in points] or [0.0]
        ys = [float(p[1]) for p in points] or [0.0]
        self.minx, self.maxx = min(xs), max(xs)
        self.miny, self.maxy = min(ys), max(ys)
        span = max(self.maxx - self.minx, self.maxy - self.miny, 1e-9)
        self.margin = 0.05 * span
        self.span = span

    def x(self, p: Point) -> float:
        return float(p[0])

    def y(self, p: Point) -> float:
        # svg y axis points down
        return -float(p[1])

    def view_box(self) -> str:
        m = self.margin
        w = self.maxx - self.minx + 2 * m
        h = self.maxy - self.miny + 2 * m
        return " ".join(
            _fmt(v) for v in (self.minx - m, -(self.maxy + m), w, h)
        )


def render_svg(
    linkage: Linkage,
    configuration: Configuration,
    annotation: AnnotationMatrix | None = None,
    display_delta: Fraction = Fraction(0),
    labels: bool = True,
) -> str:
    """Draw a configuration as a standalone SVG string.

    A positive display_delta first validates the annotated configuration
    (raising ValidationFailure when it is not valid) and then draws a
    perturbed snapshot: one path per original bar, dots at the split
    vertex fragments, one label per original vertex.
    """
    if display_delta < 0:
        raise ValueError("display delta must be nonnegative")
    if display_delta > 0:
        if annotation is None:
            annotation = annotate(linkage, configuration)
        bound = delta_bound(linkage, configuration)
        duse = min(Fraction(display_delta), bound / 2)
        try:
            result = perturb(linkage, configuration, annotation, duse)
        except ValidationFailure as exc:
            bad = [c.name for c in exc.report.checks if c.status == "fail"]
            raise ValidationFailure(
                "cannot render an invalid annotated configuration: "
                + ", ".join(bad),
                report=exc.report,
            ) from None
        geo = result.configuration
        ext = result.linkage
        original_ids = {e.id for e in linkage.edges}
        segments = [
            (e.id, geo.point(e.tail), geo.point(e.head)) for e in ext.edges
            if e.id in original_ids
        ]
        nodes = [geo.point(v) for v in ext.vertices]
        label_at = {v: geo.point(f"{v}.0") for v in linkage.vertices}
    else:
        segments = []
        nodes = [configuration.point(v) for v in linkage.vertices]
        label_at = {v: configuration.point(v) for v in linkage.vertices}

    canvas = _Canvas(nodes)
    stroke = 0.012 * canvas.span
    radius = 0.014 * canvas.span
    font = 0.05 * canvas.span

    out = []
    m = canvas.margin
    h_px = _WIDTH * (canvas.maxy - canvas.miny + 2 * m) / (
        canvas.maxx - canvas.minx + 2 * m
    )
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{canvas.view_box()}" '
        f'width="{_WIDTH}" height="{_fmt(h_px)}">'
    )

    if display_delta > 0:
        for _eid, a, b in segments:
            out.append(
                f'<path d="M {_fmt(canvas.x(a))} {_fmt(canvas.y(a))} '
                f'L {_fmt(canvas.x(b))} {_fmt(canvas.y(b))}" '
                f'stroke="{_BAR}" stroke-width="{_fmt(stroke)}" '
                f'stroke-linecap="round" fill="none"/>'
            )
    else:
        for path in _trails(linkage):
            coords = [configuration.point(v) for v in path]
            d = f"M {_fmt(canvas.x(coords[0]))} {_fmt(canvas.y(coords[0]))}"
            for p in coords[1:]:
                d += f" L {_fmt(canvas.x(p))} {_fmt(canvas.y(p))}"
            out.append(
                f'<path d="{d}" stroke="{_BAR}" stroke-width="{_fmt(stroke)}" '
                f'stroke-linecap="round" stroke-linejoin="round" fill="none"/>'
            )

    for p in nodes:
        out.append(
            f'<circle cx="{_fmt(canvas.x(p))}" cy="{_fmt(canvas.y(p))}" '
            f'r="{_fmt(radius)}" fill="{_NODE}"/>'
        )

    if labels:
        for v in linkage.vertices:
            p = label_at[v]
            out.append(
                f'<text x="{_fmt(canvas.x(p) + 1.5 * radius)}" '
                f'y="{_fmt(canvas.y(p) - 1.5 * radius)}" '
                f'font-size="{_fmt(font)}" font-family="sans-serif" '
                f'fill="{_LABEL}">{escape(v)}</text>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"

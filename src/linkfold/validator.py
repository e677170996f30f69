"""Validity checks for annotated configurations.

A configuration with an annotation matrix passes when it survives four
checks run in order: no transversal bar crossings, annotation entries
consistent with the realized geometry, a coherent linear order of the
inbound bar germs at every location, and no interleaving of
direct-connection classes in any of those orders.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations

from .annotations import AnnotationMatrix, LineIndex, line_layering, strict_crossing
from .errors import AnnotationError
from .geometry import angle_descending_key, box_pairs, primitive_direction, vsub
from .linkage import (
    Configuration,
    Linkage,
    merged_vertex_partition,
    require_conf0,
)
from .rationals import SqrtRational

IntVec = tuple[int, int]


@dataclass(frozen=True)
class Inbound:
    """One bar germ entering a location in the magnified picture."""

    edge_index: int
    edge_id: str
    direction: IntVec
    dir_flag: int  # +1 oriented toward the location, -1 away
    vertex: str | None  # endpoint vertex, None for a pass-through half
    kind: str  # "endpoint" | "pass"

    def label(self) -> tuple[str, str]:
        return (self.edge_id, self.vertex if self.vertex is not None else "pass")


@dataclass(frozen=True)
class MagnifiedView:
    location: tuple
    inbounds: tuple[Inbound, ...]
    class_of: tuple[int, ...]
    entrances: tuple[tuple[IntVec, tuple[int, ...]], ...]


def magnified_views(
    linkage: Linkage, configuration: Configuration
) -> tuple[MagnifiedView, ...]:
    """Local pictures at every occupied location of an exact configuration.

    Built on the configuration's integer lattice. Each positive bar gives
    an endpoint germ at both of its ends and a pair of pass germs at each
    location strictly inside it, found by sweeping its line's bars over
    the locations on that line; each location lists its germs in edge
    order.
    """
    require_conf0(configuration)
    C = configuration
    part = merged_vertex_partition(linkage)
    index = C.lines()
    where = {img: C.placement[v] for v, img in C.lattice().items()}
    germs = {img: [] for img in where}  # (edge index, its germs) per location
    ahead: dict[int, IntVec] = {}  # primitive direction tail -> head
    for i, (e, (a, b)) in enumerate(zip(linkage.edges, index.segments)):
        if a == b:
            continue
        u = ahead[i] = primitive_direction(vsub(b, a))
        back = (-u[0], -u[1])
        germs[a].append((i, (Inbound(i, e.id, u, -1, e.tail, "endpoint"),)))
        germs[b].append((i, (Inbound(i, e.id, back, +1, e.head, "endpoint"),)))
    for line, group in index.bars.items():
        params, points = index.stations[line]
        for lo, hi, i in group:
            u, eid = ahead[i], linkage.edges[i].id
            halves = (
                Inbound(i, eid, (-u[0], -u[1]), +1, None, "pass"),
                Inbound(i, eid, u, -1, None, "pass"),
            )
            for p in points[bisect_right(params, lo) : bisect_left(params, hi)]:
                germs[p].append((i, halves))

    views = []
    for img in sorted(where):
        p = where[img]
        inbounds = [ib for _, pair in sorted(germs[img]) for ib in pair]

        # germs connect directly through one merged vertex or as the two
        # halves of one passing bar; classes are numbered by first germ
        number: dict[tuple, int] = {}
        class_of = [
            number.setdefault(
                ("pass", ib.edge_index)
                if ib.vertex is None
                else ("vertex", part.class_of[ib.vertex]),
                len(number),
            )
            for ib in inbounds
        ]

        groups: dict[IntVec, list[int]] = {}
        for k, ib in enumerate(inbounds):
            groups.setdefault(ib.direction, []).append(k)
        entrances = tuple(
            (d, tuple(groups[d]))
            for d in sorted(groups, key=angle_descending_key)
        )
        views.append(
            MagnifiedView(p, tuple(inbounds), tuple(class_of), entrances)
        )
    return tuple(views)


@dataclass(frozen=True)
class CheckReport:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    witness: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    ok: bool
    checks: tuple[CheckReport, ...]
    # edge index -> layer height on its line, 0 at the bottom; empty unless ok
    heights: dict[int, int] = field(default_factory=dict, hash=False)

    def report(self, name: str) -> CheckReport:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_macroscopic(linkage: Linkage, configuration: Configuration) -> CheckReport:
    """No two bars may cross transversally through interior points.

    A crossing lies in both bars' closed bounding boxes, and two bars on
    one line never cross strictly, so only the pairs the box sweep keeps
    across distinct lines are tested, on the integer lattice and in the
    order of the pairwise double loop.
    """
    index = configuration.lines()
    segs, lines = index.segments, index.line_of
    for i, j in box_pairs(segs):
        if lines[i] is None or lines[j] is None or lines[i] == lines[j]:
            continue
        if strict_crossing(segs[i], segs[j]):
            return CheckReport(
                "macroscopic",
                "fail",
                (linkage.edges[i].id, linkage.edges[j].id),
                "bars cross transversally",
            )
    return CheckReport("macroscopic", "pass")


def check_well_annotated(
    linkage: Linkage, configuration: Configuration, annotation: AnnotationMatrix
) -> CheckReport:
    """Entries carry overlap magnitudes on overlapping pairs, exact values elsewhere.

    Defaults from this configuration's own line index are wrong only on
    overlapping pairs, so then just the overrides and the overlapping
    pairs are checked; any other matrix is checked on every pair. An
    entry on an overlapping pair has the right magnitude iff it is
    +-t steps of its line, tested on integers.
    """
    index = configuration.lines()
    steps = index.steps
    n = len(linkage.edges)
    own = annotation.lines is index
    if own:
        # steps run row-major, and the overrides off them are few
        pairs = heapq.merge(steps, sorted(annotation.overrides.keys() - steps.keys()))
    else:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in pairs:
        t = steps.get((i, j))
        if t is not None:
            a = annotation.overrides.get((i, j)) if own else annotation.value(i, j)
            if isinstance(a, SqrtRational):
                a = index.in_steps(i, j, a)
            if a != t and a != -t:
                return CheckReport(
                    "well-annotated",
                    "fail",
                    (linkage.edges[i].id, linkage.edges[j].id),
                    "entry magnitude differs from the overlap length",
                )
        elif annotation.value(i, j) != index.signed_overlap(i, j):
            return CheckReport(
                "well-annotated",
                "fail",
                (linkage.edges[i].id, linkage.edges[j].id),
                "entry differs from the signed overlap",
            )
    return CheckReport("well-annotated", "pass")


@dataclass(frozen=True)
class WellOrderResult:
    report: CheckReport
    orders: tuple[tuple[int, ...], ...]
    heights: dict[int, int] = field(default_factory=dict, hash=False)  # empty if failed


def _beats(annotation: AnnotationMatrix, ia: Inbound, ib: Inbound) -> bool:
    return annotation.sign(ia.edge_index, ib.edge_index) * ia.dir_flag > 0


def check_well_ordered(
    views: tuple[MagnifiedView, ...],
    annotation: AnnotationMatrix,
    configuration: Configuration,
) -> WellOrderResult:
    """Resolve each entrance into a linear order from its line's layering.

    The germs at one entrance are bars covering the next stretch of one
    line, all with one sign of dir_flag times orientation along the line.
    So each line is layered once (line_layering), and an entrance lists
    its germs by layer height times that sign, and the heights are
    returned with the orders. If some line has no layering, its
    entrances are scanned in view order for a witness.
    """
    index = configuration.lines()
    layerings = {line: line_layering(index, annotation, line) for line in index.bars}
    faulty = {line for line, (_, fault) in layerings.items() if fault}
    if faulty:
        return WellOrderResult(_first_fault(views, annotation, index, faulty), ())
    height = {i: h for order, _ in layerings.values() for h, i in enumerate(order)}
    all_orders: list[tuple[int, ...]] = []
    for view in views:
        order: list[int] = []
        for _, idxs in view.entrances:
            ib = view.inbounds[idxs[0]]
            up = ib.dir_flag * index.orient[ib.edge_index]
            order.extend(
                sorted(idxs, key=lambda k: up * height[view.inbounds[k].edge_index])
            )
        all_orders.append(tuple(order))
    return WellOrderResult(
        CheckReport("well-ordered", "pass"), tuple(all_orders), height
    )


def _first_fault(views, annotation, index: LineIndex, faulty: set) -> CheckReport:
    """The first failing entrance on a faulty line, in view order.

    Two germs sharing an entrance must carry mutually consistent nonzero
    annotation entries, and the induced comparison must be transitive.
    """
    for view in views:
        for _, idxs in view.entrances:
            if index.line_of[view.inbounds[idxs[0]].edge_index] not in faulty:
                continue
            for a, b in combinations(idxs, 2):
                ia, ib = view.inbounds[a], view.inbounds[b]
                sa = annotation.sign(ia.edge_index, ib.edge_index)
                sb = annotation.sign(ib.edge_index, ia.edge_index)
                if sa == 0 or sb == 0:
                    detail = "zero annotation between germs at one entrance"
                elif ia.dir_flag * sa != -ib.dir_flag * sb:
                    detail = "annotation pair disagrees about the local order"
                else:
                    continue
                witness = (view.location, ia.label(), ib.label())
                return CheckReport("well-ordered", "fail", witness, detail)
            # each pair has one winner now, so the germs form a tournament,
            # which is transitive iff its win counts all differ
            wins = {
                sum(_beats(annotation, view.inbounds[k], view.inbounds[m]) for m in idxs)
                for k in idxs
            }
            if len(wins) < len(idxs):
                cyc = _find_cycle(annotation, view, idxs)
                witness = (view.location,) + tuple(view.inbounds[k].label() for k in cyc)
                detail = "three-way cycle in the entrance order"
                return CheckReport("well-ordered", "fail", witness, detail)
    raise AnnotationError("a line has no layering, yet no entrance on it fails")


def _find_cycle(
    annotation: AnnotationMatrix, view: MagnifiedView, idxs: tuple[int, ...]
) -> tuple[int, int, int]:
    for a in idxs:
        for b in idxs:
            for c in idxs:
                if len({a, b, c}) != 3:
                    continue
                ia, ib, ic = (view.inbounds[k] for k in (a, b, c))
                if (
                    _beats(annotation, ia, ib)
                    and _beats(annotation, ib, ic)
                    and _beats(annotation, ic, ia)
                ):
                    return (a, b, c)
    raise AnnotationError("intransitive entrance order without a 3-cycle")


def _find_interleave(seq: list[int]) -> tuple[int, int, int, int] | None:
    """First a b a b pattern over class labels, as four positions.

    Each label sits on the stack at most once, so a label -> depth map
    finds it in constant time and the scan is linear.
    """
    remaining: dict[int, int] = {}
    for c in seq:
        remaining[c] = remaining.get(c, 0) + 1
    stack: list[tuple[int, int]] = []  # (label, push position)
    depth: dict[int, int] = {}  # label -> its index in stack
    for p, c in enumerate(seq):
        remaining[c] -= 1
        if stack and stack[-1][0] == c:
            if remaining[c] == 0:
                stack.pop()
                del depth[c]
            continue
        if c in depth:
            # c resurfaces while d sits above it: guaranteed d later on
            d_label, d_pos = stack[-1]
            q = seq.index(d_label, p + 1)
            return (stack[depth[c]][1], d_pos, p, q)
        if remaining[c] > 0:
            depth[c] = len(stack)
            stack.append((c, p))
    return None


def check_microscopic(
    views: tuple[MagnifiedView, ...], orders: tuple[tuple[int, ...], ...]
) -> CheckReport:
    """Direct-connection classes must be non-interleaving in each view order."""
    for view, order in zip(views, orders):
        seq = [view.class_of[k] for k in order]
        hit = _find_interleave(seq)
        if hit is not None:
            witness = tuple(view.inbounds[order[pos]].label() for pos in hit)
            return CheckReport(
                "microscopic",
                "fail",
                (view.location,) + witness,
                "two connection classes interleave",
            )
    return CheckReport("microscopic", "pass")


def validate(
    linkage: Linkage, configuration: Configuration, annotation: AnnotationMatrix
) -> Verdict:
    """Run the four checks in order, short-circuiting on the first failure."""
    if annotation.n != len(linkage.edges):
        raise AnnotationError(
            f"annotation is {annotation.n}x{annotation.n}, "
            f"linkage has {len(linkage.edges)} edges"
        )
    require_conf0(configuration)

    skipped = ["macroscopic", "well-annotated", "well-ordered", "microscopic"]

    def bail(done: list[CheckReport]) -> Verdict:
        names = {c.name for c in done}
        rest = [CheckReport(n, "skipped") for n in skipped if n not in names]
        return Verdict(False, tuple(done + rest))

    r1 = check_macroscopic(linkage, configuration)
    if r1.status == "fail":
        return bail([r1])
    r2 = check_well_annotated(linkage, configuration, annotation)
    if r2.status == "fail":
        return bail([r1, r2])
    views = magnified_views(linkage, configuration)
    wo = check_well_ordered(views, annotation, configuration)
    if wo.report.status == "fail":
        return bail([r1, r2, wo.report])
    r4 = check_microscopic(views, wo.orders)
    if r4.status == "fail":
        return bail([r1, r2, wo.report, r4])
    return Verdict(True, (r1, r2, wo.report, r4), wo.heights)

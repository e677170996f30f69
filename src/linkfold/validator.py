"""Validity checks for annotated configurations.

A configuration with an annotation matrix passes when it survives four
checks run in order: no transversal bar crossings, annotation entries
consistent with the realized geometry, a coherent linear order of the
inbound bar germs at every location, and no interleaving of
direct-connection classes in any of those orders.
"""

from __future__ import annotations

from dataclasses import dataclass

from .annotations import AnnotationMatrix, ord_value, strict_crossing
from .errors import AnnotationError
from .geometry import (
    angle_descending_key,
    in_open_segment,
    primitive_direction,
    vsub,
)
from .linkage import (
    Configuration,
    Linkage,
    merged_vertex_partition,
    require_conf0,
)

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
    """Local pictures at every occupied location of an exact configuration."""
    require_conf0(configuration)
    C = configuration
    part = merged_vertex_partition(linkage)
    locations = sorted(set(C.placement.values()))
    views = []
    for p in locations:
        inbounds: list[Inbound] = []
        for i, e in enumerate(linkage.edges):
            a, b = C.segment(e)
            if a == b:
                continue
            if a == p:
                u = primitive_direction(vsub(b, p))
                inbounds.append(Inbound(i, e.id, u, -1, e.tail, "endpoint"))
            elif b == p:
                u = primitive_direction(vsub(a, p))
                inbounds.append(Inbound(i, e.id, u, +1, e.head, "endpoint"))
            elif in_open_segment(p, a, b):
                ut = primitive_direction(vsub(a, p))
                uh = primitive_direction(vsub(b, p))
                inbounds.append(Inbound(i, e.id, ut, +1, None, "pass"))
                inbounds.append(Inbound(i, e.id, uh, -1, None, "pass"))

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

    def report(self, name: str) -> CheckReport:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_macroscopic(linkage: Linkage, configuration: Configuration) -> CheckReport:
    """No two bars may cross transversally through interior points."""
    segs = [configuration.segment(e) for e in linkage.edges]
    n = len(segs)
    for i in range(n):
        for j in range(i + 1, n):
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

    Defaults on these same segments are wrong only on overlapping pairs,
    so then just the overrides and the overlapping pairs are checked.
    """
    segs = tuple(configuration.segment(e) for e in linkage.edges)
    overlaps = annotation.overlaps(segs)
    n = len(segs)
    if annotation.segments == segs:
        pairs = sorted(overlaps.keys() | annotation.overrides.keys())
    else:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in pairs:
        a = annotation.value(i, j)
        ov = overlaps.get((i, j))
        if ov is not None:
            if a != ov and a != -ov:
                return CheckReport(
                    "well-annotated",
                    "fail",
                    (linkage.edges[i].id, linkage.edges[j].id),
                    "entry magnitude differs from the overlap length",
                )
        elif a != ord_value(segs[i], segs[j]):
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


def _beats(annotation: AnnotationMatrix, ia: Inbound, ib: Inbound) -> bool:
    return annotation.value(ia.edge_index, ib.edge_index).sign() * ia.dir_flag > 0


def check_well_ordered(
    views: tuple[MagnifiedView, ...], annotation: AnnotationMatrix
) -> WellOrderResult:
    """Resolve each entrance into a linear order using annotation signs.

    Two germs sharing an entrance must carry mutually consistent nonzero
    annotation entries, and the induced comparison must be transitive.
    """

    def fail(witness: tuple, detail: str) -> WellOrderResult:
        return WellOrderResult(CheckReport("well-ordered", "fail", witness, detail), ())

    all_orders: list[tuple[int, ...]] = []
    for view in views:
        order: list[int] = []
        for _, idxs in view.entrances:
            if len(idxs) == 1:
                order.extend(idxs)
                continue
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    ia, ib = view.inbounds[idxs[a]], view.inbounds[idxs[b]]
                    va = annotation.value(ia.edge_index, ib.edge_index)
                    vb = annotation.value(ib.edge_index, ia.edge_index)
                    if va.is_zero or vb.is_zero:
                        return fail(
                            (view.location, ia.label(), ib.label()),
                            "zero annotation between germs at one entrance",
                        )
                    if ia.dir_flag * va.sign() != -ib.dir_flag * vb.sign():
                        return fail(
                            (view.location, ia.label(), ib.label()),
                            "annotation pair disagrees about the local order",
                        )
            # each pair has one winner now, so the germs form a tournament,
            # which is transitive iff its win counts all differ
            wins = {
                k: sum(
                    1
                    for m in idxs
                    if m != k and _beats(annotation, view.inbounds[k], view.inbounds[m])
                )
                for k in idxs
            }
            if len(set(wins.values())) != len(idxs):
                cyc = _find_cycle(annotation, view, idxs)
                return fail(
                    (view.location,) + tuple(view.inbounds[k].label() for k in cyc),
                    "three-way cycle in the entrance order",
                )
            order.extend(sorted(idxs, key=lambda k: -wins[k]))
        all_orders.append(tuple(order))
    return WellOrderResult(CheckReport("well-ordered", "pass"), tuple(all_orders))


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
    """First a b a b pattern over class labels, as four positions."""
    remaining: dict[int, int] = {}
    for c in seq:
        remaining[c] = remaining.get(c, 0) + 1
    stack: list[tuple[int, int]] = []  # (label, push position)
    for p, c in enumerate(seq):
        remaining[c] -= 1
        if stack and stack[-1][0] == c:
            if remaining[c] == 0:
                stack.pop()
            continue
        depth = next((d for d in range(len(stack)) if stack[d][0] == c), None)
        if depth is not None:
            # c resurfaces while d sits above it: guaranteed d later on
            d_label, d_pos = stack[-1]
            q = next(i for i in range(p + 1, len(seq)) if seq[i] == d_label)
            return (stack[depth][1], d_pos, p, q)
        if remaining[c] > 0:
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
    wo = check_well_ordered(views, annotation)
    if wo.report.status == "fail":
        return bail([r1, r2, wo.report])
    r4 = check_microscopic(views, wo.orders)
    if r4.status == "fail":
        return bail([r1, r2, wo.report, r4])
    return Verdict(True, (r1, r2, wo.report, r4))

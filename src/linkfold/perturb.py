"""Construction of nearby nontouching configurations.

Every vertex is split into per-edge fragments kept inside a disk of
radius delta around the original location. Positive bars are shifted
off their corridor line by delta^2 times their layer height, fragments
are placed where the shifted bar exits the disk, and all zero-length
material of a merged cluster collapses onto one interior point. The
resulting placement is rationalized and then verified exactly; on any
verification miss the radius is halved and the construction retried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .annotations import AnnotationMatrix, ord_value
from .corridors import CorridorOrder, corridor_order, corridors, delta_bound
from .errors import LinkageError, PerturbationError, ValidationFailure
from .geometry import Point
from .linkage import (
    Configuration,
    ExtensionMap,
    Linkage,
    extend_split,
    merged_vertex_partition,
    touch_witness,
)
from .rationals import SqrtRational
from .validator import validate

GOLDEN_ANGLE = 2.399963229728653
MAX_HALVINGS = 3


class _Miss(Exception):
    def __init__(self, info: tuple) -> None:
        super().__init__(str(info))
        self.info = info


@dataclass(frozen=True)
class PerturbationResult:
    linkage: Linkage
    configuration: Configuration
    extension_map: ExtensionMap
    delta_requested: Fraction
    delta_used: Fraction
    slack: Fraction
    psi: dict[str, int]
    corridor_orders: tuple[CorridorOrder, ...]
    attempts: int
    max_displacement_sq: Fraction


def _circle_exit(
    ax: float, ay: float, bx: float, by: float, r: float
) -> float | None:
    """Parameter s in (0, 1] where A + s(B - A) leaves the disk |p| <= r.

    Requires A strictly inside; returns None when the segment ends
    before reaching the boundary (far endpoint inside too).
    """
    dx, dy = bx - ax, by - ay
    c2 = dx * dx + dy * dy
    if c2 == 0.0:
        return None
    c1 = 2.0 * (ax * dx + ay * dy)
    c0 = ax * ax + ay * ay - r * r
    if c0 >= 0.0:
        return None
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return None
    s = (-c1 + math.sqrt(disc)) / (2.0 * c2)
    if s <= 0.0 or s > 1.0:
        return None
    return s


def _float_displacements(
    linkage: Linkage,
    configuration: Configuration,
    psi_map: dict[str, tuple[int, tuple[float, float]]],
    da: float,
) -> dict[tuple[str, int], tuple[float, float]]:
    """Fragment displacement vectors (relative to the home location).

    Positive-bar fragments go to the disk exit of their shifted bar.
    All zero-bar fragments of one merged cluster share a single interior
    point, so every zero bar keeps realized length exactly zero and the
    cluster stays one merged point in the output.
    """
    C = configuration
    part = merged_vertex_partition(linkage)
    disp: dict[tuple[str, int], tuple[float, float]] = {}
    golden_count: dict[Point, int] = {}
    cluster_dirs: dict[int, list[tuple[float, float]]] = {}
    cluster_exits: dict[int, list[tuple[float, float]]] = {}
    pending_zero: list[tuple[str, int, int, Point]] = []
    for v in linkage.vertices:
        p = C.placement[v]
        slots = linkage.incident_slots(v)
        if not slots:
            k = golden_count.get(p, 0)
            golden_count[p] = k + 1
            ang = k * GOLDEN_ANGLE
            disp[(v, 0)] = (0.55 * da * math.cos(ang), 0.55 * da * math.sin(ang))
            continue
        cid = part.class_of[v]
        for k, ei in enumerate(slots):
            e = linkage.edges[ei]
            if e.rest_length == 0:
                pending_zero.append((v, k, cid, p))
                continue
            w = e.head if e.tail == v else e.tail
            q = C.placement[w]
            h, (ux, uy) = psi_map[e.id]
            shx, shy = da * da * h * ux, da * da * h * uy
            ax, ay = shx, shy
            bx = float(q[0] - p[0]) + shx
            by = float(q[1] - p[1]) + shy
            s = _circle_exit(ax, ay, bx, by, da)
            if s is None:
                raise _Miss(("no disk exit on shifted bar", v, e.id))
            fx, fy = ax + s * (bx - ax), ay + s * (by - ay)
            disp[(v, k)] = (fx, fy)
            nrm = math.hypot(fx, fy)
            cluster_dirs.setdefault(cid, []).append((fx / nrm, fy / nrm))
            if h:
                cluster_exits.setdefault(cid, []).append((fx, fy))
    centers: dict[int, tuple[float, float]] = {}
    for v, k, cid, p in pending_zero:
        if cid not in centers:
            # the mean exit of the raised bars keeps their offset normal to
            # the corridor, so extension bars from the centre cross no bar
            # layered between them; a unit mean direction would shrink it
            exits = cluster_exits.get(cid, [])
            ex = sum(x for x, _ in exits) / max(len(exits), 1)
            ey = sum(y for _, y in exits) / max(len(exits), 1)
            dirs = cluster_dirs.get(cid, [])
            mx = sum(d[0] for d in dirs) / max(len(dirs), 1)
            my = sum(d[1] for d in dirs) / max(len(dirs), 1)
            nrm = math.hypot(mx, my)
            if math.hypot(ex, ey) > 0.05 * da:
                centers[cid] = (ex, ey)
            elif nrm > 1e-9:
                bx, by = mx / nrm, my / nrm
                centers[cid] = (0.45 * da * bx, 0.45 * da * by)
            else:
                g = golden_count.get(p, 0)
                golden_count[p] = g + 1
                ang = g * GOLDEN_ANGLE
                centers[cid] = (0.45 * da * math.cos(ang), 0.45 * da * math.sin(ang))
        disp[(v, k)] = centers[cid]
    return disp


def _rationalized_snapshot(
    linkage: Linkage,
    configuration: Configuration,
    disp: dict[tuple[str, int], tuple[float, float]],
    da: Fraction,
) -> tuple[dict[str, Point], Fraction]:
    """Exact fragment placement with displacements clamped inside da."""
    scale = 10**12
    da2 = da * da
    placement: dict[str, Point] = {}
    max_d2 = Fraction(0)
    for v in linkage.vertices:
        p = configuration.placement[v]
        for k in range(max(linkage.degree(v), 1)):
            fx, fy = disp.get((v, k), (0.0, 0.0))
            dx = Fraction(int(fx * scale), scale)
            dy = Fraction(int(fy * scale), scale)
            while dx * dx + dy * dy > da2:
                dx *= Fraction(99, 100)
                dy *= Fraction(99, 100)
            d2 = dx * dx + dy * dy
            if d2 > max_d2:
                max_d2 = d2
            placement[f"{v}.{k}"] = (p[0] + dx, p[1] + dy)
    return placement, max_d2


def _sign_check(
    prep: _Prepared, cdelta: Configuration, da: Fraction
) -> tuple | None:
    """Annotation signs must survive on pairs with robust overlaps.

    ord_value keeps its sign when every point is scaled by D > 0, so the
    signs are read on the snapshot's integer lattice.
    """
    linkage = prep.linkage
    images = cdelta.lattice()
    new_segs = [
        (images[e.tail], images[e.head])
        for e in prep.extended.edges[: len(linkage.edges)]
    ]
    for (i, j), ov in prep.overlaps.items():
        want = prep.annotation.value(i, j).sign()
        got = ord_value(new_segs[i], new_segs[j]).sign()
        if got == want:
            continue
        # an overlap thinner than the drift budget may close up entirely
        if got == 0 and ov < 4 * da:
            continue
        return ("sign flipped", linkage.edges[i].id, linkage.edges[j].id)
    return None


@dataclass(frozen=True)
class _Prepared:
    """Everything about one validated input that every radius shares."""

    linkage: Linkage
    configuration: Configuration
    annotation: AnnotationMatrix
    bound: Fraction
    orders: tuple[CorridorOrder, ...]
    psi_map: dict[str, tuple[int, tuple[float, float]]]  # edge id -> (layer, normal)
    extended: Linkage
    emap: ExtensionMap
    overlaps: dict[tuple[int, int], SqrtRational]


def _prepare(
    linkage: Linkage, configuration: Configuration, annotation: AnnotationMatrix
) -> _Prepared:
    """Validate once, bound the radius, and build the layering."""
    verdict = validate(linkage, configuration, annotation)
    if not verdict.ok:
        raise ValidationFailure("configuration fails validation", verdict)
    bound = delta_bound(linkage, configuration)

    cors = corridors(linkage, configuration)
    orders = tuple(
        corridor_order(c, annotation, linkage, configuration) for c in cors
    )
    psi_map: dict[str, tuple[int, tuple[float, float]]] = {}
    for co in orders:
        nx, ny = co.corridor.normal
        nrm = math.hypot(nx, ny)
        u = (nx / nrm, ny / nrm)
        for eid, h in co.psi.items():
            psi_map[eid] = (h, u)

    extended, _, emap = extend_split(linkage, configuration)
    return _Prepared(
        linkage, configuration, annotation, bound, orders, psi_map, extended, emap,
        configuration.lines().overlaps,
    )


def _attempt(
    prep: _Prepared, delta: Fraction, max_halvings: int = MAX_HALVINGS
) -> PerturbationResult:
    """Try delta, then up to max_halvings halvings of it, on a prepared input."""
    if not (0 < delta < prep.bound):
        raise PerturbationError(
            f"delta {delta} outside the admissible range (0, {prep.bound})"
        )
    linkage, configuration, extended = prep.linkage, prep.configuration, prep.extended
    nedges = max(len(linkage.edges), 1)
    offending: tuple | None = None
    for attempt in range(max_halvings + 1):
        da = delta / (2**attempt)
        if da * nedges >= 1:
            raise PerturbationError("delta too large for the layer offsets")
        try:
            disp = _float_displacements(linkage, configuration, prep.psi_map, float(da))
        except _Miss as miss:
            offending = miss.info
            continue
        snapshot, max_d2 = _rationalized_snapshot(linkage, configuration, disp, da)
        eps = 2 * da
        try:
            cdelta = Configuration(extended, snapshot, eps)
        except LinkageError:
            offending = ("membership violated",)
            continue
        witness = touch_witness(extended, cdelta)
        if witness is not None:
            offending = witness
            continue
        sig = _sign_check(prep, cdelta, da)
        if sig is not None:
            offending = sig
            continue
        return PerturbationResult(
            linkage=extended,
            configuration=cdelta,
            extension_map=prep.emap,
            delta_requested=delta,
            delta_used=da,
            slack=eps,
            psi={eid: h for eid, (h, _) in prep.psi_map.items()},
            corridor_orders=prep.orders,
            attempts=attempt + 1,
            max_displacement_sq=max_d2,
        )
    raise PerturbationError(
        "no admissible perturbation found after retries", offending
    )


def perturb(
    linkage: Linkage,
    configuration: Configuration,
    annotation: AnnotationMatrix,
    delta,
    *,
    max_halvings: int = MAX_HALVINGS,
) -> PerturbationResult:
    """Produce a verified nontouching configuration within distance delta.

    The input must pass validation and delta must lie strictly inside
    (0, delta_bound). The output extends the linkage by vertex
    splitting, carries slack 2 * delta_used, and is checked exactly:
    fragment containment, membership, nontouching, and preserved
    annotation signs on overlapping pairs.
    """
    prep = _prepare(linkage, configuration, annotation)
    return _attempt(prep, Fraction(delta), max_halvings)


@dataclass(frozen=True)
class ProbeEntry:
    delta: Fraction
    delta_used: Fraction
    attempts: int
    max_displacement: float
    pair_values: dict[tuple[str, str], object]
    max_deviation: float


@dataclass(frozen=True)
class ProbeReport:
    bound: Fraction
    entries: tuple[ProbeEntry, ...]
    converging: bool


def convergence_probe(
    linkage: Linkage,
    configuration: Configuration,
    annotation: AnnotationMatrix,
    deltas,
) -> ProbeReport:
    """Perturb at a decreasing sequence of radii and track overlap drift."""
    ds = [Fraction(d) for d in deltas]
    for a, b in zip(ds, ds[1:]):
        if not b < a:
            raise PerturbationError("delta sequence must be strictly decreasing")
    if not ds:
        return ProbeReport(delta_bound(linkage, configuration), (), True)
    prep = _prepare(linkage, configuration, annotation)
    entries = []
    for d in ds:
        res = _attempt(prep, d)
        snap = res.configuration.placement
        pair_values: dict[tuple[str, str], object] = {}
        max_dev = 0.0
        for (i, j), ov in prep.overlaps.items():
            ei, ej = res.linkage.edges[i], res.linkage.edges[j]
            val = ord_value(
                (snap[ei.tail], snap[ei.head]), (snap[ej.tail], snap[ej.head])
            )
            pair_values[(ei.id, ej.id)] = val
            max_dev = max(max_dev, abs(abs(float(val)) - float(ov)))
        entries.append(
            ProbeEntry(
                delta=d,
                delta_used=res.delta_used,
                attempts=res.attempts,
                max_displacement=math.sqrt(float(res.max_displacement_sq)),
                pair_values=pair_values,
                max_deviation=max_dev,
            )
        )
    conv = all(
        b.max_deviation <= a.max_deviation + 1e-12
        for a, b in zip(entries, entries[1:])
    )
    return ProbeReport(bound=prep.bound, entries=tuple(entries), converging=conv)

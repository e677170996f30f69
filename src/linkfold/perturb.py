"""Construction of nearby nontouching configurations.

Every vertex is split into per-edge fragments kept inside a disk of
radius delta around the original location. Positive bars are shifted
off their corridor line by delta^2 times their layer height, fragments
are placed where the shifted bar exits the disk, and all zero-length
material of a merged cluster collapses onto one interior point. Floats
steer this placement once, at delta itself; the rationalized snapshot
is then certified exactly: every fragment inside the disk, membership,
nontouching, and annotation signs. A valid input is a limit of
nontouching configurations, so the construction succeeds at every
radius below delta_bound and is never retried: any miss raises
PerturbationError with the witness as its offending tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .annotations import AnnotationMatrix, ord_sign, ord_value
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
from .validator import validate

GOLDEN_ANGLE = 2.399963229728653


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


def _circle_exit(ax: float, ay: float, bx: float, by: float, r: float) -> float:
    """Parameter s in (0, 1] where A + s(B - A) leaves the disk |p| <= r.

    On a bar of length l shifted by A = r^2 h u normal to it, A lies
    inside (|A| < r since r < 1/n) and B outside (|B|^2 = l^2 + |A|^2,
    and r < l).
    """
    dx, dy = bx - ax, by - ay
    c2 = dx * dx + dy * dy
    c1 = 2.0 * (ax * dx + ay * dy)
    c0 = ax * ax + ay * ay - r * r
    return (-c1 + math.sqrt(c1 * c1 - 4.0 * c2 * c0)) / (2.0 * c2)


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
            ax, ay = da * da * h * ux, da * da * h * uy
            bx = float(q[0] - p[0]) + ax
            by = float(q[1] - p[1]) + ay
            s = _circle_exit(ax, ay, bx, by, da)
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
            # layered between them; a unit mean direction would shrink it,
            # so only a cluster without raised bars takes that direction
            exits = cluster_exits.get(cid)
            dirs = cluster_dirs.get(cid, [])
            mx = sum(d[0] for d in dirs) / max(len(dirs), 1)
            my = sum(d[1] for d in dirs) / max(len(dirs), 1)
            nrm = math.hypot(mx, my)
            if exits:
                centers[cid] = (
                    sum(x for x, _ in exits) / len(exits),
                    sum(y for _, y in exits) / len(exits),
                )
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
) -> tuple[dict[str, Point], Fraction]:
    """Exact fragment placement, displacements truncated to 10^-12, and
    the largest squared displacement."""
    scale = 10**12
    placement: dict[str, Point] = {}
    max_d2 = Fraction(0)
    for v in linkage.vertices:
        p = configuration.placement[v]
        for k in range(max(linkage.degree(v), 1)):
            fx, fy = disp.get((v, k), (0.0, 0.0))
            dx = Fraction(int(fx * scale), scale)
            dy = Fraction(int(fy * scale), scale)
            max_d2 = max(max_d2, dx * dx + dy * dy)
            placement[f"{v}.{k}"] = (p[0] + dx, p[1] + dy)
    return placement, max_d2


def _sign_check(
    prep: _Prepared, cdelta: Configuration, da: Fraction
) -> tuple | None:
    """Annotation signs must survive on pairs with robust overlaps.

    ord_value keeps its sign when every point is scaled by D > 0, so the
    signs are read on the snapshot's integer lattice. An overlap of t
    steps is t|u|/D long, so it is below 4*da = 4p/q iff
    t^2 |u|^2 q^2 < 16 p^2 D^2.
    """
    linkage, index = prep.linkage, prep.configuration.lines()
    images = cdelta.lattice()
    new_segs = [
        (images[e.tail], images[e.head])
        for e in prep.extended.edges[: len(linkage.edges)]
    ]
    p, q, D = da.numerator, da.denominator, index.D
    bound = 16 * p * p * D * D
    for (i, j), t in index.steps.items():
        want = prep.annotation.sign(i, j)
        got = ord_sign(new_segs[i], new_segs[j])
        if got == want:
            continue
        # an overlap thinner than the drift budget may close up entirely
        if got == 0 and t * t * q * q * index.unit_sq[index.line_of[i]] < bound:
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
        linkage, configuration, annotation, bound, orders, psi_map, extended, emap
    )


def _miss(witness: tuple) -> PerturbationError:
    return PerturbationError("no admissible perturbation", witness)


def _attempt(prep: _Prepared, delta: Fraction) -> PerturbationResult:
    """Place the fragments once, at delta, and certify the placement exactly."""
    if not (0 < delta < prep.bound):
        raise PerturbationError(
            f"delta {delta} outside the admissible range (0, {prep.bound})"
        )
    linkage, configuration, extended = prep.linkage, prep.configuration, prep.extended
    disp = _float_displacements(linkage, configuration, prep.psi_map, float(delta))
    snapshot, max_d2 = _rationalized_snapshot(linkage, configuration, disp)
    if max_d2 > delta * delta:
        raise _miss(("fragment outside the disk",))
    eps = 2 * delta
    try:
        cdelta = Configuration(extended, snapshot, eps)
    except LinkageError:
        raise _miss(("membership violated",)) from None
    witness = touch_witness(extended, cdelta) or _sign_check(prep, cdelta, delta)
    if witness is not None:
        raise _miss(witness)
    return PerturbationResult(
        linkage=extended,
        configuration=cdelta,
        extension_map=prep.emap,
        delta_requested=delta,
        delta_used=delta,
        slack=eps,
        psi={eid: h for eid, (h, _) in prep.psi_map.items()},
        corridor_orders=prep.orders,
        attempts=1,
        max_displacement_sq=max_d2,
    )


def perturb(
    linkage: Linkage,
    configuration: Configuration,
    annotation: AnnotationMatrix,
    delta,
    *,
    max_halvings: int = 0,
) -> PerturbationResult:
    """Produce a verified nontouching configuration within distance delta.

    The input must pass validation and delta must lie strictly inside
    (0, delta_bound). The output extends the linkage by vertex
    splitting, carries slack 2 * delta, and is checked exactly:
    fragment containment, membership, nontouching, and preserved
    annotation signs on overlapping pairs. The construction runs once,
    at delta; a miss raises PerturbationError whose offending tuple is
    the witness. max_halvings is unused: no smaller radius is tried.
    """
    prep = _prepare(linkage, configuration, annotation)
    return _attempt(prep, Fraction(delta))


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
        for (i, j), ov in configuration.lines().overlaps.items():
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

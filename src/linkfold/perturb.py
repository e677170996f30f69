"""Construction of nearby nontouching configurations.

Every vertex is split into per-edge fragments kept inside a disk of
radius delta around the original location. A positive bar is shifted
off its corridor line by delta^2 h n / N, where h is its layer height,
n the corridor's integer normal and N = ceil(|n|); its fragments are
placed where the shifted bar exits the disk, rounded inward to a grid
of step 1/K, and all zero-length material of a merged cluster collapses
onto one interior point. The placement is computed on integers, so
every fragment lies inside its disk by construction and the layer
offsets survive at every radius; floats only steer the direction of a
fragment that no bar determines. The snapshot is then certified
exactly: every fragment inside the disk, membership, nontouching, and
annotation signs. A valid input is a limit of nontouching
configurations, so the construction succeeds at every radius below
delta_bound and is never retried: any miss raises PerturbationError
with the witness as its offending tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .annotations import AnnotationMatrix, ord_sign, ord_value
from .corridors import delta_bound
from .errors import LinkageError, PerturbationError, ValidationFailure
from .geometry import Point, canonical_line_direction, rot90ccw
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
    attempts: int
    max_displacement_sq: Fraction


def _toward(v: tuple[int, int], room: int, K: int) -> tuple[int, int]:
    """The longest (m/K) v, m an int, with squared length at most room,
    each coordinate truncated toward zero (exact when K divides v)."""
    m = math.isqrt(K * K * room // (v[0] * v[0] + v[1] * v[1]))
    return tuple(m * c // K if c >= 0 else -(-m * c // K) for c in v)


def _snapshot(prep: _Prepared, delta: Fraction) -> tuple[dict[str, Point], Fraction]:
    """Every fragment's exact location at radius delta = p/q, and the
    largest squared displacement.

    Displacements are integer vectors in units of 1/M, M = K q D with D
    the input's lattice denominator: one denominator for every fragment
    but the mean centres below. A positive-bar fragment sits at A + s d,
    with A = delta^2 h n / N normal to the bar vector d, so
    |A + s d|^2 = |A|^2 + s^2 |d|^2 and the largest s = m/K inside the
    disk takes one isqrt. K = q 2^40 (ceil(l_max) + 1) lcm(N), the lcm
    over the raised bars (h != 0) only, keeps the inward rounding below
    delta 2^-40 for every bar, and makes every offset exact. A zero-length
    cluster's centre is the exact mean exit of its raised bars; without
    them it lies 0.45 delta along the sum of its exits, or along a
    golden-angle direction when that sum is zero, as an isolated vertex
    does at 0.55 delta.
    """
    linkage, C = prep.linkage, prep.configuration
    images, D = C.lattice(), C.lines().D
    p, q = delta.numerator, delta.denominator
    K = q * 2**40 * prep.grid
    scale = K * q  # M / D: one lattice step in units of 1/M
    M = scale * D
    r2 = (p * M // q) ** 2
    part = merged_vertex_partition(linkage)
    placement: dict[str, Point] = {}
    best = 0
    exits: dict[int, list[tuple[tuple[int, int], int]]] = {}
    pending: list[tuple[str, int, tuple[int, int]]] = []
    golden_count: dict[tuple[int, int], int] = {}

    def golden(home: tuple[int, int]) -> tuple[int, int]:
        k = golden_count.get(home, 0)
        golden_count[home] = k + 1
        ang = k * GOLDEN_ANGLE
        return round(2**30 * math.cos(ang)), round(2**30 * math.sin(ang))

    def place(home: tuple[int, int], f: tuple[int, int]) -> Point:
        nonlocal best
        best = max(best, f[0] * f[0] + f[1] * f[1])
        return Fraction(home[0] + f[0], M), Fraction(home[1] + f[1], M)

    for v in linkage.vertices:
        img = images[v]
        home = (img[0] * scale, img[1] * scale)
        slots = linkage.incident_slots(v)
        if not slots:
            f = _toward(golden(home), 121 * r2 // 400, K)
            placement[f"{v}.0"] = place(home, f)
            continue
        cid = part.class_of[v]
        for k, ei in enumerate(slots):
            e = linkage.edges[ei]
            if e.rest_length == 0:
                placement[f"{v}.{k}"] = None  # keeps the vertex order
                pending.append((f"{v}.{k}", cid, home))
                continue
            w = images[e.head if e.tail == v else e.tail]
            h, (nx, ny), N = prep.psi_map[e.id]
            lift = p * p * h * (M // (q * q * N))
            ax, ay = nx * lift, ny * lift
            d = ((w[0] - img[0]) * scale, (w[1] - img[1]) * scale)
            sx, sy = _toward(d, r2 - ax * ax - ay * ay, K)
            f = (ax + sx, ay + sy)
            placement[f"{v}.{k}"] = place(home, f)
            exits.setdefault(cid, []).append((f, h))
    centres: dict[int, Point] = {}
    for name, cid, home in pending:
        if cid not in centres:
            # the mean exit of the raised bars keeps their offset normal to
            # the corridor, so extension bars from the centre cross no bar
            # layered between them; as a mean of fragments inside the disk
            # it never raises the largest displacement
            raised = [f for f, h in exits.get(cid, ()) if h]
            if raised:
                c = len(raised)
                centres[cid] = tuple(
                    Fraction(home[i] * c + sum(f[i] for f in raised), M * c)
                    for i in (0, 1)
                )
            else:
                fs = [f for f, _ in exits.get(cid, ())]
                s = (sum(f[0] for f in fs), sum(f[1] for f in fs))
                if s == (0, 0):
                    s = golden(home)
                centres[cid] = place(home, _toward(s, 81 * r2 // 400, K))
        placement[name] = centres[cid]
    return placement, Fraction(best, M * M)


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
    # edge id -> (layer h, corridor normal n, N = ceil(|n|))
    psi_map: dict[str, tuple[int, tuple[int, int], int]]
    grid: int  # (ceil(l_max) + 1) lcm(N | h != 0), the delta-free factor of K
    extended: Linkage
    emap: ExtensionMap


def _prepare(
    linkage: Linkage, configuration: Configuration, annotation: AnnotationMatrix
) -> _Prepared:
    """Validate once, bound the radius, and read the layering off the
    verdict: each bar's height, and its line's left normal n."""
    verdict = validate(linkage, configuration, annotation)
    if not verdict.ok:
        raise ValidationFailure("configuration fails validation", verdict)
    bound = delta_bound(linkage, configuration)

    line_of = configuration.lines().line_of
    psi_map = {}
    for i, h in verdict.heights.items():
        n = rot90ccw(canonical_line_direction(line_of[i]))
        N = math.isqrt(n[0] * n[0] + n[1] * n[1] - 1) + 1
        psi_map[linkage.edges[i].id] = (h, n, N)
    reach = max((math.ceil(e.rest_length) for e in linkage.edges), default=0) + 1
    # a bar at height 0 gets no offset, so its N never divides one
    grid = reach * math.lcm(*(N for h, _, N in psi_map.values() if h))

    extended, _, emap = extend_split(linkage, configuration)
    return _Prepared(
        linkage, configuration, annotation, bound, psi_map, grid, extended, emap
    )


def _miss(witness: tuple) -> PerturbationError:
    return PerturbationError("no admissible perturbation", witness)


def _attempt(prep: _Prepared, delta: Fraction) -> PerturbationResult:
    """Place the fragments once, at delta, and certify the placement exactly."""
    if not (0 < delta < prep.bound):
        raise PerturbationError(
            f"delta {delta} outside the admissible range (0, {prep.bound})"
        )
    extended = prep.extended
    snapshot, max_d2 = _snapshot(prep, delta)
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
        psi={eid: h for eid, (h, _, _) in prep.psi_map.items()},
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
    annotation signs on overlapping pairs. The fragments are placed
    exactly, on integers, so layer offsets of order delta^2 survive at
    any radius however small. The construction runs once, at delta; a
    miss raises PerturbationError whose offending tuple is the witness.
    max_halvings is unused: no smaller radius is tried.
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

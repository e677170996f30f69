"""Shared fixtures: hand-built gadgets and randomized corpora.

Layered gadgets carry a height map (bar id -> integer layer) from which
the annotation matrix is derived: overlapping bars get +-overlap with
the sign seen from each bar's own left side, disjoint bars keep their
geometric order value.
"""

from __future__ import annotations

import heapq
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from linkfold.adornments import AdornedChain, Adornment, adorned_chain_to_linkage
from linkfold.annotations import (
    AnnotationMatrix,
    annotate,
    ord_value,
    overlap_length,
)
from linkfold.corridors import Corridor, CorridorOrder, CorridorSegment
from linkfold.geometry import (
    angle_descending_key,
    canonical_line,
    canonical_line_direction,
    cross,
    dot,
    in_open_segment,
    lattice,
    on_closed_segment,
    orient,
    point_on_line,
    primitive_direction,
    properly_cross,
    rot90ccw,
    shoelace2,
    sign,
    sqdist,
    sqnorm,
    vsub,
)
from linkfold.document import SparseAnnotation, parse_linkage_file, resolve_annotations
from linkfold.chains import (
    ChainShape,
    InterpolationResult,
    classify_chain,
    turning_direction,
)
from linkfold.errors import (
    AdornmentError,
    ChainError,
    CorridorError,
    DocumentError,
    LinkageError,
)
from linkfold.linkage import (
    Configuration,
    DisjointSets,
    Edge,
    Linkage,
    certify_epsilon,
    configuration_membership,
    is_nontouching,
    merged_vertex_partition,
    require_conf0,
)
from linkfold.rationals import SqrtRational, sqrt_lower_bound
from linkfold.semialgebra import (
    And,
    Atom,
    ConstraintSystem,
    Not,
    Or,
    Poly,
    TaggedAssert,
)
from linkfold.validator import (
    CheckReport,
    Inbound,
    MagnifiedView,
    WellOrderResult,
    _beats,
    _find_cycle,
)

F = Fraction
DOCS_DIR = Path(__file__).parent / "data" / "docs"


def mk_linkage(edge_specs, vertices=None):
    """Edges as (id, tail, head, rest). Vertex order is first appearance."""
    if vertices is None:
        seen = []
        for _, tail, head, _ in edge_specs:
            for v in (tail, head):
                if v not in seen:
                    seen.append(v)
        vertices = tuple(seen)
    edges = tuple(Edge(eid, t, h, F(r)) for eid, t, h, r in edge_specs)
    return Linkage(tuple(vertices), edges)


def conf(linkage, coords, eps=0):
    placement = {v: (F(x), F(y)) for v, (x, y) in coords.items()}
    return Configuration(linkage, placement, F(eps))


def annotation_from_layers(linkage, configuration, heights):
    """Annotation induced by stacking overlapping bars at integer layers."""
    segs = [configuration.segment(e) for e in linkage.edges]
    n = len(segs)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(SqrtRational(0))
                continue
            ov = overlap_length(segs[i], segs[j])
            if ov.sign() <= 0:
                row.append(ord_value(segs[i], segs[j]))
                continue
            hi = heights[linkage.edges[i].id]
            hj = heights[linkage.edges[j].id]
            if hi == hj:
                raise ValueError("overlapping bars need distinct layers")
            d = canonical_line_direction(canonical_line(*segs[i]))
            orient_i = sign(dot(vsub(segs[i][1], segs[i][0]), d))
            row.append(SqrtRational(ov.coeff * orient_i * (1 if hj > hi else -1), ov.radicand))
        rows.append(tuple(row))
    return AnnotationMatrix(tuple(rows))


def doubled_chain():
    """Two unit bars folded flat onto [0,1], the second on top."""
    L = mk_linkage([("e1", "v0", "v1", 1), ("e2", "v1", "v2", 1)])
    C = conf(L, {"v0": (0, 0), "v1": (1, 0), "v2": (0, 0)})
    A = annotation_from_layers(L, C, {"e1": 0, "e2": 1})
    return L, C, A


def degenerate_triangle():
    """Triangle with lengths 2,1,1 collapsed onto a line (fold at x=1).

    The two short bars form a tent over the long one, so they share a
    layer (they meet only at the fold point) while the long bar stays
    below both.
    """
    L = mk_linkage(
        [("e1", "v0", "v1", 2), ("e2", "v1", "v2", 1), ("e3", "v2", "v0", 1)]
    )
    C = conf(L, {"v0": (0, 0), "v1": (2, 0), "v2": (1, 0)})
    A = annotation_from_layers(L, C, {"e1": 0, "e2": 1, "e3": 1})
    return L, C, A


def zipper5():
    """Five bars zigzagging over [0,4], each overlapping its neighbours."""
    xs = [0, 2, 1, 3, 2, 4]
    specs = []
    for k in range(5):
        specs.append((f"e{k + 1}", f"v{k}", f"v{k + 1}", abs(xs[k + 1] - xs[k])))
    L = mk_linkage(specs)
    C = conf(L, {f"v{k}": (xs[k], 0) for k in range(6)})
    A = annotation_from_layers(L, C, {f"e{k + 1}": k for k in range(5)})
    return L, C, A


def spiral4():
    """Bars of lengths 4,3,2,1 folding inward, fully nested at x=2.5."""
    xs = [0, 4, 1, 3, 2]
    lens = [4, 3, 2, 1]
    specs = []
    for k in range(4):
        specs.append((f"e{k + 1}", f"v{k}", f"v{k + 1}", lens[k]))
    L = mk_linkage(specs)
    C = conf(L, {f"v{k}": (xs[k], 0) for k in range(5)})
    A = annotation_from_layers(L, C, {f"e{k + 1}": k for k in range(4)})
    return L, C, A


def zero_cluster_star():
    """Zero-length triangle at the origin with three unit spokes.

    The spokes appear to meet at one point, but every coincidence is
    backed by a zero-length path, so the configuration is nontouching.
    """
    L = mk_linkage(
        [
            ("z1", "a", "b", 0),
            ("z2", "b", "c", 0),
            ("z3", "c", "a", 0),
            ("e4", "a", "d", 1),
            ("e5", "b", "e", 1),
            ("e6", "c", "f", 1),
        ]
    )
    C = conf(
        L,
        {
            "a": (0, 0),
            "b": (0, 0),
            "c": (0, 0),
            "d": (0, 1),
            "e": (F(-3, 5), F(-4, 5)),
            "f": (F(3, 5), F(-4, 5)),
        },
    )
    return L, C, annotate(L, C)


def interleave_gadget():
    """Four stacked bars whose tails alternate between two glued points."""
    specs = [
        ("E1", "t1", "h1", 1),
        ("E2", "t2", "h2", 1),
        ("E3", "t1", "h3", 1),
        ("E4", "t2", "h4", 1),
    ]
    L = mk_linkage(specs)
    coords = {"t1": (0, 0), "t2": (0, 0)}
    for k in range(1, 5):
        coords[f"h{k}"] = (1, 0)
    C = conf(L, coords)
    A = annotation_from_layers(L, C, {"E1": 0, "E2": 1, "E3": 2, "E4": 3})
    return L, C, A


def cyclic_gadget():
    """Three stacked bars annotated in a rock-paper-scissors cycle.

    Every pair satisfies the two-sided sign identity, yet no total
    order exists at either endpoint location.
    """
    specs = [
        ("F1", "t1", "h1", 1),
        ("F2", "t2", "h2", 1),
        ("F3", "t3", "h3", 1),
    ]
    L = mk_linkage(specs)
    coords = {}
    for k in range(1, 4):
        coords[f"t{k}"] = (0, 0)
        coords[f"h{k}"] = (1, 0)
    C = conf(L, coords)
    rows = [
        [0, -1, 1],
        [1, 0, -1],
        [-1, 1, 0],
    ]
    return L, C, AnnotationMatrix.from_rows(rows)


def layered_strip(xs, hinged=False, frame=((1, 0, 1), (0, 0))):
    """Flat strip through stations xs, bar k at layer k; (L, C, heights).

    Hinged strips split every fold vertex into two co-located vertices
    joined by a zero-length bar, as the benchmark's hinged fold strips
    are. frame = ((dx, dy, norm), origin) places station x at origin +
    x * (dx, dy) / norm, so rational directions keep coordinates exact.
    """
    (dx, dy, nm), (ox, oy) = frame

    def at(x):
        return (ox + F(x * dx, nm), oy + F(x * dy, nm))

    specs, coords, heights = [], {"v0": at(xs[0])}, {}
    prev, count = "v0", 1
    n = len(xs) - 1
    for k in range(n):
        head = f"v{count}"
        count += 1
        coords[head] = at(xs[k + 1])
        specs.append((f"e{k + 1}", prev, head, abs(xs[k + 1] - xs[k])))
        heights[f"e{k + 1}"] = k
        prev = head
        if hinged and k < n - 1:
            prev = f"v{count}"
            count += 1
            coords[prev] = coords[head]
            specs.append((f"h{k + 1}", head, prev, 0))
    L = mk_linkage(specs)
    return L, conf(L, coords), heights


def hinged_strip(xs):
    """Hinged layered_strip on the x-axis with its layered annotation."""
    L, C, heights = layered_strip(xs, hinged=True)
    return L, C, annotation_from_layers(L, C, heights)


def layer_entries(linkage, configuration, heights):
    """Document layer entries, both orders, for every overlapping bar pair."""
    return sign_entries(
        linkage, configuration, lambda a, b: b if heights[b] > heights[a] else a
    )


def random_sign_entries(rng: random.Random, linkage, configuration):
    """Layer entries for every overlapping pair, each pair's upper bar a
    coin toss: consistent in both orders, often cyclic."""
    tosses = {}
    return sign_entries(
        linkage,
        configuration,
        lambda a, b: tosses.setdefault(frozenset((a, b)), rng.choice((a, b))),
    )


def sign_entries(linkage, configuration, upper):
    """Layer entries, both orders, for every overlapping bar pair;
    upper(a, b) names which of the bars a and b lies above."""
    segs = [configuration.segment(e) for e in linkage.edges]
    entries = []
    for i, j in reference_overlapping_pairs(segs):
        d = canonical_line_direction(canonical_line(*segs[i]))
        orient_i = sign(dot(vsub(segs[i][1], segs[i][0]), d))
        ei, ej = linkage.edges[i].id, linkage.edges[j].id
        up = 1 if upper(ei, ej) == ej else -1
        entries.append(SparseAnnotation(ei, ej, layer=orient_i * up))
    return tuple(entries)


def random_strip_xs(rng: random.Random, n: int):
    """Stations of an n-bar zigzag or nested-spiral strip starting at 0;
    every later station is positive."""
    xs = [0]
    if rng.random() < 0.5:
        for k in range(n):
            last = rng.randint(2, 4) if k % 2 == 0 else -rng.randint(1, last - 1)
            xs.append(xs[-1] + last)
    else:
        lengths = sorted(rng.sample(range(1, 3 * n + 1), n), reverse=True)
        for k, length in enumerate(lengths):
            xs.append(xs[-1] + (length if k % 2 == 0 else -length))
    return xs


def random_layered_flat(rng: random.Random, n: int):
    """Zigzag or nested-spiral strip of n bars, maybe hinged, in a random
    rational frame; returns (L, C, heights)."""
    xs = random_strip_xs(rng, n)
    origin = (F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3)))
    frame = (rng.choice(RATIONAL_DIRS), origin)
    return layered_strip(xs, hinged=rng.random() < 0.3, frame=frame)


def random_layered_fan(rng: random.Random):
    """2-4 layered strips of 2-6 bars on distinct lines through one hub.

    Each strip is a random zigzag or nested spiral, maybe hinged, along
    its own Pythagorean direction out of the shared vertex "o", so the
    strips meet only there; bar k of a strip is at layer k. Returns
    (L, C, heights).
    """
    dirs, k = [], rng.randint(2, 4)
    while len(dirs) < k:
        d = rng.choice(RATIONAL_DIRS)
        if all(cross(d[:2], e[:2]) != 0 for e in dirs):
            dirs.append(d)
    origin = (F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3)))
    specs, coords, heights = [], {}, {}
    for tag, d in zip("abcd", dirs):
        xs = random_strip_xs(rng, rng.randint(2, 6))
        Ls, Cs, hs = layered_strip(xs, hinged=rng.random() < 0.3, frame=(d, origin))

        def name(v, tag=tag):
            return "o" if v == "v0" else tag + v

        specs += [
            (tag + e.id, name(e.tail), name(e.head), e.rest_length) for e in Ls.edges
        ]
        coords.update((name(v), p) for v, p in Cs.placement.items())
        heights.update((tag + e, h) for e, h in hs.items())
    L = mk_linkage(specs)
    return L, conf(L, coords), heights


def mutated_annotation(rng: random.Random, C, A, overlapping):
    """A with one entry negated, doubled or zeroed, half the time on an
    overlapping pair; returns (matrix, pair)."""
    if overlapping and rng.random() < 0.5:
        pair = rng.choice(sorted(overlapping))
    else:
        i, j = rng.sample(range(A.n), 2)
        pair = (i, j)
    v = A.value(*pair)
    new = rng.choice([SqrtRational(k * v.coeff, v.radicand) for k in (-1, 2, 0)])
    return AnnotationMatrix.from_configuration(C, {**A.overrides, pair: new}), pair


def corpus_geometries():
    """(name, L, C, A) for every document in tests/data/docs.

    Exact placements carry the document's resolved annotation. Unplaced
    linkages get vertex k at (k mod 3, 0) with an epsilon that admits it,
    so their bars overlap along one line; adornment-only documents give
    one linkage per adornment. A slack placement keeps geometry defaults.
    """
    out = []
    for path in sorted(DOCS_DIR.glob("*.json")):
        doc = parse_linkage_file(path.read_text(encoding="utf-8"))
        if doc.linkage is None:
            chains = [AdornedChain((a,)) for a in doc.adornments]
            placed = [adorned_chain_to_linkage(chain) for chain in chains]
        elif doc.configuration is None:
            L = doc.linkage
            P = {v: (F(k % 3), F(0)) for k, v in enumerate(L.vertices)}
            placed = [(L, Configuration(L, P, big_eps(L, P)))]
        else:
            placed = [(doc.linkage, doc.configuration)]
        for L, C in placed:
            if C.epsilon == 0:
                A = resolve_annotations(L, C, doc.annotations)
            else:
                A = AnnotationMatrix.from_configuration(C)
            out.append((path.stem, L, C, A))
    return out


def sweep_inputs(rng: random.Random, flats=150, contacts=150):
    """Exact (L, C) inputs for the view and corridor oracles.

    Every exact corpus geometry; random layered flats in random rational
    frames; random trees, half of them with zero-length clusters glued
    on, with isolated vertices and zero-bar pairs dropped onto their
    bars (T-contacts, so pass germs) or next to them.
    """
    out = [(L, C) for _, L, C, _ in corpus_geometries() if C.is_exact()]
    for _ in range(flats):
        L, C, _ = random_layered_flat(rng, rng.randint(2, 12))
        out.append((L, C))
    for k in range(contacts):
        L, C = random_zero_linkage(rng) if k % 2 else random_linkage(rng, 3, 7)
        vertices, edges = list(L.vertices), list(L.edges)
        P = dict(C.placement)
        for m in range(rng.randint(0, 4)):
            e = rng.choice(L.edges)
            (ax, ay), (bx, by) = C.segment(e)
            t = F(rng.randint(-4, 12), 8)
            v = f"i{m}"
            vertices.append(v)
            P[v] = (ax + t * (bx - ax), ay + t * (by - ay))
            if rng.random() < 0.4:
                vertices.append(f"j{m}")
                P[f"j{m}"] = P[v]
                edges.append(Edge(f"z{m}", v, f"j{m}", F(0)))
        rng.shuffle(vertices)
        Lx = Linkage(tuple(vertices), tuple(edges))
        out.append((Lx, Configuration(Lx, P)))
    return out


def perturbation_corpus():
    """Named self-touching (or nearly) instances used by the delta sweeps."""
    return [
        ("doubled-chain",) + doubled_chain(),
        ("zipper5",) + zipper5(),
        ("spiral4",) + spiral4(),
        ("degenerate-triangle",) + degenerate_triangle(),
        ("zero-cluster-star",) + zero_cluster_star(),
    ]


def straight_chain(*lengths):
    specs = []
    for k, l in enumerate(lengths):
        specs.append((f"e{k}", f"v{k}", f"v{k + 1}", l))
    L = mk_linkage(specs)
    pos = F(0)
    coords = {"v0": (0, 0)}
    for k, l in enumerate(lengths):
        pos += F(l)
        coords[f"v{k + 1}"] = (pos, 0)
    return L, conf(L, coords)


def pythagorean_chain(n: int):
    """A nontouching chain of n bars along distinct primitive Pythagorean
    directions (a, b, c), all with a, b > 0, in increasing angle.

    x grows along the chain, so bars that are not neighbours lie over
    disjoint x ranges, and no two neighbours are collinear. Each bar is
    the hypotenuse c of its triple, so every length is an integer.
    """
    dirs, m = set(), 2
    while len(dirs) < n:
        for k in range(1 + m % 2, m, 2):
            if math.gcd(m, k) == 1:
                a, b, c = m * m - k * k, 2 * m * k, m * m + k * k
                dirs.update(((a, b, c), (b, a, c)))
        m += 1
    specs, coords = [], {"v0": (0, 0)}
    x = y = 0
    for k, (a, b, c) in enumerate(sorted(dirs, key=lambda d: F(d[1], d[0]))[:n]):
        specs.append((f"e{k}", f"v{k}", f"v{k + 1}", c))
        x, y = x + a, y + b
        coords[f"v{k + 1}"] = (x, y)
    L = mk_linkage(specs)
    return L, conf(L, coords)


def closed_chain_linkage(*lengths):
    n = len(lengths)
    specs = []
    for k, l in enumerate(lengths):
        specs.append((f"e{k}", f"v{k}", f"v{(k + 1) % n}", l))
    return mk_linkage(specs)


# primitive integer vectors with integer length, all eight symmetries
_BASE_TRIPLES = [(1, 0, 1), (3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]
RATIONAL_DIRS = []
for _x, _y, _n in _BASE_TRIPLES:
    for dx, dy in {(_x, _y), (_y, _x), (-_x, _y), (_y, -_x),
                   (_x, -_y), (-_y, _x), (-_x, -_y), (-_y, -_x)}:
        RATIONAL_DIRS.append((dx, dy, _n))
RATIONAL_DIRS.sort()


def random_linkage(rng: random.Random, min_bars=2, max_bars=8):
    """Random tree-ish linkage with rational bar lengths, placed exactly."""
    n = rng.randint(min_bars, max_bars)
    vids = ["v0"]
    coords = {"v0": (F(0), F(0))}
    specs = []
    k = 0
    while k < n:
        tail = rng.choice(vids)
        dx, dy, nm = rng.choice(RATIONAL_DIRS)
        scale = F(rng.randint(1, 8), rng.choice([1, 2, 4]))
        head_pt = (coords[tail][0] + dx * scale, coords[tail][1] + dy * scale)
        head = next((v for v in vids if coords[v] == head_pt), None)
        if head is None:
            head = f"v{len(vids)}"
            vids.append(head)
            coords[head] = head_pt
        if head == tail:
            continue
        specs.append((f"e{k + 1}", tail, head, nm * scale))
        k += 1
    L = mk_linkage(specs, vertices=tuple(vids))
    return L, conf(L, coords)


def random_nontouching(rng: random.Random, min_bars=2, max_bars=8):
    while True:
        L, C = random_linkage(rng, min_bars, max_bars)
        if is_nontouching(L, C):
            return L, C


def random_zero_linkage(rng: random.Random):
    """Random linkage with a few zero-length bars glued onto it."""
    L, C = random_linkage(rng, 2, 5)
    vids = list(L.vertices)
    coords = dict(C.placement)
    specs = [(e.id, e.tail, e.head, e.rest_length) for e in L.edges]
    for z in range(rng.randint(1, 3)):
        anchor = rng.choice(vids)
        if rng.random() < 0.5:
            other = f"z{z}"
            vids.append(other)
            coords[other] = coords[anchor]
        else:
            other = rng.choice(vids)
            if other == anchor or coords[other] != coords[anchor]:
                other = f"z{z}"
                vids.append(other)
                coords[other] = coords[anchor]
        specs.append((f"ze{z}", anchor, other, 0))
    L2 = mk_linkage(specs, vertices=tuple(vids))
    return L2, conf(L2, coords)


def random_closed_lengths(rng: random.Random, kmin=3, kmax=7):
    """Side lengths of a strictly feasible closed chain."""
    while True:
        k = rng.randint(kmin, kmax)
        lens = [F(rng.randint(1, 12), rng.choice([1, 2, 3, 4])) for _ in range(k)]
        if max(lens) < sum(lens) - max(lens):
            return tuple(lens)

def perturbed_closed_pair(rng: random.Random):
    """A closed chain and a nearby one, rest lengths within 10 percent."""
    while True:
        lens1 = random_closed_lengths(rng)
        lens2 = tuple(
            l * (1 + F(rng.randint(-1, 1) * rng.randint(0, 10), 100))
            for l in lens1
        )
        if max(lens2) < sum(lens2) - max(lens2):
            return lens1, lens2


def reference_bisect_radius(too_small, lo, hi):
    """_bisect_radius with all 200 bisection steps; kept as an oracle."""
    tries = 0
    while too_small(hi):
        hi *= 2.0
        tries += 1
        if tries > 400:
            raise ChainError("closure equation does not bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if too_small(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_interpolation_frames(conf_a, conf_b, ts):
    """interpolation_frames with Fraction blends and every frame's turns
    read by orient on its own placement; kept as an oracle. It refuses a
    closed walk of zero area, as turning_direction does."""
    ts = [F(t) for t in ts]
    if not all(0 <= t <= 1 for t in ts):
        raise ChainError("interpolation parameter must lie in [0, 1]")
    la, lb = conf_a.linkage, conf_b.linkage
    sa, sb = classify_chain(la), classify_chain(lb)
    if sa.kind == "other" or sa.kind != sb.kind:
        raise ChainError("interpolation needs two chains of the same kind")
    if sa.vertices != sb.vertices or sa.edges != sb.edges:
        raise ChainError("chains disagree on structure")
    if sa.kind == "closed" and turning_direction(conf_a) != turning_direction(conf_b):
        raise ChainError("closed chains turn in opposite directions")
    floor = max(conf_a.epsilon, conf_b.epsilon) or F(1, 10**12)
    m = len(sa.vertices)
    turns = m if sa.kind == "closed" else m - 2
    pairs = [(ea, lb.edges[lb.edge_index(ea.id)]) for ea in la.edges]
    frames = []
    for t in ts:
        edges = []
        for ea, eb in pairs:
            rest = (1 - t) * ea.rest_length + t * eb.rest_length
            edges.append(Edge(ea.id, ea.tail, ea.head, rest))
        linkage = Linkage(la.vertices, tuple(edges))
        placement = {}
        for v in la.vertices:
            ax, ay = conf_a.placement[v]
            bx, by = conf_b.placement[v]
            placement[v] = ((1 - t) * ax + t * bx, (1 - t) * ay + t * by)
        eps = certify_epsilon(linkage, placement, floor)
        conf = Configuration(linkage, placement, eps)
        pts = [placement[v] for v in sa.vertices]
        signs = {
            sign(orient(pts[i], pts[(i + 1) % m], pts[(i + 2) % m]))
            for i in range(turns)
        }
        frames.append(InterpolationResult(conf, len(signs - {0}) <= 1, t))
    return tuple(frames)


def random_convex_corners(rng: random.Random, k: int):
    """The k corners of a CCW convex polygon with rational corners,
    listed from a random one: the hull of random points, drawn until it
    has k corners."""
    def half(points):
        out = []
        for p in points:
            while len(out) >= 2 and orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    while True:
        den = rng.choice((1, 2, 3, 7))
        pts = sorted(
            {(F(rng.randint(-9, 9), den), F(rng.randint(-9, 9), den)) for _ in range(2 * k)}
        )
        hull = half(pts) + half(pts[::-1])
        if len(hull) == k:
            s = rng.randrange(k)
            return hull[s:] + hull[:s]


def assignment_of(placement):
    out = {}
    for v, (x, y) in placement.items():
        out[f"x_{v}"] = F(x)
        out[f"y_{v}"] = F(y)
    return out


def segments_configuration(segs):
    """One bar e<k> per segment, on endpoints of its own, with ample slack."""
    L = mk_linkage([(f"e{k}", f"t{k}", f"h{k}", 0) for k in range(len(segs))])
    P = {}
    for k, (a, b) in enumerate(segs):
        P[f"t{k}"], P[f"h{k}"] = a, b
    return Configuration(L, P, big_eps(L, P))


def big_eps(linkage, placement):
    """A slack bound that certifies any placement of this linkage."""
    s = sum((e.rest_length for e in linkage.edges), F(0))
    for x, y in placement.values():
        s += abs(F(x)) + abs(F(y))
    return 2 * s + 1


def reference_epsilon(linkage, placement, floor):
    """The doubling slack search that certify_epsilon replaced, as an oracle.

    Least of 0 and floor * 2**k for k < 200 that the placement meets; a
    wider gap raises ChainError, as the search did.
    """
    if configuration_membership(linkage, placement, F(0)):
        return F(0)
    eps = F(floor)
    for _ in range(200):
        if configuration_membership(linkage, placement, eps):
            return eps
        eps *= 2
    raise ChainError("could not certify a slack bound for the placement")


def random_adorned_chain(rng: random.Random, m: int):
    """m triangles on consecutive bases along the x axis, apexes above."""
    triangles, x = [], F(0)
    for _ in range(m):
        w = F(rng.randint(1, 8), rng.choice([1, 2, 3]))
        apex = (x + w * F(rng.randint(1, 9), 10), F(rng.randint(1, 12), 4))
        triangles.append(Adornment(((x, F(0)), (x + w, F(0)), apex), (0, 1)))
        x += w
    return AdornedChain(tuple(triangles))


def _point_in_polygon(p, pts):
    """Strict interior test by exact crossing count; p must be off the boundary."""
    inside = False
    for a, b in zip(pts, pts[1:] + pts[:1]):
        if (a[0] > p[0]) != (b[0] > p[0]):
            o = orient(a, b, p)
            if b[0] > a[0]:
                if o < 0:
                    inside = not inside
            else:
                if o > 0:
                    inside = not inside
    return inside


def reference_validate_adornment(adornment):
    """validate_adornment over all boundary pairs, with the chord's side
    read at its midpoint by crossing count; kept as an oracle."""
    pts = adornment.boundary
    n = len(pts)
    if n < 3:
        raise AdornmentError("polygon needs at least three vertices")
    if len(set(pts)) != n:
        raise AdornmentError("repeated boundary vertex")
    if shoelace2(pts) <= 0:
        raise AdornmentError("boundary must be counterclockwise")
    for k in range(n):
        a, b, c = pts[k - 1], pts[k], pts[(k + 1) % n]
        if orient(a, b, c) == 0:
            raise AdornmentError(f"collinear boundary corner at index {k}")
    for i in range(n):
        a1, b1 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            a2, b2 = pts[j], pts[(j + 1) % n]
            if properly_cross(a1, b1, a2, b2):
                raise AdornmentError("boundary is self-intersecting")
            for w in (a2, b2):
                if on_closed_segment(w, a1, b1):
                    raise AdornmentError("boundary is self-touching")
            for w in (a1, b1):
                if on_closed_segment(w, a2, b2):
                    raise AdornmentError("boundary is self-touching")
    i, j = adornment.base
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise AdornmentError("base must name two distinct boundary vertices")
    if (i + 1) % n == j or (j + 1) % n == i:
        return  # base is a boundary edge
    p, q = pts[i], pts[j]
    for k in range(n):
        a, b = pts[k], pts[(k + 1) % n]
        if properly_cross(p, q, a, b):
            raise AdornmentError("base chord crosses the boundary")
    for k in range(n):
        if k in (i, j):
            continue
        if on_closed_segment(pts[k], p, q):
            raise AdornmentError("base chord passes through a boundary vertex")
    mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
    if not _point_in_polygon(mid, pts):
        raise AdornmentError("base chord lies outside the region")


def reference_slender_failures(adornment, mode="closure"):
    """slender_failures with the base edge and its corners found by
    location on the closed base; kept as an oracle."""
    if mode not in ("closure", "interior"):
        raise AdornmentError(f"unknown mode {mode!r}")
    reference_validate_adornment(adornment)
    pts = adornment.boundary
    n = len(pts)
    p, q = adornment.base_points()
    failures = []
    for k in range(n):
        v, w = pts[k], pts[(k + 1) % n]
        if on_closed_segment(v, p, q) and on_closed_segment(w, p, q):
            continue  # the base edge itself
        d = vsub(w, v)
        side_p = cross(d, vsub(p, v))  # positive = inward for CCW
        side_q = cross(d, vsub(q, v))
        if side_p < 0 or side_q < 0 or (side_p == 0 and side_q == 0):
            failures.append((k, "base not on the inward side of the edge"))
            continue
        shadow_p = dot(vsub(p, v), d)
        shadow_q = dot(vsub(q, v), d)
        if shadow_p == shadow_q:
            failures.append((k, "edge normals run parallel to the base"))
            continue
        if not (
            min(shadow_p, shadow_q) <= 0
            and max(shadow_p, shadow_q) >= dot(d, d)
        ):
            failures.append((k, "base shadow does not span the edge"))
    if mode == "closure":
        base_dir = vsub(q, p)
        for k in range(n):
            x = pts[k]
            if on_closed_segment(x, p, q):
                continue
            prev, nxt = pts[(k - 1) % n], pts[(k + 1) % n]
            if orient(prev, x, nxt) <= 0:
                continue  # reflex corners carry no normal cone
            na = rot90ccw(vsub(x, prev))
            nb = rot90ccw(vsub(nxt, x))
            for u in (base_dir, (-base_dir[0], -base_dir[1])):
                if cross(na, u) >= 0 and cross(u, nb) >= 0:
                    failures.append(
                        (k, "corner cone contains a base-parallel direction")
                    )
                    break
    return tuple(failures)


def reference_triangulate(adornment):
    """triangulate with ear clipping on the Fraction points; kept as an oracle."""
    reference_validate_adornment(adornment)
    pts = adornment.boundary
    idx = list(range(len(pts)))
    tris = []

    def in_closed_triangle(p, a, b, c):
        return orient(a, b, p) >= 0 and orient(b, c, p) >= 0 and orient(c, a, p) >= 0

    while len(idx) > 3:
        for k in range(len(idx)):
            i0 = idx[(k - 1) % len(idx)]
            i1 = idx[k]
            i2 = idx[(k + 1) % len(idx)]
            a, b, c = pts[i0], pts[i1], pts[i2]
            if orient(a, b, c) <= 0:
                continue
            if any(
                in_closed_triangle(pts[m], a, b, c)
                for m in idx
                if m not in (i0, i1, i2)
            ):
                continue
            tris.append((a, b, c))
            idx.pop(k)
            break
        else:
            raise AdornmentError("ear clipping failed; polygon not simple")
    tris.append((pts[idx[0]], pts[idx[1]], pts[idx[2]]))
    area2 = sum(orient(a, b, c) for a, b, c in tris)
    if area2 != shoelace2(pts):
        raise AdornmentError("triangulation does not cover the region")
    return tuple(tris)


def reference_adorned_chain_to_linkage(chain):
    """adorned_chain_to_linkage with bars keyed and ordered by Fraction
    points and squared lengths taken on them; kept as an oracle."""
    if not chain.adornments:
        raise AdornmentError("empty adorned chain")
    triangles = [reference_triangulate(a) for a in chain.adornments]
    for a, b in zip(chain.adornments, chain.adornments[1:]):
        if a.base_points()[1] != b.base_points()[0]:
            raise AdornmentError("consecutive bases do not share an endpoint")
    vid = {}

    def vertex(pt):
        if pt not in vid:
            vid[pt] = f"v{len(vid)}"
        return vid[pt]

    seen, bars = set(), []

    def add(u, w):
        key = (u, w) if u <= w else (w, u)
        if key not in seen:
            seen.add(key)
            bars.append(key)

    for a, tris in zip(chain.adornments, triangles):
        for t0, t1, t2 in tris:
            add(t0, t1)
            add(t1, t2)
            add(t2, t0)
        add(*a.base_points())
    edges = []
    for k, (u, w) in enumerate(bars):
        root = sqrt_lower_bound(sqdist(u, w))
        edges.append(Edge(f"e{k}", vertex(u), vertex(w), root))
    linkage = Linkage(tuple(vid[p] for p in vid), tuple(edges))
    placement = {vertex(p): p for p in vid}
    eps = certify_epsilon(linkage, placement, F(1, 10**10))
    return linkage, Configuration(linkage, placement, eps)


def random_capped_chain(rng: random.Random, m: int):
    """m adornments on consecutive bases along a rotated, shifted line.

    Each is its base and a cap of one to three corners above it, x-monotone,
    so it is simple; a one-corner cap is a triangle whose apex may be blunt
    or slender, longer caps may carry reflex or collinear corners. The
    rotation by a Pythagorean direction and the shift give every adornment
    its own denominators.
    """
    a, b, c = rng.choice(((1, 0, 1), (3, 4, 5), (5, 12, 13), (8, 15, 17)))
    sx = F(rng.randint(-50, 50), rng.choice((1, 7, 11)))
    sy = F(rng.randint(-50, 50), rng.choice((1, 3, 13)))

    def place(x, y):
        return (sx + (a * x - b * y) / c, sy + (b * x + a * y) / c)

    adornments, x = [], F(0)
    for _ in range(m):
        w = F(rng.randint(1, 12), rng.choice((1, 2, 3, 5)))
        us = sorted(rng.sample(range(1, 20), rng.choice((1, 1, 2, 3))), reverse=True)
        cap = [(x + w * F(u, 20), w * F(rng.randint(1, 24), 16)) for u in us]
        pts = [(x, F(0)), (x + w, F(0))] + cap
        adornments.append(Adornment(tuple(place(*pt) for pt in pts), (0, 1)))
        x += w
    return AdornedChain(tuple(adornments))


def random_star_adornment(rng: random.Random):
    """A simple CCW polygon of 4-8 integer corners around the origin,
    star-shaped from it, often with reflex corners, and a random base.

    Corners sit at increasing angles on random radii, snapped to the
    lattice, so some snaps repeat or align corners and fail validation.
    """
    n = rng.randint(4, 8)
    cuts = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    pts = []
    for ang in cuts:
        r = rng.choice([2, 3, 4, 6, 8, 10])
        pts.append((round(r * math.cos(ang)), round(r * math.sin(ang))))
    return Adornment(tuple(pts), tuple(rng.sample(range(n), 2)))


def random_grid_adornment(rng: random.Random):
    """3-6 corners anywhere on a small grid, and a base that may name
    one corner twice or leave the range: mostly invalid polygons."""
    n = rng.randint(3, 6)
    pts = tuple((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(n))
    base = (rng.randint(0, n), rng.randint(0, n - 1))
    if n == 3 and rng.random() < 0.1:
        pts = pts[:2]
    return Adornment(pts, base)


def reference_is_nontouching(linkage, configuration):
    """Brute-force nontouching test over all pairs, kept as an oracle.

    Vertices merge along bars of realized length zero; the merged
    vertices must occupy distinct points, positive bars may meet only
    at shared merged endpoints, and no merged vertex may lie inside a
    bar it is not an endpoint of.
    """
    C = configuration
    ds = DisjointSets(linkage.vertices)
    for e in linkage.edges:
        a, b = C.segment(e)
        if a == b:
            ds.union(e.tail, e.head)
    classes = ds.classes()
    class_of = {v: i for i, c in enumerate(classes) for v in c}

    seen = set()
    for cls in classes:
        p = C.placement[cls[0]]
        if p in seen:
            return False
        seen.add(p)

    positive = [
        (e, C.segment(e)) for e in linkage.edges if C.segment(e)[0] != C.segment(e)[1]
    ]
    for a in range(len(positive)):
        _, (p1, q1) = positive[a]
        for b in range(a + 1, len(positive)):
            _, (p2, q2) = positive[b]
            if properly_cross(p1, q1, p2, q2):
                return False
            if {p1, q1} == {p2, q2}:
                return False
            if in_open_segment(p1, p2, q2) or in_open_segment(q1, p2, q2):
                return False
            if in_open_segment(p2, p1, q1) or in_open_segment(q2, p1, q1):
                return False

    for idx, cls in enumerate(classes):
        p = C.placement[cls[0]]
        for e, (a, b) in positive:
            if class_of[e.tail] == idx or class_of[e.head] == idx:
                continue
            if in_open_segment(p, a, b):
                return False
    return True


def reference_touch_witness(linkage, configuration):
    """The pairwise Fraction touch_witness the broad phase replaced.

    Same checks, order and witness tuples as linkage.touch_witness: all
    bar pairs, then every merged vertex against every bar.
    """
    if configuration.linkage is not linkage and configuration.linkage != linkage:
        raise LinkageError("configuration belongs to a different linkage")
    C = configuration
    segs, zero = [], []
    for e in linkage.edges:
        a, b = C.segment(e)
        if a != b:
            segs.append((e, a, b))
        else:
            zero.append(e)
    part = DisjointSets._partition(linkage.vertices, zero)
    cls = part.class_of

    pointmap = {}
    for v in linkage.vertices:
        first = pointmap.setdefault(C.placement[v], v)
        if cls[first] != cls[v]:
            return ("vertices coincide", first, v)

    for x, (ea, a1, b1) in enumerate(segs):
        for eb, a2, b2 in segs[x + 1 :]:
            if properly_cross(a1, b1, a2, b2):
                return ("bars cross", ea.id, eb.id)
            if {a1, b1} == {a2, b2}:
                return ("bars coincide", ea.id, eb.id)
            if in_open_segment(a1, a2, b2) or in_open_segment(b1, a2, b2):
                return ("endpoint inside bar", ea.id, eb.id)
            if in_open_segment(a2, a1, b1) or in_open_segment(b2, a1, b1):
                return ("endpoint inside bar", eb.id, ea.id)

    for idx, members in enumerate(part.classes):
        p = C.placement[members[0]]
        for e, a, b in segs:
            if cls[e.tail] == idx or cls[e.head] == idx:
                continue
            if in_open_segment(p, a, b):
                return ("vertex inside bar", p, e.id)
    return None


def reference_check_macroscopic(linkage, configuration):
    """The all-pairs Fraction crossing check, row-major, as an oracle."""
    segs = [configuration.segment(e) for e in linkage.edges]
    n = len(segs)
    for i in range(n):
        for j in range(i + 1, n):
            if properly_cross(*segs[i], *segs[j]):
                return CheckReport(
                    "macroscopic",
                    "fail",
                    (linkage.edges[i].id, linkage.edges[j].id),
                    "bars cross transversally",
                )
    return CheckReport("macroscopic", "pass")


def reference_membership(linkage, placement, epsilon):
    """The Fraction Conf_epsilon band test, as an oracle."""
    eps = Fraction(epsilon)
    if eps < 0:
        raise LinkageError("negative epsilon")
    for v in linkage.vertices:
        if v not in placement:
            raise LinkageError(f"placement missing vertex {v!r}")
    for e in linkage.edges:
        d2 = sqdist(placement[e.tail], placement[e.head])
        l = e.rest_length
        if d2 > (l + eps) ** 2:
            return False
        if l >= eps and d2 < (l - eps) ** 2:
            return False
    return True


def reference_delta_bound(linkage, configuration):
    """delta_bound with the least sine taken over all nonparallel pairs."""
    require_conf0(configuration)
    C = configuration
    n = max(len(linkage.edges), 1)
    if not linkage.edges:
        return Fraction(1, 2)
    candidates = [Fraction(1, n)]
    positives = [C.segment(e) for e in linkage.edges if e.rest_length > 0]
    pos_lengths = [e.rest_length for e in linkage.edges if e.rest_length > 0]
    if pos_lengths:
        candidates.append(min(pos_lengths))
    min_sin_sq = None
    for x in range(len(positives)):
        a1, b1 = positives[x]
        d1 = vsub(b1, a1)
        for y in range(x + 1, len(positives)):
            a2, b2 = positives[y]
            d2 = vsub(b2, a2)
            c = cross(d1, d2)
            if c == 0:
                continue
            s2 = c * c / (sqnorm(d1) * sqnorm(d2))
            if min_sin_sq is None or s2 < min_sin_sq:
                min_sin_sq = s2
    sin_lb = Fraction(1) if min_sin_sq is None else sqrt_lower_bound(min_sin_sq)
    candidates.append(sin_lb / (2 * n))
    return min(candidates)


def closed_box_pairs(segs):
    """Brute-force filter: pairs i < j whose closed bounding boxes meet."""
    boxes = [
        (min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1]))
        for a, b in segs
    ]
    return [
        (i, j)
        for i, (ax0, ay0, ax1, ay1) in enumerate(boxes)
        for j, (bx0, by0, bx1, by1) in enumerate(boxes)
        if i < j and ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1
    ]


def _ref_clamp01(x):
    if x < 0:
        return Fraction(0)
    if x > 1:
        return Fraction(1)
    return x


def _ref_clipped_span(xa, ya, xb, yb, scale, side):
    sa, sb = side * ya, side * yb
    if sa < 0 and sb < 0:
        return Fraction(0)
    if sa >= 0 and sb >= 0:
        x1, x2 = xa, xb
    else:
        t = sa / (sa - sb)
        xc = xa + t * (xb - xa)
        x1, x2 = (xc, xb) if sa < 0 else (xa, xc)
    return abs(_ref_clamp01(x2 / scale) - _ref_clamp01(x1 / scale))


def reference_ord_value(e1, e2):
    """ord_value by Fraction division and clamping to [0, 1], as an oracle.

    Takes Fraction points only.
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
    r_plus = _ref_clipped_span(xa, ya, xb, yb, scale, +1)
    r_minus = _ref_clipped_span(xa, ya, xb, yb, scale, -1)
    return SqrtRational(r_plus - r_minus, scale)


def reference_sign_check(prep, snapshot, da):
    """perturb's sign check on the snapshot's Fraction points, as an oracle."""
    linkage = prep.linkage
    new_segs = [
        (snapshot[e.tail], snapshot[e.head])
        for e in prep.extended.edges[: len(linkage.edges)]
    ]
    for (i, j), ov in prep.configuration.lines().overlaps.items():
        want = prep.annotation.value(i, j).sign()
        got = reference_ord_value(new_segs[i], new_segs[j]).sign()
        if got == want:
            continue
        if got == 0 and ov.coeff**2 * ov.radicand < 16 * da * da:
            continue
        return ("sign flipped", linkage.edges[i].id, linkage.edges[j].id)
    return None


def reference_magnified_views(linkage, configuration):
    """magnified_views by scanning every location against every edge.

    The Fraction body the lattice sweep replaced, kept as an oracle.
    """
    require_conf0(configuration)
    C = configuration
    part = merged_vertex_partition(linkage)
    views = []
    for p in sorted(set(C.placement.values())):
        inbounds = []
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
        number = {}
        class_of = [
            number.setdefault(
                ("pass", ib.edge_index)
                if ib.vertex is None
                else ("vertex", part.class_of[ib.vertex]),
                len(number),
            )
            for ib in inbounds
        ]
        groups = {}
        for k, ib in enumerate(inbounds):
            groups.setdefault(ib.direction, []).append(k)
        entrances = tuple(
            (d, tuple(groups[d])) for d in sorted(groups, key=angle_descending_key)
        )
        views.append(MagnifiedView(p, tuple(inbounds), tuple(class_of), entrances))
    return tuple(views)


def reference_corridors(linkage, configuration):
    """corridors by testing every bar of a line against every cut on it.

    The Fraction body the lattice station sweep replaced, kept as an oracle.
    """
    require_conf0(configuration)
    C = configuration
    groups = bars_by_line([C.segment(e) for e in linkage.edges])
    out = []
    for line in sorted(groups):
        bars = sorted(i for _, _, i in groups[line])
        spans = {i: (lo, hi) for lo, hi, i in groups[line]}
        direction = canonical_line_direction(line)
        dvec = (Fraction(direction[0]), Fraction(direction[1]))
        param_to_point = {
            dot(p, dvec): p for p in set(C.placement.values()) if point_on_line(p, line)
        }
        ordered = sorted(param_to_point)
        segments = []
        for sa, sb in zip(ordered, ordered[1:]):
            covering = tuple(
                i for i in bars if spans[i][0] <= sa and sb <= spans[i][1]
            )
            if covering:
                segments.append(
                    CorridorSegment(param_to_point[sa], param_to_point[sb], covering)
                )
        out.append(
            Corridor(line, direction, rot90ccw(direction), tuple(bars), tuple(segments))
        )
    return tuple(out)


def nontouch_oracle(linkage, placement):
    return is_nontouching(
        linkage, Configuration(linkage, placement, big_eps(linkage, placement))
    )


def random_sa_instance(rng: random.Random):
    """Small linkage plus a placement that may sit anywhere near Conf."""
    if rng.random() < 0.6:
        L, C = random_linkage(rng, 2, 5)
    else:
        L, C = random_zero_linkage(rng)
    P = dict(C.placement)
    eps = rng.choice([F(0), F(0), F(1, 10), F(1, 4)])
    mode = rng.random()
    if mode < 0.45:
        for _ in range(rng.randint(1, 2)):
            v = rng.choice(list(P))
            jx = F(rng.randint(-3, 3), rng.choice([20, 40, 160]))
            jy = F(rng.randint(-3, 3), rng.choice([20, 40, 160]))
            P[v] = (P[v][0] + jx, P[v][1] + jy)
    elif mode < 0.65 and len(L.edges) >= 2:
        v = rng.choice(list(P))
        e = rng.choice(L.edges)
        a, b = P[e.tail], P[e.head]
        lam = F(rng.randint(0, 4), 4)
        P[v] = (a[0] + lam * (b[0] - a[0]), a[1] + lam * (b[1] - a[1]))
    return L, P, eps


# Generic polynomial arithmetic on Poly. The library builds every Poly
# straight from a monomial -> coefficient dict; these are for the
# reference emitter and for tests that write polynomials by hand.


def poly_const(value):
    return Poly._norm({(): Fraction(value)})


def poly_var(name):
    return Poly._norm({(name,): Fraction(1)})


def _poly_data(p):
    return dict(p.terms)


def poly_add(p, q):
    data = _poly_data(p)
    for m, c in q.terms:
        data[m] = data.get(m, Fraction(0)) + c
    return Poly._norm(data)


def poly_sub(p, q):
    return poly_add(p, poly_neg(q))


def poly_neg(p):
    return Poly(tuple((m, -c) for m, c in p.terms))


def poly_mul(p, q):
    data = {}
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            m = tuple(sorted(m1 + m2))
            data[m] = data.get(m, Fraction(0)) + c1 * c2
    return Poly._norm(data)


# Reference emitter: the constraint builders written with generic Poly
# arithmetic and a fresh breadth-first search per endpoint pair. The
# library's closed-form, memoised emitter must serialize byte-identically.


def _ref_xy(vertex):
    return poly_var(f"x_{vertex}"), poly_var(f"y_{vertex}")


def _ref_sq_poly(tail, head):
    xt, yt = _ref_xy(tail)
    xh, yh = _ref_xy(head)
    dx, dy = poly_sub(xt, xh), poly_sub(yt, yh)
    return poly_add(poly_mul(dx, dx), poly_mul(dy, dy))


def _ref_orient_poly(a, b, c):
    xa, ya = _ref_xy(a)
    xb, yb = _ref_xy(b)
    xc, yc = _ref_xy(c)
    return poly_sub(
        poly_mul(poly_sub(xb, xa), poly_sub(yc, ya)),
        poly_mul(poly_sub(yb, ya), poly_sub(xc, xa)),
    )


def _ref_dot_poly(a, b, c, d):
    """Dot product of vectors (b - a) and (d - c)."""
    xa, ya = _ref_xy(a)
    xb, yb = _ref_xy(b)
    xc, yc = _ref_xy(c)
    xd, yd = _ref_xy(d)
    return poly_add(
        poly_mul(poly_sub(xb, xa), poly_sub(xd, xc)),
        poly_mul(poly_sub(yb, ya), poly_sub(yd, yc)),
    )


def _ref_variables(linkage):
    out = []
    for v in linkage.vertices:
        out.append(f"x_{v}")
        out.append(f"y_{v}")
    return tuple(out)


def reference_emit_conf(linkage, epsilon):
    eps = Fraction(epsilon)
    asserts = []
    for e in linkage.edges:
        sq = _ref_sq_poly(e.tail, e.head)
        if eps == 0:
            node = Atom("=", poly_sub(sq, poly_const(e.rest_length**2)))
            asserts.append(TaggedAssert(f"length:{e.id}", node))
            continue
        hi = poly_const((e.rest_length + eps) ** 2)
        upper = Atom("<=", poly_sub(sq, hi))
        asserts.append(TaggedAssert(f"length-upper:{e.id}", upper))
        if e.rest_length >= eps:
            lo = poly_const((e.rest_length - eps) ** 2)
            lower = Atom(">=", poly_sub(sq, lo))
            asserts.append(TaggedAssert(f"length-lower:{e.id}", lower))
    return ConstraintSystem(_ref_variables(linkage), tuple(asserts))


def _ref_on_closed_segment_node(w, r, s):
    return And(
        Atom("=", _ref_orient_poly(r, s, w)),
        Atom("<=", _ref_dot_poly(r, w, s, w)),
    )


def _ref_short_path(linkage, eps, a, b):
    """BFS path a -> b through edges of rest length <= eps, as edge ids."""
    if a == b:
        return []
    adj = {v: [] for v in linkage.vertices}
    for e in linkage.edges:
        if e.rest_length <= eps:
            adj[e.tail].append((e.id, e.head))
            adj[e.head].append((e.id, e.tail))
    prev = {}
    frontier = [a]
    seen = {a}
    while frontier:
        nxt = []
        for u in frontier:
            for eid, w in adj[u]:
                if w in seen:
                    continue
                seen.add(w)
                prev[w] = (u, eid)
                if w == b:
                    path = []
                    cur = b
                    while cur != a:
                        pu, pe = prev[cur]
                        path.append(pe)
                        cur = pu
                    return list(reversed(path))
                nxt.append(w)
        frontier = nxt
    return None


def reference_emit_nconf(linkage, epsilon):
    eps = Fraction(epsilon)
    base = reference_emit_conf(linkage, eps)
    asserts = list(base.asserts)
    edges = linkage.edges
    by_id = {e.id: e for e in edges}

    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            ei, ej = edges[i], edges[j]
            p, q = ei.tail, ei.head
            r, s = ej.tail, ej.head
            disjuncts = []
            for (aa, bb), (cc, dd) in (((p, q), (r, s)), ((r, s), (p, q))):
                for op in (">", "<"):
                    disjuncts.append(
                        And(
                            Atom(op, _ref_orient_poly(aa, bb, cc)),
                            Atom(op, _ref_orient_poly(aa, bb, dd)),
                        )
                    )
            for (aa, bb), (cc, dd) in (((p, q), (r, s)), ((r, s), (p, q))):
                disjuncts.append(
                    And(
                        Atom(">", _ref_dot_poly(bb, cc, aa, bb)),
                        Atom(">", _ref_dot_poly(bb, dd, aa, bb)),
                    )
                )
                disjuncts.append(
                    And(
                        Atom("<", _ref_dot_poly(aa, cc, aa, bb)),
                        Atom("<", _ref_dot_poly(aa, dd, aa, bb)),
                    )
                )
            xp, yp = _ref_xy(p)
            xr, yr = _ref_xy(r)
            disjuncts.append(
                And(
                    Atom("=", _ref_sq_poly(p, q)),
                    Atom("=", _ref_sq_poly(r, s)),
                    Not(
                        And(
                            Atom("=", poly_sub(xp, xr)),
                            Atom("=", poly_sub(yp, yr)),
                        )
                    ),
                )
            )
            for a, other_i in ((p, q), (q, p)):
                for b, other_j in ((r, s), (s, r)):
                    path = _ref_short_path(linkage, eps, a, b)
                    if path is None:
                        continue
                    if path:
                        psum = poly_const(0)
                        for eid in path:
                            pe = by_id[eid]
                            psum = poly_add(psum, _ref_sq_poly(pe.tail, pe.head))
                        collapsed = Atom("=", psum)
                    else:
                        collapsed = Atom("=", poly_const(0))
                    contact_ok = Or(
                        And(
                            Not(_ref_on_closed_segment_node(other_i, r, s)),
                            Not(_ref_on_closed_segment_node(other_j, p, q)),
                        ),
                        Atom("=", _ref_sq_poly(p, q)),
                        Atom("=", _ref_sq_poly(r, s)),
                    )
                    disjuncts.append(And(collapsed, contact_ok))
            asserts.append(
                TaggedAssert(f"apart:{ei.id}:{ej.id}", Or(*disjuncts))
            )

    attached = set()
    for e in edges:
        attached.add(e.tail)
        attached.add(e.head)
    for w in linkage.vertices:
        if w in attached:
            continue
        xw, yw = _ref_xy(w)
        for v in linkage.vertices:
            if v == w:
                continue
            xv, yv = _ref_xy(v)
            asserts.append(
                TaggedAssert(
                    f"apart-vertex:{w}:{v}",
                    Not(
                        And(
                            Atom("=", poly_sub(xw, xv)),
                            Atom("=", poly_sub(yw, yv)),
                        )
                    ),
                )
            )
        for e in edges:
            asserts.append(
                TaggedAssert(
                    f"clear:{w}:{e.id}",
                    Not(
                        And(
                            Atom("=", _ref_orient_poly(e.tail, e.head, w)),
                            Atom("<", _ref_dot_poly(e.tail, w, e.head, w)),
                        )
                    ),
                )
            )
    return ConstraintSystem(base.variables, tuple(asserts))


def reference_overlapping_pairs(segs):
    """The n-squared overlap filter: ordered pairs with positive overlap."""
    out = {}
    for i, si in enumerate(segs):
        for j, sj in enumerate(segs):
            if i != j:
                ov = overlap_length(si, sj)
                if ov.sign() > 0:
                    out[(i, j)] = ov
    return out


def bars_by_line(segs):
    """Positive segments grouped by canonical supporting line.

    Each group lists (lo, hi, index): the segment's parameter interval
    along the line's canonical direction, sorted by start parameter.
    The builder LineIndex replaced, kept as an oracle.
    """
    groups = {}
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


def stations_by_line(lines, points):
    """For each canonical line, the points on it as sorted (param, point).

    Params run along the line's canonical direction, as in bars_by_line.
    The builder LineIndex replaced, kept as an oracle.
    """
    by_normal = {}
    for a, b, c in lines:
        by_normal.setdefault((a, b), set()).add(c)
    out = {line: [] for line in lines}
    for (a, b), cs in by_normal.items():
        dx, dy = canonical_line_direction((a, b, 0))
        for p in points:
            c = a * p[0] + b * p[1]
            if c in cs:
                out[(a, b, c)].append((p[0] * dx + p[1] * dy, p))
    for stations in out.values():
        stations.sort()
    return out


def overlapping_pairs(segs):
    """Positive overlap_length of every overlapping ordered pair, row-major.

    Each line's bars are swept by start parameter on the segments' own
    integer lattice D*p, overlap_length runs on both ordered pairs, and
    a value c*sqrt(r) measured there is c*sqrt(r / D^2) in the input's
    units. The sweep LineIndex replaced, kept as an oracle.
    """
    D, images = lattice(p for seg in segs for p in seg)
    isegs = list(zip(images[::2], images[1::2]))
    pairs = []
    for group in bars_by_line(isegs).values():
        active = []
        for lo, hi, i in group:
            active = [(h, k) for h, k in active if h > lo]
            pairs.extend((min(i, k), max(i, k)) for _, k in active)
            active.append((hi, i))
    ordered = sorted(pairs + [(j, i) for i, j in pairs])
    out = {(i, j): overlap_length(isegs[i], isegs[j]) for i, j in ordered}
    if D != 1:
        for key, v in out.items():
            if v.radicand == 1:
                out[key] = SqrtRational(v.coeff / D, v.radicand)
            else:
                r = Fraction(v.radicand.numerator, D * D)
                out[key] = SqrtRational(v.coeff, r)
    return out


def reference_line_overlaps(segs, D):
    """Overlap values of lattice segments in the input's units, row-major.

    overlap_length runs once per overlapping unordered pair of each
    line's sweep, the reverse pair's (coeff, radicand) follow from the
    two bars' gcd lengths along the line, and a lattice value c*sqrt(r)
    reads c/D (r = 1) or c*sqrt(r / D^2) in the input. The sweep
    LineIndex ran before it counted steps, kept as an oracle.
    """

    def unscale(v):
        if D == 1:
            return v
        if v.radicand == 1:
            return SqrtRational(v.coeff / D, v.radicand)
        return SqrtRational(v.coeff, Fraction(v.radicand.numerator, D * D))

    overlaps = {}
    for group in bars_by_line(segs).values():
        active = []
        for lo, hi, j in group:
            active = [(h, i) for h, i in active if h > lo]
            for _, i in active:
                v = overlap_length(segs[i], segs[j])
                overlaps[i, j] = unscale(v)
                if v.radicand != 1:
                    gi, gj = math.gcd(*vsub(*segs[i])), math.gcd(*vsub(*segs[j]))
                    v = SqrtRational(v.coeff * gi / gj, v.radicand * gj**2 / gi**2)
                overlaps[j, i] = unscale(v)
            active.append((hi, j))
    return dict(sorted(overlaps.items()))


def reference_resolve_annotations(linkage, configuration, sparse):
    """resolve_annotations with SqrtRational overrides, as a dense matrix.

    Layer entries scale the oracle's overlap values; the reverse pair's
    flip is read from the bars' directions; entries nobody set are
    reference_ord_value on the input's Fractions. The body
    resolve_annotations had before it counted steps, kept as an oracle.
    """
    require_conf0(configuration)
    D, images = lattice(configuration.placement.values())
    image = dict(zip(configuration.placement, images))
    isegs = [(image[e.tail], image[e.head]) for e in linkage.edges]
    overlaps = reference_line_overlaps(isegs, D)
    values, explicit, fills = {}, set(), []
    for k, entry in enumerate(sparse):
        path = f"$.annotations[{k}]"
        try:
            i, j = linkage.edge_index(entry.first), linkage.edge_index(entry.second)
        except LinkageError:
            raise DocumentError(
                f"annotation names unknown edge {entry.first!r}/{entry.second!r}", path
            ) from None
        if i == j:
            raise DocumentError("annotation on the diagonal", path)
        explicit.add((i, j))
        if entry.value is not None:
            values[(i, j)] = entry.value
            continue
        if (i, j) not in overlaps:
            raise DocumentError(
                f"layer annotation on non-overlapping pair "
                f"{entry.first!r}/{entry.second!r}",
                path,
            )
        v = overlaps[(i, j)]
        values[(i, j)] = SqrtRational(v.coeff * entry.layer, v.radicand)
        (ai, bi), (aj, bj) = isegs[i], isegs[j]
        flip = -sign(dot(vsub(bi, ai), vsub(bj, aj)))
        v = overlaps[(j, i)]
        fills.append((j, i, SqrtRational(v.coeff * flip * entry.layer, v.radicand)))
    for j, i, val in fills:
        if (j, i) not in explicit:
            values[(j, i)] = val
    segs = [configuration.segment(e) for e in linkage.edges]
    n = range(len(segs))
    rows = [
        [SqrtRational(0) if i == j else reference_ord_value(segs[i], segs[j]) for j in n]
        for i in n
    ]
    for (i, j), v in values.items():
        rows[i][j] = v
    return AnnotationMatrix(rows)


def reference_find_interleave(seq):
    """_find_interleave scanning its stack for each label, as an oracle."""
    remaining = {}
    for c in seq:
        remaining[c] = remaining.get(c, 0) + 1
    stack = []  # (label, push position)
    for p, c in enumerate(seq):
        remaining[c] -= 1
        if stack and stack[-1][0] == c:
            if remaining[c] == 0:
                stack.pop()
            continue
        depth = next((d for d in range(len(stack)) if stack[d][0] == c), None)
        if depth is not None:
            d_label, d_pos = stack[-1]
            q = next(i for i in range(p + 1, len(seq)) if seq[i] == d_label)
            return (stack[depth][1], d_pos, p, q)
        if remaining[c] > 0:
            stack.append((c, p))
    return None


def reference_check_well_annotated(linkage, configuration, annotation):
    """The dense well-annotated check: every ordered pair, row-major."""
    segs = [configuration.segment(e) for e in linkage.edges]
    n = len(segs)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a = annotation.value(i, j)
            ov = overlap_length(segs[i], segs[j])
            if ov.sign() > 0:
                if a not in (ov, SqrtRational(-ov.coeff, ov.radicand)):
                    return CheckReport(
                        "well-annotated",
                        "fail",
                        (linkage.edges[i].id, linkage.edges[j].id),
                        "entry magnitude differs from the overlap length",
                    )
            else:
                if a != ord_value(segs[i], segs[j]):
                    return CheckReport(
                        "well-annotated",
                        "fail",
                        (linkage.edges[i].id, linkage.edges[j].id),
                        "entry differs from the signed overlap",
                    )
    return CheckReport("well-annotated", "pass")


def reference_classify_chain(linkage):
    """classify_chain by its own adjacency and depth-first search.

    This is the body classify_chain had before Linkage indexed its own
    incidence, kept as an oracle.
    """
    nv, ne = len(linkage.vertices), len(linkage.edges)
    if nv == 0:
        return ChainShape("other", (), ())
    adj = {v: [] for v in linkage.vertices}
    for i, e in enumerate(linkage.edges):
        adj[e.tail].append((i, e.head))
        adj[e.head].append((i, e.tail))
    seen = {linkage.vertices[0]}
    stack = [linkage.vertices[0]]
    while stack:
        u = stack.pop()
        for _, w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != nv:
        return ChainShape("other", (), ())
    degs = {v: len(adj[v]) for v in linkage.vertices}

    def walk(start):
        verts, eids, used, cur = [start], [], set(), start
        while True:
            options = [(i, w) for i, w in adj[cur] if i not in used]
            if not options:
                break
            i, w = min(options)
            used.add(i)
            eids.append(linkage.edges[i].id)
            if w == start and len(used) == ne:
                break
            verts.append(w)
            cur = w
        return tuple(verts), tuple(eids)

    if ne == nv - 1:
        tips = sorted(v for v, d in degs.items() if d == 1)
        if len(tips) == 2 and all(d in (1, 2) for d in degs.values()):
            verts, eids = walk(tips[0])
            if len(eids) == ne:
                return ChainShape("open", verts, eids)
    if ne == nv and all(d == 2 for d in degs.values()):
        verts, eids = walk(min(linkage.vertices))
        if len(eids) == ne and len(verts) == nv:
            return ChainShape("closed", verts, eids)
    return ChainShape("other", (), ())


def reference_germ_classes(linkage, view):
    """A view's direct-connection classes by union-find, kept as an oracle.

    Germs at one merged vertex are joined, and so are the two halves of
    a bar passing through (the +1 half directly precedes its -1 half);
    classes are numbered in order of their first germ.
    """
    part = merged_vertex_partition(linkage)
    ds = DisjointSets(range(len(view.inbounds)))
    by_vertex_class = {}
    for k, ib in enumerate(view.inbounds):
        if ib.vertex is None:
            if ib.dir_flag > 0:
                ds.union(k, k + 1)
            continue
        vc = part.class_of[ib.vertex]
        if vc in by_vertex_class:
            ds.union(by_vertex_class[vc], k)
        else:
            by_vertex_class[vc] = k
    renum = {}
    for k in range(len(view.inbounds)):
        renum.setdefault(ds.find(k), len(renum))
    return tuple(renum[ds.find(k)] for k in range(len(view.inbounds)))


def reference_check_well_ordered(views, annotation):
    """check_well_ordered verifying its ranked order pair by pair.

    The O(k^2) verification of each entrance's ranking that the win
    count test replaced, kept as an oracle.
    """
    all_orders = []
    for view in views:
        order = []
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
                        return WellOrderResult(
                            CheckReport(
                                "well-ordered",
                                "fail",
                                (view.location, ia.label(), ib.label()),
                                "zero annotation between germs at one entrance",
                            ),
                            (),
                        )
                    if ia.dir_flag * va.sign() != -ib.dir_flag * vb.sign():
                        return WellOrderResult(
                            CheckReport(
                                "well-ordered",
                                "fail",
                                (view.location, ia.label(), ib.label()),
                                "annotation pair disagrees about the local order",
                            ),
                            (),
                        )

            def beats(k, m):
                return _beats(annotation, view.inbounds[k], view.inbounds[m])

            wins = {k: sum(1 for m in idxs if m != k and beats(k, m)) for k in idxs}
            ranked = sorted(idxs, key=lambda k: (-wins[k], k))
            for a in range(len(ranked)):
                for b in range(a + 1, len(ranked)):
                    if not beats(ranked[a], ranked[b]):
                        cyc = _find_cycle(annotation, view, idxs)
                        return WellOrderResult(
                            CheckReport(
                                "well-ordered",
                                "fail",
                                (view.location,)
                                + tuple(view.inbounds[k].label() for k in cyc),
                                "three-way cycle in the entrance order",
                            ),
                            (),
                        )
            order.extend(ranked)
        all_orders.append(tuple(order))
    return WellOrderResult(CheckReport("well-ordered", "pass"), tuple(all_orders))


def count_calls(monkeypatch, module, names):
    """Count calls to module's functions through every linkfold binding.

    module is a linkfold module (say linkfold.annotations); each named
    function is replaced in every linkfold module that imported it.
    Returns a dict name -> call count that fills in as calls happen.
    """
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] == "linkfold":
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
    return counts


FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


def count_fractions(monkeypatch):
    """Count Fraction work from here on: a dict whose "built" counts calls
    of Fraction.__new__ and whose "ops" counts arithmetic method calls.

    An operation that builds its result through the constructor counts in
    both; counting the methods as well catches versions whose arithmetic
    builds results without calling __new__.
    """
    counts = {"built": 0, "ops": 0}
    new = Fraction.__new__

    def built(cls, *args, **kwargs):
        counts["built"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", built)
    for name in FRACTION_OPS:
        method = getattr(Fraction, name)

        def op(*args, _method=method):
            counts["ops"] += 1
            return _method(*args)

        monkeypatch.setattr(Fraction, name, op)
    return counts


def reference_corridor_order(corridor, annotation, linkage, configuration):
    """corridor_order adding each segment's pairs and rechecking for a
    cycle after every segment, kept as an oracle.

    It reads only the entry v_ij with i < j of each pair, so it accepts
    a reverse entry that is zero or disagrees.
    """
    images = configuration.lattice()
    orient = {}
    for i in corridor.bars:
        e = linkage.edges[i]
        orient[i] = sign(dot(vsub(images[e.head], images[e.tail]), corridor.direction))

    above = {i: set() for i in corridor.bars}
    for seg in corridor.segments:
        for x in range(len(seg.bars)):
            for y in range(x + 1, len(seg.bars)):
                i, j = seg.bars[x], seg.bars[y]
                s = annotation.value(i, j).sign()
                if s == 0:
                    raise CorridorError(
                        f"zero annotation between overlapping bars "
                        f"{linkage.edges[i].id} and {linkage.edges[j].id}"
                    )
                if s * orient[i] > 0:
                    above[i].add(j)  # j lies above i
                else:
                    above[j].add(i)
        if _ref_has_cycle(above):
            raise CorridorError(
                f"inconsistent layer order at corridor segment starting "
                f"{tuple(map(str, seg.start))}"
            )

    indeg = {i: 0 for i in corridor.bars}
    for i, outs in above.items():
        for j in outs:
            indeg[j] += 1
    ready = [i for i in corridor.bars if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in above[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(corridor.bars):
        raise CorridorError("inconsistent layer order in corridor")
    ids = tuple(linkage.edges[i].id for i in order)
    return CorridorOrder(corridor, ids, {eid: k for k, eid in enumerate(ids)})


def _ref_has_cycle(adj):
    """True iff the directed graph has a cycle; depth-first, with an explicit stack."""
    state = {}  # 1 while on the current path, 2 when done
    for root in adj:
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(adj[root]))]
        while stack:
            u, succ = stack[-1]
            for v in succ:
                st = state.get(v, 0)
                if st == 1:
                    return True
                if st == 0:
                    state[v] = 1
                    stack.append((v, iter(adj[v])))
                    break
            else:
                state[u] = 2
                stack.pop()
    return False

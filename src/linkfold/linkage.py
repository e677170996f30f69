"""Linkage and configuration model.

A linkage is a multigraph with nonnegative rational rest lengths on its
edges; a configuration places the vertices in the plane with exact
rational coordinates and carries the slack bound it satisfies. The
nontouching predicate implements the convention that a bar of realized
length zero is just its merged vertex point, so clusters of zero-length
bars may sit inside an apparent intersection without touching anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import LinkageError
from .geometry import (
    Point,
    box_pairs,
    in_open_segment,
    lattice,
    properly_cross,
)

if TYPE_CHECKING:
    from .annotations import LineIndex


class DisjointSets:
    """Union-find over hashable items, stable class enumeration."""

    def __init__(self, items: Iterable) -> None:
        self._parent = {x: x for x in items}
        self._order = list(self._parent)

    def find(self, x):
        p = self._parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def classes(self) -> list[list]:
        by_root: dict = {}
        for x in self._order:
            by_root.setdefault(self.find(x), []).append(x)
        return list(by_root.values())

    @classmethod
    def _partition(
        cls, vertices: Iterable[str], zero_edges: Iterable[Edge]
    ) -> MergedVertexPartition:
        """Vertex classes joined by zero_edges, in first-vertex order."""
        ds = cls(vertices)
        for e in zero_edges:
            ds.union(e.tail, e.head)
        classes = tuple(tuple(c) for c in ds.classes())
        class_of = {v: i for i, c in enumerate(classes) for v in c}
        return MergedVertexPartition(classes, class_of)


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    rest_length: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "rest_length", Fraction(self.rest_length))
        if self.rest_length < 0:
            raise LinkageError(f"edge {self.id}: negative rest length")
        if self.tail == self.head:
            raise LinkageError(f"edge {self.id}: self-loop at {self.tail}")


@dataclass(frozen=True)
class Linkage:
    """Multigraph with rest lengths; parallel edges allowed, self-loops not.

    Edge ids and each vertex's incident edge slots are indexed once here.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        slots: dict[str, list[int]] = {v: [] for v in self.vertices}
        if len(slots) != len(self.vertices):
            raise LinkageError("duplicate vertex ids")
        index = {e.id: i for i, e in enumerate(self.edges)}
        if len(index) != len(self.edges):
            raise LinkageError("duplicate edge ids")
        for i, e in enumerate(self.edges):
            if e.tail not in slots or e.head not in slots:
                raise LinkageError(f"edge {e.id}: dangling endpoint")
            slots[e.tail].append(i)
            slots[e.head].append(i)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_slots", slots)

    def edge_index(self, edge_id: str) -> int:
        try:
            return self._index[edge_id]
        except (KeyError, TypeError):
            raise LinkageError(f"no edge {edge_id!r}") from None

    def incident_slots(self, vertex: str) -> list[int]:
        """Indices of edges incident to vertex, in edge order."""
        return list(self._slots.get(vertex, ()))

    def degree(self, vertex: str) -> int:
        return len(self._slots.get(vertex, ()))


def _squared_lengths(linkage: Linkage, placement: Mapping[str, Point]):
    """Each edge's (s, t2, rest length) with s / t2 its squared length.

    Both are unreduced ints over the edge's own denominators xd * yd,
    so the caller compares by cross-multiplying, never by reducing.
    """
    for e in linkage.edges:
        (ax, ay), (bx, by) = placement[e.tail], placement[e.head]
        xd, yd = ax.denominator * bx.denominator, ay.denominator * by.denominator
        xn = (ax.numerator * bx.denominator - bx.numerator * ax.denominator) * yd
        yn = (ay.numerator * by.denominator - by.numerator * ay.denominator) * xd
        t = xd * yd
        yield xn * xn + yn * yn, t * t, e.rest_length


def configuration_membership(
    linkage: Linkage, placement: Mapping[str, Point], epsilon
) -> bool:
    """Exact Conf_epsilon test: every realized length within the band.

    The lower band (l - eps)^2 <= d^2 applies only when l >= eps; below
    that the band floor is zero and only the upper bound constrains.
    Each bar compares d^2 * t2 against (l +- eps)^2 over their own
    denominators, in integers.
    """
    eps = Fraction(epsilon)
    if eps < 0:
        raise LinkageError("negative epsilon")
    for v in linkage.vertices:
        if v not in placement:
            raise LinkageError(f"placement missing vertex {v!r}")
    en, ed = eps.numerator, eps.denominator
    for s, t2, l in _squared_lengths(linkage, placement):
        ln, ld = l.numerator, l.denominator
        hi, lo, scale = ln * ed + en * ld, ln * ed - en * ld, ld * ed
        d2 = s * scale * scale
        if d2 > hi * hi * t2:
            return False
        if lo >= 0 and d2 < lo * lo * t2:
            return False
    return True


def certify_epsilon(
    linkage: Linkage, placement: Mapping[str, Point], floor
) -> Fraction:
    """Least slack in {0} and {floor * 2**k : k >= 0} that the placement meets.

    Membership is monotone in epsilon (a bar fits when epsilon >= |d - l|),
    so exact membership tests walk down, then up, from a rung guessed
    from the widest gap.
    """
    floor = Fraction(floor)
    if floor <= 0:
        raise LinkageError("slack floor must be positive")
    if configuration_membership(linkage, placement, 0):
        return Fraction(0)
    # d^2 = p / den, l^2 = q / den over unreduced ints: the gap |d - l| is
    # within 2x of |p - q| / sqrt(max(p, q) * den), logged by bit lengths
    gaps = []
    for s, t2, l in _squared_lengths(linkage, placement):
        ln, ld = l.numerator, l.denominator
        p, q = s * ld * ld, ln * ln * t2
        if p != q:
            root = max(p, q).bit_length() + (t2 * ld * ld).bit_length()
            gaps.append(abs(p - q).bit_length() - root // 2)

    def fits(k: int) -> bool:
        return configuration_membership(linkage, placement, floor * 2**k)

    lg_floor = floor.numerator.bit_length() - floor.denominator.bit_length()
    k = max(0, max(gaps) - lg_floor)
    while k > 0 and fits(k - 1):
        k -= 1
    while not fits(k):
        k += 1
    return floor * 2**k


@dataclass(frozen=True)
class Configuration:
    linkage: Linkage
    placement: dict[str, Point]
    epsilon: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        pl = {
            v: (Fraction(p[0]), Fraction(p[1]))
            for v, p in self.placement.items()
        }
        object.__setattr__(self, "placement", pl)
        if not configuration_membership(self.linkage, pl, self.epsilon):
            raise LinkageError(
                f"placement violates the length band at epsilon={self.epsilon}"
            )

    def point(self, vertex: str) -> Point:
        return self.placement[vertex]

    def lattice(self) -> dict[str, tuple[int, int]]:
        """Each vertex's integer image D*p, D the placement's common denominator.

        Built by the first contact scan that asks for it, then kept;
        construction and membership never build it.
        """
        if "_lattice" not in self.__dict__:
            D, images = lattice(self.placement.values())
            object.__setattr__(self, "_lattice", dict(zip(self.placement, images)))
            object.__setattr__(self, "_scale", D)
        return self._lattice

    def lines(self) -> LineIndex:
        """The line index of the bars on lattice(), built the first time asked."""
        if "_lines" not in self.__dict__:
            from .annotations import LineIndex  # annotations imports this module

            index = LineIndex(self.linkage, self.lattice(), self._scale)
            object.__setattr__(self, "_lines", index)
        return self._lines

    def segment(self, edge: Edge) -> tuple[Point, Point]:
        return self.placement[edge.tail], self.placement[edge.head]

    def is_exact(self) -> bool:
        """True iff every realized length equals its rest length exactly.

        That is membership at epsilon 0, which construction has already
        checked when the configuration's own epsilon is 0.
        """
        return self.epsilon == 0 or configuration_membership(
            self.linkage, self.placement, 0
        )


def require_conf0(configuration: Configuration) -> None:
    if not configuration.is_exact():
        raise LinkageError("operation requires an exact (slack-free) configuration")


def check_epsilon_related(l1: Linkage, l2: Linkage, epsilon) -> bool:
    """Same graph structure and rest lengths within epsilon edgewise."""
    eps = Fraction(epsilon)
    if l1.vertices != l2.vertices:
        return False
    if len(l1.edges) != len(l2.edges):
        return False
    for a, b in zip(l1.edges, l2.edges):
        if (a.id, a.tail, a.head) != (b.id, b.tail, b.head):
            return False
        if abs(a.rest_length - b.rest_length) > eps:
            return False
    return True


@dataclass(frozen=True)
class MergedVertexPartition:
    """Vertex classes joined by paths of zero-length bars."""

    classes: tuple[tuple[str, ...], ...]
    class_of: dict[str, int]


def merged_vertex_partition(linkage: Linkage) -> MergedVertexPartition:
    return DisjointSets._partition(
        linkage.vertices, (e for e in linkage.edges if e.rest_length == 0)
    )


def touch_witness(linkage: Linkage, configuration: Configuration) -> tuple | None:
    """First contact in the configuration, or None if it is nontouching.

    Vertices merge along bars of realized length zero, as is_nontouching
    describes. The checks run in this order, each naming its offenders:
    ("vertices coincide", v, w), ("bars cross", e, f), ("bars coincide",
    e, f), ("endpoint inside bar", e, f) for an endpoint of bar e, and
    ("vertex inside bar", point, e) for a merged vertex at point.
    """
    if configuration.linkage is not linkage and configuration.linkage != linkage:
        raise LinkageError("configuration belongs to a different linkage")
    C = configuration
    images = C.lattice()
    segs, zero = [], []
    for e in linkage.edges:
        a, b = images[e.tail], images[e.head]
        if a != b:
            segs.append((e, a, b))
        else:
            zero.append(e)
    part = DisjointSets._partition(linkage.vertices, zero)
    cls = part.class_of

    # (a) distinct merged vertices occupy distinct points
    pointmap: dict[tuple[int, int], str] = {}
    for v in linkage.vertices:
        first = pointmap.setdefault(images[v], v)
        if cls[first] != cls[v]:
            return ("vertices coincide", first, v)

    # every contact below lies in both closed bounding boxes; one sweep
    # over the bars and the merged vertices (as points) lists candidates
    # in the order of the pairwise double loops
    n = len(segs)
    points = [images[members[0]] for members in part.classes]
    pairs = box_pairs([(a, b) for _, a, b in segs] + [(p, p) for p in points])

    # (b) positive bars intersect only at shared merged endpoints
    for x, y in pairs:
        if y >= n:
            continue
        (ea, a1, b1), (eb, a2, b2) = segs[x], segs[y]
        if properly_cross(a1, b1, a2, b2):
            return ("bars cross", ea.id, eb.id)
        if {a1, b1} == {a2, b2}:
            return ("bars coincide", ea.id, eb.id)
        if in_open_segment(a1, a2, b2) or in_open_segment(b1, a2, b2):
            return ("endpoint inside bar", ea.id, eb.id)
        if in_open_segment(a2, a1, b1) or in_open_segment(b2, a1, b1):
            return ("endpoint inside bar", eb.id, ea.id)

    # (c) no merged vertex inside the open interior of a non-incident bar
    hits = sorted((y - n, x) for x, y in pairs if x < n <= y)
    for idx, x in hits:
        e, a, b = segs[x]
        if cls[e.tail] == idx or cls[e.head] == idx:
            continue
        if in_open_segment(points[idx], a, b):
            return ("vertex inside bar", C.placement[part.classes[idx][0]], e.id)
    return None


def is_nontouching(linkage: Linkage, configuration: Configuration) -> bool:
    """Edges meet only at shared merged endpoints, nothing else coincides.

    Merging is computed on realized geometry (bars of realized length
    zero), which on exact configurations coincides with rest-length
    merging and stays meaningful on slack configurations.
    """
    return touch_witness(linkage, configuration) is None


@dataclass(frozen=True)
class ExtensionMap:
    """Bookkeeping to reduce an extended linkage back to its original.

    vertex_map sends extended vertex ids to original ids (identity for
    missing keys), edge_map does the same for edge ids, and
    extension_edges lists the added zero-length bars to contract.
    """

    vertex_map: dict[str, str] = field(default_factory=dict)
    edge_map: dict[str, str] = field(default_factory=dict)
    extension_edges: tuple[str, ...] = ()

    def original_vertex(self, vid: str) -> str:
        return self.vertex_map.get(vid, vid)

    def original_edge(self, eid: str) -> str:
        return self.edge_map.get(eid, eid)


def extend_split(
    linkage: Linkage, configuration: Configuration
) -> tuple[Linkage, Configuration, ExtensionMap]:
    """Split every vertex into one fragment per incident edge.

    Fragments of one vertex are co-located and tied in a star of
    zero-length extension bars. The star is anchored at the first
    zero-length slot's fragment when the vertex has one (so that a
    later relocation collapsing zero fragments to a point never leaves
    two extension bars spanning the same pair of points), else at the
    fragment with the lowest numeric suffix. Degree-0 vertices keep a
    single fragment.
    """
    frag_ids: dict[tuple[str, int], str] = {}
    new_vertices: list[str] = []
    vertex_map: dict[str, str] = {}
    placement: dict[str, Point] = {}
    endpoint_frag: dict[tuple[int, str], str] = {}

    for v in linkage.vertices:
        slots = linkage.incident_slots(v)
        for k in range(max(len(slots), 1)):
            fid = f"{v}.{k}"
            frag_ids[(v, k)] = fid
            new_vertices.append(fid)
            vertex_map[fid] = v
            placement[fid] = configuration.placement[v]
        for k, ei in enumerate(slots):
            endpoint_frag[(ei, v)] = frag_ids[(v, k)]

    new_edges: list[Edge] = []
    edge_map: dict[str, str] = {}
    for i, e in enumerate(linkage.edges):
        new_edges.append(
            Edge(
                e.id,
                endpoint_frag[(i, e.tail)],
                endpoint_frag[(i, e.head)],
                e.rest_length,
            )
        )
        edge_map[e.id] = e.id

    extension_edges: list[str] = []
    counter = 0
    for v in linkage.vertices:
        slots = linkage.incident_slots(v)
        anchor = next(
            (k for k, ei in enumerate(slots) if linkage.edges[ei].rest_length == 0),
            0,
        )
        for k in range(len(slots)):
            if k == anchor:
                continue
            xid = f"x{counter}"
            counter += 1
            new_edges.append(
                Edge(xid, frag_ids[(v, anchor)], frag_ids[(v, k)], Fraction(0))
            )
            extension_edges.append(xid)

    L2 = Linkage(tuple(new_vertices), tuple(new_edges))
    C2 = Configuration(L2, placement, configuration.epsilon)
    emap = ExtensionMap(vertex_map, edge_map, tuple(extension_edges))
    return L2, C2, emap


def reduce(
    linkage: Linkage, configuration: Configuration, extension_map: ExtensionMap
) -> tuple[Linkage, Configuration]:
    """Contract extension bars and merge their endpoints back.

    Duplicate edges produced by a contraction are kept (the result is a
    multigraph); a non-extension edge collapsing to a self-loop means
    the map does not describe a valid reduction.
    """
    ext = set(extension_map.extension_edges)
    for eid in extension_map.extension_edges:
        e = linkage.edges[linkage.edge_index(eid)]
        if e.rest_length != 0:
            raise LinkageError(f"extension bar {eid} has nonzero rest length")
        a, b = configuration.segment(e)
        if a != b:
            raise LinkageError(f"extension bar {eid} endpoints not co-located")

    merged_vertices: list[str] = []
    placement: dict[str, Point] = {}
    for v in linkage.vertices:
        ov = extension_map.original_vertex(v)
        if ov not in placement:
            merged_vertices.append(ov)
            placement[ov] = configuration.placement[v]
        elif placement[ov] != configuration.placement[v]:
            raise LinkageError(
                f"fragments of {ov} are not co-located; cannot reduce"
            )

    new_edges: list[Edge] = []
    for e in linkage.edges:
        if e.id in ext:
            continue
        t = extension_map.original_vertex(e.tail)
        h = extension_map.original_vertex(e.head)
        if t == h:
            raise LinkageError(
                f"edge {e.id} collapses to a self-loop under this reduction"
            )
        new_edges.append(Edge(extension_map.original_edge(e.id), t, h, e.rest_length))

    L = Linkage(tuple(merged_vertices), tuple(new_edges))
    C = Configuration(L, placement, configuration.epsilon)
    return L, C

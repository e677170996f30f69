"""Strict slenderness, triangulation, and adorned chain conversion."""

import random
from fractions import Fraction as F

import pytest

from helpers import (
    _point_in_polygon,
    count_calls,
    count_fractions,
    random_adorned_chain,
    random_capped_chain,
    random_grid_adornment,
    random_star_adornment,
    reference_adorned_chain_to_linkage,
    reference_epsilon,
    reference_slender_failures,
    reference_triangulate,
    reference_validate_adornment,
)
import linkfold.adornments
from linkfold.adornments import (
    Adornment,
    AdornedChain,
    adorned_chain_to_linkage,
    is_strictly_slender,
    slender_failures,
    triangulate,
    validate_adornment,
)
from linkfold.errors import AdornmentError
from linkfold.geometry import orient, shoelace2
from linkfold.linkage import is_nontouching

ISO = Adornment(((0, 0), (2, 0), (1, 1)), (0, 1))
FLAT_ISO = Adornment(((0, 0), (2, 0), (1, F(1, 2))), (0, 1))
LEG_RIGHT = Adornment(((0, 0), (1, 0), (0, 1)), (0, 1))
SQUARE = Adornment(((0, 0), (1, 0), (1, 1), (0, 1)), (0, 1))
HYP_RIGHT = Adornment(((0, 0), (2, 0), (0, 1)), (1, 2))
FLAT_QUAD = Adornment(((0, 0), (4, 0), (3, 1), (1, 1)), (0, 1))
TALL_ISO = Adornment(((0, 0), (2, 0), (1, 3)), (0, 1))

VERDICTS = [
    (ISO, True),
    (FLAT_ISO, True),
    (LEG_RIGHT, False),
    (SQUARE, False),
    (HYP_RIGHT, True),
    (FLAT_QUAD, True),
    (TALL_ISO, False),
]


def test_slender_verdicts_both_modes():
    for shape, expected in VERDICTS:
        for mode in ("closure", "interior"):
            assert is_strictly_slender(shape, mode) == expected, (
                shape,
                mode,
            )


def test_slender_failure_reasons():
    fails = dict(slender_failures(LEG_RIGHT))
    assert 2 in fails and "parallel" in fails[2]
    fails = dict(slender_failures(SQUARE))
    assert any("parallel" in msg for msg in fails.values())
    fails = dict(slender_failures(TALL_ISO))
    assert any("span" in msg for msg in fails.values())
    assert slender_failures(ISO) == ()


def test_slender_interior_failures_subset_of_closure():
    shapes = [s for s, _ in VERDICTS] + [
        Adornment(((0, 0), (1, 0), (1, 1), (0, 1)), (0, 2)),
        Adornment(((0, 0), (3, 0), (4, 2), (-1, 2)), (0, 1)),
    ]
    for shape in shapes:
        inner = set(slender_failures(shape, "interior"))
        outer = set(slender_failures(shape, "closure"))
        assert inner <= outer


def test_slender_square_diagonal_base():
    diag = Adornment(((0, 0), (1, 0), (1, 1), (0, 1)), (0, 2))
    assert is_strictly_slender(diag)


def test_slender_mode_validation():
    with pytest.raises(AdornmentError):
        slender_failures(ISO, "open")


def test_validate_adornment_errors():
    with pytest.raises(AdornmentError):
        validate_adornment(Adornment(((0, 0), (1, 0)), (0, 1)))
    with pytest.raises(AdornmentError):  # clockwise
        validate_adornment(Adornment(((0, 0), (0, 1), (1, 0)), (0, 1)))
    with pytest.raises(AdornmentError):  # repeated vertex
        validate_adornment(
            Adornment(((0, 0), (1, 0), (1, 1), (1, 0)), (0, 1))
        )
    with pytest.raises(AdornmentError):  # collinear corner
        validate_adornment(
            Adornment(((0, 0), (1, 0), (2, 0), (1, 1)), (0, 1))
        )
    with pytest.raises(AdornmentError):  # bowtie self-crossing
        validate_adornment(
            Adornment(((0, 0), (1, 1), (1, 0), (0, 1)), (0, 1))
        )
    with pytest.raises(AdornmentError):  # base names one vertex twice
        validate_adornment(Adornment(((0, 0), (2, 0), (1, 1)), (1, 1)))
    with pytest.raises(AdornmentError):  # base chord outside a dart
        validate_adornment(
            Adornment(((0, 0), (2, 1), (4, 0), (2, 4)), (0, 2))
        )
    # interior chord of a convex polygon is fine
    validate_adornment(Adornment(((0, 0), (1, 0), (1, 1), (0, 1)), (1, 3)))


# two lobes pinched where corner (3, 0) meets the side along y = 0: listed
# from (0, 0) the later corner touches the earlier side, listed from
# (3, 0) the earlier corner touches the later side
PINCHED = ((0, 0), (6, 0), (6, 4), (4, 4), (3, 0), (2, 4), (0, 4))
PINCHED_ROTATED = PINCHED[4:] + PINCHED[:4]
# a square notched from above: corner 3 is reflex
NOTCHED = ((0, 0), (4, 0), (4, 3), (2, 1), (0, 3))
# open to the right: corners 3 and 4 are reflex
C_SHAPE = ((0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (4, 3), (4, 4), (0, 4))


@pytest.mark.parametrize(
    "boundary, base, message",
    [
        (PINCHED, (0, 1), "boundary is self-touching"),
        (PINCHED_ROTATED, (0, 1), "boundary is self-touching"),
        (NOTCHED, (0, 2), "base chord crosses the boundary"),
        (C_SHAPE, (1, 5), "base chord passes through a boundary vertex"),
        (NOTCHED, (1, 3), None),
        (NOTCHED, (2, 4), "base chord lies outside the region"),
        (NOTCHED, (3, 0), None),
        (C_SHAPE, (3, 5), "base chord lies outside the region"),
    ],
    ids=[
        "touch-later",
        "touch-earlier",
        "chord-crosses",
        "chord-through-vertex",
        "convex-end-inside",
        "convex-end-outside",
        "reflex-end-inside",
        "reflex-end-outside",
    ],
)
def test_validate_adornment_branches(boundary, base, message):
    shape = Adornment(boundary, base)
    for check in (validate_adornment, reference_validate_adornment):
        if message is None:
            check(shape)
            continue
        with pytest.raises(AdornmentError) as exc:
            check(shape)
        assert str(exc.value) == message


def test_slender_failures_outward_base_and_reflex_corners():
    # the C's inner sides 3 and 4 face away from the base along y = 0,
    # and its reflex corners 3 and 4 carry no normal cone, though the
    # cone test alone would find the base direction at corner 3
    shape = Adornment(C_SHAPE, (0, 1))
    edges = (
        (1, "edge normals run parallel to the base"),
        (3, "base not on the inward side of the edge"),
        (4, "base not on the inward side of the edge"),
        (5, "edge normals run parallel to the base"),
        (7, "edge normals run parallel to the base"),
    )
    corners = tuple(
        (k, "corner cone contains a base-parallel direction") for k in (2, 5, 6, 7)
    )
    assert slender_failures(shape, "interior") == edges
    assert slender_failures(shape) == edges + corners


ADORNMENT_MESSAGES = {
    "polygon needs at least three vertices",
    "repeated boundary vertex",
    "boundary must be counterclockwise",
    "collinear boundary corner",
    "boundary is self-intersecting",
    "boundary is self-touching",
    "base must name two distinct boundary vertices",
    "base chord crosses the boundary",
    "base chord passes through a boundary vertex",
    "base chord lies outside the region",
}
SLENDER_REASONS = {
    "base not on the inward side of the edge",
    "edge normals run parallel to the base",
    "base shadow does not span the edge",
    "corner cone contains a base-parallel direction",
}


def _outcome(check, *args):
    try:
        return check(*args)
    except AdornmentError as exc:
        return str(exc)


def test_adornments_match_reference_random():
    # star-shaped polygons, with chord bases and reflex corners, and grid
    # polygons that mostly fail: every message and every reason must occur
    rng = random.Random(27)
    messages, reasons, chords, reflex = set(), set(), 0, 0
    for _ in range(400):
        for shape in (random_star_adornment(rng), random_grid_adornment(rng)):
            got = _outcome(validate_adornment, shape)
            assert got == _outcome(reference_validate_adornment, shape), shape
            if got is not None:
                messages.add(got.split(" at index")[0])
                continue
            pts, (i, j), n = shape.boundary, shape.base, len(shape.boundary)
            chords += (i - j) % n not in (1, n - 1)
            reflex += any(
                orient(pts[k - 1], pts[k], pts[(k + 1) % n]) < 0 for k in range(n)
            )
            for mode in ("closure", "interior"):
                failures = slender_failures(shape, mode)
                assert failures == reference_slender_failures(shape, mode), shape
                reasons.update(reason for _, reason in failures)
    assert messages == ADORNMENT_MESSAGES
    assert reasons == SLENDER_REASONS
    assert chords and reflex


def test_triangulate_triangle_identity():
    tris = triangulate(ISO)
    assert tris == (((F(0), F(0)), (F(2), F(0)), (F(1), F(1))),)


def test_triangulate_quad_counts():
    quad = Adornment(((0, 0), (2, 0), (2, 1), (0, 1)), (0, 1))
    assert len(triangulate(quad)) == 2
    dart = Adornment(((0, 0), (2, 1), (4, 0), (2, 4)), (1, 3))
    tris = triangulate(dart)
    assert len(tris) == 2
    # pieces stay inside the region: centroids pass the interior test
    for a, b, c in tris:
        cx = (a[0] + b[0] + c[0]) / 3
        cy = (a[1] + b[1] + c[1]) / 3
        assert _point_in_polygon((cx, cy), dart.boundary)


def test_triangulate_area_oracle():
    rng = random.Random(6)
    shapes = [s for s, _ in VERDICTS]
    shapes.append(Adornment(((0, 0), (2, 1), (4, 0), (2, 4)), (1, 3)))
    for _ in range(30):
        # random convex fan around the origin
        n = rng.randint(3, 8)
        pts = []
        for k in range(n):
            r = F(rng.randint(2, 9), rng.choice([1, 2]))
            num = 360 * k + rng.randint(10, 350 // max(1, n))
            # rational points on a grid roughly along increasing angle
            pts.append((r + F(k), F(k * k) + F(num, 360)))
        try:
            shape = Adornment(tuple(pts), (0, 1))
            validate_adornment(shape)
        except AdornmentError:
            continue
        shapes.append(shape)
    for shape in shapes:
        tris = triangulate(shape)
        assert sum(orient(a, b, c) for a, b, c in tris) == shoelace2(
            shape.boundary
        )


def test_perturbation_cloud_robust_and_borderline():
    rng = random.Random(2024)

    def jitter(shape):
        pts = tuple(
            (
                x + F(rng.randint(-1000, 1000), 10**9),
                y + F(rng.randint(-1000, 1000), 10**9),
            )
            for x, y in shape.boundary
        )
        return Adornment(pts, shape.base)

    for robust in (FLAT_ISO, FLAT_QUAD):
        for _ in range(100):
            assert is_strictly_slender(jitter(robust))

    # the borderline shapes sit on the open condition's boundary
    for borderline in (ISO, HYP_RIGHT):
        outcomes = {
            is_strictly_slender(jitter(borderline)) for _ in range(100)
        }
        assert outcomes == {True, False}

    # failing shapes stay failing nearby
    for solid_no in (SQUARE, TALL_ISO):
        for _ in range(100):
            assert not is_strictly_slender(jitter(solid_no))


def test_adorned_chain_single_triangle():
    L, C = adorned_chain_to_linkage(AdornedChain((ISO,)))
    assert len(L.edges) == 3
    assert len(L.vertices) == 3
    assert C.epsilon > 0  # slant lengths are irrational
    assert is_nontouching(L, C)


def test_adorned_chain_exact_lengths():
    tri = Adornment(((0, 0), (4, 0), (0, 3)), (0, 1))
    L, C = adorned_chain_to_linkage(AdornedChain((tri,)))
    assert C.epsilon == 0
    assert sorted(e.rest_length for e in L.edges) == [3, 4, 5]


def test_adorned_chain_two_triangles():
    a = Adornment(((0, 0), (2, 0), (1, 1)), (0, 1))
    b = Adornment(((2, 0), (4, 0), (3, 1)), (0, 1))
    L, C = adorned_chain_to_linkage(AdornedChain((a, b)))
    assert len(L.edges) == 6
    assert len(L.vertices) == 5  # shared base endpoint merged
    assert is_nontouching(L, C)


def test_adorned_chain_three_quads():
    quads = []
    for k in range(3):
        x = 2 * k
        quads.append(
            Adornment(
                (
                    (x, 0),
                    (x + 2, 0),
                    (x + F(3, 2), 1),
                    (x + F(1, 2), 1),
                ),
                (0, 1),
            )
        )
    L, C = adorned_chain_to_linkage(AdornedChain(tuple(quads)))
    assert len(L.edges) == 15  # 4 boundary + 1 diagonal per quad
    assert len(L.vertices) == 10
    assert is_nontouching(L, C)


def test_adorned_chain_errors():
    with pytest.raises(AdornmentError):
        adorned_chain_to_linkage(AdornedChain(()))
    a = Adornment(((0, 0), (2, 0), (1, 1)), (0, 1))
    gap = Adornment(((3, 0), (5, 0), (4, 1)), (0, 1))
    with pytest.raises(AdornmentError):
        adorned_chain_to_linkage(AdornedChain((a, gap)))
    # irrational rest lengths are exact integer-root bounds at any size,
    # past float precision (3*10^16, 10^20) and float range (10^400)
    for s in (3 * 10**16, 10**20, 10**400):
        tri = Adornment(((0, 0), (s, 0), (0, s)), (0, 1))
        L, C = adorned_chain_to_linkage(AdornedChain((tri,)))
        assert C.epsilon == F(1, 10**10)
        hyp = next(e.rest_length for e in L.edges if e.rest_length > s)
        assert 0 < s * s * 2 - hyp * hyp
        assert (hyp + F(1, 10**12)) ** 2 > s * s * 2


# a self-crossing quadrilateral of positive signed area
BOWTIE = Adornment(((0, 0), (4, 0), (0, 1), (1, 3)), (0, 1))


def test_adorned_chain_validates_each_polygon_first():
    with pytest.raises(AdornmentError, match="self-intersecting"):
        validate_adornment(BOWTIE)
    # a bad polygon raises before a base mismatch, wherever it sits
    gap = Adornment(((3, 0), (5, 0), (4, 1)), (0, 1))
    with pytest.raises(AdornmentError, match="self-intersecting"):
        adorned_chain_to_linkage(AdornedChain((ISO, gap, BOWTIE)))
    # a clockwise triangle ear-clips, yet never becomes bars
    clockwise = Adornment(((2, 0), (3, 1), (4, 0)), (0, 2))
    with pytest.raises(AdornmentError, match="counterclockwise"):
        adorned_chain_to_linkage(AdornedChain((ISO, clockwise)))


def test_adornments_validated_once_per_polygon(monkeypatch):
    calls = count_calls(monkeypatch, linkfold.adornments, ["validate_adornment"])
    chain = random_adorned_chain(random.Random(24), 5)
    adorned_chain_to_linkage(chain)
    assert calls["validate_adornment"] == 5


def test_adorned_chain_slack_matches_reference():
    for s in (10**14, 10**16):
        tri = Adornment(((0, 0), (s, 0), (0, s)), (0, 1))
        eps = adorned_chain_to_linkage(AdornedChain((tri,)))[1].epsilon
        assert eps == F(1, 10**10)
    rng = random.Random(77)
    for _ in range(20):
        L, C = adorned_chain_to_linkage(random_adorned_chain(rng, 3))
        assert C.epsilon == reference_epsilon(L, C.placement, F(1, 10**10))


def _built(convert, chain):
    L, C = convert(chain)
    edges = [(e.id, e.tail, e.head, e.rest_length) for e in L.edges]
    return L.vertices, edges, C.placement, C.epsilon


def test_adorned_geometry_matches_reference_random():
    # triangles and errors of single polygons, then whole chains whose
    # adornments each have their own denominators, blunt and slender
    # apexes and caps with reflex or collinear corners
    rng = random.Random(29)
    outcomes = set()
    for _ in range(300):
        for shape in (random_star_adornment(rng), random_grid_adornment(rng)):
            got = _outcome(triangulate, shape)
            assert got == _outcome(reference_triangulate, shape), shape
            chain = AdornedChain((shape,))
            assert _outcome(_built, adorned_chain_to_linkage, chain) == _outcome(
                _built, reference_adorned_chain_to_linkage, chain
            )
            outcomes.add(isinstance(got, str))
    assert outcomes == {True, False}
    slender = set()
    for _ in range(60):
        chains = (random_capped_chain(rng, rng.randint(1, 8)), random_adorned_chain(rng, 4))
        for chain in chains:
            got = _outcome(_built, adorned_chain_to_linkage, chain)
            assert got == _outcome(_built, reference_adorned_chain_to_linkage, chain)
            if not isinstance(got, str):
                slender.update(is_strictly_slender(a) for a in chain.adornments)
    assert slender == {True, False}


def test_adornment_predicates_build_no_fractions(monkeypatch):
    # validation, both slender modes and ear clipping read only the integer
    # images, which the lattice builds from numerators and denominators
    rng = random.Random(8)
    shapes = [random_star_adornment(rng) for _ in range(40)]
    shapes += random_capped_chain(rng, 30).adornments + (Adornment(C_SHAPE, (0, 1)),)
    counts = count_fractions(monkeypatch)
    valid = 0
    for shape in shapes:
        try:
            validate_adornment(shape)
        except AdornmentError:
            continue
        valid += 1
        slender_failures(shape, "interior")
        slender_failures(shape, "closure")
        triangulate(shape)
    assert counts == {"built": 0, "ops": 0}
    assert valid > 40

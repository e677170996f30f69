"""Exact planar primitives: orientation, crossing, canonical lines, angles."""

import math
import random
from fractions import Fraction

import pytest

from helpers import closed_box_pairs
from linkfold.geometry import (
    angle_descending_key,
    box_pairs,
    canonical_line,
    canonical_line_direction,
    compare_angle_descending,
    in_open_segment,
    lattice,
    on_closed_segment,
    orient,
    point_on_line,
    primitive_direction,
    properly_cross,
)

F = Fraction


def rpt(rng):
    return (F(rng.randint(-8, 8), rng.randint(1, 4)),
            F(rng.randint(-8, 8), rng.randint(1, 4)))


def test_orient_examples():
    a, b = (F(0), F(0)), (F(2), F(0))
    assert orient(a, b, (F(1), F(1))) > 0
    assert orient(a, b, (F(1), F(-1))) < 0
    assert orient(a, b, (F(5), F(0))) == 0


def test_segment_membership():
    a, b = (F(0), F(0)), (F(4), F(2))
    assert on_closed_segment(a, a, b)
    assert not in_open_segment(a, a, b)
    mid = (F(2), F(1))
    assert in_open_segment(mid, a, b)
    assert on_closed_segment(mid, a, b)
    assert not on_closed_segment((F(2), F(2)), a, b)
    assert not on_closed_segment((F(6), F(3)), a, b)


def _line_through(p, q):
    # returns (a, b, c) with a x + b y = c, unnormalized Fractions
    d = (q[0] - p[0], q[1] - p[1])
    a, b = -d[1], d[0]
    return a, b, a * p[0] + b * p[1]


def _proper_cross_oracle(a, b, c, d):
    # solve the two supporting lines exactly; cross iff the unique
    # intersection point is interior to both segments
    a1, b1, c1 = _line_through(a, b)
    a2, b2, c2 = _line_through(c, d)
    det = a1 * b2 - a2 * b1
    if det == 0:
        return False
    x = (c1 * b2 - c2 * b1) / det
    y = (a1 * c2 - a2 * c1) / det
    return in_open_segment((x, y), a, b) and in_open_segment((x, y), c, d)


def test_properly_cross_examples():
    assert properly_cross((F(0), F(0)), (F(2), F(2)), (F(0), F(2)), (F(2), F(0)))
    # touching at an endpoint is not a proper crossing
    assert not properly_cross((F(0), F(0)), (F(2), F(0)), (F(2), F(0)), (F(2), F(2)))
    # T-contact: endpoint in the other segment's interior
    assert not properly_cross((F(0), F(0)), (F(2), F(0)), (F(1), F(0)), (F(1), F(2)))
    # collinear overlap
    assert not properly_cross((F(0), F(0)), (F(2), F(0)), (F(1), F(0)), (F(3), F(0)))


def test_properly_cross_matches_line_solver():
    rng = random.Random(4)
    checked = crossings = 0
    while checked < 400:
        a, b, c, d = rpt(rng), rpt(rng), rpt(rng), rpt(rng)
        if a == b or c == d:
            continue
        got = properly_cross(a, b, c, d)
        assert got == _proper_cross_oracle(a, b, c, d)
        checked += 1
        crossings += got
    assert crossings > 20


def test_primitive_direction():
    assert primitive_direction((F(4), F(-6))) == (2, -3)
    assert primitive_direction((F(1, 3), F(1, 2))) == (2, 3)
    assert primitive_direction((F(0), F(-5))) == (0, -1)
    with pytest.raises(ValueError):
        primitive_direction((F(0), F(0)))
    rng = random.Random(5)
    for _ in range(200):
        v = rpt(rng)
        if v == (0, 0):
            continue
        ix, iy = primitive_direction(v)
        assert math.gcd(abs(ix), abs(iy)) == 1
        assert ix * v[1] == iy * v[0]  # parallel
        assert ix * v[0] + iy * v[1] > 0  # same sense


def _theta(u):
    t = math.atan2(u[1], u[0])
    return t if t >= 0 else t + 2 * math.pi


def test_angle_order_matches_atan2():
    dirs = []
    for x in range(-3, 4):
        for y in range(-3, 4):
            if (x, y) != (0, 0) and math.gcd(abs(x), abs(y)) == 1:
                dirs.append((x, y))
    ordered = sorted(dirs, key=angle_descending_key)
    thetas = [_theta(u) for u in ordered]
    assert thetas == sorted(thetas, reverse=True)
    for u in dirs:
        for v in dirs:
            c = compare_angle_descending(u, v)
            if u == v:
                assert c == 0
            else:
                assert (c < 0) == (_theta(u) > _theta(v))


def test_canonical_line_is_canonical():
    rng = random.Random(6)
    for _ in range(200):
        p, q = rpt(rng), rpt(rng)
        if p == q:
            continue
        line = canonical_line(p, q)
        a, b, c = line
        assert point_on_line(p, line) and point_on_line(q, line)
        assert math.gcd(math.gcd(abs(a), abs(b)), abs(c)) == 1
        assert a > 0 or (a == 0 and b > 0)
        # any other collinear pair lands on the identical triple
        t1, t2 = F(rng.randint(-5, 5), 3), F(rng.randint(-5, 5), 3)
        if t1 == t2:
            continue
        d = (q[0] - p[0], q[1] - p[1])
        p2 = (p[0] + t1 * d[0], p[1] + t1 * d[1])
        q2 = (p[0] + t2 * d[0], p[1] + t2 * d[1])
        assert canonical_line(p2, q2) == line
    with pytest.raises(ValueError):
        canonical_line(p, p)


def test_canonical_line_direction_points_right_or_up():
    rng = random.Random(7)
    for _ in range(200):
        p, q = rpt(rng), rpt(rng)
        if p == q:
            continue
        line = canonical_line(p, q)
        dx, dy = canonical_line_direction(line)
        assert line[0] * dx + line[1] * dy == 0
        assert dx > 0 or (dx == 0 and dy > 0)
        assert math.gcd(abs(dx), abs(dy)) == 1
    assert canonical_line_direction(canonical_line((F(0), F(0)), (F(0), F(3)))) == (0, 1)
    assert canonical_line_direction(canonical_line((F(5), F(1)), (F(0), F(1)))) == (1, 0)


def test_lattice_scales_to_common_denominator():
    pts = [(F(1, 6), F(-3, 4)), (F(5), F(0)), (F(2, 9), F(7, 10))]
    D, images = lattice(pts)
    assert D == 180
    assert images == [(30, -135), (900, 0), (40, 126)]
    assert all(type(c) is int for p in images for c in p)
    assert lattice([(1, 2), (3, -4)]) == (1, [(1, 2), (3, -4)])
    assert lattice([]) == (1, [])
    # any arity: one long tuple scales a whole assignment at once
    assert lattice([(F(1, 2), F(1, 3), F(-1, 4))]) == (12, [(6, 4, -3)])


def test_lattice_keeps_predicate_signs():
    rng = random.Random(31)
    for _ in range(300):
        pts = [rpt(rng) for _ in range(4)]
        _, (a, b, c, d) = lattice(pts)
        assert properly_cross(a, b, c, d) == properly_cross(*pts)
        assert in_open_segment(a, b, c) == in_open_segment(*pts[:3])
        assert (orient(a, b, c) > 0) == (orient(*pts[:3]) > 0)


def test_box_pairs_matches_brute_force():
    rng = random.Random(32)
    for trial in range(300):
        n = rng.randint(0, 14)
        segs = []
        for _ in range(n):
            a = rpt(rng)
            # points, axis-parallel bars and bars meeting only at a box side
            b = rng.choice([a, (a[0], rpt(rng)[1]), (rpt(rng)[0], a[1]), rpt(rng)])
            segs.append((a, b))
        if trial % 2:
            segs = lattice(p for s in segs for p in s)[1]
            segs = list(zip(segs[::2], segs[1::2]))
        assert box_pairs(segs) == closed_box_pairs(segs)
    # boxes that only touch along a side or at a corner count
    unit = ((F(0), F(0)), (F(1), F(1)))
    assert box_pairs([unit, ((F(1), F(1)), (F(2), F(3)))]) == [(0, 1)]
    assert box_pairs([unit, ((F(1), F(5)), (F(1), F(1, 2)))]) == [(0, 1)]
    assert box_pairs([unit, ((F(2), F(0)), (F(3), F(1)))]) == []

"""Canonical chain placements, the circumradius solver, interpolation."""

import math
import random
from fractions import Fraction as F

import pytest

from helpers import (
    closed_chain_linkage,
    conf,
    mk_linkage,
    perturbed_closed_pair,
    random_closed_lengths,
    random_linkage,
    random_zero_linkage,
    reference_classify_chain,
    straight_chain,
)
from linkfold.chains import (
    canonical_closed,
    canonical_open,
    classify_chain,
    convex_interpolate,
    turning_direction,
)
from linkfold.errors import ChainError
from linkfold.linkage import (
    Edge,
    Linkage,
    check_epsilon_related,
    configuration_membership,
)


def test_classify_chain_kinds():
    L, _ = straight_chain(1, 1, 1)
    s = classify_chain(L)
    assert s.kind == "open"
    assert s.vertices == ("v0", "v1", "v2", "v3")
    assert s.edges == ("e0", "e1", "e2")

    T = closed_chain_linkage(1, 1, 1)
    s = classify_chain(T)
    assert s.kind == "closed"
    assert s.vertices == ("v0", "v1", "v2")
    assert s.edges == ("e0", "e1", "e2")

    star = mk_linkage(
        [("e0", "c", "a", 1), ("e1", "c", "b", 1), ("e2", "c", "d", 1)]
    )
    assert classify_chain(star).kind == "other"

    # disconnected pair of bars
    two = mk_linkage([("e0", "a", "b", 1), ("e1", "c", "d", 1)])
    assert classify_chain(two).kind == "other"

    # doubled edge is a 2-cycle
    dbl = mk_linkage([("e0", "a", "b", 1), ("e1", "b", "a", 1)])
    assert classify_chain(dbl).kind == "closed"


def _shuffled(rng, L):
    """L with its vertices and edges in random order, edges maybe reversed."""
    edges = [
        Edge(e.id, e.head, e.tail, e.rest_length) if rng.random() < 0.5 else e
        for e in L.edges
    ]
    rng.shuffle(edges)
    vertices = list(L.vertices)
    rng.shuffle(vertices)
    return Linkage(tuple(vertices), tuple(edges))


def test_classify_chain_matches_reference():
    rng = random.Random(67)
    cases = [
        Linkage((), ()),
        Linkage(("solo",), ()),
        straight_chain(2)[0],
        mk_linkage([("e0", "a", "b", 1), ("e1", "b", "a", 1)]),
        mk_linkage([("e0", "a", "b", 1), ("e1", "b", "a", 1), ("e2", "a", "b", 2)]),
        mk_linkage([("e0", "a", "b", 1), ("e1", "c", "d", 1)]),
        mk_linkage([("e0", "a", "b", 1)], vertices=("a", "b", "lone")),
        mk_linkage(
            [("e0", "a", "b", 1), ("e1", "b", "c", 1), ("e2", "c", "a", 1)]
            + [("e3", "d", "e", 1), ("e4", "e", "f", 1), ("e5", "f", "d", 1)]
        ),
    ]
    for _ in range(60):
        cases.append(random_linkage(rng)[0])
        cases.append(random_zero_linkage(rng)[0])
        n = rng.randint(1, 9)
        cases.append(_shuffled(rng, straight_chain(*[1] * n)[0]))
        cases.append(_shuffled(rng, closed_chain_linkage(*[1] * (n + 1))))
    kinds = set()
    for L in cases:
        shape = classify_chain(L)
        assert shape == reference_classify_chain(L), L
        kinds.add(shape.kind)
    assert kinds == {"open", "closed", "other"}


def test_canonical_open_exact():
    L, _ = straight_chain(1, 2)
    c = canonical_open(L)
    assert c.kind == "straight"
    assert c.configuration.epsilon == 0
    assert c.configuration.placement == {
        "v0": (F(0), F(0)),
        "v1": (F(1), F(0)),
        "v2": (F(3), F(0)),
    }

    single, _ = straight_chain(5)
    c = canonical_open(single)
    assert c.configuration.placement == {"v0": (F(0), F(0)), "v1": (F(5), F(0))}

    # zero-length middle bar keeps its two endpoints co-located
    zmid, _ = straight_chain(1, 0, 1)
    c = canonical_open(zmid)
    assert c.configuration.placement == {
        "v0": (F(0), F(0)),
        "v1": (F(1), F(0)),
        "v2": (F(1), F(0)),
        "v3": (F(2), F(0)),
    }

    with pytest.raises(ChainError):
        canonical_open(closed_chain_linkage(1, 1, 1))


def test_circumradius_right_triangle():
    c = canonical_closed(closed_chain_linkage(3, 4, 5), "ccw")
    assert c.kind == "concyclic"
    assert abs(c.circumradius - 2.5) <= 1e-9


def test_circumradius_equilateral():
    c = canonical_closed(closed_chain_linkage(1, 1, 1), "ccw")
    assert c.kind == "concyclic"
    assert abs(c.circumradius - 1 / math.sqrt(3)) <= 1e-9


def test_flat_degenerate_doubled_segment():
    c = canonical_closed(closed_chain_linkage(2, 1, 1), "ccw")
    assert c.kind == "flat-degenerate"
    assert c.circumradius is None
    assert c.configuration.epsilon == 0
    assert c.configuration.placement == {
        "v0": (F(0), F(0)),
        "v1": (F(2), F(0)),
        "v2": (F(1), F(0)),
    }


def test_canonical_closed_errors():
    with pytest.raises(ChainError):
        canonical_closed(closed_chain_linkage(5, 1, 1), "ccw")
    with pytest.raises(ChainError):
        canonical_closed(mk_linkage([("e0", "a", "b", 1), ("e1", "b", "a", 1)]), "ccw")
    with pytest.raises(ChainError):
        canonical_closed(closed_chain_linkage(1, 1, 1), "widdershins")
    with pytest.raises(ChainError):
        L, _ = straight_chain(1, 1)
        canonical_closed(L, "ccw")


def test_canonical_closed_zero_bar_colocates():
    c = canonical_closed(closed_chain_linkage(1, 0, 1, 1), "ccw")
    assert c.kind == "concyclic"
    P = c.configuration.placement
    assert P["v1"] == P["v2"]


def _chord_residuals(c):
    """Max relative chord error and the absolute closure residual."""
    L = c.configuration.linkage
    P = c.configuration.placement
    shape = c.chain
    worst = 0.0
    r = c.circumradius
    for vid, wid, eid in zip(
        shape.vertices, shape.vertices[1:] + shape.vertices[:1], shape.edges
    ):
        rest = float(L.edges[L.edge_index(eid)].rest_length)
        ax, ay = P[vid]
        bx, by = P[wid]
        chord = math.hypot(float(bx - ax), float(by - ay))
        if rest == 0.0:
            worst = max(worst, chord)
        else:
            worst = max(worst, abs(chord - rest) / rest)
    # central angle closure on whichever branch the solver reports
    lens = [
        float(L.edges[L.edge_index(eid)].rest_length) for eid in shape.edges
    ]
    thetas = [2.0 * math.asin(min(1.0, l / (2.0 * r))) for l in lens]
    imax = lens.index(max(lens))
    inside = abs(sum(thetas) - 2.0 * math.pi)
    outside = abs(sum(thetas) - 2.0 * thetas[imax])
    return worst, inside, outside


def test_canonical_closed_tolerances_random():
    rng = random.Random(20260816)
    for _ in range(120):
        lens = random_closed_lengths(rng)
        c = canonical_closed(closed_chain_linkage(*lens), "ccw")
        assert c.kind == "concyclic"
        worst, inside, outside = _chord_residuals(c)
        assert worst <= 1e-9
        # exactly one closure branch holds, except at the diameter case
        # where the branches coincide
        hits = (inside <= 1e-10) + (outside <= 1e-10)
        assert hits >= 1
        if hits == 2:
            assert abs(c.circumradius - float(max(lens)) / 2.0) <= 1e-9
        assert turning_direction(c.configuration) == "ccw"
        cw = canonical_closed(closed_chain_linkage(*lens), "cw")
        assert turning_direction(cw.configuration) == "cw"


def test_turning_direction_square():
    L = closed_chain_linkage(1, 1, 1, 1)
    ccw = conf(L, {"v0": (0, 0), "v1": (1, 0), "v2": (1, 1), "v3": (0, 1)})
    assert turning_direction(ccw) == "ccw"
    cw = conf(L, {"v0": (0, 0), "v1": (0, 1), "v2": (1, 1), "v3": (1, 0)})
    assert turning_direction(cw) == "cw"

    flat = canonical_closed(closed_chain_linkage(2, 1, 1), "ccw")
    with pytest.raises(ChainError):
        turning_direction(flat.configuration)
    with pytest.raises(ChainError):
        L2, C2 = straight_chain(1, 1)
        turning_direction(C2)


def test_interpolate_endpoints_identity():
    ca = canonical_closed(closed_chain_linkage(3, 4, 5), "ccw")
    cb = canonical_closed(closed_chain_linkage(F(31, 10), 4, 5), "ccw")
    r0 = convex_interpolate(ca.configuration, cb.configuration, 0)
    assert r0.configuration.placement == ca.configuration.placement
    assert [e.rest_length for e in r0.configuration.linkage.edges] == [
        e.rest_length for e in ca.configuration.linkage.edges
    ]
    r1 = convex_interpolate(ca.configuration, cb.configuration, 1)
    assert r1.configuration.placement == cb.configuration.placement
    assert r0.convex and r1.convex


def test_interpolate_square_midpoint():
    ca = canonical_closed(closed_chain_linkage(1, 1, 1, 1), "ccw")
    cb = canonical_closed(
        closed_chain_linkage(F(11, 10), F(11, 10), F(11, 10), F(11, 10)), "ccw"
    )
    r = convex_interpolate(ca.configuration, cb.configuration, F(1, 2))
    assert r.convex
    # scaling blend: every chord is the blended rest length
    P = r.configuration.placement
    for e in r.configuration.linkage.edges:
        ax, ay = P[e.tail]
        bx, by = P[e.head]
        chord = math.hypot(float(bx - ax), float(by - ay))
        assert abs(chord - float(e.rest_length)) <= 1e-9


def test_interpolate_open_chains():
    La, _ = straight_chain(1, 2)
    Lb, _ = straight_chain(2, 1)
    ca, cb = canonical_open(La), canonical_open(Lb)
    r = convex_interpolate(ca.configuration, cb.configuration, F(1, 2))
    assert r.convex
    assert r.configuration.placement["v1"] == (F(3, 2), F(0))
    assert r.configuration.placement["v2"] == (F(3), F(0))


def test_interpolate_errors():
    ca = canonical_closed(closed_chain_linkage(3, 4, 5), "ccw")
    cb = canonical_closed(closed_chain_linkage(3, 4, 5), "cw")
    with pytest.raises(ChainError):
        convex_interpolate(ca.configuration, cb.configuration, F(1, 2))
    with pytest.raises(ChainError):
        convex_interpolate(ca.configuration, ca.configuration, F(3, 2))
    co = canonical_open(straight_chain(1, 2)[0])
    with pytest.raises(ChainError):
        convex_interpolate(ca.configuration, co.configuration, F(1, 2))
    other = canonical_closed(closed_chain_linkage(3, 4, 5, 3), "ccw")
    with pytest.raises(ChainError):
        convex_interpolate(ca.configuration, other.configuration, F(1, 2))


def test_interpolate_convex_grid_random():
    rng = random.Random(4096)
    grid = [F(k, 10) for k in range(11)]
    for _ in range(500):
        lens1, lens2 = perturbed_closed_pair(rng)
        La = closed_chain_linkage(*lens1)
        Lb = closed_chain_linkage(*lens2)
        eps = max(abs(a - b) for a, b in zip(lens1, lens2))
        assert check_epsilon_related(La, Lb, eps)
        ca = canonical_closed(La, "ccw")
        cb = canonical_closed(Lb, "ccw")
        for t in grid:
            r = convex_interpolate(ca.configuration, cb.configuration, t)
            assert r.convex, (lens1, lens2, t)


def test_interpolate_certifies_slack_afresh():
    # a translated copy blends exactly, so the inputs' slack is not kept
    L, _ = straight_chain(1, 2)
    ca = conf(L, {"v0": (0, 0), "v1": (1, 0), "v2": (3, 0)}, eps=F(1, 10))
    cb = conf(L, {"v0": (5, 1), "v1": (6, 1), "v2": (8, 1)}, eps=F(1, 10))
    for t in (0, F(1, 2), 1):
        assert convex_interpolate(ca, cb, t).configuration.epsilon == 0

    # a gap beyond 10**-12 * 2**199 is certified, not refused
    big = 10**50
    L = mk_linkage([("e", "a", "b", big)])
    ca = conf(L, {"a": (0, 0), "b": (big, 0)})
    cb = conf(L, {"a": (0, 0), "b": (0, big)})
    blend = convex_interpolate(ca, cb, F(1, 2)).configuration
    assert blend.epsilon > F(1, 10**12) * 2**199
    assert not configuration_membership(L, blend.placement, blend.epsilon / 2)


def test_interpolate_pairs_bars_by_id():
    # one 3-4-3-4 rectangle, with its second copy listing e2 before e1
    specs = [
        ("e0", "v0", "v1", 3),
        ("e1", "v1", "v2", 4),
        ("e2", "v2", "v3", 3),
        ("e3", "v3", "v0", 4),
    ]
    coords = {"v0": (0, 0), "v1": (3, 0), "v2": (3, 4), "v3": (0, 4)}
    ca = conf(mk_linkage(specs), coords)
    cb = conf(mk_linkage([specs[0], specs[2], specs[1], specs[3]]), coords)
    blend = convex_interpolate(ca, cb, F(1, 2)).configuration
    rest = {e.id: e.rest_length for e in blend.linkage.edges}
    assert rest == {"e0": 3, "e1": 4, "e2": 3, "e3": 4}
    assert blend.epsilon == 0

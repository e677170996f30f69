"""Linkage model: membership bands, merging, nontouching, extend/reduce."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    big_eps,
    closed_chain_linkage,
    conf,
    count_calls,
    doubled_chain,
    zero_cluster_star,
    mk_linkage,
    perturbed_closed_pair,
    random_adorned_chain,
    random_closed_lengths,
    random_linkage,
    random_sa_instance,
    random_zero_linkage,
    reference_epsilon,
    reference_is_nontouching,
    straight_chain,
)
import linkfold.linkage
from linkfold.adornments import adorned_chain_to_linkage
from linkfold.chains import canonical_closed, convex_interpolate
from linkfold.errors import ChainError, LinkageError
from linkfold.linkage import (
    Configuration,
    Edge,
    ExtensionMap,
    Linkage,
    certify_epsilon,
    check_epsilon_related,
    configuration_membership,
    extend_split,
    is_nontouching,
    merged_vertex_partition,
    reduce,
    require_conf0,
    touch_witness,
)

F = Fraction


def test_edge_and_linkage_validation():
    with pytest.raises(LinkageError):
        Edge("e", "a", "b", F(-1))
    with pytest.raises(LinkageError):
        Edge("e", "a", "a", F(1))
    with pytest.raises(LinkageError):
        Linkage(("a", "a"), ())
    e = Edge("e", "a", "b", F(1))
    with pytest.raises(LinkageError):
        Linkage(("a", "b"), (e, Edge("e", "b", "a", F(1))))
    with pytest.raises(LinkageError):
        Linkage(("a",), (e,))
    L = Linkage(("a", "b"), (e,))
    assert L.edge_index("e") == 0
    with pytest.raises(LinkageError):
        L.edge_index("nope")
    assert L.degree("a") == 1


def test_incidence_index_matches_scans():
    rng = random.Random(61)
    cases = [
        mk_linkage([("e1", "a", "b", 1)], vertices=("a", "b", "lone")),
        mk_linkage([("p", "a", "b", 1), ("q", "b", "a", 2), ("r", "a", "b", 0)]),
        Linkage(("solo",), ()),
        Linkage((), ()),
    ]
    for _ in range(60):
        cases.append(random_linkage(rng)[0])
        cases.append(random_zero_linkage(rng)[0])
    for L in cases:
        for v in L.vertices + ("unknown",):
            scan = [i for i, e in enumerate(L.edges) if v in (e.tail, e.head)]
            got = L.incident_slots(v)
            assert got == scan and L.degree(v) == len(scan)
            got.append(-1)  # a fresh list: the index is not exposed
            assert L.incident_slots(v) == scan
        for i, e in enumerate(L.edges):
            assert L.edge_index(e.id) == i
        for bad in ("unknown", ["e1"], None):
            with pytest.raises(LinkageError, match="no edge"):
                L.edge_index(bad)


def test_slack_free_exactness_needs_no_membership_test(monkeypatch):
    L = mk_linkage([("e1", "a", "b", 1), ("e2", "b", "c", 0)])
    exact = conf(L, {"a": (0, 0), "b": (1, 0), "c": (1, 0)})
    near = Configuration(L, {"a": (0, 0), "b": (1, 0), "c": (1, 0)}, F(1, 10))
    off = Configuration(L, {"a": (0, 0), "b": (1, 0), "c": (1, F(1, 20))}, F(1, 10))
    calls = count_calls(monkeypatch, linkfold.linkage, ["configuration_membership"])
    require_conf0(exact)
    assert exact.is_exact() and calls["configuration_membership"] == 0
    # a slack configuration may still sit exactly on its rest lengths
    assert near.is_exact() and not off.is_exact()
    assert calls["configuration_membership"] == 2


def test_membership_band():
    L = mk_linkage([("e1", "a", "b", 1)])
    pl = {"a": (F(0), F(0)), "b": (F(1), F(0))}
    assert configuration_membership(L, pl, 0)
    stretched = {"a": (F(0), F(0)), "b": (F(11, 10), F(0))}
    assert not configuration_membership(L, stretched, 0)
    assert configuration_membership(L, stretched, F(1, 10))
    squeezed = {"a": (F(0), F(0)), "b": (F(9, 10), F(0))}
    assert not configuration_membership(L, squeezed, 0)
    assert configuration_membership(L, squeezed, F(1, 10))
    with pytest.raises(LinkageError):
        configuration_membership(L, pl, -1)
    with pytest.raises(LinkageError):
        configuration_membership(L, {"a": (F(0), F(0))}, 0)


def test_membership_short_bar_floor():
    # below epsilon the rest length has no lower band, only the upper one
    L = mk_linkage([("e1", "a", "b", F(1, 10))])
    collapsed = {"a": (F(0), F(0)), "b": (F(0), F(0))}
    assert not configuration_membership(L, collapsed, 0)
    assert configuration_membership(L, collapsed, F(1, 4))
    far = {"a": (F(0), F(0)), "b": (F(2, 5), F(0))}
    assert not configuration_membership(L, far, F(1, 4))


def test_configuration_constructor():
    L = mk_linkage([("e1", "a", "b", 1)])
    C = Configuration(L, {"a": (0, 0), "b": (1, 0)})
    assert C.point("a") == (F(0), F(0))
    assert isinstance(C.placement["b"][0], F)
    assert C.is_exact()
    require_conf0(C)
    with pytest.raises(LinkageError):
        Configuration(L, {"a": (0, 0), "b": (2, 0)})
    slack = Configuration(L, {"a": (0, 0), "b": (F(11, 10), 0)}, F(1, 10))
    assert not slack.is_exact()
    with pytest.raises(LinkageError):
        require_conf0(slack)


FLOORS = [F(1, 10**12), F(1, 10**10), F(1, 1000), F(3, 7)]


def _certifier_inputs(rng):
    """(linkage, placement) pairs from every caller's kind of placement."""
    for _ in range(40):
        c = canonical_closed(closed_chain_linkage(*random_closed_lengths(rng)))
        yield c.configuration.linkage, c.configuration.placement
    for _ in range(30):
        lens1, lens2 = perturbed_closed_pair(rng)
        ca = canonical_closed(closed_chain_linkage(*lens1))
        cb = canonical_closed(closed_chain_linkage(*lens2))
        for k in range(11):
            blend = convex_interpolate(
                ca.configuration, cb.configuration, F(k, 10)
            ).configuration
            yield blend.linkage, blend.placement
    for _ in range(40):
        L, C = adorned_chain_to_linkage(random_adorned_chain(rng, rng.randint(1, 4)))
        yield L, C.placement
    for _ in range(150):
        L, P, _ = random_sa_instance(rng)
        yield L, P


def test_certify_epsilon_matches_reference_random():
    rng = random.Random(6021)
    checked = positive = 0
    for L, P in _certifier_inputs(rng):
        for floor in FLOORS:
            eps = certify_epsilon(L, P, floor)
            assert eps == reference_epsilon(L, P, floor), (L, P, floor)
            checked += 1
            positive += eps > 0
    assert checked >= 2000
    assert positive >= checked // 2


def _is_least_rung(L, P, floor, eps):
    below = eps / 2 if eps > floor else F(0)
    return configuration_membership(L, P, eps) and (
        eps == 0 or not configuration_membership(L, P, below)
    )


def test_certify_epsilon_pinned_cases():
    # an exact placement needs no slack
    L = mk_linkage([("a", "p", "q", 3), ("b", "q", "r", 4), ("c", "r", "p", 5)])
    P = {"p": (F(0), F(0)), "q": (F(3), F(0)), "r": (F(3), F(4))}
    assert certify_epsilon(L, P, F(1, 10**10)) == 0
    # a gap beyond floor * 2**199 is certified; the old search gave up
    bar = mk_linkage([("e", "a", "b", 1)])
    far = {"a": (F(0), F(0)), "b": (F(2) ** 240, F(0))}
    with pytest.raises(ChainError):
        reference_epsilon(bar, far, F(1, 10**12))
    eps = certify_epsilon(bar, far, F(1, 10**12))
    assert eps == F(1, 10**12) * 2**280
    assert _is_least_rung(bar, far, F(1, 10**12), eps)
    # coordinates near 10**400 take no float conversion
    big = F(10) ** 400
    huge = {"a": (big, big), "b": (big + 1, big + 1)}
    for rest in (F(1), F(7, 5), big):
        L = mk_linkage([("e", "a", "b", rest)])
        for floor in FLOORS:
            assert _is_least_rung(L, huge, floor, certify_epsilon(L, huge, floor))
    with pytest.raises(LinkageError):
        certify_epsilon(bar, far, 0)
    with pytest.raises(LinkageError):
        certify_epsilon(bar, {"a": (F(0), F(0))}, F(1))


# The guessed rung is at most three above or two below the answer: each
# bit length reads log2 to within one, and sqrt(d^2) + l is within a
# factor 2 of sqrt(max(d^2, l^2)). With the test at 0 and the walk's
# last failing and passing tests, that bounds one certify call by six.
MAX_MEMBERSHIP_CALLS = 6


def _gap_cases():
    """One bar whose gap runs from 2**-30 to about 2**61 times the floor."""
    origin = (F(0), F(0))
    rests = (F(1, 1000), F(1), F(7, 3), F(10**6))
    scales = (F(1), F(3, 2), F(7, 4))
    for floor, j, rest, scale in itertools.product(
        FLOORS, range(-30, 61), rests, scales
    ):
        gap = floor * F(2) ** j * scale
        L = mk_linkage([("e", "a", "b", rest)])
        for d in (rest + gap, rest - gap):
            if d >= 0:
                q = d * F(70711, 100000)  # irrational length near d
                yield floor, L, {"a": origin, "b": (d, F(0))}
                yield floor, L, {"a": origin, "b": (q, q)}


def test_certify_epsilon_membership_calls_bounded(monkeypatch):
    calls = []

    def counted(*args):  # this module's own binding stays uncounted
        calls.append(args)
        return configuration_membership(*args)

    monkeypatch.setattr(linkfold.linkage, "configuration_membership", counted)
    worst = 0
    for floor, L, P in _gap_cases():
        calls.clear()
        eps = certify_epsilon(L, P, floor)
        assert len(calls) <= MAX_MEMBERSHIP_CALLS, (floor, P)
        worst = max(worst, len(calls))
        assert _is_least_rung(L, P, floor, eps)
    assert worst >= 4  # the guess is not always right, so the walk runs


def test_epsilon_related():
    l1 = mk_linkage([("e1", "a", "b", 1), ("e2", "b", "c", 2)])
    l2 = mk_linkage([("e1", "a", "b", F(11, 10)), ("e2", "b", "c", F(19, 10))])
    assert check_epsilon_related(l1, l2, F(1, 10))
    assert not check_epsilon_related(l1, l2, F(1, 20))
    l3 = mk_linkage([("e1", "a", "b", 1)])
    assert not check_epsilon_related(l1, l3, 1)
    l4 = mk_linkage([("e1", "b", "a", 1), ("e2", "b", "c", 2)])
    assert not check_epsilon_related(l1, l4, 1)


def _zero_reachable(linkage, start):
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for e in linkage.edges:
            if e.rest_length != 0:
                continue
            for a, b in ((e.tail, e.head), (e.head, e.tail)):
                if a == v and b not in seen:
                    seen.add(b)
                    queue.append(b)
    return seen


def test_merged_partition_matches_bfs_oracle():
    rng = random.Random(8)
    for _ in range(60):
        L, C = random_zero_linkage(rng)
        part = merged_vertex_partition(L)
        flat = [v for c in part.classes for v in c]
        assert sorted(flat) == sorted(L.vertices)
        for v in L.vertices:
            cls = set(part.classes[part.class_of[v]])
            assert cls == _zero_reachable(L, v)
        # zero-rest bars in an exact configuration pin each class to a point
        for i, c in enumerate(part.classes):
            pts = {C.placement[v] for v in c}
            assert len(pts) == 1
            assert part.location(C, i) in pts


def test_nontouching_examples():
    L, C = straight_chain(1, 1)
    assert is_nontouching(L, C)

    L, C, _ = doubled_chain()
    assert not is_nontouching(L, C)

    # proper crossing
    L = mk_linkage([("e1", "a", "b", 4), ("e2", "c", "d", 4)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (2, -2), "d": (2, 2)})
    assert not is_nontouching(L, C)

    # T-contact: vertex inside an open bar
    L = mk_linkage([("e1", "a", "b", 4), ("e2", "c", "d", 1)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (2, 0), "d": (2, 1)})
    assert not is_nontouching(L, C)

    # shared endpoint is fine
    L = mk_linkage([("e1", "a", "b", 1), ("e2", "b", "c", 1)])
    C = conf(L, {"a": (0, 0), "b": (1, 0), "c": (1, 1)})
    assert is_nontouching(L, C)

    # two co-located vertices without a zero path between them touch
    L = mk_linkage([("e1", "a", "b", 1), ("e2", "c", "d", 1)])
    C = conf(L, {"a": (0, 0), "b": (1, 0), "c": (0, 0), "d": (0, 1)})
    assert not is_nontouching(L, C)

    # the same picture backed by a zero bar is nontouching
    L = mk_linkage([("e1", "a", "b", 1), ("e2", "c", "d", 1), ("z", "a", "c", 0)])
    C = conf(L, {"a": (0, 0), "b": (1, 0), "c": (0, 0), "d": (0, 1)})
    assert is_nontouching(L, C)


def test_nontouching_zero_cluster():
    L, C, _ = zero_cluster_star()
    assert is_nontouching(L, C)

    # a zero cluster parked inside a foreign bar still touches it
    L = mk_linkage([("e1", "a", "b", 4), ("z", "u", "w", 0)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "u": (2, 0), "w": (2, 0)})
    assert not is_nontouching(L, C)

    # identical parallel bars overlap
    L = mk_linkage([("e1", "a", "b", 2), ("e2", "a", "b", 2)])
    C = conf(L, {"a": (0, 0), "b": (2, 0)})
    assert not is_nontouching(L, C)


def test_nontouching_requires_positive_bar_interiors_free():
    # a positive bar squeezed to a point by slack behaves like a vertex
    L = mk_linkage([("e1", "a", "b", 4), ("e2", "c", "d", F(1, 10))])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (2, 1), "d": (2, 1)}, eps=F(1, 8))
    assert is_nontouching(L, C)
    C2 = conf(L, {"a": (0, 0), "b": (4, 0), "c": (2, 0), "d": (2, 0)}, eps=F(1, 8))
    assert not is_nontouching(L, C2)


def test_touch_witness_kinds():
    # one configuration per witness kind, in the order the checks run
    L = mk_linkage([("e1", "a", "b", 1), ("e2", "c", "d", 1)])
    C = conf(L, {"a": (0, 0), "b": (1, 0), "c": (0, 0), "d": (0, 1)})
    assert touch_witness(L, C) == ("vertices coincide", "a", "c")

    L = mk_linkage([("e1", "a", "b", 4), ("e2", "c", "d", 4)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (2, -2), "d": (2, 2)})
    assert touch_witness(L, C) == ("bars cross", "e1", "e2")

    L = mk_linkage([("e1", "a", "b", 2), ("e2", "b", "a", 2)])
    C = conf(L, {"a": (0, 0), "b": (2, 0)})
    assert touch_witness(L, C) == ("bars coincide", "e1", "e2")

    # the endpoint's own bar comes first, whichever bar is listed first
    L = mk_linkage([("e1", "c", "d", 1), ("e2", "a", "b", 4)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (2, 0), "d": (2, 1)})
    assert touch_witness(L, C) == ("endpoint inside bar", "e1", "e2")
    L = mk_linkage([("e1", "a", "b", 4), ("e2", "c", "d", 1)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (2, 0), "d": (2, 1)})
    assert touch_witness(L, C) == ("endpoint inside bar", "e2", "e1")

    # a zero cluster, or a lone vertex, inside a foreign bar
    L = mk_linkage([("e1", "a", "b", 4), ("z", "u", "w", 0)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "u": (2, 0), "w": (2, 0)})
    assert touch_witness(L, C) == ("vertex inside bar", (F(2), F(0)), "e1")
    L = mk_linkage([("e1", "a", "b", 4)], vertices=("a", "b", "lone"))
    C = conf(L, {"a": (0, 0), "b": (4, 0), "lone": (F(1, 3), 0)})
    assert touch_witness(L, C) == ("vertex inside bar", (F(1, 3), F(0)), "e1")

    L, C, _ = zero_cluster_star()
    assert touch_witness(L, C) is None


def test_touch_witness_rejects_foreign_configuration():
    L, C = straight_chain(1, 1)
    other = mk_linkage([("e1", "a", "b", 1)])
    for check in (touch_witness, is_nontouching):
        with pytest.raises(LinkageError):
            check(other, C)


def test_touch_witness_matches_reference_random():
    rng = random.Random(4000)
    seen = {True: 0, False: 0}
    for k in range(2001):
        if k % 3 == 0:
            L, C = random_linkage(rng, 2, 6)
        elif k % 3 == 1:
            L, C = random_zero_linkage(rng)
        else:
            # jittered placements with slack: positive bars may collapse
            L, P, _ = random_sa_instance(rng)
            C = Configuration(L, P, big_eps(L, P))
        want = reference_is_nontouching(L, C)
        assert (touch_witness(L, C) is None) == want
        seen[want] += 1
    assert min(seen.values()) >= 300, seen


def test_extend_reduce_round_trip():
    rng = random.Random(9)
    for k in range(1000):
        if k % 3 == 0:
            L, C = random_zero_linkage(rng)
        else:
            L, C = random_linkage(rng, 2, 6)
        L2, C2, emap = extend_split(L, C)
        # fragments sit exactly on their original vertex
        for v2 in L2.vertices:
            assert C2.placement[v2] == C.placement[emap.original_vertex(v2)]
        # one fragment per incident edge, one extension bar per extra slot
        expected_extra = sum(max(L.degree(v) - 1, 0) for v in L.vertices)
        assert len(emap.extension_edges) == expected_extra
        for eid in emap.extension_edges:
            e = L2.edges[L2.edge_index(eid)]
            assert e.rest_length == 0
        # every non-extension endpoint has degree 1 among original bars
        ext = set(emap.extension_edges)
        for v2 in L2.vertices:
            orig_deg = sum(
                1 for e in L2.edges
                if e.id not in ext and v2 in (e.tail, e.head)
            )
            assert orig_deg <= 1
        RL, RC = reduce(L2, C2, emap)
        assert RL == L
        assert RC.placement == C.placement
        assert RC.epsilon == C.epsilon


def test_extend_split_isolated_vertex():
    L = mk_linkage([("e1", "a", "b", 1)], vertices=("a", "b", "lone"))
    C = conf(L, {"a": (0, 0), "b": (1, 0), "lone": (5, 5)})
    L2, C2, emap = extend_split(L, C)
    frags = [v for v in L2.vertices if emap.original_vertex(v) == "lone"]
    assert len(frags) == 1
    RL, RC = reduce(L2, C2, emap)
    assert RL == L and RC.placement == C.placement


def test_reduce_error_paths():
    L = mk_linkage([("e1", "a", "b", 1)])
    C = conf(L, {"a": (0, 0), "b": (1, 0)})
    L2, C2, emap = extend_split(L, C)

    bad = ExtensionMap(emap.vertex_map, emap.edge_map, ("e1",))
    with pytest.raises(LinkageError):
        reduce(L2, C2, bad)

    # separated fragments cannot be merged back
    Lsep = mk_linkage(
        [("e1", "a.0", "b.0", 1), ("x0", "a.0", "a.1", 0)],
        vertices=("a.0", "a.1", "b.0"),
    )
    Csep = Configuration(
        Lsep,
        {"a.0": (0, 0), "a.1": (F(1, 20), 0), "b.0": (1, 0)},
        F(1, 10),
    )
    sep_map = ExtensionMap({"a.0": "a", "a.1": "a", "b.0": "b"}, {}, ("x0",))
    with pytest.raises(LinkageError):
        reduce(Lsep, Csep, sep_map)

    # collapsing a non-extension bar to a self-loop is rejected
    Lz = mk_linkage([("z", "u", "w", 0), ("e1", "u", "b", 1)])
    Cz = conf(Lz, {"u": (0, 0), "w": (0, 0), "b": (1, 0)})
    loop_map = ExtensionMap({"u": "m", "w": "m"}, {}, ())
    with pytest.raises(LinkageError):
        reduce(Lz, Cz, loop_map)

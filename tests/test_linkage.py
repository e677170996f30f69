"""Linkage model: membership bands, merging, nontouching, extend/reduce."""

import random
from fractions import Fraction

import pytest

from helpers import (
    big_eps,
    conf,
    doubled_chain,
    zero_cluster_star,
    mk_linkage,
    random_linkage,
    random_sa_instance,
    random_zero_linkage,
    reference_is_nontouching,
    straight_chain,
)
from linkfold.errors import LinkageError
from linkfold.linkage import (
    Configuration,
    Edge,
    ExtensionMap,
    Linkage,
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

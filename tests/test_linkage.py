"""Linkage model: membership bands, merging, nontouching, extend/reduce."""

import collections
import importlib
import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    annotation_from_layers,
    big_eps,
    closed_box_pairs,
    closed_chain_linkage,
    conf,
    count_calls,
    doubled_chain,
    layered_strip,
    zero_cluster_star,
    mk_linkage,
    perturbed_closed_pair,
    random_adorned_chain,
    random_closed_lengths,
    random_layered_flat,
    random_linkage,
    random_sa_instance,
    random_zero_linkage,
    reference_check_macroscopic,
    reference_epsilon,
    reference_is_nontouching,
    reference_membership,
    reference_touch_witness,
    straight_chain,
)
import linkfold.geometry
import linkfold.linkage
from linkfold.adornments import adorned_chain_to_linkage
from linkfold.chains import canonical_closed, convex_interpolate
from linkfold.errors import ChainError, LinkageError, PerturbationError
from linkfold.geometry import canonical_line
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
from linkfold.perturb import perturb
from linkfold.validator import check_macroscopic

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
    kinds = collections.Counter()
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
        witness = touch_witness(L, C)
        assert (witness is None) == want
        # the broad phase finds the first witness of the pairwise loops
        assert witness == reference_touch_witness(L, C)
        assert check_macroscopic(L, C) == reference_check_macroscopic(L, C)
        seen[want] += 1
        kinds[witness and witness[0]] += 1
    assert min(seen.values()) >= 300, seen
    assert len(kinds) >= 5, kinds


def _affine_jitter(rng, L, C):
    """C under x -> (A x + B) / q with |A| near 10**400, a denominator q
    near 10**12, and some vertices nudged by k / q_v with unrelated q_v
    near 10**12; incidences survive wherever no vertex moved."""
    q = 10**12 + rng.randint(1, 10**6)
    A, B = 10**400 + rng.randint(0, 10**6), rng.randint(-(10**401), 10**401)
    P = {}
    for v, (x, y) in C.placement.items():
        p = [(c * A + B) / q for c in (x, y)]
        if rng.random() < 0.3:
            k = rng.choice((0, 1))
            p[k] += F(rng.randint(-(10**6), 10**6), 10**12 + rng.randint(1, 10**9))
        P[v] = tuple(p)
    return P


def test_contact_kernel_huge_unrelated_denominators():
    rng = random.Random(4100)
    touching = 0
    for k in range(240):
        L, C = random_linkage(rng, 2, 6) if k % 2 else random_zero_linkage(rng)
        P = _affine_jitter(rng, L, C)
        Cx = Configuration(L, P, big_eps(L, P))
        witness = touch_witness(L, Cx)
        assert witness == reference_touch_witness(L, Cx)
        assert check_macroscopic(L, Cx) == reference_check_macroscopic(L, Cx)
        touching += witness is not None
        for eps in (0, Cx.epsilon, F(1, 10**12), F(7, 3) * 10**400):
            assert configuration_membership(L, P, eps) == reference_membership(
                L, P, eps
            )
    assert 40 <= touching <= 200


def test_touch_witness_matches_reference_on_perturb_attempts(monkeypatch):
    # every snapshot perturb certifies, hinged flats included, and one
    # planted touching snapshot it rejects: the doubled chain with its
    # far lifted fragment mirrored below e1
    calls = collections.Counter()

    def checked(L, C):
        witness = linkfold.linkage.touch_witness(L, C)
        assert witness == reference_touch_witness(L, C)
        assert check_macroscopic(L, C) == reference_check_macroscopic(L, C)
        calls[witness is None] += 1
        return witness

    module = importlib.import_module("linkfold.perturb")
    monkeypatch.setattr(module, "touch_witness", checked)
    rng = random.Random(4200)
    hinged = 0
    for _ in range(40):
        L, C, heights = random_layered_flat(rng, rng.randint(2, 9))
        hinged += any(e.rest_length == 0 for e in L.edges)
        A = annotation_from_layers(L, C, heights)
        perturb(L, C, A, F(1, 4 * len(L.edges)))
    assert hinged >= 8 and calls == collections.Counter({True: 40}), (hinged, calls)

    place = module._snapshot

    def mirrored(*args):
        snapshot, max_d2 = place(*args)
        x, y = snapshot["v2.0"]
        snapshot["v2.0"] = (x, -y)
        return snapshot, max_d2

    monkeypatch.setattr(module, "_snapshot", mirrored)
    with pytest.raises(PerturbationError) as caught:
        perturb(*doubled_chain(), F(1, 10))
    assert caught.value.offending == ("bars cross", "e1", "e2")
    assert calls == collections.Counter({True: 40, False: 1})


def test_touch_witness_first_vertex_inside_bar():
    # isolated vertices and zero-bar clusters dropped onto bars: several
    # merged vertices sit inside bars, and the witness is the first in
    # (class, bar) order, as the pairwise loop finds it
    rng = random.Random(4150)
    firsts = collections.Counter()
    for _ in range(300):
        L, C = random_linkage(rng, 3, 7)
        vertices, edges = list(L.vertices), list(L.edges)
        P = dict(C.placement)
        for k in range(rng.randint(2, 5)):
            e = rng.choice(L.edges)
            (ax, ay), (bx, by) = C.segment(e)
            t = F(rng.randint(1, 7), 8) if rng.random() < 0.8 else F(rng.randint(-4, 12), 8)
            v = f"i{k}"
            vertices.append(v)
            P[v] = (ax + t * (bx - ax), ay + t * (by - ay))
            if rng.random() < 0.4:
                vertices.append(f"j{k}")
                P[f"j{k}"] = P[v]
                edges.append(Edge(f"z{k}", v, f"j{k}", F(0)))
        rng.shuffle(vertices)
        Lx = Linkage(tuple(vertices), tuple(edges))
        Cx = Configuration(Lx, P)
        witness = touch_witness(Lx, Cx)
        assert witness == reference_touch_witness(Lx, Cx)
        firsts[witness and witness[0]] += 1
    assert firsts["vertex inside bar"] >= 100, firsts


def test_membership_band_edges_exact():
    bar = mk_linkage([("e1", "a", "b", 5)])

    def at(d):  # a bar of length d along the 3-4-5 direction
        return {"a": (F(1, 7), F(2)), "b": (F(1, 7) + d * F(3, 5), F(2) + d * F(4, 5))}

    eps = F(1, 3)
    for d, fits in (
        (5 + eps, True),  # d = l + eps exactly
        (5 - eps, True),  # d = l - eps exactly
        (5 + eps + F(1, 10**30), False),
        (5 - eps - F(1, 10**30), False),
    ):
        assert configuration_membership(bar, at(d), eps) is fits, d
        assert reference_membership(bar, at(d), eps) is fits, d
    # l < eps: no floor, only the upper band l + eps
    short = mk_linkage([("e1", "a", "b", F(1, 10))])
    for d, fits in ((0, True), (F(7, 20), True), (F(7, 20) + F(1, 10**30), False)):
        assert configuration_membership(short, at(d), F(1, 4)) is fits, d
    # eps = 0: only the exact length, a zero bar only at one point
    assert configuration_membership(bar, at(5), 0)
    assert not configuration_membership(bar, at(5 + F(1, 10**30)), 0)
    zero = mk_linkage([("z", "a", "b", 0)])
    assert configuration_membership(zero, at(0), 0)
    assert not configuration_membership(zero, at(F(1, 10**30)), 0)


def test_contact_scans_build_the_lattice_lazily(monkeypatch):
    L, C = random_linkage(random.Random(4300), 6, 6)
    calls = count_calls(monkeypatch, linkfold.geometry, ("lattice",))
    Cx = Configuration(L, dict(C.placement), F(1, 10))
    assert configuration_membership(L, Cx.placement, F(1, 10))
    certify_epsilon(L, Cx.placement, F(1, 10**12))
    assert calls["lattice"] == 0  # construction and membership stay per edge
    touch_witness(L, Cx)
    check_macroscopic(L, Cx)
    touch_witness(L, Cx)
    assert calls["lattice"] == 1  # one lattice per configuration, kept


def _zigzag64():
    xs = [0]
    for k in range(64):
        xs.append(xs[-1] + (3 if k % 2 == 0 else -2))
    return layered_strip(xs)


def test_touch_witness_tests_only_box_overlapping_pairs(monkeypatch):
    L, C, heights = _zigzag64()
    res = perturb(L, C, annotation_from_layers(L, C, heights), F(1, 256))
    Lp, Cp = res.linkage, res.configuration
    segs = [s for s in map(Cp.segment, Lp.edges) if s[0] != s[1]]
    kept = len(closed_box_pairs(segs))
    assert len(segs) == 127 and kept < 8001 // 10
    calls = count_calls(monkeypatch, linkfold.geometry, ("properly_cross",))
    assert touch_witness(Lp, Cp) is None
    assert 0 < calls["properly_cross"] <= kept


def test_macroscopic_tests_only_box_overlapping_pairs(monkeypatch):
    L, C, _ = _zigzag64()
    kept = len(closed_box_pairs([C.segment(e) for e in L.edges]))
    assert kept < 64 * 63 // 2 // 4
    calls = count_calls(monkeypatch, linkfold.geometry, ("properly_cross",))
    assert check_macroscopic(L, C).status == "pass"
    assert calls["properly_cross"] == 0  # one line: no pair can cross


def test_macroscopic_tests_only_pairs_across_lines(monkeypatch):
    # two zigzags fanning out of the origin along distinct lines: every
    # box-overlapping pair across the lines is tested, none within one
    xs = [0, 3, 1, 4, 2, 5, 3]
    specs, coords = [], {}
    for tag, frame in (("a", (1, 0, 1)), ("b", (3, 4, 5))):
        Ls, Cs, _ = layered_strip(xs, frame=(frame, (0, 0)))
        specs += [(tag + e.id, tag + e.tail, tag + e.head, e.rest_length) for e in Ls.edges]
        coords.update({tag + v: p for v, p in Cs.placement.items()})
    L = mk_linkage(specs)
    C = conf(L, coords)
    segs = [C.segment(e) for e in L.edges]
    across = [
        (i, j)
        for i, j in closed_box_pairs(segs)
        if canonical_line(*segs[i]) != canonical_line(*segs[j])
    ]
    assert 0 < len(across) < len(closed_box_pairs(segs))
    assert check_macroscopic(L, C) == reference_check_macroscopic(L, C)
    calls = count_calls(monkeypatch, linkfold.geometry, ("properly_cross",))
    assert check_macroscopic(L, C).status == "pass"
    assert calls["properly_cross"] == len(across)


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

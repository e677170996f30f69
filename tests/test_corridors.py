"""Corridor decomposition, layer orders, and the perturbation radius bound."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import (
    RATIONAL_DIRS,
    conf,
    corpus_geometries,
    cyclic_gadget,
    degenerate_triangle,
    doubled_chain,
    layer_entries,
    zero_cluster_star,
    mk_linkage,
    mutated_annotation,
    perturbation_corpus,
    random_layered_flat,
    random_linkage,
    random_sign_entries,
    reference_corridor_order,
    reference_corridors,
    reference_delta_bound,
    spiral4,
    straight_chain,
    sweep_inputs,
    zipper5,
)
from linkfold.annotations import AnnotationMatrix, annotate, line_layering
from linkfold.corridors import (
    Corridor,
    corridor_order,
    corridors,
    delta_bound,
)
from linkfold.document import resolve_annotations
from linkfold.errors import CorridorError
from linkfold.linkage import Configuration, Linkage

F = Fraction


def test_corridors_doubled_chain():
    L, C, A = doubled_chain()
    cs = corridors(L, C)
    assert len(cs) == 1
    c = cs[0]
    assert c.line == (0, 1, 0)
    assert c.direction == (1, 0)
    assert c.normal == (0, 1)
    assert c.bars == (0, 1)
    assert len(c.segments) == 1
    seg = c.segments[0]
    assert (seg.start, seg.end) == ((F(0), F(0)), (F(1), F(0)))
    assert seg.bars == (0, 1)


def test_corridors_split_at_stations():
    # a touching vertex on the line cuts the corridor into two segments
    L = mk_linkage([("e1", "a", "b", 4), ("e2", "c", "d", 1)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (2, 0), "d": (2, 1)})
    cs = corridors(L, C)
    assert len(cs) == 2
    flat = next(c for c in cs if c.line == (0, 1, 0))
    assert [seg.bars for seg in flat.segments] == [(0,), (0,)]
    assert flat.segments[0].end == (F(2), F(0))
    assert flat.segments[1].start == (F(2), F(0))


def test_corridor_with_gap_keeps_two_segments():
    L = mk_linkage([("e1", "a", "b", 1), ("e2", "c", "d", 1)])
    C = conf(L, {"a": (0, 0), "b": (1, 0), "c": (2, 0), "d": (3, 0)})
    cs = corridors(L, C)
    assert len(cs) == 1
    segs = cs[0].segments
    assert len(segs) == 2
    assert segs[0].bars == (0,) and segs[1].bars == (1,)
    order = corridor_order(cs[0], annotate(L, C), L, C)
    assert order.order == ("e1", "e2")
    assert order.psi == {"e1": 0, "e2": 1}


def test_corridors_exclude_zero_bars():
    L, C, A = zero_cluster_star()
    cs = corridors(L, C)
    assert len(cs) == 3
    covered = {L.edges[i].id for c in cs for i in c.bars}
    assert covered == {"e4", "e5", "e6"}


def test_corridors_sorted_by_line():
    L = mk_linkage([("h", "a", "b", 1), ("v", "a", "c", 1)])
    C = conf(L, {"a": (0, 0), "b": (1, 0), "c": (0, 1)})
    cs = corridors(L, C)
    assert [c.line for c in cs] == [(0, 1, 0), (1, 0, 0)]
    assert cs[1].direction == (0, 1)


def test_corridor_requires_exact():
    L = mk_linkage([("e1", "a", "b", 1)])
    slack = Configuration(L, {"a": (0, 0), "b": (F(11, 10), 0)}, F(1, 10))
    with pytest.raises(Exception):
        corridors(L, slack)


def test_corridors_match_cut_reference():
    # lattice station sweep against the every-bar-every-cut Fraction body,
    # field by field; the inputs reach several lines and cut runs
    lines = runs = 0
    for L, C in sweep_inputs(random.Random(4500)):
        got, want = corridors(L, C), reference_corridors(L, C)
        assert [c.line for c in got] == [c.line for c in want]
        for g, w in zip(got, want):
            assert g.segments == w.segments, g.line
            assert all(type(x) is F for s in g.segments for x in s.start + s.end)
            assert g.bars == w.bars, g.line
            assert (g.direction, g.normal) == (w.direction, w.normal)
        lines += len(got) > 1
        runs += sum(len(c.segments) > 2 for c in got)
    assert lines >= 100 and runs >= 100, (lines, runs)


def test_corridor_order_doubled_chain():
    L, C, A = doubled_chain()
    (c,) = corridors(L, C)
    order = corridor_order(c, A, L, C)
    assert order.order == ("e1", "e2")
    assert order.psi == {"e1": 0, "e2": 1}


def test_corridor_order_zipper_merges_across_segments():
    L, C, A = zipper5()
    (c,) = corridors(L, C)
    assert len(c.segments) == 4
    assert max(len(s.bars) for s in c.segments) == 3
    order = corridor_order(c, A, L, C)
    # bars that never share a segment still get comparable layers
    assert order.psi == {f"e{k + 1}": k for k in range(5)}


def test_corridor_order_spiral_nests():
    L, C, A = spiral4()
    (c,) = corridors(L, C)
    order = corridor_order(c, A, L, C)
    assert order.psi == {"e1": 0, "e2": 1, "e3": 2, "e4": 3}


def test_corridor_order_degenerate_triangle():
    L, C, A = degenerate_triangle()
    (c,) = corridors(L, C)
    order = corridor_order(c, A, L, C)
    assert order.psi["e1"] == 0
    assert {order.psi["e2"], order.psi["e3"]} == {1, 2}


def test_corridor_order_zero_annotation_rejected():
    L, C, _ = doubled_chain()
    (c,) = corridors(L, C)
    zero = AnnotationMatrix.from_rows([[0, 0], [0, 0]])
    with pytest.raises(CorridorError, match="zero annotation"):
        corridor_order(c, zero, L, C)


def test_corridor_order_cycle_rejected():
    L, C, A = cyclic_gadget()
    (c,) = corridors(L, C)
    with pytest.raises(CorridorError, match="inconsistent layer order"):
        corridor_order(c, A, L, C)


def _reference_kahn(adj):
    # Kahn: a graph is acyclic iff repeatedly removing sources empties
    # it; taking the smallest source each time gives the layering order
    indeg = {u: 0 for u in adj}
    for outs in adj.values():
        for v in outs:
            indeg[v] += 1
    ready = [u for u in adj if indeg[u] == 0]
    order = []
    while ready:
        u = min(ready)
        ready.remove(u)
        order.append(u)
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return tuple(order) if len(order) == len(adj) else None


def _graph_layering(adj):
    """line_layering of one line whose overlapping pairs are adj's arcs.

    The stub index puts every node on one line, oriented along it, and
    each arc u -> v (v above u) gives signs +1 for v_uv and -1 for v_vu; arcs both
    ways make the pair disagree.
    """
    entries = {}
    for u, outs in adj.items():
        for v in outs:
            entries[u, v] = 1
            entries.setdefault((v, u), -1)
    index = SimpleNamespace(
        bars={0: [(0, 1, u) for u in sorted(adj)]},
        pairs={0: sorted({(min(p), max(p)) for p in entries})},
        orient=[1] * (max(adj) + 1),
    )
    annotation = SimpleNamespace(sign=lambda i, j: entries[i, j])
    return line_layering(index, annotation, 0)


def test_layer_cycle_check_deep_and_random():
    # the layer graph of an n-bar layered strip is a chain ascending by
    # index; a recursive walk ran out of stack on such chains
    n = 5000
    chain = {i: {i + 1} for i in range(n)}
    chain[n] = set()
    assert _graph_layering(chain) == (tuple(range(n + 1)), None)
    chain[n] = {n // 2}
    assert _graph_layering(chain)[1] is not None
    rng = random.Random(88)
    found = 0
    for _ in range(400):
        k = rng.randint(1, 9)
        adj = {u: {v for v in range(k) if rng.random() < 0.2} - {u} for u in range(k)}
        order, fault = _graph_layering(adj)
        assert order == _reference_kahn(adj)
        assert (fault is None) == (order is not None)
        found += fault is not None
    assert 50 < found < 350


def test_corridor_order_matches_segment_reference():
    # one layering per line against the per-segment scan: the same order
    # and psi, and an error exactly where the scan finds one or where an
    # overlapping pair's entries are zero or disagree (the scan reads
    # only v_ij, i < j); bases are layered by random heights or by a
    # coin toss per pair, with single-entry mutants
    rng = random.Random(4501)
    seen = {"same order": 0, "both fail": 0, "pair fault": 0}
    for L, C in sweep_inputs(rng, flats=100, contacts=60):
        ids = [e.id for e in L.edges]
        heights = dict(zip(ids, rng.sample(range(len(ids)), len(ids))))
        overlapping = set(C.lines().overlaps)
        for entries in (layer_entries(L, C, heights), random_sign_entries(rng, L, C)):
            A = resolve_annotations(L, C, entries)
            cases = [A]
            for _ in range(3 if len(ids) >= 2 else 0):
                cases.append(mutated_annotation(rng, C, A, overlapping)[0])
            for B in cases:
                for c in corridors(L, C):
                    try:
                        want = reference_corridor_order(c, B, L, C)
                    except CorridorError:
                        want = None
                    try:
                        got = corridor_order(c, B, L, C)
                    except CorridorError:
                        got = None
                    orient = {i: _orient(L, C, c, i) for i in c.bars}
                    bad = any(
                        B.value(i, j).is_zero
                        or orient[i] * B.value(i, j).sign()
                        != -orient[j] * B.value(j, i).sign()
                        for i, j in overlapping
                        if i in orient
                    )
                    assert (got is None) == (want is None or bad)
                    if got is not None:
                        assert (got.order, got.psi) == (want.order, want.psi)
                        seen["same order"] += len(c.bars) > 1
                    elif want is None:
                        seen["both fail"] += 1
                    else:
                        seen["pair fault"] += 1
    assert min(seen.values()) >= 100, seen


def _orient(L, C, corridor, i):
    a, b = C.segment(L.edges[i])
    dx, dy = corridor.direction
    return 1 if (b[0] - a[0]) * dx + (b[1] - a[1]) * dy > 0 else -1


def test_corridor_order_respects_every_segment():
    # psi restricted to any one segment must sort its bars consistently
    for name, L, C, A in perturbation_corpus():
        for c in corridors(L, C):
            order = corridor_order(c, A, L, C)
            dvec = (F(c.direction[0]), F(c.direction[1]))
            for seg in c.segments:
                for x in range(len(seg.bars)):
                    for y in range(x + 1, len(seg.bars)):
                        i, j = seg.bars[x], seg.bars[y]
                        a, b = C.segment(L.edges[i])
                        orient_i = 1 if (b[0] - a[0]) * dvec[0] + (b[1] - a[1]) * dvec[1] > 0 else -1
                        s = A.value(i, j).sign()
                        hi = order.psi[L.edges[i].id]
                        hj = order.psi[L.edges[j].id]
                        if s * orient_i > 0:
                            assert hj > hi, name
                        else:
                            assert hi > hj, name


def test_delta_bound_values():
    cases = {
        "doubled-chain": F(1, 4),
        "zipper5": F(1, 10),
        "spiral4": F(1, 8),
        "degenerate-triangle": F(1, 6),
        "zero-cluster-star": F(1, 20),
    }
    for name, L, C, A in perturbation_corpus():
        assert delta_bound(L, C) == cases[name], name


def test_delta_bound_edge_cases():
    L = Linkage((), ())
    C = Configuration(L, {})
    assert delta_bound(L, C) == F(1, 2)

    # a short bar caps the bound at its own rest length
    L2, C2 = straight_chain(1, F(1, 10))
    assert delta_bound(L2, C2) == F(1, 10)

    # perpendicular unit bars: sine term is exact
    L3 = mk_linkage([("h", "a", "b", 1), ("v", "a", "c", 1)])
    C3 = conf(L3, {"a": (0, 0), "b": (1, 0), "c": (0, 1)})
    assert delta_bound(L3, C3) == F(1, 4)

    # single zero bar: no positive lengths, no angles
    L4 = mk_linkage([("z", "u", "w", 0)])
    C4 = conf(L4, {"u": (0, 0), "w": (0, 0)})
    assert delta_bound(L4, C4) == F(1, 2)


def test_delta_bound_skew_angle_exact():
    # unit bars at a shallow angle: sin term (21/29)/4 wins the minimum
    L = mk_linkage([("h", "a", "b", 1), ("d", "a", "c", 1)])
    C = conf(L, {"a": (0, 0), "b": (1, 0), "c": (F(20, 29), F(21, 29))})
    assert delta_bound(L, C) == F(21, 116)


def test_delta_bound_matches_all_pairs_reference():
    rng = random.Random(19)
    cases = [(L, C) for _, L, C, _ in corpus_geometries() if C.epsilon == 0]
    cases += [random_layered_flat(rng, rng.randint(1, 12))[:2] for _ in range(100)]
    cases += [random_linkage(rng, 2, 12) for _ in range(300)]
    for _ in range(100):
        # a fan of bars from one hub on random Pythagorean directions
        dirs = rng.sample(RATIONAL_DIRS, rng.randint(1, 8))
        specs = [(f"e{k}", "o", f"v{k}", n) for k, (_, _, n) in enumerate(dirs)]
        coords = {"o": (F(1, 3), F(-2))}
        coords.update(
            (f"v{k}", (F(1, 3) + dx, F(-2) + dy)) for k, (dx, dy, _) in enumerate(dirs)
        )
        L = mk_linkage(specs)
        cases.append((L, conf(L, coords)))
    distinct = set()
    for L, C in cases:
        got = delta_bound(L, C)
        assert got == reference_delta_bound(L, C)
        distinct.add(got)
    assert len(distinct) >= 20


def test_delta_bound_least_sine_wraps_around():
    # directions at 0, 90 and about 168.6 degrees: the closest pair of
    # lines is the last and first direction sorted modulo pi
    L = mk_linkage(
        [("h", "a", "b", 1), ("v", "a", "c", 1), ("w", "a", "d", 101), ("p", "c", "e", 2)]
    )
    C = conf(L, {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (-99, 20), "e": (2, 1)})
    # sin = 20/101 between h and w; the sine term (20/101)/8 is the least
    assert delta_bound(L, C) == F(20, 808) == reference_delta_bound(L, C)

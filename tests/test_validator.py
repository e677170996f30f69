"""Four-stage validity checks and the magnified local pictures they use."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    annotation_from_layers,
    big_eps,
    conf,
    corpus_geometries,
    count_calls,
    cyclic_gadget,
    doubled_chain,
    interleave_gadget,
    layer_entries,
    layered_strip,
    mk_linkage,
    perturbation_corpus,
    random_layered_flat,
    random_linkage,
    random_nontouching,
    random_sa_instance,
    reference_check_well_annotated,
    reference_check_well_ordered,
    reference_germ_classes,
    reference_overlapping_pairs,
)
import linkfold.annotations
from linkfold.annotations import AnnotationMatrix, annotate
from linkfold.document import resolve_annotations
from linkfold.errors import AnnotationError, LinkageError
from linkfold.linkage import Configuration, Linkage, configuration_membership
from linkfold.validator import (
    Inbound,
    MagnifiedView,
    _find_interleave,
    check_macroscopic,
    check_microscopic,
    check_well_annotated,
    check_well_ordered,
    magnified_views,
    validate,
)

F = Fraction


def test_magnified_views_doubled_chain():
    L, C, A = doubled_chain()
    views = magnified_views(L, C)
    assert [v.location for v in views] == [(0, 0), (1, 0)]

    origin = views[0]
    assert len(origin.inbounds) == 2
    assert all(ib.kind == "endpoint" for ib in origin.inbounds)
    assert {ib.label() for ib in origin.inbounds} == {("e1", "v0"), ("e2", "v2")}
    assert len(origin.entrances) == 1
    assert origin.entrances[0][0] == (1, 0)
    # v0 and v2 are not tied by zero bars: two separate connection classes
    assert len(set(origin.class_of)) == 2

    fold = views[1]
    assert {ib.label() for ib in fold.inbounds} == {("e1", "v1"), ("e2", "v1")}
    assert fold.entrances[0][0] == (-1, 0)
    # both germs end at the shared vertex: one connection class
    assert len(set(fold.class_of)) == 1


def test_magnified_views_pass_through():
    L = mk_linkage([("e1", "a", "b", 4), ("e2", "c", "d", 1)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (2, 0), "d": (2, 1)})
    views = magnified_views(L, C)
    mid = next(v for v in views if v.location == (F(2), F(0)))
    kinds = sorted(ib.kind for ib in mid.inbounds)
    assert kinds == ["endpoint", "pass", "pass"]
    passes = [ib for ib in mid.inbounds if ib.kind == "pass"]
    assert {ib.direction for ib in passes} == {(1, 0), (-1, 0)}
    assert all(ib.label() == ("e1", "pass") for ib in passes)
    # pass-through halves stay directly connected to each other
    ks = [k for k, ib in enumerate(mid.inbounds) if ib.kind == "pass"]
    assert mid.class_of[ks[0]] == mid.class_of[ks[1]]
    # entrances sorted by strictly descending angle: pi, pi/2, 0
    assert [d for d, _ in mid.entrances] == [(-1, 0), (0, 1), (1, 0)]


def test_magnified_views_requires_exact():
    L = mk_linkage([("e1", "a", "b", 1)])
    slack = Configuration(L, {"a": (0, 0), "b": (F(11, 10), 0)}, F(1, 10))
    with pytest.raises(LinkageError):
        magnified_views(L, slack)


def test_macroscopic_check():
    L = mk_linkage([("e1", "a", "b", 4), ("e2", "c", "d", 4)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (2, -2), "d": (2, 2)})
    r = check_macroscopic(L, C)
    assert r.status == "fail"
    assert r.witness == ("e1", "e2")

    Ld, Cd, _ = doubled_chain()
    assert check_macroscopic(Ld, Cd).status == "pass"


def test_well_annotated_check():
    L, C, A = doubled_chain()
    assert check_well_annotated(L, C, A).status == "pass"

    zero = AnnotationMatrix.from_rows([[0, 0], [0, 0]])
    r = check_well_annotated(L, C, zero)
    assert r.status == "fail"
    assert r.witness == ("e1", "e2")
    assert "magnitude" in r.detail

    wrong_mag = AnnotationMatrix.from_rows([[0, 2], [1, 0]])
    assert check_well_annotated(L, C, wrong_mag).status == "fail"

    # disjoint pairs must carry the exact signed overlap
    L2 = mk_linkage([("e1", "a", "b", 2), ("e2", "c", "d", 2)])
    C2 = conf(L2, {"a": (0, 0), "b": (2, 0), "c": (0, 1), "d": (2, 1)})
    good = annotate(L2, C2)
    assert check_well_annotated(L2, C2, good).status == "pass"
    bad = AnnotationMatrix.from_rows([[0, 0], [0, 0]])
    r2 = check_well_annotated(L2, C2, bad)
    assert r2.status == "fail"
    assert "signed overlap" in r2.detail


def test_well_ordered_orders_cover_all_germs():
    for name, L, C, A in perturbation_corpus():
        views = magnified_views(L, C)
        res = check_well_ordered(views, A)
        assert res.report.status == "pass", name
        assert len(res.orders) == len(views)
        for view, order in zip(views, res.orders):
            assert sorted(order) == list(range(len(view.inbounds)))


def test_well_ordered_zero_entry():
    L, C, _ = doubled_chain()
    views = magnified_views(L, C)
    zero = AnnotationMatrix.from_rows([[0, 0], [0, 0]])
    res = check_well_ordered(views, zero)
    assert res.report.status == "fail"
    assert "zero annotation" in res.report.detail
    assert res.report.witness[0] == (F(0), F(0))


def test_well_ordered_inconsistent_pair():
    L, C, _ = doubled_chain()
    views = magnified_views(L, C)
    clash = AnnotationMatrix.from_rows([[0, 1], [-1, 0]])
    res = check_well_ordered(views, clash)
    assert res.report.status == "fail"
    assert "disagrees" in res.report.detail


def test_cyclic_gadget_fails_well_ordered():
    L, C, A = cyclic_gadget()
    v = validate(L, C, A)
    assert not v.ok
    r = v.report("well-ordered")
    assert r.status == "fail"
    assert "cycle" in r.detail
    assert len(r.witness) == 4  # location plus the three cycling germs
    labels = set(r.witness[1:])
    assert labels <= {("F1", "t1"), ("F2", "t2"), ("F3", "t3"),
                      ("F1", "h1"), ("F2", "h2"), ("F3", "h3")}
    assert v.report("microscopic").status == "skipped"


def test_interleave_gadget_fails_microscopic():
    L, C, A = interleave_gadget()
    v = validate(L, C, A)
    assert not v.ok
    assert v.report("well-ordered").status == "pass"
    r = v.report("microscopic")
    assert r.status == "fail"
    assert r.detail == "two connection classes interleave"
    assert len(r.witness) == 5  # location plus a four-germ pattern
    eids = [lab[0] for lab in r.witness[1:]]
    # alternating tails: classes {E1,E3} and {E2,E4} cross over
    assert eids in (["E4", "E3", "E2", "E1"], ["E1", "E2", "E3", "E4"])


def test_validate_short_circuits_and_reports():
    L = mk_linkage([("e1", "a", "b", 4), ("e2", "c", "d", 4)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (2, -2), "d": (2, 2)})
    v = validate(L, C, annotate(L, C))
    assert not v.ok
    assert v.report("macroscopic").status == "fail"
    for name in ("well-annotated", "well-ordered", "microscopic"):
        assert v.report(name).status == "skipped"
    with pytest.raises(KeyError):
        v.report("nope")

    Ld, Cd, Ad = doubled_chain()
    with pytest.raises(AnnotationError):
        validate(Ld, Cd, AnnotationMatrix.from_rows([[0]]))
    stretched = Configuration(
        Ld, {"v0": (0, 0), "v1": (F(11, 10), 0), "v2": (0, 0)}, F(1, 10)
    )
    with pytest.raises(LinkageError):
        validate(Ld, stretched, Ad)


def test_corpus_gadgets_validate():
    for name, L, C, A in perturbation_corpus():
        v = validate(L, C, A)
        assert v.ok, name
        assert all(c.status == "pass" for c in v.checks)


def _interleave_oracle(seq):
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    if seq[i] == seq[k] and seq[j] == seq[l] and seq[i] != seq[j]:
                        return True
    return False


def test_find_interleave_matches_brute_force():
    rng = random.Random(17)
    hits = 0
    for _ in range(600):
        n = rng.randint(0, 12)
        seq = [rng.randint(0, 4) for _ in range(n)]
        got = _find_interleave(seq)
        if _interleave_oracle(seq):
            assert got is not None
            a, b, c, d = got
            assert a < b < c < d
            assert seq[a] == seq[c] != seq[b] == seq[d]
            hits += 1
        else:
            assert got is None
    assert hits > 100


def test_germ_classes_match_union_find():
    rng = random.Random(71)
    instances = [(L, C) for _, L, C, _ in corpus_geometries() if C.epsilon == 0]
    for _ in range(150):
        L, C, _ = random_layered_flat(rng, rng.randint(2, 10))
        instances.append((L, C))
    for _ in range(300):
        L, P, _ = random_sa_instance(rng)
        if configuration_membership(L, P, 0):
            instances.append((L, Configuration(L, P)))
    shared = passes = 0
    for L, C in instances:
        for view in magnified_views(L, C):
            assert view.class_of == reference_germ_classes(L, view)
            shared += len(set(view.class_of)) < len(view.class_of)
            passes += any(ib.kind == "pass" for ib in view.inbounds)
    assert shared > 100 and passes > 10


def _entrance_views(rng):
    """One or two views of 2-6 germs at one or two entrances, random signs.

    Each germ is its own bar. Most pairs in a view get consistent
    nonzero entries with a random winner, so many entrances are
    tournaments; the rest are random, zero included.
    """
    views, rows = [], []
    for location in range(rng.randint(1, 2)):
        dirs = [(1, 0), (0, 1)][: rng.randint(1, 2)]
        first, k = len(rows), rng.randint(2, 6)
        inbounds = tuple(
            Inbound(
                i, f"e{i}", rng.choice(dirs), rng.choice((1, -1)), f"v{i}", "endpoint"
            )
            for i in range(first, first + k)
        )
        for row in rows:
            row.extend([0] * k)
        rows.extend([0] * (first + k) for _ in range(k))
        for a, b in itertools.combinations(inbounds, 2):
            if rng.random() < 0.85:
                sa = rng.choice((1, -1))
                sb = -sa * a.dir_flag * b.dir_flag
            else:
                sa, sb = rng.choice((1, 0, -1)), rng.choice((1, 0, -1))
            rows[a.edge_index][b.edge_index] = sa * rng.randint(1, 3)
            rows[b.edge_index][a.edge_index] = sb * rng.randint(1, 3)
        entrances = tuple(
            (d, idxs)
            for d in dirs
            if (idxs := tuple(m for m, ib in enumerate(inbounds) if ib.direction == d))
        )
        views.append(MagnifiedView((F(location), F(0)), inbounds, (0,) * k, entrances))
    return tuple(views), AnnotationMatrix.from_rows(rows)


def test_well_ordered_win_counts_match_ranked_verification():
    rng = random.Random(73)
    outcomes = set()
    for _ in range(1500):
        views, A = _entrance_views(rng)
        got = check_well_ordered(views, A)
        assert got == reference_check_well_ordered(views, A)
        outcomes.add(got.report.detail)
    assert outcomes == {
        "",
        "zero annotation between germs at one entrance",
        "annotation pair disagrees about the local order",
        "three-way cycle in the entrance order",
    }


def test_microscopic_relabeling_invariance():
    # permuting the edge list (and the matrix with it) keeps the verdict
    L, C, A = interleave_gadget()
    rng = random.Random(18)
    idx = list(range(len(L.edges)))
    for _ in range(5):
        rng.shuffle(idx)
        edges = tuple(L.edges[i] for i in idx)
        L2 = Linkage(L.vertices, edges)
        rows = tuple(
            tuple(A.value(i, j) for j in idx)
            for i in idx
        )
        A2 = AnnotationMatrix(rows)
        C2 = conf(L2, {v: C.placement[v] for v in L2.vertices})
        v = validate(L2, C2, A2)
        assert not v.ok
        assert v.report("microscopic").status == "fail"


def test_random_nontouching_configurations_validate():
    rng = random.Random(19)
    for _ in range(200):
        L, C = random_nontouching(rng)
        v = validate(L, C, annotate(L, C))
        assert v.ok


def test_microscopic_direct_use():
    L, C, A = interleave_gadget()
    views = magnified_views(L, C)
    wo = check_well_ordered(views, A)
    r = check_microscopic(views, wo.orders)
    assert r.status == "fail"
    Ld, Cd, Ad = doubled_chain()
    vd = magnified_views(Ld, Cd)
    wd = check_well_ordered(vd, Ad)
    assert check_microscopic(vd, wd.orders).status == "pass"


def _mutated(rng, A, overlapping):
    """A with one entry negated, doubled or zeroed, half the time on an
    overlapping pair; returns (matrix, pair)."""
    if overlapping and rng.random() < 0.5:
        pair = rng.choice(sorted(overlapping))
    else:
        i, j = rng.sample(range(A.n), 2)
        pair = (i, j)
    v = A.value(*pair)
    new = rng.choice([-v, v.scale(2), v.scale(0)])
    return AnnotationMatrix.from_segments(A.segments, {**A.overrides, pair: new}), pair


def test_well_annotated_matches_dense_reference():
    # the sparse check gives the dense scan's report, witness and detail
    rng = random.Random(2026)
    bases = [(L, C, A) for _, L, C, A in corpus_geometries()]
    for _ in range(60):
        L, C, heights = random_layered_flat(rng, rng.randint(2, 10))
        bases.append((L, C, resolve_annotations(L, C, layer_entries(L, C, heights))))
    for _ in range(120):
        L, P, _ = random_sa_instance(rng)
        C = Configuration(L, P, big_eps(L, P))
        A = AnnotationMatrix.from_segments([C.segment(e) for e in L.edges])
        bases.append((L, C, A))
    statuses = []
    mutants = {"overlapping": 0, "other": 0}
    for L, C, A in bases:
        cases = [A]
        segs = [C.segment(e) for e in L.edges]
        overlapping = reference_overlapping_pairs(segs)
        if A.n >= 2:
            for _ in range(3):
                B, pair = _mutated(rng, A, overlapping)
                mutants["overlapping" if pair in overlapping else "other"] += 1
                cases.append(B)
        for B in cases:
            got = check_well_annotated(L, C, B)
            assert got == reference_check_well_annotated(L, C, B)
            statuses.append(got.status)
    assert sum(mutants.values()) >= 500
    assert min(mutants.values()) >= 150
    assert statuses.count("fail") >= 150 and statuses.count("pass") >= 150


def test_well_annotated_foreign_defaults_check_every_pair():
    # defaults from another configuration or edge order are checked densely
    rng = random.Random(7)
    fails = 0
    for k in range(200):
        if k % 2:
            L, C1, heights = random_layered_flat(rng, rng.randint(2, 8))
            A = resolve_annotations(L, C1, layer_entries(L, C1, heights))
        else:
            L, C1 = random_linkage(rng, 2, 6)
            A = annotate(L, C1)
        P = {v: (-p[0], p[1] + 1) for v, p in C1.placement.items()}
        v = rng.choice(L.vertices)
        P[v] = (P[v][0] + F(rng.randint(-2, 2), 4), P[v][1] + F(rng.randint(-2, 2), 4))
        L2 = Linkage(L.vertices, tuple(reversed(L.edges)))
        for Lx, Cx in (
            (L, Configuration(L, P, big_eps(L, P))),
            (L2, Configuration(L2, C1.placement, 0)),
        ):
            got = check_well_annotated(Lx, Cx, A)
            assert got == reference_check_well_annotated(Lx, Cx, A)
            fails += got.status == "fail"
    assert fails >= 100


def test_resolve_and_validate_call_counts(monkeypatch):
    # 64-bar layered zigzag through 0, 3, 1, 4, 2, ...: every bar overlaps
    # its neighbours, 432 ordered pairs in all, out of 64 * 63 = 4032
    xs = [0]
    for k in range(64):
        xs.append(xs[-1] + (3 if k % 2 == 0 else -2))
    L, C, heights = layered_strip(xs)
    entries = layer_entries(L, C, heights)
    segs = [C.segment(e) for e in L.edges]
    assert len(reference_overlapping_pairs(segs)) == 432 == len(entries)
    names = ("overlap_length", "ord_value")
    counts = count_calls(monkeypatch, linkfold.annotations, names)
    A = resolve_annotations(L, C, entries)
    assert validate(L, C, A).ok
    # one overlap_length per overlapping ordered pair, shared by resolve and
    # validate; every ord_value default is either overridden or never read
    assert counts == {"overlap_length": 432, "ord_value": 0}

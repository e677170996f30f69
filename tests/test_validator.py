"""Four-stage validity checks and the magnified local pictures they use."""

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
    mutated_annotation,
    perturbation_corpus,
    random_layered_fan,
    random_layered_flat,
    random_linkage,
    random_nontouching,
    random_sa_instance,
    random_sign_entries,
    reference_check_well_annotated,
    reference_check_well_ordered,
    reference_find_interleave,
    reference_germ_classes,
    reference_magnified_views,
    reference_overlapping_pairs,
    sweep_inputs,
)
import linkfold.annotations
import linkfold.geometry
from linkfold.annotations import AnnotationMatrix, annotate
from linkfold.corridors import corridor_order, corridors, delta_bound
from linkfold.document import SparseAnnotation, resolve_annotations
from linkfold.errors import AnnotationError, LinkageError
from linkfold.linkage import Configuration, Linkage, configuration_membership
from linkfold.rationals import SqrtRational
from linkfold.validator import (
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


def test_magnified_views_match_scan_reference():
    # lattice sweep against the locations x edges Fraction scan, field by
    # field; the inputs must reach pass germs, zero clusters and
    # locations where pass and endpoint germs mix
    seen = dict.fromkeys(("pass", "zero", "mixed"), 0)
    for L, C in sweep_inputs(random.Random(4400)):
        got, want = magnified_views(L, C), reference_magnified_views(L, C)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.location == w.location and type(g.location[0]) is F
            assert g.inbounds == w.inbounds, g.location
            assert g.class_of == w.class_of, g.location
            assert g.entrances == w.entrances, g.location
            kinds = {ib.kind for ib in g.inbounds}
            seen["pass"] += "pass" in kinds
            seen["mixed"] += kinds == {"pass", "endpoint"}
        seen["zero"] += any(e.rest_length == 0 for e in L.edges)
    assert min(seen.values()) >= 100, seen


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
        res = check_well_ordered(views, A, C)
        assert res.report.status == "pass", name
        assert len(res.orders) == len(views)
        for view, order in zip(views, res.orders):
            assert sorted(order) == list(range(len(view.inbounds)))


def test_well_ordered_zero_entry():
    L, C, _ = doubled_chain()
    views = magnified_views(L, C)
    zero = AnnotationMatrix.from_rows([[0, 0], [0, 0]])
    res = check_well_ordered(views, zero, C)
    assert res.report.status == "fail"
    assert "zero annotation" in res.report.detail
    assert res.report.witness[0] == (F(0), F(0))


def test_well_ordered_inconsistent_pair():
    L, C, _ = doubled_chain()
    views = magnified_views(L, C)
    clash = AnnotationMatrix.from_rows([[0, 1], [-1, 0]])
    res = check_well_ordered(views, clash, C)
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


def test_verdict_heights_are_the_corridor_layering():
    # an ok verdict carries each positive bar's layer height, the psi of
    # its corridor_order; a failing verdict carries none, even when only
    # the microscopic check fails after the lines have layered
    rng = random.Random(2409)
    inputs = [(L, C, A) for _, L, C, A in perturbation_corpus()]
    for k in range(12):
        L, C, heights = random_layered_fan(rng) if k % 2 else random_layered_flat(
            rng, rng.randint(2, 9)
        )
        inputs.append((L, C, annotation_from_layers(L, C, heights)))
    seen_top = 0
    for L, C, A in inputs:
        v = validate(L, C, A)
        assert v.ok
        want = {
            L.edge_index(eid): h
            for c in corridors(L, C)
            for eid, h in corridor_order(c, A, L, C).psi.items()
        }
        assert v.heights == want
        seen_top = max(seen_top, *want.values())
    assert seen_top >= 3
    for L, C, A in (interleave_gadget(), cyclic_gadget()):
        v = validate(L, C, A)
        assert not v.ok and v.heights == {}


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


def test_find_interleave_matches_reference():
    # the label -> depth map gives the stack scan's witness, position for
    # position, on random sequences and on the views of 17-bar spirals,
    # with their entrance orders as validated and shuffled
    rng = random.Random(1717)
    seqs = [
        [rng.randint(0, k) for _ in range(rng.randint(0, 30))]
        for k in (rng.randint(1, 6) for _ in range(1500))
    ]
    for hinged in (False, True):
        lengths = sorted(rng.sample(range(1, 52), 17), reverse=True)
        xs = [0]
        for k, length in enumerate(lengths):
            xs.append(xs[-1] + (length if k % 2 == 0 else -length))
        L, C, heights = layered_strip(xs, hinged=hinged)
        views = magnified_views(L, C)
        wo = check_well_ordered(views, annotation_from_layers(L, C, heights), C)
        assert wo.report.status == "pass"
        for view, order in zip(views, wo.orders):
            seq = [view.class_of[k] for k in order]
            seqs += [seq] + [rng.sample(seq, len(seq)) for _ in range(3)]
    hits = 0
    for seq in seqs:
        got = _find_interleave(seq)
        assert got == reference_find_interleave(seq)
        hits += got is not None
    assert hits > 300, hits


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


def test_well_ordered_win_counts_match_ranked_verification():
    # one layering per line against the per-entrance scan that verifies
    # its ranked order pair by pair: multi-line fans and flats layered by
    # height or by a coin toss per overlapping pair (often cyclic), each
    # with single-entry mutants (negated, doubled or zeroed)
    rng = random.Random(73)
    bases = []
    for k in range(300):
        if k % 3 == 0:
            L, C, heights = random_layered_fan(rng)
            entries = layer_entries(L, C, heights)
        else:
            L, C, heights = random_layered_flat(rng, rng.randint(2, 10))
            if k % 3 == 1:
                entries = layer_entries(L, C, heights)
            else:
                entries = random_sign_entries(rng, L, C)
        bases.append((L, C, resolve_annotations(L, C, entries)))
    outcomes = {}
    for L, C, A in bases:
        views = magnified_views(L, C)
        overlapping = set(C.lines().overlaps)
        mutants = [mutated_annotation(rng, C, A, overlapping)[0] for _ in range(3)]
        for B in [A] + mutants:
            got = check_well_ordered(views, B, C)
            want = reference_check_well_ordered(views, B)
            # the reference ranks entrances only; heights are checked against
            # corridor_order in test_verdict_heights_are_the_corridor_layering
            assert (got.report, got.orders) == (want.report, want.orders)
            assert got.report.status == "pass" or got.heights == {}
            outcomes[got.report.detail] = outcomes.get(got.report.detail, 0) + 1
    assert set(outcomes) == {
        "",
        "zero annotation between germs at one entrance",
        "annotation pair disagrees about the local order",
        "three-way cycle in the entrance order",
    }
    assert min(outcomes.values()) >= 100, outcomes


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
    wo = check_well_ordered(views, A, C)
    r = check_microscopic(views, wo.orders)
    assert r.status == "fail"
    Ld, Cd, Ad = doubled_chain()
    vd = magnified_views(Ld, Cd)
    wd = check_well_ordered(vd, Ad, Cd)
    assert check_microscopic(vd, wd.orders).status == "pass"


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
        bases.append((L, C, AnnotationMatrix.from_configuration(C)))
    statuses = []
    mutants = {"overlapping": 0, "other": 0}
    for L, C, A in bases:
        cases = [A]
        segs = [C.segment(e) for e in L.edges]
        overlapping = reference_overlapping_pairs(segs)
        if A.n >= 2:
            for _ in range(3):
                B, pair = mutated_annotation(rng, C, A, overlapping)
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
    # the line index reads overlaps as whole steps off the sorted
    # parameters, so overlap_length never runs; every ord_value default is
    # either overridden or never read
    assert counts == {"overlap_length": 0, "ord_value": 0}


def test_validate_reads_each_overlapping_entry_twice(monkeypatch):
    # a 64-bar nested spiral: every bar overlaps every other, 4032 ordered
    # pairs; validate reads each entry once for its magnitude and once to
    # layer the line, however many entrances share the pair; its magnitude
    # is an int override, so the layering reads only signs
    lengths = sorted(random.Random(3).sample(range(1, 193), 64), reverse=True)
    xs = [0]
    for k, length in enumerate(lengths):
        xs.append(xs[-1] + (length if k % 2 == 0 else -length))
    L, C, heights = layered_strip(xs)
    A = resolve_annotations(L, C, layer_entries(L, C, heights))
    assert len(C.lines().steps) == 64 * 63
    reads = _count_reads(monkeypatch)
    assert validate(L, C, A).ok
    assert len(reads["value"]) == 0 and len(reads["sign"]) <= 64 * 63


def _count_reads(monkeypatch):
    """Record every AnnotationMatrix.value and .sign call's pair."""
    reads = {"value": [], "sign": []}
    for name, seen in reads.items():
        method = getattr(AnnotationMatrix, name)

        def counted(self, i, j, _method=method, _seen=seen):
            _seen.append((i, j))
            return _method(self, i, j)

        monkeypatch.setattr(AnnotationMatrix, name, counted)
    return reads


def test_well_ordered_scans_only_faulty_lines(monkeypatch):
    # a 32-bar nested spiral that layers and, far along x on another line,
    # three stacked unit bars annotated in a cycle: the per-entrance scan
    # that finds the witness reads only the cyclic stack's entrances
    lengths = sorted(random.Random(5).sample(range(1, 97), 32), reverse=True)
    xs = [0]
    for k, length in enumerate(lengths):
        xs.append(xs[-1] + (length if k % 2 == 0 else -length))
    Ls, Cs, heights = layered_strip(xs)
    specs = [(e.id, e.tail, e.head, e.rest_length) for e in Ls.edges]
    coords = dict(Cs.placement)
    for k in (1, 2, 3):
        specs.append((f"F{k}", f"t{k}", f"h{k}", 1))
        coords.update({f"t{k}": (1000, 1), f"h{k}": (1001, 1)})
    L = mk_linkage(specs)
    C = conf(L, coords)
    signs = ((1, 2, -1), (1, 3, 1), (2, 1, 1), (2, 3, -1), (3, 1, -1), (3, 2, 1))
    cycle = tuple(
        SparseAnnotation(f"F{a}", f"F{b}", value=SqrtRational(v)) for a, b, v in signs
    )
    A = resolve_annotations(L, C, layer_entries(Ls, Cs, heights) + cycle)
    views = magnified_views(L, C)
    reads = _count_reads(monkeypatch)
    got = check_well_ordered(views, A, C)
    assert got.report.detail == "three-way cycle in the entrance order"
    assert len(reads["value"]) + len(reads["sign"]) <= len(C.lines().steps) + 100
    monkeypatch.undo()
    assert got == reference_check_well_ordered(views, A)


def test_one_line_index_per_configuration(monkeypatch):
    # resolve, validate, corridors, layer orders and delta_bound on one
    # configuration share its line index: canonical_line runs once per
    # positive bar (plus each corridor's input line), and overlaps are read
    # off the sorted parameters, so overlap_length never runs
    xs = [0, 5, 1, 6, 2, 7, 3, 8]
    specs, coords, heights = [], {}, {}
    frames = {"a": ((1, 0, 1), (0, 0)), "b": ((3, 4, 5), (0, 1)), "c": ((0, 1, 1), (20, 0))}
    for tag, frame in frames.items():
        Ls, Cs, hs = layered_strip(xs, hinged=True, frame=frame)
        specs += [(tag + e.id, tag + e.tail, tag + e.head, e.rest_length) for e in Ls.edges]
        coords.update({tag + v: p for v, p in Cs.placement.items()})
        heights.update({tag + e: h for e, h in hs.items()})
    L = mk_linkage(specs)
    C = conf(L, coords)
    entries = layer_entries(L, C, heights)
    pairs = reference_overlapping_pairs([C.segment(e) for e in L.edges])
    lines = count_calls(monkeypatch, linkfold.geometry, ("canonical_line",))
    overlaps = count_calls(monkeypatch, linkfold.annotations, ("overlap_length",))
    A = resolve_annotations(L, C, entries)
    assert validate(L, C, A).ok
    cs = corridors(L, C)
    for c in cs:
        corridor_order(c, A, L, C)
    delta_bound(L, C)
    positive = sum(e.rest_length > 0 for e in L.edges)
    assert len(cs) == 3 and positive == 21 < len(L.edges)
    assert lines["canonical_line"] == positive + len(cs)
    assert overlaps["overlap_length"] == 0 < len(pairs)

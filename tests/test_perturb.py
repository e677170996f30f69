"""Perturbation construction: exact certificates, sign stability, probes."""

import collections
import dataclasses
import importlib
import math
import random
from fractions import Fraction

import pytest

from helpers import (
    annotation_from_layers,
    conf,
    doubled_chain,
    hinged_strip,
    interleave_gadget,
    mk_linkage,
    layer_entries,
    layered_strip,
    perturbation_corpus,
    pythagorean_chain,
    random_layered_fan,
    random_layered_flat,
    reference_is_nontouching,
    reference_sign_check,
    straight_chain,
)
from linkfold.annotations import AnnotationMatrix, annotate, ord_value, overlap_length
from linkfold.corridors import delta_bound
from linkfold.document import resolve_annotations
from linkfold.errors import PerturbationError, ValidationFailure
from linkfold.geometry import sqdist
from linkfold.linkage import Configuration, is_nontouching, reduce, touch_witness
from linkfold.perturb import convergence_probe, perturb
from linkfold.rationals import SqrtRational

F = Fraction

SWEEP = [F(1, 10), F(1, 40), F(1, 160)]


def clamp(delta, bound):
    return delta if delta < bound else bound / 2


def test_perturb_doubled_chain_exact_coordinates():
    L, C, A = doubled_chain()
    res = perturb(L, C, A, F(1, 10))
    assert res.delta_used == F(1, 10)
    assert res.slack == F(1, 5)
    assert res.psi == {"e1": 0, "e2": 1}
    pl = res.configuration.placement
    assert pl["v0.0"] == (F(1, 10), F(0))
    assert pl["v1.0"] == (F(9, 10), F(0))
    # fragments on the lifted bar sit exactly delta^2 above the line, at
    # the disk exit sqrt(99)/100 rounded inward to the grid 1/K, with
    # K = q 2^40 (ceil(l_max) + 1) lcm(N), and N = 1 on the x-axis
    K = 10 * 2**40 * 2
    s = F(math.isqrt(99 * K * K // 100**2), K)
    assert s * s + F(1, 100) ** 2 <= F(1, 100) < (s + F(1, K)) ** 2 + F(1, 100) ** 2
    assert pl["v1.1"] == (1 - s, F(1, 100))
    assert pl["v2.0"] == (s, F(1, 100))
    assert is_nontouching(res.linkage, res.configuration)


def test_perturb_corpus_soundness():
    for name, L, C, A in perturbation_corpus():
        bound = delta_bound(L, C)
        for delta in SWEEP:
            d = clamp(delta, bound)
            res = perturb(L, C, A, d)
            assert res.delta_requested == d, name
            assert res.attempts == 1 and res.delta_used == d, name
            du = res.delta_used
            # exact nontouching certificate on the rationalized snapshot
            assert is_nontouching(res.linkage, res.configuration), name
            # per-fragment displacement stays within delta, exactly
            for v2 in res.linkage.vertices:
                home = C.placement[res.extension_map.original_vertex(v2)]
                d2 = sqdist(res.configuration.placement[v2], home)
                assert d2 <= du * du, name
            assert res.max_displacement_sq <= du * du
            # bar-length drift within the advertised slack
            assert res.slack == 2 * du
            for e in res.linkage.edges:
                seg = res.configuration.segment(e)
                ln2 = sqdist(*seg)
                assert ln2 <= (e.rest_length + res.slack) ** 2, name
                if e.rest_length >= res.slack:
                    assert ln2 >= (e.rest_length - res.slack) ** 2, name


def test_perturbed_corpus_matches_reference():
    for name, L, C, A in perturbation_corpus():
        bound = delta_bound(L, C)
        for delta in SWEEP:
            res = perturb(L, C, A, clamp(delta, bound))
            assert touch_witness(res.linkage, res.configuration) is None, name
            assert reference_is_nontouching(res.linkage, res.configuration), name


def test_perturb_hinged_strip_succeeds():
    # a 5-bar hinged zigzag: each fold's zero-bar centre sits at the mean
    # exit of its raised bars, so no extension bar (x6) crosses the bar
    # layered between them (e3); delta is the benchmark's fold-job radius
    # 1 / (4 edges)
    L, C, A = hinged_strip([0, 3, 1, 4, 2, 5])
    assert len(L.edges) == 9
    res = perturb(L, C, A, F(1, 36))
    assert res.attempts == 1
    assert reference_is_nontouching(res.linkage, res.configuration)


def test_perturb_random_hinged_flats():
    # every valid hinged random layered flat perturbs at delta = 1/(4 edges)
    # and 1/(40 edges), and the output touches nothing
    rng = random.Random(1901)
    hinged = 0
    while hinged < 16:
        L, C, heights = random_layered_flat(rng, rng.randint(3, 8))
        if all(e.rest_length for e in L.edges):
            continue
        hinged += 1
        A = annotation_from_layers(L, C, heights)
        for delta in (F(1, 4 * len(L.edges)), F(1, 40 * len(L.edges))):
            res = perturb(L, C, A, delta)
            assert reference_is_nontouching(res.linkage, res.configuration)


def test_perturb_layered_flats_and_fans_at_shrinking_radii():
    # every valid layered flat (zigzag or spiral, hinged or not) and fan
    # of strips on several lines perturbs at delta, delta/4 and delta/16
    # for delta = bound/2; each output touches nothing, keeps every
    # fragment within delta_used of home, and reduces back to the input
    rng = random.Random(2718)
    cases = [random_layered_flat(rng, rng.randint(2, 8)) for _ in range(16)]
    cases += [random_layered_fan(rng) for _ in range(6)]
    hinged = 0
    for L, C, heights in cases:
        hinged += not all(e.rest_length for e in L.edges)
        A = resolve_annotations(L, C, layer_entries(L, C, heights))
        delta = delta_bound(L, C) / 2
        for d in (delta, delta / 4, delta / 16):
            res = perturb(L, C, A, d)
            assert reference_is_nontouching(res.linkage, res.configuration)
            assert res.max_displacement_sq <= res.delta_used**2
            L2, emap = res.linkage, res.extension_map
            home = {v: C.placement[emap.original_vertex(v)] for v in L2.vertices}
            RL, RC = reduce(L2, Configuration(L2, home), emap)
            assert RL == L and RC.placement == C.placement
    assert hinged >= 5


def test_perturb_at_radii_down_to_bound_times_1e_12():
    # the corpus and seeded layered flats and fans perturb at
    # delta = bound/2 * 10^-k for k = 0, 4, 8, 12: each output touches
    # nothing, keeps every fragment within delta of home, and reduces back
    # to the input
    rng = random.Random(2718)
    cases = [(L, C, A) for _, L, C, A in perturbation_corpus()]
    layered = [random_layered_flat(rng, rng.randint(2, 8)) for _ in range(12)]
    layered += [random_layered_fan(rng) for _ in range(6)]
    for L, C, heights in layered:
        cases.append((L, C, resolve_annotations(L, C, layer_entries(L, C, heights))))
    for L, C, A in cases:
        for k in (0, 4, 8, 12):
            d = delta_bound(L, C) / 2 / 10**k
            res = perturb(L, C, A, d)
            assert reference_is_nontouching(res.linkage, res.configuration), k
            assert res.max_displacement_sq <= d * d
            L2, emap = res.linkage, res.extension_map
            home = {v: C.placement[emap.original_vertex(v)] for v in L2.vertices}
            RL, RC = reduce(L2, Configuration(L2, home), emap)
            assert RL == L and RC.placement == C.placement


def test_perturb_sign_stability():
    # every nonzero annotation entry keeps its sign after perturbation
    for name, L, C, A in perturbation_corpus():
        bound = delta_bound(L, C)
        for delta in SWEEP:
            res = perturb(L, C, A, clamp(delta, bound))
            snap = res.configuration.placement
            n = len(L.edges)
            for i in range(n):
                for j in range(n):
                    want = A.value(i, j).sign()
                    if i == j or want == 0:
                        continue
                    ei, ej = res.linkage.edges[i], res.linkage.edges[j]
                    got = ord_value(
                        (snap[ei.tail], snap[ei.head]),
                        (snap[ej.tail], snap[ej.head]),
                    ).sign()
                    assert got == want, (name, ei.id, ej.id)


def test_sign_check_matches_fraction_reference_on_perturb_attempts(monkeypatch):
    # every snapshot perturb sign-checks, hinged flats included, read on
    # the lattice and on the snapshot's Fractions; a copy of the
    # annotation with some overlapping entries negated reaches the
    # "sign flipped" witness too
    rng, flips = random.Random(4200), random.Random(4600)
    module = importlib.import_module("linkfold.perturb")
    sign_check = module._sign_check
    outcomes = collections.Counter()

    def checked(prep, cdelta, da):
        got = sign_check(prep, cdelta, da)
        assert got == reference_sign_check(prep, cdelta.placement, da)
        rows = [list(row) for row in prep.annotation.entries]
        for i, j in prep.configuration.lines().steps:
            if flips.random() < 0.3:
                v = rows[i][j]
                rows[i][j] = SqrtRational(-v.coeff, v.radicand)
        flipped = dataclasses.replace(prep, annotation=AnnotationMatrix.from_rows(rows))
        bad = sign_check(flipped, cdelta, da)
        assert bad == reference_sign_check(flipped, cdelta.placement, da)
        outcomes[got, bad is None] += 1
        return got

    monkeypatch.setattr(module, "_sign_check", checked)
    hinged = 0
    for _ in range(40):
        L, C, heights = random_layered_flat(rng, rng.randint(2, 9))
        hinged += any(e.rest_length == 0 for e in L.edges)
        try:
            perturb(L, C, annotation_from_layers(L, C, heights), F(1, 4 * len(L.edges)))
        except PerturbationError:
            pass
    assert hinged >= 8, hinged
    assert outcomes[None, False] >= 20 and outcomes.total() >= 30, outcomes


def test_sign_check_thin_overlap_bound_matches_reference():
    # a snapshot with every fragment at home keeps the folded pair
    # collinear, so its signs read 0 and only the thin-overlap bound
    # (overlap < 4 da) decides; radii on both sides of the bound, on a
    # horizontal and a Pythagorean line, agree with the Fraction oracle
    module = importlib.import_module("linkfold.perturb")
    outcomes = collections.Counter()
    for frame in (((1, 0, 1), (0, 0)), ((3, 4, 5), (F(1, 2), 1))):
        for k in range(1, 7):
            L, C, heights = layered_strip([0, 7, 7 - k], frame=frame)
            prep = module._prepare(L, C, annotation_from_layers(L, C, heights))
            home = prep.emap.original_vertex
            snapshot = {v: C.placement[home(v)] for v in prep.extended.vertices}
            cdelta = Configuration(prep.extended, snapshot, 100)
            for da in (F(k, 4) - F(1, 997), F(k, 4), F(k, 4) + F(1, 997)):
                got = module._sign_check(prep, cdelta, da)
                assert got == reference_sign_check(prep, cdelta.placement, da)
                outcomes[got is None, da > F(k, 4)] += 1
    assert outcomes == {(False, False): 24, (True, True): 12}, outcomes


PLANTED = {
    "disk": ("fragment outside the disk",),
    "touch": ("bars cross", "e1", "e2"),
    "sign": ("sign flipped", "e1", "e2"),
}


@pytest.mark.parametrize("miss", list(PLANTED))
def test_planted_miss_raises_its_witness_after_one_construction(monkeypatch, miss):
    # on the doubled chain at delta = 1/10, a snapshot planted to miss one
    # exact check (v0.0 at 1.5 delta; v2.0, or both lifted fragments,
    # mirrored below e1, which lies on y = 0) is not shrunk or retried at a
    # smaller radius: the one construction's witness is the error's
    module = importlib.import_module("linkfold.perturb")
    place = module._snapshot
    radii = []

    def planted(prep, delta):
        radii.append(delta)
        snapshot, max_d2 = place(prep, delta)
        if miss == "disk":
            snapshot["v0.0"] = (3 * delta / 2, F(0))
            max_d2 = max(max_d2, (3 * delta / 2) ** 2)
        for key in {"touch": ["v2.0"], "sign": ["v1.1", "v2.0"]}.get(miss, []):
            x, y = snapshot[key]
            snapshot[key] = (x, -y)
        return snapshot, max_d2

    monkeypatch.setattr(module, "_snapshot", planted)
    L, C, A = doubled_chain()
    with pytest.raises(PerturbationError, match="^no admissible perturbation") as caught:
        perturb(L, C, A, F(1, 10))
    assert caught.value.offending == PLANTED[miss]
    assert radii == [F(1, 10)]


def test_grid_takes_the_lcm_over_raised_bars_only():
    # a bar at height 0 gets no offset, so its N never enters the grid:
    # a nontouching chain along n distinct directions keeps the grid at
    # ceil(l_max) + 1, and every raised bar's N still divides the grid
    module = importlib.import_module("linkfold.perturb")
    for n in (1, 4, 16, 64, 256):
        L, C = pythagorean_chain(n)
        A = annotate(L, C)
        prep = module._prepare(L, C, A)
        assert len({normal for _, normal, _ in prep.psi_map.values()}) == n
        assert {h for h, _, _ in prep.psi_map.values()} == {0}
        assert prep.grid == math.ceil(max(e.rest_length for e in L.edges)) + 1, n
    res = perturb(L, C, A, prep.bound / 2)
    assert is_nontouching(res.linkage, res.configuration)
    rng = random.Random(1414)
    for _ in range(20):
        L, C, heights = random_layered_fan(rng)
        prep = module._prepare(L, C, annotation_from_layers(L, C, heights))
        raised = [N for h, _, N in prep.psi_map.values() if h]
        assert raised and all(prep.grid % N == 0 for N in raised)


def test_perturb_offsets_bounded():
    for name, L, C, A in perturbation_corpus():
        bound = delta_bound(L, C)
        n = len(L.edges)
        for delta in SWEEP:
            d = clamp(delta, bound)
            res = perturb(L, C, A, d)
            du = res.delta_used
            for h in res.psi.values():
                assert du * du * h <= du * du * n < du, name


def test_perturb_rejects_out_of_range_delta():
    L, C, A = doubled_chain()
    bound = delta_bound(L, C)
    for bad in (0, bound, bound + 1, F(-1, 10)):
        with pytest.raises(PerturbationError):
            perturb(L, C, A, bad)


def test_perturb_rejects_invalid_configuration():
    L, C, A = interleave_gadget()
    with pytest.raises(ValidationFailure):
        perturb(L, C, A, F(1, 100))


def test_perturb_nontouching_input():
    L, C = straight_chain(1, 1)
    A = annotate(L, C)
    res = perturb(L, C, A, F(1, 10))
    assert is_nontouching(res.linkage, res.configuration)
    for v2 in res.linkage.vertices:
        home = C.placement[res.extension_map.original_vertex(v2)]
        assert sqdist(res.configuration.placement[v2], home) <= F(1, 100)


def test_perturb_annotation_continuity_on_nontouching_input():
    # ord entries of the perturbed picture track the original entrywise
    L = mk_linkage([("e1", "a", "b", 2), ("e2", "c", "d", 2)])
    C = conf(L, {"a": (0, 0), "b": (2, 0), "c": (0, 1), "d": (2, 1)})
    A = annotate(L, C)
    assert A.value(0, 1) == 2
    for delta in (F(1, 8), F(1, 32), F(1, 128)):
        res = perturb(L, C, A, delta)
        snap = res.configuration.placement
        for i, j in ((0, 1), (1, 0)):
            ei, ej = res.linkage.edges[i], res.linkage.edges[j]
            val = ord_value(
                (snap[ei.tail], snap[ei.head]), (snap[ej.tail], snap[ej.head])
            )
            ref = float(A.value(i, j))
            assert val.sign() == A.value(i, j).sign()
            assert abs(float(val) - ref) <= 10 * float(delta)


def test_perturb_isolated_vertices_inside_a_bar():
    # the first golden direction, angle 0, runs along a horizontal bar, so
    # an isolated vertex inside one used to be left inside it; here two
    # share one point of the bar, and a third sits inside a vertical bar
    L = mk_linkage(
        [("e", "a", "b", 2), ("f", "c", "d", 2)],
        vertices=("a", "b", "c", "d", "p", "q", "r"),
    )
    C = conf(
        L,
        {
            "a": (0, 0),
            "b": (2, 0),
            "c": (5, 0),
            "d": (5, 2),
            "p": (1, 0),
            "q": (1, 0),
            "r": (5, 1),
        },
    )
    A = annotate(L, C)
    for d in (F(1, 10), F(1, 1000), F(1, 10**9)):
        res = perturb(L, C, A, d)
        assert reference_is_nontouching(res.linkage, res.configuration)
        assert res.max_displacement_sq <= d * d
        L2, emap = res.linkage, res.extension_map
        home = {v: C.placement[emap.original_vertex(v)] for v in L2.vertices}
        RL, RC = reduce(L2, Configuration(L2, home), emap)
        assert RL == L and RC.placement == C.placement


def test_perturb_extension_structure():
    L, C, A = doubled_chain()
    res = perturb(L, C, A, F(1, 10))
    emap = res.extension_map
    exts = [res.linkage.edges[res.linkage.edge_index(x)] for x in emap.extension_edges]
    assert len(exts) == 1  # only v1 has degree 2
    assert all(e.rest_length == 0 for e in exts)
    assert {emap.original_vertex(v) for v in res.linkage.vertices} == set(L.vertices)
    assert [e.id for e in res.linkage.edges[: len(L.edges)]] == ["e1", "e2"]


def test_convergence_probe_doubled_chain():
    L, C, A = doubled_chain()
    deltas = [F(1, 8), F(1, 32), F(1, 128)]
    rep = convergence_probe(L, C, A, deltas)
    assert rep.bound == F(1, 4)
    assert len(rep.entries) == 3
    assert rep.converging
    for d, entry in zip(deltas, rep.entries):
        assert entry.delta == d
        assert entry.delta_used <= d
        assert entry.max_displacement <= float(entry.delta_used) * (1 + 1e-12)
        val = entry.pair_values[("e1", "e2")]
        # the measured overlap approaches the annotated magnitude 1
        assert abs(abs(float(val)) - 1.0) <= 4 * float(entry.delta_used)
    devs = [e.max_deviation for e in rep.entries]
    assert devs[-1] <= devs[0] + 1e-12


def _doubled_chain_with_parallel_bar():
    """The doubled chain plus a unit bar on the line y = 1, overlapping none."""
    L = mk_linkage(
        [("e1", "v0", "v1", 1), ("e2", "v1", "v2", 1), ("e3", "v3", "v4", 1)]
    )
    C = conf(L, {"v0": (0, 0), "v1": (1, 0), "v2": (0, 0),
                 "v3": (0, 1), "v4": (1, 1)})
    return L, C, annotation_from_layers(L, C, {"e1": 0, "e2": 1, "e3": 0})


def test_convergence_probe_certified_window():
    # exact certificate: overlap magnitudes land within 4 delta of the target
    for L, C, A in (doubled_chain(), _doubled_chain_with_parallel_bar()):
        bound = delta_bound(L, C)
        c = min(F(1), 2 * bound) / 2
        deltas = [c * F(4) ** -k for k in range(1, 7)]
        rep = convergence_probe(L, C, A, deltas)
        # the probe tracks exactly the ordered pairs that overlap
        overlapping = {
            (e.id, f.id)
            for e in L.edges
            for f in L.edges
            if e != f and overlap_length(C.segment(e), C.segment(f)).sign() > 0
        }
        assert overlapping == {("e1", "e2"), ("e2", "e1")}
        for entry in rep.entries:
            assert set(entry.pair_values) == overlapping
            du = entry.delta_used
            for (ei, ej), val in entry.pair_values.items():
                i, j = L.edge_index(ei), L.edge_index(ej)
                ov = overlap_length(C.segment(L.edges[i]), C.segment(L.edges[j]))
                target = ov.as_fraction()
                val_sq = val.coeff**2 * val.radicand  # |val|^2, exactly
                assert val_sq <= (target + 4 * du) ** 2
                assert val_sq >= max(target - 4 * du, 0) ** 2


def test_empty_probe_validates():
    # no radius to probe still validates the input first
    L, C, _ = doubled_chain()
    zero = AnnotationMatrix.from_rows([[0, 0], [0, 0]])
    for deltas in ([], [F(1, 10)]):
        with pytest.raises(ValidationFailure):
            convergence_probe(L, C, zero, deltas)


def test_convergence_probe_argument_checks():
    L, C, A = doubled_chain()
    rep = convergence_probe(L, C, A, [])
    assert rep.entries == ()
    assert rep.converging
    assert rep.bound == F(1, 4)
    with pytest.raises(PerturbationError):
        convergence_probe(L, C, A, [F(1, 8), F(1, 8)])
    with pytest.raises(PerturbationError):
        convergence_probe(L, C, A, [F(1, 32), F(1, 8)])

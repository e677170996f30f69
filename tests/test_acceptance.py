"""Top-level acceptance checks, one numbered test per shipping criterion.

Every test prints a single PASS/FAIL line on the terminal (outside the
capture) so a full run yields a ten-line scorecard.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction as F

from goldencheck import RUNS, replay, verify_all
from helpers import (
    RATIONAL_DIRS,
    annotation_from_layers,
    assignment_of,
    closed_chain_linkage,
    cyclic_gadget,
    doubled_chain,
    interleave_gadget,
    nontouch_oracle,
    perturbation_corpus,
    perturbed_closed_pair,
    random_nontouching,
    random_sa_instance,
)
from linkfold.adornments import Adornment, is_strictly_slender
from linkfold.annotations import AnnotationMatrix, annotate, ord_value, overlap_length
from linkfold.chains import canonical_closed, convex_interpolate
from linkfold.corridors import delta_bound
from linkfold.linkage import (
    check_epsilon_related,
    configuration_membership,
    is_nontouching,
)
from linkfold.perturb import perturb
from linkfold.rationals import SqrtRational
from linkfold.semialgebra import emit_conf, emit_nconf, eval_system
from linkfold.validator import validate


@contextmanager
def scorecard(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {num:2d} FAIL  {label}")
        raise
    with capsys.disabled():
        print(f"\ncriterion {num:2d} PASS  {label}")


def rpt(rng, span=8, den=4):
    return (F(rng.randint(-span, span), rng.randint(1, den)),
            F(rng.randint(-span, span), rng.randint(1, den)))


def rseg(rng):
    while True:
        a, b = rpt(rng), rpt(rng)
        if a != b:
            return (a, b)


def clamped(delta, bound):
    return delta if delta < bound else bound / 2


def test_criterion_01_order_function(capsys):
    with scorecard(capsys, 1, "signed overlap: self-zero, offsets, continuity"):
        rng = random.Random(101)
        for _ in range(1000):
            s = rseg(rng)
            assert ord_value(s, s).is_zero

        # parallel offset on either side gives exactly +/- len(e1)
        offsets = [F(1, 2), F(1, 7), F(1, 10**9)]
        for _ in range(100):
            dx, dy, nm = rng.choice(RATIONAL_DIRS)
            tail = rpt(rng)
            e1 = (tail, (tail[0] + dx, tail[1] + dy))
            n = (-F(dy), F(dx))
            for t in offsets:
                left = tuple((p[0] + t * n[0], p[1] + t * n[1]) for p in e1)
                right = tuple((p[0] - t * n[0], p[1] - t * n[1]) for p in e1)
                assert ord_value(e1, left) == SqrtRational(nm)
                assert ord_value(e1, right) == SqrtRational(-nm)

        # pushing a collinear partner off the line hits the overlap at once
        e1 = ((F(0), F(0)), (F(4), F(0)))
        partners = [
            ((F(1), F(0)), (F(3), F(0))),
            ((F(3), F(0)), (F(7), F(0))),
            ((F(4), F(0)), (F(9), F(0))),
        ]
        for e2 in partners:
            ov = overlap_length(e1, e2)
            for k in (1, 5, 12, 30):
                h = F(1, 2**k)
                up = tuple((p[0], p[1] + h) for p in e2)
                assert ord_value(e1, up) == ov
                down = tuple((p[0], p[1] - h) for p in e2)
                assert ord_value(e1, down) == SqrtRational(-ov.coeff, ov.radicand)

        # small rotations move the value only slightly, and less as the
        # rotation shrinks
        e2 = ((F(1), F(1)), (F(3), F(1)))
        base = float(ord_value(e1, e2))
        prev = None
        for h in (F(1, 10), F(1, 100), F(1, 1000), F(1, 10**6)):
            tilted = ((e2[0][0], e2[0][1] - h), (e2[1][0], e2[1][1] + h))
            dev = abs(float(ord_value(e1, tilted)) - base)
            if prev is not None:
                assert dev <= prev + 1e-15
            prev = dev
        assert prev < 1e-5


def test_criterion_02_validator_soundness(capsys):
    with scorecard(capsys, 2, "nontouching configurations always validate"):
        rng = random.Random(7001)
        for _ in range(500):
            L, C = random_nontouching(rng, 2, 8)
            verdict = validate(L, C, annotate(L, C))
            assert verdict.ok
            assert [c.status for c in verdict.checks] == ["pass"] * 4


def test_criterion_03_validator_rejection(capsys):
    with scorecard(capsys, 3, "gadgets fail the intended distinct checks"):
        L, C, _ = doubled_chain()
        flat = AnnotationMatrix.from_rows([[0, 0], [0, 0]])
        verdict = validate(L, C, flat)
        assert not verdict.ok
        failed = [c.name for c in verdict.checks if c.status == "fail"]
        assert failed == ["well-annotated"]
        assert verdict.report("well-annotated").witness == ("e1", "e2")

        L, C, A = interleave_gadget()
        verdict = validate(L, C, A)
        assert not verdict.ok
        r = verdict.report("microscopic")
        assert r.status == "fail"
        assert len(r.witness) == 5  # location plus a four-germ pattern

        L, C, A = cyclic_gadget()
        verdict = validate(L, C, A)
        assert not verdict.ok
        assert verdict.report("well-ordered").status == "fail"


def test_criterion_04_perturbation_soundness(capsys):
    with scorecard(capsys, 4, "perturbed outputs are verified nontouching"):
        for name, L, C, A in perturbation_corpus():
            bound = delta_bound(L, C)
            edges = list(L.edges)
            n = len(edges)
            segs = [C.segment(e) for e in edges]
            for delta in (F(1, 10), F(1, 40), F(1, 160)):
                d = clamped(delta, bound)
                res = perturb(L, C, A, d)
                L2, C2 = res.linkage, res.configuration
                assert is_nontouching(L2, C2), name

                # every fragment stays inside the d-disk of its home joint
                for v in L2.vertices:
                    home = C.placement[res.extension_map.original_vertex(v)]
                    px, py = C2.placement[v]
                    disp2 = (px - home[0]) ** 2 + (py - home[1]) ** 2
                    assert disp2 <= d * d, (name, v)

                # bar lengths drift at most 2d from rest
                assert configuration_membership(L2, C2.placement, 2 * d)

                # annotation signs survive on every overlapping pair
                for i in range(n):
                    for j in range(n):
                        if i == j or A.entries[i][j].is_zero:
                            continue
                        ei, ej = L2.edges[i], L2.edges[j]
                        val = ord_value(
                            (C2.placement[ei.tail], C2.placement[ei.head]),
                            (C2.placement[ej.tail], C2.placement[ej.head]),
                        )
                        assert val.sign() == A.entries[i][j].sign(), (name, i, j)


def test_criterion_05_annotation_limit(capsys):
    with scorecard(capsys, 5, "shrinking radii drive values to the overlap"):
        for name, L, C, A in perturbation_corpus():
            bound = delta_bound(L, C)
            edges = list(L.edges)
            n = len(edges)
            segs = [C.segment(e) for e in edges]
            for k in range(1, 7):
                d = clamped(F(1, 4**k), bound)
                res = perturb(L, C, A, d)
                P2 = res.configuration.placement
                tight = 4 * res.delta_used
                for i in range(n):
                    for j in range(n):
                        if i == j:
                            continue
                        ov = overlap_length(segs[i], segs[j])
                        if ov.sign() <= 0:
                            continue
                        assert ov.is_rational, name
                        ovf = ov.as_fraction()
                        ei, ej = res.linkage.edges[i], res.linkage.edges[j]
                        val = ord_value(
                            (P2[ei.tail], P2[ei.head]),
                            (P2[ej.tail], P2[ej.head]),
                        )
                        val_sq = val.coeff**2 * val.radicand  # |val|^2, exactly
                        for slack in (4 * d, tight):
                            low, high = max(ovf - slack, 0), ovf + slack
                            assert low**2 <= val_sq <= high**2, (name, k)


def test_criterion_06_canonical_closed(capsys):
    with scorecard(capsys, 6, "canonical closed chains hit known radii"):
        res = canonical_closed(closed_chain_linkage(3, 4, 5))
        assert res.kind == "concyclic"
        assert abs(res.circumradius - 2.5) <= 1e-9

        res = canonical_closed(closed_chain_linkage(1, 1, 1))
        assert res.kind == "concyclic"
        assert abs(res.circumradius - 1 / math.sqrt(3)) <= 1e-9

        res = canonical_closed(closed_chain_linkage(2, 1, 1))
        assert res.kind == "flat-degenerate"
        assert res.circumradius is None


def test_criterion_07_convex_interpolation(capsys):
    with scorecard(capsys, 7, "nearby concyclic chains blend convexly"):
        rng = random.Random(4097)
        grid = [F(k, 10) for k in range(11)]
        for _ in range(500):
            lens1, lens2 = perturbed_closed_pair(rng)
            La = closed_chain_linkage(*lens1)
            Lb = closed_chain_linkage(*lens2)
            eps = max(abs(a - b) for a, b in zip(lens1, lens2))
            assert check_epsilon_related(La, Lb, eps)
            ca = canonical_closed(La).configuration
            cb = canonical_closed(Lb).configuration
            for t in grid:
                assert convex_interpolate(ca, cb, t).convex


def test_criterion_08_emitter_oracle(capsys):
    with scorecard(capsys, 8, "emitted constraints agree with the oracles"):
        rng = random.Random(8515)
        seen = {True: 0, False: 0}
        for _ in range(1000):
            L, P, eps = random_sa_instance(rng)
            asg = assignment_of(P)
            member = configuration_membership(L, P, eps)
            nt = nontouch_oracle(L, P)
            assert eval_system(emit_conf(L, eps), asg).ok == member
            assert eval_system(emit_nconf(L, eps), asg).ok == (member and nt)
            seen[member and nt] += 1
        assert min(seen.values()) > 100


def test_criterion_09_strictly_slender(capsys):
    with scorecard(capsys, 9, "slenderness verdicts and open condition"):
        iso = Adornment(((0, 0), (2, 0), (1, 1)), (0, 1))
        flat_iso = Adornment(((0, 0), (2, 0), (1, F(1, 2))), (0, 1))
        leg_right = Adornment(((0, 0), (1, 0), (0, 1)), (0, 1))
        square = Adornment(((0, 0), (1, 0), (1, 1), (0, 1)), (0, 1))
        for mode in ("closure", "interior"):
            assert is_strictly_slender(iso, mode)
            assert not is_strictly_slender(leg_right, mode)
            assert not is_strictly_slender(square, mode)

        rng = random.Random(9090)

        def jitter(shape):
            pts = tuple(
                (
                    x + F(rng.randint(-1000, 1000), 10**9),
                    y + F(rng.randint(-1000, 1000), 10**9),
                )
                for x, y in shape.boundary
            )
            return Adornment(pts, shape.base)

        for _ in range(100):
            assert is_strictly_slender(jitter(flat_iso))
            assert not is_strictly_slender(jitter(square))
        assert {is_strictly_slender(jitter(iso)) for _ in range(100)} == {
            True,
            False,
        }


def test_criterion_10_cli_end_to_end(capsys, tmp_path):
    with scorecard(capsys, 10, "frozen CLI corpus replays byte-identically"):
        assert verify_all(tmp_path / "all") == len(RUNS) >= 28
        for name in ("render-doubled", "emit-conf-bar", "emit-nconf-crossing"):
            assert replay(name, tmp_path / "x") == replay(name, tmp_path / "y")

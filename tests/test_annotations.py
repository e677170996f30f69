"""Signed overlap values: exactness, bounds, limits, annotation matrices."""

import random
from fractions import Fraction

import pytest

import helpers
import linkfold.document
from helpers import (
    DOCS_DIR,
    RATIONAL_DIRS,
    bars_by_line,
    big_eps,
    conf,
    corpus_geometries,
    layer_entries,
    layered_strip,
    mk_linkage,
    overlapping_pairs,
    random_layered_fan,
    random_layered_flat,
    random_sa_instance,
    reference_check_well_annotated,
    reference_line_overlaps,
    reference_ord_value,
    reference_overlapping_pairs,
    reference_resolve_annotations,
    segments_configuration,
    stations_by_line,
    straight_chain,
    sweep_inputs,
    zero_cluster_star,
)
from linkfold.annotations import (
    AnnotationMatrix,
    annotate,
    line_layering,
    ord_sign,
    ord_value,
    overlap_length,
    strict_crossing,
)
from linkfold.document import (
    SparseAnnotation,
    format_annotation_value,
    parse_linkage_file,
    resolve_annotations,
)
from linkfold.errors import AnnotationError, DocumentError, LinkageError
from linkfold.geometry import canonical_line, lattice
from linkfold.linkage import Configuration
from linkfold.rationals import SqrtRational
from linkfold.validator import check_well_annotated, validate

F = Fraction


def rpt(rng, span=8, den=4):
    return (F(rng.randint(-span, span), rng.randint(1, den)),
            F(rng.randint(-span, span), rng.randint(1, den)))


def rseg(rng):
    while True:
        a, b = rpt(rng), rpt(rng)
        if a != b:
            return (a, b)


def seg_len(seg):
    d = (seg[1][0] - seg[0][0], seg[1][1] - seg[0][1])
    return SqrtRational(1, d[0] * d[0] + d[1] * d[1])


def test_ord_of_edge_with_itself_is_zero():
    rng = random.Random(10)
    for _ in range(1000):
        e = rseg(rng)
        assert ord_value(e, e).is_zero


def test_ord_degenerate_first_segment():
    p = (F(1), F(2))
    assert ord_value((p, p), ((F(0), F(0)), (F(1), F(1)))).is_zero


def test_parallel_offset_gives_exact_signed_length():
    rng = random.Random(11)
    offsets = [F(1, 2), F(1, 7), F(1, 10**9)]
    for _ in range(200):
        dx, dy, nm = rng.choice(RATIONAL_DIRS)
        tail = rpt(rng)
        head = (tail[0] + dx, tail[1] + dy)
        e1 = (tail, head)
        n = (-F(dy), F(dx))  # left normal, length nm
        for t in offsets:
            left = tuple((p[0] + t * n[0], p[1] + t * n[1]) for p in e1)
            right = tuple((p[0] - t * n[0], p[1] - t * n[1]) for p in e1)
            assert ord_value(e1, left) == SqrtRational(nm)
            assert ord_value(e1, right) == SqrtRational(-nm)


def test_ord_bounded_by_first_length():
    rng = random.Random(12)
    for _ in range(500):
        e1, e2 = rseg(rng), rseg(rng)
        assert abs(ord_value(e1, e2)) <= seg_len(e1)


def test_ord_additive_under_subdivision():
    rng = random.Random(13)
    for _ in range(300):
        e1, e2 = rseg(rng), rseg(rng)
        t = F(rng.randint(1, 9), 10)
        m = (e2[0][0] + t * (e2[1][0] - e2[0][0]),
             e2[0][1] + t * (e2[1][1] - e2[0][1]))
        whole = ord_value(e1, e2)
        parts = ord_value(e1, (e2[0], m)) + ord_value(e1, (m, e2[1]))
        assert whole == parts


def test_ord_orientation_rules():
    rng = random.Random(14)
    for _ in range(300):
        e1, e2 = rseg(rng), rseg(rng)
        v = ord_value(e1, e2)
        # the measured side does not care which way e2 runs
        assert ord_value(e1, (e2[1], e2[0])) == v
        # reversing e1 swaps left and right
        assert ord_value((e1[1], e1[0]), e2) == -v


def test_ord_symmetric_crossing_cancels():
    e1 = ((F(0), F(0)), (F(2), F(0)))
    e2 = ((F(0), F(-1)), (F(2), F(1)))
    assert ord_value(e1, e2).is_zero
    assert strict_crossing(e1, e2)


def test_ord_collinear_is_zero():
    rng = random.Random(15)
    e1 = ((F(0), F(0)), (F(2), F(0)))
    # half-shifted copy on the same line
    assert ord_value(e1, ((F(1), F(0)), (F(3), F(0)))).is_zero
    for _ in range(200):
        e = rseg(rng)
        d = (e[1][0] - e[0][0], e[1][1] - e[0][1])
        t1, t2 = F(rng.randint(-6, 6), 4), F(rng.randint(-6, 6), 4)
        if t1 == t2:
            continue
        c = ((e[0][0] + t1 * d[0], e[0][1] + t1 * d[1]),
             (e[0][0] + t2 * d[0], e[0][1] + t2 * d[1]))
        assert ord_value(e, c).is_zero


def test_offset_limit_matches_overlap_exactly():
    # pushing a collinear partner off the line by any positive offset
    # yields the signed overlap of the original pair, with no limit error
    e1 = ((F(0), F(0)), (F(4), F(0)))
    partners = [
        ((F(1), F(0)), (F(3), F(0))),   # nested, overlap 2
        ((F(3), F(0)), (F(7), F(0))),   # staggered, overlap 1
        ((F(4), F(0)), (F(9), F(0))),   # point contact, overlap 0
        ((F(-2), F(0)), (F(-1), F(0))),  # disjoint, overlap 0
    ]
    for e2 in partners:
        ov = overlap_length(e1, e2)
        for k in range(1, 31):
            h = F(1, 2**k)
            up = tuple((p[0], p[1] + h) for p in e2)
            down = tuple((p[0], p[1] - h) for p in e2)
            assert ord_value(e1, up) == ov
            assert ord_value(e1, down) == -ov


def test_ord_perpendicular_projects_to_zero():
    e1 = ((F(0), F(0)), (F(4), F(0)))
    e2 = ((F(2), F(-1)), (F(2), F(3)))
    assert ord_value(e1, e2).is_zero


def test_continuity_spot_check():
    # rotating the partner slightly moves ord only slightly
    e1 = ((F(0), F(0)), (F(4), F(0)))
    e2 = ((F(1), F(1)), (F(3), F(1)))
    base = float(ord_value(e1, e2))
    prev = None
    for h in (F(1, 10), F(1, 100), F(1, 1000)):
        tilted = ((e2[0][0], e2[0][1] - h), (e2[1][0], e2[1][1] + h))
        dev = abs(float(ord_value(e1, tilted)) - base)
        if prev is not None:
            assert dev <= prev + 1e-15
        prev = dev
    assert prev < 1e-2


def test_overlap_length_examples():
    e1 = ((F(0), F(0)), (F(4), F(0)))
    assert overlap_length(e1, ((F(1), F(0)), (F(3), F(0)))) == 2
    assert overlap_length(e1, ((F(3), F(0)), (F(9), F(0)))) == 1
    assert overlap_length(e1, ((F(4), F(0)), (F(9), F(0)))).is_zero
    assert overlap_length(e1, ((F(1), F(1)), (F(3), F(1)))).is_zero
    assert overlap_length(e1, ((F(1), F(0)), (F(3), F(1)))).is_zero
    p = (F(2), F(0))
    assert overlap_length(e1, (p, p)).is_zero
    assert overlap_length((p, p), e1).is_zero


def test_overlap_length_symmetric():
    rng = random.Random(16)
    hits = 0
    for _ in range(300):
        e1 = rseg(rng)
        d = (e1[1][0] - e1[0][0], e1[1][1] - e1[0][1])
        t1, t2 = F(rng.randint(-4, 8), 4), F(rng.randint(-4, 8), 4)
        if t1 == t2:
            continue
        e2 = ((e1[0][0] + t1 * d[0], e1[0][1] + t1 * d[1]),
              (e1[0][0] + t2 * d[0], e1[0][1] + t2 * d[1]))
        a = overlap_length(e1, e2)
        b = overlap_length(e2, e1)
        assert a == b
        hits += not a.is_zero
    assert hits > 50


def test_annotation_matrix_validation():
    z = SqrtRational(0)
    AnnotationMatrix(((z,),))
    with pytest.raises(AnnotationError):
        AnnotationMatrix(((z, z),))
    with pytest.raises(AnnotationError):
        AnnotationMatrix.from_rows([[1]])
    m = AnnotationMatrix.from_rows([[0, 2], [-2, 0]])
    assert m.n == 2
    assert m.value(0, 1) == 2
    assert m.value(1, 0) == -2


def test_annotate_needs_exact_configuration():
    L = mk_linkage([("e1", "a", "b", 1)])
    slack = Configuration(L, {"a": (0, 0), "b": (F(11, 10), 0)}, F(1, 10))
    with pytest.raises(LinkageError):
        annotate(L, slack)


def test_annotate_straight_chain_and_cluster():
    L, C = straight_chain(1, 1)
    A = annotate(L, C)
    assert A.n == 2
    assert A.value(0, 1).is_zero and A.value(1, 0).is_zero

    L, C, A = zero_cluster_star()
    i5, i6 = L.edge_index("e5"), L.edge_index("e6")
    # the two lower spokes lean across each other's left/right half-planes
    assert A.value(i5, i6) == F(7, 25)
    assert A.value(i6, i5) == F(-7, 25)
    for i in range(A.n):
        for j in range(A.n):
            if {i, j} != {i5, i6}:
                assert A.value(i, j).is_zero

    # two bars overlapping along a line annotate to zero in the flat limit
    L = mk_linkage([("e1", "a", "b", 4), ("e2", "c", "d", 2)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (1, 0), "d": (3, 0)})
    A = annotate(L, C)
    assert A.value(0, 1).is_zero


def test_annotate_side_values():
    L = mk_linkage([("e1", "a", "b", 4), ("e2", "c", "d", 2)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (1, 1), "d": (3, 1)})
    A = annotate(L, C)
    assert A.value(0, 1) == 2  # partner runs fully on the left
    assert A.value(1, 0) == -2  # and sees the long bar on its right


def test_overlapping_pairs_matches_reference():
    # same pairs, same values, same row-major order as the n-squared filter
    rng = random.Random(17)
    cases = [[C.segment(e) for e in L.edges] for _, L, C, _ in corpus_geometries()]
    for _ in range(150):
        L, C, _ = random_layered_flat(rng, rng.randint(1, 12))
        cases.append([C.segment(e) for e in L.edges])
    for _ in range(400):
        L, P, _ = random_sa_instance(rng)
        cases.append([(P[e.tail], P[e.head]) for e in L.edges])
    hits = 0
    for segs in cases:
        got = segments_configuration(segs).lines().overlaps
        assert list(got.items()) == list(reference_overlapping_pairs(segs).items())
        hits += bool(got)
    assert hits >= 200


def test_overlapping_pairs_fields_match_fraction_path():
    # the line index gives, field by field and in both orders, the
    # (coeff, radicand) pair overlap_length builds on the input's
    # Fractions, on rational segments and on their integer lattice images
    # alike, so a stray int division (a float) or a rescaled radicand
    # shows here
    rng = random.Random(18)
    cases = []
    for _ in range(60):
        L, C, _ = random_layered_flat(rng, rng.randint(2, 12))
        cases.append([C.segment(e) for e in L.edges])
    for _ in range(60):
        # collinear bars on a line whose direction has an irrational length
        d = (rng.randint(1, 5), rng.randint(-5, 5))
        o = (F(rng.randint(-9, 9), rng.randint(1, 7)), F(rng.randint(-9, 9), 3))
        ts = [F(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(12)]
        cases.append(
            [
                tuple((o[0] + t * d[0], o[1] + t * d[1]) for t in ts[k : k + 2])
                for k in range(0, 12, 2)
                if ts[k] != ts[k + 1]
            ]
        )
    checked = folded = 0
    for segs in cases:
        images = lattice(p for s in segs for p in s)[1]
        isegs = list(zip(images[::2], images[1::2]))
        fsegs = [tuple((F(x), F(y)) for x, y in s) for s in isegs]
        for inputs, exact in ((segs, segs), (isegs, fsegs)):
            got = segments_configuration(inputs).lines().overlaps
            want = reference_overlapping_pairs(exact)
            assert list(got) == list(want)
            for key, v in got.items():
                w = want[key]
                assert type(v.coeff) is type(v.radicand) is Fraction
                assert (v.coeff, v.radicand) == (w.coeff, w.radicand), key
                checked += 1
                folded += v.radicand == 1
    assert checked >= 500 and 0 < folded < checked


def test_annotation_matrix_overrides_over_defaults():
    L = mk_linkage([("e1", "a", "b", 4), ("e2", "c", "d", 2), ("e3", "p", "q", 1)])
    C = conf(L, {"a": (0, 0), "b": (4, 0), "c": (1, 1), "d": (3, 1),
                 "p": (1, 0), "q": (2, 0)})
    segs = [C.segment(e) for e in L.edges]
    dense = AnnotationMatrix(
        tuple(
            tuple(SqrtRational(0) if i == j else ord_value(segs[i], segs[j])
                  for j in range(3))
            for i in range(3)
        )
    )
    A = annotate(L, C)
    assert A.overrides == {} and A.lines is C.lines()
    assert A == dense and A.entries == dense.entries and hash(A) == hash(dense)
    B = AnnotationMatrix.from_configuration(C, {(0, 2): SqrtRational(-1)})
    assert B.value(0, 2) == -1 and B.value(2, 0) == A.value(2, 0)
    assert B != A
    assert B.entries[0] == (0, 2, -1)
    assert C.lines().overlaps == {(0, 2): 1, (2, 0): 1}
    assert B.lines is C.lines()  # kept, not rescanned
    with pytest.raises(AnnotationError):
        AnnotationMatrix.from_configuration(C, {(1, 1): SqrtRational(1)})
    # an int override counts an overlapping pair's steps, and only such a
    # pair has them; a value of the pair's magnitude is kept as its count
    # and read back as given
    steps = AnnotationMatrix.from_configuration(C, {(0, 2): -1, (2, 0): SqrtRational(1)})
    assert steps.value(0, 2) == -1 and steps.overrides == {(0, 2): -1, (2, 0): 1}
    assert B.overrides == {(0, 2): -1} and steps.value(2, 0) == 1
    assert (steps.sign(0, 2), steps.sign(2, 0), steps.sign(0, 1)) == (-1, 1, 1)
    wrong = AnnotationMatrix.from_configuration(C, {(2, 0): SqrtRational(2)})
    assert wrong.overrides == {(2, 0): SqrtRational(2)} and wrong.sign(2, 0) == 1
    root2 = SqrtRational(F(1, 2), 4)  # 1, in other fields
    kept = AnnotationMatrix.from_configuration(C, {(2, 0): root2}).value(2, 0)
    assert kept is root2
    with pytest.raises(AnnotationError, match="non-overlapping"):
        AnnotationMatrix.from_configuration(C, {(0, 1): 1})


def _spiral(n, frame):
    """Nested n-bar spiral strip, every pair of bars overlapping, placed
    along a direction of any length with slack to match."""
    xs = [0]
    for k, length in enumerate(range(2 * n, n, -1)):
        xs.append(xs[-1] + (length if k % 2 == 0 else -length))
    L, C, _ = layered_strip(xs, hinged=n % 2 == 1)
    (dx, dy, nm), (ox, oy) = frame
    P = {v: (ox + x * F(dx, nm), oy + x * F(dy, nm)) for v, (x, _) in C.placement.items()}
    return L, Configuration(L, P, big_eps(L, P))


def _same_fields(v, w, key):
    assert (v.coeff, v.radicand) == (w.coeff, w.radicand), key
    assert format_annotation_value(v) == format_annotation_value(w), key


def test_line_index_matches_oracles():
    # lines, bars, stations, overlaps and defaults agree, field by field
    # and in order, with the builders the index replaced and with
    # ord_value on the input's Fractions, on corpus documents, random
    # flats and contacts, and spirals on lines whose direction has an
    # irrational length
    rng = random.Random(2027)
    cases = sweep_inputs(rng, flats=60, contacts=60)
    cases += [(L, C) for _, L, C, _ in corpus_geometries() if C.epsilon != 0]
    for n in (3, 8, 17):
        for frame in (((1, 2, 1), (F(1, 2), 1)), ((2, -3, 3), (0, F(-1, 7)))):
            cases.append(_spiral(n, frame))
    irrational = 0
    for L, C in cases:
        index = C.lines()
        images = C.lattice()
        isegs = [(images[e.tail], images[e.head]) for e in L.edges]
        assert index.segments == isegs
        assert index.line_of == [canonical_line(a, b) if a != b else None for a, b in isegs]
        groups = bars_by_line(isegs)
        assert list(index.bars.items()) == list(groups.items())
        stations = stations_by_line(groups, set(images.values()))
        assert index.stations == {
            line: ([s for s, _ in st], [p for _, p in st]) for line, st in stations.items()
        }
        segs = [C.segment(e) for e in L.edges]
        want = overlapping_pairs(segs)
        swept = reference_line_overlaps(isegs, lattice(C.placement.values())[0])
        assert list(index.overlaps) == list(want) == list(swept) == list(index.steps)
        for key, v in index.overlaps.items():
            _same_fields(v, want[key], key)
            _same_fields(v, swept[key], key)
            irrational += v.radicand != 1
        A = AnnotationMatrix.from_configuration(C)
        for i in range(len(segs)):
            for j in range(len(segs)):
                want = SqrtRational(0) if i == j else ord_value(segs[i], segs[j])
                _same_fields(A.value(i, j), want, (i, j))
    assert irrational >= 500


def _near(rng, x, den):
    return x + F(rng.randint(-den, den), den)


def test_ord_value_sign_on_lattice_images_huge_denominators():
    # e2 is e1 moved by a few units of 1/den along and across it, maybe
    # reversed or turned: the sign on the lattice images D*p is the sign
    # on the Fractions, and the Fraction value is the old division body's
    rng = random.Random(19)
    signs = {-1: 0, 0: 0, 1: 0}
    for k in range(400):
        den = 10**12 + rng.randint(0, 999) if k % 2 else 10**400 + rng.randint(0, 999)
        dx, dy, _ = rng.choice(RATIONAL_DIRS)
        t1 = (_near(rng, F(rng.randint(-5, 5)), den), _near(rng, F(1, 3), den))
        h1 = (t1[0] + dx * F(rng.randint(1, 4), 3), t1[1] + dy * F(rng.randint(1, 4), 3))
        u, w = rng.randint(-3, 3), rng.choice([-2, -1, 0, 0, 1, 2])
        shift = (F(u * dx - w * dy, den), F(u * dy + w * dx, den))
        t2 = (t1[0] + shift[0], t1[1] + shift[1])
        h2 = (h1[0] + shift[0], h1[1] + shift[1])
        if rng.random() < 0.3:
            h2 = (_near(rng, h2[0], den), _near(rng, h2[1], den))
        e1, e2 = (t1, h1), ((h2, t2) if rng.random() < 0.5 else (t2, h2))
        v, ref = ord_value(e1, e2), reference_ord_value(e1, e2)
        assert (v.coeff, v.radicand) == (ref.coeff, ref.radicand)
        images = lattice((*e1, *e2))[1]
        assert ord_value(tuple(images[:2]), tuple(images[2:])).sign() == v.sign()
        assert ord_sign(tuple(images[:2]), tuple(images[2:])) == v.sign()
        signs[v.sign()] += 1
    assert min(signs.values()) >= 40, signs


def _random_entries(rng, L, C):
    """Sparse entries on (L, C): layer entries, value entries of the right
    magnitude in the index's fields or others, of a wrong magnitude, and
    on non-overlapping pairs; some pairs listed twice or both ways, and
    now and then an entry resolve rejects."""
    segs = [C.segment(e) for e in L.edges]
    overlaps = reference_overlapping_pairs(segs)
    ids = [e.id for e in L.edges]
    entries = []
    for (i, j), ov in overlaps.items():
        kind = rng.randrange(7)
        if kind == 0:
            continue
        if kind <= 2:
            entries.append(SparseAnnotation(ids[i], ids[j], layer=rng.choice((1, -1))))
            continue
        v = ov.scale(rng.choice((1, -1)))
        if kind == 4 and v.radicand != 1:
            v = SqrtRational(v.coeff / 2, v.radicand * 4)  # same value, other fields
        elif kind == 5:
            v = rng.choice((v.scale(2), v.scale(F(1, 3)), SqrtRational(0), -v.scale(3)))
        elif kind == 6:
            v = SqrtRational(v.coeff, v.radicand * 2)
        entries.append(SparseAnnotation(ids[i], ids[j], value=v))
    for _ in range(rng.randint(0, 3)):
        if len(ids) > 1:
            i, j = rng.sample(range(len(ids)), 2)
            if (i, j) not in overlaps:
                v = reference_ord_value(segs[i], segs[j])
                v = v if rng.random() < 0.5 else v + SqrtRational(F(1, 5))
                entries.append(SparseAnnotation(ids[i], ids[j], value=v))
            if rng.random() < 0.1:  # rejected unless the pair overlaps
                entries.append(SparseAnnotation(ids[i], ids[j], layer=1))
    if ids and rng.random() < 0.05:
        entries.append(SparseAnnotation(ids[0], rng.choice((ids[0], "nowhere")), layer=1))
    if entries and rng.random() < 0.3:
        entries.append(rng.choice(entries))
    rng.shuffle(entries)
    return tuple(entries)


def _irrational_spirals():
    return [
        _spiral(n, frame)
        for n in (3, 8, 17)
        for frame in (((1, 2, 1), (F(1, 2), 1)), ((2, -3, 3), (0, F(-1, 7))))
    ]


def test_resolve_annotations_matches_oracle(monkeypatch):
    # every entry of the resolved matrix has the fields and the text of
    # the SqrtRational the old resolve_annotations stored or read, and
    # the well-annotated check, the layerings and validation agree with
    # the dense oracle: layer entries, value entries of the right
    # magnitude in other fields, wrong magnitudes and non-overlapping
    # pairs alike. Bars on a line whose |u|^2 is no square have
    # irrational lengths, so such spirals carry slack; resolve runs on
    # them with its exactness precondition lifted, and validate only on
    # exact inputs
    rng = random.Random(2121)
    cases = [(L, C, None) for L, C in sweep_inputs(rng, flats=40, contacts=40)]
    cases += [random_layered_fan(rng)[:2] + (None,) for _ in range(25)]
    cases += [(L, C, None) for L, C in _irrational_spirals()]
    for path in sorted(DOCS_DIR.glob("*.json")):
        doc = parse_linkage_file(path.read_text(encoding="utf-8"))
        if doc.configuration is not None and doc.configuration.is_exact():
            cases.append((doc.linkage, doc.configuration, doc.annotations))
    for module in (linkfold.document, helpers):
        monkeypatch.setattr(module, "require_conf0", lambda configuration: None)
    outcomes = {"pass": 0, "fail": 0, "error": 0, "irrational": 0}
    for L, C, sparse in cases:
        for entries in (sparse, _random_entries(rng, L, C)):
            if entries is None:
                continue
            C = Configuration(L, C.placement, C.epsilon)  # a fresh line index
            try:
                want = reference_resolve_annotations(L, C, entries)
            except DocumentError as exc:
                with pytest.raises(DocumentError) as caught:
                    resolve_annotations(L, C, entries)
                assert (str(caught.value), caught.value.path) == (str(exc), exc.path)
                outcomes["error"] += 1
                continue
            got = resolve_annotations(L, C, entries)
            for i, row in enumerate(want.entries):
                for j, w in enumerate(row):
                    _same_fields(got.value(i, j), w, (i, j))
            report = check_well_annotated(L, C, got)
            assert report == reference_check_well_annotated(L, C, want)
            index = C.lines()
            for line in index.bars:
                assert line_layering(index, got, line) == line_layering(index, want, line)
            if C.epsilon == 0:
                assert validate(L, C, got) == validate(L, C, want)
            outcomes[report.status] += 1
            outcomes["irrational"] += any(
                w.radicand not in (0, 1) for row in want.entries for w in row
            )
    assert min(outcomes.values()) >= 6 and outcomes["pass"] >= 20, outcomes


def test_resolve_and_validate_build_no_sqrt_rational(monkeypatch):
    # a 16-bar nested spiral annotated by layers only: the line index,
    # resolve_annotations and all four checks run on ints and signs
    for frame in (((1, 0, 1), (0, 0)), ((3, 4, 5), (F(1, 2), 1))):
        L, C = _spiral(16, frame)
        C = Configuration(L, C.placement)
        heights = {e.id: k for k, e in enumerate(L.edges)}
        entries = layer_entries(L, C, heights)
        built = []
        init, normal = SqrtRational.__init__, SqrtRational._normal.__func__

        def counted_init(self, *args):
            built.append(args)
            init(self, *args)

        def counted_normal(cls, *args):
            built.append(args)
            return normal(cls, *args)

        monkeypatch.setattr(SqrtRational, "__init__", counted_init)
        monkeypatch.setattr(SqrtRational, "_normal", classmethod(counted_normal))
        A = resolve_annotations(L, C, entries)
        assert validate(L, C, A).ok
        assert built == []
        monkeypatch.undo()
        assert len(C.lines().steps) == 16 * 15

"""Constraint emission, SMT serialization, and exact evaluation."""

import random
from fractions import Fraction as F

import pytest

from helpers import (
    assignment_of,
    big_eps,
    mk_linkage,
    nontouch_oracle,
    poly_add,
    poly_const,
    poly_mul,
    poly_sub,
    poly_var,
    random_linkage,
    random_sa_instance,
    random_zero_linkage,
    reference_emit_conf,
    reference_emit_nconf,
    straight_chain,
)
from linkfold.errors import LinkageError
from linkfold.linkage import (
    Configuration,
    configuration_membership,
    is_nontouching,
)
from linkfold.semialgebra import (
    MAX_NESTING,
    And,
    Atom,
    ConstraintSystem,
    Not,
    Or,
    Poly,
    TaggedAssert,
    emit_conf,
    emit_nconf,
    eval_system,
    parse_constraints,
    serialize,
)


def test_emit_conf_single_bar_exact():
    L = mk_linkage([("e1", "a", "b", 1)])
    S = emit_conf(L, 0)
    assert S.variables == ("x_a", "y_a", "x_b", "y_b")
    assert len(S.asserts) == 1
    ta = S.asserts[0]
    assert ta.family == "length:e1"
    assert isinstance(ta.node, Atom) and ta.node.op == "="


def test_emit_conf_band_pair():
    L = mk_linkage([("e1", "a", "b", 1), ("e2", "b", "c", 2)])
    S = emit_conf(L, F(1, 10))
    assert len(S.asserts) == 4
    fams = [ta.family for ta in S.asserts]
    assert fams == [
        "length-upper:e1",
        "length-lower:e1",
        "length-upper:e2",
        "length-lower:e2",
    ]
    ops = [ta.node.op for ta in S.asserts]
    assert ops == ["<=", ">=", "<=", ">="]


def test_emit_conf_short_bar_guard():
    # rest below the slack: the lower band floor is zero, no constraint
    L = mk_linkage([("e1", "a", "b", F(1, 20))])
    S = emit_conf(L, F(1, 10))
    assert [ta.family for ta in S.asserts] == ["length-upper:e1"]

    with pytest.raises(LinkageError):
        emit_conf(L, F(-1, 10))


def test_emit_nconf_single_bar_no_pairs():
    L = mk_linkage([("e1", "a", "b", 1)])
    assert emit_nconf(L, 0) == emit_conf(L, 0)


def test_eval_unit_bar():
    L = mk_linkage([("e1", "a", "b", 1)])
    S = emit_conf(L, 0)
    good = eval_system(S, assignment_of({"a": (0, 0), "b": (1, 0)}))
    assert good.ok and good.failures == ()
    bad = eval_system(S, assignment_of({"a": (0, 0), "b": (2, 0)}))
    assert not bad.ok
    assert bad.failures == ("length:e1",)
    with pytest.raises(LinkageError):
        eval_system(S, {"x_a": 0, "y_a": 0, "x_b": 1})


def test_eval_adjacent_bars_shared_vertex():
    L = mk_linkage([("e1", "a", "b", 1), ("e2", "b", "c", 1)])
    S = emit_nconf(L, 0)
    straight = assignment_of({"a": (0, 0), "b": (1, 0), "c": (2, 0)})
    assert eval_system(S, straight).ok
    bent = assignment_of({"a": (0, 0), "b": (1, 0), "c": (1, 1)})
    assert eval_system(S, bent).ok
    folded = assignment_of({"a": (0, 0), "b": (1, 0), "c": (0, 0)})
    assert not eval_system(S, folded).ok


def test_eval_disjoint_bars_crossing():
    L = mk_linkage([("e1", "a", "b", 2), ("e2", "c", "d", 2)])
    S = emit_nconf(L, 0)
    crossing = assignment_of(
        {"a": (0, 0), "b": (2, 0), "c": (1, -1), "d": (1, 1)}
    )
    rep = eval_system(S, crossing)
    assert not rep.ok
    assert "apart:e1:e2" in rep.failures
    apart = assignment_of({"a": (0, 0), "b": (2, 0), "c": (0, 1), "d": (2, 1)})
    assert eval_system(S, apart).ok


def test_eval_collapsed_bars():
    # two zero bars may share the plane but not the point
    L = mk_linkage([("z1", "a", "b", 0), ("z2", "c", "d", 0)])
    S = emit_nconf(L, 0)
    apart = assignment_of({"a": (0, 0), "b": (0, 0), "c": (1, 0), "d": (1, 0)})
    assert eval_system(S, apart).ok
    merged = assignment_of({"a": (0, 0), "b": (0, 0), "c": (0, 0), "d": (0, 0)})
    assert not eval_system(S, merged).ok

    # a zero path between them legalizes the shared point
    L2 = mk_linkage(
        [("z1", "a", "b", 0), ("z2", "c", "d", 0), ("z3", "b", "c", 0)]
    )
    S2 = emit_nconf(L2, 0)
    merged2 = assignment_of(
        {"a": (0, 0), "b": (0, 0), "c": (0, 0), "d": (0, 0)}
    )
    assert eval_system(S2, merged2).ok


def test_isolated_vertex_constraints():
    L = mk_linkage([("e1", "a", "b", 2)], vertices=("a", "b", "w"))
    S = emit_nconf(L, 0)
    fams = {ta.family for ta in S.asserts}
    assert "apart-vertex:w:a" in fams
    assert "clear:w:e1" in fams
    clear = assignment_of({"a": (0, 0), "b": (2, 0), "w": (0, 1)})
    assert eval_system(S, clear).ok
    inside = assignment_of({"a": (0, 0), "b": (2, 0), "w": (1, 0)})
    assert not eval_system(S, inside).ok
    stacked = assignment_of({"a": (0, 0), "b": (2, 0), "w": (2, 0)})
    assert not eval_system(S, stacked).ok


def test_serialize_empty_and_single():
    empty = mk_linkage([], vertices=())
    text = serialize(emit_conf(empty, 0))
    lines = text.splitlines()
    assert lines[0] == "(set-logic QF_NRA)"
    assert lines[-1] == "(check-sat)"
    assert not any(l.startswith("(assert") for l in lines)
    assert not any(l.startswith("(declare-const") for l in lines)

    L = mk_linkage([("e1", "a", "b", 1)])
    text = serialize(emit_conf(L, 0))
    asserts = [l for l in text.splitlines() if l.startswith("(assert")]
    assert len(asserts) == 1
    assert asserts[0].startswith("(assert (= ")
    # deterministic output
    assert text == serialize(emit_conf(L, 0))


def test_serialize_fraction_literals():
    L = mk_linkage([("e1", "a", "b", F(1, 3))])
    text = serialize(emit_conf(L, F(1, 10)))
    assert "(/ " in text
    assert "." not in text.replace("length-upper", "").replace(
        "length-lower", ""
    )


def test_parse_round_trip_corpus():
    rng = random.Random(31)
    for _ in range(40):
        if rng.random() < 0.5:
            L, _ = random_linkage(rng, 2, 5)
        else:
            L, _ = random_zero_linkage(rng)
        eps = rng.choice([F(0), F(1, 10), F(1, 4)])
        for S in (emit_conf(L, eps), emit_nconf(L, eps)):
            text = serialize(S)
            back = parse_constraints(text)
            assert back == S
            assert serialize(back) == text


def test_parse_quoted_symbols():
    L = mk_linkage([("e1", "p-1", "q r", 1)])
    S = emit_conf(L, 0)
    text = serialize(S)
    assert "|x_q r|" in text
    assert parse_constraints(text) == S
    # families are read back verbatim, edge whitespace included
    L = mk_linkage([("e1 ", "a", "b", 1), (" e2", "b", "c", 2)])
    for S in (emit_conf(L, 0), emit_nconf(L, 0)):
        assert {"length:e1 ", "length: e2"} <= {ta.family for ta in S.asserts}
        assert parse_constraints(serialize(S)) == S


def test_serialize_rejects_line_break_families():
    # a line break would end the "; family:" comment and leave the rest
    # of the id as live SMT
    for eid in ("e\n(assert false)", "e\r(assert false)"):
        L = mk_linkage([(eid, "a", "b", 1)])
        for S in (emit_conf(L, 0), emit_nconf(L, 0)):
            with pytest.raises(LinkageError):
                serialize(S)
    # isolated vertex ids reach families too
    L = mk_linkage([("e1", "a", "b", 1)], vertices=("a", "b", "w\n"))
    with pytest.raises(LinkageError):
        serialize(emit_nconf(L, 0))
    # elsewhere quoting keeps them harmless
    L = mk_linkage([("e1", "a", "b\nc", 1)])
    S = emit_nconf(L, 0)
    assert parse_constraints(serialize(S)) == S


def _atoms(node):
    if isinstance(node, Atom):
        yield node
    elif isinstance(node, Not):
        yield from _atoms(node.item)
    else:
        for k in node.items:
            yield from _atoms(k)


def _polys(system):
    return [a.poly for ta in system.asserts for a in _atoms(ta.node)]


def test_parse_shares_one_poly_per_text():
    rng = random.Random(97)
    for _ in range(20):
        if rng.random() < 0.5:
            L, _ = random_linkage(rng, 2, 5)
        else:
            L, _ = random_zero_linkage(rng)
        eps = rng.choice([F(0), F(1, 10)])
        for S in (emit_conf(L, eps), emit_nconf(L, eps)):
            polys = _polys(parse_constraints(serialize(S)))
            # equal polynomials have equal texts, so one object per value
            assert len({id(p) for p in polys}) == len(set(polys))
            assert set(polys) == set(_polys(S))


def test_parse_builds_each_poly_text_once(monkeypatch):
    L = straight_chain(*[1] * 16)[0]
    S = emit_nconf(L, F(1, 10))
    text = serialize(S)
    calls = [0]
    norm = Poly._norm

    def counted(data):
        calls[0] += 1
        return norm(data)

    monkeypatch.setattr(Poly, "_norm", staticmethod(counted))
    assert parse_constraints(text) == S
    texts = len(set(_polys(S)))
    assert texts < len(_polys(S))
    assert calls[0] == texts


def test_poly_has_no_arithmetic():
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "const", "var"):
        assert not hasattr(Poly, name), name


@pytest.mark.parametrize(
    "text",
    [
        "(assert (> x 0)",
        "(assert)",
        "(assert (> x))",
        "(assert (> (/ 1) 0))",
        "(declare-const)",
        "(assert (> (/ 1 0) 0))",
        "(assert " + "(not " * 5000 + "true" + ")" * 5001,
        "(assert (> (* (+ x 1) y) 0))",
        "(assert (> " + "9" * 5000 + " 0))",
        ")",
        "(declare-const |x Real)",
    ],
    ids=[
        "truncated",
        "empty-assert",
        "atom-arity",
        "ratio-arity",
        "empty-declare",
        "zero-denominator",
        "deep-nesting",
        "nested-product",
        "long-integer",
        "stray-close",
        "open-quote",
    ],
)
def test_parse_malformed_raises_linkage_error(text):
    with pytest.raises(LinkageError):
        parse_constraints(text)


def test_parse_nesting_limit():
    node = "true"
    for _ in range(MAX_NESTING - 1):
        node = f"(not {node})"
    assert len(parse_constraints(f"(assert {node})").asserts) == 1
    with pytest.raises(LinkageError):
        parse_constraints(f"(assert (not {node}))")


def test_emitter_matches_reference_random():
    rng = random.Random(2718)
    kinds = {"zero": 0, "shared": 0, "isolated": 0, "square": 0}
    for k in range(200):
        if k % 2:
            L, _ = random_linkage(rng, 2, 4)
        else:
            L, _ = random_zero_linkage(rng)
        specs = [(e.id, e.tail, e.head, e.rest_length) for e in L.edges]
        vertices = L.vertices
        if rng.random() < 0.25:
            vertices += tuple(f"w{i}" for i in range(rng.randint(1, 2)))
            kinds["isolated"] += 1
        if rng.random() < 0.25:
            # a zero-length square: two shortest paths to its far corner,
            # so the emitted allowance depends on which one BFS picks
            a = rng.choice(L.vertices)
            corners = (a, "q1", "q2", "q3")
            vertices += corners[1:]
            for i in range(4):
                specs.append((f"qe{i}", corners[i], corners[(i + 1) % 4], 0))
            kinds["square"] += 1
        L = mk_linkage(specs, vertices=vertices)
        ends = [v for e in L.edges for v in (e.tail, e.head)]
        kinds["shared"] += len(set(ends)) < len(ends)
        kinds["zero"] += any(e.rest_length == 0 for e in L.edges)
        eps = rng.choice([F(0), F(1, 10), F(1, 4)])
        assert serialize(emit_conf(L, eps)) == serialize(reference_emit_conf(L, eps))
        S = emit_nconf(L, eps)
        assert serialize(S) == serialize(reference_emit_nconf(L, eps))
    assert min(kinds.values()) >= 30, kinds


def test_eval_shared_and_parsed_polys_agree():
    # emitted systems share Poly objects through the emitter's caches,
    # parsed ones through the reader's memo by polynomial text; eval's
    # per-object memo must give the same verdicts on both
    rng = random.Random(4242)
    for _ in range(60):
        L, P, eps = random_sa_instance(rng)
        asg = assignment_of(P)
        for S in (emit_conf(L, eps), emit_nconf(L, eps)):
            back = parse_constraints(serialize(S))
            assert eval_system(back, asg) == eval_system(S, asg)


def test_eval_integer_scaling_mixed_degrees():
    x, y, z = poly_var("x"), poly_var("y"), poly_var("z")
    half = poly_const(F(1, 2))
    # x^3 - x/4 + y*z - 1/3 vanishes at x = 1/2, y = 2/3, z = 1/2;
    # dropping the D^(g - deg m) weights would not
    cubic = poly_sub(
        poly_add(
            poly_sub(
                poly_mul(poly_mul(x, x), x), poly_mul(poly_const(F(1, 4)), x)
            ),
            poly_mul(y, z),
        ),
        poly_const(F(1, 3)),
    )
    assert max(len(m) for m, _ in cubic.terms) == 3
    shared = poly_sub(poly_mul(y, z), half)
    S = ConstraintSystem(
        ("x", "y", "z"),
        (
            TaggedAssert("cubic-zero", Atom("=", cubic)),
            TaggedAssert("cubic-not-neg", Not(Atom("<", cubic))),
            TaggedAssert("shared-lt", Atom("<", shared)),
            TaggedAssert("shared-ge", Atom(">=", shared)),
            TaggedAssert("either", Or(And(Atom(">", x), Atom("<=", shared)))),
            TaggedAssert("const", Atom(">", poly_const(F(-1, 7)))),
        ),
    )
    asg = {"x": F(1, 2), "y": F(2, 3), "z": F(1, 2)}
    rep = eval_system(S, asg)
    assert rep.failures == ("shared-ge", "const")
    assert eval_system(parse_constraints(serialize(S)), asg) == rep
    # a second call with another assignment sees no stale values
    rep2 = eval_system(S, {"x": F(1), "y": F(3, 2), "z": 1})
    assert rep2.failures == ("cubic-zero", "shared-lt", "either", "const")


def test_oracle_equivalence_random():
    rng = random.Random(515)
    seen = {True: 0, False: 0}
    for _ in range(1000):
        L, P, eps = random_sa_instance(rng)
        asg = assignment_of(P)
        member = configuration_membership(L, P, eps)
        nt = nontouch_oracle(L, P)
        assert eval_system(emit_conf(L, eps), asg).ok == member
        got = eval_system(emit_nconf(L, eps), asg).ok
        assert got == (member and nt)
        seen[got] += 1
    assert seen[True] > 100 and seen[False] > 100


def test_conf_band_monotone():
    rng = random.Random(909)
    for _ in range(200):
        L, P, eps = random_sa_instance(rng)
        asg = assignment_of(P)
        if not eval_system(emit_conf(L, eps), asg).ok:
            continue
        wider = eps + rng.choice([F(1, 10), F(1, 2), F(3)])
        assert eval_system(emit_conf(L, wider), asg).ok

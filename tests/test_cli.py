"""CLI subcommands: exit codes, reports, and artifacts."""

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import (
    closed_chain_linkage,
    conf,
    count_calls,
    cyclic_gadget,
    doubled_chain,
    interleave_gadget,
    layer_entries,
    mk_linkage,
    random_layered_fan,
    straight_chain,
)
from linkfold.adornments import Adornment
import linkfold.cli as cli
from linkfold.chains import canonical_closed
from linkfold.cli import main
from linkfold.document import SparseAnnotation, parse_linkage_file, write_document
from linkfold.geometry import sqdist
from linkfold.linkage import is_nontouching
from linkfold.rationals import SqrtRational

REPO = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def valid_doubled_doc(tmp_path, name="good.json"):
    L, C, _ = doubled_chain()
    text = write_document(
        linkage=L,
        configuration=C,
        annotations=(SparseAnnotation("e1", "e2", layer=1),),
    )
    return write(tmp_path / name, text)


def zero_annotation_doc(tmp_path):
    L, C, _ = doubled_chain()
    text = write_document(
        linkage=L,
        configuration=C,
        annotations=(SparseAnnotation("e1", "e2", value=SqrtRational(F(0))),),
    )
    return write(tmp_path / "zero.json", text)


def cyclic_doc(tmp_path):
    L, C, A = cyclic_gadget()
    entries = []
    ids = [e.id for e in L.edges]
    for i, first in enumerate(ids):
        for j, second in enumerate(ids):
            if i != j:
                entries.append(
                    SparseAnnotation(first, second, value=A.entries[i][j])
                )
    text = write_document(linkage=L, configuration=C, annotations=tuple(entries))
    return write(tmp_path / "cyclic.json", text)


def interleave_doc(tmp_path):
    L, C, _ = interleave_gadget()
    ids = [e.id for e in L.edges]
    entries = tuple(
        SparseAnnotation(ids[i], ids[j], layer=1)
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    )
    text = write_document(linkage=L, configuration=C, annotations=entries)
    return write(tmp_path / "interleave.json", text)


def test_usage_errors(capsys):
    code, _, _ = run(capsys)
    assert code == 64
    code, _, err = run(capsys, "frobnicate")
    assert code == 64
    code, _, err = run(capsys, "validate", "x.json", "--frob")
    assert code == 64
    assert "usage error" in err
    code, _, _ = run(capsys, "perturb", "x.json")  # missing --delta
    assert code == 64


def test_count_flags_must_be_positive(capsys, tmp_path):
    doc = valid_doubled_doc(tmp_path)
    a = square_doc(tmp_path, 1, "sq1.json")
    b = square_doc(tmp_path, F(11, 10), "sq2.json")
    for argv in (
        ("perturb", doc, "--delta", "1/10", "--sweep", "-2"),
        ("perturb", doc, "--delta", "1/10", "--sweep", "0"),
        ("perturb", doc, "--delta", "1/10", "--sweep", "two"),
        ("interpolate", a, b, "--steps", "-3"),
        ("interpolate", a, b, "--steps", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err.splitlines()[-1] == (
            f"usage error: argument {argv[-2]}: "
            f"expected a positive integer, got {argv[-1]!r}"
        )
    code, out, _ = run(capsys, "interpolate", a, b, "--steps", "1")
    assert code == 0 and len(parse_linkage_file(out).frames) == 2


def test_parser_built_once(capsys, tmp_path):
    cli._build_parser.cache_clear()
    doc = valid_doubled_doc(tmp_path)
    assert run(capsys, "validate", doc)[0] == 0
    code, _, err = run(capsys, "validate", doc, "--frob")
    assert code == 64 and "usage error" in err
    code, out, _ = run(capsys, "annotate", doc)
    assert code == 0 and json.loads(out)
    assert cli._build_parser.cache_info().misses == 1


def test_validate_pass(capsys, tmp_path):
    doc = valid_doubled_doc(tmp_path)
    code, out, err = run(capsys, "validate", doc)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert [c["status"] for c in report["checks"]] == ["pass"] * 4
    assert "valid" in err


def test_validate_fail(capsys, tmp_path):
    doc = zero_annotation_doc(tmp_path)
    code, out, err = run(capsys, "validate", doc)
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False
    failed = {c["name"]: c for c in report["checks"] if c["status"] == "fail"}
    assert set(failed) == {"well-annotated"}
    assert failed["well-annotated"]["witness"] == ["e1", "e2"]
    assert "well-annotated" in err

    code, out, _ = run(capsys, "validate", cyclic_doc(tmp_path))
    assert code == 2
    report = json.loads(out)
    failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    assert failed == ["well-ordered"]


def test_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 1
    assert "io error" in err

    bad = write(tmp_path / "bad.json", '{"format": "linkfold/1", "epsilon": "1/0"}')
    code, _, err = run(capsys, "validate", bad)
    assert code == 1
    assert "$.epsilon" in err

    L, _ = straight_chain(1, 2)
    bare = write(tmp_path / "bare.json", write_document(linkage=L))
    code, _, err = run(capsys, "validate", bare)
    assert code == 1

    # an unhashable id is a document error, not a traceback
    listed = json.loads(Path(valid_doubled_doc(tmp_path)).read_text(encoding="utf-8"))
    listed["edges"][0]["id"] = ["e1"]
    listed = write(tmp_path / "listed.json", json.dumps(listed))
    for command in ("validate", "annotate", "render", "slender-check"):
        code, _, err = run(capsys, command, listed)
        assert code == 1
        assert err.strip() == "error: $.edges[0].id: ids must be strings"
    code, _, err = run(capsys, "perturb", listed, "--delta", "1/10")
    assert code == 1 and err.startswith("error: $.edges[0].id: ")


DANGLING = "edge e2: dangling endpoint"


@pytest.mark.parametrize(
    "vertices, edges, path, message",
    [
        ("abcb", [("e1", "a", "b")], "$.vertices[3].id", "duplicate vertex ids"),
        (
            "abc",
            [("e1", "a", "b"), ("e2", "b", "c"), ("e1", "a", "c")],
            "$.edges[2].id",
            "duplicate edge ids",
        ),
        ("abc", [("e1", "a", "b"), ("e2", "z", "c")], "$.edges[1].tail", DANGLING),
        ("abc", [("e1", "a", "b"), ("e2", "b", "z")], "$.edges[1].head", DANGLING),
    ],
    ids=["vertex-id", "edge-id", "tail", "head"],
)
def test_linkage_errors_name_their_element(
    capsys, tmp_path, vertices, edges, path, message
):
    # each used to be reported at $.edges, whichever element was at fault
    doc = {
        "format": "linkfold/1",
        "vertices": [{"id": v, "x": str(k), "y": "0"} for k, v in enumerate(vertices)],
        "edges": [{"id": e, "tail": t, "head": h, "length": "1"} for e, t, h in edges],
    }
    code, _, err = run(capsys, "validate", write(tmp_path / "doc.json", json.dumps(doc)))
    assert code == 1
    assert err.strip() == f"error: {path}: {message}"


def test_deeply_nested_json_is_a_document_error(capsys, tmp_path):
    # json.loads recurses per nesting level; past the interpreter's limit
    # the document is invalid JSON, reported at $ with exit 1
    deep = write(tmp_path / "deep.json", "[" * 200_000)
    for argv in (
        ("validate", deep),
        ("annotate", deep),
        ("corridors", deep),
        ("perturb", deep, "--delta", "1/10"),
        ("canonical", deep),
        ("interpolate", deep, deep),
        ("emit-sa", deep),
        ("slender-check", deep),
        ("render", deep),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: $: invalid JSON: maximum recursion depth"), argv
        assert err.count("\n") == 1, argv


def test_strict_flag(capsys, tmp_path):
    doc = valid_doubled_doc(tmp_path)
    loose = json.loads(open(doc).read())
    loose["junk"] = True
    path = write(tmp_path / "loose.json", json.dumps(loose))
    code, _, _ = run(capsys, "validate", path)
    assert code == 0
    code, _, err = run(capsys, "validate", path, "--strict")
    assert code == 1
    assert "$.junk" in err


def test_annotate(capsys, tmp_path):
    doc = valid_doubled_doc(tmp_path)
    code, out, err = run(capsys, "annotate", doc)
    assert code == 0
    report = json.loads(out)
    assert report["edges"] == ["e1", "e2"]
    assert len(report["matrix"]) == 2
    assert report["matrix"][0][0] == {"exact": "0", "approx": 0.0}
    assert "2 bars" in err


def test_corridors(capsys, tmp_path):
    doc = valid_doubled_doc(tmp_path)
    code, out, err = run(capsys, "corridors", doc)
    assert code == 0
    report = json.loads(out)
    assert report["delta_bound"] == "1/4"
    assert len(report["corridors"]) == 1
    cor = report["corridors"][0]
    assert cor["psi"] == {"e1": 0, "e2": 1}
    assert cor["bars"] == ["e1", "e2"]
    assert "1 corridor(s)" in err

    code, _, err = run(capsys, "corridors", cyclic_doc(tmp_path))
    assert code == 2
    assert "check failed" in err


def test_corridors_rejects_what_validate_rejects(capsys, tmp_path):
    # the reverse entry of an overlapping pair is read too: disagreeing
    # or zero, corridors fails as validate does; so does a consistent
    # layering whose magnitudes are not the overlap length
    L, C, _ = doubled_chain()
    above = SparseAnnotation("e1", "e2", layer=1)
    five = SqrtRational(5)
    cases = {
        "disagree": (
            (above, SparseAnnotation("e2", "e1", layer=-1)),
            "inconsistent layer order",
        ),
        "zero": (
            (above, SparseAnnotation("e2", "e1", value=SqrtRational(0))),
            "zero annotation between overlapping bars e1 and e2",
        ),
        "magnitude": (
            (SparseAnnotation("e1", "e2", value=five), SparseAnnotation("e2", "e1", value=five)),
            "well-annotated: entry magnitude differs from the overlap length, bars e1 and e2",
        ),
    }
    for name, (entries, message) in cases.items():
        text = write_document(linkage=L, configuration=C, annotations=entries)
        doc = write(tmp_path / f"{name}.json", text)
        code, _, _ = run(capsys, "validate", doc)
        assert code == 2, name
        code, out, err = run(capsys, "corridors", doc)
        assert code == 2 and out == "", name
        assert f"check failed: {message}" in err, name


def test_perturb_document(capsys, tmp_path):
    doc = valid_doubled_doc(tmp_path)
    out_path = tmp_path / "perturbed.json"
    code, out, err = run(
        capsys, "perturb", doc, "--delta", "1/10", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    result = parse_linkage_file(out_path.read_text(), strict=True)
    assert sorted(e.id for e in result.linkage.edges) == ["e1", "e2", "x0"]
    assert len(result.linkage.vertices) == 4
    assert result.extension_map is not None
    assert result.extension_map.extension_edges == ("x0",)
    assert result.epsilon == F(1, 5)  # slack = 2 * delta
    assert "delta=1/10" in err
    assert "corridor layers: e1:0, e2:1" in err


def test_perturb_sweep(capsys, tmp_path):
    doc = valid_doubled_doc(tmp_path)
    code, out, err = run(
        capsys, "perturb", doc, "--delta", "1/10", "--sweep", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["bound"] == "1/4"
    assert report["converging"] is True
    assert [e["delta"] for e in report["entries"]] == ["1/10", "1/40", "1/160"]
    assert all(e["attempts"] == 1 for e in report["entries"])
    assert "shrinks" in err


def test_perturb_and_render_an_isolated_vertex_inside_a_bar(capsys, tmp_path):
    L = mk_linkage([("e", "a", "b", 2)], vertices=("a", "b", "p"))
    C = conf(L, {"a": (0, 0), "b": (2, 0), "p": (1, 0)})
    doc = write(tmp_path / "inside.json", write_document(linkage=L, configuration=C))
    for delta in ("1/10", "1/1000", "1/1000000000"):
        out_path = tmp_path / "perturbed.json"
        code, _, err = run(capsys, "perturb", doc, "--delta", delta, "--out", str(out_path))
        assert code == 0, err
        result = parse_linkage_file(out_path.read_text())
        assert is_nontouching(result.linkage, result.configuration)
    code, out, err = run(capsys, "perturb", doc, "--delta", "1/10", "--sweep", "3")
    assert code == 0, err
    assert json.loads(out)["converging"] is True
    code, out, err = run(capsys, "render", doc, "--display-delta", "1/10")
    assert code == 0, err
    assert out.startswith("<svg")


def test_sweep_and_render_validate_once(capsys, tmp_path, monkeypatch):
    doc = valid_doubled_doc(tmp_path)
    validator = importlib.import_module("linkfold.validator")
    calls = count_calls(monkeypatch, validator, ["validate"])
    corridors = importlib.import_module("linkfold.corridors")
    bounds = count_calls(monkeypatch, corridors, ["delta_bound"])
    code, out, _ = run(capsys, "perturb", doc, "--delta", "1/10", "--sweep", "3")
    assert code == 0 and len(json.loads(out)["entries"]) == 3
    assert calls["validate"] == 1 and bounds["delta_bound"] == 1
    code, _, _ = run(capsys, "render", doc, "--display-delta", "1/20")
    assert code == 0
    assert calls["validate"] == 2 and bounds["delta_bound"] == 2
    code, _, _ = run(capsys, "render", doc, "--display-delta", "1/100")
    assert code == 0
    assert calls["validate"] == 3 and bounds["delta_bound"] == 3
    # the failure still names the failing checks and carries the verdict
    code, _, err = run(
        capsys, "render", zero_annotation_doc(tmp_path), "--display-delta", "1/20"
    )
    assert code == 2
    assert err.strip() == (
        "check failed: cannot render an invalid annotated configuration: "
        "well-annotated"
    )
    assert calls["validate"] == 4


def test_perturb_sweep_and_render_layer_each_line_once(capsys, tmp_path, monkeypatch):
    # perturb reads the layer heights off validate's verdict: each line is
    # layered once, inside validate, and no corridor is built
    L, C, heights = random_layered_fan(random.Random(2401))
    lines = len(C.lines().bars)
    assert lines >= 2
    text = write_document(
        linkage=L, configuration=C, annotations=layer_entries(L, C, heights)
    )
    doc = write(tmp_path / "fan.json", text)
    annotations = importlib.import_module("linkfold.annotations")
    corridors = importlib.import_module("linkfold.corridors")
    for argv in (
        ("perturb", doc, "--delta", "1/1000"),
        ("perturb", doc, "--delta", "1/1000", "--sweep", "3"),
        ("render", doc, "--display-delta", "1/1000"),
    ):
        layered = count_calls(monkeypatch, annotations, ["line_layering"])
        built = count_calls(monkeypatch, corridors, ["corridors", "corridor_order"])
        code, _, _ = run(capsys, *argv)
        monkeypatch.undo()
        assert code == 0, argv
        assert layered == {"line_layering": lines}, argv
        assert built == {"corridors": 0, "corridor_order": 0}, argv


def test_resolve_errors_name_the_entry(capsys, tmp_path):
    L, C, _ = doubled_chain()
    layer = SparseAnnotation("e1", "e2", layer=1)
    unknown = SparseAnnotation("nope", "e2", layer=1)
    diagonal = SparseAnnotation("e2", "e2", value=SqrtRational(0))
    for bad, message in (
        (unknown, "annotation names unknown edge 'nope'/'e2'"),
        (diagonal, "annotation on the diagonal"),
    ):
        doc = write(
            tmp_path / "bad.json",
            write_document(linkage=L, configuration=C, annotations=(layer, bad)),
        )
        code, _, err = run(capsys, "validate", doc)
        assert code == 1
        assert err.strip() == f"error: $.annotations[1]: {message}"
    L2 = mk_linkage([("e1", "a", "b", 1), ("e2", "c", "d", 1)])
    C2 = conf(L2, {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)})
    doc = write(
        tmp_path / "apart.json",
        write_document(
            linkage=L2,
            configuration=C2,
            annotations=(SparseAnnotation("e2", "e1", value=SqrtRational(-1)), layer),
        ),
    )
    code, _, err = run(capsys, "validate", doc)
    assert code == 1
    assert err.strip() == (
        "error: $.annotations[1]: layer annotation on non-overlapping pair 'e1'/'e2'"
    )


def test_perturb_errors(capsys, tmp_path):
    doc = valid_doubled_doc(tmp_path)
    code, _, err = run(capsys, "perturb", doc, "--delta", "0")
    assert code == 1
    code, _, err = run(capsys, "perturb", doc, "--delta", "friday")
    assert code == 1
    code, _, err = run(
        capsys, "perturb", interleave_doc(tmp_path), "--delta", "1/100"
    )
    assert code == 2
    assert "check failed" in err


def test_canonical(capsys, tmp_path):
    L, _ = straight_chain(1, 2)
    open_doc = write(tmp_path / "open.json", write_document(linkage=L))
    out_path = tmp_path / "canon.json"
    code, _, err = run(capsys, "canonical", open_doc, "--out", str(out_path))
    assert code == 0
    placed = parse_linkage_file(out_path.read_text())
    assert placed.configuration.placement["v2"] == (F(3), F(0))
    assert "straight" in err

    tri = write(
        tmp_path / "tri.json",
        write_document(linkage=closed_chain_linkage(3, 4, 5)),
    )
    code, out, err = run(capsys, "canonical", tri, "--direction", "cw")
    assert code == 0
    assert "circumradius ~2.5000" in err
    parse_linkage_file(out)  # stdout artifact is a valid document

    flat = write(
        tmp_path / "flat.json",
        write_document(linkage=closed_chain_linkage(2, 1, 1)),
    )
    code, _, err = run(capsys, "canonical", flat)
    assert code == 0
    assert "flat-degenerate" in err

    star = mk_linkage(
        [("e1", "c", "a", 1), ("e2", "c", "b", 1), ("e3", "c", "d", 1)]
    )
    other = write(tmp_path / "star.json", write_document(linkage=star))
    code, _, err = run(capsys, "canonical", other)
    assert code == 1
    assert "error" in err


def test_perturb_small_radius(capsys, tmp_path):
    # the layer offset delta^2 h survives at delta = 1/10^7 on the frozen
    # spiral: the output is a nontouching extension within delta of home
    doc = REPO / "tests" / "data" / "docs" / "spiral4.json"
    out_path = tmp_path / "spiral.json"
    code, _, err = run(
        capsys, "perturb", str(doc), "--delta", "1/10000000", "--out", str(out_path)
    )
    assert code == 0, err
    source = parse_linkage_file(doc.read_text())
    result = parse_linkage_file(out_path.read_text(), strict=True)
    assert is_nontouching(result.linkage, result.configuration)
    for v, point in result.configuration.placement.items():
        home = source.configuration.placement[result.extension_map.original_vertex(v)]
        assert sqdist(point, home) <= F(1, 10**14)


def test_values_beyond_float_range(capsys, tmp_path):
    # exact values are fine, and perturb places its fragments on integers;
    # floats steer drawings and canonical placements, which refuse them
    big = 10**400
    tri = write(
        tmp_path / "tri.json",
        write_document(linkage=closed_chain_linkage(big, big, big)),
    )
    L, C = straight_chain(big, big)
    strip = write(
        tmp_path / "strip.json", write_document(linkage=L, configuration=C)
    )
    code, out, err = run(capsys, "perturb", strip, "--delta", "1/100")
    assert code == 0, err
    result = parse_linkage_file(out, strict=True)
    assert is_nontouching(result.linkage, result.configuration)
    for v, point in result.configuration.placement.items():
        home = C.placement[result.extension_map.original_vertex(v)]
        assert sqdist(point, home) <= F(1, 10**4)
    for argv in (
        ("canonical", tri),
        ("render", strip),
        ("render", strip, "--display-delta", "1/100"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error: ") and "too large" in err, argv


def square_doc(tmp_path, side, name):
    canon = canonical_closed(closed_chain_linkage(side, side, side, side), "ccw")
    text = write_document(
        linkage=canon.configuration.linkage,
        configuration=canon.configuration,
    )
    return write(tmp_path / name, text)


def test_interpolate(capsys, tmp_path):
    a = square_doc(tmp_path, 1, "sq1.json")
    b = square_doc(tmp_path, F(11, 10), "sq2.json")
    code, out, err = run(capsys, "interpolate", a, b, "--t", "1/2")
    assert code == 0
    doc = parse_linkage_file(out)
    assert len(doc.frames) == 1
    assert doc.frames[0].t == F(1, 2)
    assert "all convex" in err

    code, out, err = run(capsys, "interpolate", a, b, "--steps", "4")
    assert code == 0
    doc = parse_linkage_file(out)
    assert [f.t for f in doc.frames] == [F(k, 4) for k in range(5)]

    tri = write(
        tmp_path / "ctri.json",
        write_document(
            configuration=canonical_closed(
                closed_chain_linkage(3, 4, 5), "ccw"
            ).configuration,
            linkage=closed_chain_linkage(3, 4, 5),
        ),
    )
    code, _, err = run(capsys, "interpolate", a, tri)
    assert code == 1


def test_interpolate_checks_the_pair_once(capsys, tmp_path, monkeypatch):
    a = square_doc(tmp_path, 1, "sq1.json")
    b = square_doc(tmp_path, F(11, 10), "sq2.json")
    chains = importlib.import_module("linkfold.chains")
    calls = count_calls(monkeypatch, chains, ["turning_direction"])
    code, out, _ = run(capsys, "interpolate", a, b, "--steps", "10")
    assert code == 0
    assert len(parse_linkage_file(out).frames) == 11
    assert calls["turning_direction"] == 2  # once per input, not once per frame


def test_emit_sa(capsys, tmp_path):
    L = mk_linkage([("e1", "a", "b", 1)])
    C = conf(L, {"a": (0, 0), "b": (1, 0)})
    doc = write(tmp_path / "bar.json", write_document(linkage=L, configuration=C))
    code, out, err = run(
        capsys, "emit-sa", doc, "--epsilon", "0", "--kind", "conf"
    )
    assert code == 0
    asserts = [l for l in out.splitlines() if l.startswith("(assert")]
    assert len(asserts) == 1 and "(= " in asserts[0]
    assert "2 asserts" not in err

    code, _, err = run(
        capsys, "emit-sa", doc, "--epsilon", "0", "--kind", "nconf", "--check"
    )
    assert code == 0
    assert "satisfies" in err

    X = mk_linkage([("e1", "a", "b", 2), ("e2", "c", "d", 2)])
    XC = conf(X, {"a": (0, 0), "b": (2, 0), "c": (1, -1), "d": (1, 1)})
    crossing = write(
        tmp_path / "crossing.json", write_document(linkage=X, configuration=XC)
    )
    code, _, err = run(capsys, "emit-sa", crossing, "--check")
    assert code == 2
    assert "apart:e1:e2" in err

    code, _, _ = run(capsys, "emit-sa", doc, "--epsilon", "nope")
    assert code == 1

    code, out, err = run(capsys, "emit-sa", doc, "--epsilon", "1e1000000")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "'1e1000000'" in err


def test_emit_sa_check_needs_placement(capsys, tmp_path):
    L = mk_linkage([("e1", "a", "b", 1)])
    doc = write(tmp_path / "bare.json", write_document(linkage=L))
    out_file = tmp_path / "out.smt2"
    for extra in ((), ("--out", str(out_file))):
        code, out, err = run(capsys, "emit-sa", doc, "--check", *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "places no vertices" in err
        assert "$.vertices" in err
    assert not out_file.exists()
    # without --check there is nothing to evaluate, so the system is written
    code, out, _ = run(capsys, "emit-sa", doc)
    assert code == 0 and "(check-sat)" in out


def test_emit_sa_rejects_line_break_ids(capsys, tmp_path):
    # the id would otherwise end its "; family:" comment and inject SMT
    L = mk_linkage([("e\n(assert false)", "a", "b", 1)])
    C = conf(L, {"a": (0, 0), "b": (1, 0)})
    doc = write(tmp_path / "inject.json", write_document(linkage=L, configuration=C))
    out_file = tmp_path / "out.smt2"
    for extra in ((), ("--out", str(out_file))):
        code, out, err = run(capsys, "emit-sa", doc, "--check", *extra)
        assert code == 1
        assert "(assert false)" not in out
        assert err.startswith("error: ") and "line break" in err
        assert "satisfies" not in err
    assert not out_file.exists()


def test_slender_check(capsys, tmp_path):
    iso = Adornment(((0, 0), (2, 0), (1, 1)), (0, 1))
    square = Adornment(((0, 0), (1, 0), (1, 1), (0, 1)), (0, 1))
    mixed = write(
        tmp_path / "mixed.json", write_document(adornments=(iso, square))
    )
    code, out, err = run(capsys, "slender-check", mixed)
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False
    assert report["adornments"][0]["slender"] is True
    assert report["adornments"][1]["slender"] is False
    assert report["adornments"][1]["failures"]

    good = write(tmp_path / "iso.json", write_document(adornments=(iso,)))
    code, out, _ = run(capsys, "slender-check", good, "--mode", "interior")
    assert code == 0
    assert json.loads(out)["mode"] == "interior"

    empty = write(tmp_path / "none.json", write_document())
    code, _, err = run(capsys, "slender-check", empty)
    assert code == 1
    assert "$.adornments" in err

    bowtie = Adornment(((0, 0), (4, 0), (0, 1), (1, 3)), (0, 1))
    bad = write(tmp_path / "bad.json", write_document(adornments=(iso, bowtie)))
    code, out, err = run(capsys, "slender-check", bad)
    assert (code, out) == (1, "")
    assert err.strip() == "error: boundary is self-intersecting"


def test_slender_check_validates_each_polygon_once(capsys, tmp_path, monkeypatch):
    iso = Adornment(((0, 0), (2, 0), (1, 1)), (0, 1))
    square = Adornment(((0, 0), (1, 0), (1, 1), (0, 1)), (0, 1))
    doc = write(
        tmp_path / "three.json", write_document(adornments=(iso, square, iso))
    )
    adornments = importlib.import_module("linkfold.adornments")
    calls = count_calls(monkeypatch, adornments, ["validate_adornment"])
    for mode in ("closure", "interior"):
        code, _, _ = run(capsys, "slender-check", doc, "--mode", mode)
        assert code == 2
    assert calls["validate_adornment"] == 6


def test_render_cli(capsys, tmp_path):
    doc = valid_doubled_doc(tmp_path)
    svg_path = tmp_path / "out.svg"
    code, _, err = run(
        capsys, "render", doc, "--display-delta", "1/20", "--out", str(svg_path)
    )
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count("<path ") == 2
    assert "perturbed" in err

    code, out, err = run(capsys, "render", doc)
    assert code == 0
    assert out.count("<path ") == 1
    assert "plain" in err

    code, _, err = run(
        capsys, "render", zero_annotation_doc(tmp_path), "--display-delta", "1/20"
    )
    assert code == 2
    assert "well-annotated" in err

    code, _, err = run(
        capsys,
        "render",
        doc,
        "--out",
        str(tmp_path / "no" / "dir" / "x.svg"),
    )
    assert code == 1
    assert "io error" in err


def _check_console(command, doc, **kwargs):
    done = subprocess.run(
        [*command, "validate", doc], capture_output=True, text=True, **kwargs
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["ok"] is True

    done = subprocess.run(command, capture_output=True, text=True, **kwargs)
    assert done.returncode == 64, done.stderr


def test_console_script(tmp_path):
    """The `linkfold` console script runs as a process.

    Where an installed `linkfold` is on PATH, it is run directly. The
    entry point that pyproject.toml declares is also run the way the
    generated wrapper runs it, with the checkout's `src` first on the
    child's PYTHONPATH, so an uninstalled checkout is checked too.
    Reading the declaration needs `tomllib` (Python 3.11+).
    """
    doc = valid_doubled_doc(tmp_path)
    installed = shutil.which("linkfold")
    if installed is not None:
        _check_console([installed], doc)

    try:
        import tomllib
    except ModuleNotFoundError:
        if installed is None:
            pytest.skip("tomllib is needed to read [project.scripts]")
        return
    with (REPO / "pyproject.toml").open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "linkfold" in scripts
    module, _, attr = scripts["linkfold"].partition(":")

    env = dict(os.environ)
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), *inherited])
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    _check_console([sys.executable, "-c", wrapper], doc, env=env, cwd=tmp_path)

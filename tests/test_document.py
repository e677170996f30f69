"""linkfold/1 document parsing, writing, and annotation resolution."""

import json
from fractions import Fraction as F

import pytest

from helpers import annotation_from_layers, doubled_chain, mk_linkage, conf
from linkfold.adornments import Adornment
from linkfold.annotations import annotate
from linkfold.document import (
    Document,
    Frame,
    SparseAnnotation,
    format_annotation_value,
    parse_annotation_value,
    parse_linkage_file,
    resolve_annotations,
    write_document,
)
from linkfold.errors import DocumentError
from linkfold.linkage import ExtensionMap
from linkfold.rationals import SqrtRational


MINIMAL = """
{
  "format": "linkfold/1",
  "vertices": [{"id": "a"}, {"id": "b"}],
  "edges": [{"id": "e1", "tail": "a", "head": "b", "length": "1"}]
}
"""


def test_parse_minimal():
    doc = parse_linkage_file(MINIMAL)
    assert doc.linkage is not None
    assert len(doc.linkage.edges) == 1
    assert doc.linkage.edges[0].rest_length == 1
    assert doc.configuration is None
    assert doc.epsilon == 0


def test_parse_fraction_forms():
    text = MINIMAL.replace('"length": "1"', '"length": "0.25"')
    assert parse_linkage_file(text).linkage.edges[0].rest_length == F(1, 4)
    text = MINIMAL.replace('"length": "1"', '"length": "3/7"')
    assert parse_linkage_file(text).linkage.edges[0].rest_length == F(3, 7)


def test_parse_malformed_fraction_path():
    text = MINIMAL.replace('"length": "1"', '"length": "1/0"')
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(text)
    assert exc.value.path == "$.edges[0].length"

    text = MINIMAL.replace('"length": "1"', '"length": "1e1000000"')
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(text)
    assert exc.value.path == "$.edges[0].length"
    assert "'1e1000000'" in str(exc.value)

    with pytest.raises(DocumentError) as exc:
        parse_linkage_file("{not json")
    assert exc.value.path == "$"

    with pytest.raises(DocumentError) as exc:
        parse_linkage_file('["list"]')
    assert exc.value.path == "$"


def test_parse_format_gate():
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file('{"vertices": []}')
    assert exc.value.path == "$.format"
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file('{"format": "linkfold/9"}')
    assert exc.value.path == "$.format"


def test_parse_strict_mode():
    text = MINIMAL.replace('"format"', '"comment": "hi", "format"')
    assert parse_linkage_file(text).linkage is not None
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(text, strict=True)
    assert exc.value.path == "$.comment"

    text = MINIMAL.replace('{"id": "a"}', '{"id": "a", "note": "x"}')
    parse_linkage_file(text)
    with pytest.raises(DocumentError):
        parse_linkage_file(text, strict=True)


def test_parse_vertex_coordinate_rules():
    text = MINIMAL.replace('{"id": "a"}', '{"id": "a", "x": "0"}')
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(text)
    assert exc.value.path == "$.vertices[0]"

    # all or none placed
    text = MINIMAL.replace(
        '{"id": "a"}', '{"id": "a", "x": "0", "y": "0"}'
    )
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(text)
    assert exc.value.path == "$.vertices"


def test_parse_structural_errors():
    text = MINIMAL.replace('"length": "1"', '"length": "-1"')
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(text)
    assert exc.value.path == "$.edges[0].length"

    text = MINIMAL.replace('"head": "b"', '"head": "zz"')
    with pytest.raises(DocumentError):
        parse_linkage_file(text)

    text = MINIMAL.replace('"tail": "a"', '"tail": "b"')
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(text)
    assert exc.value.path == "$.edges[0]"


def test_parse_epsilon_and_membership():
    text = json.dumps(
        {
            "format": "linkfold/1",
            "vertices": [
                {"id": "a", "x": "0", "y": "0"},
                {"id": "b", "x": "21/20", "y": "0"},
            ],
            "edges": [{"id": "e1", "tail": "a", "head": "b", "length": "1"}],
            "epsilon": "1/10",
        }
    )
    doc = parse_linkage_file(text)
    assert doc.configuration is not None
    assert doc.configuration.epsilon == F(1, 10)

    tight = text.replace('"epsilon": "1/10"', '"epsilon": "0"')
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(tight)
    assert exc.value.path == "$.vertices"

    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(text.replace('"1/10"', '"-1/10"'))
    assert exc.value.path == "$.epsilon"


def test_annotation_value_forms():
    assert parse_annotation_value("3/2").as_fraction() == F(3, 2)
    v = parse_annotation_value("3/2*sqrt(8)")
    assert v == SqrtRational(F(3, 2), 8)
    assert parse_annotation_value(format_annotation_value(v)) == v
    assert format_annotation_value(SqrtRational(F(2))) == "2"

    text = MINIMAL.replace(
        '"edges":',
        '"annotations": [{"first": "e1", "second": "e1",'
        ' "value": "oops"}], "edges":',
    )
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(text)
    assert exc.value.path == "$.annotations[0].value"


def test_annotation_entry_rules():
    base = {
        "format": "linkfold/1",
        "annotations": [{"first": "e1", "second": "e2", "value": "1"}],
    }
    doc = parse_linkage_file(json.dumps(base))
    assert doc.annotations[0].value.as_fraction() == 1
    assert doc.annotations[0].layer is None

    both = {
        "format": "linkfold/1",
        "annotations": [
            {"first": "e1", "second": "e2", "value": "1", "layer": "+1"}
        ],
    }
    with pytest.raises(DocumentError):
        parse_linkage_file(json.dumps(both))

    neither = {
        "format": "linkfold/1",
        "annotations": [{"first": "e1", "second": "e2"}],
    }
    with pytest.raises(DocumentError):
        parse_linkage_file(json.dumps(neither))

    badlayer = {
        "format": "linkfold/1",
        "annotations": [{"first": "e1", "second": "e2", "layer": "+2"}],
    }
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(json.dumps(badlayer))
    assert exc.value.path == "$.annotations[0].layer"


def test_resolve_annotations_layer_fill():
    L, C, _ = doubled_chain()
    A = resolve_annotations(
        L, C, (SparseAnnotation("e1", "e2", layer=1),)
    )
    expected = annotation_from_layers(L, C, {"e1": 0, "e2": 1})
    assert A == expected

    # explicit value wins over the geometric default
    A2 = resolve_annotations(
        L,
        C,
        (
            SparseAnnotation("e1", "e2", value=SqrtRational(F(1))),
            SparseAnnotation("e2", "e1", value=SqrtRational(F(1))),
        ),
    )
    assert A2 == expected

    # no entries: pure geometric ord
    assert resolve_annotations(L, C, ()) == annotate(L, C)


def test_resolve_annotations_errors():
    L, C, _ = doubled_chain()
    with pytest.raises(DocumentError):
        resolve_annotations(L, C, (SparseAnnotation("e1", "zz", layer=1),))
    with pytest.raises(DocumentError):
        resolve_annotations(L, C, (SparseAnnotation("e1", "e1", layer=1),))
    apart = mk_linkage([("e1", "a", "b", 1), ("e2", "c", "d", 1)])
    Cap = conf(apart, {"a": (0, 0), "b": (1, 0), "c": (0, 3), "d": (1, 3)})
    with pytest.raises(DocumentError):
        resolve_annotations(apart, Cap, (SparseAnnotation("e1", "e2", layer=1),))


def test_write_parse_round_trip():
    L, C, _ = doubled_chain()
    text = write_document(
        linkage=L,
        configuration=C,
        annotations=(SparseAnnotation("e1", "e2", layer=1),),
        adornments=(Adornment(((0, 0), (2, 0), (1, 1)), (0, 1)),),
        extension_map=ExtensionMap(
            {"v0.0": "v0"}, {"e1": "e1"}, ("x0",)
        ),
        frames=(Frame(F(1, 2), {"v0": (F(0), F(0))}),),
    )
    doc = parse_linkage_file(text, strict=True)
    assert doc.linkage == L
    assert doc.configuration.placement == C.placement
    assert doc.annotations == (SparseAnnotation("e1", "e2", layer=1),)
    assert doc.adornments[0].boundary == ((F(0), F(0)), (F(2), F(0)), (F(1), F(1)))
    assert doc.extension_map == ExtensionMap(
        {"v0.0": "v0"}, {"e1": "e1"}, ("x0",)
    )
    assert doc.frames == (Frame(F(1, 2), {"v0": (F(0), F(0))}),)

    # canonical writer is a fixed point byte for byte
    again = write_document(
        linkage=doc.linkage,
        configuration=doc.configuration,
        annotations=doc.annotations,
        adornments=doc.adornments,
        extension_map=doc.extension_map,
        frames=doc.frames,
    )
    assert again == text


def test_write_bare_linkage():
    L, _, _ = doubled_chain()
    text = write_document(linkage=L)
    doc = parse_linkage_file(text, strict=True)
    assert doc.linkage == L
    assert doc.configuration is None
    assert write_document(linkage=doc.linkage) == text


def test_parse_frames_and_extension_map_errors():
    bad = {
        "format": "linkfold/1",
        "frames": [{"t": "1/2", "placement": {"v0": ["0"]}}],
    }
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(json.dumps(bad))
    assert exc.value.path == "$.frames[0].placement.v0"

    bad = {"format": "linkfold/1", "extension_map": []}
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(json.dumps(bad))
    assert exc.value.path == "$.extension_map"


def test_parse_adornment_errors():
    bad = {
        "format": "linkfold/1",
        "adornments": [{"boundary": [["0", "0"], ["1", "0"]], "base": [0, 5]}],
    }
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(json.dumps(bad))
    assert exc.value.path == "$.adornments[0].base"

    bad = {
        "format": "linkfold/1",
        "adornments": [{"boundary": [["0", "0", "0"]], "base": [0, 1]}],
    }
    with pytest.raises(DocumentError) as exc:
        parse_linkage_file(json.dumps(bad))
    assert exc.value.path == "$.adornments[0].boundary[0]"

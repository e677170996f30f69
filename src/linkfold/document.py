"""JSON document format "linkfold/1".

All numeric fields are strings holding exact rationals ("3", "-1/2",
"0.25"); annotation values may also be "c*sqrt(r)" strings. Unknown
fields are ignored unless strict parsing is requested. Errors carry a
JSON path to the offending node.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .adornments import Adornment
from .annotations import AnnotationMatrix
from .errors import DocumentError, LinkageError
from .geometry import Point
from .linkage import Configuration, Edge, ExtensionMap, Linkage, require_conf0
from .rationals import SqrtRational, format_rational, parse_rational

FORMAT = "linkfold/1"

_SQRT_RE = re.compile(r"\A\s*(?P<c>[^*\s]+)\s*\*\s*sqrt\(\s*(?P<r>[0-9/]+)\s*\)\s*\Z")


def parse_annotation_value(text: str) -> SqrtRational:
    m = _SQRT_RE.match(text)
    if m:
        return SqrtRational(parse_rational(m.group("c")), parse_rational(m.group("r")))
    return SqrtRational(parse_rational(text))


def format_annotation_value(value: SqrtRational) -> str:
    if value.is_rational:
        return format_rational(value.as_fraction())
    return f"{format_rational(value.coeff)}*sqrt({value.radicand})"


@dataclass(frozen=True)
class SparseAnnotation:
    first: str
    second: str
    value: SqrtRational | None = None
    layer: int | None = None


@dataclass(frozen=True)
class Frame:
    t: Fraction
    placement: dict[str, Point]


@dataclass(frozen=True)
class Document:
    linkage: Linkage | None = None
    configuration: Configuration | None = None
    epsilon: Fraction = Fraction(0)
    annotations: tuple[SparseAnnotation, ...] = ()
    adornments: tuple[Adornment, ...] = ()
    extension_map: ExtensionMap | None = None
    frames: tuple[Frame, ...] = ()


def _expect(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise DocumentError(message, path)


def _rat(node, path: str) -> Fraction:
    _expect(isinstance(node, str), "numbers must be strings", path)
    try:
        return parse_rational(node)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(str(exc), path) from None


def _id(node, path: str) -> str:
    _expect(isinstance(node, str), "ids must be strings", path)
    return node


def _check_keys(node: dict, allowed: set[str], path: str, strict: bool) -> None:
    if not strict:
        return
    for key in node:
        if key not in allowed:
            raise DocumentError(f"unknown field {key!r}", f"{path}.{key}")


def _list_section(root: dict, name: str) -> list:
    node = root.get(name, [])
    _expect(isinstance(node, list), f"{name} must be a list", f"$.{name}")
    return node


def parse_linkage_file(text: str, strict: bool = False) -> Document:
    """Parse a linkfold/1 document."""
    try:
        root = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past the interpreter's limit
        raise DocumentError(f"invalid JSON: {exc}", "$") from None
    _expect(isinstance(root, dict), "document must be an object", "$")
    _check_keys(
        root,
        {
            "format",
            "vertices",
            "edges",
            "epsilon",
            "annotations",
            "adornments",
            "extension_map",
            "frames",
        },
        "$",
        strict,
    )
    _expect("format" in root, "missing format", "$.format")
    _expect(root["format"] == FORMAT, f"unsupported format {root['format']!r}", "$.format")

    epsilon = Fraction(0)
    if "epsilon" in root:
        epsilon = _rat(root["epsilon"], "$.epsilon")
        _expect(epsilon >= 0, "epsilon must be nonnegative", "$.epsilon")

    linkage = None
    configuration = None
    if "vertices" in root or "edges" in root:
        _expect(isinstance(root.get("vertices"), list), "vertices must be a list", "$.vertices")
        edge_nodes = _list_section(root, "edges")
        vertex_ids = []
        coords: dict[str, Point] = {}
        with_coords = 0
        for k, vnode in enumerate(root["vertices"]):
            path = f"$.vertices[{k}]"
            _expect(isinstance(vnode, dict), "vertex must be an object", path)
            _check_keys(vnode, {"id", "x", "y"}, path, strict)
            _expect("id" in vnode and isinstance(vnode["id"], str), "vertex needs an id", path)
            vertex_ids.append(vnode["id"])
            has_x, has_y = "x" in vnode, "y" in vnode
            _expect(has_x == has_y, "vertex needs both coordinates or neither", path)
            if has_x:
                with_coords += 1
                coords[vnode["id"]] = (
                    _rat(vnode["x"], f"{path}.x"),
                    _rat(vnode["y"], f"{path}.y"),
                )
        _expect(
            with_coords in (0, len(vertex_ids)),
            "either all vertices are placed or none",
            "$.vertices",
        )
        edges = []
        for k, enode in enumerate(edge_nodes):
            path = f"$.edges[{k}]"
            _expect(isinstance(enode, dict), "edge must be an object", path)
            _check_keys(enode, {"id", "tail", "head", "length"}, path, strict)
            for fieldname in ("id", "tail", "head", "length"):
                _expect(fieldname in enode, f"edge missing {fieldname}", path)
            length = _rat(enode["length"], f"{path}.length")
            _expect(length >= 0, "length must be nonnegative", f"{path}.length")
            eid, tail, head = (
                _id(enode[f], f"{path}.{f}") for f in ("id", "tail", "head")
            )
            try:
                edges.append(Edge(eid, tail, head, length))
            except LinkageError as exc:
                raise DocumentError(str(exc), path) from None
        try:
            linkage = Linkage(tuple(vertex_ids), tuple(edges))
        except LinkageError as exc:
            raise DocumentError(str(exc), "$.edges") from None
        if with_coords:
            try:
                configuration = Configuration(linkage, coords, epsilon)
            except LinkageError as exc:
                raise DocumentError(str(exc), "$.vertices") from None

    annotations = []
    for k, anode in enumerate(_list_section(root, "annotations")):
        path = f"$.annotations[{k}]"
        _expect(isinstance(anode, dict), "annotation must be an object", path)
        _check_keys(anode, {"first", "second", "value", "layer"}, path, strict)
        for fieldname in ("first", "second"):
            _expect(fieldname in anode, f"annotation missing {fieldname}", path)
            _id(anode[fieldname], f"{path}.{fieldname}")
        has_value, has_layer = "value" in anode, "layer" in anode
        _expect(
            has_value != has_layer,
            "annotation needs exactly one of value or layer",
            path,
        )
        if has_layer:
            _expect(anode["layer"] in ("+1", "-1"), "layer must be +1 or -1", f"{path}.layer")
            annotations.append(
                SparseAnnotation(
                    anode["first"], anode["second"], layer=int(anode["layer"])
                )
            )
        else:
            _expect(isinstance(anode["value"], str), "value must be a string", f"{path}.value")
            try:
                val = parse_annotation_value(anode["value"])
            except (ValueError, ZeroDivisionError) as exc:
                raise DocumentError(str(exc), f"{path}.value") from None
            annotations.append(
                SparseAnnotation(anode["first"], anode["second"], value=val)
            )

    adornments = []
    for k, gnode in enumerate(_list_section(root, "adornments")):
        path = f"$.adornments[{k}]"
        _expect(isinstance(gnode, dict), "adornment must be an object", path)
        _check_keys(gnode, {"boundary", "base"}, path, strict)
        _expect(
            isinstance(gnode.get("boundary"), list), "adornment needs a boundary", path
        )
        boundary = []
        for m, pnode in enumerate(gnode["boundary"]):
            ppath = f"{path}.boundary[{m}]"
            _expect(
                isinstance(pnode, list) and len(pnode) == 2,
                "boundary point must be [x, y]",
                ppath,
            )
            boundary.append((_rat(pnode[0], ppath), _rat(pnode[1], ppath)))
        base = gnode.get("base")
        _expect(
            isinstance(base, list)
            and len(base) == 2
            and all(type(v) is int for v in base),
            "base must be a pair of vertex indices",
            f"{path}.base",
        )
        _expect(
            all(0 <= v < len(boundary) for v in base),
            "base index out of range",
            f"{path}.base",
        )
        adornments.append(Adornment(tuple(boundary), (base[0], base[1])))

    extension_map = None
    if "extension_map" in root:
        xnode = root["extension_map"]
        path = "$.extension_map"
        _expect(isinstance(xnode, dict), "extension_map must be an object", path)
        _check_keys(xnode, {"vertices", "edges", "extension_edges"}, path, strict)
        vmap = xnode.get("vertices", {})
        emap = xnode.get("edges", {})
        xedges = xnode.get("extension_edges", [])
        _expect(isinstance(vmap, dict), "vertices must be an object", f"{path}.vertices")
        _expect(isinstance(emap, dict), "edges must be an object", f"{path}.edges")
        _expect(
            isinstance(xedges, list), "extension_edges must be a list", f"{path}.extension_edges"
        )
        extension_map = ExtensionMap(
            {k: _id(v, f"{path}.vertices") for k, v in vmap.items()},
            {k: _id(v, f"{path}.edges") for k, v in emap.items()},
            tuple(_id(x, f"{path}.extension_edges[{m}]") for m, x in enumerate(xedges)),
        )

    frames = []
    for k, fnode in enumerate(_list_section(root, "frames")):
        path = f"$.frames[{k}]"
        _expect(isinstance(fnode, dict), "frame must be an object", path)
        _check_keys(fnode, {"t", "placement"}, path, strict)
        t = _rat(fnode.get("t", "0"), f"{path}.t")
        placement = {}
        pl = fnode.get("placement", {})
        _expect(isinstance(pl, dict), "placement must be an object", f"{path}.placement")
        for vid, pnode in pl.items():
            ppath = f"{path}.placement.{vid}"
            _expect(
                isinstance(pnode, list) and len(pnode) == 2,
                "placement point must be [x, y]",
                ppath,
            )
            placement[vid] = (_rat(pnode[0], ppath), _rat(pnode[1], ppath))
        frames.append(Frame(t, placement))

    return Document(
        linkage=linkage,
        configuration=configuration,
        epsilon=epsilon,
        annotations=tuple(annotations),
        adornments=tuple(adornments),
        extension_map=extension_map,
        frames=tuple(frames),
    )


def resolve_annotations(
    linkage: Linkage,
    configuration: Configuration,
    sparse: tuple[SparseAnnotation, ...],
) -> AnnotationMatrix:
    """Annotation matrix from geometry plus sparse overrides.

    Layer entries scale the overlap length by the given sign and, when
    the reverse pair is not itself listed, fill it in so the pair
    describes one coherent local ordering. The returned matrix stores
    only these overrides on the configuration's line index, each layer
    entry as a signed count of its pair's steps along the line.
    """
    require_conf0(configuration)
    index = configuration.lines()
    values: dict[tuple[int, int], SqrtRational | int] = {}
    fills: list[tuple[int, int, int]] = []
    for k, entry in enumerate(sparse):
        path = f"$.annotations[{k}]"
        try:
            i, j = linkage.edge_index(entry.first), linkage.edge_index(entry.second)
        except LinkageError:
            raise DocumentError(
                f"annotation names unknown edge {entry.first!r}/{entry.second!r}", path
            ) from None
        if i == j:
            raise DocumentError("annotation on the diagonal", path)
        if entry.value is not None:
            values[i, j] = entry.value
            continue
        t = index.steps.get((i, j))
        if t is None:
            raise DocumentError(
                f"layer annotation on non-overlapping pair "
                f"{entry.first!r}/{entry.second!r}",
                path,
            )
        values[i, j] = entry.layer * t
        # seen from bar j the same layering flips sign iff the bars point
        # the same way along their line
        fills.append((j, i, -index.orient[i] * index.orient[j] * entry.layer * t))
    explicit = set(values)
    for j, i, v in fills:
        if (j, i) not in explicit:
            values[j, i] = v
    return AnnotationMatrix.from_configuration(configuration, values)


def _point_json(p: Point) -> list[str]:
    return [format_rational(p[0]), format_rational(p[1])]


def write_document(
    linkage: Linkage | None = None,
    configuration: Configuration | None = None,
    epsilon: Fraction | None = None,
    annotations: tuple[SparseAnnotation, ...] = (),
    adornments: tuple[Adornment, ...] = (),
    extension_map: ExtensionMap | None = None,
    frames: tuple[Frame, ...] = (),
) -> str:
    """Serialize to canonical JSON (sorted keys, stable indentation)."""
    root: dict = {"format": FORMAT}
    if linkage is not None:
        verts = []
        for v in linkage.vertices:
            node: dict = {"id": v}
            if configuration is not None:
                p = configuration.placement[v]
                node["x"] = format_rational(p[0])
                node["y"] = format_rational(p[1])
            verts.append(node)
        root["vertices"] = verts
        root["edges"] = [
            {
                "id": e.id,
                "tail": e.tail,
                "head": e.head,
                "length": format_rational(e.rest_length),
            }
            for e in linkage.edges
        ]
    if epsilon is None and configuration is not None:
        epsilon = configuration.epsilon
    if epsilon is not None:
        root["epsilon"] = format_rational(epsilon)
    if annotations:
        anodes = []
        for entry in annotations:
            node = {"first": entry.first, "second": entry.second}
            if entry.layer is not None:
                node["layer"] = "+1" if entry.layer > 0 else "-1"
            else:
                node["value"] = format_annotation_value(entry.value)
            anodes.append(node)
        root["annotations"] = anodes
    if adornments:
        root["adornments"] = [
            {
                "boundary": [_point_json(p) for p in a.boundary],
                "base": [a.base[0], a.base[1]],
            }
            for a in adornments
        ]
    if extension_map is not None:
        root["extension_map"] = {
            "vertices": dict(extension_map.vertex_map),
            "edges": dict(extension_map.edge_map),
            "extension_edges": list(extension_map.extension_edges),
        }
    if frames:
        root["frames"] = [
            {
                "t": format_rational(f.t),
                "placement": {
                    vid: _point_json(p) for vid, p in sorted(f.placement.items())
                },
            }
            for f in frames
        ]
    return json.dumps(root, sort_keys=True, indent=2) + "\n"

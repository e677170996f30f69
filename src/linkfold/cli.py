"""Command line interface.

Reports are JSON on stdout with sorted keys; artifact-producing
commands (perturb, canonical, interpolate, emit-sa, render) write their
artifact to --out or stdout instead. Human-readable one-liners go to
stderr. Exit codes: 0 success, 2 a check failed, 1 input or internal
error, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from .annotations import annotate
from .chains import canonical_closed, canonical_open, classify_chain, interpolation_frames
from .corridors import corridor_order, corridors, delta_bound
from .document import (
    Document,
    Frame,
    format_annotation_value,
    parse_linkage_file,
    resolve_annotations,
    write_document,
)
from .errors import (
    CorridorError,
    DocumentError,
    LinkfoldError,
    ValidationFailure,
)
from .adornments import slender_failures, validate_adornment
from .linkage import Configuration, Linkage
from .perturb import convergence_probe, perturb
from .rationals import SqrtRational, format_rational, parse_rational
from .semialgebra import emit_conf, emit_nconf, eval_system, serialize
from .svgrender import render_svg
from .validator import validate


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".linkfold-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _deliver(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _jsonable(value):
    """Reports may carry exact scalars and nested tuples; flatten for JSON."""
    if isinstance(value, SqrtRational):
        return {"exact": format_annotation_value(value), "approx": float(value)}
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _load(path: str, strict: bool) -> Document:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return parse_linkage_file(text, strict=strict)


def _need_linkage(doc: Document) -> Linkage:
    if doc.linkage is None:
        raise DocumentError("document carries no linkage", "$.vertices")
    return doc.linkage


def _need_configuration(doc: Document) -> tuple[Linkage, Configuration]:
    linkage = _need_linkage(doc)
    if doc.configuration is None:
        raise DocumentError("document places no vertices", "$.vertices")
    return linkage, doc.configuration


def _resolved(doc: Document):
    linkage, conf = _need_configuration(doc)
    return linkage, conf, resolve_annotations(linkage, conf, doc.annotations)


def _cmd_validate(args) -> int:
    linkage, conf, ann = _resolved(_load(args.file, args.strict))
    verdict = validate(linkage, conf, ann)
    _emit_json(
        {
            "ok": verdict.ok,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "witness": _jsonable(c.witness),
                    "detail": c.detail,
                }
                for c in verdict.checks
            ],
        }
    )
    if verdict.ok:
        _say("valid annotated configuration")
        return 0
    failed = ", ".join(c.name for c in verdict.checks if c.status == "fail")
    _say(f"validation failed: {failed}")
    return 2


def _cmd_annotate(args) -> int:
    linkage, conf = _need_configuration(_load(args.file, args.strict))
    ann = annotate(linkage, conf)
    _emit_json(
        {
            "edges": [e.id for e in linkage.edges],
            "matrix": [[_jsonable(v) for v in row] for row in ann.entries],
        }
    )
    _say(f"computed signed overlaps for {len(linkage.edges)} bars")
    return 0


def _cmd_corridors(args) -> int:
    linkage, conf, ann = _resolved(_load(args.file, args.strict))
    cors = corridors(linkage, conf)
    rows = []
    for c in cors:
        order = corridor_order(c, ann, linkage, conf)
        rows.append(
            {
                "line": [str(v) for v in c.line],
                "direction": [str(v) for v in c.direction],
                "bars": [linkage.edges[i].id for i in c.bars],
                "segments": [
                    {
                        "start": _jsonable(s.start),
                        "end": _jsonable(s.end),
                        "bars": [linkage.edges[i].id for i in s.bars],
                    }
                    for s in c.segments
                ],
                "order": list(order.order),
                "psi": dict(order.psi),
            }
        )
    _emit_json(
        {
            "corridors": rows,
            "delta_bound": format_rational(delta_bound(linkage, conf)),
        }
    )
    _say(f"{len(rows)} corridor(s), all layer orders consistent")
    return 0


def _cmd_perturb(args) -> int:
    linkage, conf, ann = _resolved(_load(args.file, args.strict))
    delta = parse_rational(args.delta)
    if args.sweep:
        base = Fraction(delta)
        deltas = [base / 4**k for k in range(args.sweep)]
        probe = convergence_probe(linkage, conf, ann, deltas)
        _emit_json(
            {
                "bound": format_rational(probe.bound),
                "converging": probe.converging,
                "entries": [
                    {
                        "delta": format_rational(e.delta),
                        "delta_used": format_rational(e.delta_used),
                        "attempts": e.attempts,
                        "max_displacement": e.max_displacement,
                        "max_deviation": e.max_deviation,
                    }
                    for e in probe.entries
                ],
            }
        )
        if probe.converging:
            _say(f"overlap drift shrinks across {args.sweep} radii")
            return 0
        _say("overlap drift failed to shrink")
        return 2
    result = perturb(linkage, conf, ann, delta)
    text = write_document(
        linkage=result.linkage,
        configuration=result.configuration,
        extension_map=result.extension_map,
    )
    _deliver(text, args.out)
    disp = math.sqrt(float(result.max_displacement_sq))
    _say(
        f"perturbed at delta={format_rational(result.delta_used)} "
        f"(requested {format_rational(result.delta_requested)}, "
        f"attempt {result.attempts}), slack {format_rational(result.slack)}, "
        f"max displacement {disp:.3e}"
    )
    if result.psi:
        layers = ", ".join(f"{k}:{v}" for k, v in sorted(result.psi.items()))
        _say(f"corridor layers: {layers}")
    return 0


def _cmd_canonical(args) -> int:
    doc = _load(args.file, args.strict)
    linkage = _need_linkage(doc)
    shape = classify_chain(linkage)
    if shape.kind == "open":
        canon = canonical_open(linkage)
    else:
        canon = canonical_closed(linkage, direction=args.direction)
    text = write_document(
        linkage=linkage,
        configuration=canon.configuration,
        epsilon=canon.configuration.epsilon,
    )
    _deliver(text, args.out)
    extra = ""
    if canon.circumradius is not None:
        extra = f", circumradius ~{canon.circumradius:.6f}"
    _say(
        f"{shape.kind} chain in {canon.kind} position, "
        f"slack {format_rational(canon.configuration.epsilon)}{extra}"
    )
    return 0


def _cmd_interpolate(args) -> int:
    doc_a = _load(args.file_a, args.strict)
    doc_b = _load(args.file_b, args.strict)
    _, conf_a = _need_configuration(doc_a)
    _, conf_b = _need_configuration(doc_b)
    if args.steps is not None:
        ts = [Fraction(k, args.steps) for k in range(args.steps + 1)]
    else:
        ts = [parse_rational(args.t)]
    results = interpolation_frames(conf_a, conf_b, ts)
    frames = tuple(Frame(r.t, dict(r.configuration.placement)) for r in results)
    _deliver(write_document(linkage=doc_a.linkage, frames=frames), args.out)
    bad = [str(r.t) for r in results if not r.convex]
    tail = f"nonconvex at t = {', '.join(bad)}" if bad else "all convex"
    _say(f"{len(frames)} frame(s), {tail}")
    return 0


def _cmd_emit_sa(args) -> int:
    doc = _load(args.file, args.strict)
    linkage = _need_configuration(doc)[0] if args.check else _need_linkage(doc)
    eps = parse_rational(args.epsilon) if args.epsilon is not None else doc.epsilon
    system = emit_conf(linkage, eps) if args.kind == "conf" else emit_nconf(linkage, eps)
    _deliver(serialize(system), args.out)
    _say(
        f"{args.kind} system: {len(system.variables)} variables, "
        f"{len(system.asserts)} asserts"
    )
    if args.check:
        assignment = {}
        for v in linkage.vertices:
            px, py = doc.configuration.placement[v]
            assignment[f"x_{v}"] = px
            assignment[f"y_{v}"] = py
        report = eval_system(system, assignment)
        if report.ok:
            _say("document placement satisfies the system")
            return 0
        _say(
            "document placement violates: "
            + ", ".join(report.failures[:8])
            + (" ..." if len(report.failures) > 8 else "")
        )
        return 2
    return 0


def _cmd_slender_check(args) -> int:
    doc = _load(args.file, args.strict)
    if not doc.adornments:
        raise DocumentError("document carries no adornments", "$.adornments")
    rows = []
    all_ok = True
    for k, adornment in enumerate(doc.adornments):
        validate_adornment(adornment)
        failures = slender_failures(adornment, mode=args.mode)
        ok = not failures
        all_ok = all_ok and ok
        rows.append(
            {
                "index": k,
                "slender": ok,
                "failures": [
                    {"index": where, "reason": reason} for where, reason in failures
                ],
            }
        )
    _emit_json({"mode": args.mode, "ok": all_ok, "adornments": rows})
    if all_ok:
        _say(f"all {len(rows)} adornment(s) strictly slender ({args.mode})")
        return 0
    bad = sum(1 for r in rows if not r["slender"])
    _say(f"{bad} adornment(s) not strictly slender ({args.mode})")
    return 2


def _cmd_render(args) -> int:
    doc = _load(args.file, args.strict)
    linkage, conf = _need_configuration(doc)
    delta = parse_rational(args.display_delta)
    ann = None
    if delta > 0:
        ann = resolve_annotations(linkage, conf, doc.annotations)
    svg = render_svg(
        linkage,
        conf,
        annotation=ann,
        display_delta=delta,
        labels=not args.no_labels,
    )
    _deliver(svg, args.out)
    mode = "perturbed" if delta > 0 else "plain"
    _say(f"rendered {mode} drawing of {len(linkage.edges)} bars")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 64 on usage problems
        self.print_usage(sys.stderr)
        _say(f"usage error: {message}")
        raise SystemExit(64)


def _count(text: str) -> int:
    """argparse type of --sweep and --steps: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="linkfold", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name: str, func, help_text: str, files: int = 1):
        p = sub.add_parser(name, help=help_text)
        if files == 1:
            p.add_argument("file", help="input document")
        elif files == 2:
            p.add_argument("file_a", help="first document")
            p.add_argument("file_b", help="second document")
        p.add_argument(
            "--strict", action="store_true", help="reject unknown document fields"
        )
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "run the combinatorial validity checks")
    add("annotate", _cmd_annotate, "compute the signed overlap matrix")
    add("corridors", _cmd_corridors, "corridor decomposition and layer heights")

    p = add("perturb", _cmd_perturb, "produce a nearby nontouching configuration")
    p.add_argument("--delta", required=True, help="perturbation radius (rational)")
    p.add_argument(
        "--sweep",
        type=_count,
        default=0,
        metavar="K",
        help="probe K shrinking radii instead of writing a document",
    )
    p.add_argument("--out", help="write the perturbed document here")

    p = add("canonical", _cmd_canonical, "canonical chain placement")
    p.add_argument(
        "--direction", choices=("ccw", "cw"), default="ccw",
        help="turning direction for closed chains",
    )
    p.add_argument("--out", help="write the placed document here")

    p = add(
        "interpolate",
        _cmd_interpolate,
        "linear interpolation between two chain placements",
        files=2,
    )
    p.add_argument("--t", default="1/2", help="single parameter value")
    p.add_argument(
        "--steps", type=_count, default=None, help="emit steps+1 evenly spaced frames"
    )
    p.add_argument("--out", help="write the frames document here")

    p = add("emit-sa", _cmd_emit_sa, "emit the defining constraints as SMT-LIB2")
    p.add_argument("--epsilon", default=None, help="slack override (rational)")
    p.add_argument("--kind", choices=("conf", "nconf"), default="nconf")
    p.add_argument(
        "--check",
        action="store_true",
        help="also evaluate the document placement against the system",
    )
    p.add_argument("--out", help="write the constraint file here")

    p = add("slender-check", _cmd_slender_check, "strict slenderness of adornments")
    p.add_argument("--mode", choices=("closure", "interior"), default="closure")

    p = add("render", _cmd_render, "draw the configuration as SVG")
    p.add_argument(
        "--display-delta", default="0",
        help="positive radius separates touching bars in the drawing",
    )
    p.add_argument("--no-labels", action="store_true", help="omit vertex labels")
    p.add_argument("--out", help="write the SVG here")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 64
    try:
        return args.func(args)
    except (ValidationFailure, CorridorError) as exc:
        _say(f"check failed: {exc}")
        return 2
    except OSError as exc:
        _say(f"io error: {exc}")
        return 1
    except (LinkfoldError, ValueError, ArithmeticError) as exc:
        # also bad flag rationals, and floats overflowing on huge values
        _say(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

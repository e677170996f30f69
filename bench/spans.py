"""Span tracing of linkfold layers from outside the program.

``Tracer.install`` replaces public linkfold functions with wrappers in
every ``linkfold.*`` module namespace that refers to them (for example
``linkfold.perturb.validate`` and ``linkfold.validator.overlap_length``),
so calls between layers and within a layer are both caught without
editing the package. A span records name, start, end, parent span and
job id; spans stay in memory until the run ends. Hot predicates are
counted, never timed.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# (defining module, function) -> span name; the layer is the part before "."
SPANS = {
    ("annotations", "annotate"): "annotations.annotate",
    ("validator", "validate"): "validator.validate",
    ("validator", "check_macroscopic"): "validator.macroscopic",
    ("validator", "check_well_annotated"): "validator.well_annotated",
    ("validator", "magnified_views"): "validator.views",
    ("validator", "check_well_ordered"): "validator.well_ordered",
    ("validator", "check_microscopic"): "validator.microscopic",
    ("corridors", "corridors"): "corridors.build",
    ("corridors", "corridor_order"): "corridors.order",
    ("corridors", "delta_bound"): "corridors.delta_bound",
    ("linkage", "is_nontouching"): "linkage.nontouching",
    ("linkage", "configuration_membership"): "linkage.membership",
    ("linkage", "extend_split"): "linkage.extend_split",
    ("linkage", "merged_vertex_partition"): "linkage.partition",
    ("linkage", "require_conf0"): "linkage.require_conf0",
    ("linkage", "reduce"): "linkage.reduce",
    ("linkage", "check_epsilon_related"): "linkage.epsilon_related",
    ("perturb", "perturb"): "perturb.perturb",
    ("perturb", "convergence_probe"): "perturb.probe",
    ("semialgebra", "emit_conf"): "semialgebra.emit",
    ("semialgebra", "emit_nconf"): "semialgebra.emit",
    ("semialgebra", "serialize"): "semialgebra.serialize",
    ("semialgebra", "eval_system"): "semialgebra.eval",
    ("semialgebra", "parse_constraints"): "semialgebra.parse",
    ("chains", "classify_chain"): "chains.classify",
    ("chains", "canonical_open"): "chains.canonical",
    ("chains", "canonical_closed"): "chains.canonical",
    ("chains", "convex_interpolate"): "chains.interpolate",
    ("chains", "turning_direction"): "chains.turning",
    ("adornments", "validate_adornment"): "adornments.validate",
    ("adornments", "slender_failures"): "adornments.slender",
    ("adornments", "is_strictly_slender"): "adornments.slender",
    ("adornments", "triangulate"): "adornments.triangulate",
    ("adornments", "adorned_chain_to_linkage"): "adornments.to_linkage",
    ("document", "parse_linkage_file"): "document.parse",
    ("document", "resolve_annotations"): "document.resolve",
    ("document", "write_document"): "document.write",
    ("svgrender", "render_svg"): "svgrender.render",
    ("cli", "main"): "cli.main",
}

# hot predicates: counted only, their time stays with the caller
COUNTS = {
    ("annotations", "ord_value"): "annotations.ord_value_calls",
    ("annotations", "overlap_length"): "annotations.overlap_calls",
    ("geometry", "properly_cross"): "geometry.cross_test_calls",
    ("geometry", "in_open_segment"): "geometry.open_segment_calls",
    ("geometry", "canonical_line"): "geometry.line_calls",
    ("geometry", "point_on_line"): "geometry.line_calls",
    ("rationals", "parse_rational"): "rationals.parse_calls",
    ("rationals", "sqrt_lower_bound"): "rationals.sqrt_bound_calls",
    ("rationals", "sqrt_upper_bound"): "rationals.sqrt_bound_calls",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._undo: list[tuple] = []

    # ---------------------------------------------------------- wrappers

    def _span(self, name: str, fn, namespace: str):
        spans, stack, counts = self.spans, self.stack, self.counts
        hook = HOOKS.get(name)
        via = f"{name}@{namespace}"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[via] += 1
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(counts, None, exc, args)
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, result, None, args)
            return result

        return wrapped

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self) -> None:
        """Wrap every binding of a traced function in linkfold's modules."""
        wrappers: dict[tuple, object] = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "linkfold" and not modname.startswith("linkfold."):
                continue
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                key = (value.__module__.rpartition(".")[2], value.__name__)
                if key in SPANS:
                    wrapper = self._span(SPANS[key], value, modname.rpartition(".")[2])
                elif key in COUNTS:
                    wrapper = wrappers.setdefault(key, self._count(COUNTS[key], value))
                else:
                    continue
                self._undo.append((mod, attr, value))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    # ---------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for k, (name, start, end, parent, job) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": k, "name": name, "start_us": round((start - t0) * 1e6, 1),
                         "end_us": round((end - t0) * 1e6, 1), "parent": parent, "job": job}
                    )
                    + "\n"
                )


# result hooks: (counts, result, exception, args) for spans that carry counters


def _validate_hook(counts, result, exc, args):
    if result is not None and not result.ok:
        counts["validator.rejects"] += 1


def _perturb_hook(counts, result, exc, args):
    if result is not None:
        counts["perturb.results"] += 1
        counts["perturb.attempts"] += result.attempts
    elif type(exc).__name__ == "PerturbationError":
        counts["perturb.failures"] += 1
        counts["perturb.attempts"] += _perturb_tries()


def _perturb_tries() -> int:
    """Radii a failed perturb call tried: its default max_halvings + 1."""
    fn = sys.modules["linkfold.perturb"].perturb
    return inspect.signature(fn).parameters["max_halvings"].default + 1


def _serialize_hook(counts, result, exc, args):
    if result is not None:
        counts["semialgebra.asserts"] += len(args[0].asserts)
        counts["semialgebra.smt_bytes"] += len(result.encode())


def _placement_hook(layer):
    def hook(counts, result, exc, args):
        if result is not None:
            counts[f"{layer}.placements"] += 1

    return hook


HOOKS = {
    "validator.validate": _validate_hook,
    "perturb.perturb": _perturb_hook,
    "semialgebra.serialize": _serialize_hook,
    "chains.canonical": _placement_hook("chains"),
    "chains.interpolate": _placement_hook("chains"),
    "adornments.to_linkage": _placement_hook("adornments"),
}


def growth(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) on log(size); 0 without two sizes."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(tracer: Tracer, job_sizes: list[int]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and self time by layer.

    job_sizes[j] is the size of job j; growth fits group jobs by size.
    """
    own = tracer.self_times()
    by_span: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    per_job: dict[tuple[str, int], float] = defaultdict(float)
    for (name, _, _, _, job), t in zip(tracer.spans, own):
        layer = name.partition(".")[0]
        by_span[name] += t
        by_layer[layer] += t
        per_job[(layer, job)] += t
    c = tracer.counts

    def calls(span: str) -> int:
        return sum(v for k, v in c.items() if k.startswith(span + "@"))

    def layer_growth(layer: str) -> float:
        groups: dict[int, list[float]] = defaultdict(list)
        for j, size in enumerate(job_sizes):
            groups[size].append(per_job.get((layer, j), 0.0))
        return growth([(s, sum(ts) / len(ts)) for s, ts in groups.items()])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "annotations.annotate_s": by_span["annotations.annotate"],
        "annotations.ord_value_calls": c["annotations.ord_value_calls"],
        "annotations.overlap_calls": c["annotations.overlap_calls"],
        "annotations.growth": layer_growth("annotations"),
        "validator.macroscopic_s": by_span["validator.macroscopic"],
        "validator.well_annotated_s": by_span["validator.well_annotated"],
        "validator.views_s": by_span["validator.views"],
        "validator.well_ordered_s": by_span["validator.well_ordered"],
        "validator.microscopic_s": by_span["validator.microscopic"],
        "validator.rejects": c["validator.rejects"],
        "validator.growth": layer_growth("validator"),
        "corridors.build_s": by_span["corridors.build"],
        "corridors.order_s": by_span["corridors.order"],
        "corridors.delta_bound_s": by_span["corridors.delta_bound"],
        "linkage.nontouching_s": by_span["linkage.nontouching"],
        "linkage.nontouching_calls": calls("linkage.nontouching"),
        "linkage.membership_s": by_span["linkage.membership"],
        "linkage.membership_calls": calls("linkage.membership"),
        "linkage.extend_split_s": by_span["linkage.extend_split"],
        "linkage.growth": layer_growth("linkage"),
        "perturb.self_s": by_span["perturb.perturb"],
        "perturb.attempts_per_result": ratio(c["perturb.attempts"], c["perturb.results"]),
        "perturb.failures": c["perturb.failures"],
        "perturb.growth": layer_growth("perturb"),
        "geometry.cross_test_calls": c["geometry.cross_test_calls"],
        "geometry.open_segment_calls": c["geometry.open_segment_calls"],
        "geometry.line_calls": c["geometry.line_calls"],
        "semialgebra.emit_s": by_span["semialgebra.emit"],
        "semialgebra.serialize_s": by_span["semialgebra.serialize"],
        "semialgebra.eval_s": by_span["semialgebra.eval"],
        "semialgebra.asserts": c["semialgebra.asserts"],
        "semialgebra.smt_bytes": c["semialgebra.smt_bytes"],
        "semialgebra.growth": layer_growth("semialgebra"),
        "chains.canonical_s": by_span["chains.canonical"],
        "chains.interpolate_s": by_span["chains.interpolate"],
        "chains.eps_steps_per_placement": ratio(
            c["linkage.membership@chains"], c["chains.placements"]
        ),
        "adornments.to_linkage_s": by_span["adornments.to_linkage"],
        "adornments.slender_s": by_span["adornments.slender"],
        "adornments.eps_steps_per_placement": ratio(
            c["linkage.membership@adornments"], c["adornments.placements"]
        ),
        "document.parse_s": by_span["document.parse"],
        "document.resolve_s": by_span["document.resolve"],
        "document.write_s": by_span["document.write"],
        "rationals.parse_calls": c["rationals.parse_calls"],
        "rationals.sqrt_bound_calls": c["rationals.sqrt_bound_calls"],
        "svgrender.render_s": by_span["svgrender.render"],
        "cli.self_s": by_span["cli.main"],
    }
    return m, dict(by_layer)

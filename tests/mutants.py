"""Mutants of the library, each with the tests that must kill it.

Every entry names a file under ``src/linkfold``, an exact snippet that
occurs there once, its replacement, and the tests (pytest node ids) that
must fail once the replacement is made; a parametrized test is named
with its case id. ``tests/test_mutants.py`` checks that every snippet
still occurs exactly once and every named test exists.

Run the table with

    python tests/mutants.py [NAME ...]

It copies ``src/``, ``tests/``, ``bench/`` and ``pyproject.toml`` to a
temporary directory once per mutant, applies the mutant to the copy of
``src/`` and runs the named tests there in one pytest process, one
mutant after another. It prints each named test that still passes and
exits 1 if any mutant survives. It needs only the standard library and
pytest.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/linkfold
    snippet: str
    replacement: str
    tests: tuple[str, ...]


VALIDATOR = "tests/test_validator.py::"
CORRIDORS = "tests/test_corridors.py::"
PLANTED = "tests/test_perturb.py::test_planted_miss_raises_its_witness_after_one_construction"

MUTANTS = (
    Mutant(
        "entrance order flipped against the line direction",
        "validator.py",
        "up = ib.dir_flag * index.orient[ib.edge_index]",
        "up = -1",
        (
            VALIDATOR + "test_well_ordered_win_counts_match_ranked_verification",
            VALIDATOR + "test_corpus_gadgets_validate",
        ),
    ),
    Mutant(
        "pair consistency test dropped",
        "annotations.py",
        "if orient[i] * s != -orient[j] * t:",
        "if False:",
        (
            VALIDATOR + "test_well_ordered_win_counts_match_ranked_verification",
            CORRIDORS + "test_corridor_order_matches_segment_reference",
            "tests/test_cli.py::test_corridors_rejects_what_validate_rejects",
        ),
    ),
    Mutant(
        "Kahn pass takes the largest ready index",
        "annotations.py",
        "i = heapq.heappop(ready)",
        "i = ready.pop(ready.index(max(ready)))",
        (
            CORRIDORS + "test_corridor_order_matches_segment_reference",
            CORRIDORS + "test_layer_cycle_check_deep_and_random",
        ),
    ),
    Mutant(
        "per-entrance scan run on every line",
        "validator.py",
        "            if index.line_of[view.inbounds[idxs[0]].edge_index] not in faulty:"
        "\n                continue\n",
        "",
        (VALIDATOR + "test_well_ordered_scans_only_faulty_lines",),
    ),
    Mutant(
        "reverse overlap keeps the forward fields",
        "annotations.py",
        "self.length(i, t) for (i, j), t in self.steps.items()",
        "self.length(j, t) for (i, j), t in self.steps.items()",
        ("tests/test_annotations.py::test_line_index_matches_oracles",),
    ),
    Mutant(
        "matrix defaults not unscaled",
        "annotations.py",
        "Fraction(scale, self.D**2)",
        "scale",
        ("tests/test_annotations.py::test_line_index_matches_oracles",),
    ),
    Mutant(
        "overlap steps run to the later end",
        "annotations.py",
        "(min(h, hi) - lo) // unit_sq",
        "(max(h, hi) - lo) // unit_sq",
        (
            "tests/test_annotations.py::test_line_index_matches_oracles",
            "tests/test_annotations.py::test_resolve_annotations_matches_oracle",
        ),
    ),
    Mutant(
        "magnitude test without the line's unit",
        "annotations.py",
        "if a * a * r * self.D**2 != t * t * unit_sq * b * b * s:",
        "if a * a * r * self.D**2 != t * t * b * b * s:",
        ("tests/test_annotations.py::test_resolve_annotations_matches_oracle",),
    ),
    Mutant(
        "reverse layer fill without its orientation flip",
        "document.py",
        "-index.orient[i] * index.orient[j] * entry.layer * t",
        "-entry.layer * t",
        ("tests/test_annotations.py::test_resolve_annotations_matches_oracle",),
    ),
    Mutant(
        "short well-annotated path for every matrix",
        "validator.py",
        "own = annotation.lines is index",
        "own = True",
        (VALIDATOR + "test_well_annotated_foreign_defaults_check_every_pair",),
    ),
    Mutant(
        "sign check bound without the square",
        "perturb.py",
        "bound = 16 * p * p * D * D",
        "bound = 4 * p * D",
        ("tests/test_perturb.py::test_sign_check_thin_overlap_bound_matches_reference",),
    ),
    Mutant(
        "interleave witness from the bottom of the stack",
        "validator.py",
        "depth[c] = len(stack)",
        "depth[c] = 0",
        (VALIDATOR + "test_find_interleave_matches_reference",),
    ),
    Mutant(
        "perturb disk check dropped",
        "perturb.py",
        "if max_d2 > delta * delta:",
        "if False:",
        (PLANTED + "[disk]",),
    ),
    Mutant(
        "perturb touch check dropped",
        "perturb.py",
        "touch_witness(extended, cdelta) or ",
        "",
        (
            PLANTED + "[touch]",
            "tests/test_linkage.py::test_touch_witness_matches_reference_on_perturb_attempts",
        ),
    ),
    Mutant(
        "perturb sign check dropped",
        "perturb.py",
        " or _sign_check(prep, cdelta, delta)",
        "",
        (
            PLANTED + "[sign]",
            "tests/test_perturb.py::test_sign_check_matches_fraction_reference_on_perturb_attempts",
        ),
    ),
    Mutant(
        "perturb grid fixed at 10^12",
        "perturb.py",
        "K = q * 2**40 * prep.grid",
        "K = 10**12",
        (
            "tests/test_perturb.py::test_perturb_doubled_chain_exact_coordinates",
            "tests/test_perturb.py::test_perturb_at_radii_down_to_bound_times_1e_12",
        ),
    ),
    Mutant(
        "grid lcm over every bar",
        "perturb.py",
        "math.lcm(*(N for h, _, N in psi_map.values() if h))",
        "math.lcm(*(N for h, _, N in psi_map.values()))",
        ("tests/test_perturb.py::test_grid_takes_the_lcm_over_raised_bars_only",),
    ),
    Mutant(
        "grid lcm over the bars at height 0",
        "perturb.py",
        "math.lcm(*(N for h, _, N in psi_map.values() if h))",
        "math.lcm(*(N for h, _, N in psi_map.values() if not h))",
        ("tests/test_perturb.py::test_grid_takes_the_lcm_over_raised_bars_only",),
    ),
    Mutant(
        "perturb disk exit rounded outward",
        "perturb.py",
        "m = math.isqrt(K * K * room // (v[0] * v[0] + v[1] * v[1]))",
        "m = math.isqrt(K * K * room // (v[0] * v[0] + v[1] * v[1])) + 1",
        (
            "tests/test_perturb.py::test_perturb_doubled_chain_exact_coordinates",
            "tests/test_perturb.py::test_perturb_corpus_soundness",
        ),
    ),
    Mutant(
        "perturb offset without the layer height",
        "perturb.py",
        "lift = p * p * h * (M // (q * q * N))",
        "lift = p * p * (M // (q * q * N))",
        (
            "tests/test_perturb.py::test_perturbed_corpus_matches_reference",
            "tests/test_perturb.py::test_perturb_at_radii_down_to_bound_times_1e_12",
        ),
    ),
    Mutant(
        "sign check reads the pair swapped",
        "perturb.py",
        "got = ord_sign(new_segs[i], new_segs[j])",
        "got = ord_sign(new_segs[j], new_segs[i])",
        ("tests/test_perturb.py::test_sign_check_matches_fraction_reference_on_perturb_attempts",),
    ),
    Mutant(
        "delta_bound without the wrap-around pair",
        "corridors.py",
        "ordered[1:] + ordered[:1]",
        "ordered[1:]",
        (
            CORRIDORS + "test_delta_bound_least_sine_wraps_around",
            CORRIDORS + "test_delta_bound_matches_all_pairs_reference",
        ),
    ),
    Mutant(
        "box sweep in input order",
        "geometry.py",
        "sorted(range(len(boxes)), key=lambda k: boxes[k][0])",
        "range(len(boxes))",
        ("tests/test_geometry.py::test_box_pairs_matches_brute_force",),
    ),
    Mutant(
        "boxes open in x",
        "geometry.py",
        "boxes[k][2] >= x0",
        "boxes[k][2] > x0",
        ("tests/test_geometry.py::test_box_pairs_matches_brute_force",),
    ),
    Mutant(
        "boxes open in y",
        "geometry.py",
        "boxes[k][1] <= y1 and y0 <= boxes[k][3]",
        "boxes[k][1] < y1 and y0 < boxes[k][3]",
        (
            "tests/test_geometry.py::test_box_pairs_matches_brute_force",
            "tests/test_linkage.py::test_touch_witness_matches_reference_random",
        ),
    ),
    Mutant(
        "macroscopic check without same-line pruning",
        "validator.py",
        " or lines[i] == lines[j]",
        "",
        ("tests/test_linkage.py::test_macroscopic_tests_only_pairs_across_lines",),
    ),
    Mutant(
        "membership upper band closed",
        "linkage.py",
        "if d2 > hi * hi * t2:",
        "if d2 >= hi * hi * t2:",
        ("tests/test_linkage.py::test_membership_band_edges_exact",),
    ),
    Mutant(
        "membership lower band below epsilon",
        "linkage.py",
        "if lo >= 0 and d2 < lo * lo * t2:",
        "if d2 < lo * lo * t2:",
        ("tests/test_linkage.py::test_membership_band_edges_exact",),
    ),
    Mutant(
        "surd sign read from the denominator",
        "rationals.py",
        "n = self.coeff.numerator",
        "n = self.coeff.denominator",
        (
            "tests/test_rationals.py::test_surd_mixed_comparisons",
            "tests/test_annotations.py::test_ord_value_sign_on_lattice_images_huge_denominators",
        ),
    ),
    Mutant(
        "surd equality by coefficient whatever the radicand",
        "rationals.py",
        "equal radicands compare by coefficient\n            if self.radicand == other.radicand:",
        "equal radicands compare by coefficient\n            if True:",
        ("tests/test_rationals.py::test_surd_equality_and_hash_follow_the_key",),
    ),
    Mutant(
        "tail endpoint germ points backward",
        "validator.py",
        'Inbound(i, e.id, u, -1, e.tail, "endpoint")',
        'Inbound(i, e.id, back, -1, e.tail, "endpoint")',
        (VALIDATOR + "test_magnified_views_match_scan_reference",),
    ),
    Mutant(
        "pass germs at a bar's own endpoint",
        "validator.py",
        "points[bisect_right(params, lo) : bisect_left(params, hi)]",
        "points[bisect_left(params, lo) : bisect_left(params, hi)]",
        (VALIDATOR + "test_magnified_views_match_scan_reference",),
    ),
    Mutant(
        "corridor bar covers one cut more",
        "corridors.py",
        "bisect_left(params, lo), bisect_left(params, hi)):",
        "bisect_left(params, lo), bisect_left(params, hi) + 1):",
        (CORRIDORS + "test_corridors_match_cut_reference",),
    ),
    Mutant(
        "perturb takes every height as 0",
        "perturb.py",
        "psi_map[linkage.edges[i].id] = (h, n, N)",
        "psi_map[linkage.edges[i].id] = (0, n, N)",
        (
            "tests/test_perturb.py::test_perturbed_corpus_matches_reference",
            "tests/test_perturb.py::test_perturb_at_radii_down_to_bound_times_1e_12",
        ),
    ),
    Mutant(
        "layer heights carried reversed",
        "validator.py",
        'CheckReport("well-ordered", "pass"), tuple(all_orders), height',
        'CheckReport("well-ordered", "pass"), tuple(all_orders),'
        " {i: -h for i, h in height.items()}",
        (
            VALIDATOR + "test_verdict_heights_are_the_corridor_layering",
            "tests/test_perturb.py::test_perturbed_corpus_matches_reference",
        ),
    ),
    Mutant(
        "adorned chain bars from unvalidated polygons",
        "adornments.py",
        "validate_adornment(adornment)\n    pts = adornment.boundary\n    idx",
        "pts = adornment.boundary\n    idx",
        (
            "tests/test_adornments.py::test_adorned_chain_validates_each_polygon_first",
            "tests/test_adornments.py::test_adornments_validated_once_per_polygon",
        ),
    ),
    Mutant(
        "pass germs ordered after endpoint germs",
        "validator.py",
        "for _, pair in sorted(germs[img]) for ib in pair",
        'for _, pair in sorted(germs[img], key=lambda g: (g[1][0].kind == "pass", g[0]))'
        " for ib in pair",
        (VALIDATOR + "test_magnified_views_match_scan_reference",),
    ),
    Mutant(
        "eager lattice",
        "linkage.py",
        'f"placement violates the length band at epsilon={self.epsilon}"\n            )\n',
        'f"placement violates the length band at epsilon={self.epsilon}"\n            )\n'
        "        self.lattice()\n",
        ("tests/test_linkage.py::test_contact_scans_build_the_lattice_lazily",),
    ),
    Mutant(
        "delta_bound renamed",
        "corridors.py",
        "def delta_bound(",
        "def delta_bound_renamed(",
        ("tests/test_spans.py::test_span_keys_name_defined_functions",),
    ),
)


def run(mutant: Mutant) -> list[str]:
    """The named tests that still pass with the mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(
                REPO / part, root / part, ignore=shutil.ignore_patterns("__pycache__")
            )
        shutil.copy(REPO / "pyproject.toml", root)
        target = root / "src" / "linkfold" / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: snippet does not occur exactly once")
        text = text.replace(mutant.snippet, mutant.replacement)
        target.write_text(text, encoding="utf-8")
        command = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider"]
        proc = subprocess.run(
            command + list(mutant.tests), cwd=root, capture_output=True, text=True
        )
    lines = proc.stdout.splitlines()
    passed = {line.split()[1] for line in lines if line.startswith("PASSED ")}
    return [t for t in mutant.tests if t in passed]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survivors = 0
    for mutant in chosen:
        alive = run(mutant)
        survivors += bool(alive)
        print(f"{'SURVIVED' if alive else 'killed  '}  {mutant.name}")
        for test in alive:
            print(f"    still passes: {test}")
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

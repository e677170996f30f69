"""Frozen end-to-end CLI corpus: documents in, byte-compared artifacts out.

Run `python3 tests/goldencheck.py` to rebuild tests/data from the builders
below. Tests never regenerate; they replay each command against the frozen
inputs and require byte-identical artifacts and matching exit codes.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

from helpers import (
    closed_chain_linkage,
    conf,
    cyclic_gadget,
    degenerate_triangle,
    doubled_chain,
    interleave_gadget,
    mk_linkage,
    spiral4,
    straight_chain,
    zero_cluster_star,
    zipper5,
)
from linkfold.adornments import AdornedChain, Adornment, adorned_chain_to_linkage
from linkfold.chains import canonical_closed
from linkfold.cli import main
from linkfold.document import SparseAnnotation, write_document

DATA_DIR = Path(__file__).parent / "data"

ISO = Adornment(((0, 0), (2, 0), (1, 1)), (0, 1))
SQUARE = Adornment(((0, 0), (1, 0), (1, 1), (0, 1)), (0, 1))


def _value_entries(linkage, annotation):
    ids = [e.id for e in linkage.edges]
    entries = []
    for i, first in enumerate(ids):
        for j, second in enumerate(ids):
            if i != j and not annotation.entries[i][j].is_zero:
                entries.append(
                    SparseAnnotation(first, second, value=annotation.entries[i][j])
                )
    return tuple(entries)


def _layered_doc(builder):
    L, C, A = builder()
    return write_document(linkage=L, configuration=C, annotations=_value_entries(L, A))


def _doubled_doc():
    L, C, _ = doubled_chain()
    return write_document(
        linkage=L,
        configuration=C,
        annotations=(SparseAnnotation("e1", "e2", layer=1),),
    )


def _doubled_flat_doc():
    from linkfold.rationals import SqrtRational

    L, C, _ = doubled_chain()
    return write_document(
        linkage=L,
        configuration=C,
        annotations=(SparseAnnotation("e1", "e2", value=SqrtRational(0)),),
    )


def _zero_star_doc():
    L, C, _ = zero_cluster_star()
    return write_document(linkage=L, configuration=C)


def _interleave_doc():
    L, C, A = interleave_gadget()
    return write_document(linkage=L, configuration=C, annotations=_value_entries(L, A))


def _cyclic_doc():
    L, C, A = cyclic_gadget()
    return write_document(linkage=L, configuration=C, annotations=_value_entries(L, A))


def _adorned_chain_doc():
    quads = tuple(
        Adornment(((x, 0), (x + 2, 0), (x + F(3, 2), 1), (x + F(1, 2), 1)), (0, 1))
        for x in (0, 2, 4)
    )
    L, C = adorned_chain_to_linkage(AdornedChain(quads))
    return write_document(linkage=L, configuration=C, adornments=quads)


def _bare_closed(*lengths):
    return write_document(linkage=closed_chain_linkage(*lengths))


def _square_doc(side):
    canon = canonical_closed(closed_chain_linkage(side, side, side, side), "ccw")
    return write_document(
        linkage=canon.configuration.linkage, configuration=canon.configuration
    )


def _single_bar_doc():
    L = mk_linkage([("e1", "a", "b", 1)])
    return write_document(linkage=L, configuration=conf(L, {"a": (0, 0), "b": (1, 0)}))


def _crossing_doc():
    L = mk_linkage([("e1", "a", "b", 2), ("e2", "c", "d", 2)])
    C = conf(L, {"a": (0, 0), "b": (2, 0), "c": (1, -1), "d": (1, 1)})
    return write_document(linkage=L, configuration=C)


def _star_doc():
    L = mk_linkage([("e1", "c", "a", 1), ("e2", "c", "b", 1), ("e3", "c", "d", 1)])
    return write_document(linkage=L)


DOCS = {
    "doubled-chain": _doubled_doc,
    "doubled-flat": _doubled_flat_doc,
    "cyclic-gadget": _cyclic_doc,
    "interleave-gadget": _interleave_doc,
    "zero-cluster-star": _zero_star_doc,
    "zipper5": lambda: _layered_doc(zipper5),
    "spiral4": lambda: _layered_doc(spiral4),
    "degenerate-triangle": lambda: _layered_doc(degenerate_triangle),
    "adorned-chain": _adorned_chain_doc,
    "open-chain": lambda: write_document(linkage=straight_chain(1, 2)[0]),
    "closed-345": lambda: _bare_closed(3, 4, 5),
    "closed-111": lambda: _bare_closed(1, 1, 1),
    "flat-211": lambda: _bare_closed(2, 1, 1),
    "pentagon": lambda: _bare_closed(1, 1, 1, 1, 1),
    "square-a": lambda: _square_doc(1),
    "square-b": lambda: _square_doc(F(11, 10)),
    "single-bar": _single_bar_doc,
    "crossing-bars": _crossing_doc,
    "adorn-iso": lambda: write_document(adornments=(ISO,)),
    "adorn-mixed": lambda: write_document(adornments=(ISO, SQUARE)),
    "star": _star_doc,
}

# name, argv template, expected exit code, artifact file name
# "{out}" in the template marks runs whose artifact is the --out file;
# everything else is compared on captured stdout.
RUNS = [
    ("validate-doubled", ["validate", "{doubled-chain}"], 0, "validate-doubled.json"),
    ("validate-flat", ["validate", "{doubled-flat}"], 2, "validate-flat.json"),
    ("validate-cyclic", ["validate", "{cyclic-gadget}"], 2, "validate-cyclic.json"),
    (
        "validate-interleave",
        ["validate", "{interleave-gadget}"],
        2,
        "validate-interleave.json",
    ),
    (
        "validate-zero-star",
        ["validate", "{zero-cluster-star}"],
        0,
        "validate-zero-star.json",
    ),
    (
        "validate-triangle",
        ["validate", "{degenerate-triangle}", "--strict"],
        0,
        "validate-triangle.json",
    ),
    ("annotate-doubled", ["annotate", "{doubled-chain}"], 0, "annotate-doubled.json"),
    ("annotate-zipper", ["annotate", "{zipper5}"], 0, "annotate-zipper.json"),
    ("corridors-doubled", ["corridors", "{doubled-chain}"], 0, "corridors-doubled.json"),
    ("corridors-spiral", ["corridors", "{spiral4}"], 0, "corridors-spiral.json"),
    (
        "perturb-doubled",
        ["perturb", "{doubled-chain}", "--delta", "1/10", "--out", "{out}"],
        0,
        "perturb-doubled.json",
    ),
    (
        "perturb-zero-star",
        ["perturb", "{zero-cluster-star}", "--delta", "1/40", "--out", "{out}"],
        0,
        "perturb-zero-star.json",
    ),
    (
        "perturb-spiral-small",
        ["perturb", "{spiral4}", "--delta", "1/10000000", "--out", "{out}"],
        0,
        "perturb-spiral-small.json",
    ),
    (
        "sweep-triangle",
        ["perturb", "{degenerate-triangle}", "--delta", "1/10", "--sweep", "3"],
        0,
        "sweep-triangle.json",
    ),
    (
        "canonical-open",
        ["canonical", "{open-chain}", "--out", "{out}"],
        0,
        "canonical-open.json",
    ),
    ("canonical-345", ["canonical", "{closed-345}"], 0, "canonical-345.json"),
    ("canonical-111", ["canonical", "{closed-111}"], 0, "canonical-111.json"),
    ("canonical-flat", ["canonical", "{flat-211}"], 0, "canonical-flat.json"),
    (
        "canonical-pentagon",
        ["canonical", "{pentagon}", "--direction", "cw"],
        0,
        "canonical-pentagon.json",
    ),
    ("canonical-star", ["canonical", "{star}"], 1, "canonical-star.txt"),
    (
        "interpolate-squares",
        ["interpolate", "{square-a}", "{square-b}", "--steps", "4"],
        0,
        "interpolate-squares.json",
    ),
    (
        "emit-conf-bar",
        ["emit-sa", "{single-bar}", "--kind", "conf", "--epsilon", "0"],
        0,
        "emit-conf-bar.smt2",
    ),
    (
        "emit-nconf-crossing",
        ["emit-sa", "{crossing-bars}", "--epsilon", "1/10"],
        0,
        "emit-nconf-crossing.smt2",
    ),
    (
        "emit-check-crossing",
        ["emit-sa", "{crossing-bars}", "--check"],
        2,
        "emit-check-crossing.smt2",
    ),
    ("slender-iso", ["slender-check", "{adorn-iso}"], 0, "slender-iso.json"),
    (
        "slender-mixed",
        ["slender-check", "{adorn-mixed}", "--mode", "interior"],
        2,
        "slender-mixed.json",
    ),
    (
        "render-doubled",
        ["render", "{doubled-chain}", "--display-delta", "1/20", "--out", "{out}"],
        0,
        "render-doubled.svg",
    ),
    (
        "render-adorned",
        ["render", "{adorned-chain}", "--out", "{out}"],
        0,
        "render-adorned.svg",
    ),
    (
        "render-spiral",
        ["render", "{spiral4}", "--display-delta", "1/100", "--no-labels", "--out", "{out}"],
        0,
        "render-spiral.svg",
    ),
]


def _execute(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fill(template, doc_paths, out_path):
    argv = []
    for part in template:
        if part == "{out}":
            argv.append(str(out_path))
        elif part.startswith("{") and part.endswith("}"):
            argv.append(str(doc_paths[part[1:-1]]))
        else:
            argv.append(part)
    return argv


def replay(run_name, work_dir):
    """Execute one named run against the frozen documents."""
    spec = next(r for r in RUNS if r[0] == run_name)
    _, template, _, artifact = spec
    docs = {name: DATA_DIR / "docs" / f"{name}.json" for name in DOCS}
    out_path = Path(work_dir) / artifact
    out_path.parent.mkdir(parents=True, exist_ok=True)
    code, stdout, _ = _execute(_fill(template, docs, out_path))
    if "{out}" in template:
        produced = out_path.read_bytes() if out_path.exists() else b""
    else:
        produced = stdout.encode()
    return code, produced


def verify_all(work_dir):
    """Replay every run; compare exit codes and artifact bytes. Returns count."""
    codes = json.loads((DATA_DIR / "golden" / "codes.json").read_text())
    checked = 0
    for name, _, expected_code, artifact in RUNS:
        code, produced = replay(name, work_dir)
        golden = (DATA_DIR / "golden" / artifact).read_bytes()
        assert code == expected_code == codes[name], (name, code, expected_code)
        assert produced == golden, f"artifact drift in {name}"
        checked += 1
    return checked


def regenerate():
    docs_dir = DATA_DIR / "docs"
    golden_dir = DATA_DIR / "golden"
    docs_dir.mkdir(parents=True, exist_ok=True)
    golden_dir.mkdir(parents=True, exist_ok=True)
    for name, builder in DOCS.items():
        (docs_dir / f"{name}.json").write_text(builder(), encoding="utf-8")
    docs = {name: docs_dir / f"{name}.json" for name in DOCS}
    codes = {}
    for name, template, expected_code, artifact in RUNS:
        out_path = golden_dir / artifact
        code, stdout, err = _execute(_fill(template, docs, out_path))
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}\n{err}")
        if "{out}" not in template:
            out_path.write_bytes(stdout.encode())
        codes[name] = code
    (golden_dir / "codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(DOCS)} documents, {len(RUNS)} artifacts")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    regenerate()

"""Ungated scaling report: how stage cost grows with bar count.

    python3 bench/scaling.py

Times validate, perturb and emit_nconf (with serialisation) through the
library on layered zigzag flats of n bars, one layer per bar, and fits
the growth exponent of each stage: the slope of log(time) on log(n).
Not part of the gated benchmark; one repetition per size, so treat the
figures as rough on a shared machine.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import docs
from spans import growth

ROOT = Path(__file__).resolve().parent.parent

SIZES = (16, 32, 64)
STAGES = ("validate", "perturb", "emit_nconf")


def measure(n: int, rng: random.Random) -> dict:
    import linkfold as lf

    doc = docs.fold_doc(rng, "zigzag", n)
    parsed = lf.parse_linkage_file(doc.text)
    linkage, conf = parsed.linkage, parsed.configuration
    ann = lf.resolve_annotations(linkage, conf, parsed.annotations)
    row: dict = {"n": n}
    t0 = perf_counter()
    verdict = lf.validate(linkage, conf, ann)
    row["validate"] = perf_counter() - t0
    t0 = perf_counter()
    lf.perturb(linkage, conf, ann, Fraction(1, 4 * len(linkage.edges)))
    row["perturb"] = perf_counter() - t0
    t0 = perf_counter()
    text = lf.serialize(lf.emit_nconf(linkage, 0))
    row["emit_nconf"] = perf_counter() - t0
    row["smt_bytes"] = len(text.encode())
    row["valid"] = verdict.ok
    return row


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    rng = random.Random("scaling")
    rows = [measure(n, rng) for n in SIZES]
    print(f"{'n':>5} {'validate s':>11} {'perturb s':>10} {'emit_nconf s':>13} {'SMT MB':>8}")
    for r in rows:
        print(
            f"{r['n']:>5} {r['validate']:>11.3f} {r['perturb']:>10.3f} "
            f"{r['emit_nconf']:>13.3f} {r['smt_bytes'] / 1e6:>8.2f}"
        )
    fits = {s: growth([(r["n"], r[s]) for r in rows]) for s in STAGES + ("smt_bytes",)}
    print("fitted exponent: " + ", ".join(f"{k} {v:.2f}" for k, v in fits.items()))
    return 0 if all(r["valid"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())

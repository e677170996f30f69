"""The four workloads: generated inputs, the jobs run on them, and checks.

A job is one user-level task on one generated input, run through
``linkfold.cli.main`` exactly as a command-line user would run it. Each
workload draws its jobs from three size classes in fixed decks of 8
small, 9 medium and 3 large jobs (40 / 45 / 15 %), so the median falls
inside the middle class and the 90th percentile inside the large one.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction as F

import docs
from docs import Doc, fmt
from oracle import Placed, band_violation, convex_walk, sqdist, touch_witness

DECK = (8, 9, 3)

OK, STANDING, WRONG = "ok", "standing", "wrong"


@dataclass
class Job:
    family: str
    size: int
    docs: list[Doc]
    expect: dict = field(default_factory=dict)


class Env:
    """linkfold as a user sees it: the CLI plus the library modules.

    Attributes are looked up at call time, so wrappers installed by the
    tracer are the ones called.
    """

    def __init__(self, modules: dict, workdir) -> None:
        self.mod = modules
        self.workdir = workdir
        self.out_bytes = 0

    def cli(self, *argv: str) -> tuple:
        """Run one command in-process; (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.mod["cli"].main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed job, not a crashed run
                code = f"raised {type(exc).__name__}: {exc}"
        text = out.getvalue()
        self.out_bytes += len(text)
        return code, text, err.getvalue()

    def out_path(self, name: str) -> str:
        return str(self.workdir / name)


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class Workload:
    name = ""
    sizes: tuple = ()  # size of each class, for the report
    families: tuple = ()
    pool = (24, 27, 9)  # distinct inputs per class; jobs cycle through them
    trace_jobs = 100

    def make(self, rng: random.Random, family: str, cls: int) -> Job:
        raise NotImplementedError

    def execute(self, job: Job, env: Env):
        raise NotImplementedError

    def check(self, job: Job, result, env: Env) -> tuple[str, str]:
        raise NotImplementedError

    def diagnose(self, job: Job, env: Env) -> str:
        return ""

    def pools(self, rng: random.Random) -> list[list[Job]]:
        return [
            [self.make(rng, self.families[i % len(self.families)], c) for i in range(count)]
            for c, count in enumerate(self.pool)
        ]

    def decks(self, pools: list[list[Job]], rng: random.Random):
        """Endless shuffled decks; each class cycles through its pool."""
        used = [0, 0, 0]
        while True:
            order = [c for c, k in enumerate(DECK) for _ in range(k)]
            rng.shuffle(order)
            deck = []
            for c in order:
                deck.append(pools[c][used[c] % len(pools[c])])
                used[c] += 1
            yield deck


def _first_failure(names, results) -> tuple[str, tuple] | None:
    for name, r in zip(names, results):
        if r[0] != 0:
            return name, r
    return None


class Fold(Workload):
    name = "fold"
    sizes = (4, 8, 16)
    families = docs.FOLD_FAMILIES
    steps = ("validate", "corridors", "perturb")

    def make(self, rng, family, cls):
        n = self.sizes[cls]
        doc = docs.fold_doc(rng, family, n)
        delta = F(1, 4 * doc.expect["edges"])
        return Job(family, n, [doc], {"delta": delta, **doc.expect})

    def execute(self, job, env):
        path = job.docs[0].path
        results = []
        for argv in (
            ("validate", path),
            ("corridors", path),
            ("perturb", path, "--delta", fmt(job.expect["delta"])),
        ):
            results.append(env.cli(*argv))
            if results[-1][0] != 0:
                break
        return results

    def standing(self, job, step, result) -> bool:
        """The recorded failure: perturb rejects hinged strips of >= 5 bars."""
        code, _, err = result
        return (
            job.family == "hinged"
            and job.size >= 5
            and step == "perturb"
            and code == 1
            and "no admissible perturbation" in err
        )

    def check(self, job, result, env):
        bad = _first_failure(self.steps, result)
        if bad is not None:
            step, r = bad
            if self.standing(job, step, r):
                return STANDING, f"{step} exit 1: {r[2].strip()}"
            return WRONG, f"{step} exit {r[0]}: {r[2].strip()[-300:]}"
        verdict = _json(result[0][1])
        if not verdict or verdict.get("ok") is not True:
            return WRONG, "validate did not report ok"
        cors = _json(result[1][1])
        edges = job.expect["edges"]
        if not cors or [c["order"] for c in cors["corridors"]] != [job.expect["order"]]:
            return WRONG, "corridor layer order differs from the built stacking"
        if cors["delta_bound"] != fmt(F(1, 2 * edges)):
            return WRONG, f"delta_bound {cors['delta_bound']} != 1/{2 * edges}"
        return self._check_perturbed(job, result[2][1])

    def _check_perturbed(self, job, text):
        try:
            out = Placed(text)
            emap = out.root["extension_map"]
        except (ValueError, KeyError) as exc:
            return WRONG, f"perturb output unreadable: {exc}"
        src = Placed(job.docs[0].text)
        witness = touch_witness(out.points, out.edges)
        if witness is not None:
            return WRONG, f"perturbed placement touches: {witness}"
        bar = band_violation(out.points, out.edges, out.epsilon)
        if bar is not None:
            return WRONG, f"bar {bar} leaves the length band at epsilon {out.epsilon}"
        vmap, ext = emap["vertices"], set(emap["extension_edges"])
        delta2 = job.expect["delta"] ** 2
        for v, p in out.points.items():
            if sqdist(p, src.points[vmap.get(v, v)]) > delta2:
                return WRONG, f"fragment {v} moved farther than delta"
        contracted = [
            (emap["edges"].get(e, e), vmap.get(t, t), vmap.get(h, h), length)
            for e, t, h, length in out.edges
            if e not in ext
        ]
        if contracted != src.edges or any(
            length != 0 for e, _, _, length in out.edges if e in ext
        ):
            return WRONG, "contracting the extension map does not give the input"
        if {vmap.get(v, v) for v in out.points} != set(src.points):
            return WRONG, "extension map loses or adds vertices"
        return OK, ""

    def diagnose(self, job, env):
        """The perturb witness, read from the library's exception."""
        m = env.mod
        doc = m["document"].parse_linkage_file(job.docs[0].text)
        ann = m["document"].resolve_annotations(doc.linkage, doc.configuration, doc.annotations)
        try:
            m["perturb"].perturb(doc.linkage, doc.configuration, ann, job.expect["delta"])
        except m["errors"].LinkfoldError as exc:
            return f"witness {getattr(exc, 'offending', None)}"
        return "perturb succeeds through the library"


class Emit(Workload):
    name = "emit"
    sizes = (4, 8, 16)
    families = docs.EMIT_FAMILIES

    def make(self, rng, family, cls):
        doc = docs.emit_doc(rng, family, self.sizes[cls])
        return Job(family, self.sizes[cls], [doc], doc.expect)

    def execute(self, job, env):
        return [env.cli("emit-sa", job.docs[0].path, "--kind", "nconf", "--check")]

    def check(self, job, result, env):
        code, out, err = result[0]
        if code != job.expect["code"]:
            return WRONG, f"emit-sa --check exit {code}, expected {job.expect['code']}: {err.strip()[-200:]}"
        lines = out.splitlines()
        if not lines or lines[0] != "(set-logic QF_NRA)" or lines[-1] != "(check-sat)":
            return WRONG, "SMT-LIB2 text lacks its header or (check-sat)"
        e, v = job.expect["edges"], job.expect["vertices"]
        asserts = sum(1 for line in lines if line.startswith("(assert "))
        declared = sum(1 for line in lines if line.startswith("(declare-const "))
        if asserts != e + e * (e - 1) // 2 or declared != 2 * v:
            return WRONG, f"{asserts} asserts and {declared} variables for {e} bars, {v} joints"
        return OK, ""


class Chains(Workload):
    name = "chains"
    # (closed-chain bars, adorned triangles): an adorned job of 3k triangles
    # costs about as much as a closed job of k bars, so each class is one
    # band of latencies and p50 / p90 fall inside a class, not between kinds
    sizes = ((8, 24), (16, 48), (64, 192))
    families = docs.CHAIN_FAMILIES
    trace_jobs = 200

    def make(self, rng, family, cls):
        k, m = self.sizes[cls]
        if family == "closed":
            text_a, text_b, lens_a, lens_b = docs.closed_pair(rng, k)
            expect = {"lens_a": lens_a, "lens_b": lens_b}
            return Job(family, k, [Doc(text_a), Doc(text_b)], expect)
        text, verdicts = docs.adorned_chain(rng, m, family == "adorned-mixed")
        return Job(family, m, [Doc(text)], {"slender": verdicts})

    def execute(self, job, env):
        if job.family == "closed":
            out_a, out_b = env.out_path("canonical-a.json"), env.out_path("canonical-b.json")
            results = []
            for argv in (
                ("canonical", job.docs[0].path, "--out", out_a),
                ("canonical", job.docs[1].path, "--out", out_b),
                ("interpolate", out_a, out_b, "--steps", "10"),
            ):
                results.append(env.cli(*argv))
                if results[-1][0] != 0:
                    break
            return results
        results = [env.cli("slender-check", job.docs[0].path)]
        m = env.mod
        try:
            with open(job.docs[0].path, encoding="utf-8") as handle:
                doc = m["document"].parse_linkage_file(handle.read())
            built = m["adornments"].adorned_chain_to_linkage(m["adornments"].AdornedChain(doc.adornments))
        except Exception as exc:  # recorded as a failed job
            built = exc
        results.append(built)
        return results

    def check(self, job, result, env):
        if job.family == "closed":
            return self._check_closed(job, result, env)
        code, out, err = result[0]
        want = job.expect["slender"]
        if code != (0 if all(want) else 2):
            return WRONG, f"slender-check exit {code}: {err.strip()[-200:]}"
        report = _json(out)
        if not report or [a["slender"] for a in report["adornments"]] != want:
            return WRONG, "slender verdicts differ from the construction"
        built = result[1]
        if isinstance(built, Exception):
            return WRONG, f"adorned_chain_to_linkage raised {built!r}"
        linkage, conf = built
        m = len(want)
        if len(linkage.edges) != 3 * m or len(linkage.vertices) != 2 * m + 1:
            return WRONG, "adorned linkage has the wrong bar or joint count"
        edges = [(e.id, e.tail, e.head, e.rest_length) for e in linkage.edges]
        bar = band_violation(conf.placement, edges, conf.epsilon)
        if bar is not None:
            return WRONG, f"adorned bar {bar} leaves the band at epsilon {conf.epsilon}"
        return OK, ""

    def _check_closed(self, job, result, env):
        bad = _first_failure(("canonical", "canonical", "interpolate"), result)
        if bad is not None:
            return WRONG, f"{bad[0]} exit {bad[1][0]}: {bad[1][2].strip()[-200:]}"
        k = job.size
        walk = [f"v{i}" for i in range(k)]
        placed = []
        for name in ("canonical-a.json", "canonical-b.json"):
            with open(env.out_path(name), encoding="utf-8") as handle:
                doc = Placed(handle.read())
            bar = band_violation(doc.points, doc.edges, doc.epsilon)
            if bar is not None:
                return WRONG, f"canonical bar {bar} leaves the band at epsilon {doc.epsilon}"
            if not convex_walk([doc.points[v] for v in walk]):
                return WRONG, "canonical closed chain is not convex"
            placed.append(doc)
        frames = (_json(result[2][1]) or {}).get("frames", [])
        if [F(f["t"]) for f in frames] != [F(i, 10) for i in range(11)]:
            return WRONG, "interpolate did not emit the eleven frames"
        eps = max(placed[0].epsilon, placed[1].epsilon)
        lens_a, lens_b = job.expect["lens_a"], job.expect["lens_b"]
        for f in frames:
            t = F(f["t"])
            pts = {v: (F(x), F(y)) for v, (x, y) in f["placement"].items()}
            if (t == 0 and pts != placed[0].points) or (t == 1 and pts != placed[1].points):
                return WRONG, f"end frame t={t} differs from its canonical placement"
            if not convex_walk([pts[v] for v in walk]):
                return WRONG, f"frame t={t} is not convex"
            # blends of two placements stay under the blended upper band
            for i in range(k):
                rest = (1 - t) * lens_a[i] + t * lens_b[i]
                if sqdist(pts[walk[i]], pts[walk[(i + 1) % k]]) > (rest + eps) ** 2:
                    return WRONG, f"frame t={t} stretches e{i} past its band"
        return OK, ""


class Triage(Workload):
    name = "triage"
    sizes = (4, 6, 10)
    families = docs.TRIAGE_KINDS
    pool = (80, 90, 30)
    trace_jobs = 1000

    def make(self, rng, family, cls):
        doc = docs.triage_doc(rng, family, self.sizes[cls])
        return Job(family, self.sizes[cls], [doc], doc.expect)

    def execute(self, job, env):
        command = job.family if job.family in ("annotate", "corridors", "render") else "validate"
        return [env.cli(command, job.docs[0].path)]

    def check(self, job, result, env):
        code, out, err = result[0]
        kind, expect = job.family, job.expect
        if "fails" in expect:
            report = _json(out)
            if code != 2 or not report:
                return WRONG, f"validate exit {code} on a {kind} document: {err.strip()[-200:]}"
            failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
            if failed != [expect["fails"]]:
                return WRONG, f"{kind} document failed {failed}, built to fail {expect['fails']}"
            return OK, ""
        if code != 0:
            return WRONG, f"{kind} exit {code}: {err.strip()[-200:]}"
        if kind == "render":
            return self._check_svg(out, expect["vertices"])
        report = _json(out)
        if report is None:
            return WRONG, f"{kind} output is not JSON"
        n = len(expect["edges"])
        if kind == "validate" and report.get("ok") is not True:
            return WRONG, "validate did not report ok"
        if kind == "annotate":
            matrix = report.get("matrix", [])
            if report.get("edges") != expect["edges"] or len(matrix) != n:
                return WRONG, "annotate matrix does not match the document's bars"
            if any(len(row) != n or row[i]["exact"] != "0" for i, row in enumerate(matrix)):
                return WRONG, "annotate matrix is not square with a zero diagonal"
        if kind == "corridors":
            if [c["order"] for c in report["corridors"]] != [expect["order"]]:
                return WRONG, "corridor layer order differs from the built stacking"
            if report["delta_bound"] != fmt(expect["delta_bound"]):
                return WRONG, f"delta_bound {report['delta_bound']}"
        return OK, ""

    @staticmethod
    def _check_svg(text, vertices):
        ns = "{http://www.w3.org/2000/svg}"
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            return WRONG, f"render output is not well-formed SVG: {exc}"
        if root.tag != f"{ns}svg":
            return WRONG, f"render root element is {root.tag}"
        if len(root.findall(f"{ns}circle")) != vertices or len(root.findall(f"{ns}text")) != vertices:
            return WRONG, "render does not draw one dot and one label per joint"
        return OK, ""


WORKLOADS = {w.name: w for w in (Fold(), Emit(), Chains(), Triage())}

"""linkfold benchmark runner.

    python3 bench/run.py --workload fold --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

A single-process, single-thread, closed-loop runner with one client: the
next job starts only after the previous one has finished. Jobs call
``linkfold.cli.main`` in-process on documents generated from the seed,
with ``src/`` on the path and stdout and stderr captured in memory.
Latency runs from a job's first CLI call to its last byte of output;
output checks run after the timer stops.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs the
seed's first jobs both untraced and with span wrappers installed,
and reports per-layer metrics. The report goes to stdout; its last line
is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_JOBS = 100  # so that ten samples lie beyond the 90th percentile
HARD_STOP_S = 120.0  # a run ends here even short of MIN_JOBS

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "annotations.annotate_s": "s",
    "annotations.ord_value_calls": "count",
    "annotations.overlap_calls": "count",
    "annotations.growth": "slope",
    "validator.macroscopic_s": "s",
    "validator.well_annotated_s": "s",
    "validator.views_s": "s",
    "validator.well_ordered_s": "s",
    "validator.microscopic_s": "s",
    "validator.rejects": "count",
    "validator.growth": "slope",
    "corridors.build_s": "s",
    "corridors.order_s": "s",
    "corridors.delta_bound_s": "s",
    "linkage.nontouching_s": "s",
    "linkage.nontouching_calls": "count",
    "linkage.membership_s": "s",
    "linkage.membership_calls": "count",
    "linkage.extend_split_s": "s",
    "linkage.growth": "slope",
    "perturb.self_s": "s",
    "perturb.attempts_per_result": "ratio",
    "perturb.failures": "count",
    "perturb.growth": "slope",
    "geometry.cross_test_calls": "count",
    "geometry.open_segment_calls": "count",
    "geometry.line_calls": "count",
    "semialgebra.emit_s": "s",
    "semialgebra.serialize_s": "s",
    "semialgebra.eval_s": "s",
    "semialgebra.asserts": "count",
    "semialgebra.smt_bytes": "B",
    "semialgebra.growth": "slope",
    "chains.canonical_s": "s",
    "chains.interpolate_s": "s",
    "chains.eps_steps_per_placement": "ratio",
    "adornments.to_linkage_s": "s",
    "adornments.slender_s": "s",
    "adornments.eps_steps_per_placement": "ratio",
    "document.parse_s": "s",
    "document.resolve_s": "s",
    "document.write_s": "s",
    "rationals.parse_calls": "count",
    "rationals.sqrt_bound_calls": "count",
    "svgrender.render_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


def _say(line: str = "") -> None:
    print(line, flush=True)


def _import_linkfold() -> dict:
    """Import linkfold afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "linkfold" or m.startswith("linkfold.")]:
        del sys.modules[name]
    names = ("cli", "document", "perturb", "adornments", "errors")
    return {n: importlib.import_module(f"linkfold.{n}") for n in names}


def set_up(wl, seed: int, work: Path):
    """Import, generate, write and warm up; repeated, the last one is kept."""
    times = []
    for rep in range(SETUP_REPEATS):
        t0 = perf_counter()
        modules = _import_linkfold()
        pools = wl.pools(random.Random(f"{wl.name}/{seed}"))
        folder = work / f"set-up-{rep}"
        folder.mkdir(parents=True)
        for c, pool in enumerate(pools):
            for i, job in enumerate(pool):
                for k, doc in enumerate(job.docs):
                    doc.path = str(folder / f"c{c}-{i}-{k}.json")
                    with open(doc.path, "w", encoding="utf-8") as handle:
                        handle.write(doc.text)
        env = Env(modules, folder)
        for job in pools[0][: len(wl.families)]:  # one small job of each family
            wl.execute(job, env)
        times.append(perf_counter() - t0)
        if rep:
            shutil.rmtree(work / f"set-up-{rep - 1}")
    env.out_bytes = 0
    return env, pools, times


class Tally:
    """Latencies and check outcomes of one pass over jobs."""

    def __init__(self) -> None:
        self.latency: list[float] = []
        self.outcomes: list[tuple] = []  # (job, status, reason)

    def run(self, wl, env, job, tracer=None) -> None:
        if tracer is not None:
            tracer.job = len(self.latency)
        t0 = perf_counter()
        result = wl.execute(job, env)
        t1 = perf_counter()
        if tracer is not None:
            tracer.job = -1
        self.latency.append(t1 - t0)
        status, reason = wl.check(job, result, env)
        self.outcomes.append((job, status, reason))

    def count(self, status: str) -> int:
        return sum(1 for _, s, _ in self.outcomes if s == status)


def timed_run(wl, env, pools, seed: int, seconds: float) -> Tally:
    tally = Tally()
    start = perf_counter()
    for deck in wl.decks(pools, random.Random(f"{wl.name}/{seed}/order")):
        for job in deck:
            tally.run(wl, env, job)
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(tally.latency) >= MIN_JOBS) or elapsed >= HARD_STOP_S:
            return tally


def traced_run(wl, env, pools, seed: int, spans_file: Path):
    """The seed's first jobs, each run untraced and traced back to back.

    The order of the two runs alternates from job to job, so a drift in
    machine speed falls on both sides of trace.overhead_frac alike.
    """
    from spans import Tracer, layer_metrics

    jobs = []
    for deck in wl.decks(pools, random.Random(f"{wl.name}/{seed}/order")):
        jobs.extend(deck)
        if len(jobs) >= wl.trace_jobs:
            break
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    out_bytes = 0
    t0 = perf_counter()
    for j, job in enumerate(jobs):
        for on in ((False, True) if j % 2 == 0 else (True, False)):
            if not on:
                plain.run(wl, env, job)
                continue
            before = env.out_bytes
            tracer.install()
            try:
                traced.run(wl, env, job, tracer)
            finally:
                tracer.uninstall()
            out_bytes += env.out_bytes - before
    metrics, by_layer = layer_metrics(tracer, [job.size for job in jobs])
    plain_s, traced_s = sum(plain.latency), sum(traced.latency)
    metrics["cli.out_bytes"] = out_bytes
    metrics["trace.overhead_frac"] = 1 - plain_s / traced_s
    metrics["trace.coverage"] = sum(by_layer.values()) / traced_s
    spans_file.parent.mkdir(exist_ok=True)
    tracer.dump(spans_file, t0)
    return plain, traced, metrics, by_layer


def failure_lines(wl, env, tally: Tally) -> list[str]:
    """Failed jobs grouped by status, family and size, with a witness."""
    groups: dict[tuple, list] = defaultdict(list)
    for job, status, reason in tally.outcomes:
        if status != "ok":
            groups[(status, job.family, job.size)].append((job, reason))
    lines = []
    for (status, family, size), items in sorted(groups.items()):
        job, reason = items[0]
        label = "standing failure" if status == "standing" else "WRONG"
        detail = wl.diagnose(job, env) if status == "standing" else reason
        lines.append(f"  {label}: {wl.name} {family} size {size}: {len(items)} job(s); {detail}")
    return lines


def _fmt_metric(name: str, value, unit: str, note: str = "") -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<36} {shown:>14} {unit:<6} {note}"


def result_line(tally: Tally, metrics: dict, units: dict) -> str:
    wrong = tally.count("wrong")
    failed = wrong + tally.count("standing")
    payload = {
        "correct": wrong == 0,
        "attempted": len(tally.outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return json.dumps(payload)


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        env, pools, setups = set_up(wl, args.seed, work)
        _say(f"linkfold benchmark: workload {wl.name}, seed {args.seed}, trace {args.trace}")
        _say(f"  size classes {wl.sizes} drawn 8/9/3 per deck of 20 (40/45/15 %)")
        if args.trace:
            spans_file = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.jsonl"
            plain, tally, metrics, by_layer = traced_run(wl, env, pools, args.seed, spans_file)
            traced_s = sum(tally.latency)
            _say(f"  {len(tally.latency)} jobs: untraced {sum(plain.latency):.3f} s, traced {traced_s:.3f} s")
            _say(f"  spans written to {spans_file.relative_to(ROOT)}")
            _say("  self time by layer (s, share of traced wall clock):")
            for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
                _say(f"    {layer:<14} {t:10.4f}  {t / traced_s:6.1%}")
            for name, unit in PER_LAYER.items():
                _say(_fmt_metric(name, metrics[name], unit))
            units = PER_LAYER
        else:
            tally = timed_run(wl, env, pools, args.seed, args.seconds)
            lat = tally.latency
            n = len(lat)
            errors = n - tally.count("ok")
            metrics = {
                "setup_s": statistics.median(setups),
                "jobs_per_s": n / sum(lat),
                "job_ms_p50": 1000 * statistics.median(lat),
                "job_ms_p90": 1000 * statistics.quantiles(lat, n=10)[8],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "success_rate": 1 - errors / n,
            }
            notes = {
                "setup_s": f"median of {len(setups)} set-ups: " + " ".join(f"{t:.3f}" for t in setups),
                "jobs_per_s": f"{n} jobs in {sum(lat):.3f} s timed",
                "job_ms_p50": f"n={n}",
                "job_ms_p90": f"n={n}, {sum(1 for t in lat if 1000 * t > metrics['job_ms_p90'])} beyond",
                "peak_rss_mb": "ru_maxrss of this process",
                "success_rate": f"error_rate {errors / n:.4f} ({errors} of {n})",
            }
            for name, unit in END_TO_END.items():
                _say(_fmt_metric(name, metrics[name], unit, notes[name]))
            units = END_TO_END
        for line in failure_lines(wl, env, tally):
            _say(line)
        _say(result_line(tally, metrics, units))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so memory and set-up are its own."""
    summary = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            _say(line)
        if proc.returncode != 0 or not lines:
            _say(f"workload {name} exited {proc.returncode}")
            return 1
        summary[name] = json.loads(lines[-1])
    _say(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "linkfold" / "cli.py").is_file():
        print(f"bench: no linkfold sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

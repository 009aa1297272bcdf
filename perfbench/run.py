#!/usr/bin/env python3
"""The homhom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-n6-all --seed 1 --seconds 10 --trace 0

Run from anywhere inside a homhom checkout; the program is imported from
the checkout's ``src``.  Workloads, metrics and their reasons are listed in
``BENCHMARK.json`` and ``perfbench/README.md``.

With ``--trace 0`` the run measures set-up time in fresh processes, then
repeats full passes over the workload for ``--seconds`` (at least one pass)
and reports the end-to-end metrics in reference seconds (see ``speed.py``).
With ``--trace 1`` it makes one untraced pass and two traced passes,
asserts that the two traced passes did exactly the same work, reports the
per-layer metrics of the first and writes its spans to ``.perfbench_out/``.
Either way every pass is checked as soon as it ends, outside its timing;
the last line of standard output is one JSON object, and the exit status is
1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from check import Check, Checker
from stats import failed_fraction, graph_time_summary
from tracer import Tracer, layer_metrics, per_layer_metric_names
from workloads import WORKLOADS, Workload, build, import_homhom, run_pass

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# A run must end within 180 s.  The traced run of classify-named takes
# 100-125 s on a 2-core box; on a much slower machine it skips its second
# traced pass rather than overrun.
TRACE_BUDGET_S = 160

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("graph_ms_p50", "ms"),
    ("graph_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("decided_frac", "ratio"),
)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it has imported
    homhom and built the workload's inputs, ``SETUP_REPEATS`` times after
    one untimed start that fills the bytecode cache; and the calibration
    loop's times, taken between the starts."""
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "setup_child.py"), workload, str(seed)]
    setup, loops = [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False, cwd=ROOT)
        if proc.returncode != 0 or not proc.stdout.startswith("ready "):
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        if i:
            setup.append((int(proc.stdout.split()[1]) - t0) / 1e9)
        loops += [speed.loop_s(), speed.loop_s()]
    return setup, loops


def print_table(rows: list[tuple[str, float, str, str]]) -> None:
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} {note}")


def timed_run(workload: Workload, seconds: float, check: Check) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end metrics and a note on each."""
    setup, setup_loops = measure_setup(workload.name, workload.seed)
    checker = Checker(workload)
    walls: list[float] = []
    p50s: list[float] = []
    tails: list[float] = []
    peak_rss_mb = 0.0
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        # Garbage from one pass (the recognizers leave reference cycles) is
        # collected before the next, as a fresh process would start without it.
        gc.collect()
        sampler = speed.Sampler()
        sampler.block()
        result = run_pass(workload, between=sampler)
        sampler.block()
        if not walls:
            # The peak of set-up and one pass, before any check allocates;
            # later passes repeat the same work.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Each graph is scaled by the loop's speed around it; the pass by the
        # graphs' time-weighted scale, which also covers the time between them.
        scales = sampler.graph_scales()
        graph_ns = [t * f for t, f in zip(result.graph_ns, scales)]
        summary = graph_time_summary(graph_ns)
        walls.append(result.wall_ns / 1e9 * sum(graph_ns) / sum(result.graph_ns))
        p50s.append(summary["p50"])
        tails.append(summary["tail"])
        check.add(checker(result))
        del result
    failed_frac = failed_fraction(check.attempted, check.failed)
    metrics = {
        "setup_s": statistics.median(setup) * speed.factor(setup_loops),
        "wall_s": statistics.median(walls),
        "graph_ms_p50": statistics.median(p50s),
        "graph_ms_tail": statistics.median(tails),
        "peak_rss_mb": peak_rss_mb,
        "decided_frac": 1.0 - failed_frac,
    }
    n, tail_p = summary["n"], summary["tail_p"]
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": f"median of {len(walls)} passes",
        "graph_ms_p50": f"{n} graphs a pass, median of {len(walls)} passes",
        "graph_ms_tail": f"p{tail_p} of {n} graphs a pass, median of {len(walls)} passes",
        "peak_rss_mb": "peak resident set of this process after one pass",
        "decided_frac": f"1 - failed_frac; {check.attempted - check.failed} of {check.attempted} decisions",
        "failed_frac": f"{check.failed} of {check.attempted} decisions undecided or raised",
    }
    metrics["failed_frac"] = failed_frac  # printed, not in the result line
    return metrics, notes


def traced_pass(workload: Workload, checker: Checker, check: Check) -> tuple[Tracer, int]:
    """One traced pass, checked; its tracer and wall nanoseconds."""
    tracer = Tracer()
    gc.collect()
    with tracer.installed():
        result = run_pass(workload, tracer)
    check.add(checker(result))
    return tracer, result.wall_ns


def traced_run(workload: Workload, check: Check) -> dict[str, float]:
    """Per-layer metrics of the first of two traced passes, after asserting
    that both did exactly the same work."""
    started = time.perf_counter()
    checker = Checker(workload)
    gc.collect()
    untraced = run_pass(workload)
    check.add(checker(untraced))
    untraced_ns = untraced.wall_ns
    del untraced

    tracer, wall_ns = traced_pass(workload, checker, check)
    metrics = layer_metrics(tracer)
    metrics["trace.wall_s"] = wall_ns / 1e9
    metrics["trace.overhead_s"] = (wall_ns - untraced_ns) / 1e9
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.tsv.gz"))
    counts = tracer.work_counts()
    del tracer

    if time.perf_counter() - started + wall_ns / 1e9 > TRACE_BUDGET_S:
        print("note: no time for the second traced pass; counts not compared", file=sys.stderr)
        return metrics
    again = traced_pass(workload, checker, check)[0].work_counts()
    if again != counts:
        differ = sorted(k for k in counts.keys() | again.keys() if counts.get(k) != again.get(k))
        check.errors.append(f"the two traced passes differ in deterministic counts: {', '.join(differ[:10])}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_homhom()
    workload = build(args.workload, args.seed)
    check = Check()
    print(f"workload {workload.name}  seed {workload.seed}  trace {args.trace}")
    if args.trace:
        units = dict(per_layer_metric_names())
        metrics = traced_run(workload, check)
        print_table([(k, v, units[k], "") for k, v in metrics.items()])
    else:
        units = dict(END_TO_END)
        metrics, notes = timed_run(workload, args.seconds, check)
        print_table([(k, v, units.get(k, "ratio"), notes[k]) for k, v in metrics.items()])
        del metrics["failed_frac"]

    for line in check.errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    for line in check.failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    correct = not check.errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": check.attempted,
                "failed": check.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

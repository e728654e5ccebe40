"""Benchmark of the soccer lab, one workload per process.

    python3 perfbench/run.py --workload train-ff --seed 1 --seconds 40 --trace 0

Workloads: train-ff, train-lstm, evaluate (see README.md). The run sets up
once, then repeats the workload's unit of fixed work, with the same seed,
for as many whole units as fit in --seconds (at least one). It checks the
outputs of the first unit, requires every later unit to write the same
bytes, and prints one JSON object as its last line:

    --trace 0: setup_s, run_s (fastest unit), env_steps_per_s, peak_rss_mib
    --trace 1: per-layer calls, self times and counts of the fastest unit
               and traced.run_s; spans go to .perfbench/<workload>/spans.ndjson

The lab is imported from src/ of the checkout this file sits in.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: all timed work runs in one process, with one worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def process_age() -> float:
    """Seconds since this process started, from /proc/self/stat."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        after_name = fh.read().rsplit(")", 1)[1].split()
    started = int(after_name[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def import_lab():
    sys.path.insert(0, str(ROOT / "src"))
    import soccerlab.cli

    location = Path(soccerlab.cli.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise ImportError(f"soccerlab was imported from {location}, not from {ROOT / 'src'}")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_lab()
    import tracing
    import workloads

    out = ROOT / ".perfbench" / workload_name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = workloads.WORKLOADS[workload_name](workload_name, seed, out)
    workload.setup()
    setup_s = process_age()

    tracer = tracing.Tracer(spans=trace)
    tracer.install()
    unit_dir = out / "unit"
    times, layers, all_spans = [], [], []
    attempted = failed = 0
    errors: list[str] = []
    first = None
    started = time.perf_counter()
    while True:
        # Every unit starts from the same heap, as a fresh process would:
        # the lab's autodiff graphs are freed by the cyclic collector, so
        # leftovers of one unit would otherwise move the next one's time and
        # memory peak.
        gc.collect()
        t0 = time.perf_counter()
        outcome = workload.unit(unit_dir, tracer.counts)
        times.append(time.perf_counter() - t0)
        spans, counts = tracer.take()
        attempted += outcome.attempted
        failed += outcome.failed
        if first is None:
            first = outcome, counts
            if outcome.failed == 0:
                errors += workload.check(unit_dir, counts)
        elif outcome.digests != first[0].digests or counts["env.steps"] != first[1]["env.steps"]:
            errors.append(f"unit {len(times)} differs from unit 1 with the same seed")
        if trace:
            layers.append(tracing.layer_metrics(spans, counts))
            all_spans.extend(spans)
        if time.perf_counter() - started + statistics.median(times) > seconds:
            break
    peak = peak_rss_mib()
    tracer.uninstall()
    more_attempted, more_failed, more_errors = workload.after(unit_dir, first[0].digests)
    attempted += more_attempted
    failed += more_failed
    errors += more_errors

    for name, value in sorted(first[0].digests.items()):
        print(f"digest {name} {value}")
    print(f"units {len(times)}: " + " ".join(f"{t:.3f}" for t in times))
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    # The host's speed drifts by tens of percent over seconds, and every unit
    # does the same work, so the fastest unit is the steadiest figure of it.
    run_s = min(times)
    if trace:
        tracing.write_spans(out / "spans.ndjson", all_spans)
        units = tracing.metric_units()
        fastest = layers[times.index(run_s)]
        metrics = {name: {"value": fastest[name], "unit": unit} for name, unit in units.items()}
        metrics["traced.run_s"] = {"value": run_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "env_steps_per_s": {"value": first[1]["env.steps"] / run_s, "unit": "steps/s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train-ff", "train-lstm", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded benchmark of the bsplace pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the package is imported from its
`src/` directory. NAME is one of the workloads in BENCHMARK.json, or `all`,
which runs each workload in its own process.

With `--trace 0` the run sets the workload up three times, then repeats the
timed section for S seconds and reports `wall_s`, `setup_s` and the
process's peak resident memory. Each timed unit (a tile, or one search run)
is bracketed by a fixed reference kernel and its time is scaled to the
kernel's nominal speed (see reference.py); `wall_s` sums the units' median
scaled times, and `setup_s` is the median scaled setup time. The unscaled
figures are printed too. With `--trace 1` it sets up once with the layer
wrappers installed, runs half of S without wrappers and half with them, and
reports the per-layer metrics (unscaled) as medians over the traced
repetitions. Either way the outputs of the last repetition are checked
against the package's scalar oracles outside the timed section; each failed
check is a failed operation.

Every metric is printed as `name value unit`; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Scratch files
go to `.perfbench/` in the checkout; the span dump of a traced run stays
there as `trace-<workload>-<seed>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from reference import NOMINAL_S, Reference

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
SETUP_REPS = 3
MIN_REPS = 3


def timed(fn, ref: Reference):
    """Run `fn()`; return its result, its time, and its time scaled to the
    reference speed measured right before and right after it."""
    before = ref.seconds()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, elapsed * NOMINAL_S / ((before + ref.seconds()) / 2)


def measure(workload, state, seconds: float, ref: Reference, rep_span=contextlib.nullcontext):
    """Repeat the workload's timed section for `seconds` (at least MIN_REPS times).

    Each unit of a repetition is timed on its own and scaled by the
    reference speed measured around it. Returns the section's raw and scaled
    time (the sums over units of their median times), the number of
    repetitions, the number of failed units, and the unit results of the
    last repetition that completed.
    """
    raw, scaled = defaultdict(list), defaultdict(list)
    reps, failures, result = 0, 0, None
    deadline = time.perf_counter() + seconds
    while reps < MIN_REPS or time.perf_counter() < deadline:
        reps += 1
        outputs = []
        with rep_span():
            # units() runs inside the span so that it binds any installed wrappers
            for k, unit in enumerate(workload.units(state)):
                try:
                    output, elapsed, elapsed_scaled = timed(unit, ref)
                except Exception:
                    traceback.print_exc()
                    failures += 1
                    break
                outputs.append(output)
                raw[k].append(elapsed)
                scaled[k].append(elapsed_scaled)
            else:
                result = outputs
    return _sum_of_medians(raw), _sum_of_medians(scaled), reps, failures, result


def _sum_of_medians(times_by_unit) -> float:
    return sum(statistics.median(times) for times in times_by_unit.values())


def untraced(workload, seed: int, seconds: float, workdir: Path):
    ref = Reference()
    setups = [timed(lambda: workload.setup(seed, workdir), ref) for _ in range(SETUP_REPS)]
    state = setups[-1][0]
    raw, scaled, reps, failures, result = measure(workload, state, seconds, ref)
    print(f"raw wall_s {raw!r} s, raw setup_s "
          f"{statistics.median(t for _, t, _ in setups)!r} s (not scaled)")
    metrics = {"wall_s": scaled, "setup_s": statistics.median(s for _, _, s in setups)}
    return state, result, reps, failures, metrics


def traced(workload, name: str, seed: int, seconds: float, workdir: Path):
    import layers
    from spans import SpanRecorder, installed, self_times

    rec = SpanRecorder()
    with installed(rec, layers.targets()):
        with rec.span("setup"):
            state = workload.setup(seed, workdir)
    setup_end = len(rec.spans)
    ref = Reference()
    _, plain_wall, plain_reps, plain_failures, _ = measure(workload, state, seconds / 2, ref)
    with installed(rec, layers.targets()):
        _, traced_wall, reps, failures, result = measure(
            workload, state, seconds / 2, ref, lambda: rec.span("rep"))

    own = self_times(rec.spans)
    starts = [i for i in range(setup_end, len(rec.spans)) if rec.spans[i].parent is None]
    per_rep = [layers.span_metrics(rec.spans, own, lo, hi)
               for lo, hi in zip(starts, starts[1:] + [len(rec.spans)])]
    # median_low keeps exact counts exact: it always picks an observed value
    metrics = {key: statistics.median_low(m[key] for m in per_rep) for key in per_rep[0]}
    metrics["eval_report.generate_s"] = sum(
        s.end - s.start for s in rec.spans[:setup_end]
        if s.name == "eval_report.generate_synthetic_scene")
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    SCRATCH.mkdir(exist_ok=True)
    rec.dump(SCRATCH / f"trace-{name}-{seed}.json")

    extra_checks = []
    metrics["radio.table_threads2_s"] = 0.0
    if name == "linktable" and result is not None:
        threads = min(2, len(os.sched_getaffinity(0)))
        start = time.perf_counter()
        tables = [unit() for unit in workload.units(state, threads=threads)]
        metrics["radio.table_threads2_s"] = time.perf_counter() - start
        extra_checks = [bool((a.rx_dbm == b.rx_dbm).all()) for a, b in zip(tables, result)]
    return state, result, reps + plain_reps, failures + plain_failures, metrics, extra_checks


def run_one(args, spec) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = SCRATCH / f"work-{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        if args.trace:
            state, result, reps, failures, metrics, checks = traced(
                workload, args.workload, args.seed, args.seconds, workdir)
        else:
            state, result, reps, failures, metrics = untraced(
                workload, args.seed, args.seconds, workdir)
            checks = []
        if result is not None:
            checks += workload.check(state, result)
            sizes = workload.sizes(state, result)
        else:
            sizes = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {reps} timed repetitions, "
          f"sizes {json.dumps(sizes)}")
    if args.trace:
        for key in ("cells", "prisms", "users", "candidates"):
            metrics[f"scene.{key}"] = sizes.get(key, 0)
        for key in ("archive_size", "generations", "front_hv"):
            metrics[f"optimizer.{key}"] = sizes.get(key, 0)
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if "front_hv" in sizes:
            print(f"front_hv {sizes['front_hv']!r} dB.site (optimizer.front_hv in the traced run)")

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           "both measured and listed in BENCHMARK.json")
    for key in units:
        print(f"{key} {metrics[key]!r} {units[key]}")
    failed = failures + checks.count(False) + (result is None)
    return {"correct": failed == 0, "attempted": reps + len(checks), "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units}}


def run_all(args, spec) -> dict:
    """Every workload in a child process of its own, so each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", workload["name"], "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{workload['name']}.{key}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "bsplace" / "__init__.py").is_file():
        print(f"error: package source {src / 'bsplace'} not found; run from a checkout",
              file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names} or all")
    sys.path.insert(0, str(src))
    import bsplace
    if Path(bsplace.__file__).resolve().parent != (src / "bsplace").resolve():
        print(f"error: imported bsplace from {bsplace.__file__}, not {src}", file=sys.stderr)
        return 1

    result = run_all(args, spec) if args.workload == "all" else run_one(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the mildsing package: one workload per process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  A run repeats timed passes of the workload until
``--seconds`` have passed (at least two passes).  Before each pass, and
once more after the last, it sets the inputs up ``SETUPS_PER_BATCH`` times;
``setup_s`` is the median over all these set-ups.  On a shared machine the
speed of a set-up of a few tens of milliseconds changes from second to
second, so the samples are spread over the whole run.  Every pass's outputs
are checked against computations the package does not make, and one JSON
object is printed as the last line of standard output.  ``--trace 1`` instead makes one plain
pass, then a traced set-up and a traced pass, and reports the per-layer
metrics and the tracing overhead; its spans go to ``bench/out/trace/``.
Exit code 0 when every check passed, 1 when one failed, 2 when the package
cannot be set up.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")
SETUPS_PER_BATCH = 3
MIN_PASSES = 2


def import_package():
    """Import ``mildsing`` and its CLI afresh from the checkout's ``src/`` (never an installed copy)."""
    src = os.path.join(ROOT, "src")
    for name in [m for m in sys.modules if m == "mildsing" or m.startswith("mildsing.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    ms = importlib.import_module("mildsing")
    importlib.import_module("mildsing.cli")
    if not os.path.abspath(ms.__file__).startswith(src + os.sep):
        raise ImportError(f"mildsing came from {ms.__file__}, not from {src}")
    return ms


def set_up(workload, seed: int, count: int = 1):
    """Import the package and build the inputs ``count`` times; keep the last.

    The modules dropped by the previous import are collected first, untimed:
    a single import in a fresh process has no such garbage to collect.
    """
    times = []
    for _ in range(count):
        gc.collect()
        t0 = time.perf_counter()
        ms = import_package()
        inputs = workload.setup(ms, seed)
        times.append(time.perf_counter() - t0)
    return ms, inputs, times


def timed_pass(workload, ms, inputs, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    w0, c0 = time.perf_counter(), time.process_time()
    result = workload.run(ms, inputs, out_dir)
    return result, time.perf_counter() - w0, time.process_time() - c0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    available = workloads.all_workloads(ROOT)
    if args.workload not in available:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(available)}")
    workload = available[args.workload]

    try:
        # this first set-up also loads numpy and scipy, so it is not a sample
        ms, inputs, _ = set_up(workload, args.seed)
    except (ImportError, OSError) as exc:
        print(f"cannot set up {workload.name}: {exc}", file=sys.stderr)
        return 2
    run_dir = os.path.join(OUT, f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    first_dir = os.path.join(run_dir, "pass0")
    checked, setup_times = [], []
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "setup_s": setup_times, "passes": checked}
    attempted = failed = 0

    def one_pass(ms, inputs, tracer=None):
        nonlocal attempted, failed
        k = len(checked)
        out_dir = os.path.join(run_dir, f"pass{k}")
        if tracer is None:
            result, wall, cpu = timed_pass(workload, ms, inputs, out_dir)
        else:
            with tracer.install(), tracer.span("bench.pass"):
                result, wall, cpu = timed_pass(workload, ms, inputs, out_dir)
        n_failed, record = workload.check(inputs, result, out_dir, first_dir)
        attempted += workload.ops_per_pass
        failed += n_failed
        checked.append({"pass": k, "traced": tracer is not None, "wall_s": wall,
                        "cpu_s": cpu, "failed": n_failed, **record})

    if args.trace:
        one_pass(ms, inputs)
        tracer = tracing.Tracer()
        with tracer.install(), tracer.span("bench.setup"):
            traced_inputs = workload.setup(ms, args.seed)
        one_pass(ms, traced_inputs, tracer)
        tracer.write(os.path.join(OUT, "trace", f"{workload.name}-seed{args.seed}.jsonl"))
        report["boundaries_not_found"] = tracer.missing
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = (checked[1]["wall_s"] - checked[0]["wall_s"], "s")
    else:
        t_start = time.perf_counter()
        while len(checked) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
            ms, inputs, times = set_up(workload, args.seed, SETUPS_PER_BATCH)
            setup_times += times
            one_pass(ms, inputs)
        setup_times += set_up(workload, args.seed, SETUPS_PER_BATCH)[2]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.median(c["wall_s"] for c in checked), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "cpu_s": (statistics.median(c["cpu_s"] for c in checked), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }

    problems = [p for rec in checked for p in rec.get("problems", [])]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"checks-{workload.name}-seed{args.seed}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=repr)
    shutil.rmtree(run_dir, ignore_errors=True)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

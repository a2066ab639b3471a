"""Benchmark runner for nislie.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nislie is imported from ./src.
Builds the workload's inputs twice before every pass (set-up time is the
median), and runs passes until S seconds have gone by.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
passes alternate untraced and traced and the metrics are per layer.  The
line before it gives the same run in detail, under the workload's own
metric names.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS_PER_PASS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_nislie():
    """Import nislie from this checkout's ./src and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nislie", "__init__.py")):
        raise SystemExit(f"perfbench: no nislie sources under {src}")
    sys.path.insert(0, src)
    import nislie

    if os.path.dirname(os.path.dirname(os.path.abspath(nislie.__file__))) != src:
        raise SystemExit(f"perfbench: imported nislie from {nislie.__file__}, not {src}")


def part_median(passes, part):
    """Median over every sample of one part in the given passes."""
    return statistics.median(dt for samples in passes for p, dt in samples if p == part)


def pass_median(passes):
    return statistics.median(sum(dt for _, dt in samples) for samples in passes)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_nislie()
    import tracing
    from workloads import PARTS, WORKLOADS, Tally

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workdir = os.path.join(ROOT, ".perfbench_tmp", f"{workload.name}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    # a traced run needs an untraced and a traced pass
    min_passes = 2 if tracer else 1
    try:
        setup_s = []
        samples = []  # (traced, [(part, seconds), ...]) per pass
        tally = Tally()
        start = time.perf_counter()
        while len(samples) < min_passes or time.perf_counter() - start < args.seconds:
            # set-ups spread over the run sample the host's slow and fast spells
            for _ in range(SETUPS_PER_PASS):
                traced = tracer is not None and not setup_s
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                state = workload.setup(args.seed, workdir)
                setup_s.append(time.perf_counter() - t0)
                if traced:
                    tracer.uninstall()
            traced = tracer is not None and len(samples) % 2 == 1
            tally.counts.clear()
            if traced:
                tracer.phase = f"pass{len(samples)}"
                tracer.install()
            try:
                samples.append((traced, workload.run_pass(state, tally)))
            finally:
                if traced:
                    tracer.uninstall()
    finally:
        shutil.rmtree(os.path.dirname(workdir), ignore_errors=True)

    plain = [s for traced, s in samples if not traced]
    medians = {part: part_median(plain, part) for part in PARTS}
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s_samples": setup_s,
        "passes": len(plain),
        "pass_s": pass_median(plain),
        "pass_s_samples": [sum(dt for _, dt in s) for s in plain],
        "part_samples": {part: [dt for s in plain for p, dt in s if p == part] for part in PARTS},
        **{name: sum(medians[p] for p in parts) for name, parts in workload.NAMED.items()},
        **{name: count / medians[part] for name, (count, part) in workload.RATES.items()},
        "failed_ratio": tally.failed / tally.attempted,
        "failures": dict(tally.failures),
        "errors": tally.errors,
        "counts": dict(tally.counts),
    }
    if tracer:
        traced = [s for t, s in samples if t]
        phases = [f"pass{i}" for i, (t, _) in enumerate(samples) if t]
        metrics = tracing.per_layer_metrics(tracer, phases)
        traced_pass = pass_median(traced)
        metrics["trace.pass_s"] = {"value": traced_pass, "unit": "s"}
        metrics["trace.untraced_pass_s"] = {"value": detail["pass_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_pass - detail["pass_s"], "unit": "s"}
        detail["traced_passes"] = len(traced)
        detail["spans"] = len(tracer.spans)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "pass_s": {"value": detail["pass_s"], "unit": "s"},
            **{f"{part}_s": {"value": medians[part], "unit": "s"} for part in PARTS},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

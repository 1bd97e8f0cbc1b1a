"""entfrac benchmark: one workload per run, every end-to-end metric per run.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; entfrac is imported from ``src/``.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones: the named workload runs for most of the time, and
one round of each other workload measures their metrics too.  With
``--trace 1`` a fixed number of rounds of the named workload runs under the
per-layer tracer, and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# single-threaded numpy, set before anything imports it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")

# fresh interpreters timed per run for setup_s
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def end_to_end_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "analyze", "identity_suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that import entfrac, make the
    workload's inputs and run its warm-up operation, then exit."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
    return statistics.median(times)


def timed_run(kinds, native, seconds: float) -> dict[str, float]:
    """Whole rounds of the named workload while the next round is expected
    to end within ``seconds``, with the other workloads' operations spread
    evenly over that time, so that each metric samples the whole run."""
    pieces = sorted(
        ((k + 0.5) / kind.companion_ops(), kind.name, kind)
        for kind in kinds.values() if kind is not native
        for k in range(kind.companion_ops())
    )
    size = native.round_size()
    start = time.perf_counter()
    rounds = done_in_round = 0
    round_start = start
    last_round = 0.0
    while True:
        now = time.perf_counter()
        if pieces and now >= start + seconds * pieces[0][0]:
            pieces.pop(0)[2].run_op(counted=False)
            continue
        if done_in_round == 0:
            if rounds >= native.min_rounds and now + last_round > start + seconds:
                break
            round_start = now
        native.run_op()
        done_in_round += 1
        if done_in_round == size:
            rounds += 1
            done_in_round = 0
            last_round = time.perf_counter() - round_start
    for _, _, kind in pieces:
        kind.run_op(counted=False)
    metrics = {}
    for kind in kinds.values():
        metrics.update(kind.metrics())
    return metrics


def traced_run(native):
    import tracing

    with tracing.Tracer() as tracer:
        for _ in range(native.trace_rounds):
            native.run_round(before_op=lambda: setattr(tracer, "op", tracer.op + 1))
    metrics = tracer.metrics(native.attempted)
    if tracer.missing:
        print(f"trace: missing targets {', '.join(tracer.missing)}", file=sys.stderr)
    doc = {
        "workload": native.name,
        "operations": native.attempted,
        "missing": tracer.missing,
        "end_to_end_traced": native.metrics(),
        "per_layer": metrics,
        "spans": [dict(zip(("id", "parent", "op", "layer", "start_ns", "end_ns"), s)) for s in tracer.spans],
    }
    with open(os.path.join(OUT, f"trace_{native.name}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    print(f"trace: traced end-to-end {json.dumps(doc['end_to_end_traced'])}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "entfrac", "cli.py")):
        print(f"perfbench: no entfrac sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if args.setup_probe:
            import workloads

            workloads.WORKLOADS[args.workload](os.path.join(workdir, args.workload), args.seed).prepare()
            return 0
        setup_s = None if args.trace else setup_seconds(args)
        import workloads

        kinds = {
            name: cls(os.path.join(workdir, name), args.seed)
            for name, cls in workloads.WORKLOADS.items()
            if not args.trace or name == args.workload
        }
        native = kinds[args.workload]
        native.prepare()
        for kind in kinds.values():
            if kind is not native:
                kind.prepare()
        if args.trace:
            metrics = traced_run(native)
        else:
            values = timed_run(kinds, native, args.seconds)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end_units().items()}
        errors = [e for kind in kinds.values() for e in kind.errors]
        for line in errors[:20]:
            print(f"check: {line}", file=sys.stderr)
        for line in sorted(set(native.failures)):
            print(f"failed: {line}", file=sys.stderr)
        print(json.dumps({
            "correct": not errors,
            "attempted": native.attempted,
            "failed": native.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

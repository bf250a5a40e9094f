"""qscontrol benchmark: time to a verified result, per workload.

Run from the root of a checkout (the program is used from ``src/``, no
install step):

    python3 bench/run.py --workload rf-dominance --seed 1 --seconds 16 --trace 0

Workloads are defined in ``workloads.py``; each runs in its own process.
An untraced run measures set-up (``SETUP_SAMPLES`` fresh processes, each
timed from spawn until the first timed call could start), then repeats
passes back to back -- batch work, no request arrivals -- for at least
``--seconds`` and ``MIN_PASSES`` passes.  Times are scaled to nominal
machine speed by a probe run around them (``fingerprint.SpeedProbe``).
Every pass is checked with the tolerances the package applies, and the
exact counts of each pass must repeat bit for bit.

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb, checks_passed).  ``--trace 1`` runs untraced passes for half
the time, then traced passes (see ``spans.py``) for the other half, and
reports the per-layer metrics, including the tracing overhead.  The last
line of standard output is the result as one JSON object; the full
record, with pass times, the machine fingerprint and (traced) the spans,
goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("rf-dominance", "rf-long-horizon", "cli-kinds", "oracles")
SETUP_SAMPLES = 3
MIN_PASSES = 3
# no new pass starts if it could end after this many seconds of the run
DEADLINE_S = 150.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: on a shared machine a threaded GEMM waits for its slowest
# thread, so its time follows the neighbours' load
BLAS_THREADS = 1
STARTED = time.perf_counter()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mini", action="store_true",
                        help="minimal-size inputs (used by the self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (a set-up sample)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def set_up(args, work):
    """Imports, inputs and a warm-up pass at minimal size: everything
    before the first timed call."""
    from workloads import WORKLOADS as DEFINED, Tally, clear_caches

    workload = DEFINED[args.workload]
    inputs = workload.build(args.seed, args.mini)
    clear_caches()
    workload.run_pass(workload.build(args.seed, True), Tally(), work)
    return workload, inputs


def setup_sample(argv):
    """Seconds from spawning a fresh process until it is ready to time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up sample failed (exit code {code})")
    return elapsed


def run_passes(workload, inputs, tally, work, seconds, min_passes, probe, tracer=None,
               first_id=0):
    """Passes back to back until ``seconds`` and ``min_passes`` are both
    met, with a speed probe before the first pass and after each one.

    Returns raw pass times, speed factors and each pass's exact counts."""
    from workloads import clear_caches

    walls, probes, counts = [], [probe.run()], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        if walls and time.perf_counter() - STARTED + max(walls) > DEADLINE_S:
            break
        clear_caches()
        gc.collect()
        if tracer is not None:
            tracer.begin_pass(first_id + len(walls))
        t0 = time.perf_counter()
        counts.append(workload.run_pass(inputs, tally, work))
        walls.append(time.perf_counter() - t0)
        probes.append(probe.run())
    factors = [probe.factor(a, b) for a, b in zip(probes, probes[1:])]
    return walls, factors, counts


def require_repeats(tally, per_pass):
    """One check per exact count: it must be equal in every pass."""
    for key in sorted(set().union(*per_pass)):
        values = [p.get(key) for p in per_pass]
        tally.require(f"count {key} repeats between passes", all(v == values[0] for v in values),
                      f"values {values}")


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def result_line(tally, metrics):
    """The benchmark's last output line."""
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def scaled(times, factors):
    """Times at nominal machine speed (see ``fingerprint.SpeedProbe``)."""
    return [t * f for t, f in zip(times, factors)]


def end_to_end(tally, walls, setup_samples):
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "checks_passed": ((tally.attempted - tally.failed) / tally.attempted, "share"),
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qscontrol" / "__init__.py").is_file():
        print(f"error: no qscontrol sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            set_up(args, work)
            print("ready", flush=True)
            return 0
        return measure(args, argv, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, argv, work):
    from fingerprint import SpeedProbe, fingerprint

    probe = SpeedProbe()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "mini": args.mini}
    if not args.trace:
        before = probe.run()
        record["setup_samples"] = [setup_sample(argv) for _ in range(SETUP_SAMPLES)]
        record["setup_factor"] = probe.factor(before, probe.run())
    workload, inputs = set_up(args, work)
    from workloads import Tally

    def pass_times(walls, factors):
        return scaled(walls, factors) if workload.speed_scaled else walls

    tally = Tally()
    if args.trace:
        from spans import Tracer, median_metrics, per_layer_units

        walls, factors, counts = run_passes(workload, inputs, tally, work, args.seconds / 2, 1,
                                            probe)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_factors, traced_counts = run_passes(
                workload, inputs, tally, work, args.seconds / 2, MIN_PASSES, probe, tracer,
                first_id=len(walls))
        finally:
            tracer.uninstall()
        ids = range(len(walls), len(walls) + len(traced))
        require_repeats(tally, counts + traced_counts)
        require_repeats(tally, [tracer.exact_counts(i) for i in ids])
        layer = median_metrics([tracer.pass_metrics(i, w) for i, w in zip(ids, traced)])
        layer["trace.wall_s"] = statistics.median(pass_times(traced, traced_factors))
        layer["trace.untraced_wall_s"] = statistics.median(pass_times(walls, factors))
        layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
        metrics = {name: (layer[name], unit) for name, unit in per_layer_units().items()}
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.write(spans_path)
        record.update({"traced_walls": traced, "traced_factors": traced_factors,
                       "spans_file": str(spans_path.relative_to(ROOT))})
    else:
        walls, factors, counts = run_passes(workload, inputs, tally, work, args.seconds,
                                            MIN_PASSES, probe)
        require_repeats(tally, counts)
        setup = scaled(record["setup_samples"], [record["setup_factor"]] * SETUP_SAMPLES)
        metrics = end_to_end(tally, pass_times(walls, factors), setup)

    times = pass_times(walls, factors)
    record.update({
        "walls": walls,
        "factors": factors,
        "speed_scaled": workload.speed_scaled,
        "wall_s": {"median": statistics.median(times), "p90": nearest_rank(times, 0.9),
                   "passes": len(walls), "raw_median": statistics.median(walls),
                   "raw_p90": nearest_rank(walls, 0.9)},
        "counts": counts[0],
        "failures": tally.failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "fingerprint": fingerprint(BLAS_THREADS),
    })
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    wall = record["wall_s"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(walls)} untraced "
          f"passes; wall_s median {wall['median']:.4f} s, p90 {wall['p90']:.4f} s "
          f"({'scaled to nominal speed' if workload.speed_scaled else 'raw'}); raw median "
          f"{wall['raw_median']:.4f} s, p90 {wall['raw_p90']:.4f} s (nearest rank)")
    print("fingerprint " + json.dumps(record["fingerprint"]))
    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

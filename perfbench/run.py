"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload theta_run --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run sets up the workload several times, runs one untimed warm-up
operation per input variant, then repeats timed operations, cycling
through the variants, until ``--seconds`` of wall time are used and
every variant was measured, and then sets up several times more.
``setup_s`` is the median of these set-ups, each timed as the CPU time
of the imports in a fresh interpreter plus the workload's set-up here.
Host work is timed as CPU time of this single-threaded process, which
excludes time the hypervisor steals.  Every operation's outputs are
checked (see ``workloads.check_cell``); the warm-up operations count as
attempted operations too, and their digests are the reference every
timed operation of the same input is compared with.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` spends half the time on untimed-equivalent operations
without tracing and half with the layer wrappers installed, reports the
per-layer metrics, and writes all spans to
``perfbench/out/<workload>.trace.json.gz`` (gzipped Chrome trace-event
JSON, which Perfetto and chrome://tracing open).
"""

import argparse
import collections
import contextlib
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
#: set-ups before the warm-up and after the timed operations; sampling
#: both ends of the run evens out the machine's drift in speed
SETUPS_BEFORE, SETUPS_AFTER = 4, 5
#: run in a fresh interpreter: the CPU time of start-up plus the imports
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; "
    "import layer_trace, repro, workloads; print(time.process_time())"
)

Op = collections.namedtuple("Op", "variant cpu_s wall_s jobs cells")


def run_op(prepared, variant, checker, traced=None):
    """One timed operation, or None if the program raised."""
    with traced or contextlib.nullcontext():
        gc.collect()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            cells = prepared.run(variant)
        except Exception as exc:  # the program raised: a failed operation
            checker.fail(f"operation raised {type(exc).__name__}: {exc}")
            return None
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
    checker.check(cells)
    return Op(variant, cpu, wall, sum(c.jobs_fed for c in cells), cells)


def set_up(setup, seed, paths):
    """One set-up: ``(CPU seconds, prepared workload)``.

    The imports are timed in a fresh interpreter, as a user's first run
    pays them; timed once in this process they spread by about 20%
    across processes.  The workload's set-up is timed here.
    """
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *paths],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    gc.collect()
    t = time.process_time()
    prepared = setup(seed, OUT_DIR)
    return float(proc.stdout) + time.process_time() - t, prepared


def run_for(seconds, prepared, checker, min_ops=1, traced=None):
    """Timed operations, cycling through the input variants, until
    *seconds* of wall time are used and at least *min_ops* were tried."""
    ops = []
    start = time.monotonic()
    last = 0.0
    tried = 0
    while tried < min_ops or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        op = run_op(prepared, tried % prepared.variants, checker, traced)
        last = time.monotonic() - t
        tried += 1
        if op is not None:
            ops.append(op)
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one thread: the process's CPU time is then the work of one core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import layer_trace
        import repro
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    os.makedirs(OUT_DIR, exist_ok=True)

    # after this process's imports, so the probes find compiled modules
    setup = functools.partial(
        set_up, workloads.WORKLOADS[args.workload], args.seed, [src, HERE]
    )
    setup_times = []
    for _ in range(SETUPS_BEFORE):
        seconds, prepared = setup()
        setup_times.append(seconds)

    # every input once, untimed: each timed digest has a reference
    checker = workloads.Checker()
    for variant in range(prepared.variants):
        try:
            warm = prepared.run(variant)
        except Exception as exc:
            print(f"perfbench: warm-up raised {exc!r}", file=sys.stderr)
            return 1
        checker.check(warm)

    if args.trace:
        ops = run_for(args.seconds / 2, prepared, checker)
        trace = layer_trace.LayerTrace()
        traced_ops = run_for(args.seconds / 2, prepared, checker, traced=trace)
    else:
        # every variant is measured, so the outcomes cover all of them
        ops = run_for(args.seconds, prepared, checker, prepared.variants)
    if not ops or (args.trace and not traced_ops):
        print("perfbench: no operation completed", file=sys.stderr)
        for p in checker.problems[:20]:
            print(f"  {p}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = trace.report(
            traced_s=sum(op.wall_s for op in traced_ops),
            overhead=statistics.median(op.cpu_s for op in traced_ops)
            / statistics.median(op.cpu_s for op in ops),
        )
        units = layer_trace.metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        path = os.path.join(OUT_DIR, f"{args.workload}.trace.json.gz")
        trace.log.write_chrome(path)
        print(f"trace: {len(trace.log)} spans written to {path}")
    else:
        jobs_per_s = statistics.median(op.jobs / op.cpu_s for op in ops)
        # before the later set-ups, which hold a second prepared workload
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += [setup()[0] for _ in range(SETUPS_AFTER)]
        metrics = {
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
        first = {}  # variant -> cells of its first timed operation
        for op in ops:
            first.setdefault(op.variant, op.cells)
        cells = [cell for v in sorted(first) for cell in first[v]]
        for name, (value, unit) in workloads.outcomes(cells).items():
            metrics[name] = {"value": value, "unit": unit}
        info = workloads.outcomes(cells, workloads.INFO_OUTCOMES)
        info = {name: value for name, (value, _) in info.items()}
        print(f"outcomes (not gated): {json.dumps(info)}")
        print(
            f"operations: {len(ops)} timed, cpu_s per op "
            f"{[round(op.cpu_s, 4) for op in ops]}; set-up s "
            f"{[round(t, 4) for t in setup_times]}"
        )
    print(
        f"digest {args.workload} seed={args.seed}: {checker.combined_digest()}"
    )
    for p in checker.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

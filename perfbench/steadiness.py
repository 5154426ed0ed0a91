"""Steadiness report: do two sets of runs of the same code agree?

    python3 perfbench/steadiness.py

Runs ``perfbench/run.py`` once per seed ``1..10`` for every workload of
``BENCHMARK.json`` at its ``run_seconds``, each in a fresh process, then
does it all again as a second set.  For every end-to-end metric it
prints each set's median and quartiles and the spread (third minus
first quartile, as a share of the median).  It checks what a later
change is judged by:

* every spread stays within the metric's bound, and is flagged when
  above a third of it;
* the two sets' medians differ by no more than the bound, in either
  direction, for every metric;
* each seed's simulated outcomes and output digest repeat exactly
  between the sets, and no operation failed.

Exits 1 when any check fails.  Raw results go to
``perfbench/out/steadiness.json``.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
OUTCOMES = (
    "od_instant_rate",
    "rigid_turnaround_h",
    "malleable_turnaround_h",
    "utilization",
)


def run_once(workload, seed, seconds):
    """One benchmark process: (result JSON, digest line)."""
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    digest = next((l for l in lines if l.startswith("digest ")), "")
    return json.loads(lines[-1]), digest.rsplit(" ", 1)[-1]


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, RUNS + 1)

    results = {}  # (set, workload, seed) -> (result, digest)
    for set_no in (1, 2):
        for workload in workloads:
            for seed in seeds:
                results[set_no, workload, seed] = run_once(
                    workload, seed, spec["run_seconds"]
                )
                print(f"set {set_no} {workload} seed {seed} done", flush=True)

    ok = True
    for workload in workloads:
        print(f"\n== {workload}")
        print(
            f"{'metric':24} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12}"
            f" {'spread':>7} {'bound':>6}"
        )
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_no in (1, 2):
                values = [
                    results[set_no, workload, s][0]["metrics"][name]["value"]
                    for s in seeds
                ]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = ""
                if spread > bound:
                    flag, ok = "  SPREAD ABOVE BOUND", False
                elif spread > bound / 3:
                    flag = "  spread above a third of the bound"
                print(
                    f"{name:24} {set_no:>3} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                    f" {spread:7.2%} {bound:6.2f}{flag}"
                )
            change = (medians[1] - medians[0]) / medians[0]
            verdict = "agree" if abs(change) <= bound else "DISAGREE"
            ok = ok and abs(change) <= bound
            print(f"{'':24} set 2 median vs set 1 {change:+.2%}: {verdict}")
        for seed in seeds:
            first, second = (results[n, workload, seed] for n in (1, 2))
            for result, _ in (first, second):
                if result["failed"] or not result["correct"]:
                    ok = False
                    print(f"seed {seed}: {result['failed']} failed operations")
            same = first[1] == second[1] and all(
                first[0]["metrics"][m]["value"] == second[0]["metrics"][m]["value"]
                for m in OUTCOMES
            )
            if not same:
                ok = False
                print(f"seed {seed}: outcomes or digest differ between sets")
        print(
            "outcomes and digests repeat exactly per seed; "
            f"attempted {sum(results[n, workload, s][0]['attempted'] for n in (1, 2) for s in seeds)}, "
            f"failed {sum(results[n, workload, s][0]['failed'] for n in (1, 2) for s in seeds)}"
        )

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as fh:
        json.dump(
            [
                {"set": n, "workload": w, "seed": s, "digest": d, "result": r}
                for (n, w, s), (r, d) in results.items()
            ],
            fh,
            indent=1,
        )
    print("\nsteady: every check passed" if ok else "\nNOT steady: see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The command of BENCHMARK.json:

    python3 benchmark/median_of_three.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark package and runs the workload in three fresh
processes, one after the other, each measuring a third of the seconds; the
last line printed is the result object with the median of each metric.
Where a process's memory happens to land moves all its timings by several
percent, and one process in three may meet a stall of the host; the median
of three is the remedy ISSUE 11 prescribes, and it makes `setup_s` the
median of three set-ups. A traced run (`--trace 1`) reports layer metrics,
which have no bound, and is one process of a third of the seconds.

Run from the root of the checkout. Exits non-zero, without a result line,
if the build or any run fails.
"""

import json
import statistics
import subprocess
import sys

RUNS = 3
BENCHMARK = [
    "cargo", "run", "--release", "--offline", "--quiet",
    "--manifest-path", "benchmark/Cargo.toml", "--",
]  # fmt: skip


def main():
    args = sys.argv[1:]
    traced = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]
    if "--seconds" in args:
        at = args.index("--seconds") + 1
        args[at] = repr(float(args[at]) / RUNS)
    results = []
    for _ in range(1 if traced else RUNS):
        run = subprocess.run(BENCHMARK + args, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(run.stdout)
        if run.returncode != 0:
            sys.exit(run.returncode)
        results.append(json.loads(run.stdout.splitlines()[-1]))
    first = results[0]["metrics"]
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {
                "value": statistics.median(r["metrics"][name]["value"] for r in results),
                "unit": first[name]["unit"],
            }
            for name in first
        },
    }
    print(json.dumps(merged))


if __name__ == "__main__":
    main()

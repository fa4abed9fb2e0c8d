#!/usr/bin/env bash
# Repeatability of the end-to-end metrics: runs the command of
# BENCHMARK.json RUNS times on every workload, each time with another seed,
# and prints per workload and metric the minimum, median and maximum, and
# the spread the driver computes -- the distance between the first and
# third quartile as a share of the median -- against the metric's bound.
#
#   benchmark/repeat.sh [RUNS=10] [FIRST_SEED=1]
#
# Run from the root of the checkout. Exits 1 if a run fails or if a spread
# exceeds its bound.
set -euo pipefail

runs="${1:-10}"
first_seed="${2:-1}"
cd "$(dirname "$0")/.."

contract() { python3 -c "import json; c = json.load(open('BENCHMARK.json')); print($1)"; }
mapfile -t command < <(contract '"\n".join(c["command"])')
seconds="$(contract 'c["run_seconds"]')"
mkdir -p benchmark/out
lines="benchmark/out/repeat-$(date +%Y%m%dT%H%M%S).jsonl"

for workload in $(contract '" ".join(w["name"] for w in c["workloads"])'); do
    for ((seed = first_seed; seed < first_seed + runs; seed++)); do
        if ! result="$("${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"; then
            echo "FAILED: $workload --seed $seed" >&2
            exit 1
        fi
        echo "{\"workload\": \"$workload\", \"seed\": $seed, \"result\": $result}" >>"$lines"
        echo "$workload seed $seed done" >&2
    done
done

python3 - "$lines" <<'EOF'
import json, statistics, sys

bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
values = {}
for line in open(sys.argv[1]):
    run = json.loads(line)
    for name, metric in run["result"]["metrics"].items():
        values.setdefault((run["workload"], name), []).append(metric["value"])

over = 0
print(f'{"workload":<18} {"metric":<14} {"n":>3} {"min":>12} {"median":>12} {"max":>12} {"spread":>8} {"bound":>6}')
for (workload, name), series in values.items():
    median = statistics.median(series)
    if len(series) >= 2:
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
    else:
        spread = 0.0
    flag = ""
    if spread > bounds[name] / 3:
        flag = " above a third of the bound"
    if spread > bounds[name]:
        flag = " ABOVE THE BOUND"
        over += 1
    print(f"{workload:<18} {name:<14} {len(series):>3} {min(series):>12.4f} {median:>12.4f} {max(series):>12.4f} {spread:>8.4f} {bounds[name]:>6.2f}{flag}")
print(f"runs kept in {sys.argv[1]}")
sys.exit(1 if over else 0)
EOF

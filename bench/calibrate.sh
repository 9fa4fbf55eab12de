#!/usr/bin/env bash
# Calibrates the bounds in BENCHMARK.json. It builds the benchmark once,
# then runs every workload K times (default 5), each run on its own seed,
# alternating the workload order from round to round. For each workload
# and end-to-end metric it prints the median, the distance between the
# quartiles (as statistics.quantiles gives them) and the largest spread,
# both as shares of the median, and flags a quartile spread above the
# metric's bound ("OVER"; setup_s excepted) or above a third of it
# ("noisy"). SETS=2 repeats the schedule on the same seeds and also flags
# a second-set median worse than the first by more than the bound.
#
#   bash bench/calibrate.sh              # K=5 SETS=1
#   K=10 SETS=2 SEED0=500 bash bench/calibrate.sh
#
# Results are kept in .bench_build/calibrate/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
K=${K:-5}
SETS=${SETS:-1}
SEED0=${SEED0:-1000}
out=.bench_build/calibrate
rm -rf "$out"
mkdir -p "$out"
read -r secs workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')

bash bench/run.sh --help >/dev/null 2>&1 || true # build once, untimed
for set in $(seq 1 "$SETS"); do
  for i in $(seq 1 "$K"); do
    order=$workloads
    if (( i % 2 == 0 )); then
      order=$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' ')
    fi
    for w in $order; do
      seed=$((SEED0 + i))
      line=$("$root/.bench_build/bench" --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 2>>"$out/stderr" | tail -n 1)
      echo "$line" >>"$out/$w.set$set.jsonl"
      echo "set $set run $i $w seed $seed done" >&2
    done
  done
done

python3 - "$out" "$SETS" <<'EOF'
import json, statistics, sys
out, sets = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
for w in [w["name"] for w in bench["workloads"]]:
    runs = {s: [json.loads(l) for l in open(f"{out}/{w}.set{s}.jsonl")] for s in range(1, sets + 1)}
    bad = sum(1 for rs in runs.values() for r in rs if not r["correct"] or r["failed"])
    print(f"== {w}: {sum(map(len, runs.values()))} runs, {bad} incorrect or failing")
    print(f"  {'metric':20} {'median':>12} {'iqr%':>7} {'max%':>7} {'bound%':>7}" + ("  shift%" if sets > 1 else ""))
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        vals = [r["metrics"][name]["value"] for r in runs[1]]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        iqr, span = (q[2] - q[0]) / med, (max(vals) - min(vals)) / med
        flag = ""
        if name != "setup_s" and iqr > bound:
            flag = " OVER"
        elif name != "setup_s" and iqr > bound / 3:
            flag = " noisy"
        line = f"  {name:20} {med:12.6g} {100*iqr:7.2f} {100*span:7.2f} {100*bound:7.2f}"
        if sets > 1:
            med2 = statistics.median(r["metrics"][name]["value"] for r in runs[2])
            shift = (med2 - med) / med
            worse = -shift if m["better"] == "higher" else shift
            line += f" {100*shift:7.2f}"
            if worse > bound:
                flag += " SHIFT"
        print(line + flag)
EOF

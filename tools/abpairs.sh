#!/usr/bin/env bash
# Runs the end-to-end benchmark of two checkouts in alternating A/B pairs
# and summarises each metric across the pairs:
#
#   tools/abpairs.sh <parent-tree> <change-tree> <workload> <seconds> <seed>...
#
# For every seed it runs each tree's own bench/run.sh once with
# --workload, --seconds, --seed and --trace 0: the parent first on even
# seeds, the change first on odd ones, so drift in the machine's speed
# does not favour one side. The last line each run prints (its JSON
# result) is kept in parent.jsonl and change.jsonl, one line per seed in
# seed order, under $ABPAIRS_OUT (default: a new temporary directory,
# printed first). The summary gives, per metric, the parent's median,
# the change's median, the parent's interquartile range, the pairs in
# which the change did better (a tie counts for neither side), whether
# the two sides' values were identical in every pair, and a verdict,
# reading each metric's direction ("lower" when it names none) and
# bound from the parent tree's BENCHMARK.json. The verdicts, in the
# order they are tried:
#
#   gain        the change wins at least 9 in 10 pairs and its median
#               beats the parent's by more than the parent's IQR;
#   worse       the change's median is worse than the parent's by more
#               than the metric's bound (a fraction of the parent's
#               median; "failed" has bound 0);
#   unresolved  the parent's IQR exceeds the bound (as a fraction of the
#               parent's median), unless every run of the change reads
#               better than every run of the parent;
#   same        otherwise.
#
# A metric without a bound (a per-layer metric) is never worse or
# unresolved. The script only reads BENCHMARK.json.
set -euo pipefail

if [ $# -lt 5 ]; then
  echo "usage: $0 <parent-tree> <change-tree> <workload> <seconds> <seed>..." >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seconds=$4
shift 4

out=${ABPAIRS_OUT:-$(mktemp -d)}
mkdir -p "$out"
: >"$out/parent.jsonl"
: >"$out/change.jsonl"
echo "raw results in $out" >&2

# run <tree> <side> <seed> appends the run's JSON line to <side>.jsonl.
run() {
  local line
  line=$(bash "$1/bench/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
  case $line in
  "{"*) echo "$line" >>"$out/$2.jsonl" ;;
  *)
    echo "$2 run with seed $3 printed no result" >&2
    exit 1
    ;;
  esac
  echo "seed $3 $2 done" >&2
}

for seed in "$@"; do
  if [ $((seed % 2)) -eq 0 ]; then
    run "$parent" parent "$seed"
    run "$change" change "$seed"
  else
    run "$change" change "$seed"
    run "$parent" parent "$seed"
  fi
done

awk '
# FILENAME order: BENCHMARK.json, parent.jsonl, change.jsonl.
FILENAME ~ /BENCHMARK\.json$/ {
  if (match($0, /"name": *"[^"]+"/)) {
    name = substr($0, RSTART, RLENGTH); sub(/"name": *"/, "", name); sub(/"$/, "", name)
    higher[name] = ($0 ~ /"better": *"higher"/)
    if (match($0, /"bound": *[-+0-9.eE]+/)) {
      b = substr($0, RSTART, RLENGTH); sub(/.*: */, "", b)
      bound[name] = b + 0
    }
  }
  next
}
{
  side = (FILENAME ~ /parent\.jsonl$/) ? "p" : "c"
  k = ++runs[side]
  line = $0
  if (match(line, /"failed": *[0-9]+/)) {
    v = substr(line, RSTART, RLENGTH); sub(/.*: */, "", v)
    record("failed", side, k, v)
  }
  while (match(line, /"[A-Za-z0-9_.]+": *\{"value": *[-+0-9.eE]+/)) {
    m = substr(line, RSTART, RLENGTH)
    line = substr(line, RSTART + RLENGTH)
    name = m; sub(/^"/, "", name); sub(/".*/, "", name)
    v = m; sub(/.*"value": */, "", v)
    record(name, side, k, v)
  }
}
function record(name, side, k, v) {
  if (!(name in seen)) { seen[name] = 1; order[++names] = name }
  val[name, side, k] = v + 0
  raw[name, side, k] = v
}
# quantile returns the q-quantile of the n values of name on side,
# interpolating linearly between order statistics.
function quantile(name, side, n, q,    i, j, t, a, pos, lo) {
  for (i = 1; i <= n; i++) a[i] = val[name, side, i]
  for (i = 2; i <= n; i++) {
    t = a[i]
    for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
    a[j + 1] = t
  }
  pos = 1 + (n - 1) * q
  lo = int(pos)
  if (lo >= n) return a[n]
  return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
END {
  n = runs["p"] < runs["c"] ? runs["p"] : runs["c"]
  if (n == 0) exit 1
  bound["failed"] = 0
  printf "%-34s %14s %14s %12s %6s %9s  %s\n", "metric", "parent_med", "change_med", "parent_iqr", "wins", "identical", "verdict"
  for (i = 1; i <= names; i++) {
    name = order[i]
    up = (name in higher && higher[name])
    wins = 0
    same = "yes"
    for (k = 1; k <= n; k++) {
      p = val[name, "p", k]; c = val[name, "c", k]
      if (up ? c > p : c < p) wins++
      if (raw[name, "p", k] != raw[name, "c", k]) same = "no"
    }
    pmed = quantile(name, "p", n, 0.5)
    cmed = quantile(name, "c", n, 0.5)
    iqr = quantile(name, "p", n, 0.75) - quantile(name, "p", n, 0.25)
    better = up ? cmed - pmed : pmed - cmed # how much the change median beats the parent median by
    scale = pmed < 0 ? -pmed : pmed
    # apart: every change run reads better than every parent run.
    apart = up ? quantile(name, "c", n, 0) > quantile(name, "p", n, 1) : quantile(name, "c", n, 1) < quantile(name, "p", n, 0)
    if (wins * 10 >= 9 * n && better > iqr) verdict = "gain"
    else if ((name in bound) && -better > bound[name] * scale) verdict = "worse"
    else if ((name in bound) && iqr > bound[name] * scale && !apart) verdict = "unresolved"
    else verdict = "same"
    printf "%-34s %14.6g %14.6g %12.4g %3d/%-2d %9s  %s\n", name, pmed, cmed, iqr, wins, n, same, verdict
  }
}
' "$parent/BENCHMARK.json" "$out/parent.jsonl" "$out/change.jsonl"

#!/usr/bin/env bash
# Alternating-pairs A/B of the repo benchmark. Runs the BENCHMARK.json
# command for one workload in two checkouts, PAIRS times each, base and
# head in turn (which side goes first alternates from pair to pair, so a
# slow phase of the host lands on both). Then prints, per metric, the base
# median, the head median, head/base, in how many pairs head was the
# better one ("better" as BENCHMARK.json declares it for that metric), and
# the spread of the base runs (upper minus lower quartile): a gain counts
# when head wins nearly every pair and the medians differ by more than it.
#
# Every run must end `correct: true` with 0 failed; otherwise the script
# still prints the table, then exits 1.
#
# usage: scripts/ab.sh BASE_DIR HEAD_DIR WORKLOAD PAIRS [SECONDS [ARGS...]]
#   SECONDS  measured seconds per run (default: BENCHMARK.json's run_seconds)
#   ARGS     more benchmark options, e.g. `--trace 1` for the per-layer
#            metrics or `--seed 2`; the defaults are `--seed 1 --trace 0`
#
# Examples: scripts/ab.sh /tmp/parent . heavy-rq 10
#           scripts/ab.sh /tmp/parent . heavy-rq 3 15 --trace 1
set -euo pipefail

usage="usage: scripts/ab.sh BASE_DIR HEAD_DIR WORKLOAD PAIRS [SECONDS [ARGS...]]"
base="${1:?$usage}"
head="${2:?$usage}"
workload="${3:?$usage}"
pairs="${4:?$usage}"
spec="$head/BENCHMARK.json"
seconds="${5:-$(jq -r '.run_seconds' "$spec")}"
args=("${@:6}")
[[ " ${args[*]} " == *" --seed "* ]] || args+=(--seed 1)
[[ " ${args[*]} " == *" --trace "* ]] || args+=(--trace 0)
mapfile -t cmd < <(jq -r '.command[]' "$spec")

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One run in checkout $2; its result line is appended to $out/$1.jsonl.
# A run that fails its checks still prints that line (and exits 1).
run() {
  local line
  line=$(cd "$2" && "${cmd[@]}" --workload "$workload" --seconds "$seconds" \
    "${args[@]}" | tail -n 1) || true
  if [ -z "$line" ]; then
    echo "ab: a $1 run printed no result line" >&2
    exit 1
  fi
  echo "$line" >> "$out/$1.jsonl"
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$base"
    run head "$head"
  else
    run head "$head"
    run base "$base"
  fi
  echo "ab: pair $i of $pairs done" >&2
done

echo "$workload: $pairs pairs x $seconds s, ${args[*]}"
printf '%-36s %14s %14s %9s %9s %12s\n' metric base head head/base head-won base-iqr
jq -rn --slurpfile spec "$spec" --slurpfile b "$out/base.jsonl" \
  --slurpfile h "$out/head.jsonl" '
  def quantile($p): sort | ((length - 1) * $p) as $x | ($x | floor) as $i
    | if $i + 1 < length then .[$i] + ($x - $i) * (.[$i + 1] - .[$i]) else .[$i] end;
  ($spec[0] | [.end_to_end[], .per_layer[]]
    | map({key: .name, value: .better}) | from_entries) as $better
  | $b[0].metrics | keys_unsorted[] as $m
  | [$b[].metrics[$m].value] as $bv
  | [$h[].metrics[$m].value] as $hv
  | [range(0; $bv | length)
      | select(if $better[$m] == "higher" then $hv[.] > $bv[.]
               else $hv[.] < $bv[.] end)] as $won
  | [$m, ($bv | quantile(0.5)), ($hv | quantile(0.5)), ($won | length), ($bv | length),
     ($bv | quantile(0.75) - quantile(0.25))]
  | @tsv' |
  awk -F'\t' '
    function num(x) { return (x >= 1e4 || x <= -1e4) ? sprintf("%.0f", x) : sprintf("%.4g", x) }
    { ratio = ($2 == 0) ? "-" : sprintf("%.3f", $3 / $2)
      printf "%-36s %14s %14s %9s %9s %12s\n", $1, num($2), num($3), ratio, $4 "/" $5, num($6) }'

bad=$(cat "$out/base.jsonl" "$out/head.jsonl" |
  jq -s 'map(select(.correct != true or .failed != 0)) | length')
if [ "$bad" -ne 0 ]; then
  echo "ab: $bad run(s) not correct or with failed operations" >&2
  exit 1
fi

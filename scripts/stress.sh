#!/usr/bin/env bash
# Runs the three multi-threaded integration binaries N times, each run
# with --no-fail-fast so one red binary cannot hide the others; the first
# red run prints its output and fails the script. ROADMAP item 1 is done
# when `scripts/stress.sh 100` is green on a multicore host.
#
# usage: scripts/stress.sh N
set -euo pipefail

n="${1:?usage: scripts/stress.sh N}"
cd "$(dirname "$0")/.."
tests=(--test concurrent --test scan_concurrent --test sharded_concurrent)

cargo test -q --no-run "${tests[@]}"
for i in $(seq 1 "$n"); do
  if ! out=$(cargo test -q --no-fail-fast "${tests[@]}" 2>&1); then
    printf '%s\n' "$out"
    echo "stress: run $i of $n red" >&2
    exit 1
  fi
done
echo "stress: $n of $n runs green"

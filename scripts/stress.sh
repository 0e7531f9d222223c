#!/usr/bin/env bash
# Runs the multi-threaded test binaries N times on two lanes, each run
# with --no-fail-fast so one red binary cannot hide the others; the first
# red run prints its output and fails the script.
#
#   debug lane    the three concurrency binaries, the SCX-record
#                 reclamation binary (two threads race the release of a
#                 retired node's record against helpers) and the
#                 persistence tests (the persist crate, the sharded map's
#                 persist module and the facade's persist_recovery binary:
#                 the WAL flusher thread races the writers and their
#                 waiters) and the (a,b)-tree's correctness binary (its
#                 key-sum stress races updaters, rebalancing and scans
#                 over plainly routed internal nodes) and the reclamation
#                 crate's unit tests (threads retire, settle and hand
#                 their slots on; the per-slot counters must sum exactly)
#                 and the LLX/SCX crate's tests (threads help SCXs whose
#                 records their creators reuse; a helper's re-check of
#                 the record's sequence number races the reuse)
#                 as Tier-1 builds them;
#   release lane  the same, plus the simulated HTM's opacity tests, built
#                 with --release: optimised timing exposes races the
#                 debug build hides (a torn snapshot showed in 8 of 300
#                 release runs and 0 of 550 debug runs).
#
# usage: scripts/stress.sh N
set -euo pipefail

n="${1:?usage: scripts/stress.sh N}"
cd "$(dirname "$0")/.."
tests=(--test concurrent --test scan_concurrent --test sharded_concurrent --test record_reclaim --test persist_recovery)
wal=(-p threepath-persist)
wal_map=(-p threepath-sharded --lib persist)
abtree=(-p threepath-abtree --test correctness)
reclaim=(-p threepath-reclaim --lib)
llxscx=(-p threepath-llxscx --tests)
opacity=(-p threepath-htm --lib opacity)

for lane_args in "${tests[*]}" "${wal[*]}" "${wal_map[*]}" "${abtree[*]}" "${reclaim[*]}" "${llxscx[*]}"; do
  read -ra args <<< "$lane_args"
  cargo test -q --no-run "${args[@]}"
  cargo test -q --release --no-run "${args[@]}"
done
cargo test -q --release --no-run "${opacity[@]}"

# One run of one lane; a red run prints its output and stops the script.
lane() {
  local name=$1 i=$2
  shift 2
  if ! out=$(cargo test -q --no-fail-fast "$@" 2>&1); then
    printf '%s\n' "$out"
    echo "stress: $name lane, run $i of $n red" >&2
    exit 1
  fi
}

for i in $(seq 1 "$n"); do
  lane debug "$i" "${tests[@]}"
  lane debug "$i" "${wal[@]}"
  lane debug "$i" "${wal_map[@]}"
  lane debug "$i" "${abtree[@]}"
  lane debug "$i" "${reclaim[@]}"
  lane debug "$i" "${llxscx[@]}"
  lane release "$i" --release "${tests[@]}"
  lane release "$i" --release "${wal[@]}"
  lane release "$i" --release "${wal_map[@]}"
  lane release "$i" --release "${abtree[@]}"
  lane release "$i" --release "${reclaim[@]}"
  lane release "$i" --release "${llxscx[@]}"
  lane release "$i" --release "${opacity[@]}"
done
echo "stress: $n of $n runs green on both lanes"

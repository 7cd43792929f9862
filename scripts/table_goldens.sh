#!/usr/bin/env bash
# Absolute goldens for the paper tables: Tables 1, 4 and 5 at small
# sizes, a scheduled EMI campaign and a `clfuzz reduce` run (report
# plus JSONL trace, solo and as a scheduled reduce(...) campaign on the
# shared backend), each run on the inline, thread pool (4 workers)
# and process pool backends and diffed against the committed outputs
# in scripts/goldens/. Cross-backend conformance
# only shows that backends agree; these pin what they agree on, so a
# regression shared by every backend fails here. The scheduled run's
# closing line also pins its grant count (the EMI step granularity).
# Usage: scripts/table_goldens.sh [build-dir]
set -eu

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$REPO/build}"
GOLDENS="$REPO/scripts/goldens"

for BIN in table1_classification table4_clsmith table5_clsmith_emi clfuzz; do
  if [ ! -x "$BUILD/$BIN" ]; then
    echo "table goldens: $BUILD/$BIN not built" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# check NAME GOLDEN EXPECTED-BACKEND-NAME COMMAND...
check() {
  local Name="$1" Golden="$2" Backend="$3"
  shift 3
  echo "== $Name"
  "$@" > "$WORK/$Backend.out"
  # The goldens were taken on the inline backend; the scheduler's
  # closing line names the backend, the only byte allowed to differ.
  sed "s/ on the inline backend / on the $Backend backend /" \
    "$GOLDENS/$Golden" > "$WORK/$Backend.expected"
  diff "$WORK/$Backend.expected" "$WORK/$Backend.out"
}

# check_reduce BACKEND-NAME REDUCE-FLAGS...: the reducer's speculation
# width follows the backend's concurrency, so this pins its candidate
# batches on each backend.
check_reduce() {
  local Backend="$1"
  shift
  echo "== reduce $Backend"
  "$BUILD/clfuzz" reduce --mode=ALL --seed=39 --config=14 --opt \
    --expect=wrong --trace=- "$@" \
    > "$WORK/$Backend.reduce.out" 2> "$WORK/$Backend.reduce.trace"
  diff "$GOLDENS/reduce_all_seed39_config14.txt" "$WORK/$Backend.reduce.out"
  diff "$GOLDENS/reduce_all_seed39_config14.trace.jsonl" \
    "$WORK/$Backend.reduce.trace"
}

# check_sched_reduce BACKEND-NAME SCHED-FLAGS...: the same reduction as
# a scheduled campaign, its candidates batched on the shared backend,
# must match the solo goldens byte for byte.
check_sched_reduce() {
  local Backend="$1"
  shift
  local Dir="$WORK/$Backend.sched-reduce"
  echo "== sched reduce $Backend"
  mkdir -p "$Dir"
  "$BUILD/clfuzz" sched "$@" --out-dir="$Dir" \
    --campaigns="reduce(name=r,mode=ALL,seed=39,config=14,opt,expect=wrong,trace=$Dir/r.trace)" \
    > /dev/null
  diff "$GOLDENS/reduce_all_seed39_config14.txt" "$Dir/r.txt"
  diff "$GOLDENS/reduce_all_seed39_config14.trace.jsonl" "$Dir/r.trace"
}

# every_case BACKEND-NAME TABLE-FLAGS SCHED-FLAGS REDUCE-FLAGS (the flag
# lists split)
every_case() {
  local Backend="$1" TableFlags="$2" SchedFlags="$3" ReduceFlags="$4"
  check "table1 $Backend" table1_kernels2_seed7.txt "$Backend" \
    "$BUILD/table1_classification" --kernels=2 --seed=7 $TableFlags
  check "table4 $Backend" table4_kernels3_seed7.txt "$Backend" \
    "$BUILD/table4_clsmith" --kernels=3 --seed=7 $TableFlags
  check "table5 $Backend" table5_kernels2_seed7.txt "$Backend" \
    "$BUILD/table5_clsmith_emi" --kernels=2 --seed=7 $TableFlags
  check "sched emi $Backend" sched_emi_bases2.txt "$Backend" \
    "$BUILD/clfuzz" sched $SchedFlags --campaigns='emi(name=e,bases=2)'
  check_reduce "$Backend" $ReduceFlags
  check_sched_reduce "$Backend" $SchedFlags
}

# The three backends run side by side, each logging to its own file;
# a backend's log is printed whole once it is done.
every_case inline "--backend=inline" "--backend=inline" \
  "--reduce-backend=inline" > "$WORK/inline.log" 2>&1 &
INLINE=$!
every_case threads "--threads=4" "--backend=threads --exec-threads=4" \
  "--reduce-backend=threads --reduce-jobs=4" > "$WORK/threads.log" 2>&1 &
THREADS=$!
every_case procs "--backend=procs --threads=2" \
  "--backend=procs --exec-threads=2" \
  "--reduce-backend=procs --reduce-jobs=2" > "$WORK/procs.log" 2>&1 &
PROCS=$!

FAILED=0
for Job in "inline $INLINE" "threads $THREADS" "procs $PROCS"; do
  set -- $Job
  wait "$2" || FAILED=1
  cat "$WORK/$1.log"
done
if [ "$FAILED" -ne 0 ]; then
  echo "table goldens: a check failed" >&2
  exit 1
fi
echo "table goldens: all checks passed"

#!/usr/bin/env bash
# Pins the --stats epilogue format: which lines `clfuzz ... --stats`
# writes to stderr, in which order, with which keys and line families.
# Three runs — a solo diff, a three-campaign inline sched and a
# hunt+reduce+triage, diff and EMI sched on the thread pool with a
# memory cache — each have their stderr normalized (every `=<digits>`
# becomes `=N`, since counts and timings vary run to run) and diffed
# against the committed goldens in scripts/goldens/. Every run is also
# fed to scripts/check_stats_sums.py: each numeric field of every
# campaign=total line must equal the sum of the per-campaign lines.
# Usage: scripts/stats_format.sh [build-dir]
set -eu

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$REPO/build}"
CLFUZZ="$BUILD/clfuzz"
GOLDENS="$REPO/scripts/goldens"

if [ ! -x "$CLFUZZ" ]; then
  echo "stats format: $CLFUZZ not built" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# check NAME GOLDEN CLFUZZ-ARGS...: the interpreter tuning is pinned
# (flag and environment) so the tag values in the vm line do not
# follow the host.
check() {
  local Name="$1" Golden="$2"
  shift 2
  echo "== $Name"
  env -u CLFUZZ_VM_DISPATCH -u CLFUZZ_VM_FUSE \
    "$CLFUZZ" "$@" --vm-dispatch=switch --stats \
    > /dev/null 2> "$WORK/$Name.err"
  sed 's/=[0-9][0-9]*/=N/g' "$WORK/$Name.err" > "$WORK/$Name.norm"
  diff "$GOLDENS/$Golden" "$WORK/$Name.norm"
  python3 "$REPO/scripts/check_stats_sums.py" "$WORK/$Name.err"
}

check diff stats_diff_seed31.txt diff --seed=31 --backend=inline

mkdir -p "$WORK/sched-out"
check sched-inline stats_sched_inline.txt sched --backend=inline \
  --out-dir="$WORK/sched-out" \
  --campaigns='hunt(name=h,mode=BASIC,seed=1014,count=6);diff(name=d,seed=9);reduce(name=r,seed=1029,mode=BASIC,config=19)'

check sched-threads stats_sched_threads.txt sched --backend=threads \
  --exec-threads=4 --cache=mem \
  --campaigns='hunt(name=h,mode=BASIC,seed=1014,count=6,reduce,triage);diff(name=d,seed=9);emi(name=e)'

echo "stats format: all runs match their goldens"

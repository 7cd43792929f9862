#!/usr/bin/env bash
# Triage conformance driven through the real CLI: the same witnesses
# triaged solo and through `clfuzz sched` must produce byte-identical
# reports, a warm --cache-dir re-run must answer probes from the cache
# without moving a byte, the per-campaign --stats triage counters must
# sum to the campaign=total line, and the reports must match the
# committed goldens in scripts/goldens/ (which pin the report schema:
# an incompatible change shows up as a golden diff, not as silent
# drift). Usage: scripts/triage_goldens.sh [build-dir]
set -eu

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$REPO/build}"
CLFUZZ="$BUILD/clfuzz"
GOLDENS="$REPO/scripts/goldens"

if [ ! -x "$CLFUZZ" ]; then
  echo "triage goldens: $CLFUZZ not built" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== hunt --reduce --triage: solo == sched, byte for byte"
"$CLFUZZ" hunt --mode=BASIC --seed=1014 --count=4 --backend=inline \
  --reduce --triage --triage-out="$WORK/solo.csv" > "$WORK/solo.txt"
mkdir -p "$WORK/sched-out"
"$CLFUZZ" sched --backend=inline --out-dir="$WORK/sched-out" \
  --campaigns="hunt(name=h,mode=BASIC,seed=1014,count=4,reduce,triage,triage-out=$WORK/sched.csv)" \
  > /dev/null
diff "$WORK/solo.txt" "$WORK/sched-out/h.txt"
diff "$WORK/solo.csv" "$WORK/sched.csv"

echo "== clfuzz triage: solo == sched triage(...) campaign"
"$CLFUZZ" triage --mode=ALL --seed=39 --config=14 --opt \
  > "$WORK/triage-solo.txt"
mkdir -p "$WORK/sched-triage"
"$CLFUZZ" sched --backend=inline --out-dir="$WORK/sched-triage" \
  --campaigns='triage(name=t,mode=ALL,seed=39,config=14,opt)' > /dev/null
diff "$WORK/triage-solo.txt" "$WORK/sched-triage/t.txt"

echo "== warm --cache-dir re-run: byte-identical, probes served from cache"
"$CLFUZZ" triage --mode=ALL --seed=39 --config=14 --opt \
  --cache-dir="$WORK/oc" > "$WORK/triage-cold.txt"
"$CLFUZZ" triage --mode=ALL --seed=39 --config=14 --opt \
  --cache-dir="$WORK/oc" --stats \
  > "$WORK/triage-warm.txt" 2> "$WORK/warm-stats.txt"
diff "$WORK/triage-solo.txt" "$WORK/triage-cold.txt"
diff "$WORK/triage-solo.txt" "$WORK/triage-warm.txt"
grep -Eq 'cache_hits=[1-9]' "$WORK/warm-stats.txt" || {
  echo "warm triage run never hit the cache:" >&2
  cat "$WORK/warm-stats.txt" >&2
  exit 1
}
grep -Eq 'triage_witnesses=1 triage_probes=[1-9]' "$WORK/warm-stats.txt" || {
  echo "missing triage counter line:" >&2
  cat "$WORK/warm-stats.txt" >&2
  exit 1
}

echo "== per-campaign --stats triage counters sum to campaign=total"
mkdir -p "$WORK/sched-stats-out"
"$CLFUZZ" sched --backend=inline --out-dir="$WORK/sched-stats-out" --stats \
  --campaigns='hunt(name=h,mode=BASIC,seed=1014,count=4,reduce,triage);triage(name=t,mode=ALL,seed=39,config=14,opt)' \
  > /dev/null 2> "$WORK/sched-stats.txt"
python3 - "$WORK/sched-stats.txt" <<'EOF'
import re, sys
fields = ['triage_witnesses', 'triage_probes', 'triage_clusters']
per, total = {f: 0 for f in fields}, None
for line in open(sys.argv[1]):
    m = re.match(r'campaign=(\S+) triage_witnesses=', line)
    if not m:
        continue
    vals = {f: int(re.search(f + r'=(\d+)', line).group(1)) for f in fields}
    if m.group(1) == 'total':
        total = vals
    else:
        for f in fields:
            per[f] += vals[f]
assert total is not None, 'no campaign=total triage line'
assert any(total.values()), 'all-zero triage totals: nothing was triaged'
assert per == total, (per, total)
EOF

echo "== committed goldens"
diff "$GOLDENS/hunt_triage_basic_1014.txt" "$WORK/solo.txt"
diff "$GOLDENS/hunt_triage_basic_1014.csv" "$WORK/solo.csv"
diff "$GOLDENS/triage_all_seed39_config14.txt" "$WORK/triage-solo.txt"

# Eight witnesses reduced and triaged: report and reduction trace.
# The report's summary names its backend; that name is masked.
check_reduce_golden() { # REPORT TRACE
  sed 's/ on the [a-z]* backend;/ on the inline backend;/' "$1" |
    diff "$GOLDENS/hunt_reduce_triage_all_seed200001.txt" -
  diff "$GOLDENS/hunt_reduce_triage_all_seed200001.trace.jsonl" "$2"
}

for BACKEND in "inline" "threads --exec-threads=4"; do
  echo "== hunt --reduce --triage goldens on --backend=$BACKEND"
  # shellcheck disable=SC2086 # BACKEND carries two flags
  "$CLFUZZ" hunt --mode=ALL --seed=200001 --count=8 --reduce --triage \
    --reduce-max=50 --backend=$BACKEND \
    --reduce-trace="$WORK/reduce-trace.jsonl" > "$WORK/reduce.txt"
  check_reduce_golden "$WORK/reduce.txt" "$WORK/reduce-trace.jsonl"
done

# Solo hunts reduce each witness serially; under the scheduler the
# reductions share the 4-thread pool, whose executors print every
# window of candidates.
echo "== sched hunt(reduce,triage) goldens on --backend=threads"
mkdir -p "$WORK/sched-reduce"
"$CLFUZZ" sched --backend=threads --exec-threads=4 \
  --out-dir="$WORK/sched-reduce" \
  --campaigns="hunt(name=h,mode=ALL,seed=200001,count=8,reduce,triage,reduce-max=50,reduce-trace=$WORK/sched-reduce.jsonl)" \
  > /dev/null
check_reduce_golden "$WORK/sched-reduce/h.txt" "$WORK/sched-reduce.jsonl"

echo "triage goldens: all checks passed"

#!/usr/bin/env python3
"""Checks that per-campaign --stats lines sum to their campaign=total line.

Usage: scripts/check_stats_sums.py STATS-FILE...

Reads the stderr of a `clfuzz ... --stats` run. A --stats line is
`campaign=NAME key=value ...`; its family is its first key (cache_hits,
vm_dispatch, compile_clone, lane, ...). For every family that has a
`campaign=total` line, each numeric field of the total must equal the
sum of that field over the family's per-campaign lines. Families
without a total (the scheduler's `lane=` line, or a solo command's
lines) are skipped, as are non-numeric fields such as `vm_dispatch=`.
Other stderr lines (logs, warnings) are ignored. Exits 1 on the first
file with a mismatch.
"""

import re
import sys

LINE = re.compile(r'campaign=(\S+)((?: \S+=\S*)+)$')


def check(path):
    per, totals = {}, {}
    for line in open(path):
        m = LINE.match(line.rstrip('\n'))
        if not m:
            continue
        fields = [kv.split('=', 1) for kv in m.group(2).split()]
        family = fields[0][0]
        nums = {k: int(v) for k, v in fields if v.isdigit()}
        if m.group(1) == 'total':
            totals[family] = nums
        else:
            per.setdefault(family, []).append(nums)
    errors, checked = [], 0
    for family, total in totals.items():
        lines = per.get(family, [])
        if not lines:
            errors.append('%s: campaign=total has no per-campaign lines'
                          % family)
            continue
        for key, want in total.items():
            got = sum(l.get(key, 0) for l in lines)
            checked += 1
            if got != want:
                errors.append('%s: per-campaign sum %d != total %d'
                              % (key, got, want))
    for e in errors:
        print('%s: %s' % (path, e), file=sys.stderr)
    print('%s: %d total fields over %d families checked, %d mismatched' %
          (path, checked, len(totals), len(errors)))
    return not errors


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = all([check(p) for p in paths])
    return 0 if ok else 1


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))

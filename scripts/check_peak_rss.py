#!/usr/bin/env python3
"""Runs a command and fails if its peak resident set reaches a limit.

Usage: scripts/check_peak_rss.py LIMIT_MIB COMMAND [ARG...]

Runs COMMAND with its standard output discarded and reads the child's
peak resident set size (getrusage RUSAGE_CHILDREN ru_maxrss, which
Linux reports in KiB). Prints `peak_rss_kib=N limit_kib=M` and exits 1
when the command failed or its peak is LIMIT_MIB MiB or more, else 0.
The CTest `coordinator_rss` uses it to guard the memory an executor
lane's VM contexts hold (docs/vm.md section 4).
"""

import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    limit_kib = int(argv[1]) * 1024
    rc = subprocess.run(argv[2:], stdout=subprocess.DEVNULL).returncode
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print("peak_rss_kib=%d limit_kib=%d" % (peak_kib, limit_kib))
    if rc != 0:
        print("command exited %d" % rc)
        return 1
    if peak_kib >= limit_kib:
        print("peak resident set is at or over the limit")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

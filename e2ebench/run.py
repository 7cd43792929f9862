#!/usr/bin/env python3
"""Builds and runs the end-to-end campaign benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload diff_threads --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-test

The benchmark compiles the clfuzz library from ./src together with
e2ebench/campaign_bench.cpp (CMake, into $CARGO_TARGET_DIR or
.bench_build), then runs one workload. The last line of standard output
is the result object; build output goes to standard error. Each run also
writes a result file with the host record (and, traced, the span dump)
under <build dir>/results/.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d) if not os.path.isabs(d) else d)


def build(out):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs, "--target", "campaign_bench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library sources and this directory, so a result
    names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".h", ".inc", ".txt", ".py")):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def arg(argv, key, default):
    for i, a in enumerate(argv):
        if a == key and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith(key + "="):
            return a[len(key) + 1:]
    return default


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("e2ebench: no src/ beside e2ebench/; run from a full checkout",
              file=sys.stderr)
        return 1
    out = build_dir()
    if not build(out):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out, "campaign_bench")
    digests = os.path.join(HERE, "reference_digests.txt")
    cmd = [binary] + argv + ["--digests", digests]
    if "--self-test" not in argv:
        results = os.path.join(out, "results")
        os.makedirs(results, exist_ok=True)
        stem = "%s-seed%s-trace%s" % (arg(argv, "--workload", "x"),
                                      arg(argv, "--seed", "1"),
                                      arg(argv, "--trace", "0"))
        cmd += ["--result", os.path.join(results, stem + ".json"),
                "--spans", os.path.join(results, stem + ".spans.json"),
                "--git-commit", git_commit(),
                "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

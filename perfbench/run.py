#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --trace 1

The benchmark is a Go module of its own (perfbench/go.mod) that imports
the simulator's packages from the repository root. This script builds it
into .bench_build/ at the repository root, with Go's build cache kept
there as well, and then runs the binary once per workload, each in a
fresh process. The binary prints the metrics; its last line is one JSON
object with the keys correct, attempted, failed and metrics. Traced runs
(--trace 1) also write their spans to .bench_build/spans-<workload>.json.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

WORKLOADS = ["paper", "explore", "simd"]


def build(root, out):
    """Builds the benchmark binary; returns its path or None."""
    os.makedirs(out, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        done = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=os.path.join(root, "perfbench"),
            env=env,
            stdout=sys.stderr,
        )
    return binary if done.returncode == 0 else None


def run_one(binary, out, workload, args):
    cmd = [
        binary,
        "-workload", workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["-spans", os.path.join(out, "spans-%s.json" % workload)]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        print("run.py: %s is not a streamsim checkout (no go.mod or internal/)" % root,
              file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    binary = build(root, out)
    if binary is None:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1

    # Turn SIGTERM into an exception so run_one stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    status = 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        rc = run_one(binary, out, w, args)
        if rc != 0:
            print("run.py: workload %s exited with %d" % (w, rc), file=sys.stderr)
            status = rc
    return status


if __name__ == "__main__":
    sys.exit(main())

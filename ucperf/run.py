#!/usr/bin/env python3
"""Build and run the ucperf benchmark from the root of a checkout.

    python3 ucperf/run.py --workload live-write --seed 1 --seconds 20 --trace 0

--workload all runs the four workloads one after another, each for
--seconds, and prints each one's output in turn.

ucperf is a Go module of its own whose go.mod points the updatec module
at the checkout root, so it always measures the code it sits next to.
The binary, the Go build cache, temporary files and the span dumps of
traced runs all go under .bench_build/ in the checkout. The benchmark's
output passes through unchanged; its last line is the JSON result.
"""

import argparse
import fcntl
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
WORKLOADS = ["live-write", "live-readmix", "heal", "wire"]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    src = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(src)
    build = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        GOTELEMETRY="off",
        GOFLAGS="-buildvcs=false",
    )
    binary = os.path.join(build, "ucperf")
    # One build at a time; an up-to-date binary is not relinked.
    with open(os.path.join(build, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        b = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if b.returncode != 0:
        print("ucperf: build failed", file=sys.stderr)
        return 1

    names = WORKLOADS if a.workload == "all" else [a.workload]
    for name in names:
        cmd = [binary, "-workload", name, "-seed", str(a.seed),
               "-seconds", str(a.seconds), "-trace", str(a.trace)]
        if a.trace == 1:
            cmd += ["-spans", os.path.join(build, "spans", "%s-seed%d.tsv" % (name, a.seed))]
        proc = subprocess.Popen(cmd, cwd=root, env=env)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("ucperf: %s exceeded %d s" % (name, RUN_TIMEOUT_S), file=sys.stderr)
            return 1
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

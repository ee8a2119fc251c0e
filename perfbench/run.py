#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <figures|collect_train|serve_fleet>
                             --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the benchmark program from the
repository root, echoes its report, and prints as the last line one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1
the per_layer metrics (a layer the workload does not use reports 0). Exits
non-zero without a result line when the sources or the build are missing.
Stdlib only.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def source_digest():
    """sha1 over src/ and perfbench/ contents: identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "src-" + source_digest()
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return (rev or "unknown") + "+src-" + source_digest()


def build():
    """Configures once, then builds incrementally; returns the binary."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    bdir = os.path.join(target, "perfbench")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return None
    binary = os.path.join(bdir, "perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no source tree at %s/src" % ROOT)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        return fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail("unknown workload %r" % args.workload)

    binary = build()
    if binary is None:
        return fail("build failed", 3)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-rev", git_rev()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("@@result "):
                result = json.loads(line[len("@@result "):])
                continue
            sys.stdout.write(line)
            sys.stdout.flush()
    finally:
        rc = proc.wait()
        watchdog.cancel()
    if rc != 0 or result is None:
        return fail("benchmark program exited with %d" % rc, 4)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                return fail("benchmark program did not report %s" % m["name"], 5)
            got = {"value": 0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one hopbench workload and prints its result.

    python3 hopbench/run.py --workload NAME --seed N [--seconds S]
                            [--trace 0|1] [--out PATH] [--spans PATH]

Builds the benchmark from source on first use (Release, into
.bench_build/hopbench under the repository root), runs one workload, and
prints the environment line and then the result JSON as the last line of
stdout. Exits non-zero, printing no result, when the build fails or the
binary was not built optimized and sanitizer-free; exits with the
binary's code otherwise (1 when a correctness check failed, 2 on bad
arguments). See README.md in this directory for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hopbench")
BINARY = os.path.join(BUILD, "hopbench")
WORKLOADS = ("fabric_bare", "fabric_verify", "fabric_live", "aether_churn")
# A run measures for --seconds plus set-up; this bounds a hung run below
# three minutes, leaving room for start-up and the incremental build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def nonneg_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError("not a non-negative integer: " + text)
    return int(text)


def positive_seconds(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: " + text) from None
    if not 0.1 <= value <= 600:
        raise argparse.ArgumentTypeError("seconds must be in [0.1, 600]")
    return text


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="run.py", allow_abbrev=False,
        description="Run one hopbench workload (see hopbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=nonneg_int)
    parser.add_argument("--seconds", default="10", type=positive_seconds,
                        help="measured wall seconds (default 10)")
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--out", help="also write the full result JSON here")
    parser.add_argument("--spans",
                        help="where a traced run writes its spans (default "
                             ".bench_build/spans/WORKLOAD-seedN.json)")
    parser.add_argument("--perturb-expected", default=0, type=nonneg_int,
                        help="add N to every expected count (gate self-test)")
    return parser.parse_args(argv)


def git_commit():
    """The checked-out commit, read from .git without running git (which
    would search parent directories when the checkout is not a repo)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           stderr=sys.stderr)
        except (OSError, subprocess.CalledProcessError) as e:
            fail("build failed: " + str(e))


def main(argv):
    args = parse_args(argv)
    build()

    spans = args.spans
    if args.trace == 1 and spans is None:
        spans = os.path.join(ROOT, ".bench_build", "spans",
                             "%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", args.seconds, "--trace", str(args.trace)]
    if args.out:
        cmd += ["--out", args.out]
    if spans:
        cmd += ["--spans", spans]
    if args.perturb_expected:
        cmd += ["--perturb-expected", str(args.perturb_expected)]
    env = dict(os.environ, HOPBENCH_GIT_COMMIT=git_commit())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.splitlines()
    env_line = next((l for l in lines if l.startswith("env ")), None)
    if env_line is None or not lines:
        fail("benchmark printed no result (exit %d)" % proc.returncode)
    build_env = json.loads(env_line[len("env "):])
    # Numbers from a sanitizer or unoptimised build must never be compared
    # against release numbers: refuse them.
    if not build_env.get("optimized") or build_env.get("sanitizer") != "none":
        fail("refusing results of a non-release build: " + env_line)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])
    print(env_line)
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs of every workload.

    python3 hopbench/selftest.py

Checks that
  * --help exits 0 and an unknown flag exits 2, for run.py and the binary;
  * every workload (BENCHMARK.json's, and fabric_live and aether_churn,
    which run but are not in the benchmark's set) passes its correctness
    gate on two seeds and emits every end-to-end metric of BENCHMARK.json,
    each finite and non-zero;
  * a traced run of every workload emits every per-layer metric;
  * the gate fails (non-zero exit, "correct": false) when an expected count
    is perturbed by one.
Exits 1 on the first failed expectation. Takes about two minutes.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
BINARY = os.path.join(ROOT, ".bench_build", "hopbench", "hopbench")
SECONDS = "1"


def expect(ok, what):
    if not ok:
        print("FAIL: " + what)
        sys.exit(1)
    print("ok: " + what)


def run(args):
    proc = subprocess.run(RUN + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    workloads += [w for w in ("fabric_live", "aether_churn")
                  if w not in workloads]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    rc, _, _ = run(["--help"])
    expect(rc == 0, "run.py --help exits 0")
    rc, result, _ = run(["--workload", workloads[0], "--seed", "1",
                         "--no-such-flag"])
    expect(rc == 2 and result is None, "run.py rejects an unknown flag")
    for args, code in ((["--help"], 0), (["--no-such-flag", "1"], 2),
                       (["--workload", workloads[0]], 2)):
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT)
        expect(proc.returncode == code and "{" not in proc.stdout,
               "hopbench %s exits %d without running" % (" ".join(args), code))

    for w in workloads:
        for seed in ("1", "2"):
            rc, result, err = run(["--workload", w, "--seed", seed,
                                   "--seconds", SECONDS])
            expect(rc == 0 and result is not None and result["correct"],
                   "%s seed %s passes its gate%s" % (w, seed, "" if rc == 0
                                                     else ": " + err[-500:]))
            metrics = result["metrics"]
            expect(sorted(metrics) == sorted(end_to_end),
                   "%s emits every end-to-end metric" % w)
            expect(all(math.isfinite(m["value"]) and m["value"] > 0
                       for m in metrics.values()),
                   "%s end-to-end metrics are finite and non-zero" % w)
            expect(result["failed"] == 0 and result["attempted"] > 0,
                   "%s: no failed operations" % w)

        rc, result, err = run(["--workload", w, "--seed", "1", "--seconds",
                               SECONDS, "--trace", "1"])
        expect(rc == 0 and result is not None and result["correct"],
               "%s traced run passes its gate%s" % (w, "" if rc == 0
                                                    else ": " + err[-500:]))
        expect(sorted(result["metrics"]) == sorted(per_layer),
               "%s traced run emits every per-layer metric" % w)

        rc, result, err = run(["--workload", w, "--seed", "1", "--seconds",
                               SECONDS, "--perturb-expected", "1"])
        expect(rc != 0 and (result is None or not result["correct"])
               and "GATE FAIL" in err,
               "%s gate trips when an expected count is off by one" % w)
    print("selftest passed")


if __name__ == "__main__":
    main()

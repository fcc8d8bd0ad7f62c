#!/usr/bin/env python3
"""Build and run the SMC benchmark.

    python3 perfbench/run.py --workload olap|htap|serve --seed N --seconds S --trace 0|1

Run from the root of a source tree. The program is built from source with
dune into .bench_build/ (or $DUNE_BUILD_DIR); the program keeps its
scratch files in .bench_run/. With --trace 0 the measured seconds are
split over PROCESSES runs of the program, one after another, each with its
own set-up: setup_s
is the median of their set-up times, every other metric the mean of their
figures. On a shared 2-core host a whole process can run ~25% slower than
the next (memory placement, neighbours), so a single process decides too
much. Everything the program prints is passed through; the last line is
the result as one JSON object. On a failed build or a malformed result the
script exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

PROCESSES = 3
EXE = os.path.join("default", "perfbench", "smc_perf.exe")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def find_toolchain():
    # The program compiles plans with ocamlopt at run time, so dune's bin
    # directory must be on PATH, not only dune itself.
    if shutil.which("dune") or not shutil.which("opam"):
        return
    try:
        out = subprocess.run(["opam", "var", "bin"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=60).stdout
    except (OSError, subprocess.TimeoutExpired):
        return
    os.environ["PATH"] = out.decode().strip() + os.pathsep + os.environ.get("PATH", "")


def build(build_dir):
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", build_dir,
             "./perfbench/smc_perf.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not run: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        fail("build failed")
    return os.path.join(build_dir, EXE)


def run(exe, args, timeout):
    try:
        proc = subprocess.run([exe, "run"] + args, stdout=subprocess.PIPE,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("program did not finish: %s" % e)
    lines = proc.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("program exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("program printed no result")
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["olap", "htap", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not os.path.isfile(os.path.join("perfbench", "dune")) or not os.path.isfile("dune-project"):
        fail("run from the root of the source tree")
    find_toolchain()
    build_dir = os.environ.get("DUNE_BUILD_DIR", ".bench_build")
    exe = build(build_dir)

    base = ["--workload", a.workload, "--seed", str(a.seed), "--trace", str(a.trace)]
    runs = PROCESSES if a.trace == 0 else 1
    results = []
    for _ in range(runs):
        lines, r = run(exe, base + ["--seconds", "%g" % (a.seconds / runs)], 170)
        sys.stdout.write("\n".join(lines) + "\n")
        results.append(r)

    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"].get(name, {}).get("value") for r in results]
        if not all(isinstance(v, (int, float)) for v in values):
            fail("metric %s has no value" % name)
        agg = statistics.median if name == "setup_s" else statistics.fmean
        metrics[name] = {"value": agg(values), "unit": m["unit"]}
        if runs > 1:
            print("%-20s %s -> %.6g" % (name, " ".join("%.6g" % v for v in values),
                                          metrics[name]["value"]))
    out = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": metrics,
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()

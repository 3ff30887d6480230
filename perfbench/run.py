#!/usr/bin/env python3
"""Builds and runs the ReTracer benchmark.

    python3 perfbench/run.py --workload paper-study --seed 2001 \
        --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
library sources and the benchmark program (perfbench/perfbench.cc) into
.bench_build/; later runs rebuild only what changed. Every other flag
(--scale, --self-test) goes to the program unchanged. Its last
stdout line is one JSON object; this script checks that its metrics are
exactly the ones BENCHMARK.json lists for the pass (end_to_end for
--trace 0, per_layer for --trace 1) and exits non-zero otherwise, or when
the program failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def cached_source_dir():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures (once) and builds the program; output goes to stderr."""
    if cached_source_dir() not in (None, HERE):
        shutil.rmtree(BUILD)  # a build tree of another checkout
    if cached_source_dir() is None:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr,
                   check=True, timeout=BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources under %s/src; nothing to build" % ROOT)
        return 2
    try:
        build()
    except (subprocess.SubprocessError, OSError) as e:
        log("build failed: %s" % e)
        return 2
    work = os.path.join(BUILD, "work")
    try:
        proc = subprocess.run([BINARY] + argv + ["--work-dir", work],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or "--self-test" in argv:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench printed no result line")
        return 1
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    parser.add_argument("--trace", type=int, default=0)
    trace = parser.parse_known_args(argv)[0].trace == 1
    missing = expected_metrics(trace) ^ set(result["metrics"])
    if missing:
        log("metrics differ from BENCHMARK.json: %s" % sorted(missing))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

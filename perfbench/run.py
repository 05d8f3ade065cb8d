#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Builds the measuring program
(perfbench/perfbench.exe) and rpcc from source with dune into
.bench_build/, runs one workload, and prints the run record followed, as
the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {NAME: {"value": V, "unit": U}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics.  Units come from BENCHMARK.json.

Exit codes: 0 measured (even if a correctness check failed: see
"correct"); 1 the checkout cannot be built or measured; 2 usage error.
"""

import json
import math
import os
import re
import signal
import subprocess
import sys
import time

WORKLOADS = ("paper-grid", "native-warm", "serve-mixed")
USAGE = ("usage: python3 perfbench/run.py --workload {%s} [--seed N] "
         "[--seconds S] [--trace 0|1]" % "|".join(WORKLOADS))
BUILD_DIR = os.path.join(".bench_build", "dune")
STATE_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RPCC = os.path.join(BUILD_DIR, "default", "bin", "rpcc.exe")
# a run must end within 180 s, or 900 s when it also builds from scratch
RUN_LIMIT_S, BUILD_LIMIT_S = 170, 880


def usage_error(msg):
    print("run.py: " + msg, file=sys.stderr)
    print(USAGE, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    args = {"workload": None, "seed": 1, "seconds": 10, "trace": 0}
    if argv in (["-h"], ["--help"]):
        print(USAGE)
        sys.exit(0)
    if len(argv) % 2:
        usage_error("every flag takes one value")
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag == "--workload":
            if value not in WORKLOADS:
                usage_error("unknown workload %r" % value)
            args["workload"] = value
        elif flag == "--seed":
            if not re.fullmatch(r"[0-9]+", value):
                usage_error("--seed wants a non-negative integer, got %r" % value)
            args["seed"] = int(value)
        elif flag == "--seconds":
            if not re.fullmatch(r"[0-9]+", value) or not 1 <= int(value) <= 600:
                usage_error("--seconds wants an integer from 1 to 600, got %r" % value)
            args["seconds"] = int(value)
        elif flag == "--trace":
            if value not in ("0", "1"):
                usage_error("--trace wants 0 or 1, got %r" % value)
            args["trace"] = int(value)
        else:
            usage_error("unknown flag %r" % flag)
    if args["workload"] is None:
        usage_error("--workload is required")
    return args


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build(deadline):
    """Build both executables; dune's shared cache stays off so the build
    reads and writes only inside the checkout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", "release", "-j", "2",
           "./perfbench/perfbench.exe", "./bin/rpcc.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1, deadline - time.time()))
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail("build failed (dune exit %d)" % proc.returncode)


def measure(args, deadline):
    """Run the measuring program in its own process group, which is killed
    whole on every exit path; return its stdout lines."""
    tmp = os.path.abspath(os.path.join(STATE_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    cmd = [EXE, args["workload"], str(args["seed"]), str(args["seconds"]),
           str(args["trace"]), STATE_DIR, RPCC]
    proc = subprocess.Popen(cmd, env=dict(os.environ, TMPDIR=tmp),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def on_signal(signum, _frame):
        kill_group()
        proc.wait()
        sys.exit(128 + signum)

    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, on_signal)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        kill_group()
        proc.wait()
        fail("measurement timed out")
    finally:
        kill_group()
    if proc.returncode != 0:
        fail("perfbench exited with status %d" % proc.returncode)
    return out.decode().splitlines()


def main():
    start = time.time()
    args = parse_args(sys.argv[1:])
    for path in ("dune-project", "lib", "bin", "perfbench/dune",
                 "BENCHMARK.json", "BENCH_counts.json"):
        if not os.path.exists(path):
            fail("run from the root of a source checkout (no %s here)" % path)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    first_build = not os.path.exists(EXE)
    deadline = start + (BUILD_LIMIT_S if first_build else RUN_LIMIT_S)
    build(deadline)
    lines = measure(args, deadline)
    if not lines:
        fail("perfbench printed nothing")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    wanted = spec["per_layer" if args["trace"] else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        fail("metric names differ from BENCHMARK.json: %s"
             % sorted(set(metrics) ^ set(units)))
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number: %r" % (name, value))
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in (m["name"] for m in wanted)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()

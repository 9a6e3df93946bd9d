#!/usr/bin/env python3
"""End-to-end benchmark entry point for the PolarFly simulator.

Builds the driver (perfbench/driver.cpp plus the repository's src/) in
Release with CMake, then runs one workload in a fresh process and relays
its output. The last stdout line is the result object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload pf13_load_sweep --seed 1 \
        --seconds 25 --trace 0

Run it from the repository root. Build products go to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traced runs
write their spans there too. Extra options: --smoke (every workload on
PF q=7, short windows) and --sim-seed/--pattern-seed/--workload-seed/
--flap-seed to override a seed derived from --seed.
"""

import argparse
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pf31_ugalpf_uniform", "pf13_load_sweep",
             "pf13_alltoall_replay", "pf13_min_flaps")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds the driver; build output goes to a log."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "pf_e2e")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, cwd=HERE,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    for name in ("sim", "pattern", "workload", "flap"):
        parser.add_argument("--%s-seed" % name, type=int)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    for name in ("sim", "pattern", "workload", "flap"):
        value = getattr(args, name + "_seed")
        if value is not None:
            cmd += ["--%s-seed" % name, str(value)]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-%d.json" % (args.workload, args.seed))]

    # The simulation runs on one thread; PF_THREADS pins the library's
    # pool (used by the oracle's all-pairs BFS) to one worker as well, and
    # the driver is pinned to one CPU (the highest-numbered one allowed,
    # which usually takes the fewest interrupts), so neither thread
    # migrates mid-measurement and the oracle's hand-off to the worker
    # never has to wake another, idle CPU.
    env = dict(os.environ)
    env.setdefault("PF_THREADS", "1")
    cpu = max(os.sched_getaffinity(0))
    print("env nproc=%d cpu=%r commit=%s PF_THREADS=%s pinned_cpu=%d" %
          (os.cpu_count() or 0, cpu_model(), commit(), env["PF_THREADS"],
           cpu), flush=True)
    try:
        done = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    if done.returncode != 0:
        fail("driver exited with %d" % done.returncode)


if __name__ == "__main__":
    main()

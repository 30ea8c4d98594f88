#!/usr/bin/env python3
"""Repository benchmark: build the harness, generate inputs, run a workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload pair_120k --seed 1 --seconds 20 --trace 0

Steps, each its own process:
  1. build perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR or
     .bench_build, RelWithDebInfo like the repository's default build;
  2. `perfbench_harness gen`: write the workload's inputs from the seed;
  3. `perfbench_harness ref`: compute the reference outputs;
  4. `perfbench_harness run`: time the workload and check its outputs.

Progress, the host block and the generator record go to stdout before the
result; the last stdout line is the result JSON. With --trace 0 it holds
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones (and a Chrome trace is written to the work area as trace.json).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

BUILD_TIMEOUT_S = 700
STEP_BUDGET_S = 170
MIB = 1024.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_step(cmd, stdout, deadline):
    """Run cmd to completion before deadline; return its rusage."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                fail(f"{' '.join(cmd[:3])} ran past its time limit")
            time.sleep(0.02)
    finally:
        # On a time-out or a signal, stop the step and reap it.
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[:3])} exited with {proc.returncode}")
    return usage


def cpu_ticks():
    """(busy, steal) jiffies summed over all CPUs, from /proc/stat."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return sum(fields) - fields[3] - fields[4], fields[7]


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no src/CMakeLists.txt here; run from the repository root")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (build_dir / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], sys.stderr, deadline)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", str(build_dir), "-j", jobs,
              "--target", "perfbench_harness"], sys.stderr, deadline)
    return build_dir / "perfbench_harness"


def host_block(root, build_dir, info):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    try:
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": info.get("kernel"),
        "kernel_id": info.get("kernel_id"),
        "backend": info.get("backend"),
        "backend_id": info.get("backend_id"),
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
        "compiler": version,
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("no BENCHMARK.json here; run from the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "perfbench"
    harness = str(build(root, build_dir))

    work = build_dir / "work" / args.workload
    subprocess.run(["rm", "-rf", str(work)], check=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + STEP_BUDGET_S
    run_step([harness, "gen", args.workload, "--seed", str(args.seed),
              "--work", str(work)], sys.stderr, deadline)
    run_step([harness, "ref", args.workload, "--work", str(work)],
             sys.stderr, deadline)
    busy0, steal0 = cpu_ticks()
    with open(work / "run.out", "w+") as out:
        usage = run_step([harness, "run", args.workload, "--seconds",
                          str(args.seconds), "--trace", str(args.trace),
                          "--work", str(work)], out, deadline)
        out.seek(0)
        raw = json.loads(out.read().strip().splitlines()[-1])
    busy1, steal1 = cpu_ticks()

    values = dict(raw["metrics"])
    attempted, failed = raw["attempted"], raw["failed"]
    values["ok_rate"] = 1.0 - failed / attempted if attempted else 0.0
    values["peak_rss_mb"] = usage.ru_maxrss / MIB  # ru_maxrss is in KiB

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    complete = attempted > 0
    for metric in wanted:
        # A per-layer metric the workload does not exercise reads 0; every
        # end-to-end metric must be measured and positive.
        value = values.get(metric["name"], 0.0 if args.trace else None)
        if value is None or not math.isfinite(value):
            complete = False
            value = 0.0
        if not args.trace and value <= 0.0:
            complete = False
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    host = host_block(root, build_dir, raw.get("info", {}))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "generator": json.loads((work / "gen.json").read_text()),
        "info": raw.get("info", {}),
        # Share of CPU time the hypervisor gave to other guests while the
        # workload ran: a noisy-neighbour indicator for this run.
        "cpu_steal_share": (steal1 - steal0) / max(1, busy1 - busy0),
    }
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    result = {
        "correct": bool(raw["correct"]) and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository's benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload sweep-fresh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds the simulator and the harness from source (Release) under
$CARGO_TARGET_DIR (default .bench_build), runs one workload, prints every
metric with its unit and sample count plus the host fingerprint, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. Exits non-zero, after printing the result, when an
output check failed, and without a result when it could not measure.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-fresh", "serve-mixed")
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "cmake"


def build():
    """Configure once, then (re)build the harness and the daemon."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "lastbench", "last_serve"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})")
    return bdir


def fingerprint(bdir):
    """nproc, CPU model, compiler and flags, build type."""
    cache = {}
    for line in (bdir / "CMakeCache.txt").read_text().splitlines():
        m = re.match(r"^([A-Z_]+):[A-Z]+=(.*)$", line)
        if m:
            cache[m.group(1)] = m.group(2)
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    btype = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "compiler": version,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get(f"CMAKE_CXX_FLAGS_{btype.upper()}", "")])),
        "build_type": btype,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    committed = ROOT / "last_bench_cache.csv"
    spec_path = ROOT / "BENCHMARK.json"
    if not committed.is_file() or not (ROOT / "src").is_dir():
        fail("no simulator sources or committed cache next to perfbench/")
    if not spec_path.is_file():
        fail("BENCHMARK.json missing")
    spec = json.loads(spec_path.read_text())

    bdir = build()
    harness = bdir / "lastbench"
    rel = os.path.relpath(committed, ROOT)
    if args.selftest:
        sys.exit(subprocess.run([str(harness), "selftest", "--committed", rel],
                                cwd=ROOT).returncode)
    if not args.workload:
        fail("--workload is required")

    # Relative, so the daemon's unix socket path stays short.
    work = os.path.relpath(bdir.parent / "run", ROOT)
    (ROOT / work).mkdir(parents=True, exist_ok=True)
    cmd = [str(harness), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--serve-exe", str(bdir / "last" / "tools" / "last_serve"),
           "--committed", rel, "--work-dir", work]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        fail(f"harness exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("harness printed no result")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        fail("harness did not measure " + ", ".join(missing))
    result["metrics"] = {m["name"]: result["metrics"][m["name"]]
                         for m in wanted}
    for m in wanted:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} measured in "
                 f"{result['metrics'][m['name']]['unit']}, not {m['unit']}")

    host = fingerprint(bdir)
    print("\n".join(lines[:-1]))
    print("host: " + json.dumps(host, sort_keys=True))
    with open(bdir.parent / "results.jsonl", "a") as log:
        log.write(json.dumps({"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "host": host, "result": result}) + "\n")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run one xferlearn benchmark workload.

    python3 perfbench/run.py --workload offline_production --seed 1 --seconds 16 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only check that the build is current. The detailed report (host and build
record, per-phase figures) goes to stdout and to <build>/reports; the last
stdout line is the result object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics BENCHMARK.json declares, --trace 1
the per-layer ones (and writes the run's spans as Chrome trace JSON); the
benchmark reads the names and units from BENCHMARK.json. The exit code is 0
only when every output check passed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("offline_production", "serve_binary_predict", "serve_json_mixed")
RUN_TIMEOUT_S = 170


def build(source: Path, build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(source), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "xfl_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir / "xfl_perfbench"


def check_result(result):
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        raise ValueError(f"result keys {sorted(result)} != {sorted(keys)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    source = Path(__file__).resolve().parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    try:
        binary = build(source, build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", str(build_dir / "runs"), "--report-dir", str(build_dir / "reports"),
               "--declaration", str(source.parent / "BENCHMARK.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if not lines:
        print(f"run.py: {args.workload} printed no result (exit {run.returncode})",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        check_result(result)
    except ValueError as error:
        print(f"run.py: bad result line: {error}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0 if result["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

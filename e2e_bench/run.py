#!/usr/bin/env python3
"""End-to-end PriSTE benchmark.

Usage, from the repository root:

    python3 e2e_bench/run.py --workload geoind_fig07 --seed 1 --seconds 20 --trace 0
    python3 e2e_bench/run.py --self-test

Builds the library and the benchmark binary from source (Release, in
.bench_build/ or $CARGO_TARGET_DIR), runs one workload in a pinned
environment (PRISTE_THREADS=1, every other PRISTE_* variable unset), checks
that the binary printed exactly the metrics BENCHMARK.json names, with their
units, and relays its output. The last line of stdout is the result object.
See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = "priste_e2e_bench"
# Whole-process limit is 180 s; the build check takes a few of them.
RUN_TIMEOUT_S = 170
TINY_WORKLOADS = ("tiny_fig07", "tiny_long", "tiny_delta")


def fail(message, code=2):
    print(f"e2e_bench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "priste_e2e"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "priste").is_dir():
        fail(f"no PriSTE sources at {ROOT} (expected CMakeLists.txt and src/priste)")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", TARGET, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / TARGET


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRISTE_")}
    env["PRISTE_THREADS"] = "1"
    return env


def load_contract():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_binary(binary, args):
    """Runs the benchmark binary; returns (stdout lines, parsed result)."""
    try:
        proc = subprocess.run([str(binary)] + args, env=pinned_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {RUN_TIMEOUT_S} s: {args}", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark binary exited with {proc.returncode}: {args}", 1)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        fail("benchmark binary printed no result object", 1)
    return lines, result


def check_result(result, expected):
    """Errors in a result object against the contract's metric list."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        errors.append("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            errors.append(f"'{key}' is not a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        errors.append("'attempted' < 1")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        errors.append(f"metrics differ from BENCHMARK.json: missing "
                      f"{sorted(set(want) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            errors.append(f"{name}: unit {got.get('unit')!r}, want {unit!r}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{name}: value is not a number")
    return errors


def binary_args(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    if trace:
        spans = build_dir() / "trace"
        spans.mkdir(parents=True, exist_ok=True)
        args += ["--spans-out", str(spans / f"{workload}-seed{seed}.jsonl")]
    return args


def self_test(binary, contract):
    """The benchmark's own checks: the binary's --selftest (oracle negative
    fixture, verify rejections, replica equals Run), then a smoke run of every
    tiny workload in both modes that must print every named metric with its
    unit, pass the verify leg and replay Run exactly."""
    failures = 0
    proc = subprocess.run([str(binary), "--selftest"], env=pinned_env(),
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        failures += 1
    for workload in TINY_WORKLOADS:
        for trace in (0, 1):
            _, result = run_binary(binary, binary_args(workload, 1, 1, trace))
            expected = contract["per_layer" if trace else "end_to_end"]
            errors = check_result(result, expected)
            if not result.get("correct"):
                errors.append("correct is false")
            if trace and result["metrics"]["trace.replica_mismatches"]["value"] != 0:
                errors.append("traced replay differs from Run")
            status = "ok  " if not errors else "FAIL " + "; ".join(errors)
            print(f"# smoke {workload} --trace {trace}: {status}")
            failures += bool(errors)
    print(f"# self-test: {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    contract = load_contract()
    binary = build()
    if args.self_test:
        return self_test(binary, contract)

    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    if args.seed is None or args.seed < 0 or args.seconds is None or \
            args.seconds < 1 or args.trace is None:
        fail("need --seed N >= 0, --seconds S >= 1 and --trace 0|1")

    lines, result = run_binary(
        binary, binary_args(args.workload, args.seed, args.seconds, args.trace))
    errors = check_result(result, contract["per_layer" if args.trace else "end_to_end"])
    if errors:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("; ".join(errors), 1)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

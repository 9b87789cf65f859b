#!/usr/bin/env python3
"""mmists benchmark: one workload per process, a closed loop over fixed-seed inputs.

Run from the repository root:

    python3 perfbench/run.py --workload train_fused --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

The package is imported from ``src/`` of the tree this script sits in. The
last line of standard output is the result object; the line before it holds
the run's detail (provenance, input descriptors, per-call distributions and,
when traced, every span). See perfbench/README.md.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# Pin every BLAS/OpenMP pool to one thread before numpy is imported anywhere.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXIT_FAILED = 1
EXIT_NO_PROGRAM = 2
SMOKE_TIMEOUT_S = 300


def git_commit() -> str | None:
    """HEAD of the tree's git metadata, when the tree is a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "thread_env": {name: os.environ[name] for name in THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "git_commit": git_commit(),
    }


def check_result(result, expected_units: dict[str, str]) -> list[str]:
    """Problems with one run's result object against the metrics BENCHMARK.json names."""
    if not isinstance(result, dict):
        return ["no result object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    if result["failed"] != 0:
        problems.append(f"failed {result['failed']!r}")
    got = result["metrics"]
    missing = sorted(set(expected_units) - set(got))
    extra = sorted(set(got) - set(expected_units))
    if missing or extra:
        problems.append(f"missing metrics {missing}, unexpected {extra}")
    for name, unit in expected_units.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def smoke() -> int:
    """Run every workload at smoke size, untraced and traced, check that each
    emits every metric BENCHMARK.json names, with its unit, and print the
    end-to-end ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload["name"], "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke",
            ]
            started = time.perf_counter()
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=SMOKE_TIMEOUT_S
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                result = None
            problems = check_result(result, expected[trace])
            if proc.returncode != 0:
                problems.insert(0, f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload['name']} trace={trace} "
                  f"({time.perf_counter() - started:.1f}s): {status}")
            if trace == 0 and isinstance(result, dict):
                for name, entry in result.get("metrics", {}).items():
                    print(f"    {name} = {entry.get('value')} {entry.get('unit')}")
    return EXIT_FAILED if failures else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at smoke size and check the emitted metrics")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return smoke()
    if not (SRC / "mmists" / "__init__.py").is_file():
        print(f"perfbench: no mmists package under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    import numpy as np
    import mmists
    import workloads

    if Path(mmists.__file__).resolve().parent != SRC / "mmists":
        print(f"perfbench: imported mmists from {mmists.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import_s = time.perf_counter() - _START
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    workdir = ROOT / ".perfbench_work" / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = workloads.run(
            w, args.size, args.seed, args.seconds, bool(args.trace), workdir, import_s
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    detail = {"provenance": provenance(np), **outcome.detail}
    print(json.dumps({"detail": detail}, default=float))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())

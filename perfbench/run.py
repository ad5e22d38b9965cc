#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload <serve-dvfs|serve-hpc|publish-churn>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--record PATH] [--trace-out PATH]

Run it from the root of a checkout. It configures and builds perfbench/
(which builds the repository's library from ../src) into
.bench_build/perfbench; after the first run that only re-checks the
build. The build's output goes to stderr; the last line of stdout is the
run's JSON result.
The run record is written only to --record, the spans of a traced run only
to --trace-out. Artifacts live under .bench_build/work while the run lasts.

Exits non-zero, without a result, when the build fails (for instance in a
directory that holds the benchmark but not the repository's sources).
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-dvfs", "serve-hpc", "publish-churn")


def build(build_dir: Path, repo_root: Path = ROOT) -> Path:
    """Configure and build hmd_perfbench; return the binary path.

    Configuring every time is cheap once the cache exists, and it lets a
    build directory recover from an earlier failed configure."""
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release", f"-DHMD_REPO_ROOT={repo_root}"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "hmd_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "hmd_perfbench"


def default_build_dir() -> Path:
    return ROOT / ".bench_build" / "perfbench"


def run_binary(binary: Path, workload: str, seed: int, seconds: float,
               trace: int, record: str = "", trace_out: str = "",
               timeout: float = 900.0) -> subprocess.CompletedProcess:
    work = ROOT / ".bench_build" / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    if record:
        cmd += ["--record", record]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default="")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    try:
        binary = build(default_build_dir())
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    done = run_binary(binary, args.workload, args.seed, args.seconds,
                      args.trace, args.record, args.trace_out)
    if done.returncode != 0:
        print(f"perfbench: run failed with code {done.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Interleaved A/B comparison of two source trees with one benchmark.

    python3 perfbench/ab.py --a <parent tree> --b <change tree>

Both trees are built with this checkout's perfbench/ sources (so the two
sides run identical benchmark code) into .bench_build/ab/{a,b}. It runs
ten pairs; pair i runs every workload of BENCHMARK.json on both sides for
its run_seconds with seed 1000 + i, A first in even pairs and B first in
odd ones. For each workload it prints, for every end-to-end metric and
for the wall-clock figures of the run record (WALL below, checked against
the largest bound), each side's median and quartiles, the share of pairs
B wins, and a verdict (stats.verdict): improved, no worse within bound,
worse, or unresolved. It exits 1 when any verdict is "worse".

The CPU-time metrics drift with the load of a shared host, so the bounds
hold only between runs made close together, as these pairs are. The wall
figures are checked so that a change that only adds waiting (lock waits,
batcher deadlines, fsync), which costs no CPU, still fails a check.

With --a only, it runs the pairs on that one tree and prints each figure's
median, quartiles and spread (IQR / median) against its bound: the
steadiness check of the benchmark itself.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import stats  # noqa: E402

PAIRS = 10
SEED_BASE = 1000
WALL_BOUND = 0.25
# Wall-clock figures of the run record, by the workload that carries them.
WALL = {
    "serve-hpc": {"rows_per_s_wall": "higher", "latency_p50_us_wall": "lower",
                  "cold_start_ms_wall": "lower", "swap_ms_wall": "lower"},
    "publish-churn": {"rows_per_s_wall": "higher",
                      "cold_start_ms_wall": "lower", "swap_ms_wall": "lower"},
}


def run_once(binary, workload, seed, seconds, record):
    done = run.run_binary(binary, workload, seed, seconds, 0, str(record))
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed ({done.returncode})")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {workload} seed {seed} reported correct=false",
              file=sys.stderr)
    figures = {name: m["value"] for name, m in result["metrics"].items()}
    wall = json.loads(record.read_text())
    for name in WALL.get(workload, {}):
        figures[name] = float(wall[name])
    return figures


def fmt(v):
    return f"{v:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="parent source tree")
    parser.add_argument("--b", help="change source tree")
    args = parser.parse_args()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    sides = {"a": Path(args.a).resolve()}
    if args.b:
        sides["b"] = Path(args.b).resolve()
    build_root = run.ROOT / ".bench_build" / "ab"
    binaries = {side: run.build(build_root / side, tree)
                for side, tree in sides.items()}
    record = build_root / "record.json"

    runs = {side: {w: [] for w in workloads} for side in sides}
    for i in range(PAIRS):
        order = sorted(sides) if i % 2 == 0 else sorted(sides, reverse=True)
        for workload in workloads:
            for side in order:
                runs[side][workload].append(
                    run_once(binaries[side], workload, SEED_BASE + i,
                             spec["run_seconds"], record))
        print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr)

    worse = False
    for workload in workloads:
        print(f"\n{workload}")
        checked = [(m["name"], m["better"], m["bound"])
                   for m in spec["end_to_end"]]
        checked += [(name, better, WALL_BOUND)
                    for name, better in WALL.get(workload, {}).items()]
        for name, better, bound in checked:
            a = [r[name] for r in runs["a"][workload]]
            q1, med, q3 = stats.quartiles(a)
            line = (f"  {name:22s} A {fmt(med)} [{fmt(q1)}, {fmt(q3)}]"
                    f" spread {stats.spread(a):.3f} (bound {bound})")
            if "b" in sides:
                b = [r[name] for r in runs["b"][workload]]
                bq1, bmed, bq3 = stats.quartiles(b)
                verdict = stats.verdict(a, b, better, bound)
                worse = worse or verdict == "worse"
                line += (f"  B {fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}]"
                         f"  B wins {stats.win_fraction(a, b, better):.2f}"
                         f"  {verdict}")
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

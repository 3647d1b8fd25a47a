"""Run perfbench over several seeds and summarize every metric of every workload.

Usage, from the repository root:

    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --out results.json
    python3 perfbench/report.py --seeds 11 12 13 --compare results.json

Each (workload, trace, seed) is one ``run.py`` process with the settings
in BENCHMARK.json. For every metric the table shows the median over the
seeds, the quartiles from ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median ("spread"). End-to-end spreads are
checked against a third of the metric's bound, except ``setup_s``;
per-layer counts must repeat exactly for a seed. ``--compare`` checks that
each end-to-end median is not worse than the one in an earlier ``--out``
file by more than its bound, and that each per-layer count per seed is
the same. Exits 1 when a run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes")


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.stdout.write(done.stdout)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0, 1])
    parser.add_argument("--out", type=Path, help="write every run's metrics here")
    parser.add_argument("--compare", type=Path, help="an earlier --out file to compare with")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    results: dict = {}
    problems: list[str] = []
    for workload in args.workloads:
        for trace in args.trace:
            label = f"{workload}/trace{trace}"
            runs = {seed: run_once(workload, seed, trace) for seed in args.seeds}
            results[label] = {str(seed): r["metrics"] for seed, r in runs.items()}
            for seed, r in runs.items():
                if not r["correct"] or r["failed"]:
                    problems.append(f"{label} seed {seed}: correct={r['correct']} failed={r['failed']}")
            first = next(iter(runs.values()))["metrics"]
            print(f"{label}: {len(runs)} seeds")
            print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  unit")
            for name, cell in first.items():
                values = [r["metrics"][name]["value"] for r in runs.values()]
                med, q1, q3, share = spread(values)
                note = ""
                if name in bounds:
                    note = f"  (bound {bounds[name]})"
                    if name != "setup_s" and share > bounds[name] / 3:
                        problems.append(f"{label} {name}: spread {share:.4f} above a third of its bound")
                print(f"  {name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.4f}  {cell['unit']}{note}")
                old = earlier.get(label)
                if old is None:
                    continue
                old_values = [m[name]["value"] for m in old.values()]
                if name in bounds:
                    old_med = statistics.median(old_values)
                    if med > old_med * (1 + bounds[name]):
                        problems.append(f"{label} {name}: median {med:.6g} worse than {old_med:.6g} by more than {bounds[name]}")
                elif cell["unit"] in COUNT_UNITS:
                    for seed in runs:
                        if str(seed) in old and old[str(seed)][name]["value"] != runs[seed]["metrics"][name]["value"]:
                            problems.append(f"{label} {name}: seed {seed} count differs from the earlier run")
    if args.out:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

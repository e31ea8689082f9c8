"""Run the benchmark once per seed and report how much each metric spreads.

    python3 perfbench/spread.py --workloads polytope cli --seeds 1 2 3 4 5

For every workload and end-to-end metric it prints the median over the seeds
and the distance between the first and third quartile as a share of that
median, next to the metric's bound from BENCHMARK.json. With `--out FILE`
it also writes a record of the runs as JSON: the machine, the Python, the git
commit, the seeds, and for every metric its values and quartiles. Runs go one
after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread
from run import cpu_model

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def record(args, seen: dict[str, dict[str, list[float]]]) -> dict:
    def summary(values: list[float]) -> dict:
        q1, median, q3 = statistics.quantiles(values, n=4)
        return {"q1": q1, "median": median, "q3": q3, "spread": quartile_spread(values), "values": values}

    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {w: {name: summary(v) for name, v in values.items()} for w, values in seen.items()},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seen: dict[str, dict[str, list[float]]] = {}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={result['metrics'][name]['value']:.5g}" for name in bounds), flush=True)
        seen[workload] = values
        for name, series in values.items():
            spread = quartile_spread(series) if len(series) >= 2 else 0.0
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {workload:9s} {name:15s} median {statistics.median(series):<12.6g}"
                  f" spread {spread:7.2%}  bound {bounds[name]:.0%}  ({share:.2f} of bound)", flush=True)
    print(f"widest spread, setup_s aside: {worst:.2f} of its bound")
    if args.out:
        Path(args.out).write_text(json.dumps(record(args, seen), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

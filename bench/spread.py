"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload NAME [--seeds 0-9]

Runs the benchmark untraced once per seed, one run at a time, for
BENCHMARK.json's ``run_seconds``, and prints for each end-to-end metric the
values' median, quartiles and interquartile range as a share of the median,
next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default="0-9")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(spec["run_seconds"]), "--trace",
               "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " +
              " ".join(f"{k}={v['value']:.4g}"
                       for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) < 2:
        return 0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

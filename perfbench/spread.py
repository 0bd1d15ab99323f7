"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload search --seeds 1-10

Runs run.py once per seed (``--trace 0``, BENCHMARK.json's run_seconds) and
prints, for each metric, the median over the runs and the distance between
the first and third quartiles (``statistics.quantiles(n=4)``) as a share of
that median, next to the metric's bound and a third of it.
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


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for m in spec["end_to_end"]:
        q1, med, q3 = statistics.quantiles(values[m["name"]], n=4)
        print(f"{m['name']:>14}: median={med:.5g} spread={(q3 - q1) / med:.4f} "
              f"bound={m['bound']} bound/3={m['bound'] / 3:.4f}")


if __name__ == "__main__":
    main()

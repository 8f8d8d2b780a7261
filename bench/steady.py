"""Run the benchmark on several seeds and print each end-to-end metric's
median and quartile spread (IQR over median), to check that a change to
the benchmark keeps it steady.

    python3 bench/steady.py --seconds 55 --seeds 1-10 batch-mixed compile-export-m300
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import measures

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    args = parser.parse_args()
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((RUN.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    }
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: not correct\n{proc.stdout}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            spread = measures.quartile_spread(series)
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:22s} {name:16s} median {statistics.median(series):.6g} "
                  f"spread {spread:.4f} bound {bounds[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

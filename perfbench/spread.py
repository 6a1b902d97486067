"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads smooth flow --seeds 1-10 --seconds 25

Runs ``run.py`` once per workload and seed, one process at a time, and
prints for every metric the median and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median.  ``--json FILE`` also writes the raw values and spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)}: incorrect outcome\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--json", metavar="FILE")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    out = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            for name, value in run_once(workload, seed, args.seconds).items():
                values.setdefault(name, []).append(value)
        out[workload] = {}
        for name, vals in values.items():
            med, spr = spread(vals)
            out[workload][name] = {"median": med, "spread": spr, "values": vals}
            print(f"{workload:9s} {name:12s} median {med:10.4f}  spread {spr:.3f}",
                  flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

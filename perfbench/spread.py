"""Run-to-run spread of the gated metrics.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload svc-stream --runs 5 [--first-seed 1]

Runs the benchmark once per seed (``first-seed``, ``first-seed + 1``, …)
and prints, for each end-to-end metric, the median and the distance
between the first and third quartiles as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  A benchmark is steady when
every spread except ``setup_s`` stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import HERE, ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(proc.stdout)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{m['name']:18s} median {med:12.6g}  spread {(q3 - q1) / med:7.4f}"
              f"  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

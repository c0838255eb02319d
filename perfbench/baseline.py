"""Median and spread of every end-to-end metric over runs with different seeds.

Runs ``run.py`` once per seed and workload, then writes, per workload and
metric, the median and the quartile spread ``(Q3 - Q1) / median`` as given
by ``statistics.quantiles(values, n=4)``.  From the root of a checkout::

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"median": mid, "spread": (q3 - q1) / mid if mid else 0.0, "values": values}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    seeds = list(range(1, args.runs + 1))
    out = {"run_seconds": spec["run_seconds"], "seeds": seeds, "environment": None, "workloads": {}}
    for workload in args.workloads:
        samples: dict[str, list[float]] = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                check=True, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            out["environment"] = lines[0].split(" ", 4)[4]
            result = json.loads(lines[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect reports\n{proc.stdout}")
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        out["workloads"][workload] = {name: summarize(v) for name, v in samples.items()}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for name, s in out["workloads"][workload].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:9s} {name:14s} median {s['median']:12.6g} spread {s['spread']:.4f}{flag}",
                  flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

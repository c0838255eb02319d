"""The magres benchmark: replays fixed lists of ``magres`` CLI commands.

Usage, from the root of a checkout (no build step; the package is imported
from ``src``)::

    python3 perfbench/run.py --workload lowspec --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``lowspec``, ``fullspec``, ``geometry``,
four commands each.  Each run first times ``SETUP_SAMPLES`` fresh processes
that import ``magres.cli`` and load the bundled structures, then runs the
workload in one more fresh process (``worker.py``).  Every process runs with
one BLAS thread and ``MAGRES_THREADS=1``; the output records these settings
with the core count and the numpy, scipy and BLAS versions.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: ``setup_s``, ``makespan_s`` (one pass over the commands),
``peak_rss_mb`` and ``correct_ratio``.  The lines above it also give each
command's latency, from argv to the written report, as ``<command>_s``.
Timings are medians.  With ``--trace 1`` the last line holds the per-layer
metrics of ``tracing.py`` from the traced passes, and the spans are written
to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from tracing import metric_units
from workloads import WHY, commands

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# Report bytes depend on the BLAS thread count.  One thread also keeps the
# timings steadier on a shared machine than two threads that wait on each other.
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0
SETUP_CODE = (
    "import magres.cli\n"
    "from magres.selfsimilar import bundled_structure\n"
    "for name in magres.cli.BUNDLED_NAMES:\n"
    "    bundled_structure(name)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
        "MAGRES_THREADS": "1",
    })
    return env


def time_setup(env: dict) -> float:
    # a blocking wait: waiting with a timeout polls in steps of up to 50 ms
    t = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env,
                          stdout=subprocess.DEVNULL) as proc:
        code = proc.wait()
    elapsed = time.perf_counter() - t
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def _untraced(result: dict) -> set:
    return {p for p, info in enumerate(result["passes"]) if not info["traced"]}


def end_to_end(setup: list, result: dict) -> dict:
    """``name -> (value, unit, samples, note)`` from the untraced passes."""
    plain = _untraced(result)
    reports = result["reports"]
    failed = sum(1 for r in reports if r["problems"])
    return {
        "setup_s": (median(setup), "s", len(setup), ""),
        "makespan_s": (median(result["passes"][p]["seconds"] for p in plain), "s", len(plain), ""),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1, ""),
        "correct_ratio": ((len(reports) - failed) / len(reports), "ratio", len(reports), ""),
    }


def command_latencies(result: dict, cmds: list) -> dict:
    """Median latency of each command, from argv to the written report (printed only)."""
    plain = _untraced(result)
    values = {}
    for i, (label, argv) in enumerate(cmds):
        samples = [r["seconds"] for r in result["reports"] if r["index"] == i and r["pass"] in plain]
        values[f"{label}_s"] = (median(samples), "s", len(samples), f"magres {' '.join(argv)}")
    return values


def per_layer(result: dict) -> dict:
    """``name -> (value, unit, samples, note)`` from the traced passes."""
    traced = [info["seconds"] for info in result["passes"] if info["traced"]]
    plain = [info["seconds"] for info in result["passes"] if not info["traced"]]
    values = {}
    for name, unit in metric_units().items():
        samples = [m[name] for m in result["layers"]]
        note = ""
        if name.endswith(".self_share"):
            note = f"self time {median(m[name] * t for m, t in zip(result['layers'], traced)):.4g} s"
        values[name] = (median(samples), unit, len(samples), note)
    values["trace.makespan_s"] = (median(traced), "s", len(traced), "")
    values["trace.overhead_s"] = (median(traced) - median(plain), "s", len(traced),
                                  "traced minus untraced makespan_s")
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="magres benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "magres" / "cli.py").is_file():
        print(f"perfbench: no magres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = child_env()
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = runs / f"spans-{tag}.json"
    with tempfile.TemporaryDirectory(dir=runs, prefix=f"{tag}-") as tmp:
        result_file = Path(tmp) / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", tmp, "--result", str(result_file)]
        if args.trace:
            cmd += ["--spans", str(spans)]
        try:
            setup = [time_setup(env) for _ in range(SETUP_SAMPLES)]
            subprocess.run(cmd, env=env, check=True, stdout=sys.stderr,
                           timeout=TIME_LIMIT_S - (time.perf_counter() - started))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: workload process failed: {exc}", file=sys.stderr)
            return 1
        result = json.loads(result_file.read_text(encoding="utf-8"))

    env_info = result["environment"]
    print(f"perfbench {args.workload} seed={args.seed} passes={len(result['passes'])} "
          + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for r in result["reports"]:
        for problem in r["problems"]:
            print(f"  FAILED pass {r['pass']} {r['label']}: {problem}")
    e2e = end_to_end(setup, result)
    latencies = command_latencies(result, commands(args.workload, args.seed))
    layers = per_layer(result) if args.trace else {}
    for name, (value, unit, n, note) in {**e2e, **latencies, **layers}.items():
        print(f"  {name:50s} {value:14.6g} {unit:6s} n={n}  {note}".rstrip())
    reports = result["reports"]
    failed = sum(1 for r in reports if r["problems"])
    shown = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

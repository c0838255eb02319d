"""Runs one workload in a fresh process, started by ``run.py``.

One client, closed loop: each ``magres`` command starts only after the
previous report is written.  A pass is one run of the workload's command
list.  Another pass starts only if one more pass as long as the last one
still ends within ``--seconds``, so a run measures for at most about
``--seconds`` but always makes at least one pass, two with ``--trace 1``:
there odd passes are traced and even ones are not, so the same run gives
the tracing overhead.  Every report is checked after the last pass
and the result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import magres.cli
from magres.selfsimilar import bundled_structure

from oracle import check, load_reference
from tracing import REPORT, Tracer, eigenvalues_used, layer_metrics
from workloads import commands


def environment() -> dict:
    """Thread settings and library versions that report bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MAGRES_THREADS")
    return {
        **{name: os.environ.get(name) for name in names},
        "cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas['name']} {blas['version']}",
        "scipy_blas": f"{scipy_blas['name']} {scipy_blas['version']}",
    }


def run(cmds: list, seconds: float, traced: bool, out_dir: Path) -> tuple[dict, list]:
    """Passes over ``(label, argv)`` commands; returns the result and the recorded spans."""
    tracer = Tracer()
    passes, reports = [], []
    start = time.perf_counter()
    while (len(passes) < 1 + int(traced)
           or time.perf_counter() - start + passes[-1]["seconds"] <= seconds):
        p = len(passes)
        trace_pass = traced and p % 2 == 1
        size = 0
        t_pass = time.perf_counter()
        with tracer if trace_pass else nullcontext():
            for i, (label, argv) in enumerate(cmds):
                out = out_dir / f"report{i}.json"
                out.unlink(missing_ok=True)
                extra = ["--out-dir", str(out_dir / "build")] if argv[0] == "build" else []
                tracer.report = (p, i)
                t = time.perf_counter()
                try:
                    code = magres.cli.main([*argv, *extra, "--output", str(out)])
                except Exception:
                    traceback.print_exc()
                    code = None
                dt = time.perf_counter() - t
                text = out.read_bytes() if out.exists() else b""
                size += len(text)
                reports.append({"pass": p, "index": i, "label": label, "seconds": dt,
                                "code": code, "text": text})
        passes.append({"seconds": time.perf_counter() - t_pass, "traced": trace_pass,
                       "report_bytes": size})

    reference = load_reference()
    first_digest = {}
    for r in reports:
        text = r.pop("text")
        digest = hashlib.sha256(text).hexdigest()
        r["problems"] = check(cmds[r["index"]][1], r["code"], text, reference)
        if first_digest.setdefault(r["index"], digest) != digest:
            r["problems"].append("report bytes differ from the first pass")

    traced_passes = [p for p, info in enumerate(passes) if info["traced"]]
    used = {(p, i): eigenvalues_used(argv) for p in traced_passes for i, (_, argv) in enumerate(cmds)}
    layers = []
    for p in traced_passes:
        metrics = layer_metrics([s for s in tracer.spans if s[REPORT][0] == p], used,
                                passes[p]["seconds"])
        metrics["cli.report_bytes"] = passes[p]["report_bytes"]
        layers.append(metrics)
    return {"passes": passes, "reports": reports, "layers": layers}, tracer.spans


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()
    for name in magres.cli.BUNDLED_NAMES:
        bundled_structure(name)
    cmds = commands(args.workload, args.seed)
    result, spans = run(cmds, args.seconds, bool(args.trace), args.out_dir)
    if args.spans is not None:
        args.spans.write_text(json.dumps(spans), encoding="utf-8")
    result["environment"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself, on small inputs.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracing
import worker
from workloads import VARIANTS, WHY, commands

ROOT = Path(__file__).resolve().parent.parent

# Small versions of every workload command, touching every traced layer.
SMALL = [
    ("spectrum", ["spectrum", "--structure", "gasket", "--level", "3", "--model", "peierls",
                  "--field", "random:1", "--k", "4"]),
    ("flux_sweep", ["flux-sweep", "--structure", "circle", "--level", "4", "--model", "peierls",
                    "--cycle", "0", "--grid=0.0:6.283185307179586:5", "--k", "3"]),
    ("converge", ["converge", "--structure", "gasket", "--levels", "1,2,3", "--k", "3",
                  "--model", "peierls", "--renormalize"]),
    ("zero_mode", ["zero-mode", "--structure", "gasket", "--level", "2",
                   "--field", "cycle:2:6.283185307179586"]),
    ("gauge_check", ["gauge-check", "--structure", "gasket", "--level", "2", "--model", "peierls",
                     "--count", "2"]),
    ("solve", ["solve", "--structure", "gasket", "--level", "2", "--model", "peierls",
               "--dirichlet", "boundary", "--rhs", "delta:4"]),
    ("audit", ["audit", "--structure", "gasket", "--level", "2", "--trials", "20"]),
    ("build", ["build", "--structure", "gasket", "--level", "2"]),
    ("trace_check", ["trace-check", "--structure", "gasket", "--level", "3"]),
    ("hodge", ["hodge", "--structure", "gasket", "--level", "3"]),
]

MEASURED = {name for name in tracing.metric_units() if name.endswith(("_s", "_share"))}


def _traced_run(tmp_path):
    return worker.run(SMALL, 0.0, True, tmp_path)


def _report_totals(spans):
    """Per report: (sum of self times, duration of its root span)."""
    totals = {}
    for span, own in zip(spans, tracing.self_times(spans)):
        total, root = totals.get(span[tracing.REPORT], (0.0, 0.0))
        if span[tracing.PARENT] is None:
            root += span[tracing.END] - span[tracing.START]
        totals[span[tracing.REPORT]] = (total + own, root)
    return totals


def test_traced_counts_repeat_and_self_times_sum(tmp_path):
    (first, spans), (second, _) = _traced_run(tmp_path), _traced_run(tmp_path)
    assert [p["traced"] for p in first["passes"]] == [False, True]
    counts = [{k: v for k, v in r["layers"][0].items() if k not in MEASURED} for r in (first, second)]
    assert counts[0] == counts[1]
    for layer in tracing.LAYERS:
        assert counts[0][f"{layer}.errors"] == 0
    assert counts[0]["cli.main.calls"] == len(SMALL)
    assert counts[0]["network.resistance_matrix.max_dim"] == 15  # gasket L2 vertices
    assert 0.0 < counts[0]["spectral.hermitian_eigs.useful_ratio"] < 1.0
    shares = sum(v for k, v in first["layers"][0].items() if k.endswith("_share"))
    assert 0.5 < shares <= 1.0

    totals = _report_totals(spans)
    assert len(totals) == len(SMALL)
    wall = {(r["pass"], r["index"]): r["seconds"] for r in first["reports"]}
    for report, (self_sum, root) in totals.items():
        assert self_sum == pytest.approx(root, rel=1e-9, abs=1e-9)
        assert root <= wall[tuple(report)]


def test_tracer_restores_every_binding():
    import magres.cli
    import magres.spectral

    before = (magres.cli.main, magres.cli.hermitian_eigs, magres.spectral.hermitian_eigs)
    with tracing.Tracer():
        assert magres.cli.hermitian_eigs is magres.spectral.hermitian_eigs
        assert magres.cli.hermitian_eigs is not before[1]
    assert (magres.cli.main, magres.cli.hermitian_eigs, magres.spectral.hermitian_eigs) == before


def test_circle_closed_form_accepts_dense_and_rejects_wrong_flux(tmp_path):
    import magres.cli

    argv = ["spectrum", "--structure", "circle", "--level", "6", "--model", "peierls",
            "--field", "cycle:0:1.25", "--k", "8"]
    out = tmp_path / "r.json"
    assert magres.cli.main([*argv, "--output", str(out)]) == 0
    text = out.read_bytes()
    assert oracle.check(argv, 0, text, {}) == []
    wrong = argv[:-3] + ["cycle:0:1.5", "--k", "8"]
    assert oracle.check(wrong, 0, text, {})
    assert oracle.check(argv, 1, text, {}) == ["exit code 1"]


def test_reference_check_uses_relative_tolerance():
    want = {"eigenvalues.all": [0.0, 1000.0]}
    doc = json.dumps({"verdict": "PASS", "report": {"eigenvalues": [1e-7, 1000.0 + 1e-6]}})
    argv = ["spectrum", "--structure", "gasket"]
    assert oracle.check(argv, 0, doc, {"spectrum --structure gasket": want}) == []
    bad = json.dumps({"verdict": "PASS", "report": {"eigenvalues": [1e-3, 1000.0]}})
    assert oracle.check(argv, 0, bad, {"spectrum --structure gasket": want})
    assert oracle.check(argv, 0, doc, {}) == ["no reference values for this command"]


def test_reference_covers_every_gasket_command():
    reference = oracle.load_reference()
    for seed in range(VARIANTS):
        for workload in WHY:
            for _, argv in commands(workload, seed):
                if "gasket" in argv:
                    assert oracle.reference_key(argv) in reference


def test_inputs_depend_on_seed_but_sizes_do_not():
    def sizes(cmds):
        return [(oracle._option(argv, "--level"), oracle._option(argv, "--levels")) for _, argv in cmds]

    for workload in WHY:
        assert commands(workload, 3) == commands(workload, 3)
        assert commands(workload, 3) != commands(workload, 4)
        assert sizes(commands(workload, 3)) == sizes(commands(workload, 12))


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WHY)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    result = {
        "passes": [{"seconds": 1.0, "traced": False}],
        "reports": [{"pass": 0, "index": 0, "seconds": 0.1, "problems": []}],
        "peak_rss_mb": 100.0,
    }
    e2e = run.end_to_end([0.5], result)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v[1] for k, v in e2e.items()}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fullspec", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

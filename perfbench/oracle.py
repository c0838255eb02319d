"""Correctness oracle for the benchmark's reports.

A report is correct when its command exited 0 with verdict PASS, its bytes
are the same in every pass of a run (checked by the worker) and its numbers
match an oracle within ``RTOL``:

* circle spectra and flux-sweep rows match the closed form
  ``4^n (2 - 2 cos((2 pi j + theta) / 2^n))``, ``j = 0 .. 2^n - 1``, for
  total flux ``theta`` around the circle's single cycle;
* a gasket zero-mode report with integral flux must find the zero mode;
* every other gasket number matches ``reference.json``, recorded once from
  the dense path.  The tolerance is relative to the largest reference value
  of each named group (at least 1), so a faster path with rounding
  differences passes while a wrong answer fails.

Recording the reference (about three minutes on two cores)::

    PYTHONPATH=src python3 perfbench/oracle.py --record
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from workloads import VARIANTS, WHY, commands

RTOL = 1e-8
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def reference_key(argv: list[str]) -> str:
    return " ".join(argv)


def _option(argv: list[str], name: str) -> str | None:
    for i, a in enumerate(argv):
        if a == name:
            return argv[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return None


def circle_eigenvalues(level: int, flux: float, k: int) -> np.ndarray:
    """Lowest ``k`` eigenvalues of the Peierls operator on the level-``level`` circle."""
    n = 2**level
    j = np.arange(n)
    return np.sort(4.0**level * (2.0 - 2.0 * np.cos((2.0 * np.pi * j + flux) / n)))[:k]


def _sample(values) -> dict:
    """A long vector as its head, a strided sample and its sum; a short one as is."""
    v = [float(x) for x in np.ravel(values)]
    if len(v) <= 64:
        return {"all": v}
    return {"head": v[:16], "stride": v[:: len(v) // 32], "sum": [math.fsum(v)]}


def summarize(command: str, report: dict) -> dict[str, list[float]]:
    """Named groups of numbers that the oracle compares for one report."""
    r = report
    if command in ("spectrum", "converge", "flux-sweep"):
        return {f"eigenvalues.{k}": v for k, v in _sample(r["eigenvalues"]).items()}
    if command == "zero-mode":
        return {
            "ground_energy": [r["ground_energy"]],
            "modulus_spread": [r["modulus_spread"]],
            "max_flux_defect": [r["max_flux_defect"]],
        }
    if command == "gauge-check":
        return {"scale": [r["scale"]]}
    if command == "solve":
        return {f"u.{k}": v for k, v in _sample(r["u"]).items()}
    if command == "audit":
        return {
            "m_profile": [m for _, m in r["m_profile"]],
            "doubling_profile": [q for _, q in r["doubling_profile"]],
            "metric_doubling": [r["metric_doubling"]],
            "worst_poincare_ratio": [r["worst_poincare_ratio"]],
            "sup_bound_constant": [r["sup_bound_constant"]],
            "klmn": [r["klmn"]["epsilon"], r["klmn"]["C"], r["klmn"]["fa_constant"]],
        }
    if command == "build":
        return {
            "size": [r["vertices"], r["edges"]],
            "max_deviation": [r["compatibility"]["max_deviation"]],
        }
    if command == "trace-check":
        return {
            "compat_deviation": [c["max_deviation"] for c in r["compatibility"]],
            "iterated_deviation": [r["iterated_vs_direct"]["max_deviation"]],
        }
    if command == "hodge":
        return {
            "norms": [r["exact_norm_sq"], r["coulomb_norm_sq"], r["total_norm_sq"]],
            **{f"potential.{k}": v for k, v in _sample(r["potential"]).items()},
        }
    raise ValueError(f"no oracle for command {command!r}")


def _compare(got: dict, want: dict) -> list[str]:
    problems = []
    if set(got) != set(want):
        return [f"groups {sorted(got)} differ from reference {sorted(want)}"]
    for name, ref in want.items():
        a, b = np.asarray(got[name], dtype=float), np.asarray(ref, dtype=float)
        if a.shape != b.shape:
            problems.append(f"{name}: {a.size} values, reference has {b.size}")
            continue
        tol = RTOL * max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
        err = float(np.max(np.abs(a - b))) if a.size else 0.0
        if not err <= tol:
            problems.append(f"{name}: deviation {err:.3e} exceeds {tol:.3e}")
    return problems


def _closed_form(argv: list[str]) -> dict[str, list[float]] | None:
    """Oracle values computed from first principles, where a closed form exists."""
    command = argv[0]
    if _option(argv, "--structure") != "circle":
        return None
    level = int(_option(argv, "--level"))
    k = int(_option(argv, "--k"))
    if command == "spectrum":
        flux = float(_option(argv, "--field").split(":")[2])
        return summarize(command, {"eigenvalues": circle_eigenvalues(level, flux, k)})
    if command == "flux-sweep":
        start, stop, count = _option(argv, "--grid").split(":")
        rows = [circle_eigenvalues(level, t, k) for t in np.linspace(float(start), float(stop), int(count))]
        return summarize(command, {"eigenvalues": rows})
    return None


def check(argv: list[str], exit_code: int, text: bytes, reference: dict) -> list[str]:
    """Problems found in one report; an empty list means the report is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(text)
        if doc["verdict"] != "PASS":
            return [f"verdict {doc['verdict']}"]
        got = summarize(argv[0], doc["report"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    problems = []
    if argv[0] == "zero-mode" and not (doc["report"]["zero_mode"] and doc["report"]["fluxes_integral"]):
        problems.append("integral flux but no zero mode")
    want = _closed_form(argv)
    if want is None:
        want = reference.get(reference_key(argv))
        if want is None:
            return problems + ["no reference values for this command"]
    return problems + _compare(got, want)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["commands"]


def record(out: Path = REFERENCE) -> None:
    """Run every gasket command of every variant once and store its numbers."""
    from magres.cli import main

    refs = {}
    with tempfile.TemporaryDirectory(dir=out.parent) as tmp:
        report = Path(tmp) / "report.json"
        for variant in range(VARIANTS):
            for workload in WHY:
                for _, argv in commands(workload, variant):
                    key = reference_key(argv)
                    if key in refs or _option(argv, "--structure") != "gasket":
                        continue
                    extra = ["--out-dir", tmp] if argv[0] == "build" else []
                    if main([*argv, *extra, "--output", str(report)]) != 0:
                        raise SystemExit(f"reference command failed: {key}")
                    doc = json.loads(report.read_text(encoding="utf-8"))
                    refs[key] = summarize(argv[0], doc["report"])
                    print(f"recorded {key}", file=sys.stderr, flush=True)
    payload = {"rtol": RTOL, "commands": refs}
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python3 perfbench/oracle.py --record")
    record()

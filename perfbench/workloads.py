"""The benchmark's workloads: fixed lists of ``magres`` CLI commands.

Sizes never depend on the seed.  The seed chooses the inputs: flux values
on the circle (checked against a closed form, so any value works) and one
of ``VARIANTS`` gasket input sets (field seed, cycle index, gauge and audit
seeds, right-hand-side vertex), whose results are checked against
reference values recorded once from the dense path (``reference.json``).
"""

from __future__ import annotations

import math
import random

VARIANTS = 8
TWO_PI = 2.0 * math.pi

#: One line per workload: why it is in the benchmark.
WHY = {
    "lowspec": "k-limited spectra at the largest dense sizes: hermitian_eigs computes every "
    "eigenvalue while at most 8 are reported, so a partial-spectrum or sparse path shows here",
    "fullspec": "gasket L6 reports that need every eigenvalue or eigenvector, so a k-limited "
    "speed-up must show no change here and a change to the vector or check path shows only here",
    "geometry": "resistance metric, audits and Schur traces with no eigensolve: trace_to, "
    "metric_doubling_estimate and resistance_matrix dominate, so spectral changes predict no movement",
}

# Gasket L6 has 3^7 = 2187 edges and 1095 vertices, hence 1093 independent cycles.
GASKET_L6_CYCLES = 1093
GASKET_L6_VERTICES = 1095


def gasket_variant(seed: int) -> dict:
    """Gasket inputs of the variant ``seed`` selects (a pure function of ``seed % VARIANTS``)."""
    rng = random.Random(f"gasket-variant-{seed % VARIANTS}")
    return {
        "field": f"random:{rng.randrange(10**6)}",
        "cycle": rng.randrange(GASKET_L6_CYCLES),
        "gauge_seed": rng.randrange(10**6),
        "audit_seed": rng.randrange(10**6),
        "rhs_vertex": rng.randrange(GASKET_L6_VERTICES),
    }


def commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """``(label, argv)`` pairs of one pass, in order; ``label`` names the report's metric."""
    v = gasket_variant(seed)
    rng = random.Random(f"{workload}-{seed}")
    f = v["field"]
    if workload == "lowspec":
        flux = rng.uniform(0.0, TWO_PI)
        # a grid offset by a multiple of pi/8 keeps periodic and symmetric pairs
        start = rng.randrange(8) * math.pi / 8.0
        grid = f"{start!r}:{start + TWO_PI!r}:9"
        return [
            ("spectrum", ["spectrum", "--structure", "gasket", "--level", "7", "--model", "peierls",
                          "--field", f, "--k", "8"]),
            ("spectrum_circle", ["spectrum", "--structure", "circle", "--level", "11", "--model", "peierls",
                                 "--field", f"cycle:0:{flux!r}", "--k", "8"]),
            ("flux_sweep", ["flux-sweep", "--structure", "circle", "--level", "10", "--model", "peierls",
                            "--cycle", "0", f"--grid={grid}", "--k", "4"]),
            ("converge", ["converge", "--structure", "gasket", "--levels", "3,4,5,6", "--k", "5",
                          "--model", "peierls", "--field", f, "--renormalize"]),
        ]
    if workload == "fullspec":
        common = ["--structure", "gasket", "--level", "6"]
        return [
            # flux 2*pi on one cycle: a zero mode must exist, so eigenvectors are checked
            ("zero_mode", ["zero-mode", *common, "--field", f"cycle:{v['cycle']}:{TWO_PI!r}"]),
            ("gauge_check", ["gauge-check", *common, "--model", "peierls", "--field", f,
                             "--count", "3", "--seed", str(v["gauge_seed"])]),
            ("spectrum", ["spectrum", *common, "--model", "linearized", "--field", f,
                          "--boundary", "dirichlet"]),
            ("solve", ["solve", *common, "--model", "peierls", "--field", f,
                       "--dirichlet", "boundary", "--rhs", f"delta:{v['rhs_vertex']}"]),
        ]
    if workload == "geometry":
        return [
            ("audit", ["audit", "--structure", "gasket", "--level", "6", "--field", f,
                       "--seed", str(v["audit_seed"])]),
            ("build", ["build", "--structure", "gasket", "--level", "7"]),
            ("trace_check", ["trace-check", "--structure", "gasket", "--level", "7"]),
            ("hodge", ["hodge", "--structure", "gasket", "--level", "7", "--field", f]),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WHY)}")

"""Per-layer spans of the ``magres`` library, recorded from outside.

A :class:`Tracer` rebinds each function listed in ``LAYERS``, in every loaded
``magres`` module that holds it, to a wrapper that records a span: name,
start, end, parent span and report id.  Rebinding every holder matters
because ``cli`` and ``spectral`` import functions by name and
``zero_mode_test`` imports ``hermitian_eigs`` at call time.  Spans stay in
memory until the run ends.  Spans nest strictly because the benchmark runs
with ``MAGRES_THREADS=1``; a span's self time is its duration minus that of
its children.

Self times are reported as ``self_share``: seconds of self time divided by
the wall time of the traced pass (``trace.makespan_s``, the base of every
share).  A share is steadier than seconds on a machine whose speed drifts,
and a layer a workload never calls reads 0.  Work counts (``max_dim``,
``dense_bytes``, ``fill_ratio``, ``useful_ratio``, ``max_interior_dim``,
call counts) are computed from argument shapes, not measured, so they
repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: Layers (``magres`` modules) and the public functions traced in each.
LAYERS = {
    "cli": ("main",),
    "selfsimilar": ("refine", "vertex_measure", "verify_compatibility"),
    "oneforms": ("cycle_basis", "hodge_decompose", "field_from_spec"),
    "magnetic": ("assemble", "zero_mode_test", "dirichlet_solve", "gauge_transform"),
    "spectral": ("hermitian_eigs", "spectrum", "flux_sweep", "convergence_table"),
    "network": ("trace_to", "laplacian", "resistance_matrix"),
    "measure_audit": (
        "metric_doubling_estimate", "lower_mass_profile", "doubling_estimate",
        "poincare_check", "sup_bound_audit", "klmn_audit", "full_audit",
    ),
}

#: Functions whose call count is reported.
COUNTED = (
    "cli.main", "selfsimilar.refine", "selfsimilar.vertex_measure",
    "selfsimilar.verify_compatibility", "oneforms.hodge_decompose", "magnetic.assemble",
    "spectral.hermitian_eigs", "network.trace_to", "network.laplacian",
)

#: Sizes taken from the bound arguments of a call.
SHAPES = {
    "spectral.hermitian_eigs": lambda a: {
        "dim": len(a["H"]), "vectors": int(bool(a["compute_vectors"])),
    },
    "magnetic.assemble": lambda a: {"dim": a["net"].vertex_count, "edges": a["net"].edge_count},
    "network.trace_to": lambda a: {
        "interior": a["net"].vertex_count - len({int(v) for v in a["keep"]}),
    },
    "network.resistance_matrix": lambda a: {"dim": a["net"].vertex_count},
}

# span fields
NAME, START, END, PARENT, REPORT, COUNTS, ERROR = range(7)


def _share(name: str) -> str:
    return "cli.self_share" if name == "cli.main" else f"{name}.self_share"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, names in LAYERS.items():
        for fn in names:
            full = f"{layer}.{fn}"
            if full in COUNTED:
                units[f"{full}.calls"] = "count"
            units[_share(full)] = "ratio"
    units.update({
        "spectral.hermitian_eigs.vector_calls": "count",
        "spectral.hermitian_eigs.max_dim": "count",
        "spectral.hermitian_eigs.useful_ratio": "ratio",
        "magnetic.assemble.dense_bytes": "B",
        "magnetic.assemble.fill_ratio": "ratio",
        "network.trace_to.max_interior_dim": "count",
        "network.resistance_matrix.max_dim": "count",
        "cli.report_bytes": "B",
    })
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units.update({"trace.makespan_s": "s", "trace.overhead_s": "s"})
    return units


class Tracer:
    """Context manager that traces ``LAYERS`` while active; ``report`` tags new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.report = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        shape = SHAPES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if shape is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = shape(bound.arguments)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.report, counts, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "magres" or n.startswith("magres.")]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"magres.{layer}")
            for fn in names:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        return False


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def eigenvalues_used(argv: list[str]) -> int | None:
    """Eigenvalues per solve that a command reports or compares; ``None`` means all."""
    if argv[0] == "zero-mode":
        return 1
    if "--k" in argv:
        return int(argv[argv.index("--k") + 1])
    return None


def layer_metrics(spans: list[list], used: dict, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``wall`` seconds.

    ``used`` maps each report id to its ``eigenvalues_used``.
    """
    m = {name: 0 for name in metric_units()}
    computed = useful = 0
    largest = -1
    for span, own in zip(spans, self_times(spans)):
        name, counts = span[NAME], span[COUNTS]
        m[_share(name)] += own / wall
        if name in COUNTED:
            m[f"{name}.calls"] += 1
        m[f"{name.split('.')[0]}.errors"] += int(span[ERROR])
        if name == "spectral.hermitian_eigs":
            dim, k = counts["dim"], used[span[REPORT]]
            m[f"{name}.vector_calls"] += counts["vectors"]
            m[f"{name}.max_dim"] = max(m[f"{name}.max_dim"], dim)
            computed += dim
            useful += dim if k is None else min(k, dim)
        elif name == "magnetic.assemble" and counts["dim"] > largest:
            # the complex matrix and its symmetrisation, 16 bytes per entry each
            n = largest = counts["dim"]
            m[f"{name}.dense_bytes"] = 2 * 16 * n * n
            m[f"{name}.fill_ratio"] = (n + 2 * counts["edges"]) / (n * n)
        elif name == "network.trace_to":
            m[f"{name}.max_interior_dim"] = max(m[f"{name}.max_interior_dim"], counts["interior"])
        elif name == "network.resistance_matrix":
            m[f"{name}.max_dim"] = max(m[f"{name}.max_dim"], counts["dim"])
    m["spectral.hermitian_eigs.useful_ratio"] = useful / computed if computed else 0.0
    return m


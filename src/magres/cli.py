"""Command-line surface for building networks, spectra, and audits.

The CLI parses input, calls the library and emits one report per
subcommand.  It holds no numerics of its own except the checks that exist
only here: gauge covariance (``gauge-check``), iterated against direct
traces (``trace-check``), periodicity and symmetry of flux-sweep rows, and
the residual checks of ``hodge`` and ``solve``.

A report is a JSON envelope with the tool version, the echoed
configuration, a SHA-256 hash of its canonical form, a PASS/FAIL verdict,
and the command-specific payload.  Reports contain no timestamps or machine
identifiers, so identical configurations produce byte-identical output.
Exit codes: 0 on PASS, 1 when a checked property fails, 2 on input or
configuration errors.  Table-producing commands can emit CSV
(``structure,level,model,boundary,flux,index,eigenvalue``) instead of JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .magnetic import (
    MagneticModel,
    assemble,
    dirichlet_solve,
    gauge_transform,
    zero_mode_test,
)
from .network import (
    NetworkError,
    conductance_deviation,
    network_to_dict,
    trace_to,
)
from .oneforms import cycle_basis, cycle_fluxes, field_from_spec, hodge_decompose
from .selfsimilar import (
    StructureError,
    bundled_structure,
    cell_partition,
    embed_indices,
    load_structure,
    refine,
    verify_compatibility,
    vertex_measure,
)
from .spectral import (
    SpectralError,
    _boundary_spectrum,
    _require_dense,
    compare_spectra,
    convergence_table,
    flux_sweep,
    hermitian_eigs,  # not called here: perfbench's tracer and tests reach the eigensolver through this module
    spectrum,
)
from .measure_audit import MIN_KLMN_M, full_audit

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

BUNDLED_NAMES = ("interval", "circle", "gasket")

#: Parsed arguments that a report's ``config`` leaves out (see `_emit`).
UNECHOED = frozenset({"command", "func", "output", "export_matrix"})

TWO_PI = 2.0 * np.pi


class InputError(ValueError):
    """Configuration or input-file problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# serialization helpers


def _py(obj):
    """Recursively convert numpy/Fraction values to plain JSON-ready types."""
    if isinstance(obj, dict):
        return {str(k): _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _export_matrix(path: str, matrix) -> None:
    """Write a sparse matrix densely as JSON: row-major [re, im] pairs."""
    m = matrix.toarray()
    doc = {"rows": m.shape[0], "cols": m.shape[1], "values": m.reshape(-1)}
    Path(path).write_text(_dump_json(_py(doc)), encoding="utf-8")


def _csv_table(args, report: dict) -> str:
    """Eigenvalue report as rows of (structure, level, model, boundary, flux, index, eigenvalue)."""
    lines = ["structure,level,model,boundary,flux,index,eigenvalue"]
    name = report["metadata"]["structure"]
    table = report["eigenvalues"]
    # converge reports one row per level, flux-sweep one per flux, spectrum a single row
    if "levels" in report:
        keys = [(level, "") for level in report["levels"]]
    elif "fluxes" in report:
        keys = [(args.level, repr(float(flux))) for flux in report["fluxes"]]
    else:
        keys, table = [(args.level, "")], [table]
    for (level, flux), row in zip(keys, table):
        for index, eig in enumerate(row):
            lines.append(
                f"{name},{int(level)},{args.model},{args.boundary},{flux},{index},{repr(float(eig))}"
            )
    return "\n".join(lines) + "\n"


def _emit(args, verdict: str, report: dict) -> int:
    """Write the report to ``--output`` or stdout; map the verdict to an exit code.

    The echoed configuration holds every option of the subcommand, in the
    order the parser declares them, except those in ``UNECHOED``: the
    command and its handler (the envelope names the command) and the
    ``--output`` and ``--export-matrix`` paths, which say where results go,
    not what was computed.  ``--format csv`` writes the eigenvalue table
    instead of the JSON envelope.
    """
    if getattr(args, "format", "json") == "csv":
        text = _csv_table(args, report)
    else:
        config = _py({key: value for key, value in vars(args).items() if key not in UNECHOED})
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        text = _dump_json({
            "tool": "magres",
            "version": __version__,
            "command": args.command,
            "config": config,
            "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            "verdict": verdict,
            "report": _py(report),
        })
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_PASS if verdict == "PASS" else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument resolution


def positive_int(text: str) -> int:
    """Argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def tolerance(text: str) -> float:
    """Argparse type for tolerances: a finite float, zero allowed."""
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _resolve_structure(text: str):
    path = Path(text)
    if path.is_file():
        try:
            return load_structure(path)
        except json.JSONDecodeError as exc:
            raise InputError(f"{text}: malformed JSON: {exc}") from exc
        except StructureError as exc:
            raise InputError(f"{text}: {exc}") from exc
    if text in BUNDLED_NAMES:
        return bundled_structure(text)
    raise InputError(
        f"structure {text!r} is neither an existing file nor one of the "
        f"bundled names {', '.join(BUNDLED_NAMES)}"
    )


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid {text!r} must have the form start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"grid {text!r}: {exc}") from exc
    if count < 1:
        raise InputError("grid count must be at least 1")
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise InputError("grid endpoints must be finite")
    return np.linspace(start, stop, count)


def _parse_levels(text: str) -> list[int]:
    try:
        levels = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise InputError(f"levels {text!r}: {exc}") from exc
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])) or levels[0] < 0:
        raise InputError("levels must be a strictly increasing list of nonnegative integers")
    return levels


def _parse_radii(text: str | None):
    if text is None:
        return None
    try:
        radii = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise InputError(f"radii {text!r}: {exc}") from exc
    if not radii or any(r <= 0 for r in radii):
        raise InputError("radii must be positive numbers")
    return radii


def _parse_vertex_set(text: str, ref) -> list[int]:
    """Pinned-set spec: 'boundary', comma-separated indices, or a JSON file."""
    if text == "boundary":
        indices = list(ref.boundary)
    elif Path(text).is_file():
        try:
            data = json.loads(Path(text).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InputError(f"{text}: malformed JSON: {exc}") from exc
        if not isinstance(data, list):
            raise InputError(f"{text}: expected a JSON list of vertex indices")
        for v in data:
            if isinstance(v, bool) or not isinstance(v, int):
                raise InputError(f"{text}: vertex index {json.dumps(v)} is not an integer")
        indices = data
    else:
        try:
            indices = [int(p) for p in text.split(",") if p.strip()]
        except ValueError as exc:
            raise InputError(f"vertex set {text!r}: {exc}") from exc
    out = []
    for v in indices:
        v = int(v)
        if not 0 <= v < ref.net.vertex_count:
            raise InputError(f"vertex {v} out of range [0, {ref.net.vertex_count})")
        out.append(v)
    if not out:
        raise InputError("pinned vertex set must be non-empty")
    return sorted(set(out))


def _parse_rhs(text: str, n: int) -> np.ndarray:
    """Right-hand side spec: delta:<i>, constant:<v>, or a JSON file."""
    parts = text.split(":")
    if parts[0] == "delta" and len(parts) == 2:
        try:
            i = int(parts[1])
        except ValueError as exc:
            raise InputError(f"rhs {text!r}: {exc}") from exc
        if not 0 <= i < n:
            raise InputError(f"rhs vertex {i} out of range")
        rhs = np.zeros(n)
        rhs[i] = 1.0
        return rhs
    if parts[0] == "constant" and len(parts) == 2:
        try:
            value = float(parts[1])
        except ValueError as exc:
            raise InputError(f"rhs {text!r}: {exc}") from exc
        if not np.isfinite(value):
            raise InputError(f"rhs {text!r}: value must be finite")
        return np.full(n, value)
    if Path(text).is_file():
        try:
            data = json.loads(Path(text).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InputError(f"{text}: malformed JSON: {exc}") from exc
        if not isinstance(data, list) or len(data) != n:
            raise InputError(f"{text}: expected a JSON list of {n} values")
        try:
            vals = [complex(v[0], v[1]) if isinstance(v, list) else complex(v) for v in data]
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise InputError(f"{text}: bad value: {exc}") from exc
        arr = np.asarray(vals, dtype=np.complex128)
        if not np.all(np.isfinite(arr)):
            raise InputError(f"{text}: values must be finite")
        return arr.real if np.all(arr.imag == 0.0) else arr
    raise InputError(
        f"rhs {text!r} is neither delta:<i>, constant:<v>, nor an existing JSON file"
    )


def _prepare(args):
    """Common resolution: structure, refinement, vertex measure."""
    s = _resolve_structure(args.structure)
    ref = refine(s, args.level)
    return s, ref, vertex_measure(ref, args.measure)


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args) -> int:
    s, ref, mu = _prepare(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = args.prefix or f"{s.name or 'structure'}-L{int(args.level)}"

    measure_payload = {
        "structure": s.name or "unnamed",
        "level": int(args.level),
        "measure": args.measure,
        "labels": list(ref.names),
        "mass": [float(x) for x in mu.mass],
        "total": float(mu.total),
    }
    part = cell_partition(ref)
    cells_payload = {
        "structure": s.name or "unnamed",
        "level": int(args.level),
        "cells": {k: list(v) for k, v in part.cells.items()},
    }
    files = {
        "network": str(out_dir / f"{prefix}.network.json"),
        "measure": str(out_dir / f"{prefix}.measure.json"),
        "cells": str(out_dir / f"{prefix}.cells.json"),
    }
    Path(files["network"]).write_text(_dump_json(_py(network_to_dict(ref.net))), encoding="utf-8")
    Path(files["measure"]).write_text(_dump_json(_py(measure_payload)), encoding="utf-8")
    Path(files["cells"]).write_text(_dump_json(_py(cells_payload)), encoding="utf-8")

    compat = None
    verdict = "PASS"
    if not args.skip_check:
        rep = verify_compatibility(ref, refine(s, int(args.level) + 1), tol=float(args.tol))
        compat = asdict(rep)
        if not rep.passed:
            verdict = "FAIL"
    report = {
        "files": files,
        "vertices": int(ref.net.vertex_count),
        "edges": int(ref.net.edge_count),
        "boundary": [ref.names[i] for i in ref.boundary],
        "compatibility": compat,
    }
    return _emit(args, verdict, report)


def cmd_spectrum(args) -> int:
    rep = spectrum(
        _resolve_structure(args.structure),
        args.level,
        model=args.model,
        field=args.field,
        measure=args.measure,
        boundary=args.boundary,
        renormalize=args.renormalize,
    )
    if args.export_matrix:
        _export_matrix(args.export_matrix, rep.matrix)
    return _emit(args, "PASS", {"metadata": rep.metadata, "eigenvalues": rep.eigenvalues[: args.k]})


def cmd_flux_sweep(args) -> int:
    s = _resolve_structure(args.structure)
    grid = _parse_grid(args.grid)
    sweep = flux_sweep(
        s,
        args.level,
        args.cycle,
        grid,
        model=args.model,
        measure=args.measure,
        boundary=args.boundary,
        k=args.k,
    )

    # spectra must repeat at fluxes equal mod 2*pi and agree under negation, to a
    # tolerance relative to the largest eigenvalue, the scale of dense roundoff
    tol = float(args.tol)
    scale = max(1.0, float(np.max(np.abs(sweep.table))))
    periodic_pairs = 0
    symmetric_pairs = 0
    max_pair_dev = 0.0
    m = len(grid)
    for i in range(m):
        for j in range(i + 1, m):
            diff = abs(grid[i] - grid[j]) % TWO_PI
            total = abs(grid[i] + grid[j]) % TWO_PI
            is_periodic = min(diff, TWO_PI - diff) <= 1e-9 and grid[i] != grid[j]
            is_symmetric = min(total, TWO_PI - total) <= 1e-9
            if not (is_periodic or is_symmetric):
                continue
            dev = float(np.max(np.abs(sweep.table[i] - sweep.table[j])))
            max_pair_dev = max(max_pair_dev, dev)
            periodic_pairs += int(is_periodic)
            symmetric_pairs += int(is_symmetric)
    report = {
        "metadata": sweep.metadata,
        "fluxes": sweep.fluxes,
        "eigenvalues": sweep.table,
        "checks": {
            "periodic_pairs": periodic_pairs,
            "symmetric_pairs": symmetric_pairs,
            "max_pair_deviation": max_pair_dev,
            "tol": tol,
            "scale": scale,
        },
    }
    return _emit(args, "PASS" if max_pair_dev <= tol * scale else "FAIL", report)


def cmd_converge(args) -> int:
    s = _resolve_structure(args.structure)
    levels = _parse_levels(args.levels)
    rep = convergence_table(
        s,
        levels,
        k=args.k,
        model=args.model,
        field=args.field,
        measure=args.measure,
        boundary=args.boundary,
        renormalize=args.renormalize,
    )
    report = {
        "metadata": rep.metadata,
        "levels": rep.levels,
        "eigenvalues": rep.table,
        "relative_diffs": rep.diffs,
    }
    return _emit(args, "PASS", report)


def cmd_audit(args) -> int:
    if not float(args.M) > MIN_KLMN_M:
        raise InputError(
            f"--M must exceed 20/3 ~= {MIN_KLMN_M:.4f} for a margin below 1, got {args.M}"
        )
    if args.field is None:
        args.field = f"random:{args.seed}"
    s, ref, mu = _prepare(args)
    a = field_from_spec(ref.net, args.field)
    radii = _parse_radii(args.radii)
    _require_dense(ref)  # the audit builds the dense resistance matrix
    rep = full_audit(
        ref.net,
        mu,
        a,
        M=float(args.M),
        trials=int(args.trials),
        seed=int(args.seed),
        radii=radii,
        ball_count=int(args.balls),
        poincare_trials=int(args.poincare_trials),
        tol=float(args.tol),
    )
    report = {
        "m_profile": rep.m_profile,
        "doubling_profile": rep.doubling_profile,
        "metric_doubling": rep.metric_doubling,
        "worst_poincare_ratio": rep.worst_poincare_ratio,
        "sup_bound_constant": rep.sup_bound_constant,
        "klmn": {
            "epsilon": rep.klmn.epsilon,
            "C": rep.klmn.constant,
            "fa_constant": rep.klmn.fa_constant,
            "M": rep.klmn.M,
            "max_violation": rep.klmn.max_violation,
            "worst_slack": rep.klmn.worst_slack,
            "violations": rep.klmn.violations,
            "passed": rep.klmn.passed,
        },
        "details": rep.details,
        "passed": rep.passed,
    }
    return _emit(args, "PASS" if rep.passed else "FAIL", report)


def cmd_gauge_check(args) -> int:
    if args.field is None:
        args.field = f"random:{args.seed}"
    s, ref, mu = _prepare(args)
    base_field = field_from_spec(ref.net, args.field)
    rng = np.random.default_rng(int(args.seed))
    lams = [rng.standard_normal(ref.net.vertex_count) for _ in range(int(args.count))]

    def eigs_of(model: MagneticModel) -> np.ndarray:
        return _boundary_spectrum(ref, model, mu, args.boundary)[0]

    if args.model == "peierls":
        base = MagneticModel(kind="peierls", field=base_field)
        ref_eigs = eigs_of(base)
        zero_eigs = eigs_of(MagneticModel(kind="peierls", field=np.zeros(ref.net.edge_count)))
        gauge_dev = 0.0
        exact_dev = 0.0
        for lam in lams:
            gauge_dev = max(gauge_dev, compare_spectra(ref_eigs, eigs_of(gauge_transform(ref.net, base, lam))))
            exact_model = gauge_transform(
                ref.net, MagneticModel(kind="peierls", field=np.zeros(ref.net.edge_count)), lam
            )
            exact_dev = max(exact_dev, compare_spectra(zero_eigs, eigs_of(exact_model)))
        scale = max(1.0, float(np.max(np.abs(ref_eigs))))
        passed = gauge_dev <= float(args.tol) * scale and exact_dev <= float(args.tol) * scale
        report = {
            "model": "peierls",
            "count": int(args.count),
            "max_gauge_deviation": gauge_dev,
            "max_exact_field_deviation": exact_dev,
            "scale": scale,
            "tol": float(args.tol),
        }
    else:
        # linearized covariance is only asymptotic: deviations between the
        # field t*(a + d lam) and t*a must shrink quadratically in t
        amplitudes = [0.1, 0.05, 0.025]
        deviations = []
        for t in amplitudes:
            dev_t = 0.0
            scaled = MagneticModel(kind="linearized", field=t * base_field)
            scaled_eigs = eigs_of(scaled)
            for lam in lams:
                gauged = gauge_transform(ref.net, scaled, t * lam)
                dev_t = max(dev_t, compare_spectra(scaled_eigs, eigs_of(gauged)))
            deviations.append(dev_t)
        scale = max(1.0, float(np.max(np.abs(eigs_of(MagneticModel(kind="linearized", field=base_field))))))
        if max(deviations) <= float(args.tol) * scale:
            slope = None
            passed = True
        else:
            logt = np.log(amplitudes)
            logd = np.log(np.maximum(deviations, 1e-300))
            slope = float(np.polyfit(logt, logd, 1)[0])
            passed = 1.7 <= slope <= 2.3 and deviations[0] > deviations[-1]
        report = {
            "model": "linearized",
            "count": int(args.count),
            "amplitudes": amplitudes,
            "deviations": deviations,
            "slope": slope,
            "scale": scale,
            "tol": float(args.tol),
        }
    return _emit(args, "PASS" if passed else "FAIL", report)


def cmd_trace_check(args) -> int:
    s = _resolve_structure(args.structure)
    level = int(args.level)
    if level < 1:
        raise InputError("trace-check needs --level >= 1")
    refs = [refine(s, k) for k in range(level + 1)]

    compat = []
    all_ok = True
    for k in range(level):
        rep = verify_compatibility(refs[k], refs[k + 1], tol=float(args.compat_tol))
        compat.append(asdict(rep))
        all_ok = all_ok and rep.passed

    # one-shot trace to the base vertices vs. tracing down level by level
    fine = refs[-1]
    direct = trace_to(fine.net, embed_indices(fine, refs[0]))
    current = fine.net
    for k in range(level - 1, -1, -1):
        lookup = {nm: i for i, nm in enumerate(current.labels)}
        current = trace_to(current, [lookup[nm] for nm in refs[k].names])
    iterated_dev = conductance_deviation(direct, current)
    iterated_ok = iterated_dev <= float(args.tol)
    all_ok = all_ok and iterated_ok

    report = {
        "compatibility": compat,
        "iterated_vs_direct": {
            "max_deviation": iterated_dev,
            "tol": float(args.tol),
            "passed": iterated_ok,
        },
    }
    return _emit(args, "PASS" if all_ok else "FAIL", report)


def cmd_hodge(args) -> int:
    ref = refine(_resolve_structure(args.structure), args.level)
    w = field_from_spec(ref.net, args.field)
    dec = hodge_decompose(ref.net, w)
    basis = cycle_basis(ref.net)
    flux_w = cycle_fluxes(ref.net, w, basis)
    flux_coulomb = cycle_fluxes(ref.net, dec.coulomb, basis)
    flux_dev = float(np.max(np.abs(flux_w - flux_coulomb))) if len(basis.chords) else 0.0
    scale = max(1.0, dec.total_norm_sq)
    tol = float(args.tol)
    passed = (
        dec.orthogonality_residual <= tol * scale
        and dec.pythagoras_residual <= tol * scale
        and flux_dev <= tol * max(1.0, float(np.max(np.abs(flux_w))) if len(basis.chords) else 1.0)
    )
    report = {
        "edges": int(ref.net.edge_count),
        "cycles": len(basis.chords),
        "exact_norm_sq": dec.exact_norm_sq,
        "coulomb_norm_sq": dec.coulomb_norm_sq,
        "total_norm_sq": dec.total_norm_sq,
        "orthogonality_residual": dec.orthogonality_residual,
        "pythagoras_residual": dec.pythagoras_residual,
        "flux_preservation_deviation": flux_dev,
        # complex dtype, so every value is written as an [re, im] pair
        "potential": dec.potential.astype(np.complex128),
        "exact": dec.exact.astype(np.complex128),
        "coulomb": dec.coulomb.astype(np.complex128),
        "tol": tol,
    }
    return _emit(args, "PASS" if passed else "FAIL", report)


def cmd_zero_mode(args) -> int:
    s, ref, mu = _prepare(args)
    model = MagneticModel(kind=args.model, field=field_from_spec(ref.net, args.field))
    _require_dense(ref)
    rep = zero_mode_test(
        ref.net,
        model,
        mu,
        tol=float(args.tol),
        spread_tol=float(args.spread_tol),
        flux_tol=float(args.flux_tol),
    )
    return _emit(args, "PASS" if rep.consistent else "FAIL", asdict(rep))


def cmd_solve(args) -> int:
    s, ref, mu = _prepare(args)
    field = field_from_spec(ref.net, args.field)
    model = MagneticModel(kind=args.model, field=field)
    pinned = _parse_vertex_set(args.dirichlet, ref)
    rhs = _parse_rhs(args.rhs, ref.net.vertex_count)
    if args.export_matrix:
        _require_dense(ref)  # the export writes the matrix densely
    asm = assemble(ref.net, model, mu)
    u = dirichlet_solve(asm, pinned, rhs)
    residual_vec = asm.matrix @ u - asm.mass * np.asarray(rhs, dtype=np.complex128)
    free = np.setdiff1d(np.arange(ref.net.vertex_count), np.asarray(pinned, dtype=np.intp))
    residual = float(np.max(np.abs(residual_vec[free]))) if free.size else 0.0
    scale = max(1.0, float(np.max(np.abs(asm.matrix))) * max(1.0, float(np.max(np.abs(u)))))
    passed = residual <= float(args.tol) * scale
    if args.export_matrix:
        _export_matrix(args.export_matrix, asm.matrix)
    report = {
        "dirichlet": pinned,
        "labels": [ref.names[i] for i in pinned],
        "u": u,
        "residual": residual,
        "scale": scale,
        "tol": float(args.tol),
    }
    return _emit(args, "PASS" if passed else "FAIL", report)


# ---------------------------------------------------------------------------
# parser


def _add_common(p):
    p.add_argument("--structure", required=True, help="structure JSON path or bundled name (interval, circle, gasket)")
    p.add_argument("--level", required=True, type=int, help="refinement level (>= 0)")
    p.add_argument("--output", default=None, help="write the report to this file instead of stdout")


def _add_measure(p):
    p.add_argument("--measure", default="structure", help="per-map weights: 'structure', 'uniform', or comma-separated values (rationals like 1/3 allowed)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magres",
        description="Magnetic resistance forms on refined self-similar networks.",
    )
    parser.add_argument("--version", action="version", version=f"magres {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("build", help="write refined network, measure, and cell files")
    _add_common(p)
    _add_measure(p)
    p.add_argument("--out-dir", default=".", help="directory for the emitted files")
    p.add_argument("--prefix", default=None, help="file name prefix (default: <structure>-L<level>)")
    p.add_argument("--tol", type=tolerance, default=1e-10, help="refinement compatibility tolerance")
    p.add_argument("--skip-check", action="store_true", help="skip the level-(n+1) compatibility check")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("spectrum", help="eigenvalues of the magnetic operator at one level")
    _add_common(p)
    p.add_argument("--model", required=True, choices=["linearized", "peierls"], help="magnetic model")
    p.add_argument("--field", default="zero", help="edge field spec: zero | constant:<t> | random:<seed> | cycle:<i>:<t>")
    _add_measure(p)
    p.add_argument("--boundary", choices=["neumann", "dirichlet"], default="neumann")
    p.add_argument("--k", type=positive_int, default=None, help="report only the first k eigenvalues")
    p.add_argument("--renormalize", action="store_true", help="scale eigenvalues by (geometric mean of r)^level")
    p.add_argument("--export-matrix", default=None, help="also write the assembled matrix as JSON ([re, im] pairs, row-major)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("flux-sweep", help="spectra over a grid of fluxes through one cycle")
    _add_common(p)
    p.add_argument("--model", required=True, choices=["peierls"], help="magnetic model (flux quantization is exact only for peierls)")
    p.add_argument("--cycle", type=int, default=0, help="fundamental cycle index")
    p.add_argument("--grid", required=True, help="flux grid start:stop:count (stop inclusive); write a negative start as --grid=-3:3:5")
    _add_measure(p)
    p.add_argument("--boundary", choices=["neumann", "dirichlet"], default="neumann")
    p.add_argument("--k", type=positive_int, default=None, help="keep only the first k eigenvalues per flux")
    p.add_argument("--tol", type=tolerance, default=1e-8, help="periodicity/symmetry row tolerance, relative to max(1, largest |eigenvalue|)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_flux_sweep)

    p = sub.add_parser("converge", help="low eigenvalues across refinement levels")
    p.add_argument("--structure", required=True, help="structure JSON path or bundled name")
    p.add_argument("--levels", required=True, help="comma-separated ascending levels, e.g. 1,2,3,4")
    p.add_argument("--k", type=positive_int, default=5, help="eigenvalues per level")
    p.add_argument("--model", required=True, choices=["linearized", "peierls"])
    p.add_argument("--field", default="zero", help="edge field spec (re-realized per level)")
    _add_measure(p)
    p.add_argument("--boundary", choices=["neumann", "dirichlet"], default="neumann")
    p.add_argument("--renormalize", action="store_true", help="scale level-n eigenvalues by (geometric mean of r)^n")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("audit", help="measure, Poincaré, sup-norm, and form-bound audits")
    _add_common(p)
    _add_measure(p)
    p.add_argument("--field", default=None, help="edge field spec (default: random:<seed>)")
    p.add_argument("--M", type=float, default=8.0, help="margin parameter; must exceed 20/3")
    p.add_argument("--trials", type=positive_int, default=200, help="random trial functions per audit")
    p.add_argument("--seed", type=int, default=42, help="seed for balls and trial functions")
    p.add_argument("--balls", type=positive_int, default=50, help="sampled balls for the Poincaré check")
    p.add_argument("--poincare-trials", type=positive_int, default=5, help="random functions for the Poincaré check")
    p.add_argument("--radii", default=None, help="comma-separated radii (default: dyadic fractions of the diameter)")
    p.add_argument("--tol", type=tolerance, default=1e-9, help="relative slack for inequality checks")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gauge-check", help="spectral invariance under gauge transformations")
    _add_common(p)
    p.add_argument("--model", required=True, choices=["linearized", "peierls"])
    p.add_argument("--field", default=None, help="base field spec (default: random:<seed>)")
    _add_measure(p)
    p.add_argument("--boundary", choices=["neumann", "dirichlet"], default="neumann")
    p.add_argument("--count", type=positive_int, default=5, help="number of random gauge potentials")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tol", type=tolerance, default=1e-9)
    p.set_defaults(func=cmd_gauge_check)

    p = sub.add_parser("trace-check", help="Schur-trace consistency across refinement levels")
    p.add_argument("--structure", required=True, help="structure JSON path or bundled name")
    p.add_argument("--level", required=True, type=int, help="deepest level to check (>= 1)")
    p.add_argument("--tol", type=tolerance, default=1e-9, help="iterated-vs-direct trace tolerance")
    p.add_argument("--compat-tol", type=tolerance, default=1e-10, help="per-level compatibility tolerance")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_trace_check)

    p = sub.add_parser("hodge", help="decompose an edge field into exact and coulomb parts")
    p.add_argument("--structure", required=True, help="structure JSON path or bundled name")
    p.add_argument("--level", required=True, type=int, help="refinement level (>= 0)")
    p.add_argument("--field", default="random:0", help="edge field spec")
    p.add_argument("--tol", type=tolerance, default=1e-10, help="relative tolerance for the residual checks")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_hodge)

    p = sub.add_parser("zero-mode", help="ground-state and flux-quantization test")
    _add_common(p)
    p.add_argument("--model", choices=["linearized", "peierls"], default="peierls", help="magnetic model; fluxes are those of its Peierls phases, 2*arctan(a/2) per edge for linearized, so the criterion is exact for both")
    p.add_argument("--field", default="zero", help="edge field spec")
    _add_measure(p)
    p.add_argument("--tol", type=tolerance, default=1e-9, help="zero-mode energy tolerance")
    p.add_argument("--spread-tol", type=tolerance, default=1e-6, help="ground-state modulus spread tolerance")
    p.add_argument("--flux-tol", type=tolerance, default=1e-8, help="flux integrality tolerance")
    p.set_defaults(func=cmd_zero_mode)

    p = sub.add_parser("solve", help="magnetic Dirichlet solve with a pinned vertex set")
    _add_common(p)
    p.add_argument("--model", required=True, choices=["linearized", "peierls"])
    p.add_argument("--field", default="zero", help="edge field spec")
    _add_measure(p)
    p.add_argument("--dirichlet", required=True, help="pinned set: 'boundary', comma-separated indices, or a JSON file")
    p.add_argument("--rhs", required=True, help="right-hand side: delta:<i>, constant:<v>, or a JSON file")
    p.add_argument("--tol", type=tolerance, default=1e-9, help="relative residual tolerance")
    p.add_argument("--export-matrix", default=None, help="also write the assembled matrix as JSON")
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_INPUT
    try:
        return args.func(args)
    except (NetworkError, SpectralError) as exc:
        print(f"magres: check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except np.linalg.LinAlgError as exc:
        print(f"magres: linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:  # InputError, StructureError and JSON errors included
        print(f"magres: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Spectra of magnetic operators on refined self-similar networks.

The pipeline is refine -> vertex measure -> assemble -> dense Hermitian
eigensolution.  Eigenvalues reported are those of the nonnegative operator
``M^{-1} A`` (equivalently of the symmetrised ``M^{-1/2} A M^{-1/2}``),
in ascending order; Neumann conditions are the default, Dirichlet pins the
structure's boundary set.  Flux sweeps evaluate one spectrum per flux value
of a single-cycle field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.linalg
import scipy.sparse

from .magnetic import DENSE_BLOCK, MagneticAssembly, MagneticModel, assemble
from .oneforms import cycle_basis, cycle_field, field_from_spec
from .selfsimilar import PCFStructure, Refinement, refine, vertex_measure

__all__ = [
    "SpectralError",
    "SpectrumReport",
    "FluxSweepReport",
    "ConvergenceReport",
    "hermitian_eigs",
    "spectrum",
    "flux_sweep",
    "convergence_table",
    "compare_spectra",
    "renormalization_base",
]

#: Dense eigensolution is refused beyond this dimension.
MAX_DENSE_DIM = 4096

#: Largest Hermiticity defect accepted, relative to the largest entry.
HERMITICITY_TOL = 1e-10

#: Relative eigen-residual and absolute Gram defect accepted for eigenvectors.
RESIDUAL_TOL = 1e-9

#: Relative scale for the positive-semidefiniteness floor of reported spectra.
PSD_FLOOR = 1e-10


class SpectralError(RuntimeError):
    """Raised when an eigensolution violates its accuracy contract."""


def hermitian_eigs(H: np.ndarray, compute_vectors: bool = True):
    """Checked dense Hermitian eigendecomposition, eigenvalues ascending.

    Rejects inputs whose Hermiticity defect exceeds ``HERMITICITY_TOL``
    relative to the largest entry, or is NaN, as for any non-finite input.  When eigenvectors are computed it also
    enforces the residual bound ``max |H v - w v| <= RESIDUAL_TOL * max(1,
    |w|_max)`` and orthonormality of the eigenvector columns.

    ``H`` is never modified.  The function holds one working copy, the
    symmetrised ``(H + H^H) / 2`` in Fortran order, which LAPACK factors in
    place; the defect, residual and Gram checks run ``DENSE_BLOCK`` columns
    at a time, and the residual is taken against ``H`` itself.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    n = H.shape[0]
    if n > MAX_DENSE_DIM:
        raise SpectralError(f"matrix dimension {n} exceeds dense limit {MAX_DENSE_DIM}")
    blocks = [slice(start, start + DENSE_BLOCK) for start in range(0, n, DENSE_BLOCK)]
    Hs = np.empty((n, n), dtype=np.result_type(H.dtype, np.float64), order="F")
    peaks, defects = [], []
    for cols in blocks:
        a, b = H[:, cols], H[cols, :].conj().T
        peaks.append(np.max(np.abs(a)))
        defects.append(np.max(np.abs(a - b)))
        Hs[:, cols] = 0.5 * (a + b)
    scale = max(1.0, float(np.max(peaks, initial=0.0)))
    defect = float(np.max(defects, initial=0.0))
    if not defect <= HERMITICITY_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} at scale {scale:.3e}")
    if not compute_vectors:
        w = scipy.linalg.eigh(Hs, eigvals_only=True, overwrite_a=True, check_finite=False)
        return np.asarray(w, dtype=np.float64)
    w, V = scipy.linalg.eigh(Hs, overwrite_a=True, check_finite=False)
    del Hs  # factored in place: its contents are no longer the matrix
    w = np.asarray(w, dtype=np.float64)
    bound = RESIDUAL_TOL * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    residuals, grams = [], []
    for cols in blocks:
        Vc = V[:, cols]
        residuals.append(np.max(np.abs(H @ Vc - Vc * w[cols])))
        G = Vc.conj().T @ V
        G[:, cols] -= np.eye(G.shape[0])
        grams.append(np.max(np.abs(G)))
    residual = float(np.max(residuals, initial=0.0))
    if residual > bound:
        raise SpectralError(f"eigensolver residual {residual:.3e} exceeds bound {bound:.3e}")
    gram_defect = float(np.max(grams, initial=0.0))
    if gram_defect > RESIDUAL_TOL:
        raise SpectralError(f"eigenvectors not orthonormal: defect {gram_defect:.3e}")
    return w, V


@dataclass(frozen=True)
class SpectrumReport:
    """Ascending spectrum of a symmetrised assembly plus run metadata.

    Validated at construction: eigenvalues ascend and the lowest one sits
    above ``-1e-10 * max(1, lambda_max)``, the roundoff floor appropriate
    for positive semidefinite operators of that scale.  ``matrix`` is the
    sparse (CSR) assembled energy matrix on the kept vertices, when the
    report was computed from one.
    """

    eigenvalues: np.ndarray
    metadata: dict = dataclass_field(default_factory=dict)
    matrix: scipy.sparse.csr_matrix | None = None

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=np.float64)
        object.__setattr__(self, "eigenvalues", w)
        if w.size == 0:
            raise SpectralError("empty spectrum")
        if np.any(np.diff(w) < 0.0):
            raise SpectralError("eigenvalues must be ascending")
        floor = -PSD_FLOOR * max(1.0, float(w[-1]))
        if w[0] < floor:
            raise SpectralError(
                f"lowest eigenvalue {w[0]:.3e} below the PSD roundoff floor {floor:.3e}"
            )


def _require_dense(ref: Refinement) -> None:
    """Refuse, as bad input, a refinement too large for dense assembly and eigensolution."""
    if ref.net.vertex_count > MAX_DENSE_DIM:
        raise ValueError(
            f"level {ref.level} has {ref.net.vertex_count} vertices; dense limit is {MAX_DENSE_DIM}"
        )


def renormalization_base(s: PCFStructure) -> float:
    """Geometric mean ``g`` of the resistance factors; level ``n`` scales by ``g^n``."""
    return float(np.exp(np.mean([np.log(float(m.r)) for m in s.maps])))


def _boundary_assembly(ref: Refinement, model: MagneticModel, mu, boundary: str) -> MagneticAssembly:
    """The Neumann assembly, restricted off the structure's boundary set under ``"dirichlet"``."""
    if boundary not in ("neumann", "dirichlet"):
        raise ValueError(f"unknown boundary condition {boundary!r}; expected 'neumann' or 'dirichlet'")
    asm = assemble(ref.net, model, mu)
    return asm.restrict(ref.boundary) if boundary == "dirichlet" else asm


def spectrum(
    s: PCFStructure,
    level: int,
    model="peierls",
    field="zero",
    measure=None,
    boundary: str = "neumann",
    renormalization: float = 1.0,
) -> SpectrumReport:
    """Spectrum of the magnetic operator at one refinement level.

    ``field`` is an edge array or a field spec string; ``measure`` a
    per-map weight spec (default: the structure's own weights); ``boundary``
    is ``"neumann"`` or ``"dirichlet"`` (pinning the boundary vertex set).
    Eigenvalues are multiplied by ``renormalization`` before reporting.
    """
    ref = refine(s, int(level))
    mu = vertex_measure(ref, measure)
    arr = field_from_spec(ref.net, field) if isinstance(field, str) else np.asarray(field, dtype=np.float64)
    mod = MagneticModel(kind=str(model), field=arr)
    _require_dense(ref)  # after the measure and field, so bad input is reported first
    asm = _boundary_assembly(ref, mod, mu, boundary)
    metadata = {
        "structure": s.name or "unnamed",
        "level": int(level),
        "model": mod.kind,
        "boundary": boundary,
        "measure": "structure" if measure is None else str(measure),
        "field": field if isinstance(field, str) else "array",
        "vertices": int(ref.net.vertex_count),
        "kept": int(asm.kept.size),
        "renormalization": float(renormalization),
    }
    w = hermitian_eigs(asm.symmetrized, compute_vectors=False)
    return SpectrumReport(w * renormalization, metadata, matrix=asm.matrix)


@dataclass(frozen=True)
class FluxSweepReport:
    """Spectra of a single-cycle field over a grid of flux values.

    ``table[i]`` holds the first ``k`` eigenvalues at ``fluxes[i]``.  The
    spectrum is ``2 pi``-periodic in the flux and symmetric under flux
    negation.
    """

    fluxes: np.ndarray
    table: np.ndarray
    metadata: dict = dataclass_field(default_factory=dict)


def flux_sweep(
    s: PCFStructure,
    level: int,
    cycle_index: int,
    fluxes,
    model: str = "peierls",
    measure=None,
    boundary: str = "neumann",
    k: int | None = None,
) -> FluxSweepReport:
    """Sweep the flux of one fundamental cycle over a grid of values.

    The field at flux ``t`` is ``t`` times the unit-flux coulomb form of the
    chosen cycle.
    """
    fluxes = np.asarray(fluxes, dtype=np.float64)
    if fluxes.ndim != 1 or fluxes.size == 0:
        raise ValueError("flux grid must be a non-empty 1-d array")
    ref = refine(s, int(level))
    mu = vertex_measure(ref, measure)
    basis = cycle_basis(ref.net)
    unit = cycle_field(ref.net, int(cycle_index), 1.0, basis=basis)
    _require_dense(ref)  # after the cycle, so bad input is reported first

    models = (MagneticModel(kind=model, field=t * unit) for t in fluxes)
    rows = [
        hermitian_eigs(_boundary_assembly(ref, m, mu, boundary).symmetrized, compute_vectors=False)
        for m in models
    ]
    k_eff = rows[0].size if k is None else min(int(k), rows[0].size)
    table = np.vstack([row[:k_eff] for row in rows])
    metadata = {
        "structure": s.name or "unnamed",
        "level": int(level),
        "model": model,
        "boundary": boundary,
        "measure": "structure" if measure is None else str(measure),
        "cycle": int(cycle_index),
        "cycles_available": len(basis.chords),
        "k": int(k_eff),
    }
    return FluxSweepReport(fluxes=fluxes, table=table, metadata=metadata)


@dataclass(frozen=True)
class ConvergenceReport:
    """Low eigenvalues across refinement levels with successive differences.

    ``table[i]`` holds the first ``k`` (possibly renormalised) eigenvalues
    at ``levels[i]``; ``diffs[i]`` the relative change from level ``i`` to
    ``i + 1`` per eigenvalue index.
    """

    levels: tuple[int, ...]
    table: np.ndarray
    diffs: np.ndarray
    metadata: dict = dataclass_field(default_factory=dict)


def convergence_table(
    s: PCFStructure,
    levels,
    k: int = 5,
    model: str = "peierls",
    field: str = "zero",
    measure=None,
    boundary: str = "neumann",
    renormalize: bool = False,
) -> ConvergenceReport:
    """Track the low spectrum across refinement levels.

    With ``renormalize`` the level-``n`` eigenvalues are scaled by ``g^n``
    where ``g`` is the geometric mean of the resistance factors, dividing
    out the per-level conductance growth; raw eigenvalues are the default.
    String field specs are re-realised per level.
    """
    levels = tuple(int(x) for x in levels)
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be a strictly increasing non-empty sequence")
    g = renormalization_base(s)
    rows = []
    for lvl in levels:
        factor = g**lvl if renormalize else 1.0
        w = spectrum(
            s, lvl, model=model, field=field, measure=measure,
            boundary=boundary, renormalization=factor,
        ).eigenvalues
        if w.size < k:
            raise ValueError(f"level {lvl} has only {w.size} eigenvalues, need {k}")
        rows.append(w[:k])
    table = np.vstack(rows)
    denom = np.maximum(np.abs(table[1:]), 1e-300)
    diffs = np.abs(table[1:] - table[:-1]) / denom
    metadata = {
        "structure": s.name or "unnamed",
        "levels": list(levels),
        "model": model,
        "field": field,
        "boundary": boundary,
        "measure": "structure" if measure is None else str(measure),
        "k": int(k),
        "renormalized": bool(renormalize),
        "renormalization_base": g,
    }
    return ConvergenceReport(levels=levels, table=table, diffs=diffs, metadata=metadata)


def compare_spectra(a, b) -> float:
    """Largest absolute difference between two spectra of equal size."""
    wa = np.asarray(a, dtype=np.float64)
    wb = np.asarray(b, dtype=np.float64)
    if wa.size != wb.size:
        raise ValueError(f"spectra have different sizes ({wa.size} vs {wb.size})")
    return float(np.max(np.abs(wa - wb))) if wa.size else 0.0

"""Spectra of magnetic operators on refined self-similar networks.

The pipeline is refine -> vertex measure -> assemble -> checked Hermitian
eigensolution.  Eigenvalues reported are those of the nonnegative operator
``M^{-1} A`` (equivalently of the symmetrised ``M^{-1/2} A M^{-1/2}``),
in ascending order; Neumann conditions are the default, Dirichlet pins the
structure's boundary set.  Flux sweeps evaluate one spectrum per flux value
of a single-cycle field.

Every eigenvalue comes from dense `hermitian_eigs`, the reference, except
when only the ``k`` lowest are wanted and ``k`` is small against the vertex
count: then `_lowest_eigs` runs sparse shift-invert ARPACK on the CSR
operator `MagneticAssembly.scaled` and certifies the result by residual,
orthonormality and an inertia count.  Only `flux_sweep` asks for ``k``
eigenvalues this way.  A dense eigenvalue-only solve densifies ``scaled``
once and `hermitian_eigs` factors that buffer in place (``overwrite_h``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

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

#: Shift of the sparse solve below zero, relative to ``|H|_inf``.
SHIFT_REL = 1e-6

#: A request for the ``k`` lowest eigenvalues goes sparse from this many
#: vertices on, when ``SPARSE_K_RATIO * k`` is at most the vertex count.
#: Measured with one BLAS thread: sparse takes 0.3-0.7 of the dense time
#: at 256 vertices for ``k <= 8``, 0.06-0.35 at 512 for ``k <= 16`` (1.5 at
#: ``k = 32``) and 0.3-0.45 at about 1100 for ``k = 32``; at 128 vertices
#: and below it is slower for every ``k``.
SPARSE_MIN_DIM = 256
SPARSE_K_RATIO = 32


class SpectralError(RuntimeError):
    """Raised when an eigensolution violates its accuracy contract."""


def _symmetrize_in_place(H: np.ndarray, blocks: list[slice]) -> tuple[float, float]:
    """Replace the square ``H`` by ``(H + H^H) / 2``; return its largest entry and Hermiticity defect.

    Works on one block of ``blocks x blocks`` and its mirror at a time,
    computing both from the input with the formula ``0.5 * (H_ij + conj
    H_ji)``, so the result does not depend on the blocks.  The largest
    entry and the defect ``max |H_ij - conj H_ji|`` are those of the input.
    """
    peaks, defects = [], []
    for i, rows in enumerate(blocks):
        for cols in blocks[i:]:
            a, b = H[rows, cols], H[cols, rows]
            bt = b.conj().T
            peaks += [np.max(np.abs(a)), np.max(np.abs(b))]
            defects.append(np.max(np.abs(a - bt)))
            # both halves are computed before either is written: a real view's conj() is itself
            upper, lower = 0.5 * (a + bt), 0.5 * (b + a.conj().T)
            H[rows, cols], H[cols, rows] = upper, lower
    return float(np.max(peaks, initial=0.0)), float(np.max(defects, initial=0.0))


def hermitian_eigs(H: np.ndarray, compute_vectors: bool = True, overwrite_h: bool = False):
    """Checked dense Hermitian eigendecomposition, eigenvalues ascending.

    Rejects inputs whose Hermiticity defect exceeds ``HERMITICITY_TOL``
    relative to the largest entry, or is NaN, as for any non-finite input.
    When eigenvectors are computed it also enforces the residual bound
    ``max |H v - w v| <= RESIDUAL_TOL * max(1, |w|_max)`` and orthonormality
    of the eigenvector columns.

    LAPACK factors the symmetrised ``(H + H^H) / 2`` in place, in Fortran
    order.  ``H`` is not modified unless ``overwrite_h`` is set: the
    function then holds one working copy of it.  With ``overwrite_h`` (as
    scipy's ``overwrite_a``) and ``compute_vectors=False``, a writeable,
    Fortran-contiguous ``H`` of dtype float64 or complex128 is itself
    symmetrised and factored, so no ``n x n`` copy is made and its contents
    are undefined afterwards, also when the Hermiticity check fails; other
    inputs still get the working copy.  ``overwrite_h`` with eigenvectors
    raises ``ValueError``, because the residual is taken against ``H``
    after the factorisation.  Symmetrisation, defect, residual and Gram
    checks run ``DENSE_BLOCK`` rows or columns at a time.
    """
    if overwrite_h and compute_vectors:
        raise ValueError("overwrite_h needs compute_vectors=False: the residual check reads H")
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    n = H.shape[0]
    if n > MAX_DENSE_DIM:
        raise SpectralError(f"matrix dimension {n} exceeds dense limit {MAX_DENSE_DIM}")
    blocks = [slice(start, start + DENSE_BLOCK) for start in range(0, n, DENSE_BLOCK)]
    dtype = np.result_type(H.dtype, np.float64)
    in_place = overwrite_h and H.dtype == dtype and H.flags.f_contiguous and H.flags.writeable
    Hs = H if in_place else np.array(H, dtype=dtype, order="F")
    peak, defect = _symmetrize_in_place(Hs, blocks)
    scale = max(1.0, peak)
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


def _count_below(H: scipy.sparse.csr_matrix, x: float) -> int:
    """Number of eigenvalues of the Hermitian ``H`` below ``x``, by Sylvester's law of inertia.

    Factors ``H - x I = P L D L^H P^T`` with SuperLU restricted to diagonal
    pivots, so the negative entries of ``D`` (the diagonal of ``U``) count
    the eigenvalues below ``x``.
    """
    shifted = (H - x * scipy.sparse.identity(H.shape[0], format="csr")).tocsc()
    try:
        lu = scipy.sparse.linalg.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SpectralError(f"inertia count at {x:.6e} failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SpectralError(f"inertia count at {x:.6e} needed an off-diagonal pivot")
    return int(np.sum(lu.U.diagonal().real < 0.0))


def _lowest_eigs(asm: MagneticAssembly, k: int) -> np.ndarray:
    """Checked ``k`` lowest eigenvalues of ``M^{-1/2} A M^{-1/2}`` by sparse shift-invert ARPACK.

    It runs on the CSR operator `MagneticAssembly.scaled`, whose dense form
    the dense path factors, and a Hermiticity defect above
    ``HERMITICITY_TOL`` relative to the largest entry raises ``ValueError``.
    ARPACK runs on ``H - sigma I`` with ``sigma = -SHIFT_REL * |H|_inf``,
    definite even at a zero mode, from a
    fixed start vector, so reruns are bitwise equal.  Its vectors need not
    be orthonormal inside a degenerate eigenspace, so the returned basis is
    orthonormalised (QR) and the ``k x k`` projected problem is solved.

    The Ritz pairs must meet ``max |H x - w x| <= RESIDUAL_TOL * |H|_inf``
    and a Gram defect of at most ``RESIDUAL_TOL``, else `SpectralError`.
    ARPACK can also miss copies of a degenerate eigenvalue.  So it is asked
    for ``2k`` pairs, and `_count_below` counts the eigenvalues below a cut
    midway between the ``k``-th returned value and the next distinct one;
    the count must equal the number returned below the cut.  Otherwise the
    request doubles, up to ``n - 2`` pairs, before `SpectralError`.
    """
    n = asm.mass.size
    if not 0 < k < n - 2:
        raise ValueError(f"sparse eigensolution needs 0 < k < n - 2, got k={k} for n={n}")
    H = asm.scaled
    scale = max(1.0, float(np.max(np.abs(H.data), initial=0.0)))
    defect = float(np.max(np.abs((H - H.conj().T).data), initial=0.0))
    if not defect <= HERMITICITY_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} at scale {scale:.3e}")
    norm = max(1.0, float(np.max(abs(H).sum(axis=1))))  # |H|_inf bounds every |eigenvalue|
    bound = RESIDUAL_TOL * norm
    v0 = np.random.default_rng(0).standard_normal(n).astype(H.dtype)
    m = min(2 * k, n - 2)
    while True:
        ncv = min(n, max(2 * m + 1, 20))  # ARPACK's default Krylov dimension for m pairs
        try:
            _, V = scipy.sparse.linalg.eigsh(H, k=m, sigma=-SHIFT_REL * norm, v0=v0, ncv=ncv)
        except RuntimeError as exc:  # ARPACK's errors and a singular shifted factor
            raise SpectralError(f"sparse eigensolver failed: {exc}") from exc
        Q = np.linalg.qr(V)[0]
        HQ = H @ Q
        T = Q.conj().T @ HQ
        w, Y = scipy.linalg.eigh(0.5 * (T + T.conj().T))
        X = Q @ Y
        residual = float(np.max(np.abs(HQ @ Y - X * w)))
        if not residual <= bound:
            raise SpectralError(f"sparse eigensolver residual {residual:.3e} exceeds bound {bound:.3e}")
        gram_defect = float(np.max(np.abs(X.conj().T @ X - np.eye(m))))
        if not gram_defect <= RESIDUAL_TOL:
            raise SpectralError(f"sparse eigenvectors not orthonormal: defect {gram_defect:.3e}")
        above = np.flatnonzero(w[k:] > w[k - 1] + bound)
        if above.size:
            cut = 0.5 * float(w[k - 1] + w[k + above[0]])
            if _count_below(H, cut) == int(np.sum(w < cut)):
                return np.asarray(w[:k], dtype=np.float64)
        if m == n - 2:
            raise SpectralError(f"sparse eigensolver could not certify the {k} lowest eigenvalues")
        m = min(2 * m, n - 2)


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


def _boundary_spectrum(
    ref: Refinement, model: MagneticModel, mu, boundary: str, k: int | None = None
) -> tuple[np.ndarray, MagneticAssembly]:
    """Eigenvalues of the Neumann assembly, restricted off the boundary set under ``"dirichlet"``.

    With ``k`` only the ``k`` lowest are returned.  When ``k`` is small
    against the vertex count (at least ``SPARSE_MIN_DIM`` vertices and
    ``SPARSE_K_RATIO * k`` at most their number) the sparse `_lowest_eigs`
    computes them; otherwise dense `hermitian_eigs` computes every
    eigenvalue, factoring the one buffer `MagneticAssembly.symmetrized`
    returns in place.  An unknown ``boundary``, and a level beyond the dense limit
    on the dense path, are refused before anything is assembled; callers
    resolve their input first.
    """
    if boundary not in ("neumann", "dirichlet"):
        raise ValueError(f"unknown boundary condition {boundary!r}; expected 'neumann' or 'dirichlet'")
    n = ref.net.vertex_count
    sparse = k is not None and n >= SPARSE_MIN_DIM and SPARSE_K_RATIO * k <= n
    if not sparse:
        _require_dense(ref)
    asm = assemble(ref.net, model, mu)
    asm = asm.restrict(ref.boundary) if boundary == "dirichlet" else asm
    if sparse:
        return _lowest_eigs(asm, k), asm
    return hermitian_eigs(asm.symmetrized, compute_vectors=False, overwrite_h=True)[:k], asm


def spectrum(
    s: PCFStructure,
    level: int,
    model="peierls",
    field: str = "zero",
    measure=None,
    boundary: str = "neumann",
    renormalize: bool = False,
) -> SpectrumReport:
    """Spectrum of the magnetic operator at one refinement level.

    ``field`` is a field spec string; ``measure`` a per-map weight spec
    (default: the structure's own weights); ``boundary`` is ``"neumann"``
    or ``"dirichlet"`` (pinning the boundary vertex set).  With
    ``renormalize`` the eigenvalues are scaled by ``g^level``, ``g`` being
    `renormalization_base`; the factor is reported as ``renormalization``.
    """
    ref = refine(s, int(level))
    mu = vertex_measure(ref, measure)
    mod = MagneticModel(kind=str(model), field=field_from_spec(ref.net, field))
    w, asm = _boundary_spectrum(ref, mod, mu, boundary)
    factor = renormalization_base(s) ** int(level) if renormalize else 1.0
    metadata = {
        "structure": s.name or "unnamed",
        "level": int(level),
        "model": mod.kind,
        "boundary": boundary,
        "measure": "structure" if measure is None else str(measure),
        "field": field,
        "vertices": int(ref.net.vertex_count),
        "kept": int(asm.kept.size),
        "renormalization": float(factor),
    }
    return SpectrumReport(w * factor, metadata, matrix=asm.matrix)


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
    chosen cycle.  With ``k`` each row keeps the ``k`` lowest eigenvalues,
    computed sparse when ``k`` is small against the vertex count (see
    `_boundary_spectrum`), so such a sweep is not bound by the dense limit.
    """
    fluxes = np.asarray(fluxes, dtype=np.float64)
    if fluxes.ndim != 1 or fluxes.size == 0:
        raise ValueError("flux grid must be a non-empty 1-d array")
    k = None if k is None else int(k)
    if k is not None and k < 1:
        raise ValueError(f"k must be positive, got {k}")
    ref = refine(s, int(level))
    mu = vertex_measure(ref, measure)
    basis = cycle_basis(ref.net)
    unit = cycle_field(ref.net, int(cycle_index), 1.0, basis=basis)
    models = (MagneticModel(kind=model, field=t * unit) for t in fluxes)
    rows = [_boundary_spectrum(ref, m, mu, boundary, k)[0] for m in models]
    table = np.vstack(rows)
    metadata = {
        "structure": s.name or "unnamed",
        "level": int(level),
        "model": model,
        "boundary": boundary,
        "measure": "structure" if measure is None else str(measure),
        "cycle": int(cycle_index),
        "cycles_available": len(basis.chords),
        "k": int(table.shape[1]),
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
    rows = []
    for lvl in levels:
        w = spectrum(
            s, lvl, model=model, field=field, measure=measure,
            boundary=boundary, renormalize=renormalize,
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
        "renormalization_base": renormalization_base(s),
    }
    return ConvergenceReport(levels=levels, table=table, diffs=diffs, metadata=metadata)


def compare_spectra(a, b) -> float:
    """Largest absolute difference between two spectra of equal size."""
    wa = np.asarray(a, dtype=np.float64)
    wb = np.asarray(b, dtype=np.float64)
    if wa.size != wb.size:
        raise ValueError(f"spectra have different sizes ({wa.size} vs {wb.size})")
    return float(np.max(np.abs(wa - wb))) if wa.size else 0.0

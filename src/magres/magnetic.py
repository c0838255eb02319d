"""Magnetic energy forms and operators on resistance networks.

Two discretisations of the magnetic derivative are provided.

* ``linearized``: ``d_a f = df + i (f.a)`` with the midpoint module action;
  the energy is ``<d_a f, d_a g>`` in the weighted form inner product.  It
  equals the peierls energy with phases ``2 arctan(a/2)`` on conductances
  ``c (1 + a^2/4)``, so the zero-mode criterion below holds for those phases.
* ``peierls``: per-edge phase factors, ``sum_e c_e (f(tail) -
  e^{i theta_e} f(head)) conj(...)``; gauge covariance is exact at matrix
  level, and zero ground energy occurs precisely when every cycle flux of
  ``theta`` lies in ``2 pi Z``.

Assemblies are Hermitian positive semidefinite matrices representing the
energy in the vertex-indicator basis, together with the diagonal mass matrix
of a vertex measure; the symmetrised operator ``M^{-1/2} A M^{-1/2}`` shares
its spectrum with the nonnegative generalized problem ``A f = lambda M f``
(the discrete ``-Laplacian``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse

from .network import NetworkError, ResistanceNetwork, _edge_matrix, _interior_solver
from .oneforms import cycle_fluxes, derivation, inner, module_action
from .selfsimilar import VertexMeasure

__all__ = [
    "MODEL_KINDS",
    "MagneticModel",
    "MagneticAssembly",
    "ZeroModeReport",
    "LocalityReport",
    "magnetic_energy",
    "b_form_terms",
    "assemble",
    "gauge_transform",
    "zero_mode_test",
    "locality_check",
    "dirichlet_solve",
]

MODEL_KINDS = ("linearized", "peierls")

TWO_PI = 2.0 * np.pi

#: Relative bound on the energy coupling of functions with separated supports.
LOCALITY_TOL = 1e-12

#: Largest cycle flux ``zero_mode_test`` accepts: from ``2^52`` on, float
#: spacing is at least 1, so a flux cannot be resolved modulo ``2 pi``.
MAX_FLUX = 2.0**52

#: Rows, columns or square blocks of a dense ``n x n`` array processed at
#: once by ``spectral.hermitian_eigs``; bounds each of its temporaries to
#: ``n x DENSE_BLOCK``.
DENSE_BLOCK = 256


@dataclass(frozen=True)
class MagneticModel:
    """A model kind plus its real magnetic field, one value per edge."""

    kind: str
    field: np.ndarray

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown magnetic model {self.kind!r}; expected one of {MODEL_KINDS}")
        field = np.asarray(self.field)
        if np.iscomplexobj(field):
            raise ValueError("magnetic field must be real-valued")
        field = field.astype(np.float64)
        if field.ndim != 1:
            raise ValueError("magnetic field must be a 1-d real edge array")
        if not np.all(np.isfinite(field)):
            raise ValueError("magnetic field must be finite")
        object.__setattr__(self, "field", field)


def _check_model(net: ResistanceNetwork, model: MagneticModel) -> np.ndarray:
    if model.field.shape != (net.edge_count,):
        raise NetworkError(
            f"field has shape {model.field.shape}, expected ({net.edge_count},)"
        )
    return model.field


def _edge_coefficients(net: ResistanceNetwork, model: MagneticModel):
    """Per-edge coefficients (K_tail, K_head) of the magnetic amplitude.

    The amplitude of ``f`` on edge ``e`` is ``K_tail[e] f(tail) +
    K_head[e] f(head)``; the energy is its conductance-weighted square sum.
    """
    a = _check_model(net, model)
    if model.kind == "linearized":
        k_tail = -1.0 + 0.5j * a
        k_head = 1.0 + 0.5j * a
    else:
        k_tail = np.ones(net.edge_count, dtype=np.complex128)
        k_head = -np.exp(1j * a)
    return k_tail, k_head


def _peierls_phases(model: MagneticModel) -> np.ndarray:
    """Edge phases of the Peierls form that equals ``model``'s, up to conductances.

    The linearized amplitude ``(1 + ia/2) f(head) - (1 - ia/2) f(tail)`` is
    ``-(1 - ia/2) (f(tail) - e^{i phi} f(head))`` with ``phi = 2 arctan(a/2)``,
    so ``A_lin(c, a) = A_peierls(c (1 + a^2/4), phi)``; a Peierls model's
    phases are its field.
    """
    return 2.0 * np.arctan(0.5 * model.field) if model.kind == "linearized" else model.field


def magnetic_energy(net: ResistanceNetwork, model: MagneticModel, f, g=None):
    """Magnetic energy ``E^a(f, g)``, linear in ``f``, conjugate in ``g``.

    With a zero field both models reduce to the plain Dirichlet energy.
    The vertex measure plays no role at form level.
    """
    k_tail, k_head = _edge_coefficients(net, model)
    f = net._check_vertex_values(f)
    af = k_tail * f[net.tails] + k_head * f[net.heads]
    if g is None:
        return float(np.sum(net.conductances * (af.real**2 + af.imag**2)))
    g = net._check_vertex_values(g)
    ag = k_tail * g[net.tails] + k_head * g[net.heads]
    return complex(np.sum(net.conductances * af * np.conj(ag)))


def b_form_terms(net: ResistanceNetwork, a_field, f, g) -> tuple[complex, complex, complex]:
    """The three terms of the linearized magnetic perturbation ``B(f, g)``.

    Returns ``(i<f.a, dg>, -i<df, g.a>, <f.a, g.a>)``; their sum equals
    ``E^a(f, g) - E(f, g)`` for the linearized model with field ``a``.
    """
    a_field = np.asarray(a_field, dtype=np.float64)
    fa = module_action(net, f, a_field)
    ga = module_action(net, g, a_field)
    df = derivation(net, f)
    dg = derivation(net, g)
    t1 = 1j * complex(inner(net, fa, dg))
    t2 = -1j * complex(inner(net, df, ga))
    t3 = complex(inner(net, fa, ga))
    return t1, t2, t3


def _mass_vector(net: ResistanceNetwork, mu) -> np.ndarray:
    mass = mu.mass if isinstance(mu, VertexMeasure) else np.asarray(mu, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    if mass.shape != (net.vertex_count,):
        raise NetworkError(
            f"vertex measure has shape {mass.shape}, expected ({net.vertex_count},)"
        )
    if np.any(mass <= 0.0) or not np.all(np.isfinite(mass)):
        raise NetworkError("vertex measure must be strictly positive and finite")
    return mass


@dataclass(frozen=True)
class MagneticAssembly:
    """Energy matrix of a magnetic model in the vertex-indicator basis.

    ``matrix`` is a CSR matrix with ``g^H matrix f = E^a(f, g)`` on the kept
    vertices; it is Hermitian positive semidefinite by construction.
    ``scaled`` is the operator ``M^{-1/2} matrix M^{-1/2}`` for the diagonal
    mass matrix ``M``, as a CSR matrix whose entries are ``a_ij (s_i s_j)``
    with ``s = M^{-1/2}``; the sparse and the dense eigensolvers both start
    from it.  ``symmetrized``, the one dense form, densifies ``scaled`` in
    Fortran order.  Both are computed on each access.  ``kept`` maps the rows
    back to vertices of the network (every vertex for the Neumann form that
    ``assemble`` builds, a proper subset after ``restrict``).
    """

    matrix: scipy.sparse.csr_matrix
    mass: np.ndarray
    kept: np.ndarray

    @property
    def scaled(self) -> scipy.sparse.csr_matrix:
        A = self.matrix
        s = 1.0 / np.sqrt(self.mass)
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        return scipy.sparse.csr_matrix((A.data * (s[rows] * s[A.indices]), A.indices, A.indptr), shape=A.shape)

    @property
    def symmetrized(self) -> np.ndarray:
        return self.scaled.toarray(order="F")

    def restrict(self, pinned: Sequence[int]) -> MagneticAssembly:
        """The Dirichlet form: this assembly without the rows and columns of ``pinned``.

        ``pinned`` indexes the rows of this assembly (the network's vertices
        for a Neumann assembly); the result's ``kept`` maps back to network
        vertices.  A pinned set that is empty, out of range or covers every
        row raises ``ValueError``.
        """
        n = self.mass.size
        pinned = np.asarray(sorted({int(v) for v in pinned}), dtype=np.int64)
        if pinned.size == 0:
            raise ValueError("dirichlet boundary set is empty")
        if pinned[0] < 0 or pinned[-1] >= n:
            raise ValueError("dirichlet boundary set out of range")
        if pinned.size == n:
            raise ValueError("dirichlet boundary set leaves no free vertex")
        kept = np.setdiff1d(np.arange(n, dtype=np.int64), pinned)
        return MagneticAssembly(
            matrix=self.matrix[kept][:, kept], mass=self.mass[kept], kept=self.kept[kept]
        )


def assemble(net: ResistanceNetwork, model: MagneticModel, mu) -> MagneticAssembly:
    """Assemble the Neumann magnetic energy matrix and its mass vector.

    Boundary conditions are restrictions of this one form
    (:meth:`MagneticAssembly.restrict`).  A field large enough to overflow
    the matrix entries raises ``ValueError``.
    """
    k_tail, k_head = _edge_coefficients(net, model)
    mass = _mass_vector(net, mu)
    c = net.conductances
    with np.errstate(over="ignore", invalid="ignore"):
        A = _edge_matrix(net, c * (k_tail.real**2 + k_tail.imag**2),
                         c * (k_head.real**2 + k_head.imag**2), c * np.conj(k_tail) * k_head)
    if not np.all(np.isfinite(A.data)):
        raise ValueError("magnetic field overflows the assembled matrix: entries are not finite")
    return MagneticAssembly(matrix=A, mass=mass, kept=np.arange(net.vertex_count, dtype=np.int64))


def gauge_transform(net: ResistanceNetwork, model: MagneticModel, lam) -> MagneticModel:
    """Shift the field by the exact form of a real vertex potential.

    For the peierls model the assembly transforms by exact unitary
    conjugation with ``diag(e^{i lambda})``; for the linearized model the
    conjugation identity holds to second order in the field amplitude.
    """
    lam = np.asarray(lam, dtype=np.float64)
    shift = np.asarray(derivation(net, lam), dtype=np.float64)
    return MagneticModel(kind=model.kind, field=model.field + shift)


@dataclass(frozen=True)
class ZeroModeReport:
    """Ground-state data of an assembly plus its flux-quantisation check.

    ``fluxes`` are the cycle fluxes of the Peierls phases equal to the model
    (`_peierls_phases`: the field itself for peierls, ``2 arctan(a/2)`` per
    edge for linearized), so the criterion is exact for both models.
    ``consistent`` states whether ``zero_mode == fluxes_integral`` and, when
    a zero mode is found, ``modulus_spread <= spread_tol``.
    """

    ground_energy: float
    modulus_spread: float
    fluxes: np.ndarray
    max_flux_defect: float
    fluxes_integral: bool
    zero_mode: bool
    consistent: bool
    tol: float
    spread_tol: float
    flux_tol: float


def zero_mode_test(
    net: ResistanceNetwork,
    model: MagneticModel,
    mu,
    tol: float = 1e-9,
    spread_tol: float = 1e-6,
    flux_tol: float = 1e-8,
) -> ZeroModeReport:
    """Test for a zero ground energy and constant-modulus ground state.

    A zero mode exists exactly when every cycle flux of the model's Peierls
    phases lies in ``2 pi Z``; the ground state is then a constant multiple
    of a pure phase and its modulus spread vanishes.  A flux above
    ``MAX_FLUX`` in magnitude raises ``ValueError`` before any eigensolve.
    """
    from .spectral import hermitian_eigs

    with np.errstate(over="ignore", invalid="ignore"):  # a huge field's tree potential overflows
        fluxes = np.asarray(cycle_fluxes(net, _peierls_phases(model)), dtype=np.float64)
    if fluxes.size and not np.max(np.abs(fluxes)) <= MAX_FLUX:  # NaN included
        raise ValueError(
            f"largest cycle flux {np.max(np.abs(fluxes)):.3e} is not finite or beyond 2^52, "
            "where float spacing cannot resolve integrality modulo 2 pi"
        )
    asm = assemble(net, model, mu)
    w, V = hermitian_eigs(asm.symmetrized)
    ground = float(w[0])
    f0 = V[:, 0] / np.sqrt(asm.mass)
    mods = np.abs(f0)
    lo, hi = float(np.min(mods)), float(np.max(mods))
    spread = float("inf") if lo == 0.0 else hi / lo - 1.0

    defects = np.abs(fluxes - TWO_PI * np.round(fluxes / TWO_PI)) if fluxes.size else np.zeros(0)
    max_defect = float(np.max(defects)) if defects.size else 0.0
    integral = bool(max_defect <= flux_tol)
    zero_mode = bool(ground < tol)
    consistent = zero_mode == integral and (not zero_mode or spread <= spread_tol)
    return ZeroModeReport(
        ground_energy=ground,
        modulus_spread=spread,
        fluxes=fluxes,
        max_flux_defect=max_defect,
        fluxes_integral=integral,
        zero_mode=zero_mode,
        consistent=consistent,
        tol=tol,
        spread_tol=spread_tol,
        flux_tol=flux_tol,
    )


@dataclass(frozen=True)
class LocalityReport:
    """Result of evaluating ``E^a(f, g)`` for functions with separated supports.

    When the precondition fails (some edge touches both supports) the check
    is skipped and ``value``/``passed`` are ``None``.
    """

    precondition_met: bool
    shared_edges: int
    value: complex | None
    scale: float
    passed: bool | None


def locality_check(
    net: ResistanceNetwork,
    model: MagneticModel,
    f,
    g,
) -> LocalityReport:
    """Verify that the magnetic energy couples nothing across a support gap."""
    f = net._check_vertex_values(f)
    g = net._check_vertex_values(g)
    sf = np.abs(f) > 0.0
    sg = np.abs(g) > 0.0
    touches_f = sf[net.tails] | sf[net.heads]
    touches_g = sg[net.tails] | sg[net.heads]
    shared = int(np.sum(touches_f & touches_g))
    scale = float(np.sqrt(max(magnetic_energy(net, model, f), 0.0)
                          * max(magnetic_energy(net, model, g), 0.0)))
    if shared:
        return LocalityReport(False, shared, None, scale, None)
    value = complex(magnetic_energy(net, model, f, g))
    passed = bool(abs(value) <= LOCALITY_TOL * max(scale, 1.0))
    return LocalityReport(True, 0, value, scale, passed)


def dirichlet_solve(asm: MagneticAssembly, dirichlet: Sequence[int], rhs) -> np.ndarray:
    """Solve the magnetic equation off a pinned set and extend by zero.

    ``asm`` is the Neumann assembly.  Solves ``A_cc u_c = (M rhs)_c`` by
    sparse LU, where ``A_cc`` is ``asm`` restricted to the complement of
    ``dirichlet`` and ``M`` the mass matrix; the returned function vanishes
    on the pinned set.  For an exact field ``d lambda`` (peierls) the
    solution is ``e^{-i lambda}`` times the non-magnetic solution for
    ``e^{i lambda} rhs``.
    """
    n = asm.mass.size
    rhs = np.asarray(rhs)
    if rhs.shape != (n,):
        raise NetworkError(f"vertex function has shape {rhs.shape}, expected ({n},)")
    rhs = rhs.astype(np.complex128)
    block = asm.restrict(dirichlet)
    u = np.zeros(n, dtype=np.complex128)
    solve = _interior_solver(block.matrix, "dirichlet block is singular")
    u[block.kept] = solve(block.mass * rhs[block.kept])
    return u

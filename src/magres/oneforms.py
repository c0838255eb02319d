"""Discrete 1-forms on resistance networks.

An edge form assigns a complex value to every edge in the network's stored
orientation (tail < head).  The derivation ``(df)_e = f(head) - f(tail)``
is an isometry from functions modulo constants into the form space with
inner product ``<w, e> = sum c_e w_e conj(e_e)`` (linear in the first
argument), and the midpoint module action ``(g.w)_e = (g(tail)+g(head))/2 *
w_e`` makes the derivation satisfy the Leibniz rule exactly.

The Hodge splitting ``w = d(lambda) + w_c`` solves the weighted normal
equations ``L lambda = div_c w`` with the gauge ``lambda(0) = 0``; the
coulomb part ``w_c`` is divergence-free and vanishes exactly when all cycle
fluxes of ``w`` vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import breadth_first_order

from .network import NetworkError, ResistanceNetwork, _interior_solver, _sparse_laplacian

__all__ = [
    "HodgeDecomposition",
    "CycleBasis",
    "derivation",
    "inner",
    "module_action",
    "divergence",
    "hodge_decompose",
    "cycle_basis",
    "cycle_fluxes",
    "cycle_field",
    "field_from_spec",
]


def _check_form(net: ResistanceNetwork, w) -> np.ndarray:
    w = np.asarray(w)
    if w.shape != (net.edge_count,):
        raise NetworkError(f"edge form has shape {w.shape}, expected ({net.edge_count},)")
    return w


def derivation(net: ResistanceNetwork, f) -> np.ndarray:
    """Exterior derivative ``(df)_e = f(head) - f(tail)``."""
    f = net._check_vertex_values(f)
    return f[net.heads] - f[net.tails]


def inner(net: ResistanceNetwork, w, e=None):
    """Conductance-weighted inner product, linear in the first argument.

    With ``e`` omitted returns the squared norm ``<w, w>`` as a real float.
    A result that is not finite (a non-finite entry, or forms so large
    that the sum overflows) raises ``ValueError``.
    """
    w = _check_form(net, w)
    with np.errstate(over="ignore", invalid="ignore"):
        if e is None:
            out = np.sum(net.conductances * (w.real**2 + w.imag**2)) if np.iscomplexobj(w) \
                else np.sum(net.conductances * w * w)
        else:
            out = np.sum(net.conductances * w * np.conj(_check_form(net, e)))
    if not np.isfinite(out):
        raise ValueError("inner product of 1-forms is not finite: the forms overflow the float range")
    return complex(out) if np.iscomplexobj(out) else float(out)


def module_action(net: ResistanceNetwork, g, w) -> np.ndarray:
    """Midpoint action ``(g.w)_e = (g(tail) + g(head)) / 2 * w_e``.

    This symmetric choice makes ``d(fg) = f.(dg) + g.(df)`` hold exactly.
    """
    g = net._check_vertex_values(g)
    w = _check_form(net, w)
    return 0.5 * (g[net.tails] + g[net.heads]) * w


def divergence(net: ResistanceNetwork, w) -> np.ndarray:
    """Weighted divergence ``(div w)(x) = <w, d(e_x)>`` per vertex."""
    w = _check_form(net, w)
    cw = net.conductances * w
    out = np.zeros(net.vertex_count, dtype=cw.dtype)
    np.add.at(out, net.heads, cw)
    np.add.at(out, net.tails, -cw)
    return out


@dataclass(frozen=True)
class HodgeDecomposition:
    """Splitting ``w = exact + coulomb`` with diagnostics.

    ``potential`` is the vertex function with ``exact = d(potential)`` and
    ``potential[0] = 0``.  ``orthogonality_residual`` is ``|<exact,
    coulomb>|`` and ``pythagoras_residual`` the defect of
    ``|w|^2 = |exact|^2 + |coulomb|^2``; both vanish up to rounding.
    """

    potential: np.ndarray
    exact: np.ndarray
    coulomb: np.ndarray
    exact_norm_sq: float
    coulomb_norm_sq: float
    total_norm_sq: float
    orthogonality_residual: float
    pythagoras_residual: float


def hodge_decompose(net: ResistanceNetwork, w) -> HodgeDecomposition:
    """Project a form onto the exact subspace and its orthocomplement."""
    w = _check_form(net, w)
    n = net.vertex_count
    dtype = np.complex128 if np.iscomplexobj(w) else np.float64
    lam = np.zeros(n, dtype=dtype)
    if net.edge_count and n > 1:
        solve = _interior_solver(
            _sparse_laplacian(net)[1:, 1:], "grounded Laplacian is singular; network disconnects"
        )
        lam[1:] = solve(divergence(net, w)[1:])
    exact = derivation(net, lam)
    coulomb = w - exact
    e_sq = inner(net, exact)
    c_sq = inner(net, coulomb)
    t_sq = inner(net, w)
    orth = abs(inner(net, exact, coulomb))
    return HodgeDecomposition(
        potential=lam,
        exact=exact,
        coulomb=coulomb,
        exact_norm_sq=e_sq,
        coulomb_norm_sq=c_sq,
        total_norm_sq=t_sq,
        orthogonality_residual=float(orth),
        pythagoras_residual=float(abs(t_sq - e_sq - c_sq)),
    )


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycles of a breadth-first spanning tree rooted at 0.

    ``tree`` lists the ``(vertex, parent_edge)`` pair of every vertex but
    the root, in breadth-first order (lower-numbered neighbours first).
    ``chords`` lists the other edges in ascending order; cycle ``k`` runs
    along ``chords[k]`` from tail to head and back through the tree.  The
    cycle count is ``edge_count - vertex_count + 1``.
    """

    tree: tuple[tuple[int, int], ...]
    chords: tuple[int, ...]


def cycle_basis(net: ResistanceNetwork) -> CycleBasis:
    """Build the fundamental cycle basis (BFS tree from vertex 0)."""
    n, m = net.vertex_count, net.edge_count
    # entry (i, j) is the number of edge {i, j} plus one, so none is zero
    ids = np.arange(1, m + 1)
    graph = scipy.sparse.csr_array(
        (np.concatenate([ids, ids]),
         (np.concatenate([net.tails, net.heads]), np.concatenate([net.heads, net.tails]))),
        shape=(n, n),
    )
    graph.sort_indices()
    order, parent = breadth_first_order(graph, 0, directed=True, return_predecessors=True)
    vertices = order[1:]
    # an empty lookup would come back as a sparse array
    edges = graph[parent[vertices], vertices] - 1 if vertices.size else vertices
    is_chord = np.ones(m, dtype=bool)
    is_chord[edges] = False
    return CycleBasis(
        tree=tuple(zip(vertices.tolist(), edges.tolist())),
        chords=tuple(np.flatnonzero(is_chord).tolist()),
    )


def cycle_fluxes(net: ResistanceNetwork, w, basis: CycleBasis | None = None) -> np.ndarray:
    """Flux of a form around each fundamental cycle.

    The tree potential ``phi(0) = 0``, ``phi(v) = phi(parent) +- w(parent
    edge)`` makes ``w - d(phi)`` vanish on the tree, so its value on a
    chord is the flux of that chord's cycle.
    """
    w = _check_form(net, w)
    basis = cycle_basis(net) if basis is None else basis
    tails, heads, values = net.tails.tolist(), net.heads.tolist(), w.tolist()
    phi = [0.0] * net.vertex_count
    for v, e in basis.tree:
        phi[v] = phi[tails[e]] + values[e] if heads[e] == v else phi[heads[e]] - values[e]
    chords = np.asarray(basis.chords, dtype=np.intp)
    return (w - derivation(net, np.asarray(phi, dtype=w.dtype)))[chords]


def cycle_field(
    net: ResistanceNetwork,
    index: int,
    amplitude: float = 1.0,
    basis: CycleBasis | None = None,
) -> np.ndarray:
    """Real field with flux ``amplitude`` on one fundamental cycle, 0 on others.

    Starts from the chord indicator of the chosen cycle (flux exactly
    ``amplitude`` there by construction) and returns its divergence-free
    coulomb part, which has identical fluxes.
    """
    basis = cycle_basis(net) if basis is None else basis
    if not 0 <= index < len(basis.chords):
        raise ValueError(
            f"cycle index {index} out of range; network has {len(basis.chords)} independent cycles"
        )
    w = np.zeros(net.edge_count, dtype=np.float64)
    w[basis.chords[index]] = float(amplitude)
    return hodge_decompose(net, w).coulomb


def field_from_spec(net: ResistanceNetwork, spec: str) -> np.ndarray:
    """Realise a field specification as a real edge form.

    Accepted forms: ``zero``, ``constant:<t>``, ``random:<seed>`` (standard
    normal per edge) and ``cycle:<index>:<t>`` (coulomb form with flux ``t``
    on one fundamental cycle).
    """
    if not isinstance(spec, str):
        raise ValueError(f"field spec must be a string, got {spec!r}")
    parts = spec.split(":")
    try:
        if parts[0] == "zero" and len(parts) == 1:
            return np.zeros(net.edge_count, dtype=np.float64)
        if parts[0] == "constant" and len(parts) == 2:
            return np.full(net.edge_count, _finite(parts[1]), dtype=np.float64)
        if parts[0] == "random" and len(parts) == 2:
            rng = np.random.default_rng(int(parts[1]))
            return rng.standard_normal(net.edge_count)
        if parts[0] == "cycle" and len(parts) == 3:
            return cycle_field(net, int(parts[1]), _finite(parts[2]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed field spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown field spec {spec!r}; expected zero | constant:<t> | random:<seed> | cycle:<i>:<t>"
    )


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value

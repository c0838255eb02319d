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

from collections import deque
from dataclasses import dataclass

import numpy as np

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
    """
    w = _check_form(net, w)
    if e is None:
        return float(np.sum(net.conductances * (w.real**2 + w.imag**2))) \
            if np.iscomplexobj(w) else float(np.sum(net.conductances * w * w))
    e = _check_form(net, e)
    out = np.sum(net.conductances * w * np.conj(e))
    return complex(out) if np.iscomplexobj(w) or np.iscomplexobj(e) else float(out)


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

    ``cycles[k]`` lists ``(edge_index, sign)`` pairs tracing the cycle that
    the chord ``chords[k]`` closes; sign +1 means the edge is traversed from
    tail to head.  The cycle count is ``edge_count - vertex_count + 1``.
    """

    tree_edges: tuple[int, ...]
    chords: tuple[int, ...]
    cycles: tuple[tuple[tuple[int, int], ...], ...]


def cycle_basis(net: ResistanceNetwork) -> CycleBasis:
    """Build the fundamental cycle basis (BFS tree from vertex 0)."""
    n = net.vertex_count
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (i, j) in enumerate(zip(net.tails, net.heads)):
        adjacency[int(i)].append((int(j), e))
        adjacency[int(j)].append((int(i), e))
    for lst in adjacency:
        lst.sort()

    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    tree: list[int] = []
    while queue:
        x = queue.popleft()
        for y, e in adjacency[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                parent_edge[y] = e
                depth[y] = depth[x] + 1
                tree.append(e)
                queue.append(y)
    tree_set = set(tree)
    chords = [e for e in range(net.edge_count) if e not in tree_set]

    def step_sign(a: int, b: int, e: int) -> int:
        return 1 if (int(net.tails[e]), int(net.heads[e])) == (a, b) else -1

    cycles = []
    for e in chords:
        u, v = int(net.tails[e]), int(net.heads[e])
        cycle = [(e, 1)]
        # walk v and u up to their lowest common ancestor
        up_v, up_u = [], []
        a, b = v, u
        while depth[a] > depth[b]:
            up_v.append((a, int(parent[a]), int(parent_edge[a])))
            a = int(parent[a])
        while depth[b] > depth[a]:
            up_u.append((b, int(parent[b]), int(parent_edge[b])))
            b = int(parent[b])
        while a != b:
            up_v.append((a, int(parent[a]), int(parent_edge[a])))
            up_u.append((b, int(parent[b]), int(parent_edge[b])))
            a, b = int(parent[a]), int(parent[b])
        for x, p, eid in up_v:  # moving v -> lca
            cycle.append((eid, step_sign(x, p, eid)))
        for x, p, eid in reversed(up_u):  # moving lca -> u
            cycle.append((eid, step_sign(p, x, eid)))
        cycles.append(tuple(cycle))
    return CycleBasis(
        tree_edges=tuple(sorted(tree)),
        chords=tuple(chords),
        cycles=tuple(cycles),
    )


def cycle_fluxes(net: ResistanceNetwork, w, basis: CycleBasis | None = None) -> np.ndarray:
    """Flux of a form around each fundamental cycle."""
    w = _check_form(net, w)
    basis = cycle_basis(net) if basis is None else basis
    out = np.zeros(len(basis.cycles), dtype=w.dtype)
    for k, cycle in enumerate(basis.cycles):
        out[k] = sum(sign * w[e] for e, sign in cycle)
    return out


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
    if not 0 <= index < len(basis.cycles):
        raise ValueError(
            f"cycle index {index} out of range; network has {len(basis.cycles)} independent cycles"
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

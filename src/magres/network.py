"""Finite resistance networks and their Dirichlet energy forms.

A network is a finite connected weighted graph; the quadratic form
``E(f) = sum_e c_e |f(i) - f(j)|^2`` over its edges is the discrete analogue
of a resistance form.  This module provides the form itself, Schur-complement
traces onto vertex subsets, harmonic extension, effective resistance, and
energy localisation onto edge partitions.

Conventions used throughout the package:

* edges are stored with tail < head and sorted lexicographically,
* the sesquilinear extension of the energy is linear in its first argument
  and conjugate-linear in the second,
* conductances are strictly positive floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components

__all__ = [
    "NetworkError",
    "ResistanceNetwork",
    "CellPartition",
    "ResistanceEstimateReport",
    "energy",
    "laplacian",
    "trace_to",
    "harmonic_extension",
    "effective_resistance",
    "resistance_matrix",
    "check_resistance_estimate",
    "energy_measure_on_cells",
    "conductance_deviation",
    "network_to_dict",
    "network_from_dict",
]

#: Relative magnitude below which a Schur-complement entry is treated as an
#: absent edge.
TRACE_ZERO_TOL = 1e-12

#: Kept vertices whose columns ``trace_to`` solves against the interior block
#: at once; bounds its dense right-hand side to ``interior x TRACE_BLOCK``.
TRACE_BLOCK = 128


class NetworkError(ValueError):
    """Raised for structurally invalid networks or ill-posed operations."""


@dataclass(frozen=True, eq=False)
class ResistanceNetwork:
    """Immutable weighted graph carrying a Dirichlet energy form.

    Attributes:
        vertex_count: number of vertices, indexed ``0 .. vertex_count - 1``.
        tails, heads: edge endpoint arrays with ``tails[k] < heads[k]``.
        conductances: strictly positive edge weights.
        labels: optional per-vertex names (unique when present).
    """

    vertex_count: int
    tails: np.ndarray
    heads: np.ndarray
    conductances: np.ndarray
    labels: tuple[str, ...] | None = None

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        edges: Iterable[tuple[int, int, float]],
        labels: Sequence[str] | None = None,
    ) -> "ResistanceNetwork":
        """Build a validated network from an ``(i, j, c)`` edge list.

        Edges are normalised to tail < head and sorted.  Self-loops,
        duplicate vertex pairs, non-positive conductances, out-of-range
        indices and disconnected graphs are rejected.
        """
        if vertex_count < 1:
            raise NetworkError("network needs at least one vertex")
        rows = list(edges)
        if not rows and vertex_count > 1:
            raise NetworkError("network with several vertices has no edges")
        tails = np.empty(len(rows), dtype=np.int64)
        heads = np.empty(len(rows), dtype=np.int64)
        conds = np.empty(len(rows), dtype=np.float64)
        for k, (i, j, c) in enumerate(rows):
            i, j = int(i), int(j)
            if i == j:
                raise NetworkError(f"self-loop at vertex {i}")
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise NetworkError(f"edge ({i}, {j}) out of range")
            cf = float(c)
            if not np.isfinite(cf) or cf <= 0.0:
                raise NetworkError(f"conductance {c!r} on edge ({i}, {j}) must be positive")
            tails[k], heads[k] = (i, j) if i < j else (j, i)
            conds[k] = cf
        order = np.lexsort((heads, tails))
        tails, heads, conds = tails[order], heads[order], conds[order]
        pairs = tails * vertex_count + heads
        if len(pairs) != len(np.unique(pairs)):
            raise NetworkError("duplicate edges between the same vertex pair")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != vertex_count:
                raise NetworkError("labels length does not match vertex count")
            if len(set(labels)) != vertex_count:
                raise NetworkError("vertex labels must be unique")
        net = cls(vertex_count, tails, heads, conds, labels)
        if not net.is_connected():
            raise NetworkError("network is not connected")
        return net

    @property
    def edge_count(self) -> int:
        return len(self.conductances)

    def is_connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        adj = scipy.sparse.coo_matrix(
            (np.ones(self.edge_count), (self.tails, self.heads)),
            shape=(self.vertex_count, self.vertex_count),
        )
        n_parts, _ = connected_components(adj, directed=False)
        return int(n_parts) == 1

    def _check_vertex_values(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f)
        if f.shape != (self.vertex_count,):
            raise NetworkError(
                f"vertex function has shape {f.shape}, expected ({self.vertex_count},)"
            )
        return f


def energy(net: ResistanceNetwork, f, g=None):
    """Dirichlet energy ``E(f, g) = sum_e c_e (f(j)-f(i)) conj(g(j)-g(i))``.

    Linear in ``f``, conjugate-linear in ``g``.  With ``g`` omitted returns
    the real quadratic energy ``E(f)``.
    """
    f = net._check_vertex_values(f)
    df = f[net.heads] - f[net.tails]
    if g is None:
        vals = net.conductances * (df.real**2 + df.imag**2) if np.iscomplexobj(df) \
            else net.conductances * df * df
        return float(np.sum(vals))
    g = net._check_vertex_values(g)
    dg = g[net.heads] - g[net.tails]
    out = np.sum(net.conductances * df * np.conj(dg))
    return complex(out) if np.iscomplexobj(df) or np.iscomplexobj(dg) else float(out)


def laplacian(net: ResistanceNetwork) -> np.ndarray:
    """Dense graph Laplacian ``L`` with ``f^T L f = E(f)`` for real ``f``."""
    return _sparse_laplacian(net).toarray()


def _sparse_laplacian(net: ResistanceNetwork) -> scipy.sparse.csr_matrix:
    """Graph Laplacian in CSR form: the real case of :func:`_edge_matrix`."""
    return _edge_matrix(net, net.conductances, net.conductances, -net.conductances)


def _edge_matrix(net: ResistanceNetwork, tail_diag, head_diag, cross) -> scipy.sparse.csr_matrix:
    """CSR sum of the edges' Hermitian 2x2 blocks, every diagonal entry stored.

    Edge ``e`` adds ``tail_diag[e]``/``head_diag[e]`` to the diagonal at its
    tail/head and ``cross[e]`` at (tail, head), its conjugate at (head, tail).
    No COO duplicates are summed; the diagonal accumulates tails, then heads,
    in edge order.
    """
    n = net.vertex_count
    diag = np.zeros(n, dtype=np.result_type(tail_diag, cross))
    np.add.at(diag, net.tails, tail_diag)
    np.add.at(diag, net.heads, head_diag)
    idx = np.arange(n)
    rows = np.concatenate([idx, net.tails, net.heads])
    cols = np.concatenate([idx, net.heads, net.tails])
    vals = np.concatenate([diag, cross, np.conj(cross)])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _interior_solver(block, message: str):
    """Sparse LU of an interior block; returns ``solve(rhs)``.

    A complex block is solved directly; for a real block a complex
    right-hand side is split into two real solves.  An exactly singular
    block raises :class:`NetworkError` with ``message``.
    """
    try:
        lu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(block))
    except RuntimeError as exc:
        raise NetworkError(message) from exc

    def solve(rhs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(rhs) and not np.iscomplexobj(block):
            return lu.solve(rhs.real) + 1j * lu.solve(rhs.imag)
        return lu.solve(rhs)

    return solve


def _partition_indices(net: ResistanceNetwork, keep: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    keep = np.asarray(sorted({int(v) for v in keep}), dtype=np.int64)
    if keep.size == 0:
        raise NetworkError("kept vertex set must be non-empty")
    if keep[0] < 0 or keep[-1] >= net.vertex_count:
        raise NetworkError("kept vertex set out of range")
    mask = np.ones(net.vertex_count, dtype=bool)
    mask[keep] = False
    interior = np.nonzero(mask)[0]
    return keep, interior


def trace_to(net: ResistanceNetwork, keep: Sequence[int]) -> ResistanceNetwork:
    """Trace the energy form onto a vertex subset via the Schur complement.

    The returned network's vertex ``k`` corresponds to ``sorted(set(keep))[k]``
    in the parent.  Off-diagonal Schur entries whose magnitude falls below
    ``TRACE_ZERO_TOL`` relative to the largest one are dropped as absent edges.
    The interior block is factored by sparse LU and ``L_ki L_ii^{-1} L_ik`` is
    formed ``TRACE_BLOCK`` columns at a time, so the Schur complement stays
    sparse and no dense matrix of the network's size is built.
    """
    keep, interior = _partition_indices(net, keep)
    labels = None if net.labels is None else tuple(net.labels[v] for v in keep)
    if interior.size == 0:
        return net
    L = _sparse_laplacian(net)
    L_k = L[keep]
    L_kk = L_k[:, keep]
    L_ki = L_k[:, interior]
    L_ik = L_ki.T  # CSC, so column blocks slice cheaply
    solve = _interior_solver(
        L[interior][:, interior], "interior block is singular; eliminated set disconnects"
    )
    blocks = []
    for start in range(0, keep.size, TRACE_BLOCK):
        rhs = L_ik[:, start:start + TRACE_BLOCK].toarray()
        blocks.append(scipy.sparse.csc_matrix(L_ki @ solve(rhs)))
    S = L_kk - scipy.sparse.hstack(blocks)
    S = scipy.sparse.triu(0.5 * (S + S.T), k=1).tocoo()
    cond = -S.data
    scale = float(np.max(np.abs(cond))) if cond.size else 0.0
    present = np.abs(cond) > TRACE_ZERO_TOL * scale
    if np.any(cond[present] < 0.0):
        raise NetworkError("Schur complement produced a significantly negative conductance")
    edges = zip(S.row[present], S.col[present], cond[present])
    return ResistanceNetwork.from_edges(keep.size, edges, labels)


def harmonic_extension(
    net: ResistanceNetwork,
    boundary: Sequence[int],
    values,
) -> np.ndarray:
    """Extend boundary data to the energy-minimising function on all vertices.

    ``values[k]`` is the prescribed value at vertex ``boundary[k]``.  The
    extension solves ``L_II u_I = -L_IB v`` on the complement.
    """
    boundary = np.asarray([int(v) for v in boundary], dtype=np.int64)
    if len(np.unique(boundary)) != len(boundary):
        raise NetworkError("boundary vertices repeat")
    values = np.asarray(values)
    if values.shape != boundary.shape:
        raise NetworkError("boundary values do not align with boundary vertices")
    keep, interior = _partition_indices(net, boundary)
    order = np.argsort(boundary)
    v_sorted = values[order]
    dtype = np.complex128 if np.iscomplexobj(values) else np.float64
    u = np.zeros(net.vertex_count, dtype=dtype)
    u[boundary] = values
    if interior.size == 0:
        return u
    L_i = _sparse_laplacian(net)[interior]
    solve = _interior_solver(
        L_i[:, interior], "interior block is singular; boundary set disconnects"
    )
    u[interior] = solve(-(L_i[:, keep] @ v_sorted))
    return u


def effective_resistance(net: ResistanceNetwork, x: int, y: int) -> float:
    """Two-point effective resistance, computed by tracing onto ``{x, y}``."""
    x, y = int(x), int(y)
    if x == y:
        raise NetworkError("effective resistance needs two distinct vertices")
    traced = trace_to(net, [x, y])
    if traced.edge_count != 1:
        raise NetworkError(f"vertices {x} and {y} are not resistively connected")
    return 1.0 / float(traced.conductances[0])


def resistance_matrix(net: ResistanceNetwork) -> np.ndarray:
    """All-pairs effective resistance matrix.

    Batched counterpart of :func:`effective_resistance`, computed from the
    Laplacian pseudoinverse via ``R_xy = L+_xx + L+_yy - 2 L+_xy``.
    """
    Lp = scipy.linalg.pinvh(laplacian(net))
    d = np.diag(Lp)
    R = d[:, None] + d[None, :] - 2.0 * Lp
    R = 0.5 * (R + R.T)
    np.fill_diagonal(R, 0.0)
    return np.maximum(R, 0.0)


@dataclass(frozen=True)
class ResistanceEstimateReport:
    """Outcome of auditing ``|f(x)-f(y)|^2 <= R(x,y) E(f)`` over vertex pairs."""

    max_ratio: float
    worst_pair: tuple[int, int]
    violations: int
    tol: float
    passed: bool


def check_resistance_estimate(
    net: ResistanceNetwork,
    f,
    pairs: Sequence[tuple[int, int]] | None = None,
    tol: float = 1e-9,
    resistances: np.ndarray | None = None,
) -> ResistanceEstimateReport:
    """Audit the pointwise resistance estimate for one function.

    The ratio ``|f(x)-f(y)|^2 / (R(x,y) E(f))`` never exceeds 1 in exact
    arithmetic (the effective resistance is the supremum of these ratios);
    the report counts pairs exceeding ``1 + tol``.  ``E(f) = 0`` yields
    ratio 0 by convention.
    """
    f = net._check_vertex_values(f)
    E = energy(net, f)
    R = resistance_matrix(net) if resistances is None else resistances
    if pairs is None:
        iu, ju = np.triu_indices(net.vertex_count, k=1)
    else:
        arr = np.asarray([(int(x), int(y)) for x, y in pairs], dtype=np.int64)
        iu, ju = arr[:, 0], arr[:, 1]
        if np.any(iu == ju):
            raise NetworkError("resistance estimate pairs must be distinct vertices")
    if iu.size == 0 or E <= 0.0:
        return ResistanceEstimateReport(0.0, (-1, -1), 0, tol, True)
    num = np.abs(f[iu] - f[ju]) ** 2
    ratios = num / (R[iu, ju] * E)
    worst = int(np.argmax(ratios))
    max_ratio = float(ratios[worst])
    violations = int(np.sum(ratios > 1.0 + tol))
    return ResistanceEstimateReport(
        max_ratio=max_ratio,
        worst_pair=(int(iu[worst]), int(ju[worst])),
        violations=violations,
        tol=tol,
        passed=violations == 0,
    )


@dataclass(frozen=True)
class CellPartition:
    """Partition of a network's edge set into named cells.

    ``cells`` maps a cell identifier to the tuple of edge indices it owns.
    Every edge must belong to exactly one cell.
    """

    cells: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    def validate(self, net: ResistanceNetwork) -> None:
        seen = np.zeros(net.edge_count, dtype=np.int64)
        for edge_ids in self.cells.values():
            for e in edge_ids:
                if not 0 <= e < net.edge_count:
                    raise NetworkError(f"cell partition references edge {e} out of range")
                seen[e] += 1
        if np.any(seen != 1):
            bad = int(np.nonzero(seen != 1)[0][0])
            raise NetworkError(f"edge {bad} covered {int(seen[bad])} times by the partition")


def energy_measure_on_cells(
    net: ResistanceNetwork,
    f,
    partition: CellPartition,
) -> dict[str, float]:
    """Distribute the energy of ``f`` over the cells of an edge partition.

    Returns the discrete energy measure ``cell -> sum of c_e |df_e|^2``; the
    values add up to ``E(f)``.  Off-diagonal measures for pairs ``(f, g)``
    are available by polarisation of this diagonal map.
    """
    f = net._check_vertex_values(f)
    partition.validate(net)
    df = f[net.heads] - f[net.tails]
    per_edge = net.conductances * (df.real**2 + df.imag**2)
    return {
        cell: float(np.sum(per_edge[list(edge_ids)])) if edge_ids else 0.0
        for cell, edge_ids in partition.cells.items()
    }


def conductance_deviation(a: ResistanceNetwork, b: ResistanceNetwork) -> float:
    """Largest relative conductance disagreement between two networks.

    Networks must share a vertex count; edges absent on one side count as
    conductance zero.  When both networks carry labels, edges are matched
    by their endpoint labels, so the vertex orders may differ; otherwise
    by vertex index.  Used to compare traced forms against reference forms.
    """
    if a.vertex_count != b.vertex_count:
        raise NetworkError("cannot compare networks of different sizes")
    by_label = a.labels is not None and b.labels is not None

    def conductances(net: ResistanceNetwork) -> dict:
        names = net.labels if by_label else range(net.vertex_count)
        return {
            tuple(sorted((names[int(i)], names[int(j)]))): float(c)
            for i, j, c in zip(net.tails, net.heads, net.conductances)
        }

    ca, cb = conductances(a), conductances(b)
    worst = 0.0
    for key in set(ca) | set(cb):
        va, vb = ca.get(key, 0.0), cb.get(key, 0.0)
        denom = max(abs(va), abs(vb))
        if denom > 0.0:
            worst = max(worst, abs(va - vb) / denom)
    return worst


def network_to_dict(net: ResistanceNetwork) -> dict:
    """Network as a JSON-ready dict: vertices, labels, ``[i, j, c]`` edges."""
    out: dict = {"vertices": net.vertex_count}
    if net.labels is not None:
        out["labels"] = list(net.labels)
    out["edges"] = [[int(i), int(j), float(c)]
                    for i, j, c in zip(net.tails, net.heads, net.conductances)]
    return out


def network_from_dict(data: Mapping) -> ResistanceNetwork:
    """Inverse of :func:`network_to_dict` with validation."""
    try:
        vertices = int(data["vertices"])
        edges = [(e[0], e[1], e[2]) for e in data["edges"]]
    except (KeyError, TypeError, IndexError) as exc:
        raise NetworkError(f"malformed network JSON: {exc}") from exc
    labels = data.get("labels")
    return ResistanceNetwork.from_edges(vertices, edges, labels)

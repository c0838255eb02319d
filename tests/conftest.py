"""Shared test helpers: deterministic random networks, dense oracles and bundled fixtures."""

from __future__ import annotations

import json
from importlib.resources import files

import numpy as np
import pytest
import scipy.linalg

from magres import MagneticModel, ResistanceNetwork, bundled_structure, laplacian
from magres.magnetic import _edge_coefficients
from magres.network import TRACE_ZERO_TOL


def random_connected_network(rng: np.random.Generator, n: int) -> ResistanceNetwork:
    """Random connected network: a random spanning tree plus extra edges."""
    edges = {}
    order = rng.permutation(n)
    for k in range(1, n):
        u = int(order[k])
        v = int(order[int(rng.integers(k))])
        edges[(min(u, v), max(u, v))] = float(rng.uniform(0.1, 10.0))
    extra = int(rng.integers(0, max(1, n)))
    for _ in range(extra):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        edges.setdefault((min(u, v), max(u, v)), float(rng.uniform(0.1, 10.0)))
    return ResistanceNetwork.from_edges(n, [(u, v, c) for (u, v), c in edges.items()])


def dense_trace(net: ResistanceNetwork, keep) -> ResistanceNetwork:
    """Schur-complement trace through a dense Cholesky factor: the oracle for ``trace_to``.

    Applies ``trace_to``'s rule for absent edges: off-diagonal entries below
    ``TRACE_ZERO_TOL`` relative to the largest one are dropped.
    """
    keep = np.asarray(sorted({int(v) for v in keep}), dtype=np.int64)
    interior = np.setdiff1d(np.arange(net.vertex_count), keep)
    labels = None if net.labels is None else tuple(net.labels[v] for v in keep)
    L = laplacian(net)
    L_ki = L[np.ix_(keep, interior)]
    factor = scipy.linalg.cho_factor(L[np.ix_(interior, interior)])
    S = L[np.ix_(keep, keep)] - L_ki @ scipy.linalg.cho_solve(factor, L_ki.T)
    S = 0.5 * (S + S.T)
    iu, ju = np.triu_indices(keep.size, k=1)
    cond = -S[iu, ju]
    scale = float(np.max(np.abs(cond))) if cond.size else 0.0
    present = np.abs(cond) > TRACE_ZERO_TOL * scale
    return ResistanceNetwork.from_edges(
        keep.size, zip(iu[present], ju[present], cond[present]), labels
    )


def dense_assembly(net: ResistanceNetwork, model: MagneticModel, kept=None) -> np.ndarray:
    """Magnetic energy matrix by a dense ``np.add.at`` scatter: the oracle for ``assemble``.

    ``kept``, when given, restricts rows and columns to those vertices, as a
    Dirichlet condition on the others does.
    """
    k_tail, k_head = _edge_coefficients(net, model)
    n = net.vertex_count
    c = net.conductances
    A = np.zeros((n, n), dtype=np.complex128)
    np.add.at(A, (net.tails, net.tails), c * (k_tail.real**2 + k_tail.imag**2))
    np.add.at(A, (net.heads, net.heads), c * (k_head.real**2 + k_head.imag**2))
    cross = c * np.conj(k_tail) * k_head
    np.add.at(A, (net.tails, net.heads), cross)
    np.add.at(A, (net.heads, net.tails), np.conj(cross))
    return A if kept is None else A[np.ix_(kept, kept)]


def structure_data(name: str) -> dict:
    """Parsed JSON of the bundled structure file ``magres.structures/<name>.json``."""
    text = files("magres.structures").joinpath(f"{name}.json").read_text(encoding="utf-8")
    return json.loads(text)


@pytest.fixture(scope="session")
def interval():
    return bundled_structure("interval")


@pytest.fixture(scope="session")
def circle():
    return bundled_structure("circle")


@pytest.fixture(scope="session")
def gasket():
    return bundled_structure("gasket")

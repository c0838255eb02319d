"""Sparse traces, assemblies and solves against the dense path they replaced."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import magres.network
from magres import (
    MagneticModel,
    NetworkError,
    ResistanceNetwork,
    assemble,
    bundled_structure,
    conductance_deviation,
    dirichlet_solve,
    divergence,
    embed_indices,
    harmonic_extension,
    hodge_decompose,
    laplacian,
    refine,
    trace_to,
    vertex_measure,
)
from conftest import dense_assembly, dense_trace, random_connected_network


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def dense_harmonic_extension(net: ResistanceNetwork, boundary, values) -> np.ndarray:
    interior = np.setdiff1d(np.arange(net.vertex_count), boundary)
    L = laplacian(net)
    u = np.zeros(net.vertex_count, dtype=np.asarray(values).dtype)
    u[boundary] = values
    rhs = -(L[np.ix_(interior, boundary)] @ np.asarray(values))
    u[interior] = scipy.linalg.solve(L[np.ix_(interior, interior)], rhs, assume_a="pos")
    return u


def dense_hodge_potential(net: ResistanceNetwork, w) -> np.ndarray:
    lam = np.zeros(net.vertex_count, dtype=np.asarray(w).dtype)
    lam[1:] = scipy.linalg.solve(laplacian(net)[1:, 1:], divergence(net, w)[1:], assume_a="pos")
    return lam


@pytest.mark.parametrize(
    "name, level",
    [(name, level) for name in ("interval", "circle", "gasket") for level in range(1, 6)]
    + [("gasket", 6)],
)
def test_trace_matches_dense_schur_complement(name, level):
    # onto the previous level against the dense oracle; onto the base
    # vertices against the base network itself, since the dense oracle's own
    # roundoff there (9.6e-13 at gasket L6) leaves the bound no headroom
    s = bundled_structure(name)
    fine, coarse, base = refine(s, level), refine(s, level - 1), refine(s, 0)
    keep = embed_indices(fine, coarse)
    assert conductance_deviation(trace_to(fine.net, keep), dense_trace(fine.net, keep)) <= 1e-12
    traced = trace_to(fine.net, embed_indices(fine, base))
    assert conductance_deviation(traced, base.net) <= 1e-12


def test_trace_matches_dense_on_random_networks():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        net = random_connected_network(rng, n)
        keep = rng.choice(n, size=int(rng.integers(2, n)), replace=False)
        assert conductance_deviation(trace_to(net, keep), dense_trace(net, keep)) <= 1e-12


@pytest.mark.parametrize("complex_data", [False, True])
def test_harmonic_extension_matches_dense_solve(complex_data):
    rng = np.random.default_rng(12)
    net = refine(bundled_structure("gasket"), 5).net
    boundary = rng.choice(net.vertex_count, size=7, replace=False)
    values = rng.standard_normal(7)
    if complex_data:
        values = values + 1j * rng.standard_normal(7)
    h = harmonic_extension(net, boundary, values)
    assert relative_error(h, dense_harmonic_extension(net, boundary, values)) <= 1e-10


@pytest.mark.parametrize("name", ["circle", "gasket"])
@pytest.mark.parametrize("complex_data", [False, True])
def test_hodge_potential_matches_dense_solve(name, complex_data):
    rng = np.random.default_rng(13)
    net = refine(bundled_structure(name), 5).net
    w = rng.standard_normal(net.edge_count)
    if complex_data:
        w = w + 1j * rng.standard_normal(net.edge_count)
    dec = hodge_decompose(net, w)
    assert relative_error(dec.potential, dense_hodge_potential(net, w)) <= 1e-10


def test_sparse_paths_never_build_the_dense_laplacian(monkeypatch):
    def refuse(net):
        raise AssertionError("dense Laplacian built")

    monkeypatch.setattr(magres.network, "laplacian", refuse)
    s = bundled_structure("gasket")
    fine, coarse = refine(s, 4), refine(s, 3)
    assert trace_to(fine.net, embed_indices(fine, coarse)).vertex_count == coarse.net.vertex_count
    h = harmonic_extension(fine.net, [0, 1, 2], [0.0, 1.0, 2.0j])
    assert np.all(np.isfinite(h))
    w = np.random.default_rng(14).standard_normal(fine.net.edge_count)
    assert np.all(np.isfinite(hodge_decompose(fine.net, w).coulomb))


@pytest.mark.parametrize("name", ["interval", "circle", "gasket"])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["linearized", "peierls"])
@pytest.mark.parametrize("dirichlet", [False, True])
def test_assembly_matches_dense_scatter(name, level, kind, dirichlet):
    # bitwise, so that every spectrum computed from the sparse assembly is too
    ref = refine(bundled_structure(name), level)
    net = ref.net
    model = MagneticModel(kind=kind, field=np.random.default_rng(level).standard_normal(net.edge_count))
    mu = vertex_measure(ref)
    kept = np.setdiff1d(np.arange(net.vertex_count), ref.boundary) if dirichlet else None
    asm = assemble(net, model, mu)
    if dirichlet:
        asm = asm.restrict(ref.boundary)
    assert scipy.sparse.issparse(asm.matrix)
    assert np.array_equal(asm.matrix.toarray(), dense_assembly(net, model, kept))


@pytest.mark.parametrize("name", ["interval", "circle", "gasket"])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["linearized", "peierls"])
def test_restrict_matches_dense_oracle(name, level, kind):
    # the Dirichlet block is a principal submatrix of the one Neumann assembly, bitwise
    ref = refine(bundled_structure(name), level)
    net = ref.net
    model = MagneticModel(kind=kind, field=np.random.default_rng(level).standard_normal(net.edge_count))
    mu = vertex_measure(ref).mass
    kept = np.setdiff1d(np.arange(net.vertex_count), ref.boundary)
    asm = assemble(net, model, mu).restrict(ref.boundary)
    assert scipy.sparse.issparse(asm.matrix)
    assert np.array_equal(asm.matrix.toarray(), dense_assembly(net, model, kept))
    assert np.array_equal(asm.mass, mu[kept])
    assert np.array_equal(asm.kept, kept)


@pytest.mark.parametrize("kind", ["linearized", "peierls"])
def test_dirichlet_solve_matches_dense_solve(kind):
    rng = np.random.default_rng(15)
    ref = refine(bundled_structure("gasket"), 5)
    net = ref.net
    model = MagneticModel(kind=kind, field=rng.standard_normal(net.edge_count))
    mu = vertex_measure(ref).mass
    rhs = rng.standard_normal(net.vertex_count) + 1j * rng.standard_normal(net.vertex_count)
    u = dirichlet_solve(assemble(net, model, mu), ref.boundary, rhs)
    free = np.setdiff1d(np.arange(net.vertex_count), ref.boundary)
    expected = np.zeros(net.vertex_count, dtype=np.complex128)
    expected[free] = scipy.linalg.solve(
        dense_assembly(net, model, free), (mu * rhs)[free], assume_a="pos"
    )
    assert relative_error(u, expected) <= 1e-12


def isolated_vertex_network() -> ResistanceNetwork:
    # built directly, so vertex 2 has no edge
    return ResistanceNetwork(3, np.array([0]), np.array([1]), np.array([1.0]))


def test_trace_singular_interior_raises():
    with pytest.raises(NetworkError, match="interior block is singular"):
        trace_to(isolated_vertex_network(), [0, 1])


def test_harmonic_extension_singular_interior_raises():
    with pytest.raises(NetworkError, match="interior block is singular"):
        harmonic_extension(isolated_vertex_network(), [0, 1], [0.0, 1.0])

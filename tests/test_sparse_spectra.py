"""The sparse shift-invert eigensolver against the dense path it stands in for."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.sparse

import magres.spectral
from magres import (
    MagneticAssembly,
    MagneticModel,
    SpectralError,
    assemble,
    bundled_structure,
    field_from_spec,
    flux_sweep,
    hermitian_eigs,
    refine,
    vertex_measure,
)
from magres.cli import EXIT_PASS, main
from magres.spectral import SPARSE_K_RATIO, SPARSE_MIN_DIM, _boundary_spectrum, _count_below, _lowest_eigs

#: Agreement demanded of the sparse path: the benchmark's relative tolerance.
RTOL = 1e-8

FIELDS = {"interval": ("zero", "random:5"), "circle": ("zero", "random:5", "cycle:0:1.3"),
          "gasket": ("zero", "random:5", "cycle:0:1.3")}


def boundary_assembly(name, level, field, boundary, kind="peierls"):
    ref = refine(bundled_structure(name), level)
    asm = assemble(ref.net, MagneticModel(kind, field_from_spec(ref.net, field)), vertex_measure(ref))
    return asm.restrict(ref.boundary) if boundary == "dirichlet" else asm


def assert_matches_dense(asm, k):
    dense = hermitian_eigs(asm.symmetrized, compute_vectors=False)[:k]
    sparse = _lowest_eigs(asm, k)
    assert sparse.shape == (k,)
    assert np.max(np.abs(sparse - dense)) <= RTOL * max(1.0, float(np.max(np.abs(dense))))


@pytest.mark.parametrize(
    "name, field", [(name, field) for name, fields in FIELDS.items() for field in fields]
)
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
def test_lowest_eigs_match_dense(name, field, level, boundary):
    # called directly, mostly below the size at which _boundary_spectrum goes sparse
    ref = refine(bundled_structure(name), level)
    n = ref.net.vertex_count - (len(ref.boundary) if boundary == "dirichlet" else 0)
    if n < 4:
        pytest.skip(f"{n} rows leave no admissible k")
    assert_matches_dense(boundary_assembly(name, level, field, boundary), min(8, n - 3))


@pytest.mark.parametrize("kind", ["linearized", "peierls"])
def test_lowest_eigs_match_dense_for_both_models(kind):
    assert_matches_dense(boundary_assembly("gasket", 5, "random:9", "neumann", kind), 6)


@pytest.mark.parametrize("k", [10, 12, 14, 20, 24])
def test_k_cutting_a_degenerate_cluster_matches_dense(k):
    # zero-field gasket L5: a sixfold eigenvalue at indices 9-14 and a
    # threefold one at 18-20; asked for exactly 20 pairs, ARPACK's default
    # Krylov space misses two copies of the sixfold one
    asm = boundary_assembly("gasket", 5, "zero", "neumann")
    dense = hermitian_eigs(asm.symmetrized, compute_vectors=False)
    assert np.ptp(dense[9:15]) <= 1e-9 * dense[9] and np.ptp(dense[18:21]) <= 1e-9 * dense[18]
    assert_matches_dense(asm, k)


def test_zero_mode_is_found_at_the_bottom():
    asm = boundary_assembly("gasket", 6, "zero", "neumann")
    w = _lowest_eigs(asm, 3)
    assert abs(w[0]) <= 1e-9 and w[1] > 1.0


def test_count_below_matches_dense():
    asm = boundary_assembly("gasket", 4, "random:3", "dirichlet")
    dense = hermitian_eigs(asm.symmetrized, compute_vectors=False)
    s = 1.0 / np.sqrt(asm.mass)
    H = scipy.sparse.diags(s) @ asm.matrix @ scipy.sparse.diags(s)
    for x in (dense[0] - 1.0, *(0.5 * (dense[1:] + dense[:-1]))[::17], dense[-1] + 1.0):
        assert _count_below(H.tocsr(), float(x)) == int(np.sum(dense < x))


def test_reruns_are_bitwise_equal():
    asm = boundary_assembly("circle", 10, "cycle:0:0.7", "neumann")
    assert _lowest_eigs(asm, 4).tobytes() == _lowest_eigs(asm, 4).tobytes()


def test_non_hermitian_csr_is_refused():
    A = scipy.sparse.csr_matrix(np.diag(np.arange(1.0, 11.0)) + np.diag(np.full(9, 0.5), 1))
    asm = MagneticAssembly(matrix=A, mass=np.ones(10), kept=np.arange(10))
    with pytest.raises(ValueError, match="not Hermitian"):
        _lowest_eigs(asm, 2)


@pytest.mark.parametrize("k", [0, 5, 7])
def test_inadmissible_k_is_refused(k):
    asm = MagneticAssembly(matrix=scipy.sparse.identity(7, format="csr"), mass=np.ones(7), kept=np.arange(7))
    with pytest.raises(ValueError, match="0 < k < n - 2"):
        _lowest_eigs(asm, k)


def test_residual_failure_raises_spectral_error(monkeypatch):
    # an exhausted residual budget must raise, not return unchecked values
    monkeypatch.setattr(magres.spectral, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SpectralError, match="residual"):
        _lowest_eigs(boundary_assembly("gasket", 4, "random:3", "neumann"), 4)


@pytest.mark.parametrize(
    "level, k, sparse",
    [(7, 2, False), (8, 8, True), (8, 9, False), (9, 16, True), (9, None, False)],
)
def test_solver_choice(monkeypatch, circle, level, k, sparse):
    # circle level n has 2^n vertices: the sparse path needs at least
    # SPARSE_MIN_DIM of them and SPARSE_K_RATIO * k at most their number
    assert (SPARSE_MIN_DIM, SPARSE_K_RATIO) == (256, 32)
    calls = []
    dense, lowest = magres.spectral.hermitian_eigs, magres.spectral._lowest_eigs

    def counted_dense(*args, **kwargs):
        calls.append("dense")
        return dense(*args, **kwargs)

    def counted_sparse(*args):
        calls.append("sparse")
        return lowest(*args)

    monkeypatch.setattr(magres.spectral, "hermitian_eigs", counted_dense)
    monkeypatch.setattr(magres.spectral, "_lowest_eigs", counted_sparse)
    ref = refine(circle, level)
    model = MagneticModel("peierls", field_from_spec(ref.net, "cycle:0:2.0"))
    w, _ = _boundary_spectrum(ref, model, vertex_measure(ref), "neumann", k)
    assert calls == ["sparse" if sparse else "dense"]
    assert w.size == (2**level if k is None else k)


@pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
def test_flux_sweep_rows_match_dense(gasket, boundary):
    fluxes = np.linspace(0.0, 2.0 * np.pi, 5)
    sparse = flux_sweep(gasket, 5, 3, fluxes, boundary=boundary, k=4)
    full = flux_sweep(gasket, 5, 3, fluxes, boundary=boundary)
    assert sparse.metadata == {**full.metadata, "k": 4}
    assert np.max(np.abs(sparse.table - full.table[:, :4])) <= RTOL * max(1.0, float(np.max(full.table[:, :4])))


@pytest.mark.parametrize("phi", [0.0, 1.0, np.pi])
def test_flux_sweep_beyond_the_dense_limit_matches_the_closed_form(circle, phi):
    # circle L13 has N = 8192 vertices, twice the dense limit; its spectrum
    # is 4 N^2 sin^2((2 pi j + phi) / 2N), and at phi = 0 the sixth value
    # has a twin just outside the request
    N = 2**13
    expected = np.sort(4.0 * N * N * np.sin((2.0 * np.pi * np.arange(N) + phi) / (2 * N)) ** 2)[:6]
    rep = flux_sweep(circle, 13, 0, [phi], k=6)
    assert np.max(np.abs(rep.table[0] - expected)) <= RTOL * max(1.0, expected[-1])


def test_flux_sweep_refuses_nonpositive_k(gasket):
    with pytest.raises(ValueError, match="k must be positive"):
        flux_sweep(gasket, 1, 0, [0.0], k=0)


def test_flux_sweep_k_runs_beyond_the_dense_limit(monkeypatch, capsys):
    def no_dense(*args, **kwargs):
        raise AssertionError("dense eigensolve beyond the dense limit")

    monkeypatch.setattr(magres.spectral, "hermitian_eigs", no_dense)
    argv = ["flux-sweep", "--structure", "gasket", "--level", "8", "--model", "peierls",
            f"--grid=0:{2.0 * np.pi!r}:3", "--k", "2"]
    assert main(argv) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["metadata"]["k"] == 2
    rows = np.asarray(doc["report"]["eigenvalues"])
    assert rows.shape == (3, 2)
    assert abs(rows[0, 0]) <= 1e-9 and abs(rows[2, 0]) <= 1e-9  # flux 0 and 2 pi: zero modes
    assert doc["report"]["checks"]["max_pair_deviation"] <= 1e-8

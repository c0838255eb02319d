"""Spectra: checked eigensolver, pipeline, flux sweeps, convergence."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from magres import (
    MagneticModel,
    SpectralError,
    SpectrumReport,
    assemble,
    bundled_structure,
    compare_spectra,
    convergence_table,
    field_from_spec,
    flux_sweep,
    hermitian_eigs,
    refine,
    renormalization_base,
    spectrum,
    vertex_measure,
    zero_mode_test,
)
import magres.spectral
from magres.cli import main
from magres.spectral import DENSE_BLOCK, MAX_DENSE_DIM


def circulant_circle_eigenvalues(n_level: int, total_flux: float) -> np.ndarray:
    """Closed-form spectrum of the uniform magnetic ring, sorted ascending.

    The level-``n`` loop has ``N = 2**n`` sites, edge conductance ``N`` and
    site mass ``1/N``; a total flux ``phi`` spread evenly contributes phase
    ``phi / N`` per edge.  Diagonalising the resulting circulant gives
    ``2 N^2 (1 - cos((2 pi k + phi) / N))`` for ``k = 0 .. N-1``.
    """
    N = 2**n_level
    k = np.arange(N)
    return np.sort(2.0 * N * N * (1.0 - np.cos((2.0 * np.pi * k + total_flux) / N)))


# ---------------------------------------------------------------------------
# checked eigensolver


def test_eigs_identity():
    w, V = hermitian_eigs(np.eye(3))
    assert np.allclose(w, 1.0)
    assert np.allclose(V @ V.conj().T, np.eye(3))


def test_eigs_pauli_y():
    H = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    w, V = hermitian_eigs(H)
    assert np.allclose(w, [-1.0, 1.0])
    assert np.max(np.abs(H @ V - V * w[None, :])) < 1e-12


def test_eigs_diagonal_sorted():
    w = hermitian_eigs(np.diag([3.0, 1.0, 2.0]), compute_vectors=False)
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_eigs_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("compute_vectors", [False, True])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_eigs_rejects_nan_input(compute_vectors, entry):
    # a NaN defect fails the Hermiticity test instead of reaching LAPACK unchecked
    H = np.eye(3)
    H[entry] = H[entry[::-1]] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigs(H, compute_vectors=compute_vectors)


def test_eigs_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_eigs(np.zeros((2, 3)))


def test_eigs_dimension_guard():
    n = MAX_DENSE_DIM + 1
    big = np.broadcast_to(0.0, (n, n))  # no allocation; rejected before use
    with pytest.raises(SpectralError):
        hermitian_eigs(big)


def symmetrized_eigh(H, compute_vectors=True):
    """The eigensolver's former formula, kept as its bitwise oracle."""
    return scipy.linalg.eigh(0.5 * (H + H.conj().T), eigvals_only=not compute_vectors, check_finite=False)


def hermitian_input(n: int, complex_entries: bool, defect: float) -> np.ndarray:
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, n))
    if complex_entries:
        X = X + 1j * rng.standard_normal((n, n))
    return X + X.conj().T + defect * rng.standard_normal((n, n))


@pytest.mark.parametrize("n", [1, 2, DENSE_BLOCK - 1, DENSE_BLOCK, DENSE_BLOCK + 1, 600])
@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("defect", [0.0, 1e-12], ids=["exact", "defect"])
def test_eigs_bitwise_equal_to_symmetrized_oracle(n, complex_entries, defect):
    H = hermitian_input(n, complex_entries, defect)
    before = H.copy()
    w, V = hermitian_eigs(H)
    w_ref, V_ref = symmetrized_eigh(H)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(V, V_ref)
    assert np.array_equal(hermitian_eigs(H, compute_vectors=False), symmetrized_eigh(H, False))
    assert np.array_equal(H, before)
    Hf = np.asfortranarray(H)
    assert np.array_equal(hermitian_eigs(Hf, compute_vectors=False, overwrite_h=True), symmetrized_eigh(H, False))
    if n > 2:
        assert not np.array_equal(Hf, H)  # the input itself was symmetrised and factored


def read_only(H):
    H = H.copy()
    H.flags.writeable = False
    return H


@pytest.mark.parametrize("make", [np.asfortranarray, read_only], ids=["fortran", "read-only"])
def test_eigs_accepts_fortran_and_read_only_inputs(make):
    H = hermitian_input(DENSE_BLOCK + 3, True, 0.0)
    w, V = hermitian_eigs(make(H))
    w_ref, V_ref = symmetrized_eigh(H)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(V, V_ref)


def test_eigs_accepts_broadcast_input():
    n = DENSE_BLOCK + 3
    H = np.broadcast_to(2.0, (n, n))  # read-only, zero strides
    w, V = hermitian_eigs(H)
    w_ref, V_ref = symmetrized_eigh(np.array(H))
    assert np.array_equal(w, w_ref)
    assert np.array_equal(V, V_ref)
    assert w[-1] == pytest.approx(2.0 * n)


def test_eigs_in_place_rejects_the_same_defect():
    H = hermitian_input(DENSE_BLOCK + 1, True, 1e-6)
    messages = []
    for overwrite_h in (False, True):
        with pytest.raises(ValueError, match="not Hermitian") as excinfo:
            hermitian_eigs(np.asfortranarray(H), compute_vectors=False, overwrite_h=overwrite_h)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


def read_only_fortran(H):
    H = np.array(H, order="F")
    H.flags.writeable = False
    return H


@pytest.mark.parametrize(
    "make",
    [np.ascontiguousarray, read_only, read_only_fortran, lambda H: np.broadcast_to(2.0, H.shape)],
    ids=["c-order", "read-only", "read-only-fortran", "broadcast"],
)
def test_eigs_overwrite_leaves_other_inputs_unmodified(make):
    H = make(hermitian_input(DENSE_BLOCK + 3, True, 1e-12))
    before = np.array(H)
    w = hermitian_eigs(H, compute_vectors=False, overwrite_h=True)
    assert np.array_equal(w, symmetrized_eigh(before, False))
    assert np.array_equal(H, before)


def test_eigs_overwrite_refuses_vectors():
    # the residual check reads H after the factorisation, so H must survive it
    H = np.asfortranarray(hermitian_input(4, True, 0.0))
    before = H.copy(order="F")
    with pytest.raises(ValueError, match="overwrite_h"):
        hermitian_eigs(H, compute_vectors=True, overwrite_h=True)
    assert np.array_equal(H, before)


def dense_copies_at_peak(H, compute_vectors):
    """tracemalloc peak of one ``hermitian_eigs`` call, in copies of ``H``."""
    tracemalloc.start()
    try:
        hermitian_eigs(H, compute_vectors=compute_vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / H.nbytes


@pytest.mark.parametrize("compute_vectors, copies", [(False, 1.5), (True, 2.5)], ids=["values", "vectors"])
def test_eigs_holds_one_working_copy(monkeypatch, compute_vectors, copies):
    # numpy reports its buffers to tracemalloc, including any copy made on the
    # way into LAPACK; the working copy, plus the eigenvectors when asked for,
    # is all that may scale with n^2 once the blocks are small
    monkeypatch.setattr(magres.spectral, "DENSE_BLOCK", 32)
    H = hermitian_input(512, True, 0.0)
    assert dense_copies_at_peak(H, compute_vectors) < copies


@pytest.mark.parametrize("name, level", [("gasket", 5), ("circle", 9)])
def test_boundary_spectrum_holds_one_dense_buffer(monkeypatch, name, level):
    # an eigenvalue-only solve densifies the scaled operator once and hands that
    # buffer to LAPACK: with small blocks nothing else scales with n^2
    monkeypatch.setattr(magres.spectral, "DENSE_BLOCK", 32)
    ref = refine(bundled_structure(name), level)
    mu = vertex_measure(ref)
    model = MagneticModel(kind="peierls", field=field_from_spec(ref.net, "random:3"))
    n = ref.net.vertex_count
    tracemalloc.start()
    try:
        w = magres.spectral._boundary_spectrum(ref, model, mu, "neumann")[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.size == n
    assert peak / (16 * n * n) < 1.5


def gasket_zero_mode_test(level):
    ref = refine(bundled_structure("gasket"), level)
    model = MagneticModel(kind="peierls", field=np.zeros(ref.net.edge_count))
    return zero_mode_test(ref.net, model, vertex_measure(ref))


@pytest.mark.parametrize(
    "call",
    [
        lambda: spectrum(bundled_structure("gasket"), 2, field="random:1"),
        lambda: flux_sweep(bundled_structure("gasket"), 2, 0, [0.0, 1.0]),
        lambda: convergence_table(bundled_structure("gasket"), [1, 2], k=3),
        lambda: gasket_zero_mode_test(2),
        lambda: main(["gauge-check", "--structure", "gasket", "--level", "2", "--model", "peierls",
                      "--count", "1"]),
    ],
    ids=["spectrum", "flux_sweep", "convergence_table", "zero_mode_test", "gauge-check"],
)
def test_dense_solves_pass_hermitian_eigs_a_dense_array(monkeypatch, capsys, call):
    # perfbench's tracer sizes each dense solve by len(H) (its SHAPES table), which raises
    # TypeError on a scipy sparse matrix; so every dense solve hands over a 2-d ndarray
    real, seen = magres.spectral.hermitian_eigs, []

    def spy(H, *args, **kwargs):
        seen.append((type(H), np.ndim(H)))
        return real(H, *args, **kwargs)

    monkeypatch.setattr(magres.spectral, "hermitian_eigs", spy)
    call()
    assert seen and set(seen) == {(np.ndarray, 2)}


def test_spectrum_report_invariants():
    with pytest.raises(SpectralError):
        SpectrumReport(np.array([]))
    with pytest.raises(SpectralError):
        SpectrumReport(np.array([2.0, 1.0]))
    with pytest.raises(SpectralError):
        SpectrumReport(np.array([-1.0, 1.0]))
    rep = SpectrumReport(np.array([-1e-12, 1.0]))  # roundoff-level dip is fine
    assert rep.eigenvalues.shape == (2,)


# ---------------------------------------------------------------------------
# spectrum pipeline


def spectrum_with_vectors(s, level, field):
    """Neumann peierls eigenpairs ``A v = w M v`` of ``spectrum``'s assembly, with ``v = V / sqrt(mass)``."""
    ref = refine(s, level)
    model = MagneticModel(kind="peierls", field=field_from_spec(ref.net, field))
    asm = assemble(ref.net, model, vertex_measure(ref))
    w, V = hermitian_eigs(asm.symmetrized)
    return w, V / np.sqrt(asm.mass)[:, None]


def test_interval_zero_field_has_single_zero_mode(interval):
    w, vectors = spectrum_with_vectors(interval, 3, "zero")
    assert np.allclose(w, spectrum(interval, 3, field="zero").eigenvalues, rtol=0.0, atol=1e-12 * w[-1])
    assert w.size == 9
    assert abs(w[0]) < 1e-9
    assert w[1] > 1.0  # spectral gap
    v0 = vectors[:, 0]
    assert np.max(np.abs(v0 - np.mean(v0))) < 1e-9 * np.max(np.abs(v0))


def test_interval_low_spectrum_near_continuum(interval):
    # level-5 chain: k-th eigenvalue approaches (pi k)^2
    rep = spectrum(interval, 5, field="zero")
    for k in (1, 2, 3):
        target = (np.pi * k) ** 2
        assert rep.eigenvalues[k] == pytest.approx(target, rel=1e-2)


def test_dirichlet_spectrum_is_positive_and_interlaced(interval):
    neu = spectrum(interval, 3, field="zero", boundary="neumann")
    diri = spectrum(interval, 3, field="zero", boundary="dirichlet")
    assert diri.eigenvalues.size == neu.eigenvalues.size - 2
    assert diri.eigenvalues[0] > 1.0
    assert diri.metadata["kept"] == 7
    # Dirichlet pinning can only raise the bottom of the spectrum
    assert diri.eigenvalues[0] >= neu.eigenvalues[0] - 1e-12


@pytest.mark.parametrize("boundary", ["robin", ("dirichlet", (0, 1))], ids=["robin", "pinned-pair"])
def test_unknown_boundary_is_refused(gasket, boundary):
    # only the two names are accepted; the old ("dirichlet", vertices) pair is not
    with pytest.raises(ValueError, match="unknown boundary condition"):
        spectrum(gasket, 1, boundary=boundary)
    with pytest.raises(ValueError, match="unknown boundary condition"):
        flux_sweep(gasket, 1, 0, [0.0], boundary=boundary)


def test_spectrum_metadata(gasket):
    rep = spectrum(gasket, 2, model="peierls", field="zero")
    md = rep.metadata
    assert md["structure"] == "gasket"
    assert md["level"] == 2
    assert md["model"] == "peierls"
    assert md["vertices"] == 15
    assert md["kept"] == 15
    assert md["boundary"] == "neumann"


def test_spectrum_eigenvectors_diagonalise_quotient(gasket):
    # columns solve the generalised problem A v = w M v after the mass unmap
    ref = refine(gasket, 1)
    eigenvalues, vectors = spectrum_with_vectors(gasket, 1, "constant:0.3")
    mu = vertex_measure(ref)
    model = MagneticModel(kind="peierls", field=field_from_spec(ref.net, "constant:0.3"))
    asm = assemble(ref.net, model, mu)
    for j in (0, 2, 5):
        v = vectors[:, j]
        w = eigenvalues[j]
        res = asm.matrix @ v - w * (asm.mass * v)
        assert np.max(np.abs(res)) < 1e-9 * max(1.0, abs(w))


def test_spectrum_renormalization_scales_eigenvalues(gasket):
    raw = spectrum(gasket, 2, field="zero")
    scaled = spectrum(gasket, 2, field="zero", renormalize=True)
    factor = renormalization_base(gasket) ** 2
    assert np.array_equal(scaled.eigenvalues, raw.eigenvalues * factor)
    assert (raw.metadata["renormalization"], scaled.metadata["renormalization"]) == (1.0, factor)


def test_spectrum_rejects_negative_level(gasket):
    with pytest.raises(ValueError):
        spectrum(gasket, -1)


# ---------------------------------------------------------------------------
# circulant ring oracle (independent closed form)


@pytest.mark.parametrize("level", [4, 5, 6])
@pytest.mark.parametrize("phi", [0.0, 1.0, np.pi])
def test_circle_matches_circulant_closed_form(circle, level, phi):
    rep = spectrum(circle, level, model="peierls", field=f"cycle:0:{phi}")
    expected = circulant_circle_eigenvalues(level, phi)
    assert rep.eigenvalues.size == expected.size
    scale = max(1.0, expected[-1])
    assert np.max(np.abs(rep.eigenvalues - expected)) < 1e-9 * scale


def test_circle_low_eigenvalue_quartic_error(circle):
    # continuum ring eigenvalue at flux phi is phi^2; the discrete error
    # shrinks like 1/N^2, i.e. four-fold per refinement
    phi = 1.0
    errs = []
    for level in (4, 5, 6):
        rep = spectrum(circle, level, model="peierls", field=f"cycle:0:{phi}")
        errs.append(abs(rep.eigenvalues[0] - phi * phi))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_circle_lowest_eigenvalue_increases_with_flux(circle):
    fluxes = np.linspace(0.0, np.pi, 7)
    rep = flux_sweep(circle, 3, 0, fluxes, k=1)
    lows = rep.table[:, 0]
    assert np.all(np.diff(lows) > 0.0)
    assert lows[0] < 1e-9


# ---------------------------------------------------------------------------
# flux sweeps


def test_flux_sweep_rows_match_single_spectra(gasket):
    fluxes = np.array([0.0, 0.7, np.pi])
    rep = flux_sweep(gasket, 1, 0, fluxes, k=4)
    assert rep.table.shape == (3, 4)
    zero_row = spectrum(gasket, 1, field="zero").eigenvalues[:4]
    assert np.max(np.abs(rep.table[0] - zero_row)) < 1e-10
    single = spectrum(gasket, 1, field="cycle:0:0.7").eigenvalues[:4]
    assert np.max(np.abs(rep.table[1] - single)) < 1e-10


def test_flux_sweep_periodic_and_symmetric(circle):
    fluxes = np.array([0.0, 0.5, np.pi, 2.0 * np.pi - 0.5, 2.0 * np.pi])
    rep = flux_sweep(circle, 4, 0, fluxes)
    assert np.max(np.abs(rep.table[4] - rep.table[0])) < 1e-8
    assert np.max(np.abs(rep.table[3] - rep.table[1])) < 1e-8


def test_flux_sweep_rejects_bad_grid(gasket):
    with pytest.raises(ValueError):
        flux_sweep(gasket, 1, 0, [])
    with pytest.raises(ValueError, match="out of range"):
        flux_sweep(gasket, 1, 99, [0.0])


def test_flux_sweep_metadata(gasket):
    rep = flux_sweep(gasket, 2, 1, [0.0, 1.0], k=3)
    md = rep.metadata
    assert md["cycle"] == 1
    assert md["cycles_available"] == 13  # 27 edges - 15 vertices + 1
    assert md["k"] == 3


# ---------------------------------------------------------------------------
# convergence across levels


def test_gasket_low_spectrum_converges(gasket):
    rep = convergence_table(gasket, [1, 2, 3, 4], k=4)
    assert rep.table.shape == (4, 4)
    # ignore the zero mode in column 0: its relative change is pure noise
    steps = rep.diffs[:, 1:].max(axis=1)
    assert np.all(np.diff(steps) < 0.0)
    assert steps[-1] < 0.05


def test_interval_spectrum_converges_to_continuum(interval):
    rep = convergence_table(interval, [3, 4, 5], k=3)
    assert rep.table[-1][1] == pytest.approx(np.pi**2, rel=1e-2)
    assert rep.diffs[:, 1:].max() < 0.05


def test_convergence_renormalize_scales_rows(gasket):
    raw = convergence_table(gasket, [1, 2], k=3)
    ren = convergence_table(gasket, [1, 2], k=3, renormalize=True)
    g = ren.metadata["renormalization_base"]
    assert g == pytest.approx(0.6, rel=1e-12)
    assert np.allclose(ren.table[0], raw.table[0] * g)
    assert np.allclose(ren.table[1], raw.table[1] * g * g)


def test_convergence_validates_levels(gasket):
    with pytest.raises(ValueError):
        convergence_table(gasket, [])
    with pytest.raises(ValueError):
        convergence_table(gasket, [2, 1])
    with pytest.raises(ValueError):
        convergence_table(gasket, [0], k=50)  # only 3 eigenvalues at level 0


# ---------------------------------------------------------------------------
# spectrum comparison


def test_compare_spectra_basics():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([0.0, 1.5, 2.0])
    assert compare_spectra(a, b) == pytest.approx(0.5)
    assert compare_spectra(a, a) == 0.0
    assert compare_spectra([], []) == 0.0
    with pytest.raises(ValueError):
        compare_spectra([0.0, 1.0], [0.0, 1.0, 9.0])

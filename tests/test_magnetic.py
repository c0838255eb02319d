"""Magnetic models: energies, assemblies, gauge covariance, zero modes."""

from __future__ import annotations

import numpy as np
import pytest

import magres.magnetic
from magres import (
    MagneticModel,
    NetworkError,
    ResistanceNetwork,
    assemble,
    b_form_terms,
    bundled_structure,
    derivation,
    dirichlet_solve,
    energy,
    field_from_spec,
    gauge_transform,
    harmonic_extension,
    inner,
    laplacian,
    locality_check,
    magnetic_energy,
    module_action,
    refine,
    vertex_measure,
    zero_mode_test,
)
from magres.magnetic import DENSE_BLOCK
from conftest import random_connected_network


def three_cycle() -> ResistanceNetwork:
    return ResistanceNetwork.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def unit_edge() -> ResistanceNetwork:
    return ResistanceNetwork.from_edges(2, [(0, 1, 1.0)])


# ---------------------------------------------------------------------------
# model construction


def test_model_requires_real_field():
    with pytest.raises(ValueError):
        MagneticModel(kind="peierls", field=np.array([1.0 + 1.0j]))
    with pytest.raises(ValueError):
        MagneticModel(kind="unknown", field=np.array([0.0]))


# ---------------------------------------------------------------------------
# magnetic energy oracles


@pytest.mark.parametrize("kind", ["linearized", "peierls"])
def test_zero_field_reduces_to_plain_energy(kind):
    rng = np.random.default_rng(0)
    net = random_connected_network(rng, 9)
    model = MagneticModel(kind=kind, field=np.zeros(net.edge_count))
    for _ in range(5):
        f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        g = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert magnetic_energy(net, model, f) == pytest.approx(energy(net, f), rel=1e-12)
        assert magnetic_energy(net, model, f, g) == pytest.approx(
            energy(net, f, g), rel=1e-12
        )


def test_peierls_pi_phase_on_constants():
    net = unit_edge()
    model = MagneticModel(kind="peierls", field=np.array([np.pi]))
    assert magnetic_energy(net, model, np.ones(2)) == pytest.approx(4.0, rel=1e-12)


def test_linearized_constant_function_single_edge():
    net = unit_edge()
    t = 0.37
    model = MagneticModel(kind="linearized", field=np.array([t]))
    assert magnetic_energy(net, model, np.ones(2)) == pytest.approx(t * t, rel=1e-12)


def test_magnetic_energy_real_nonnegative():
    rng = np.random.default_rng(1)
    net = random_connected_network(rng, 8)
    for kind in ("linearized", "peierls"):
        model = MagneticModel(kind=kind, field=rng.standard_normal(net.edge_count))
        for _ in range(5):
            f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            e = magnetic_energy(net, model, f)
            assert isinstance(e, float)
            assert e >= -1e-12


def test_b_form_terms_sum_to_energy_difference():
    rng = np.random.default_rng(2)
    net = random_connected_network(rng, 10)
    a = rng.standard_normal(net.edge_count)
    model = MagneticModel(kind="linearized", field=a)
    for _ in range(10):
        f = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        g = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        t1, t2, t3 = b_form_terms(net, a, f, g)
        direct = magnetic_energy(net, model, f, g) - energy(net, f, g)
        assert t1 + t2 + t3 == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_b_form_real_arguments_reduce_to_fa_norm():
    # with real f and a the cross terms are purely imaginary and cancel
    rng = np.random.default_rng(3)
    net = random_connected_network(rng, 8)
    a = rng.standard_normal(net.edge_count)
    model = MagneticModel(kind="linearized", field=a)
    for _ in range(5):
        f = rng.standard_normal(8)
        b_value = magnetic_energy(net, model, f) - energy(net, f)
        fa = module_action(net, f, a)
        assert b_value == pytest.approx(inner(net, fa), rel=1e-10, abs=1e-12)
        assert b_value >= -1e-12


# ---------------------------------------------------------------------------
# assembly


def test_assembly_zero_field_is_laplacian():
    rng = np.random.default_rng(4)
    net = random_connected_network(rng, 9)
    model = MagneticModel(kind="peierls", field=np.zeros(net.edge_count))
    asm = assemble(net, model, np.ones(9))
    assert np.max(np.abs(asm.matrix - laplacian(net))) == 0.0


def test_assembly_exactly_hermitian():
    rng = np.random.default_rng(5)
    net = random_connected_network(rng, 12)
    for kind in ("linearized", "peierls"):
        model = MagneticModel(kind=kind, field=rng.standard_normal(net.edge_count))
        asm = assemble(net, model, np.ones(12))
        dense = asm.matrix.toarray()
        assert np.array_equal(dense, dense.conj().T)
        assert np.array_equal(asm.symmetrized, asm.symmetrized.conj().T)


@pytest.mark.parametrize("name", ["interval", "circle", "gasket"])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("block", [7, DENSE_BLOCK])
def test_symmetrized_bitwise_equal_to_outer_product_scaling(monkeypatch, name, level, block):
    # the blockwise in-place scaling keeps the product a_ij * (s_i s_j) of the full outer product
    monkeypatch.setattr(magres.magnetic, "DENSE_BLOCK", block)
    ref = refine(bundled_structure(name), level)
    mu = vertex_measure(ref)
    field = field_from_spec(ref.net, "random:7")
    for kind in ("linearized", "peierls"):
        neumann = assemble(ref.net, MagneticModel(kind=kind, field=field), mu)
        for asm in (neumann, neumann.restrict(ref.boundary)):
            s = 1.0 / np.sqrt(asm.mass)
            assert np.array_equal(asm.symmetrized, asm.matrix.toarray() * np.outer(s, s))


def test_assembly_matches_energy_on_indicators():
    net = three_cycle()
    theta = 0.7
    model = MagneticModel(kind="peierls", field=np.full(3, theta))
    asm = assemble(net, model, np.ones(3))
    n = 3
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n, dtype=complex)
            ej = np.zeros(n, dtype=complex)
            ei[i] = 1.0
            ej[j] = 1.0
            # g^H A f with f = e_i, g = e_j equals E^a(e_i, e_j)
            assert asm.matrix[j, i] == pytest.approx(
                magnetic_energy(net, model, ei, ej), rel=1e-12, abs=1e-14
            )


def test_three_cycle_circulant_structure():
    theta = 1.1
    net = three_cycle()
    model = MagneticModel(kind="peierls", field=np.full(3, theta))
    asm = assemble(net, model, np.ones(3))
    assert asm.matrix[0, 0] == pytest.approx(2.0)
    assert asm.matrix[0, 1] == pytest.approx(-np.exp(1j * theta))
    assert asm.matrix[1, 0] == pytest.approx(-np.exp(-1j * theta))


def test_assembly_psd():
    rng = np.random.default_rng(6)
    net = random_connected_network(rng, 10)
    model = MagneticModel(kind="peierls", field=rng.standard_normal(net.edge_count))
    asm = assemble(net, model, np.full(10, 0.3))
    eigs = np.linalg.eigvalsh(asm.symmetrized)
    assert eigs[0] > -1e-10 * max(1.0, eigs[-1])


def test_dirichlet_assembly_removes_rows():
    net = ResistanceNetwork.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    model = MagneticModel(kind="peierls", field=np.zeros(2))
    asm = assemble(net, model, np.ones(3)).restrict([0, 2])
    assert asm.matrix.shape == (1, 1)
    assert asm.matrix[0, 0] == pytest.approx(2.0)
    assert list(asm.kept) == [1]


@pytest.mark.parametrize(
    "pinned, message",
    [([], "is empty"), ([3], "out of range"), ([-1], "out of range"), ([0, 1, 2], "leaves no free vertex")],
)
def test_restrict_rejects_bad_pinned_sets(pinned, message):
    net = ResistanceNetwork.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    asm = assemble(net, MagneticModel(kind="peierls", field=np.zeros(2)), np.ones(3))
    with pytest.raises(ValueError, match=f"dirichlet boundary set {message}"):
        asm.restrict(pinned)


def test_restrict_maps_kept_back_to_network_vertices():
    rng = np.random.default_rng(16)
    net = random_connected_network(rng, 8)
    model = MagneticModel(kind="peierls", field=rng.standard_normal(net.edge_count))
    asm = assemble(net, model, np.ones(8))
    inner_block = asm.restrict([0, 5]).restrict([1])  # row 1 of the first restriction is vertex 2
    assert list(inner_block.kept) == [1, 3, 4, 6, 7]
    assert np.array_equal(inner_block.matrix.toarray(), asm.restrict([0, 2, 5]).matrix.toarray())


@pytest.mark.parametrize("kind", ["linearized", "peierls"])
def test_assembly_refuses_overflowing_field(kind):
    net = three_cycle()
    model = MagneticModel(kind=kind, field=np.full(3, 1e200))
    if kind == "linearized":
        with pytest.raises(ValueError, match="overflows"):
            assemble(net, model, np.ones(3))
    else:  # peierls phases stay on the unit circle
        assert np.all(np.isfinite(assemble(net, model, np.ones(3)).matrix.data))


def test_assembly_rejects_nonpositive_mass():
    net = unit_edge()
    model = MagneticModel(kind="peierls", field=np.zeros(1))
    with pytest.raises(ValueError):
        assemble(net, model, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# gauge transformations


def test_gauge_constant_potential_is_identity():
    net = three_cycle()
    model = MagneticModel(kind="peierls", field=np.array([0.1, 0.2, 0.3]))
    gauged = gauge_transform(net, model, np.full(3, 7.0))
    assert np.array_equal(gauged.field, model.field)


def test_peierls_gauge_is_exact_unitary_conjugation():
    rng = np.random.default_rng(7)
    net = random_connected_network(rng, 10)
    mu = np.full(10, 0.2)
    model = MagneticModel(kind="peierls", field=rng.standard_normal(net.edge_count))
    asm = assemble(net, model, mu)
    for _ in range(5):
        lam = rng.standard_normal(10)
        gauged = assemble(net, gauge_transform(net, model, lam), mu)
        U = np.diag(np.exp(1j * lam))
        conjugated = U.conj().T @ asm.matrix @ U
        scale = np.max(np.abs(asm.matrix))
        assert np.max(np.abs(gauged.matrix - conjugated)) < 1e-13 * scale


def test_exact_peierls_field_gauges_away():
    rng = np.random.default_rng(8)
    net = random_connected_network(rng, 9)
    mu = np.ones(9)
    lam = rng.standard_normal(9)
    model = MagneticModel(kind="peierls", field=derivation(net, lam))
    gauged = gauge_transform(net, model, -lam)
    assert np.max(np.abs(gauged.field)) < 1e-12


# ---------------------------------------------------------------------------
# zero modes and flux quantization


def test_zero_field_has_constant_zero_mode():
    net = three_cycle()
    model = MagneticModel(kind="peierls", field=np.zeros(3))
    rep = zero_mode_test(net, model, np.ones(3))
    assert rep.zero_mode
    assert rep.ground_energy < 1e-12
    assert rep.modulus_spread < 1e-10
    assert rep.fluxes_integral
    assert rep.consistent


def test_three_cycle_full_flux_quantum_keeps_zero_mode():
    # uniform phase 2*pi/3 around the triangle: flux 2*pi, still a zero mode
    net = three_cycle()
    theta = 2.0 * np.pi / 3.0
    # orient the uniform loop field along the directed cycle 0 -> 1 -> 2 -> 0:
    # edges (0,1) and (1,2) run along it, (0,2) against it
    field = np.array([theta, -theta, theta])
    model = MagneticModel(kind="peierls", field=field)
    rep = zero_mode_test(net, model, np.ones(3))
    assert abs(rep.fluxes[0]) == pytest.approx(2.0 * np.pi, rel=1e-12)
    assert rep.zero_mode
    assert rep.ground_energy == pytest.approx(0.0, abs=1e-12)
    assert rep.modulus_spread < 1e-10
    assert rep.consistent


def test_three_cycle_half_flux_kills_zero_mode():
    # total flux pi: ground energy 2 - 2 cos(pi/3) = 1 with unit masses
    net = three_cycle()
    theta = np.pi / 3.0
    field = np.array([theta, -theta, theta])
    model = MagneticModel(kind="peierls", field=field)
    rep = zero_mode_test(net, model, np.ones(3))
    assert not rep.zero_mode
    assert not rep.fluxes_integral
    assert rep.consistent
    assert rep.ground_energy == pytest.approx(1.0, rel=1e-12)


def test_zero_mode_ground_state_is_pure_phase(gasket):
    ref = refine(gasket, 2)
    mu = vertex_measure(ref)
    lam = np.sin(np.arange(ref.net.vertex_count))
    model = MagneticModel(kind="peierls", field=derivation(ref.net, lam))
    rep = zero_mode_test(ref.net, model, mu)
    assert rep.zero_mode
    assert rep.modulus_spread < 1e-8
    assert rep.consistent


def test_linearized_zero_mode_consistency_is_untyped():
    # the flux criterion is only asymptotic for the linearized model
    net = three_cycle()
    model = MagneticModel(kind="linearized", field=np.array([0.5, -0.5, 0.5]))
    rep = zero_mode_test(net, model, np.ones(3))
    assert rep.consistent is None


# ---------------------------------------------------------------------------
# locality


def test_locality_disjoint_supports_give_zero_energy():
    net = ResistanceNetwork.from_edges(5, [(i, i + 1, 1.0) for i in range(4)])
    f = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    g = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    for kind in ("linearized", "peierls"):
        model = MagneticModel(kind=kind, field=np.full(4, 0.4))
        rep = locality_check(net, model, f, g)
        assert rep.precondition_met
        assert rep.passed
        assert abs(rep.value) <= 1e-12 * rep.scale


def test_locality_adjacent_supports_is_skipped():
    net = ResistanceNetwork.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    f = np.array([1.0, 0.0, 0.0])
    g = np.array([0.0, 1.0, 0.0])
    model = MagneticModel(kind="peierls", field=np.zeros(2))
    rep = locality_check(net, model, f, g)
    assert not rep.precondition_met
    assert rep.passed is None


def test_locality_on_gasket_cells(gasket):
    ref = refine(gasket, 2)
    model = MagneticModel(kind="peierls", field=np.full(ref.net.edge_count, 0.2))
    # indicator supported strictly inside cell (0,0) vs. cell (2,2)
    f = np.zeros(ref.net.vertex_count)
    g = np.zeros(ref.net.vertex_count)
    f[list(ref.cell_vertices[(0, 0)])] = 1.0
    g[list(ref.cell_vertices[(2, 2)])] = 1.0
    rep = locality_check(ref.net, model, f, g)
    assert rep.precondition_met
    assert rep.passed


# ---------------------------------------------------------------------------
# dirichlet solves


def test_dirichlet_solve_zero_rhs_is_zero():
    net = three_cycle()
    model = MagneticModel(kind="peierls", field=np.array([0.3, 0.1, -0.2]))
    u = dirichlet_solve(assemble(net, model, np.ones(3)), [0], np.zeros(3))
    assert np.max(np.abs(u)) == 0.0


def test_dirichlet_solve_midpoint_green_value():
    # unit masses, 2-edge path pinned at the ends: A_cc = 2, so u = rhs/2
    net = ResistanceNetwork.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    model = MagneticModel(kind="peierls", field=np.zeros(2))
    rhs = np.array([0.0, 1.0, 0.0])
    u = dirichlet_solve(assemble(net, model, np.ones(3)), [0, 2], rhs)
    assert u[0] == 0.0 and u[2] == 0.0
    assert u[1] == pytest.approx(0.5, rel=1e-12)


def test_dirichlet_solve_scales_with_mass():
    net = ResistanceNetwork.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    model = MagneticModel(kind="peierls", field=np.zeros(2))
    rhs = np.array([0.0, 1.0, 0.0])
    u = dirichlet_solve(assemble(net, model, np.full(3, 0.25)), [0, 2], rhs)
    assert u[1] == pytest.approx(0.125, rel=1e-12)


def test_dirichlet_solve_exact_field_conjugation(gasket):
    # for theta = d(lambda), u = e^{-i lambda} * solve_0(e^{i lambda} rhs)
    ref = refine(gasket, 2)
    mu = vertex_measure(ref)
    rng = np.random.default_rng(9)
    lam = rng.standard_normal(ref.net.vertex_count)
    rhs = rng.standard_normal(ref.net.vertex_count)
    pinned = list(ref.boundary)
    magnetic = MagneticModel(kind="peierls", field=derivation(ref.net, lam))
    plain = MagneticModel(kind="peierls", field=np.zeros(ref.net.edge_count))
    u_mag = dirichlet_solve(assemble(ref.net, magnetic, mu), pinned, rhs)
    u_conj = np.exp(-1j * lam) * dirichlet_solve(
        assemble(ref.net, plain, mu), pinned, np.exp(1j * lam) * rhs
    )
    assert np.max(np.abs(u_mag - u_conj)) < 1e-9 * max(1.0, np.max(np.abs(u_mag)))


def test_dirichlet_solve_requires_nonempty_pinned_set():
    net = unit_edge()
    model = MagneticModel(kind="peierls", field=np.zeros(1))
    with pytest.raises(ValueError):
        dirichlet_solve(assemble(net, model, np.ones(2)), [], np.ones(2))


def test_dirichlet_solve_rejects_misshapen_rhs():
    net = three_cycle()
    asm = assemble(net, MagneticModel(kind="peierls", field=np.zeros(3)), np.ones(3))
    with pytest.raises(NetworkError, match="expected \\(3,\\)"):
        dirichlet_solve(asm, [0], np.ones(4))


def test_dirichlet_solve_residual_identity():
    rng = np.random.default_rng(10)
    net = random_connected_network(rng, 9)
    mu = rng.uniform(0.5, 2.0, size=9)
    model = MagneticModel(kind="peierls", field=rng.standard_normal(net.edge_count))
    rhs = rng.standard_normal(9)
    pinned = [0, 4]
    asm = assemble(net, model, mu)
    u = dirichlet_solve(asm, pinned, rhs)
    res = asm.matrix @ u - mu * rhs
    free = [v for v in range(9) if v not in pinned]
    assert np.max(np.abs(res[free])) < 1e-10 * max(1.0, np.max(np.abs(mu * rhs)))


# ---------------------------------------------------------------------------
# model agreement


def test_models_agree_quadratically_in_amplitude(gasket):
    ref = refine(gasket, 2)
    mu = vertex_measure(ref)
    rng = np.random.default_rng(11)
    base = rng.standard_normal(ref.net.edge_count)
    devs = []
    amplitudes = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    for t in amplitudes:
        a_p = assemble(ref.net, MagneticModel(kind="peierls", field=t * base), mu)
        a_l = assemble(ref.net, MagneticModel(kind="linearized", field=t * base), mu)
        devs.append(np.max(np.abs(a_p.matrix - a_l.matrix)))
    slope = np.polyfit(np.log(amplitudes), np.log(devs), 1)[0]
    assert 1.8 <= slope <= 2.2

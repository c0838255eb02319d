"""Edge 1-forms: derivation, module action, Hodge splitting, cycles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magres import (
    ResistanceNetwork,
    bundled_structure,
    cycle_basis,
    cycle_field,
    cycle_fluxes,
    derivation,
    divergence,
    energy,
    field_from_spec,
    hodge_decompose,
    inner,
    laplacian,
    module_action,
    refine,
)
from conftest import bfs_tree, cycle_sums, random_connected_network


def three_cycle() -> ResistanceNetwork:
    return ResistanceNetwork.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


# ---------------------------------------------------------------------------
# derivation and inner product


def test_derivation_norm_equals_energy_exactly():
    rng = np.random.default_rng(0)
    net = random_connected_network(rng, 11)
    for _ in range(10):
        f = rng.standard_normal(11)
        assert inner(net, derivation(net, f)) == energy(net, f)


def test_derivation_of_constant_vanishes():
    net = three_cycle()
    assert np.all(derivation(net, [5.0, 5.0, 5.0]) == 0.0)


def test_inner_linear_first_conjugate_second():
    net = three_cycle()
    rng = np.random.default_rng(1)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    e = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z = 1.5 - 2.0j
    assert inner(net, z * w, e) == pytest.approx(z * inner(net, w, e), rel=1e-12)
    assert inner(net, w, z * e) == pytest.approx(np.conj(z) * inner(net, w, e), rel=1e-12)
    assert inner(net, w, w) == pytest.approx(inner(net, w), rel=1e-12)


# ---------------------------------------------------------------------------
# module action


def test_leibniz_rule_exact():
    rng = np.random.default_rng(2)
    net = random_connected_network(rng, 10)
    for _ in range(20):
        f = rng.standard_normal(10)
        g = rng.standard_normal(10)
        residual = (
            derivation(net, f * g)
            - module_action(net, f, derivation(net, g))
            - module_action(net, g, derivation(net, f))
        )
        assert np.max(np.abs(residual)) < 1e-13 * max(1.0, np.max(np.abs(f)) * np.max(np.abs(g)))


def test_module_action_sup_bound_with_constant_equality():
    rng = np.random.default_rng(3)
    net = random_connected_network(rng, 8)
    w = rng.standard_normal(net.edge_count)
    for _ in range(10):
        g = rng.standard_normal(8)
        gw = module_action(net, g, w)
        assert np.sqrt(inner(net, gw)) <= np.max(np.abs(g)) * np.sqrt(inner(net, w)) + 1e-12
    const = np.full(8, -2.5)
    gw = module_action(net, const, w)
    assert inner(net, gw) == pytest.approx(2.5**2 * inner(net, w), rel=1e-12)


# ---------------------------------------------------------------------------
# divergence and Hodge decomposition


def test_divergence_of_derivation_is_laplacian_action():
    rng = np.random.default_rng(4)
    net = random_connected_network(rng, 9)
    f = rng.standard_normal(9)
    assert np.allclose(divergence(net, derivation(net, f)), laplacian(net) @ f, atol=1e-12)


def test_hodge_exact_field_has_zero_coulomb_part():
    rng = np.random.default_rng(5)
    net = random_connected_network(rng, 10)
    f = rng.standard_normal(10)
    dec = hodge_decompose(net, derivation(net, f))
    assert dec.coulomb_norm_sq < 1e-12 * max(1.0, dec.total_norm_sq)
    # the recovered potential differs from f by a constant
    assert np.std(dec.potential - f) < 1e-9


def test_hodge_orthogonality_and_pythagoras():
    rng = np.random.default_rng(6)
    net = random_connected_network(rng, 12)
    for _ in range(10):
        w = rng.standard_normal(net.edge_count) + 1j * rng.standard_normal(net.edge_count)
        dec = hodge_decompose(net, w)
        scale = max(1.0, dec.total_norm_sq)
        assert dec.orthogonality_residual <= 1e-10 * scale
        assert dec.pythagoras_residual <= 1e-10 * scale
        assert np.allclose(dec.exact + dec.coulomb, w)


def test_hodge_coulomb_part_is_divergence_free():
    rng = np.random.default_rng(7)
    net = random_connected_network(rng, 10)
    w = rng.standard_normal(net.edge_count)
    dec = hodge_decompose(net, w)
    assert np.max(np.abs(divergence(net, dec.coulomb))) < 1e-10


def test_hodge_on_tree_is_fully_exact():
    net = ResistanceNetwork.from_edges(4, [(0, 1, 2.0), (1, 2, 1.0), (1, 3, 0.5)])
    w = np.array([1.0, -2.0, 0.5])
    dec = hodge_decompose(net, w)
    assert dec.coulomb_norm_sq < 1e-14
    assert len(cycle_basis(net).chords) == 0


# ---------------------------------------------------------------------------
# cycle basis and fluxes


def test_cycle_count_is_euler_characteristic():
    rng = np.random.default_rng(8)
    for _ in range(10):
        net = random_connected_network(rng, 10)
        basis = cycle_basis(net)
        assert len(basis.chords) == net.edge_count - net.vertex_count + 1
        assert len(basis.tree) == net.vertex_count - 1


def test_three_cycle_uniform_field_flux():
    net = three_cycle()
    basis = cycle_basis(net)
    assert len(basis.chords) == 1
    # orienting every edge i<j with value t makes the directed loop sum +-t
    fluxes = cycle_fluxes(net, np.array([0.25, 0.25, 0.25]), basis)
    assert abs(fluxes[0]) == pytest.approx(0.25)


def test_fluxes_of_exact_forms_vanish():
    rng = np.random.default_rng(9)
    net = random_connected_network(rng, 9)
    basis = cycle_basis(net)
    for _ in range(5):
        f = rng.standard_normal(9)
        fluxes = cycle_fluxes(net, derivation(net, f), basis)
        assert np.max(np.abs(fluxes)) < 1e-12 if len(basis.chords) else True


def test_cycle_field_hits_unit_flux_on_its_cycle_only():
    rng = np.random.default_rng(10)
    net = random_connected_network(rng, 9)
    basis = cycle_basis(net)
    for i in range(len(basis.chords)):
        w = cycle_field(net, i, 2.5, basis=basis)
        fluxes = cycle_fluxes(net, w, basis)
        expected = np.zeros(len(basis.chords))
        expected[i] = 2.5
        assert np.allclose(fluxes, expected, atol=1e-10)
        # coulomb projection: divergence-free realization
        assert np.max(np.abs(divergence(net, w))) < 1e-9


def test_cycle_field_index_out_of_range():
    net = three_cycle()
    with pytest.raises(ValueError, match="out of range"):
        cycle_field(net, 5, 1.0)


def test_hodge_preserves_cycle_fluxes():
    rng = np.random.default_rng(11)
    net = random_connected_network(rng, 10)
    basis = cycle_basis(net)
    w = rng.standard_normal(net.edge_count)
    dec = hodge_decompose(net, w)
    assert np.allclose(
        cycle_fluxes(net, w, basis), cycle_fluxes(net, dec.coulomb, basis), atol=1e-10
    )


def oracle_networks():
    """Bundled structures at levels 0-6, then 120 random networks of 1-79 vertices."""
    for name in ("interval", "circle", "gasket"):
        s = bundled_structure(name)
        for level in range(7):
            yield f"{name}-L{level}", refine(s, level).net
    rng = np.random.default_rng(14)
    for k in range(120):
        n = 1 if k == 0 else int(rng.integers(2, 80))
        yield f"random-{k}", random_connected_network(rng, n)


def test_cycle_basis_matches_hand_written_bfs():
    count = 0
    for name, net in oracle_networks():
        basis = cycle_basis(net)
        assert (basis.tree, basis.chords) == bfs_tree(net), name
        count += 1
    assert count == 141


def test_cycle_fluxes_match_enumerated_cycle_sums():
    rng = np.random.default_rng(15)
    for name, net in oracle_networks():
        basis = cycle_basis(net)
        real = rng.standard_normal(net.edge_count) * 3.0
        cplx = real + 1j * rng.standard_normal(net.edge_count)
        for w in (real, cplx):
            fluxes = cycle_fluxes(net, w, basis)
            assert fluxes.dtype == w.dtype
            bound = 1e-12 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
            assert np.max(np.abs(fluxes - cycle_sums(net, w)), initial=0.0) <= bound, name


# ---------------------------------------------------------------------------
# field specifications


def test_field_from_spec_zero_constant_random_cycle(gasket):
    net = refine(gasket, 1).net
    assert np.all(field_from_spec(net, "zero") == 0.0)
    assert np.all(field_from_spec(net, "constant:0.3") == 0.3)
    r1 = field_from_spec(net, "random:5")
    r2 = field_from_spec(net, "random:5")
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, field_from_spec(net, "random:6"))
    w = field_from_spec(net, "cycle:0:1.5")
    basis = cycle_basis(net)
    assert cycle_fluxes(net, w, basis)[0] == pytest.approx(1.5, rel=1e-12)


@pytest.mark.parametrize(
    "bad",
    ["", "nonsense", "constant", "constant:x", "random:", "cycle:0", "cycle:a:1", "cycle:99:1",
     "constant:nan", "constant:inf", "constant:-inf", "cycle:0:nan", "cycle:0:inf"],
)
def test_field_from_spec_rejects_malformed(bad, gasket):
    net = refine(gasket, 1).net
    with pytest.raises(ValueError):
        field_from_spec(net, bad)


# ---------------------------------------------------------------------------
# property-based identities


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 12))
def test_hodge_is_idempotent_projection(seed, n):
    rng = np.random.default_rng(seed)
    net = random_connected_network(rng, n)
    w = rng.standard_normal(net.edge_count)
    dec = hodge_decompose(net, w)
    again = hodge_decompose(net, dec.coulomb)
    assert again.exact_norm_sq < 1e-10 * max(1.0, dec.total_norm_sq)
    assert np.allclose(again.coulomb, dec.coulomb, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_derivation_energy_identity_property(seed, n):
    rng = np.random.default_rng(seed)
    net = random_connected_network(rng, n)
    f = rng.standard_normal(n)
    assert inner(net, derivation(net, f)) == energy(net, f)

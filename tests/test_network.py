"""Resistance-network core: construction, energy, traces, resistances."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magres import (
    CellPartition,
    NetworkError,
    ResistanceNetwork,
    check_resistance_estimate,
    conductance_deviation,
    effective_resistance,
    energy,
    energy_measure_on_cells,
    harmonic_extension,
    laplacian,
    network_from_dict,
    network_to_dict,
    resistance_matrix,
    trace_to,
)
from conftest import random_connected_network


def triangle(c=1.0) -> ResistanceNetwork:
    return ResistanceNetwork.from_edges(3, [(0, 1, c), (0, 2, c), (1, 2, c)])


def path(n: int, c=1.0) -> ResistanceNetwork:
    return ResistanceNetwork.from_edges(n, [(i, i + 1, c) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# construction and validation


def test_edges_normalized_and_sorted():
    net = ResistanceNetwork.from_edges(3, [(2, 1, 3.0), (1, 0, 2.0)])
    assert list(net.tails) == [0, 1]
    assert list(net.heads) == [1, 2]
    assert list(net.conductances) == [2.0, 3.0]


def test_rejects_self_loop():
    with pytest.raises(NetworkError):
        ResistanceNetwork.from_edges(2, [(0, 0, 1.0), (0, 1, 1.0)])


def test_rejects_duplicate_edge():
    with pytest.raises(NetworkError):
        ResistanceNetwork.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)])


def test_rejects_nonpositive_conductance():
    with pytest.raises(NetworkError):
        ResistanceNetwork.from_edges(2, [(0, 1, 0.0)])
    with pytest.raises(NetworkError):
        ResistanceNetwork.from_edges(2, [(0, 1, -1.0)])


def test_rejects_disconnected():
    with pytest.raises(NetworkError):
        ResistanceNetwork.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])


def test_rejects_out_of_range_vertex():
    with pytest.raises(NetworkError):
        ResistanceNetwork.from_edges(2, [(0, 2, 1.0)])


def test_rejects_duplicate_labels():
    with pytest.raises(NetworkError):
        ResistanceNetwork.from_edges(2, [(0, 1, 1.0)], labels=("x", "x"))


def test_single_vertex_allowed():
    net = ResistanceNetwork.from_edges(1, [])
    assert net.vertex_count == 1
    assert net.edge_count == 0
    assert net.is_connected()


# ---------------------------------------------------------------------------
# energy and laplacian


def test_energy_unit_edge():
    net = path(2)
    assert energy(net, [0.0, 1.0]) == 1.0
    assert energy(net, [2.0, 2.0]) == 0.0


def test_energy_matches_laplacian_quadratic():
    rng = np.random.default_rng(1)
    net = random_connected_network(rng, 12)
    f = rng.standard_normal(12)
    L = laplacian(net)
    assert energy(net, f) == pytest.approx(float(f @ L @ f), rel=1e-12)


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(2)
    net = random_connected_network(rng, 9)
    L = laplacian(net)
    assert np.max(np.abs(L.sum(axis=1))) < 1e-12
    assert np.max(np.abs(L - L.T)) == 0.0


def test_energy_sesquilinear_linear_in_first_argument():
    net = triangle()
    rng = np.random.default_rng(3)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z = 0.7 - 0.3j
    lhs = energy(net, z * f, g)
    assert lhs == pytest.approx(z * energy(net, f, g), rel=1e-12)
    # conjugate-linear in the second argument
    assert energy(net, f, z * g) == pytest.approx(np.conj(z) * energy(net, f, g), rel=1e-12)


def test_energy_quadratic_real_nonnegative_for_complex_input():
    net = triangle()
    f = np.array([1.0 + 2.0j, -0.5j, 0.25])
    e = energy(net, f)
    assert isinstance(e, float)
    assert e >= 0.0


# ---------------------------------------------------------------------------
# traces (Schur complements)


def test_triangle_traces_to_pair_conductance_three_halves():
    # series 1-1 path in parallel with the direct unit edge: 1/2 + 1 = 3/2
    traced = trace_to(triangle(), [0, 1])
    assert traced.vertex_count == 2
    assert traced.edge_count == 1
    assert traced.conductances[0] == pytest.approx(1.5, abs=1e-14)


def test_trace_without_interior_returns_same_network():
    net = triangle()
    traced = trace_to(net, [0, 1, 2])
    assert traced is net


def test_trace_keep_order_preserved():
    net = path(4)
    traced = trace_to(net, [3, 0])
    # vertex 0 of the traced net is original vertex 3
    assert traced.vertex_count == 2
    assert traced.conductances[0] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_trace_iterated_equals_direct():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(5, 16))
        net = random_connected_network(rng, n)
        v1 = sorted(rng.choice(n, size=3, replace=False).tolist())
        rest = [v for v in range(n) if v not in v1]
        v2 = sorted(v1 + rng.choice(rest, size=min(3, len(rest)), replace=False).tolist())
        direct = trace_to(net, v1)
        via = trace_to(trace_to(net, v2), [v2.index(v) for v in v1])
        assert conductance_deviation(direct, via) < 1e-9


def test_trace_preserves_boundary_energy():
    rng = np.random.default_rng(5)
    net = random_connected_network(rng, 10)
    keep = [0, 3, 7]
    traced = trace_to(net, keep)
    values = rng.standard_normal(3)
    extended = harmonic_extension(net, keep, values)
    assert energy(traced, values) == pytest.approx(energy(net, extended), rel=1e-10)


# ---------------------------------------------------------------------------
# harmonic extension


def test_harmonic_extension_matches_boundary_and_minimizes():
    rng = np.random.default_rng(6)
    net = random_connected_network(rng, 8)
    boundary = [1, 6]
    values = [0.0, 1.0]
    h = harmonic_extension(net, boundary, values)
    assert h[1] == pytest.approx(0.0, abs=1e-14)
    assert h[6] == pytest.approx(1.0, abs=1e-14)
    e_h = energy(net, h)
    for _ in range(10):
        other = np.array(h)
        interior = [v for v in range(8) if v not in boundary]
        other[interior] += rng.standard_normal(len(interior))
        assert energy(net, other) >= e_h - 1e-12


def test_harmonic_extension_complex_boundary_data():
    net = path(3)
    h = harmonic_extension(net, [0, 2], [0.0, 1.0j])
    assert h[1] == pytest.approx(0.5j, abs=1e-14)


def test_harmonic_extension_full_boundary_is_identity():
    net = triangle()
    h = harmonic_extension(net, [0, 1, 2], [3.0, 1.0, 2.0])
    assert np.allclose(h, [3.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# effective resistance


def test_effective_resistance_triangle():
    # two parallel routes: direct (R=1) and two-edge (R=2) -> 2/3
    assert effective_resistance(triangle(), 0, 1) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_effective_resistance_series_path():
    assert effective_resistance(path(5), 0, 4) == pytest.approx(4.0, rel=1e-12)


def test_resistance_matrix_matches_pairwise():
    rng = np.random.default_rng(7)
    net = random_connected_network(rng, 9)
    R = resistance_matrix(net)
    assert np.max(np.abs(R - R.T)) < 1e-12
    assert np.max(np.abs(np.diag(R))) == 0.0
    for x, y in [(0, 1), (2, 7), (3, 8)]:
        assert R[x, y] == pytest.approx(effective_resistance(net, x, y), rel=1e-9)


def test_resistance_triangle_inequality():
    rng = np.random.default_rng(8)
    net = random_connected_network(rng, 10)
    R = resistance_matrix(net)
    for x in range(10):
        for y in range(10):
            for z in range(10):
                assert R[x, y] <= R[x, z] + R[z, y] + 1e-10


def test_resistance_estimate_never_exceeded():
    rng = np.random.default_rng(9)
    net = random_connected_network(rng, 12)
    for _ in range(20):
        rep = check_resistance_estimate(net, rng.standard_normal(12))
        assert rep.passed
        assert rep.max_ratio <= 1.0 + 1e-9


def test_resistance_estimate_tight_for_harmonic_pair():
    # |f(x)-f(y)|^2 / E = R exactly when f is harmonic off {x, y}
    net = triangle()
    h = harmonic_extension(net, [0, 1], [0.0, 1.0])
    rep = check_resistance_estimate(net, h, pairs=[(0, 1)])
    assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)


def test_constant_function_trivially_passes_estimate():
    rep = check_resistance_estimate(triangle(), np.ones(3))
    assert rep.passed
    assert rep.max_ratio == 0.0


# ---------------------------------------------------------------------------
# energy measures on cells


def test_energy_measure_partition_sums_to_total():
    net = triangle()
    f = np.array([1.0, 0.0, 0.0])
    part = CellPartition({"a": (0,), "b": (1, 2)})
    part.validate(net)
    masses = energy_measure_on_cells(net, f, part)
    assert sum(masses.values()) == pytest.approx(energy(net, f), rel=1e-12)
    assert masses["a"] == pytest.approx(1.0)  # edge (0,1)
    assert masses["b"] == pytest.approx(1.0)  # edges (0,2) and (1,2)


def test_partition_validation_requires_every_edge_once():
    net = triangle()
    with pytest.raises(NetworkError):
        CellPartition({"a": (0, 1)}).validate(net)
    with pytest.raises(NetworkError):
        CellPartition({"a": (0, 1), "b": (1, 2)}).validate(net)


# ---------------------------------------------------------------------------
# serialization


def test_network_dict_roundtrip():
    net = ResistanceNetwork.from_edges(
        3, [(0, 1, 1.5), (1, 2, 2.5)], labels=("a", "b", "c")
    )
    data = network_to_dict(net)
    back = network_from_dict(data)
    assert back.vertex_count == 3
    assert back.labels == ("a", "b", "c")
    assert np.allclose(back.conductances, net.conductances)
    assert network_to_dict(back) == data


def test_network_from_dict_rejects_garbage():
    with pytest.raises((NetworkError, KeyError, TypeError, ValueError)):
        network_from_dict({"vertices": 2})


def test_conductance_deviation_measures_relative_gap():
    a = ResistanceNetwork.from_edges(2, [(0, 1, 1.0)])
    b = ResistanceNetwork.from_edges(2, [(0, 1, 1.1)])
    assert conductance_deviation(a, a) == 0.0
    assert conductance_deviation(a, b) == pytest.approx(0.1 / 1.1, rel=1e-9)


def test_conductance_deviation_matches_labelled_vertices():
    a = ResistanceNetwork.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)], labels=["x", "y", "z"])
    b = ResistanceNetwork.from_edges(3, [(2, 1, 1.0), (1, 0, 2.0)], labels=["z", "y", "x"])
    assert conductance_deviation(a, b) == 0.0


# ---------------------------------------------------------------------------
# property-based checks


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 14))
def test_trace_conductances_nonnegative_and_energy_preserved(seed, n):
    rng = np.random.default_rng(seed)
    net = random_connected_network(rng, n)
    size = int(rng.integers(2, n + 1))
    keep = sorted(rng.choice(n, size=size, replace=False).tolist())
    traced = trace_to(net, keep)
    assert traced.vertex_count == size
    assert np.all(traced.conductances > 0.0)
    values = rng.standard_normal(size)
    extended = harmonic_extension(net, keep, values)
    assert energy(traced, values) == pytest.approx(
        energy(net, extended), rel=1e-9, abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_effective_resistance_is_a_metric(seed, n):
    rng = np.random.default_rng(seed)
    net = random_connected_network(rng, n)
    R = resistance_matrix(net)
    assert np.all(R >= 0.0)
    off = R[~np.eye(n, dtype=bool)]
    assert np.all(off > 0.0)
    for _ in range(5):
        x, y, z = rng.integers(0, n, size=3)
        assert R[x, y] <= R[x, z] + R[z, y] + 1e-9

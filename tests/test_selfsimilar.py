"""Self-similar structures: refinement, gluing, measures, serialization."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from magres import (
    ContractionMap,
    PCFStructure,
    ResistanceNetwork,
    StructureError,
    cell_partition,
    effective_resistance,
    embed_indices,
    energy,
    load_structure,
    parse_measure_spec,
    refine,
    structure_from_dict,
    trace_to,
    verify_compatibility,
    vertex_measure,
)
from conftest import structure_data


# ---------------------------------------------------------------------------
# construction validation


def test_structure_requires_labeled_base():
    base = ResistanceNetwork.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(StructureError):
        PCFStructure(base=base, maps=(ContractionMap(0.5, 0.5, ("L", "M")),) * 2)


def _interval_like(r0=Fraction(1, 2), r1=Fraction(1, 2)):
    base = ResistanceNetwork.from_edges(2, [(0, 1, 1.0)], labels=("L", "R"))
    return PCFStructure(
        base=base,
        maps=(
            ContractionMap(r0, Fraction(1, 2), ("L", "M")),
            ContractionMap(r1, Fraction(1, 2), ("M", "R")),
        ),
    )


def test_structure_rejects_bad_ratio_and_weights():
    base = ResistanceNetwork.from_edges(2, [(0, 1, 1.0)], labels=("L", "R"))
    with pytest.raises(StructureError):
        PCFStructure(
            base=base,
            maps=(
                ContractionMap(1.0, Fraction(1, 2), ("L", "M")),
                ContractionMap(0.5, Fraction(1, 2), ("M", "R")),
            ),
        )
    with pytest.raises(StructureError):
        PCFStructure(
            base=base,
            maps=(
                ContractionMap(0.5, Fraction(3, 4), ("L", "M")),
                ContractionMap(0.5, Fraction(3, 4), ("M", "R")),
            ),
        )


def test_structure_rejects_label_problems():
    base = ResistanceNetwork.from_edges(2, [(0, 1, 1.0)], labels=("L", "R"))
    with pytest.raises(StructureError):  # duplicate inside one map
        PCFStructure(
            base=base,
            maps=(
                ContractionMap(0.5, 0.5, ("L", "L")),
                ContractionMap(0.5, 0.5, ("M", "R")),
            ),
        )
    with pytest.raises(StructureError):  # base label R never hit
        PCFStructure(
            base=base,
            maps=(
                ContractionMap(0.5, 0.5, ("L", "M")),
                ContractionMap(0.5, 0.5, ("M", "N")),
            ),
        )


# ---------------------------------------------------------------------------
# refinement: counts, conductances, names


@pytest.mark.parametrize("level,vertices", [(0, 2), (1, 3), (2, 5), (3, 9), (4, 17)])
def test_interval_vertex_counts(interval, level, vertices):
    ref = refine(interval, level)
    assert ref.net.vertex_count == vertices
    assert ref.net.edge_count == 2**level
    assert np.allclose(ref.net.conductances, 2.0**level)


@pytest.mark.parametrize("level,vertices", [(0, 3), (1, 6), (2, 15), (3, 42)])
def test_gasket_vertex_counts(gasket, level, vertices):
    ref = refine(gasket, level)
    assert ref.net.vertex_count == vertices
    assert ref.net.edge_count == 3**(level + 1)
    assert np.allclose(ref.net.conductances, (5.0 / 3.0) ** level)


@pytest.mark.parametrize("level,vertices", [(1, 2), (2, 4), (3, 8), (4, 16)])
def test_circle_vertex_counts(circle, level, vertices):
    ref = refine(circle, level)
    assert ref.net.vertex_count == vertices
    # level 1 degenerates to a single doubled edge, deeper levels are cycles
    assert ref.net.edge_count == (1 if level == 1 else vertices)


def test_circle_level_zero_collapses_to_point(circle):
    ref = refine(circle, 0)
    assert ref.net.vertex_count == 1
    assert ref.net.edge_count == 0
    assert len(ref.dropped_loops) == 1


def test_circle_level_one_merges_parallel_edges(circle):
    ref = refine(circle, 1)
    assert ref.net.edge_count == 1
    assert ref.net.conductances[0] == pytest.approx(4.0)  # 2 + 2
    assert len(ref.collisions) == 1


def test_circle_degrees_are_two(circle):
    ref = refine(circle, 4)
    degrees = np.zeros(ref.net.vertex_count)
    np.add.at(degrees, ref.net.tails, 1)
    np.add.at(degrees, ref.net.heads, 1)
    assert np.all(degrees == 2)


def test_names_stable_across_levels(gasket):
    coarse = refine(gasket, 1)
    fine = refine(gasket, 3)
    positions = embed_indices(fine, coarse)
    for i, p in enumerate(positions):
        assert fine.names[p] == coarse.names[i]


def test_interval_names_readable(interval):
    ref = refine(interval, 1)
    assert set(ref.names) == {"L", "M", "R"}
    ref2 = refine(interval, 2)
    assert "L" in ref2.names and "M" in ref2.names and "R" in ref2.names


def test_boundary_is_base_label_set(gasket):
    ref = refine(gasket, 2)
    assert [ref.names[i] for i in ref.boundary] == ["A", "B", "C"]


def test_cells_partition_edges(gasket):
    ref = refine(gasket, 2)
    part = cell_partition(ref)
    part.validate(ref.net)
    assert list(part.cells) == [f"{i}{j}" for i in range(3) for j in range(3)]


def test_negative_level_rejected(gasket):
    with pytest.raises(StructureError):
        refine(gasket, -1)


# ---------------------------------------------------------------------------
# renormalization / compatibility


def test_gasket_level1_unit_conductances_trace_to_three_fifths():
    # the classical renormalization factor of the triangle network
    g = refine(load_helper("gasket"), 1)
    unit = ResistanceNetwork.from_edges(
        g.net.vertex_count, [(int(i), int(j), 1.0) for i, j in zip(g.net.tails, g.net.heads)]
    )
    traced = trace_to(unit, [g.name_to_index[x] for x in ("A", "B", "C")])
    assert np.allclose(traced.conductances, 0.6, atol=1e-12)


def load_helper(name):
    from magres import bundled_structure

    return bundled_structure(name)


@pytest.mark.parametrize("name", ["interval", "circle", "gasket"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_compatibility_all_bundled(name, level):
    s = load_helper(name)
    rep = verify_compatibility(refine(s, level), refine(s, level + 1), tol=1e-10)
    assert rep.level == level
    assert rep.passed, f"{name} level {level}: deviation {rep.max_deviation}"


def test_compatibility_needs_consecutive_levels_of_one_structure(gasket, interval):
    with pytest.raises(StructureError):
        verify_compatibility(refine(gasket, 1), refine(gasket, 3))
    with pytest.raises(StructureError):
        verify_compatibility(refine(gasket, 2), refine(gasket, 1))
    with pytest.raises(StructureError):
        verify_compatibility(refine(interval, 1), refine(load_helper("interval"), 2))


def test_interval_effective_resistance_is_length(interval):
    ref = refine(interval, 5)
    ends = [ref.name_to_index["L"], ref.name_to_index["R"]]
    assert effective_resistance(ref.net, ends[0], ends[1]) == pytest.approx(1.0, rel=1e-12)


def test_gasket_harmonic_interior_values(gasket):
    # boundary data (1, 0, 0) on the level-1 network: junctions opposite
    # the A corner get 1/5, the two adjacent ones 2/5
    ref = refine(gasket, 1)
    idx = ref.name_to_index
    h = magres_harmonic(ref.net, [idx["A"], idx["B"], idx["C"]], [1.0, 0.0, 0.0])
    assert h[idx["ab"]] == pytest.approx(0.4, abs=1e-12)
    assert h[idx["ca"]] == pytest.approx(0.4, abs=1e-12)
    assert h[idx["bc"]] == pytest.approx(0.2, abs=1e-12)
    assert energy(ref.net, h) == pytest.approx(2.0, rel=1e-12)


def magres_harmonic(net, boundary, values):
    from magres import harmonic_extension

    return harmonic_extension(net, boundary, values)


# ---------------------------------------------------------------------------
# measures


def test_interval_level1_vertex_measure(interval):
    ref = refine(interval, 1)
    mu = vertex_measure(ref)
    by_name = {ref.names[i]: mu.mass[i] for i in range(3)}
    assert by_name["L"] == pytest.approx(0.25)
    assert by_name["M"] == pytest.approx(0.5)
    assert by_name["R"] == pytest.approx(0.25)
    assert mu.total == pytest.approx(1.0, abs=1e-15)


def test_gasket_level1_vertex_measure(gasket):
    ref = refine(gasket, 1)
    mu = vertex_measure(ref)
    by_name = {ref.names[i]: mu.mass[i] for i in range(6)}
    for corner in ("A", "B", "C"):
        assert by_name[corner] == pytest.approx(1.0 / 9.0)
    for junction in ("ab", "bc", "ca"):
        assert by_name[junction] == pytest.approx(2.0 / 9.0)


def test_circle_level1_measure_survives_merging(circle):
    ref = refine(circle, 1)
    mu = vertex_measure(ref)
    assert np.allclose(np.sort(mu.mass), [0.5, 0.5])
    assert mu.total == pytest.approx(1.0)


def test_vertex_measure_total_always_one(gasket):
    for level in range(4):
        mu = vertex_measure(refine(gasket, level))
        assert mu.total == pytest.approx(1.0, abs=1e-14)


def test_custom_weights_shift_vertex_measure(interval):
    ref = refine(interval, 1)
    mu = vertex_measure(ref, parse_measure_spec("3/4,1/4", 2))
    by_name = {ref.names[i]: mu.mass[i] for i in range(3)}
    assert by_name["L"] == pytest.approx(3 / 8)
    assert by_name["M"] == pytest.approx(0.5)
    assert by_name["R"] == pytest.approx(1 / 8)


def test_parse_measure_spec_variants(gasket):
    assert parse_measure_spec(None, 3) is None
    assert parse_measure_spec("structure", 3) is None
    uni = parse_measure_spec("uniform", 3)
    assert uni == [Fraction(1, 3)] * 3
    # Fraction entries stay exact, so they give the same masses as the text spec
    exact = parse_measure_spec([Fraction(1, 3)] * 3, 3)
    assert all(isinstance(w, Fraction) for w in exact)
    ref = refine(gasket, 4)
    assert np.array_equal(vertex_measure(ref, exact).mass, vertex_measure(ref, "uniform").mass)
    assert parse_measure_spec("1/2,1/2", 2) == [Fraction(1, 2), Fraction(1, 2)]
    with pytest.raises(StructureError):
        parse_measure_spec("1/2,1/2,1/2", 3)  # does not sum to 1
    with pytest.raises(StructureError):
        parse_measure_spec("1/2,1/2", 3)  # wrong count
    with pytest.raises(StructureError):
        parse_measure_spec("-1/2,3/2", 2)  # negative
    with pytest.raises(StructureError):
        parse_measure_spec("1e400,0,0", 3)  # beyond the float range
    with pytest.raises(StructureError):
        parse_measure_spec([Fraction(10**400), 1, 1], 3)


# ---------------------------------------------------------------------------
# serialization


def test_structure_roundtrip_preserves_rationals():
    data = structure_data("gasket")
    assert data["maps"][0]["r"] == "3/5"
    assert data["maps"][0]["mu"] == "1/3"
    back = structure_from_dict(data)
    assert back.maps[0].r == Fraction(3, 5)
    assert back.maps[0].mu == Fraction(1, 3)
    assert back.base_conductances == (Fraction(1),) * 3
    assert back.is_rational()


def test_circle_roundtrip_keeps_identification():
    data = structure_data("circle")
    assert data["identify"] == [["L", "R"]]
    back = structure_from_dict(data)
    assert back.identify == (("L", "R"),)
    assert refine(back, 3).net.vertex_count == 8


def test_load_structure_named_from_stem(tmp_path):
    data = structure_data("interval")
    assert "name" not in data
    p = tmp_path / "myinterval.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    s = load_structure(p)
    assert s.name == "myinterval"  # stem fills in when the file has no name
    assert refine(s, 2).net.vertex_count == 5


def test_load_structure_embedded_name_wins(tmp_path):
    data = dict(structure_data("interval"), name="interval")
    p = tmp_path / "other.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    assert load_structure(p).name == "interval"


def test_structure_from_dict_rejects_malformed():
    with pytest.raises(StructureError):
        structure_from_dict({"maps": []})
    with pytest.raises(StructureError):
        structure_from_dict({"base": {"vertices": 2, "labels": ["L", "R"], "edges": [[0, 1, 1]]},
                             "maps": [{"r": "1/2"}]})
    bad_edge = structure_data("gasket")
    bad_edge["base"]["edges"][-1] = [1, 5, 1]
    with pytest.raises(StructureError, match="out of range"):
        structure_from_dict(bad_edge)


@pytest.mark.parametrize("value", ["1e400", 10**400], ids=["text", "integer"])
def test_structure_from_dict_rejects_rationals_beyond_float_range(value):
    for path in (("maps", 0, "r"), ("maps", 0, "mu"), ("base", "edges", 0, 2)):
        data = structure_data("interval")
        *parents, key = path
        target = data
        for step in parents:
            target = target[step]
        target[key] = value
        with pytest.raises(StructureError, match="cannot parse rational"):
            structure_from_dict(data)


def test_refine_refuses_conductances_beyond_float_range():
    data = structure_data("interval")
    data["maps"][0]["r"] = "1e-200"  # level-2 conductances near 1e400
    s = structure_from_dict(data)
    assert refine(s, 1).net.conductances.max() == pytest.approx(1e200)
    with pytest.raises(StructureError, match="level 2 has a conductance beyond the float range"):
        refine(s, 2)


def test_bundled_structure_unknown_name():
    from magres import bundled_structure

    with pytest.raises(StructureError):
        bundled_structure("dodecahedron")

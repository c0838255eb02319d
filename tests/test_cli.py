"""Command-line interface: exit codes, envelopes, formats, determinism."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magres.cli
import magres.magnetic
import magres.spectral
from magres import bundled_structure, spectrum
from magres.cli import EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main
from conftest import structure_data

TWO_PI = 2.0 * np.pi

ENVELOPE_KEYS = {"tool", "version", "command", "config", "config_hash", "verdict", "report"}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def check_envelope(doc, command):
    assert set(doc) == ENVELOPE_KEYS
    assert doc["tool"] == "magres"
    assert doc["command"] == command
    assert len(doc["config_hash"]) == 64
    assert int(doc["config_hash"], 16) >= 0  # hex digest
    assert doc["verdict"] in ("PASS", "FAIL")


# ---------------------------------------------------------------------------
# top-level behaviour


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_no_command_is_input_error(capsys):
    assert main([]) == EXIT_INPUT
    capsys.readouterr()


def test_unknown_structure_exits_2(capsys):
    code = main(["spectrum", "--structure", "dodecahedron", "--level", "1", "--model", "peierls"])
    assert code == EXIT_INPUT
    assert "dodecahedron" in capsys.readouterr().err


def test_malformed_structure_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"base": [unterminated', encoding="utf-8")
    code = main(["spectrum", "--structure", str(bad), "--level", "1", "--model", "peierls"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line" in err  # json decode errors carry a position


def test_structure_file_with_out_of_range_edge_exits_2(tmp_path, capsys):
    data = structure_data("gasket")
    data["base"]["edges"][-1] = [1, 5, 1]
    bad = tmp_path / "bad-edge.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code = main(["spectrum", "--structure", str(bad), "--level", "1", "--model", "peierls"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "out of range" in err
    assert "check failed" not in err


def test_negative_level_exits_2(capsys):
    code = main(["spectrum", "--structure", "gasket", "--level", "-1", "--model", "peierls"])
    assert code == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--structure", "interval", "--level", "0", "--model", "peierls",
         "--boundary", "dirichlet"],
        ["gauge-check", "--structure", "interval", "--level", "0", "--model", "peierls",
         "--boundary", "dirichlet"],
        ["converge", "--structure", "interval", "--levels", "0,1", "--k", "1", "--model", "peierls",
         "--boundary", "dirichlet"],
        ["solve", "--structure", "interval", "--level", "0", "--model", "peierls",
         "--dirichlet", "boundary", "--rhs", "delta:0"],
        ["solve", "--structure", "gasket", "--level", "1", "--model", "peierls",
         "--dirichlet", "0,1,2,3,4,5", "--rhs", "delta:0"],
    ],
)
def test_dirichlet_without_free_vertex_exits_2(argv, capsys):
    assert main(argv) == EXIT_INPUT
    assert "leaves no free vertex" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--structure", "circle", "--level", "3", "--model", "peierls", "--k", "-2"],
        ["flux-sweep", "--structure", "circle", "--level", "3", "--model", "peierls",
         "--grid", "0:1:2", "--k", "-2"],
        ["flux-sweep", "--structure", "circle", "--level", "3", "--model", "peierls",
         "--grid", "0:1:2", "--k", "0"],
        ["converge", "--structure", "gasket", "--levels", "1,2", "--model", "peierls", "--k", "-2"],
        ["gauge-check", "--structure", "gasket", "--level", "1", "--model", "peierls", "--count", "0"],
        ["gauge-check", "--structure", "gasket", "--level", "1", "--model", "peierls", "--count", "-1"],
        ["audit", "--structure", "gasket", "--level", "1", "--balls", "-1"],
        ["audit", "--structure", "gasket", "--level", "1", "--balls", "0"],
        ["audit", "--structure", "gasket", "--level", "1", "--poincare-trials", "-1"],
        ["audit", "--structure", "gasket", "--level", "1", "--poincare-trials", "0"],
        ["audit", "--structure", "gasket", "--level", "1", "--trials", "0"],
        ["audit", "--structure", "gasket", "--level", "1", "--trials", "-1"],
    ],
)
def test_nonpositive_k_or_count_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["hodge", "--structure", "gasket", "--level", "1", "--tol", "nan"],
        ["hodge", "--structure", "gasket", "--level", "1", "--tol=-1e-9"],
        ["audit", "--structure", "gasket", "--level", "1", "--tol", "inf"],
        ["build", "--structure", "gasket", "--level", "1", "--tol", "nan"],
        ["flux-sweep", "--structure", "circle", "--level", "3", "--model", "peierls",
         "--grid", "0:1:2", "--tol", "nan"],
        ["gauge-check", "--structure", "gasket", "--level", "1", "--model", "peierls",
         "--tol", "inf"],
        ["trace-check", "--structure", "gasket", "--level", "1", "--compat-tol", "nan"],
        ["zero-mode", "--structure", "gasket", "--level", "1", "--spread-tol", "nan"],
        ["zero-mode", "--structure", "gasket", "--level", "1", "--flux-tol", "-1"],
        ["solve", "--structure", "gasket", "--level", "1", "--model", "peierls",
         "--dirichlet", "0", "--rhs", "delta:1", "--tol=-inf"],
    ],
)
def test_bad_tolerance_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "finite number >= 0" in capsys.readouterr().err


def test_structure_from_file_path(tmp_path, capsys):
    copied = tmp_path / "mygasket.json"
    copied.write_text(json.dumps(structure_data("gasket")), encoding="utf-8")
    code, doc = run_json(capsys, ["spectrum", "--structure", str(copied), "--level", "1", "--model", "peierls"])
    assert code == EXIT_PASS
    assert doc["report"]["metadata"]["vertices"] == 6


# ---------------------------------------------------------------------------
# build


def test_build_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code, doc = run_json(
        capsys,
        ["build", "--structure", "gasket", "--level", "2", "--out-dir", str(out)],
    )
    assert code == EXIT_PASS
    check_envelope(doc, "build")
    assert doc["verdict"] == "PASS"
    files = doc["report"]["files"]
    net = json.loads(Path(files["network"]).read_text(encoding="utf-8"))
    assert net["vertices"] == 15
    assert len(net["edges"]) == 27
    assert len(net["labels"]) == 15
    measure = json.loads(Path(files["measure"]).read_text(encoding="utf-8"))
    assert measure["total"] == pytest.approx(1.0)
    assert len(measure["mass"]) == 15
    cells = json.loads(Path(files["cells"]).read_text(encoding="utf-8"))
    assert len(cells["cells"]) == 9
    assert doc["report"]["compatibility"]["passed"] is True
    assert doc["report"]["boundary"] == ["A", "B", "C"]


def test_build_byte_identical_reruns(tmp_path, capsys):
    out = tmp_path / "artifacts"
    argv = [
        "build", "--structure", "interval", "--level", "3",
        "--out-dir", str(out), "--output", str(tmp_path / "report.json"),
    ]
    assert main(argv) == EXIT_PASS
    capsys.readouterr()
    first = {
        p.name: p.read_bytes() for p in sorted(out.iterdir())
    }
    first["report.json"] = (tmp_path / "report.json").read_bytes()
    assert main(argv) == EXIT_PASS
    capsys.readouterr()
    second = {
        p.name: p.read_bytes() for p in sorted(out.iterdir())
    }
    second["report.json"] = (tmp_path / "report.json").read_bytes()
    assert first == second


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_json_envelope(capsys):
    code, doc = run_json(
        capsys,
        ["spectrum", "--structure", "circle", "--level", "3", "--model", "peierls"],
    )
    assert code == EXIT_PASS
    check_envelope(doc, "spectrum")
    eigs = doc["report"]["eigenvalues"]
    assert len(eigs) == 8
    assert abs(eigs[0]) < 1e-9
    assert doc["report"]["metadata"]["kept"] == 8


def test_spectrum_csv(capsys):
    code = main(
        ["spectrum", "--structure", "circle", "--level", "3", "--model", "peierls",
         "--format", "csv", "--k", "3"]
    )
    assert code == EXIT_PASS
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "structure,level,model,boundary,flux,index,eigenvalue"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[:4] == ["circle", "3", "peierls", "neumann"]
    assert first[4] == ""  # no flux column for plain spectra
    assert first[5] == "0"
    float(first[6])  # parses


def test_spectrum_export_matrix(tmp_path, capsys):
    target = tmp_path / "matrix.json"
    code = main(
        ["spectrum", "--structure", "gasket", "--level", "1", "--model", "peierls",
         "--field", "constant:0.4", "--export-matrix", str(target)]
    )
    assert code == EXIT_PASS
    capsys.readouterr()
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["rows"] == 6 and doc["cols"] == 6
    assert len(doc["values"]) == 36  # row-major flat list
    entry = doc["values"][0]
    assert isinstance(entry, list) and len(entry) == 2  # [re, im]


def test_spectrum_dirichlet_drops_boundary(capsys):
    code, doc = run_json(
        capsys,
        ["spectrum", "--structure", "gasket", "--level", "2", "--model", "linearized",
         "--boundary", "dirichlet"],
    )
    assert code == EXIT_PASS
    assert doc["report"]["metadata"]["kept"] == 12
    assert len(doc["report"]["eigenvalues"]) == 12
    assert doc["report"]["eigenvalues"][0] > 0.1


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--model", "peierls", "--k", "2"],
        ["gauge-check", "--model", "peierls"],
        ["zero-mode"],
        ["flux-sweep", "--model", "peierls", "--grid", "0:1:2"],
    ],
    ids=lambda argv: argv[0],
)
def test_over_dense_limit_refused_before_assembly(argv, monkeypatch, capsys):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled a matrix beyond the dense limit")

    for module in (magres.spectral, magres.cli, magres.magnetic):
        monkeypatch.setattr(module, "assemble", no_assembly)
    code = main(argv[:1] + ["--structure", "gasket", "--level", "8"] + argv[1:])
    assert code == EXIT_INPUT
    assert "level 8 has 9843 vertices; dense limit is 4096" in capsys.readouterr().err


def test_spectrum_matches_library_with_rational_measure(capsys):
    # the CLI forwards the measure text, so rational weights stay exact as in the library
    code, doc = run_json(
        capsys,
        ["spectrum", "--structure", "gasket", "--level", "4", "--model", "peierls",
         "--measure", "uniform", "--field", "random:2"],
    )
    assert code == EXIT_PASS
    rep = spectrum(bundled_structure("gasket"), 4, field="random:2", measure="uniform")
    assert doc["report"]["eigenvalues"] == rep.eigenvalues.tolist()


# ---------------------------------------------------------------------------
# flux sweep


def test_flux_sweep_periodicity_verdict(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main(
        ["flux-sweep", "--structure", "circle", "--level", "3", "--model", "peierls",
         "--grid", f"0:{TWO_PI}:5", "--output", str(out)]
    )
    assert code == EXIT_PASS
    doc = json.loads(out.read_text(encoding="utf-8"))
    check_envelope(doc, "flux-sweep")
    assert doc["verdict"] == "PASS"
    checks = doc["report"]["checks"]
    assert checks["periodic_pairs"] >= 1
    assert checks["symmetric_pairs"] >= 1
    assert checks["max_pair_deviation"] <= checks["tol"]
    assert len(doc["report"]["fluxes"]) == 5
    assert len(doc["report"]["eigenvalues"]) == 5


def test_flux_sweep_impossible_tol_fails(capsys):
    code = main(
        ["flux-sweep", "--structure", "circle", "--level", "3", "--model", "peierls",
         "--grid", f"0:{TWO_PI}:5", "--tol", "0"]
    )
    assert code == EXIT_FAIL
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "FAIL"


def test_flux_sweep_csv(capsys):
    code = main(
        ["flux-sweep", "--structure", "gasket", "--level", "1", "--model", "peierls",
         "--grid", "0:3.14:3", "--k", "2", "--format", "csv"]
    )
    assert code == EXIT_PASS
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "structure,level,model,boundary,flux,index,eigenvalue"
    assert len(lines) == 1 + 3 * 2
    row = lines[1].split(",")
    assert row[4] == "0.0"


def test_flux_sweep_negative_grid_start(capsys):
    # argparse reads "--grid -3:3:5" as an option, so a negative start needs "="
    code, doc = run_json(
        capsys,
        ["flux-sweep", "--structure", "circle", "--level", "3", "--model", "peierls",
         "--grid=-3.14159:3.14159:9"],
    )
    assert code == EXIT_PASS
    assert doc["report"]["fluxes"][0] == -3.14159
    assert doc["report"]["checks"]["symmetric_pairs"] == 4
    assert doc["report"]["checks"]["max_pair_deviation"] <= doc["report"]["checks"]["tol"]


def test_flux_sweep_bad_cycle_exits_2(capsys):
    code = main(
        ["flux-sweep", "--structure", "gasket", "--level", "1", "--model", "peierls",
         "--cycle", "99", "--grid", "0:1:2"]
    )
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("cycle index 99") == 1
    assert "out of range" in err


def test_flux_sweep_bad_cycle_over_dense_limit_exits_2(capsys):
    # the cycle index is input, so it is checked before the dense limit
    code = main(
        ["flux-sweep", "--structure", "gasket", "--level", "8", "--model", "peierls",
         "--cycle", "99999", "--grid", "0:1:2"]
    )
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "cycle index 99999 out of range" in err
    assert "dense limit" not in err


def test_flux_sweep_bad_grid_exits_2(capsys):
    code = main(
        ["flux-sweep", "--structure", "gasket", "--level", "1", "--model", "peierls",
         "--grid", "zero-to-pi"]
    )
    assert code == EXIT_INPUT
    capsys.readouterr()


# ---------------------------------------------------------------------------
# converge


def test_converge_json(capsys):
    code, doc = run_json(
        capsys,
        ["converge", "--structure", "gasket", "--levels", "1,2,3", "--k", "4",
         "--model", "peierls"],
    )
    assert code == EXIT_PASS
    check_envelope(doc, "converge")
    assert doc["report"]["levels"] == [1, 2, 3]
    assert len(doc["report"]["eigenvalues"]) == 3
    assert len(doc["report"]["relative_diffs"]) == 2


def test_converge_unsorted_levels_exit_2(capsys):
    code = main(
        ["converge", "--structure", "gasket", "--levels", "3,1", "--model", "peierls"]
    )
    assert code == EXIT_INPUT
    capsys.readouterr()


def test_converge_bad_cycle_exits_2(capsys):
    code = main(
        ["converge", "--structure", "gasket", "--levels", "1,2", "--model", "peierls",
         "--field", "cycle:99:1"]
    )
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "cycle index 99" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["flux-sweep", "--structure", "circle", "--level", "3", "--model", "peierls",
         "--grid", "0:1:2"],
        ["converge", "--structure", "gasket", "--levels", "1,2", "--k", "3", "--model", "peierls"],
    ],
)
def test_measure_metadata_echoes_spec(argv, capsys):
    code, doc = run_json(capsys, argv + ["--measure", "uniform"])
    assert code == EXIT_PASS
    assert doc["report"]["metadata"]["measure"] == "uniform"


# ---------------------------------------------------------------------------
# audit


def test_audit_passes_on_gasket(capsys):
    code, doc = run_json(
        capsys,
        ["audit", "--structure", "gasket", "--level", "2", "--trials", "40",
         "--balls", "20"],
    )
    assert code == EXIT_PASS
    check_envelope(doc, "audit")
    assert doc["verdict"] == "PASS"
    assert doc["report"]["klmn"]["epsilon"] == pytest.approx(0.875)
    assert doc["report"]["klmn"]["violations"] == 0
    assert doc["report"]["passed"] is True
    assert doc["config"]["field"] == "random:42"


def test_audit_small_margin_exits_2(capsys):
    for margin in ("4", "nan"):
        code = main(["audit", "--structure", "gasket", "--level", "1", "--M", margin])
        assert code == EXIT_INPUT
        assert "20/3" in capsys.readouterr().err


def test_audit_radii_are_echoed(capsys):
    code, doc = run_json(
        capsys,
        ["audit", "--structure", "gasket", "--level", "1", "--trials", "5", "--balls", "3",
         "--radii", "0.5,0.25"],
    )
    assert code == EXIT_PASS
    assert doc["config"]["radii"] == "0.5,0.25"
    assert doc["report"]["details"]["radii"] == [0.5, 0.25]
    assert [r for r, _ in doc["report"]["m_profile"]] == [0.5, 0.25]


# ---------------------------------------------------------------------------
# gauge-check


@pytest.mark.parametrize("model", ["peierls", "linearized"])
def test_gauge_check_passes(model, capsys):
    code, doc = run_json(
        capsys,
        ["gauge-check", "--structure", "gasket", "--level", "2", "--model", model],
    )
    assert code == EXIT_PASS
    check_envelope(doc, "gauge-check")
    assert doc["verdict"] == "PASS"


# ---------------------------------------------------------------------------
# trace-check


def test_trace_check(capsys):
    code, doc = run_json(
        capsys,
        ["trace-check", "--structure", "gasket", "--level", "3"],
    )
    assert code == EXIT_PASS
    check_envelope(doc, "trace-check")
    assert doc["verdict"] == "PASS"
    assert len(doc["report"]["compatibility"]) == 3
    assert doc["report"]["iterated_vs_direct"]["max_deviation"] <= 1e-9


def test_trace_check_level_zero_exits_2(capsys):
    code = main(["trace-check", "--structure", "gasket", "--level", "0"])
    assert code == EXIT_INPUT
    capsys.readouterr()


# ---------------------------------------------------------------------------
# hodge


def test_hodge_decomposition(capsys):
    code, doc = run_json(
        capsys,
        ["hodge", "--structure", "gasket", "--level", "2", "--field", "random:3"],
    )
    assert code == EXIT_PASS
    check_envelope(doc, "hodge")
    assert doc["verdict"] == "PASS"
    rep = doc["report"]
    assert rep["cycles"] == 13
    assert rep["orthogonality_residual"] < 1e-8
    assert rep["pythagoras_residual"] < 1e-8
    assert rep["total_norm_sq"] == pytest.approx(
        rep["exact_norm_sq"] + rep["coulomb_norm_sq"], rel=1e-9
    )
    assert len(rep["exact"]) == rep["edges"]


# ---------------------------------------------------------------------------
# zero-mode


def test_zero_mode_full_flux_quantum(capsys):
    code, doc = run_json(
        capsys,
        ["zero-mode", "--structure", "gasket", "--level", "2",
         "--field", f"cycle:0:{TWO_PI}"],
    )
    assert code == EXIT_PASS
    assert doc["verdict"] == "PASS"
    assert doc["report"]["zero_mode"] is True
    assert doc["report"]["fluxes_integral"] is True
    assert doc["report"]["ground_energy"] < 1e-9


def test_zero_mode_enforces_spread_tol(capsys):
    # the ground state of a full flux quantum has constant modulus only up to roundoff
    code, doc = run_json(
        capsys,
        ["zero-mode", "--structure", "gasket", "--level", "2",
         "--field", f"cycle:0:{TWO_PI}", "--spread-tol", "0"],
    )
    assert code == EXIT_FAIL
    assert doc["verdict"] == "FAIL"
    assert doc["report"]["zero_mode"] is True
    assert doc["report"]["fluxes_integral"] is True
    assert doc["report"]["modulus_spread"] > 0.0
    assert doc["report"]["consistent"] is False


def test_zero_mode_half_flux_consistent(capsys):
    code, doc = run_json(
        capsys,
        ["zero-mode", "--structure", "gasket", "--level", "2",
         "--field", f"cycle:0:{np.pi}"],
    )
    assert code == EXIT_PASS  # no zero mode, but consistent with the flux test
    assert doc["report"]["zero_mode"] is False
    assert doc["report"]["fluxes_integral"] is False
    assert doc["report"]["ground_energy"] > 1e-3


def test_hodge_has_no_measure_option(capsys):
    # the splitting does not depend on a vertex measure, so none is accepted
    with pytest.raises(SystemExit) as exc:
        main(["hodge", "--structure", "gasket", "--level", "1", "--measure", "0.9,0.05,0.05"])
    assert exc.value.code == EXIT_INPUT
    assert "--measure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve


def test_solve_boundary_pinned(capsys):
    code, doc = run_json(
        capsys,
        ["solve", "--structure", "interval", "--level", "3", "--model", "peierls",
         "--dirichlet", "boundary", "--rhs", "delta:4"],
    )
    assert code == EXIT_PASS
    check_envelope(doc, "solve")
    assert doc["verdict"] == "PASS"
    rep = doc["report"]
    assert rep["residual"] <= rep["tol"] * rep["scale"]
    values = rep["u"]
    assert len(values) == 9
    for i in rep["dirichlet"]:
        assert values[i] == [0.0, 0.0]  # pinned ends stay zero
    assert rep["labels"] == ["L", "R"]


def test_solve_assembles_once(tmp_path, monkeypatch, capsys):
    # the Dirichlet block, the residual, its scale and the export all come from one assembly
    assemble = magres.magnetic.assemble
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    for module in (magres.cli, magres.magnetic):
        monkeypatch.setattr(module, "assemble", counted)
    code = main(
        ["solve", "--structure", "gasket", "--level", "3", "--model", "peierls", "--field", "random:4",
         "--dirichlet", "boundary", "--rhs", "delta:7", "--export-matrix", str(tmp_path / "m.json")]
    )
    capsys.readouterr()
    assert code == EXIT_PASS
    assert len(calls) == 1


def test_solve_rhs_file_with_complex_pairs(tmp_path, capsys):
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps([[0.0, 0.0], [1.0, 0.5], [0.0, 0.0]]), encoding="utf-8")
    code, doc = run_json(
        capsys,
        ["solve", "--structure", "interval", "--level", "1", "--model", "linearized",
         "--field", "constant:0.2", "--dirichlet", "0,2", "--rhs", str(rhs)],
    )
    assert code == EXIT_PASS
    assert doc["verdict"] == "PASS"


def test_solve_bad_rhs_exits_2(capsys):
    code = main(
        ["solve", "--structure", "interval", "--level", "1", "--model", "peierls",
         "--dirichlet", "boundary", "--rhs", "impulse:everywhere"]
    )
    assert code == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--structure", "gasket", "--level", "1", "--model", "peierls",
         "--dirichlet", "0", "--rhs", "constant:nan"],
        ["solve", "--structure", "gasket", "--level", "1", "--model", "peierls",
         "--dirichlet", "0", "--rhs", "constant:inf"],
        ["solve", "--structure", "gasket", "--level", "1", "--model", "peierls",
         "--dirichlet", "0", "--rhs", "constant:-inf"],
        ["hodge", "--structure", "gasket", "--level", "1", "--field", "constant:nan"],
        ["hodge", "--structure", "gasket", "--level", "1", "--field", "cycle:0:inf"],
        ["spectrum", "--structure", "gasket", "--level", "1", "--model", "peierls",
         "--field", "constant:nan"],
        ["zero-mode", "--structure", "gasket", "--level", "1", "--field", "cycle:0:nan"],
    ],
)
def test_non_finite_input_exits_2(argv, capsys):
    assert main(argv) == EXIT_INPUT
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--structure", "gasket", "--level", "1", "--model", "linearized",
         "--field", "constant:1e200"],
        ["solve", "--structure", "gasket", "--level", "1", "--model", "linearized",
         "--field", "constant:1e200", "--dirichlet", "boundary", "--rhs", "delta:3"],
    ],
    ids=lambda argv: argv[0],
)
def test_overflowing_field_exits_2(argv, capsys):
    # a finite field whose squared amplitudes overflow is refused as input, without numpy warnings
    assert main(argv) == EXIT_INPUT
    assert "overflows the assembled matrix" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "[1.0, NaN]"])
def test_solve_non_finite_rhs_file_exits_2(value, tmp_path, capsys):
    rhs = tmp_path / "rhs.json"
    rhs.write_text(f"[0.0, {value}, 0.0]", encoding="utf-8")
    code = main(
        ["solve", "--structure", "interval", "--level", "1", "--model", "peierls",
         "--dirichlet", "0,2", "--rhs", str(rhs)]
    )
    assert code == EXIT_INPUT
    assert "finite" in capsys.readouterr().err


def test_solve_export_over_dense_limit_refused_before_solving(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a system whose export exceeds the dense limit")

    monkeypatch.setattr(magres.cli, "dirichlet_solve", no_solve)
    out = tmp_path / "matrix.json"
    code = main(
        ["solve", "--structure", "gasket", "--level", "8", "--model", "peierls",
         "--dirichlet", "boundary", "--rhs", "delta:0", "--export-matrix", str(out)]
    )
    assert code == EXIT_INPUT
    assert "level 8 has 9843 vertices; dense limit is 4096" in capsys.readouterr().err
    assert not out.exists()


AUDIT = ["audit", "--structure", "gasket", "--level", "1", "--radii"]
SOLVE = ["solve", "--structure", "gasket", "--level", "1", "--model", "peierls"]
SWEEP = ["flux-sweep", "--structure", "circle", "--level", "2", "--model", "peierls", "--grid"]
NOT_A_LIST = '{"vertices": [0]}'
MALFORMED = "[1, 2"


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (AUDIT + ["0.5,abc"], "radii '0.5,abc'"),
        (AUDIT + ["0,1"], "radii must be positive"),
        (AUDIT + ["nan"], "radii must be positive and finite"),
        (SOLVE + ["--rhs", "delta:0", "--dirichlet", "99"], "vertex 99 out of range"),
        (SOLVE + ["--rhs", "delta:0", "--dirichlet", "0,x"], "vertex set '0,x'"),
        (SOLVE + ["--rhs", "delta:0", "--dirichlet", NOT_A_LIST], "expected a JSON list of vertex"),
        (SOLVE + ["--rhs", "delta:0", "--dirichlet", MALFORMED], "malformed JSON"),
        (SOLVE + ["--dirichlet", "0", "--rhs", "delta:abc"], "rhs 'delta:abc'"),
        (SOLVE + ["--dirichlet", "0", "--rhs", "delta:999"], "rhs vertex 999 out of range"),
        (SOLVE + ["--dirichlet", "0", "--rhs", "constant:abc"], "rhs 'constant:abc'"),
        (SOLVE + ["--dirichlet", "0", "--rhs", MALFORMED], "malformed JSON"),
        (SOLVE + ["--dirichlet", "0", "--rhs", NOT_A_LIST], "expected a JSON list of 6 values"),
        (SWEEP + ["0:1"], "must have the form start:stop:count"),
        (SWEEP + ["0:1:0"], "grid count must be at least 1"),
        (SWEEP + ["0:inf:3"], "grid endpoints must be finite"),
        (SWEEP + ["a:1:3"], "grid 'a:1:3'"),
        (["converge", "--structure", "gasket", "--levels", "1,x", "--model", "peierls"],
         "levels '1,x'"),
    ],
)
def test_malformed_option_exits_2(argv, fragment, tmp_path, capsys):
    # a JSON text in the argument list stands for a file holding it
    files = {MALFORMED: tmp_path / "malformed.json", NOT_A_LIST: tmp_path / "not_a_list.json"}
    for text, path in files.items():
        path.write_text(text, encoding="utf-8")
    argv = [str(files[a]) if a in files else a for a in argv]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert fragment in err
    assert "Traceback" not in err


def test_solve_empty_pinned_set_exits_2(capsys):
    code = main(
        ["solve", "--structure", "interval", "--level", "1", "--model", "peierls",
         "--dirichlet", "", "--rhs", "delta:0"]
    )
    assert code == EXIT_INPUT
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determinism and the installed entry point


def test_spectrum_reruns_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["spectrum", "--structure", "gasket", "--level", "2", "--model", "peierls",
            "--field", "random:5"]
    assert main(argv + ["--output", str(out1)]) == EXIT_PASS
    assert main(argv + ["--output", str(out2)]) == EXIT_PASS
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entry_point_runs():
    exe = shutil.which("magres")
    if exe is None:
        cmd = [sys.executable, "-m", "magres.cli"]
    else:
        cmd = [exe]
    # the child process imports the same package as this test, installed or not
    src = str(Path(magres.cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        cmd + ["spectrum", "--structure", "circle", "--level", "2", "--model", "peierls"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p)),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "spectrum"

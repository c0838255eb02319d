"""Acceptance suite: one test per required end-to-end property.

Each numbered test exercises one acceptance property at its stated
tolerance and (where stated) runtime budget, so a verbose run prints one
pass/fail line per property.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from magres import (
    MagneticModel,
    ResistanceNetwork,
    assemble,
    bundled_structure,
    check_resistance_estimate,
    conductance_deviation,
    cycle_basis,
    cycle_field,
    cycle_fluxes,
    derivation,
    energy,
    gauge_transform,
    harmonic_extension,
    hermitian_eigs,
    hodge_decompose,
    inner,
    klmn_audit,
    module_action,
    poincare_check,
    refine,
    resistance_matrix,
    spectrum,
    trace_to,
    verify_compatibility,
    vertex_measure,
    zero_mode_test,
)
from magres.cli import EXIT_PASS, main
from conftest import random_connected_network

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def gasket3():
    ref = refine(bundled_structure("gasket"), 3)
    return ref, vertex_measure(ref)


# ---------------------------------------------------------------------------
# 01: iterated Schur traces equal direct traces


def test_01_iterated_traces_match_direct():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(4, 41))
        net = random_connected_network(rng, n)
        v2_size = int(rng.integers(3, n))
        v2 = sorted(rng.choice(n, size=v2_size, replace=False).tolist())
        v1_size = int(rng.integers(2, v2_size))
        v1_pos = sorted(rng.choice(v2_size, size=v1_size, replace=False).tolist())
        v1 = [v2[p] for p in v1_pos]

        direct = trace_to(net, v1)
        iterated = trace_to(trace_to(net, v2), v1_pos)
        scale = max(1.0, float(np.max(net.conductances)))
        assert conductance_deviation(direct, iterated) <= 1e-9 * scale
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 02: triangle renormalization fixed point


def test_02_gasket_renormalization_fixed_point():
    start = time.perf_counter()
    s = bundled_structure("gasket")
    ref = refine(s, 1)
    unit = ResistanceNetwork.from_edges(
        ref.net.vertex_count,
        [(int(i), int(j), 1.0) for i, j in zip(ref.net.tails, ref.net.heads)],
    )
    traced = trace_to(unit, list(ref.boundary))
    expected = ResistanceNetwork.from_edges(
        3, [(0, 1, 0.6), (0, 2, 0.6), (1, 2, 0.6)]
    )
    assert conductance_deviation(traced, expected) <= 1e-12
    refs = [refine(s, n) for n in range(5)]
    for coarse, fine in zip(refs, refs[1:]):
        assert verify_compatibility(coarse, fine, tol=1e-10).passed
    assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# 03: harmonic extensions keep energy constant and minimal across levels


def test_03_harmonic_energies_constant_and_minimal():
    s = bundled_structure("gasket")
    refs = [refine(s, n) for n in range(1, 5)]
    rng = np.random.default_rng(103)
    for _ in range(50):
        g = rng.standard_normal(3)
        energies = []
        for ref in refs:
            h = harmonic_extension(ref.net, list(ref.boundary), g)
            e_h = energy(ref.net, h)
            energies.append(e_h)
            z = rng.standard_normal(ref.net.vertex_count)
            z[list(ref.boundary)] = 0.0
            assert energy(ref.net, h + z) >= e_h - 1e-12 * max(1.0, e_h)
        scale = max(energies)
        if scale > 0.0:
            assert (max(energies) - min(energies)) / scale <= 1e-9


# ---------------------------------------------------------------------------
# 04: derivation isometry, Leibniz rule, Hodge splitting


def test_04_one_form_identities(gasket3):
    ref, _ = gasket3
    net = ref.net
    rng = np.random.default_rng(104)
    for _ in range(200):
        f = rng.standard_normal(net.vertex_count) + 1j * rng.standard_normal(net.vertex_count)
        g = rng.standard_normal(net.vertex_count) + 1j * rng.standard_normal(net.vertex_count)

        df, dg = derivation(net, f), derivation(net, g)
        e_f = energy(net, f)
        assert abs(inner(net, df) - e_f) <= 1e-12 * max(1.0, e_f)

        lhs = derivation(net, f * g)
        rhs = module_action(net, f, dg) + module_action(net, g, df)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-12 * scale

        w = rng.standard_normal(net.edge_count) + 1j * rng.standard_normal(net.edge_count)
        dec = hodge_decompose(net, w)
        hscale = max(1.0, dec.total_norm_sq)
        assert dec.orthogonality_residual <= 1e-10 * hscale
        assert dec.pythagoras_residual <= 1e-10 * hscale


# ---------------------------------------------------------------------------
# 05: gauge transformations preserve spectra; exact fields are removable


def test_05_gauge_invariance_of_spectra(gasket3):
    rng = np.random.default_rng(105)
    cases = [gasket3[0], refine(bundled_structure("circle"), 6)]
    for ref in cases:
        net = ref.net
        mu = vertex_measure(ref)
        base = MagneticModel(kind="peierls", field=rng.standard_normal(net.edge_count))
        w_base = hermitian_eigs(assemble(net, base, mu).symmetrized, compute_vectors=False)
        w_zero = hermitian_eigs(
            assemble(net, MagneticModel(kind="peierls", field=np.zeros(net.edge_count)), mu).symmetrized,
            compute_vectors=False,
        )
        for _ in range(50):
            lam = rng.standard_normal(net.vertex_count)
            gauged = gauge_transform(net, base, lam)
            w_gauged = hermitian_eigs(assemble(net, gauged, mu).symmetrized, compute_vectors=False)
            assert float(np.max(np.abs(w_gauged - w_base))) <= 1e-9

            exact = MagneticModel(kind="peierls", field=derivation(net, lam))
            w_exact = hermitian_eigs(assemble(net, exact, mu).symmetrized, compute_vectors=False)
            assert float(np.max(np.abs(w_exact - w_zero))) <= 1e-9


# ---------------------------------------------------------------------------
# 06: zero modes exist exactly at integral cycle fluxes


def test_06_flux_quantization(gasket3):
    ref, mu = gasket3
    net = ref.net
    basis = cycle_basis(net)
    n_cycles = len(basis.chords)
    rng = np.random.default_rng(106)
    units: dict[int, np.ndarray] = {}

    def unit(j: int) -> np.ndarray:
        if j not in units:
            units[j] = cycle_field(net, j, 1.0, basis=basis)
        return units[j]

    for _ in range(5):
        field = derivation(net, rng.standard_normal(net.vertex_count))
        for j in rng.choice(n_cycles, size=5, replace=False):
            m = int(rng.integers(-2, 3))
            field = field + TWO_PI * m * unit(int(j))
        model = MagneticModel(kind="peierls", field=np.real(field))
        rep = zero_mode_test(net, model, mu)
        assert rep.fluxes_integral
        assert rep.ground_energy < 1e-9
        assert rep.modulus_spread < 1e-6
        assert rep.zero_mode and rep.consistent

    half = MagneticModel(kind="peierls", field=np.pi * unit(0))
    rep = zero_mode_test(net, half, mu)
    flux = cycle_fluxes(net, half.field, basis)
    assert abs(flux[0] - np.pi) < 1e-9
    assert not rep.fluxes_integral
    assert rep.ground_energy > 1e-3
    assert not rep.zero_mode
    assert rep.consistent


# ---------------------------------------------------------------------------
# 07: the two magnetic models agree to second order in the field


def test_07_model_agreement_quadratic():
    ref = refine(bundled_structure("gasket"), 2)
    mu = vertex_measure(ref)
    rng = np.random.default_rng(107)
    base = rng.standard_normal(ref.net.edge_count)
    amplitudes = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    devs = []
    for t in amplitudes:
        w_p = hermitian_eigs(
            assemble(ref.net, MagneticModel(kind="peierls", field=t * base), mu).symmetrized,
            compute_vectors=False,
        )
        w_l = hermitian_eigs(
            assemble(ref.net, MagneticModel(kind="linearized", field=t * base), mu).symmetrized,
            compute_vectors=False,
        )
        devs.append(float(np.max(np.abs(w_p - w_l))))
    slope = np.polyfit(np.log(amplitudes), np.log(devs), 1)[0]
    assert 1.8 <= slope <= 2.2


# ---------------------------------------------------------------------------
# 08: relative form bound with margin 0.875 over three field strengths


def test_08_klmn_bound_zero_violations(gasket3):
    ref, mu = gasket3
    net = ref.net
    rng = np.random.default_rng(108)
    raw = rng.standard_normal(net.edge_count)
    raw_norm = np.sqrt(inner(net, raw))
    for target in (0.1, 1.0, 10.0):
        a = raw * (target / raw_norm)
        rep = klmn_audit(net, mu, a, M=8.0, trials=200, seed=108)
        assert rep.epsilon == 0.875
        assert rep.violations == 0
        assert rep.passed


# ---------------------------------------------------------------------------
# 09: resistance and ball-oscillation estimates hold with 1e-9 slack


def test_09_resistance_and_poincare_audits(gasket3):
    cases = [gasket3[0], refine(bundled_structure("interval"), 5)]
    rng = np.random.default_rng(109)
    for ref in cases:
        net = ref.net
        mu = vertex_measure(ref)
        Rmat = resistance_matrix(net)
        diam = float(Rmat.max())
        balls = [
            (int(rng.integers(net.vertex_count)), diam * float(rng.uniform(0.05, 1.0)))
            for _ in range(50)
        ]
        for _ in range(200):
            f = rng.standard_normal(net.vertex_count)
            est = check_resistance_estimate(net, f, tol=1e-9, resistances=Rmat)
            assert est.violations == 0
            poi = poincare_check(net, Rmat, mu, f, balls, tol=1e-9)
            assert poi.violations == 0


# ---------------------------------------------------------------------------
# 10: ring spectra match the circulant closed form; error shrinks 4x


def lowest_nonzero(w: np.ndarray) -> float:
    gap = 1e-8 * max(1.0, float(w[-1]))
    nz = w[w > gap]
    return float(nz[0])


def test_10_circle_circulant_oracle():
    start = time.perf_counter()
    s = bundled_structure("circle")
    for phi in (0.0, 1.0, np.pi):
        errors = []
        for level in (4, 5, 6):
            N = 2**level
            rep = spectrum(s, level, model="peierls", field=f"cycle:0:{phi}")
            k = np.arange(N)
            closed = np.sort(2.0 * N * N * (1.0 - np.cos((TWO_PI * k + phi) / N)))
            if level == 6:
                assert float(np.max(np.abs(rep.eigenvalues - closed))) <= 1e-9
            frac = phi / TWO_PI
            offsets = np.arange(-2, 3) + frac
            nonzero = offsets[np.abs(offsets) > 1e-12]
            target = (TWO_PI * float(np.min(np.abs(nonzero)))) ** 2
            errors.append(abs(lowest_nonzero(rep.eigenvalues) - target))
        assert 3.2 <= errors[0] / errors[1] <= 4.8
        assert 3.2 <= errors[1] / errors[2] <= 4.8
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 11: field-free Neumann operators have a simple constant kernel


def test_11_unique_constant_zero_mode():
    for name in ("interval", "circle", "gasket"):
        s = bundled_structure(name)
        for level in range(5):
            ref = refine(s, level)
            asm = assemble(ref.net, MagneticModel(kind="peierls", field=np.zeros(ref.net.edge_count)),
                           vertex_measure(ref))
            w, V = hermitian_eigs(asm.symmetrized)
            assert w.size == ref.net.vertex_count
            scale = max(1.0, float(w[-1]))
            same = spectrum(s, level, field="zero", boundary="neumann").eigenvalues
            assert np.allclose(w, same, rtol=0.0, atol=1e-12 * scale)
            assert abs(w[0]) <= 1e-9 * scale
            if w.size > 1:
                assert w[1] > 1e-6 * scale  # the kernel is one-dimensional
            v0 = V[:, 0] / np.sqrt(asm.mass)
            assert np.max(np.abs(v0 - np.mean(v0))) <= 1e-8 * np.max(np.abs(v0))


# ---------------------------------------------------------------------------
# 12: the CLI suite is byte-for-byte deterministic


SUITE = [
    ["build", "--structure", "gasket", "--level", "2", "--out-dir", "artifacts",
     "--output", "01-build.json"],
    ["spectrum", "--structure", "gasket", "--level", "3", "--model", "peierls",
     "--field", "random:11", "--output", "02-spectrum.json"],
    ["spectrum", "--structure", "circle", "--level", "4", "--model", "linearized",
     "--field", "constant:0.3", "--format", "csv", "--output", "03-spectrum.csv"],
    ["flux-sweep", "--structure", "circle", "--level", "3", "--model", "peierls",
     "--grid", f"0:{TWO_PI}:7", "--k", "4", "--output", "04-sweep.json"],
    ["converge", "--structure", "gasket", "--levels", "1,2,3", "--k", "4",
     "--model", "peierls", "--output", "05-converge.json"],
    ["audit", "--structure", "gasket", "--level", "2", "--trials", "60",
     "--balls", "25", "--seed", "42", "--output", "06-audit.json"],
    ["gauge-check", "--structure", "gasket", "--level", "2", "--model", "peierls",
     "--seed", "7", "--output", "07-gauge.json"],
    ["trace-check", "--structure", "gasket", "--level", "2", "--output", "08-trace.json"],
    ["hodge", "--structure", "gasket", "--level", "2", "--field", "random:3",
     "--output", "09-hodge.json"],
    ["zero-mode", "--structure", "gasket", "--level", "2",
     "--field", f"cycle:0:{TWO_PI}", "--output", "10-zero.json"],
    ["solve", "--structure", "interval", "--level", "3", "--model", "peierls",
     "--dirichlet", "boundary", "--rhs", "delta:4",
     "--export-matrix", "11-matrix.json", "--output", "11-solve.json"],
]


def run_suite(root: Path, monkeypatch) -> dict[str, bytes]:
    root.mkdir()
    monkeypatch.chdir(root)
    for argv in SUITE:
        assert main(list(argv)) == EXIT_PASS, f"suite command failed: {argv}"
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_12_cli_suite_byte_identical(tmp_path, monkeypatch):
    first = run_suite(tmp_path / "run1", monkeypatch)
    second = run_suite(tmp_path / "run2", monkeypatch)
    assert sorted(first) == sorted(second)
    # one report per command, plus three build artifacts and one exported matrix
    assert len(first) == len(SUITE) + 4
    for name in first:
        assert first[name] == second[name], f"nondeterministic output: {name}"
    # reports parse and carry passing verdicts
    for name, blob in first.items():
        if name.endswith(".json") and not name.startswith("artifacts"):
            doc = json.loads(blob.decode("utf-8"))
            if "verdict" in doc:
                assert doc["verdict"] == "PASS"

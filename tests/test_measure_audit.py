"""Geometric and functional-inequality audit checks."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from magres import (
    KLMNReport,
    MeasureAuditReport,
    ResistanceNetwork,
    doubling_estimate,
    dyadic_radii,
    fa_bound_audit,
    full_audit,
    inner,
    klmn_audit,
    lower_mass_profile,
    metric_doubling_estimate,
    poincare_check,
    refine,
    resistance_matrix,
    sup_bound_audit,
    sup_ratio,
    vertex_measure,
)


def triangle() -> ResistanceNetwork:
    return ResistanceNetwork.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def unit_edge() -> ResistanceNetwork:
    return ResistanceNetwork.from_edges(2, [(0, 1, 1.0)])


@pytest.fixture(scope="module")
def gasket2(gasket):
    ref = refine(gasket, 2)
    return ref.net, vertex_measure(ref)


# ---------------------------------------------------------------------------
# radii helpers


def test_dyadic_radii_halve():
    assert dyadic_radii(1.0) == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
    assert dyadic_radii(2.0)[:2] == [2.0, 1.0]


def test_dyadic_radii_rejects_bad_diameter():
    with pytest.raises(ValueError):
        dyadic_radii(0.0)
    with pytest.raises(ValueError):
        dyadic_radii(-1.0)


def test_empty_or_nonpositive_radii_rejected():
    net = triangle()
    Rmat = resistance_matrix(net)
    with pytest.raises(ValueError):
        lower_mass_profile(net, Rmat, np.ones(3), [])
    with pytest.raises(ValueError):
        lower_mass_profile(net, Rmat, np.ones(3), [0.5, -0.1])


# ---------------------------------------------------------------------------
# mass and doubling profiles


def test_lower_mass_triangle_uniform():
    # R(x, y) = 2/3 between any two distinct triangle vertices
    net = triangle()
    Rmat = resistance_matrix(net)
    mu = np.full(3, 1.0 / 3.0)
    profile = lower_mass_profile(net, Rmat, mu, [2.0 / 3.0, 0.5, 0.01])
    assert profile[0][1] == pytest.approx(1.0)  # full ball
    assert profile[1][1] == pytest.approx(1.0 / 3.0)  # singleton ball
    assert profile[2][1] == pytest.approx(1.0 / 3.0)


def test_lower_mass_at_diameter_is_total_mass(gasket2):
    net, mu = gasket2
    Rmat = resistance_matrix(net)
    diam = Rmat.max()
    profile = lower_mass_profile(net, Rmat, mu, [diam])
    assert profile[0][1] == pytest.approx(float(np.sum(mu.mass)), rel=1e-12)


def test_lower_mass_profile_nondecreasing(gasket2):
    net, mu = gasket2
    Rmat = resistance_matrix(net)
    radii = sorted(dyadic_radii(float(Rmat.max())))
    values = [m for _, m in lower_mass_profile(net, Rmat, mu, radii)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    assert min(values) >= float(np.min(mu.mass)) - 1e-15


def test_doubling_ratios_at_least_one(gasket2):
    net, mu = gasket2
    Rmat = resistance_matrix(net)
    diam = float(Rmat.max())
    profile = doubling_estimate(net, Rmat, mu, dyadic_radii(diam))
    assert all(ratio >= 1.0 for _, ratio in profile)
    assert profile[0][1] == pytest.approx(1.0)  # doubling a full ball changes nothing


def test_metric_doubling_single_edge():
    net = unit_edge()
    Rmat = resistance_matrix(net)
    assert metric_doubling_estimate(net, Rmat, dyadic_radii(1.0)) == 2


def test_metric_doubling_bounded_on_gasket(gasket2):
    net, _ = gasket2
    Rmat = resistance_matrix(net)
    est = metric_doubling_estimate(net, Rmat, dyadic_radii(float(Rmat.max())))
    assert 1 <= est <= net.vertex_count


# ---------------------------------------------------------------------------
# Poincaré oscillation bound


def test_poincare_constant_function_passes():
    net = triangle()
    Rmat = resistance_matrix(net)
    rep = poincare_check(net, Rmat, np.ones(3), np.full(3, 2.5), [(0, 1.0)])
    assert rep.passed
    assert rep.worst_ratio == 0.0
    assert rep.worst_case is None
    assert rep.ball_count == 1


def test_poincare_single_edge_half_ratio():
    # f = (0, 1), uniform mass, ball of radius 1 around either end:
    # average 1/2, deviation 1/2, energy 1 -> ratio exactly 1/2
    net = unit_edge()
    Rmat = resistance_matrix(net)
    rep = poincare_check(net, Rmat, np.ones(2), np.array([0.0, 1.0]), [(0, 1.0)])
    assert rep.worst_ratio == pytest.approx(0.5, rel=1e-12)
    assert rep.violations == 0
    assert rep.passed


def test_poincare_no_violations_on_gasket(gasket2):
    net, mu = gasket2
    Rmat = resistance_matrix(net)
    diam = float(Rmat.max())
    rng = np.random.default_rng(0)
    balls = [
        (int(rng.integers(net.vertex_count)), diam * float(rng.uniform(0.1, 1.0)))
        for _ in range(50)
    ]
    for _ in range(5):
        f = rng.standard_normal(net.vertex_count)
        rep = poincare_check(net, Rmat, mu, f, balls)
        assert rep.passed
        assert rep.worst_ratio <= 1.0 + rep.tol


def test_poincare_rejects_bad_balls():
    net = unit_edge()
    Rmat = resistance_matrix(net)
    with pytest.raises(ValueError):
        poincare_check(net, Rmat, np.ones(2), np.array([0.0, 1.0]), [(0, -1.0)])
    with pytest.raises(ValueError):
        poincare_check(net, Rmat, np.ones(2), np.array([0.0, 1.0]), [(7, 1.0)])


# ---------------------------------------------------------------------------
# sup-norm embedding


def test_sup_ratio_constant_probability_measure():
    net = triangle()
    assert sup_ratio(net, np.full(3, 1.0 / 3.0), np.ones(3)) == 1.0


def test_sup_ratio_indicator_is_finite_positive(gasket2):
    net, mu = gasket2
    v = int(np.argmin(mu.mass))
    f = np.zeros(net.vertex_count)
    f[v] = 1.0
    r = sup_ratio(net, mu, f)
    assert np.isfinite(r)
    assert r > 0.0


def test_sup_ratio_rejects_zero_function():
    net = triangle()
    with pytest.raises(ValueError):
        sup_ratio(net, np.ones(3), np.zeros(3))


def test_sup_bound_constant_dominates_constant_probe(gasket2):
    net, mu = gasket2
    rep = sup_bound_audit(net, mu, trials=50, seed=7)
    total = float(np.sum(mu.mass))
    assert rep.constant >= 1.0 / np.sqrt(total) - 1e-12
    assert rep.trials == 50
    assert rep.seed == 7
    assert 0 <= rep.worst_trial <= 50


def test_sup_bound_reproducible(gasket2):
    net, mu = gasket2
    a = sup_bound_audit(net, mu, trials=40, seed=3)
    b = sup_bound_audit(net, mu, trials=40, seed=3)
    assert a == b


def test_sup_bound_needs_trials():
    net = triangle()
    with pytest.raises(ValueError):
        sup_bound_audit(net, np.ones(3), trials=0)


# ---------------------------------------------------------------------------
# multiplication bound


def test_fa_bound_zero_field_zero_constant():
    net = triangle()
    rep = fa_bound_audit(net, np.ones(3), np.zeros(3), M=8.0)
    assert rep.constant == 0.0
    assert rep.max_violation == 0.0
    assert rep.a_norm_sq == 0.0


def test_fa_bound_constant_probe_floor(gasket2):
    # the constant trial has zero energy, forcing C >= 1 / total mass
    net, mu = gasket2
    a = np.full(net.edge_count, 0.3)
    rep = fa_bound_audit(net, mu, a, M=8.0, trials=60, seed=1)
    total = float(np.sum(mu.mass))
    assert rep.constant >= 1.0 / total - 1e-12
    assert rep.max_violation <= 1e-12
    assert rep.a_norm_sq == pytest.approx(inner(net, a), rel=1e-12)


def test_fa_bound_rejects_bad_M():
    net = triangle()
    with pytest.raises(ValueError):
        fa_bound_audit(net, np.ones(3), np.ones(3), M=0.0)
    with pytest.raises(ValueError):
        fa_bound_audit(net, np.ones(3), np.ones(3), M=float("nan"))


# ---------------------------------------------------------------------------
# relative form bound


def test_klmn_rejects_small_margin_parameter(gasket2):
    net, mu = gasket2
    a = np.full(net.edge_count, 0.1)
    with pytest.raises(ValueError):
        klmn_audit(net, mu, a, M=4.0)
    with pytest.raises(ValueError):
        klmn_audit(net, mu, a, M=20.0 / 3.0)
    with pytest.raises(ValueError, match="20/3"):
        klmn_audit(net, mu, a, M=float("nan"))


def test_klmn_refuses_an_overflowing_right_hand_side(gasket2):
    # C * |f|^2_mu overflows just below the form-norm refusal; the slack
    # would be NaN and the verdict meaningless
    net, mu = gasket2
    with pytest.raises(ValueError, match="right-hand side inf is not finite"):
        klmn_audit(net, mu, np.full(net.edge_count, 1e153), M=8.0, trials=20)


def test_klmn_epsilon_and_constant(gasket2):
    net, mu = gasket2
    rng = np.random.default_rng(2)
    a = rng.standard_normal(net.edge_count)
    rep = klmn_audit(net, mu, a, M=8.0, trials=60, seed=5)
    assert rep.epsilon == pytest.approx(0.875, rel=1e-15)
    assert rep.epsilon < 1.0
    assert rep.violations == 0
    assert rep.passed
    assert rep.max_violation <= rep.tol
    fa_rep = fa_bound_audit(net, mu, a, M=8.0, trials=60, seed=5)
    assert rep.constant == pytest.approx(5.0 * fa_rep.constant * fa_rep.a_norm_sq)
    assert rep.fa_constant == fa_rep.constant


def test_klmn_margin_shrinks_with_larger_M(gasket2):
    net, mu = gasket2
    a = np.full(net.edge_count, 0.2)
    loose = klmn_audit(net, mu, a, M=7.0, trials=30, seed=9)
    tight = klmn_audit(net, mu, a, M=1000.0, trials=30, seed=9)
    assert tight.epsilon < loose.epsilon
    assert tight.epsilon == pytest.approx(0.255, rel=1e-12)
    assert loose.passed and tight.passed


def test_klmn_reproducible(gasket2):
    net, mu = gasket2
    a = np.full(net.edge_count, 0.4)
    r1 = klmn_audit(net, mu, a, M=8.0, trials=40, seed=11)
    r2 = klmn_audit(net, mu, a, M=8.0, trials=40, seed=11)
    assert r1 == r2


# ---------------------------------------------------------------------------
# combined audit


def test_full_audit_passes_on_gasket(gasket2):
    net, mu = gasket2
    rng = np.random.default_rng(3)
    a = 0.5 * rng.standard_normal(net.edge_count)
    rep = full_audit(net, mu, a, M=8.0, trials=60, seed=42, ball_count=30)
    assert rep.passed
    assert rep.klmn.passed
    assert rep.worst_poincare_ratio <= 1.0
    assert rep.metric_doubling >= 1
    assert rep.m_profile[0][1] == pytest.approx(float(np.sum(mu.mass)), rel=1e-12)
    assert rep.doubling_profile[0][1] == pytest.approx(1.0)
    assert rep.details["diameter"] > 0
    assert len(rep.details["radii"]) == len(rep.m_profile)
    assert rep.details["c_mu"] >= 1.0
    assert rep.details["poincare_violations"] == 0


def test_full_audit_reproducible(gasket2):
    net, mu = gasket2
    a = np.full(net.edge_count, 0.25)
    r1 = full_audit(net, mu, a, M=8.0, trials=30, seed=6, ball_count=20)
    r2 = full_audit(net, mu, a, M=8.0, trials=30, seed=6, ball_count=20)
    assert dataclasses.asdict(r1) == dataclasses.asdict(r2)


def test_full_audit_rejects_zero_diameter():
    net = ResistanceNetwork.from_edges(1, [])
    with pytest.raises(ValueError):
        full_audit(net, np.ones(1), np.zeros(0))


def test_report_invariants_enforced():
    klmn = KLMNReport(
        epsilon=0.875,
        constant=1.0,
        fa_constant=0.1,
        M=8.0,
        max_violation=0.0,
        worst_slack=-0.5,
        violations=0,
        trials=10,
        seed=0,
        tol=1e-9,
        passed=True,
    )
    with pytest.raises(ValueError):
        MeasureAuditReport(
            m_profile=[(1.0, 0.5)],
            doubling_profile=[(1.0, 0.5)],  # ratio below 1 is impossible
            metric_doubling=1,
            worst_poincare_ratio=0.5,
            sup_bound_constant=1.0,
            klmn=klmn,
            passed=True,
        )
    with pytest.raises(ValueError):
        MeasureAuditReport(
            m_profile=[(1.0, -0.5)],
            doubling_profile=[(1.0, 1.5)],
            metric_doubling=1,
            worst_poincare_ratio=0.5,
            sup_bound_constant=1.0,
            klmn=klmn,
            passed=True,
        )

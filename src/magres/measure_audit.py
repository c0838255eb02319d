"""Geometric and functional-inequality audits on weighted networks.

Quantitative checks, on a finite resistance network with a vertex measure,
of the hypotheses behind the magnetic form theory: lower mass bounds and
measure doubling on resistance balls, metric doubling (covering counts), a
Poincaré-type oscillation bound on balls, the sup-norm embedding constant,
the multiplication bound ``|fa|^2 <= E(f)/M + C_aM |a|^2 |f|^2_mu``, and
the resulting relative form bound ``|B(f)| <= eps E(f) + C |f|^2_mu`` with
``eps = 1/4 + 5/M < 1``.

All infima and suprema run over network vertices, the points carrying
discrete mass.  Random trial functions have independent standard normal
real and imaginary parts from a seeded generator, and every trial ensemble
leads with the constant function, so reported constants dominate the
constant case exactly.  The multiplication-bound constant and the form
bound are evaluated on the *same* seeded ensemble, which makes the chained
inequality hold trial-by-trial up to roundoff.  Inequality checks use
relative slack 1e-9 by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .magnetic import MagneticModel, _mass_vector, magnetic_energy
from .network import ResistanceNetwork, energy, resistance_matrix
from .oneforms import inner, module_action

__all__ = [
    "lower_mass_profile",
    "doubling_estimate",
    "metric_doubling_estimate",
    "PoincareReport",
    "poincare_check",
    "sup_ratio",
    "SupBoundReport",
    "sup_bound_audit",
    "FaBoundReport",
    "fa_bound_audit",
    "KLMNReport",
    "klmn_audit",
    "MeasureAuditReport",
    "full_audit",
    "dyadic_radii",
]

#: Smallest admissible margin parameter for the relative form bound:
#: ``eps = 1/4 + 5/M`` stays below 1 exactly when ``M > 20/3``.
MIN_KLMN_M = 20.0 / 3.0

DEFAULT_SLACK = 1e-9

#: Number of dyadic radii ``diameter / 2^k`` the audit samples by default.
DYADIC_RADIUS_COUNT = 6


def _mu_norm_sq(mass: np.ndarray, f: np.ndarray) -> float:
    return float(np.sum(mass * np.abs(f) ** 2))


def _check_radii(radii) -> list[float]:
    out = [float(r) for r in radii]
    if not out:
        raise ValueError("need at least one radius")
    if any(not np.isfinite(r) or r <= 0.0 for r in out):
        raise ValueError("radii must be positive and finite")
    return out


def dyadic_radii(diameter: float) -> list[float]:
    """Radii ``diameter / 2^k`` for ``k = 0 .. DYADIC_RADIUS_COUNT - 1``."""
    diameter = float(diameter)
    if diameter <= 0.0:
        raise ValueError("diameter must be positive")
    return [diameter * 0.5**k for k in range(DYADIC_RADIUS_COUNT)]


def lower_mass_profile(net: ResistanceNetwork, Rmat, mu, radii):
    """Uniform lower mass bound ``m(r) = min_x mu(B(x, r))`` per radius.

    Balls are closed resistance balls; the result is a list of ``(r, m(r))``
    pairs in input order, nondecreasing in ``r``.
    """
    mass = _mass_vector(net, mu)
    Rmat = np.asarray(Rmat, dtype=np.float64)
    out = []
    for r in _check_radii(radii):
        ball_mass = (Rmat <= r) @ mass
        out.append((r, float(ball_mass.min())))
    return out


def doubling_estimate(net: ResistanceNetwork, Rmat, mu, radii):
    """Worst measure-doubling ratio ``sup_x mu(B(x,2r)) / mu(B(x,r))`` per radius.

    Every ratio is at least 1; the maximum over the sampled radii estimates
    the doubling constant of the measure.
    """
    mass = _mass_vector(net, mu)
    Rmat = np.asarray(Rmat, dtype=np.float64)
    out = []
    for r in _check_radii(radii):
        inner_mass = (Rmat <= r) @ mass
        outer_mass = (Rmat <= 2.0 * r) @ mass
        out.append((r, float(np.max(outer_mass / inner_mass))))
    return out


def metric_doubling_estimate(net: ResistanceNetwork, Rmat, radii) -> int:
    """Covering-count estimate: radius-``r`` balls needed to cover any ``B(x, 2r)``.

    For each center and radius, a maximal ``r``-separated subset of
    ``B(x, 2r)`` is grown greedily in ascending vertex order; balls of
    radius ``r`` around those points cover ``B(x, 2r)``, so the largest
    count over all centers and sampled radii bounds the covering number.
    """
    Rmat = np.asarray(Rmat, dtype=np.float64)
    best = 1
    for r in _check_radii(radii):
        for x in range(net.vertex_count):
            ball2 = np.nonzero(Rmat[x] <= 2.0 * r)[0]
            kept: list[int] = []
            for v in ball2:
                if all(Rmat[v, u] > r for u in kept):
                    kept.append(int(v))
            if len(kept) > best:
                best = len(kept)
    return best


@dataclass(frozen=True)
class PoincareReport:
    """Worst oscillation-vs-energy ratio of one function over sampled balls.

    The per-point ratio is ``|f(x) - f_B| / sqrt(E(f) * r)`` for ``x`` in the
    closed ball ``B = B(center, r)``, with ``f_B`` the mass-weighted average
    of ``f`` over ``B``.  A point violates when its ratio exceeds
    ``1 + tol``; a constant function scores 0 on every ball.
    """

    worst_ratio: float
    worst_case: tuple[int, float, int] | None
    ball_count: int
    violations: int
    tol: float
    passed: bool


def poincare_check(
    net: ResistanceNetwork,
    Rmat,
    mu,
    f,
    balls,
    tol: float = DEFAULT_SLACK,
) -> PoincareReport:
    """Check ``|f(x) - f_B| <= sqrt(E(f) * r)`` on the given (center, radius) balls."""
    mass = _mass_vector(net, mu)
    Rmat = np.asarray(Rmat, dtype=np.float64)
    f = np.asarray(f)
    net._check_vertex_values(f)
    e = energy(net, f)
    worst = 0.0
    worst_case: tuple[int, float, int] | None = None
    violations = 0
    count = 0
    for center, radius in balls:
        center = int(center)
        radius = float(radius)
        if radius <= 0.0:
            raise ValueError("ball radii must be positive")
        if not 0 <= center < net.vertex_count:
            raise ValueError(f"ball center {center} out of range")
        count += 1
        idx = np.nonzero(Rmat[center] <= radius)[0]
        bmass = mass[idx]
        avg = np.sum(bmass * f[idx]) / np.sum(bmass)
        dev = np.abs(f[idx] - avg)
        if e <= 0.0:
            continue  # constant on a connected network: every deviation is 0
        ratios = dev / np.sqrt(e * radius)
        j = int(np.argmax(ratios))
        if ratios[j] > worst:
            worst = float(ratios[j])
            worst_case = (center, radius, int(idx[j]))
        violations += int(np.count_nonzero(ratios > 1.0 + tol))
    return PoincareReport(
        worst_ratio=worst,
        worst_case=worst_case,
        ball_count=count,
        violations=violations,
        tol=float(tol),
        passed=violations == 0,
    )


def sup_ratio(net: ResistanceNetwork, mu, f) -> float:
    """Ratio ``max |f| / sqrt(E(f) + |f|^2_mu)`` for one nonzero function."""
    mass = _mass_vector(net, mu)
    f = np.asarray(f)
    net._check_vertex_values(f)
    denom = energy(net, f) + _mu_norm_sq(mass, f)
    if denom <= 0.0:
        raise ValueError("sup ratio undefined for the zero function")
    return float(np.max(np.abs(f)) / np.sqrt(denom))


def _trial_ensemble(n: int, trials: int, seed: int) -> list[np.ndarray]:
    """Constant probe followed by seeded complex standard normal trials."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(int(seed))
    fs: list[np.ndarray] = [np.ones(n, dtype=np.float64)]
    for _ in range(int(trials)):
        fs.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return fs


@dataclass(frozen=True)
class SupBoundReport:
    """Empirical constant of the sup-norm embedding over a trial ensemble.

    ``constant`` is the largest ``sup_ratio`` seen; trial 0 is the constant
    probe, whose ratio is exactly ``1/sqrt(total mass)``.
    """

    constant: float
    worst_trial: int
    trials: int
    seed: int


def sup_bound_audit(
    net: ResistanceNetwork, mu, trials: int = 200, seed: int = 42
) -> SupBoundReport:
    """Maximise ``max |f| / sqrt(E(f) + |f|^2_mu)`` over seeded trials."""
    best = -np.inf
    best_i = 0
    for i, f in enumerate(_trial_ensemble(net.vertex_count, trials, seed)):
        r = sup_ratio(net, mu, f)
        if r > best:
            best = r
            best_i = i
    return SupBoundReport(constant=float(best), worst_trial=best_i, trials=int(trials), seed=int(seed))


@dataclass(frozen=True)
class FaBoundReport:
    """Empirical constant of ``|fa|^2 <= E(f)/M + C |a|^2 |f|^2_mu``.

    ``constant`` is the smallest ``C`` making the bound hold on the trial
    ensemble given the fixed ``E(f)/M`` allowance; ``max_violation`` is the
    worst relative excess remaining with that constant (0 up to roundoff).
    A zero field reports ``C = 0``.
    """

    constant: float
    max_violation: float
    a_norm_sq: float
    M: float
    trials: int
    seed: int


def fa_bound_audit(
    net: ResistanceNetwork, mu, a, M: float, trials: int = 200, seed: int = 42
) -> FaBoundReport:
    """Fit the multiplication bound constant on a seeded trial ensemble."""
    M = float(M)
    if not M > 0.0:
        raise ValueError("M must be positive")
    mass = _mass_vector(net, mu)
    a = np.asarray(a)
    a_norm_sq = inner(net, a)
    if a_norm_sq == 0.0:
        return FaBoundReport(0.0, 0.0, 0.0, M, int(trials), int(seed))
    rows = []
    for f in _trial_ensemble(net.vertex_count, trials, seed):
        fa = module_action(net, f, a)
        lhs = inner(net, fa)
        budget = energy(net, f) / M
        weight = a_norm_sq * _mu_norm_sq(mass, f)
        rows.append((lhs, budget, weight))
    constant = max(0.0, max((lhs - budget) / weight for lhs, budget, weight in rows))
    worst = max(
        (lhs - (budget + constant * weight)) / max(1.0, budget + constant * weight)
        for lhs, budget, weight in rows
    )
    return FaBoundReport(
        constant=float(constant),
        max_violation=max(0.0, float(worst)),
        a_norm_sq=float(a_norm_sq),
        M=M,
        trials=int(trials),
        seed=int(seed),
    )


@dataclass(frozen=True)
class KLMNReport:
    """Relative form bound ``|B(f)| <= eps E(f) + C |f|^2_mu`` on seeded trials.

    ``B(f)`` is the difference between the linearized magnetic energy and
    the plain energy; ``eps = 1/4 + 5/M`` and ``C = 5 * C_aM * |a|^2`` with
    ``C_aM`` fitted by `fa_bound_audit` on the same ensemble.  ``passed``
    requires zero violations and ``eps < 1``.
    """

    epsilon: float
    constant: float
    fa_constant: float
    M: float
    max_violation: float
    worst_slack: float
    violations: int
    trials: int
    seed: int
    tol: float
    passed: bool


def klmn_audit(
    net: ResistanceNetwork,
    mu,
    a,
    M: float = 8.0,
    trials: int = 200,
    seed: int = 42,
    tol: float = DEFAULT_SLACK,
) -> KLMNReport:
    """Audit the relative bound of the magnetic perturbation form.

    Requires ``M > 20/3`` so that ``eps = 1/4 + 5/M < 1``.  The chain
    ``|B(f)| <= E(f)/4 + 5 |fa|^2`` combined with the fitted multiplication
    bound makes every trial satisfy the final inequality, so violations
    signal a numerical problem rather than a sharp constant.  A right-hand
    side that overflows the float range raises ``ValueError``.
    """
    M = float(M)
    if not M > MIN_KLMN_M:
        raise ValueError(f"M must exceed 20/3 ~= {MIN_KLMN_M:.4f}, got {M}")
    epsilon = 0.25 + 5.0 / M
    fa_rep = fa_bound_audit(net, mu, a, M, trials=trials, seed=seed)
    constant = 5.0 * fa_rep.constant * fa_rep.a_norm_sq
    mass = _mass_vector(net, mu)
    field = np.asarray(a, dtype=np.float64)
    model = MagneticModel(kind="linearized", field=field)
    worst = -np.inf
    violations = 0
    for f in _trial_ensemble(net.vertex_count, trials, seed):
        b_value = magnetic_energy(net, model, f) - energy(net, f)
        rhs = epsilon * energy(net, f) + constant * _mu_norm_sq(mass, f)
        if not np.isfinite(rhs):
            raise ValueError(f"form-bound right-hand side {rhs} is not finite: the field is too large")
        slack = (abs(b_value) - rhs) / max(1.0, rhs)
        if slack > worst:
            worst = slack
        if not slack <= tol:  # a NaN slack counts as a violation
            violations += 1
    return KLMNReport(
        epsilon=float(epsilon),
        constant=float(constant),
        fa_constant=fa_rep.constant,
        M=M,
        max_violation=max(0.0, float(worst)),
        worst_slack=float(worst),
        violations=violations,
        trials=int(trials),
        seed=int(seed),
        tol=float(tol),
        passed=violations == 0 and epsilon < 1.0,
    )


@dataclass(frozen=True)
class MeasureAuditReport:
    """Combined geometric/functional audit of one weighted network.

    ``m_profile`` and ``doubling_profile`` list ``(radius, value)`` pairs;
    ``metric_doubling`` is the covering-count estimate; the remaining
    fields summarise the Poincaré, sup-norm, and relative form-bound
    checks.  ``passed`` requires zero Poincaré violations and a passing
    form bound (in particular ``epsilon < 1``).
    """

    m_profile: list
    doubling_profile: list
    metric_doubling: int
    worst_poincare_ratio: float
    sup_bound_constant: float
    klmn: KLMNReport
    passed: bool
    details: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if any(m < 0.0 for _, m in self.m_profile):
            raise ValueError("mass profile values must be nonnegative")
        if any(ratio < 1.0 for _, ratio in self.doubling_profile):
            raise ValueError("doubling ratios must be at least 1")
        if self.metric_doubling < 1:
            raise ValueError("covering estimate must be at least 1")
        if self.worst_poincare_ratio < 0.0 or self.sup_bound_constant < 0.0:
            raise ValueError("reported ratios must be nonnegative")
        if self.passed and self.klmn.epsilon >= 1.0:
            raise ValueError("cannot pass with a form-bound margin >= 1")


def full_audit(
    net: ResistanceNetwork,
    mu,
    a,
    M: float = 8.0,
    trials: int = 200,
    seed: int = 42,
    radii=None,
    ball_count: int = 50,
    poincare_trials: int = 5,
    tol: float = DEFAULT_SLACK,
) -> MeasureAuditReport:
    """Run every audit on one network and combine the results.

    Radii default to six dyadic fractions of the resistance diameter.
    Ball centers, ball radii, and Poincaré trial functions are drawn from
    one seeded generator, so reports are reproducible bit-for-bit.
    """
    mass = _mass_vector(net, mu)
    Rmat = resistance_matrix(net)
    diameter = float(Rmat.max())
    if diameter <= 0.0:
        raise ValueError("network has zero resistance diameter")
    radii = dyadic_radii(diameter) if radii is None else _check_radii(radii)
    m_profile = lower_mass_profile(net, Rmat, mass, radii)
    doubling_profile = doubling_estimate(net, Rmat, mass, radii)
    metric_doubling = metric_doubling_estimate(net, Rmat, radii)

    rng = np.random.default_rng(int(seed))
    balls = [
        (int(rng.integers(net.vertex_count)), radii[int(rng.integers(len(radii)))])
        for _ in range(int(ball_count))
    ]
    worst_poincare = 0.0
    poincare_violations = 0
    for _ in range(int(poincare_trials)):
        f = rng.standard_normal(net.vertex_count)
        rep = poincare_check(net, Rmat, mass, f, balls, tol=tol)
        worst_poincare = max(worst_poincare, rep.worst_ratio)
        poincare_violations += rep.violations

    sup_rep = sup_bound_audit(net, mass, trials=trials, seed=seed)
    klmn = klmn_audit(net, mass, a, M=M, trials=trials, seed=seed, tol=tol)
    details = {
        "diameter": diameter,
        "radii": list(radii),
        "c_mu": max(ratio for _, ratio in doubling_profile),
        "ball_count": int(ball_count),
        "poincare_trials": int(poincare_trials),
        "poincare_violations": poincare_violations,
        "sup_worst_trial": sup_rep.worst_trial,
        "trials": int(trials),
        "seed": int(seed),
        "tol": float(tol),
    }
    return MeasureAuditReport(
        m_profile=m_profile,
        doubling_profile=doubling_profile,
        metric_doubling=metric_doubling,
        worst_poincare_ratio=worst_poincare,
        sup_bound_constant=sup_rep.constant,
        klmn=klmn,
        passed=poincare_violations == 0 and klmn.passed,
        details=details,
    )

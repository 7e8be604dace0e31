import math

import numpy as np
import pytest

from pmqkd.attacks import (
    bs_attack,
    find_gllp_violation,
    gllp_rate_under_bs,
    pm_rate_under_bs,
    sweep_grid,
    usd_success,
)
from pmqkd.detection import binary_entropy


def test_usd_no_reflection():
    assert usd_success(0.7, 1.0) == 0.0


def test_usd_overlap_oracle():
    # optimal unambiguous discrimination succeeds with 1 - |<a|-a>|,
    # and |<a|-a>| = exp(-2|a|^2) with |a|^2 = (1-eta)*mu/2
    mu, eta = 0.5, 0.2
    overlap = math.exp(-2 * ((1 - eta) * mu / 2))
    assert usd_success(mu, eta) == pytest.approx(1 - overlap, rel=1e-12)
    assert usd_success(mu, eta) == pytest.approx(0.32967995396436070, rel=1e-12)


def test_usd_saturates_at_high_intensity():
    assert usd_success(200.0, 0.2) == pytest.approx(1.0, abs=1e-15)


def test_bs_attack_lossless_channel():
    point = bs_attack(0.5, 1.0)
    assert point.r_bs == 1.0
    assert point.r_bs == (1 - usd_success(0.5, 1.0)) ** 2


def test_bs_attack_value_and_identities():
    point = bs_attack(0.5, 0.2)
    assert point.r_bs == pytest.approx(0.44932896411722159, rel=1e-12)
    # r_BS = 1 - P_BS with P_BS = 1 - (1 - P_suc)^2
    assert point.r_bs == pytest.approx((1 - usd_success(0.5, 0.2)) ** 2, rel=1e-12)


def test_bs_attack_gain_identity_grid():
    rng = np.random.default_rng(19)
    for _ in range(200):
        mu = float(rng.uniform(0.01, 2.0))
        eta = float(rng.uniform(0.01, 0.99))
        point = bs_attack(mu, eta)
        q = 1 - math.exp(-eta * mu)
        assert point.r_bs == pytest.approx(math.exp(-2 * mu) / (1 - q) ** 2, rel=1e-12)


def test_bs_attack_monotonicity():
    mus = np.linspace(0.05, 2.0, 30)
    etas = np.linspace(0.05, 0.95, 30)
    for mu in mus:
        vals = [bs_attack(float(mu), float(e)).r_bs for e in etas]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    for eta in etas:
        vals = [bs_attack(float(m), float(eta)).r_bs for m in mus]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)


def test_gllp_per_click_and_literal_rates():
    # frozen from 50-digit evaluations
    assert gllp_rate_under_bs(0.5, 0.2) == pytest.approx(0.63736255069437510, rel=1e-12)
    point = bs_attack(0.5, 0.2)
    assert point.r_gllp == gllp_rate_under_bs(0.5, 0.2)
    assert point.r_gllp_literal == pytest.approx(0.060653065971263342, rel=1e-12)


def test_gllp_per_click_limits():
    assert gllp_rate_under_bs(1e-12, 1.0 - 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_pm_rate_under_bs_lossless():
    # entropy of the truncated odd-fraction complement; frozen evaluation
    mu = 0.2
    q = 1 - math.exp(-mu)
    ex = 1 - math.exp(-mu) * (mu + mu**3 / 6 + mu**5 / 120) / q
    assert ex == pytest.approx(0.090634634938255374, rel=1e-10)
    expected = 1 - binary_entropy(ex)
    assert pm_rate_under_bs(mu, 1.0) == pytest.approx(expected, rel=1e-12)
    assert pm_rate_under_bs(mu, 1.0) == pytest.approx(0.56141539414419798, rel=1e-10)


def test_pm_rate_under_bs_clamps_to_zero():
    # at high intensity and vanishing transmittance the phase error
    # saturates at 1/2 and the rate dies
    assert pm_rate_under_bs(2.5, 1e-9) == 0.0
    assert pm_rate_under_bs(0.5, 0.0) == 0.0


@pytest.mark.parametrize(
    "mu,eta,expected",
    [
        (1.9196381909547739, 0.01, 2.559224503428936e-07),  # just below the cutoff
        (1.9, 0.01, 4.077503769184254e-06),
        (0.3, 0.01, 0.23121695306869583),
        (2.0, 0.5, 0.0010623659031879784),
        (0.05, 1e-6, 0.7239678742067011),
    ],
)
def test_pm_rate_under_bs_pinned_values(mu, eta, expected):
    # recorded before the rate was routed through rate's formula functions
    assert pm_rate_under_bs(mu, eta) == pytest.approx(expected, abs=1e-15)


def test_pm_rate_never_exceeds_attack_bound():
    for mu in np.linspace(0.05, 2.0, 40):
        for eta in np.linspace(0.01, 0.99, 40):
            assert pm_rate_under_bs(float(mu), float(eta)) <= bs_attack(
                float(mu), float(eta)
            ).r_bs + 1e-12


def test_violation_fixed_mu_crossover_band():
    report = find_gllp_violation(fixed_mu=0.5, sweep_range=(1e-3, 0.999), steps=600)
    assert report.has_violation
    assert len(report.crossovers) == 1
    assert 0.55 <= report.crossovers[0] <= 0.70
    lo, hi = report.violation_intervals[0]
    assert lo == pytest.approx(1e-3)
    assert hi == pytest.approx(report.crossovers[0], abs=5e-3)


def test_violation_fixed_eta_covers_full_range():
    report = find_gllp_violation(fixed_eta=0.2, sweep_range=(1e-3, 2.0), steps=400)
    assert report.has_violation
    assert len(report.violation_intervals) == 1
    lo, hi = report.violation_intervals[0]
    assert lo == pytest.approx(1e-3)
    assert hi == pytest.approx(2.0)
    assert not report.crossovers


def test_violation_empty_near_unity_transmittance():
    report = find_gllp_violation(fixed_mu=0.5, sweep_range=(0.9, 0.999), steps=100)
    assert not report.has_violation
    assert report.violation_intervals == ()


@pytest.mark.parametrize(
    "kwargs, grid, point",
    [
        (dict(fixed_mu=0.5, steps=50), (1e-3, 1.0 - 1e-9, 50), lambda x: bs_attack(0.5, x)),
        (dict(fixed_eta=0.2, steps=40), (1e-3, 2.0, 40), lambda x: bs_attack(x, 0.2)),
        (
            dict(fixed_eta=0.01, sweep_range=(0.3, 4.0), steps=7),
            (0.3, 4.0, 7),
            lambda x: bs_attack(x, 0.01),
        ),
    ],
    ids=["fixed_mu_default_range", "fixed_eta_default_range", "fixed_eta_given_range"],
)
def test_violation_points_are_the_grid_evaluations(kwargs, grid, point):
    report = find_gllp_violation(**kwargs)
    assert list(report.points) == [point(x) for x in sweep_grid(*grid)]


def test_violation_argument_validation():
    with pytest.raises(ValueError):
        find_gllp_violation(fixed_mu=0.5, fixed_eta=0.2, steps=10)
    with pytest.raises(ValueError):
        find_gllp_violation(steps=10)
    with pytest.raises(ValueError):
        usd_success(-0.1, 0.5)
    with pytest.raises(ValueError):
        bs_attack(0.5, 1.2)

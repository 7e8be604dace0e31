import math

import numpy as np
import pytest

from pmqkd.decoy import DecoyEstimate, decoy_estimate, empirical_rate
from pmqkd.detection import ChannelParams
from pmqkd.rate import PmParams, key_rate, misalignment_e_delta
from pmqkd.simcore import SimConfig, Tally, simulate

BIG = 10**15


def analytic_tally(mu, eta, pd, m=16):
    """Noiseless tally taken from the closed-form gain and QBER."""
    q = 1 - (1 - 2 * pd) * math.exp(-eta * mu)
    e_delta = misalignment_e_delta(m)
    ez = (pd + eta * mu * e_delta) * math.exp(-eta * mu) / q
    sifted = round(q * BIG * 2 / m)
    return Tally(
        intensity=mu,
        emitted=BIG,
        clicked_single=round(q * BIG),
        sifted=sifted,
        errors=round(ez * sifted),
    )


def true_yield(k, eta, pd):
    return 2 * pd if k == 0 else 1 - (1 - 2 * pd) * (1 - eta) ** k


def true_bit_error(k, eta, pd, m=16):
    if k == 0:
        return 0.5
    e_delta = misalignment_e_delta(m)
    return (pd * (1 - eta) ** k + e_delta * (1 - (1 - eta) ** k)) / true_yield(k, eta, pd)


# --- recovery from noiseless tallies ------------------------------------------


def test_recovery_criterion_point():
    eta, pd = 0.1, 7.2e-8
    tallies = [analytic_tally(mu, eta, pd) for mu in (0.1, 0.2, 0.4, 0.6, 0.8)]
    est = decoy_estimate(tallies, k_max=4)
    y1 = true_yield(1, eta, pd)
    assert abs(est.yields[1] - y1) / y1 < 0.05
    assert abs(est.bit_errors[1] - true_bit_error(1, eta, pd)) < 0.005


def test_vacuum_yield_without_dark_counts():
    # single-photon dominant ladder keeps the truncation tail tiny
    tallies = [analytic_tally(mu, 0.1, 0.0) for mu in (0.02, 0.05, 0.1, 0.15, 0.25)]
    est = decoy_estimate(tallies, k_max=4)
    assert est.yields[0] < 1e-6


def test_vacuum_error_near_half_with_dark_counts():
    # strong dark counts make the vacuum yield identifiable
    eta, pd = 0.1, 1e-3
    tallies = [analytic_tally(mu, eta, pd) for mu in (0.1, 0.2, 0.4, 0.6, 0.8)]
    est = decoy_estimate(tallies, k_max=4)
    assert est.bit_errors[0] == pytest.approx(0.5, abs=0.1)


# --- closed loop ---------------------------------------------------------------


def test_closed_loop_reproduces_analytic_rate():
    eta, pd = 1e-3, 7.2e-8
    mus = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6)
    tallies = [analytic_tally(mu, eta, pd) for mu in mus]
    est = decoy_estimate(tallies, k_max=5)
    pm = PmParams(mu_total=0.2, m_slices=16, f_ec=1.15)
    emp = empirical_rate(tallies, est, pm)
    ana = key_rate(ChannelParams(eta_arm=eta, p_d=pd), pm)
    assert emp.breakdown.rate_R == pytest.approx(ana.rate_R, rel=0.01)


def test_pipeline_from_simulation():
    cfg = SimConfig(
        rounds=2_000_000,
        seed=31,
        m_slices=16,
        intensities=(0.1, 0.2, 0.4, 0.6, 0.8),
        channel=ChannelParams(eta_arm=0.1, p_d=7.2e-8),
        sample_fraction=0.2,
    )
    res = simulate(cfg)
    est = decoy_estimate(res.tallies, k_max=4)
    y1 = true_yield(1, 0.1, 7.2e-8)
    assert abs(est.yields[1] - y1) / y1 < 0.15
    pm = PmParams(mu_total=0.4, m_slices=16, f_ec=1.15)
    emp = empirical_rate(res.tallies, est, pm)
    assert emp.breakdown.rate_R > 0
    signal = next(t for t in res.tallies if t.intensity == pm.mu_total)
    assert signal.q_se > 0 and signal.ez_se > 0


# --- degenerate inputs -----------------------------------------------------------


def test_requires_enough_intensities():
    tallies = [analytic_tally(mu, 0.1, 0.0) for mu in (0.1, 0.2, 0.4)]
    with pytest.raises(ValueError):
        decoy_estimate(tallies, k_max=4)


@pytest.mark.parametrize("mus", [(0.2,), (0.1, 0.4)], ids=["one_intensity", "two_intensities"])
def test_k_max_zero_estimates_the_vacuum_yield_alone(mus):
    est = decoy_estimate([analytic_tally(mu, 0.1, 1e-3) for mu in mus], k_max=0)
    assert est.k_max == 0 and est.yields.shape == est.bit_errors.shape == (1,)
    assert 0.0 < est.yields[0] <= 1.0


def test_k_max_edges_are_named():
    tallies = [analytic_tally(mu, 0.1, 0.0) for mu in (0.1, 0.4)]
    with pytest.raises(ValueError, match="^k_max must be nonnegative$"):
        decoy_estimate(tallies, k_max=-1)
    with pytest.raises(ValueError, match=r"^need at least k_max\+1 = 3 intensities, got 2$"):
        decoy_estimate(tallies, k_max=2)


def test_rejects_duplicate_intensities():
    t = analytic_tally(0.2, 0.1, 0.0)
    with pytest.raises(ValueError):
        decoy_estimate([t, t], k_max=1)


def test_reports_ill_conditioned_system():
    from pmqkd.decoy import IllConditionedSystemError

    # clustered intensities cannot separate five photon orders
    mus = (0.1, 0.1 + 1e-9, 0.1 + 2e-9, 0.1 + 3e-9, 0.1 + 4e-9)
    tallies = [analytic_tally(mu, 0.1, 0.0) for mu in mus]
    with pytest.raises(IllConditionedSystemError) as exc:
        decoy_estimate(tallies, k_max=4)
    assert exc.value.condition_number > 1e10


def test_empirical_rate_zero_clicks():
    tallies = [Tally(intensity=0.2, emitted=1000, clicked_single=0, sifted=0, errors=0)]
    est = decoy_estimate(
        [analytic_tally(mu, 0.1, 0.0) for mu in (0.05, 0.1, 0.2, 0.4, 0.6)], k_max=4
    )
    emp = empirical_rate(tallies, est, PmParams(mu_total=0.2))
    assert emp.breakdown.rate_R == 0.0


def test_empirical_rate_high_qber_clamps_to_zero():
    tallies = [Tally(intensity=0.2, emitted=10_000, clicked_single=500, sifted=60, errors=40)]
    est = decoy_estimate(
        [analytic_tally(mu, 0.1, 0.0) for mu in (0.05, 0.1, 0.2, 0.4, 0.6)], k_max=4
    )
    emp = empirical_rate(tallies, est, PmParams(mu_total=0.2))
    assert emp.breakdown.qber_Z == 0.5
    assert emp.breakdown.rate_R == 0.0


def test_empirical_rate_q_odd_sums_the_kept_orders():
    tallies = [analytic_tally(mu, 0.1, 7.2e-8) for mu in (0.0, 0.15, 0.3, 0.45, 0.6)]
    est = decoy_estimate(tallies, k_max=3)
    bd = empirical_rate(tallies, est, PmParams(mu_total=0.3)).breakdown
    assert sorted(bd.fractions) == [0, 1, 3]
    assert bd.q_odd == bd.fractions[1] + bd.fractions[3]


def test_empirical_rate_requires_signal_tally():
    tallies = [analytic_tally(mu, 0.1, 0.0) for mu in (0.05, 0.1, 0.4, 0.6, 0.8)]
    est = decoy_estimate(tallies, k_max=4)
    with pytest.raises(ValueError):
        empirical_rate(tallies, est, PmParams(mu_total=0.2))


# (n_tallies, k_max, phase_err_X, rate_R) recorded before empirical_rate was
# routed through rate's formula functions; they agree to the last few ulps.
# The rate reads only the signal tally, so the decoy tallies handed in beside
# it (n_tallies - 1 of them, listed first) leave every pinned value unchanged.
EMPIRICAL_PINS = [
    (1, 0, 0.5, 0.0),
    (1, 2, 0.25947093648912783, 4.014947429197724e-05),
    (3, 2, 0.25947093648912783, 4.014947429197724e-05),
    (3, 4, 0.22648020882648753, 6.0377603578410215e-05),
    (5, 4, 0.22648020882648753, 6.0377603578410215e-05),
    (5, 6, 0.2262352364131315, 6.0539942384083046e-05),
]


@pytest.mark.parametrize("n_tallies,k_max,ex,r", EMPIRICAL_PINS)
def test_empirical_rate_pinned_values(n_tallies, k_max, ex, r):
    eta, pd = 0.01, 7.2e-8
    ks = range(k_max + 1)
    est = DecoyEstimate(
        k_max=k_max,
        yields=np.array([true_yield(k, eta, pd) for k in ks]),
        bit_errors=np.array([true_bit_error(k, eta, pd) for k in ks]),
    )
    decoys = [analytic_tally(0.05 * (i + 1), eta, pd) for i in range(n_tallies - 1)]
    tally = Tally(intensity=0.3, emitted=10**9, clicked_single=2_990_000, sifted=373_750,
                  errors=2_500)
    bd = empirical_rate([*decoys, tally], est, PmParams(mu_total=0.3)).breakdown
    assert bd.phase_err_X == pytest.approx(ex, abs=1e-15)
    assert bd.rate_R == pytest.approx(r, abs=1e-15)
    assert sorted(bd.fractions) == [0] + [k for k in (1, 3, 5) if k <= k_max]

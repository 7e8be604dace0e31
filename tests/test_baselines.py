import itertools
import math

import numpy as np
import pytest
from scipy import special

from pmqkd import baselines, rate
from pmqkd.baselines import (
    bb84_optimize_mu,
    bb84_rate,
    _bb84_point,
    _bb84_rate,
    _bessel_i0,
    _mdi_point,
    _mdi_single_photon,
    mdi_optimize_mu,
    mdi_rate,
    _mdi_rate,
    plob_bound,
    tgw_bound,
)
from pmqkd.attacks import bs_attack
from pmqkd.detection import MAX_INTENSITY, ChannelParams, binary_entropy, fiber_transmittance


def full_channel(eta, pd=0.0):
    # BB84 and the bounds take the full-distance transmittance
    return ChannelParams(eta_arm=eta, p_d=pd)


def bb84_grid(mus, e_d, f_ec, ch):
    # _bb84_rate with the grid pass's NumPy ops on one channel
    point = _bb84_point(ch.eta_arm, ch.p_d, e_d)
    return _bb84_rate(mus, e_d, f_ec, ch.eta_arm, ch.p_d, *point, rate.GRID)


def mdi_grid(mu_a, mu_b, eta_a, eta_b, p_d, e_d, f_ec):
    # _mdi_rate with the grid pass's NumPy ops on one channel
    point = _mdi_point(eta_a, eta_b, p_d, e_d)
    return _mdi_rate(mu_a, mu_b, eta_a, eta_b, p_d, e_d, f_ec, *point, rate.GRID)


def scalar_cells(fs):
    # maximize's f for one scalar function per cell: fs[i](x) at each (cell i, x)
    return lambda cells, xs: np.array([fs[i](x) for i, x in zip(cells.tolist(), xs.tolist())])


def maximize_one(f, lo, hi, f_grid=None):
    # maximize's one-cell case, with f_grid(mus) the cell's grid row if given
    row = None if f_grid is None else lambda cells, grid: np.reshape(f_grid(grid), (1, -1))
    return rate.maximize(scalar_cells([f]), 1, lo, hi, row)[0]


# --- BB84 -------------------------------------------------------------------


def test_bb84_ideal_point():
    r = bb84_rate(0.5, 0.0, 1.15, full_channel(0.1, 0.0))
    # with no errors R = (1/2) Q q1; frozen from a 50-digit evaluation
    assert r == pytest.approx(0.015163266492815836, rel=1e-12)


def test_bb84_vanishing_intensity():
    assert bb84_rate(1e-15, 0.015, 1.15, full_channel(0.1, 1e-7)) == 0.0


def test_bb84_gain_formula():
    # Q = 1 - (1 - Y0) exp(-eta mu) with Y0 = 2 pd
    eta, mu, pd = 0.05, 0.7, 1e-6
    q = 1 - (1 - 2 * pd) * math.exp(-eta * mu)
    # reconstruct the rate from the same building blocks
    y1 = 1 - (1 - 2 * pd) * (1 - eta)
    e1 = (0.5 - 0.0) * 2 * pd / y1
    q1 = math.exp(-mu) * mu * y1 / q
    from pmqkd.detection import binary_entropy

    e_mu = (0.5) * 2 * pd / q
    expected = max(0.5 * q * (-binary_entropy(e_mu) + q1 * (1 - binary_entropy(e1))), 0.0)
    assert bb84_rate(mu, 0.0, 1.0, full_channel(eta, pd)) == pytest.approx(expected, rel=1e-12)


def test_bb84_monte_carlo_gain_and_q1():
    eta, mu = 0.1, 0.5
    assert bb84_rate(mu, 0.0, 1.15, full_channel(eta, 0.0)) > 0.0
    rng = np.random.default_rng(41)
    n = 4_000_000
    photons = rng.poisson(mu, size=n)
    arrived = rng.binomial(photons, eta)
    clicked = arrived > 0
    q_hat = clicked.mean()
    q = 1 - math.exp(-eta * mu)
    assert abs(q_hat - q) < 4 * math.sqrt(q * (1 - q) / n)
    q1_hat = (clicked & (photons == 1)).sum() / clicked.sum()
    q1 = math.exp(-mu) * mu * eta / q
    se = math.sqrt(q1 * (1 - q1) / clicked.sum())
    assert abs(q1_hat - q1) < 4 * se


def test_bb84_below_capacity_bound():
    rng = np.random.default_rng(3)
    for _ in range(200):
        eta = 10 ** rng.uniform(-6, -0.01)
        mu = rng.uniform(0.01, 1.0)
        r = bb84_rate(mu, 0.015, 1.15, full_channel(eta, 7.2e-8))
        assert r <= plob_bound(eta) + 1e-15


# --- MDI ---------------------------------------------------------------------


def test_mdi_error_free_point():
    y11, e11 = _mdi_single_photon(0.1, 0.1, 0.0, 0.0)
    assert e11 == pytest.approx(0.0, abs=1e-15)
    assert y11 == pytest.approx(0.1 * 0.1 / 2, rel=1e-12)


def test_mdi_rect_gain_value():
    # without dark counts Q_rect is Q_C alone and E_rect = e_11 = e_d, so the rate
    # is (1/2)[Q_11 (1 - H(e_d)) - f Q_C H(e_d)] with Q_11 = mu_a mu_b exp(-mu_a-mu_b) Y_11
    e_d, f_ec = 0.015, 1.15
    # Q_C = 2 exp(-0.025) (1 - exp(-0.0125))^2, frozen from a 50-digit evaluation
    q_c = 3.0100217480628859e-4
    q11 = 0.25 * 0.25 * math.exp(-0.5) * (0.1 * 0.1 / 2)
    h = binary_entropy(e_d)
    expected = 0.5 * (q11 * (1.0 - h) - f_ec * q_c * h)
    assert mdi_rate(0.25, 0.25, 0.1, 0.1, 0.0, e_d, f_ec) == pytest.approx(expected, rel=1e-12)


def test_mdi_vanishing_intensity():
    assert mdi_rate(0.0, 0.25, 0.1, 0.1, 1e-7, 0.015, 1.15) == 0.0


def test_mdi_symmetric_swap_invariance():
    a = mdi_rate(0.2, 0.3, 0.05, 0.08, 1e-7, 0.015, 1.15)
    b = mdi_rate(0.3, 0.2, 0.08, 0.05, 1e-7, 0.015, 1.15)
    assert a == pytest.approx(b, rel=1e-12)
    y_a, e_a = _mdi_single_photon(0.05, 0.08, 1e-7, 0.015)
    y_b, e_b = _mdi_single_photon(0.08, 0.05, 1e-7, 0.015)
    assert y_a == pytest.approx(y_b, rel=1e-12)
    assert e_a == pytest.approx(e_b, rel=1e-12)


def test_bessel_series_against_scipy():
    for z in (0.0, 1e-6, 0.01, 0.5, 2.0, 4.9):
        assert _bessel_i0(z) == pytest.approx(float(special.i0(z)), rel=1e-14)


def test_bessel_series_array_equals_each_float():
    # the elements stop at different k (one term at z = 0, dozens at 40), and
    # each keeps the bits of its own float sum, returned as a plain float
    z = np.linspace(0.0, 40.0, 100001)
    each = [_bessel_i0(v) for v in z.tolist()]
    assert {type(v) for v in each} == {float}
    assert _bessel_i0(z).tobytes() == np.array(each).tobytes()


def test_mdi_positive_at_short_distance():
    eta = 0.145 * 10 ** (-0.2 * 25 / 10)  # per arm, 50 km total
    assert mdi_rate(0.25, 0.25, eta, eta, 7.2e-8, 0.015, 1.15) > 0


# --- capacity bounds ------------------------------------------------------------


def test_tgw_values():
    assert tgw_bound(0.0) == 0.0
    assert tgw_bound(0.5) == pytest.approx(1.5849625007211562, rel=1e-12)
    with pytest.raises(ValueError):
        tgw_bound(1.0)


def test_plob_values():
    assert plob_bound(0.5) == pytest.approx(1.0, rel=1e-12)
    # frozen from a 50-digit evaluation of -log2(0.99)
    assert plob_bound(0.01) == pytest.approx(0.014499569695115077, rel=1e-12)
    with pytest.raises(ValueError):
        plob_bound(1.0)
    with pytest.raises(ValueError):
        plob_bound(-0.1)


def test_tgw_dominates_plob():
    for eta in np.linspace(1e-6, 1 - 1e-6, 1000):
        assert tgw_bound(float(eta)) >= plob_bound(float(eta))


def test_plob_small_eta_expansion():
    eta = 1e-4
    assert plob_bound(eta) / eta == pytest.approx(1.0 / math.log(2.0), rel=1e-3)


def test_rates_finite_across_range():
    for eta in np.logspace(-10, -1e-12, 50):
        e = float(min(eta, 1 - 1e-10))
        assert math.isfinite(tgw_bound(e))
        assert math.isfinite(plob_bound(e))
        r = bb84_rate(0.3, 0.015, 1.15, full_channel(e, 7.2e-8))
        assert math.isfinite(r) and r >= 0
        r = mdi_rate(0.15, 0.15, e, e, 7.2e-8, 0.015, 1.15)
        assert math.isfinite(r) and r >= 0


def test_params_validation():
    with pytest.raises(ValueError):
        bb84_rate(-0.1, 0.0, 1.15, full_channel(0.1))
    with pytest.raises(ValueError):
        bb84_rate(0.1, 0.0, 0.5, full_channel(0.1))
    with pytest.raises(ValueError):
        mdi_rate(0.1, 0.1, 1.5, 0.1, 0.0, 0.0, 1.15)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^mu must be in"):
            bb84_rate(bad, 0.0, 1.15, full_channel(0.1))
        with pytest.raises(ValueError, match="^mu_b must be in"):
            mdi_rate(0.1, bad, 0.1, 0.1, 0.0, 0.0, 1.15)


def test_intensity_bound_and_postprocessing_checks():
    # every formula stays finite at MAX_INTENSITY, and every intensity check rejects above it
    ch = full_channel(0.1, 7.2e-8)
    m = MAX_INTENSITY
    values = [
        rate.key_rate(ch, rate.PmParams(mu_total=m)).rate_R,
        rate.key_rate(ch, rate.PmParams(mu_total=m), tail="odd").rate_R,
        bb84_rate(m, 0.015, 1.15, ch),
        mdi_rate(m / 2, m / 2, 0.1, 0.1, 7.2e-8, 0.015, 1.15),
        *vars(bs_attack(m, 0.2)).values(),
    ]
    assert all(math.isfinite(v) for v in values)
    over = 2 * m
    for call in (
        lambda: rate.PmParams(mu_total=over),
        lambda: bb84_rate(over, 0.0, 1.15, ch),
        lambda: mdi_rate(0.1, over, 0.1, 0.1, 0.0, 0.0, 1.15),
        lambda: bs_attack(over, 0.2),
    ):
        with pytest.raises(ValueError, match=f"{m:g}"):
            call()
    for e_d, f_ec, named in ((5.0, 1.15, "e_d"), (math.nan, 1.15, "e_d"),
                             (0.0, math.nan, "f_ec"), (0.0, math.inf, "f_ec"),
                             (0.0, 0.5, "f_ec")):
        for call in (
            lambda: bb84_rate(0.5, e_d, f_ec, ch),
            lambda: mdi_rate(0.1, 0.1, 0.1, 0.1, 0.0, e_d, f_ec),
        ):
            with pytest.raises(ValueError, match=named):
                call()
        if named == "f_ec":
            with pytest.raises(ValueError, match=named):
                rate.PmParams(mu_total=0.5, f_ec=f_ec)


# --- vectorized grids and the bracket they select ----------------------------

MU_GRID = np.array([0.01 + (2.0 - 0.01) * i / 199 for i in range(200)])  # maximize's grid
# 0-500 km, denser where 1 - exp(-eta*mu) cancels (eta*mu < 1e-10 at 500 km): for
# BB84 with p_d = 0 the grid/scalar difference is largest relative to the values there
GRID_DISTANCES = [*range(0, 400, 20), *range(400, 501, 5)]


def bb84_cell(distance, pd, ed, f_ec=1.15):
    ch = ChannelParams(eta_arm=fiber_transmittance(distance, 0.145, 0.2), p_d=pd)

    def f(mu):
        return bb84_rate(mu, ed, f_ec, ch)

    return f, lambda mus: bb84_grid(mus, ed, f_ec, ch)


def mdi_cell(distance, pd, ed, f_ec=1.15):
    eta = fiber_transmittance(distance / 2.0, 0.145, 0.2)

    def f(mu):
        return mdi_rate(mu / 2.0, mu / 2.0, eta, eta, pd, ed, f_ec)

    return f, lambda mus: mdi_grid(mus / 2.0, mus / 2.0, eta, eta, pd, ed, f_ec)


def pm_cell(distance, pd, m_slices, f_ec=1.15):
    ch = ChannelParams.from_distance(distance, eta_d=0.145, p_d=pd)

    def f(mu):
        return rate.key_rate(ch, rate.PmParams(mu, m_slices, f_ec)).rate_R

    point = rate._point_terms(pd, ch.eta_arm, m_slices)
    return f, lambda mus: rate._pm_rate(m_slices, f_ec, mus, pd, ch.eta_arm, *point, rate.GRID)


# each cell takes (distance, p_d, setting, f_ec): the setting is e_d for the
# baselines and the slice count M for phase matching
CELLS = {"bb84": bb84_cell, "mdi": mdi_cell, "pm": pm_cell}
P_DS = [0.0, 7.2e-8, 1e-5]


@pytest.mark.parametrize(
    "protocol, p_d, setting",
    [
        *itertools.product(["bb84", "mdi"], P_DS, [0.0, 0.015, 0.1]),
        # from M = 256 up misalignment_e_delta takes its series branch
        *itertools.product(["pm"], P_DS, [2, 16, 256, 2**20]),
    ],
)
def test_rate_grid_within_the_maximize_bound(protocol, p_d, setting):
    # the bound maximize relies on: the unfloored grid value is within tol of
    # the scalar value where that is positive, and below tol where it is 0
    for distance in GRID_DISTANCES:
        f, f_grid = CELLS[protocol](distance, p_d, setting)
        g = f_grid(MU_GRID)
        scalar = np.array([f(mu) for mu in MU_GRID])
        tol = rate.GRID_REL_TOL * np.abs(g).max() + rate.GRID_ABS_TOL
        dev = np.where(scalar > 0.0, np.abs(g - scalar), np.maximum(g, 0.0))
        assert dev.max() <= tol, (distance, dev.max() / tol)


def counting(f):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    return counted, calls


@pytest.mark.parametrize("protocol", ["bb84", "mdi", "pm"])
def test_maximize_with_grid_equals_scalar_maximize(protocol):
    rng = np.random.default_rng({"bb84": 6, "mdi": 7, "pm": 8}[protocol])
    for _ in range(40):
        distance = rng.uniform(0.0, 600.0)
        p_d = 0.0 if rng.random() < 0.3 else 10 ** rng.uniform(-9, -4)
        # e_d for the baselines, an even M from 2 up to 2**21 for phase matching
        setting = 2 * int(2 ** rng.uniform(0, 20)) if protocol == "pm" else rng.uniform(0, 0.1)
        f, f_grid = CELLS[protocol](distance, p_d, setting, rng.uniform(1.0, 1.3))
        assert maximize_one(f, 0.01, 2.0, f_grid=f_grid) == maximize_one(f, 0.01, 2.0)


def test_maximize_with_grid_on_a_nonpositive_cell():
    # BB84 with dark counts has no key beyond ~140 km: no scalar call at all
    f, f_grid = bb84_cell(300.0, 7.2e-8, 0.015)
    counted, calls = counting(f)
    assert maximize_one(counted, 0.01, 2.0, f_grid=f_grid) == (0.01, 0.0)
    assert calls == []
    assert maximize_one(f, 0.01, 2.0) == (0.01, 0.0)


def test_maximize_with_grid_takes_few_scalar_calls():
    f, f_grid = mdi_cell(200.0, 7.2e-8, 0.015)
    counted, calls = counting(f)
    assert maximize_one(counted, 0.01, 2.0, f_grid=f_grid) == maximize_one(f, 0.01, 2.0)
    assert len(calls) < 50  # the candidates plus the golden-section steps


def test_maximize_with_a_flipped_grid_argmax_returns_the_scalar_answer():
    f, f_grid = mdi_cell(200.0, 7.2e-8, 0.015)
    g = f_grid(MU_GRID)
    best = int(np.argmax(g))
    tol = rate.GRID_REL_TOL * np.abs(g).max() + rate.GRID_ABS_TOL
    for neighbour in (best - 1, best + 1):
        # both moved by just under the bound: the neighbour is now the grid argmax
        flipped = g.copy()
        flipped[best] = g[best] - 0.9 * tol
        flipped[neighbour] = g[best] + 0.9 * tol
        assert int(np.argmax(flipped)) == neighbour
        counted, calls = counting(f)
        out = maximize_one(counted, 0.01, 2.0, f_grid=lambda mus, v=flipped: v)
        assert out == maximize_one(f, 0.01, 2.0)
        assert MU_GRID[best] in calls


def test_maximize_with_grid_falls_back_to_the_scalar_scan():
    f, f_grid = mdi_cell(200.0, 7.2e-8, 0.015)
    g = f_grid(MU_GRID)
    two_peaks = g.copy()
    two_peaks[-1] = g.max()  # a second candidate far from the first
    # a top within the bound of 0: the only candidates would be the peak's
    near_zero = np.where(np.abs(np.arange(200) - 100) <= 3, 0.5 * rate.GRID_ABS_TOL, -1e-7)
    not_finite = g.copy()
    not_finite[3] = np.nan
    expected = maximize_one(f, 0.01, 2.0)
    for grid in (two_peaks, near_zero, not_finite):
        counted, calls = counting(f)
        assert maximize_one(counted, 0.01, 2.0, f_grid=lambda mus, v=grid: v) == expected
        assert set(MU_GRID.tolist()) <= set(calls)


def test_maximize_selects_each_row_on_its_own():
    # one grid pass for four functions: a peak, a nonpositive cell, a NaN entry
    # and two peaks; each row gets what its own one-row search gets
    f, f_grid = mdi_cell(200.0, 7.2e-8, 0.015)
    f_dead, grid_dead = bb84_cell(300.0, 7.2e-8, 0.015)
    g = f_grid(MU_GRID)
    not_finite, two_peaks = g.copy(), g.copy()
    not_finite[3] = np.nan
    two_peaks[-1] = g.max()
    rows = np.stack([g, grid_dead(MU_GRID), not_finite, two_peaks])
    counted = [counting(h) for h in (f, f_dead, f, f)]
    out = rate.maximize(scalar_cells([c for c, _ in counted]), 4, 0.01, 2.0,
                        lambda cells, grid: rows[cells])
    assert out == [maximize_one(h, 0.01, 2.0) for h in (f, f_dead, f, f)]
    calls = [len(c) for _, c in counted]
    assert calls[0] < 50 and calls[1] == 0 and min(calls[2:]) >= 200


def test_optimizers_check_their_inputs_before_any_step():
    # a NaN e_d would otherwise first reach binary_entropy through e_1 or e_11
    chs = [full_channel(0.1), full_channel(0.2)]
    for optimize in (bb84_optimize_mu, mdi_optimize_mu):
        with pytest.raises(ValueError, match="^e_d must be in .*got nan$"):
            optimize(chs, math.nan, 1.15)
        with pytest.raises(ValueError, match="^f_ec must be finite .*got 0.5$"):
            optimize(chs, 0.015, 0.5)


def test_optimizers_of_no_channels_return_nothing():
    # an empty chunk makes no grid pass and no scalar step
    def never(*args):
        raise AssertionError("called")

    assert rate.maximize_cells([], never) == []
    assert rate.optimize_mu_chunk([], 16, 1.15) == []
    for optimize in (bb84_optimize_mu, mdi_optimize_mu):
        assert optimize([], 0.015, 1.15) == []


def test_optimizers_equal_the_one_row_maximize():
    # a chunk of channels gives each channel the result of its own one-row search
    etas = [fiber_transmittance(d, 0.145, 0.2) for d in (0.0, 50.0, 150.0, 300.0)]
    chs = [full_channel(eta, 7.2e-8) for eta in etas]
    for f_of, chunk in (
        (lambda eta: lambda mu: bb84_rate(mu, 0.015, 1.15, full_channel(eta, 7.2e-8)),
         bb84_optimize_mu(chs, 0.015, 1.15)),
        (lambda eta: lambda mu: mdi_rate(mu / 2, mu / 2, eta, eta, 7.2e-8, 0.015, 1.15),
         mdi_optimize_mu(chs, 0.015, 1.15)),
    ):
        assert chunk == [maximize_one(f_of(eta), *rate.MU_RANGE) for eta in etas]


def counting_ops(counts):
    # EXACT, counting each transcendental's calls by name
    def counted(name, fn):
        def call(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return call

    return rate.Ops(*(counted(name, getattr(rate.EXACT, name))
                      for name in ("exp", "sinh", "log2", "pow")), rate.EXACT.floor)


def test_mdi_step_evaluates_the_symmetric_arm_once():
    # a symmetric step (one array for both arms' intensity, one channel) makes three
    # exps: exp(-mu'/2), the arm factor and exp(-mu_a - mu_b); (1 - p_d)**2 is the
    # channel's, so no step raises to a power; two distinct arms make four exps, with
    # the same bits
    eta, p_d = fiber_transmittance(100.0, 0.145, 0.2) ** 0.5, 7.2e-8
    point = _mdi_point(eta, eta, p_d, 0.015)
    assert point[2].hex() == ((1.0 - p_d) ** 2).hex()
    mus = np.linspace(0.01, 2.0, 7)
    half = mus / 2.0
    symmetric, two_arms = {}, {}
    one = _mdi_rate(half, half, eta, eta, p_d, 0.015, 1.15, *point, counting_ops(symmetric))
    two = _mdi_rate(mus / 2.0, mus / 2.0, eta, eta, p_d, 0.015, 1.15, *point,
                    counting_ops(two_arms))
    assert one.tobytes() == two.tobytes()
    assert symmetric == {"exp": 3, "log2": 2}
    assert two_arms == {"exp": 4, "log2": 2}


def test_mdi_optimizer_takes_the_dark_count_square_once_per_channel(monkeypatch):
    # _mdi_point runs once per channel, and every exact step makes three exps and
    # raises nothing to a power
    chs = [ChannelParams(fiber_transmittance(d, 0.145, 0.2) ** 0.5, 7.2e-8)
           for d in range(0, 300, 20)]
    want = mdi_optimize_mu(chs, 0.015, 1.15)
    points, counts, steps = [], {}, []

    def counting_point(*args):
        points.append(args)
        return _mdi_point(*args)

    def counting_rate(*args):
        steps.append(args[-1])
        return _mdi_rate(*args)

    monkeypatch.setattr(baselines, "_mdi_point", counting_point)
    monkeypatch.setattr(baselines, "_mdi_rate", counting_rate)
    monkeypatch.setattr(rate, "EXACT", counting_ops(counts))
    assert mdi_optimize_mu(chs, 0.015, 1.15) == want
    assert len(points) == len(chs)
    exact = [ops for ops in steps if ops is rate.EXACT]
    assert len(exact) > 30
    assert counts.get("pow", 0) == 0 and counts["exp"] == 3 * len(exact)

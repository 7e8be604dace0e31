"""The kernel against a full-array oracle, and the seeded round stream."""
import math

import numpy as np
import pytest

from pmqkd import _mckernel_np, simcore
from pmqkd.detection import ChannelParams
from pmqkd.simcore import Phi0Model, SimConfig, simulate, tallies_to_csv

TWO_PI = 2.0 * math.pi

OUTPUTS = ("kappa_a", "kappa_b", "mu_idx", "j_a", "j_b", "outcome", "phi_a", "phi_b")
DTYPES = (np.int8, np.int8, np.int16, np.int16, np.int16, np.int8, np.float64, np.float64)


def oracle_block(u, eta, p_d, intensities, m_slices, phi0_value, phi0_rate, t0,
                 kappa_a, kappa_b, mu_idx, j_a, j_b, outcome, phi_a, phi_b):
    """The click model evaluated on every round of the block."""
    n = u.shape[1]
    kappa_a[:] = u[0] < 0.5
    kappa_b[:] = u[1] < 0.5
    np.multiply(u[2], TWO_PI, out=phi_a)
    np.multiply(u[3], TWO_PI, out=phi_b)
    np.minimum(
        (u[4] * len(intensities)).astype(mu_idx.dtype), len(intensities) - 1, out=mu_idx
    )
    mu = intensities[mu_idx]

    if phi0_rate != 0.0:
        phi0 = phi0_value + phi0_rate * (t0 + np.arange(n, dtype=np.float64))
    else:
        phi0 = phi0_value
    delta = (phi_b + math.pi * kappa_b) - (phi_a + math.pi * kappa_a) + phi0
    c = np.cos(delta)
    c2 = 0.5 * (1.0 + c)
    s2 = 0.5 * (1.0 - c)
    log_q = math.log1p(-p_d)
    p_left = -np.expm1(log_q - eta * mu * c2)
    p_right = -np.expm1(log_q - eta * mu * s2)
    l_click = u[5] < p_left
    r_click = u[6] < p_right
    outcome[:] = l_click + 2 * r_click

    scale = m_slices / TWO_PI
    j_a[:] = np.floor(phi_a * scale + 0.5).astype(j_a.dtype) % m_slices
    j_b[:] = np.floor(phi_b * scale + 0.5).astype(j_b.dtype) % m_slices
    return p_left, p_right


def run_kernel(kernel, u, *params):
    n = u.shape[1]
    out = [np.full(n, 99, dtype=dt) for dt in DTYPES]  # stale values must be overwritten
    extra = kernel(u, *params, *out)
    return dict(zip(OUTPUTS, out)), extra


def assert_same_bytes(got, want):
    for name in OUTPUTS:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


INTENSITY_SETS = {
    "with_vacuum": (0.0, 0.1, 0.5),
    "bound_reaches_one": (0.2, 30.0),  # eta=1: p_max rounds to 1
}
PHI0 = {
    "fixed": (0.7, 0.0, 0),
    "drift": (0.3, 2.0 * math.pi / 32 / 1e6, 5_000_001),
}


@pytest.mark.parametrize("n", [1, (1 << 18) + 3])
@pytest.mark.parametrize("phi0", list(PHI0), ids=list(PHI0))
@pytest.mark.parametrize("eta", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("mus", list(INTENSITY_SETS), ids=list(INTENSITY_SETS))
@pytest.mark.parametrize("p_d", [0.0, 7.2e-8, 0.999])
def test_kernel_matches_full_array_oracle(p_d, mus, eta, phi0, n):
    intensities = np.asarray(INTENSITY_SETS[mus], dtype=np.float64)
    u = np.random.default_rng(n).random((7, n))
    params = (eta, p_d, intensities, 16, *PHI0[phi0])
    want, (p_left, p_right) = run_kernel(oracle_block, u, *params)
    # put some detector draws just below and at their click probability,
    # where a bound below the true maximum would drop a click
    edge = np.arange(0, n, 3)
    u[5, edge] = np.nextafter(p_left[edge], 0.0)
    u[6, edge[::2]] = p_right[edge[::2]]
    want, _ = run_kernel(oracle_block, u, *params)
    got, _ = run_kernel(_mckernel_np.simulate_block, u, *params)
    assert_same_bytes(got, want)


# --- the seeded round stream ---------------------------------------------------

# Recorded with the full-array kernel (every round through the click model).
SLOW_DRIFT_CSV = (
    "intensity,emitted,clicked,sifted,errors,Q_hat,Q_se,EZ_hat,EZ_se\n"
    "0,200848,0,0,0,0,0,0,0\n"
    "0.10000000000000001,199741,1904,240,4,0.0095323443859798435,0.00021741344675129282,"
    "0.016666666666666666,0.0082635971003575098\n"
    "0.40000000000000002,199411,7725,994,10,0.038739086610066649,0.00043213632513912028,"
    "0.010060362173038229,0.0031653225565982037\n"
)
SLOW_DRIFT_OFFSETS = [(0, 150001, 1), (150001, 300002, 1), (300002, 450003, 2), (450003, 600000, 2)]


def slow_drift_config():
    return SimConfig(
        rounds=600_000,
        seed=2024,
        m_slices=16,
        intensities=(0.0, 0.1, 0.4),
        channel=ChannelParams(eta_arm=0.1, p_d=7.2e-8),
        sample_fraction=0.2,
        phi0=Phi0Model("slow_drift", 0.1, 2.0 * math.pi / 16 / 300_000),
        jd_block_rounds=150_001,
    )


def test_slow_drift_tallies_and_offsets_pinned():
    res = simulate(slow_drift_config())
    assert tallies_to_csv(res.tallies) == SLOW_DRIFT_CSV
    assert res.block_offsets == SLOW_DRIFT_OFFSETS


def test_collect_rounds_equals_the_blocks():
    cfg = slow_drift_config()
    data = simcore.collect_rounds(cfg)
    start = 0
    for block in simcore.run_blocks(cfg):
        stop = start + len(block)
        for name in OUTPUTS:
            assert np.array_equal(getattr(data, name)[start:stop], getattr(block, name)), name
        start = stop
    assert start == len(data) == cfg.rounds

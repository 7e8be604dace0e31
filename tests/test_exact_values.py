"""The rates at inputs where NumPy's transcendentals differ from ``math``'s.

At every case below, putting NumPy's ``exp``, ``log2`` or ``power``
(as built for x86-64, with SIMD loops) in place of ``math``'s changes
the rate, or for a power the fractions q_3 and q_5, in the last bit;
the cases were found by drawing distances and intensities until one
did.  The hex values are what the scalar formulas (one ``math`` call
per transcendental) gave there, before each rate became one array
function.  The array functions with ``EXACT`` ops must give them to the
bit: at one element, as floats and as one-element arrays, and inside a
500-cell batch.  A NumPy transcendental on the value path changes some
of them.
"""
import numpy as np
import pytest

from pmqkd import baselines, rate
from pmqkd.detection import ChannelParams, fiber_transmittance

M_SLICES, F_EC, E_D = 16, 1.15, 0.015

# (the function whose NumPy version changes the values, distance km, p_d,
# total mu, then rate_R on the truncated and the odd tail, q_3 and q_5); a
# NumPy power changes q_3 and q_5 but on no drawn case rate_R
PM_CASES = [
    ("exp", 121.399, 0.0, 0.629307, "0x1.85cbe5c95ab75p-17", "0x1.86ac9496b685bp-17",
     "0x1.ada48c6aad448p-4", "0x1.c1bcfb785cbe9p-9"),
    ("exp", 79.955, 1e-05, 0.384887, "0x1.f473b79645a2dp-14", "0x1.f478a1173dd4cp-14",
     "0x1.947dad041db86p-5", "0x1.384d150b0dcdep-11"),
    ("exp", 10.269, 1e-05, 0.225034, "0x1.d9ecd63a3b5aep-11", "0x1.d9ecef989c17ap-11",
     "0x1.2a6085681f398p-6", "0x1.20414c96a5bf4p-14"),
    ("log2", 73.202, 1e-05, 0.241501, "0x1.92977edd3fa02p-13", "0x1.9297acc4ea7cep-13",
     "0x1.6d6d2dbc45886p-6", "0x1.baa06fb6742fap-14"),
    ("log2", 368.817, 7.2e-08, 0.109328, "0x1.00da507be0665p-23", "0x1.00da50d5da5e3p-23",
     "0x1.50bd4ffb23e5fp-8", "0x1.573a56c16e605p-18"),
    ("log2", 384.096, 7.2e-08, 0.072885, "0x1.588afb8afa026p-25", "0x1.588afb9ab365fp-25",
     "0x1.286761722e09dp-9", "0x1.0c7944d34672cp-20"),
    ("pow", 406.112, 1e-05, 0.769354, "0x0.0p+0", "0x0.0p+0",
     "0x1.18559dd4006d7p-4", "0x1.7d396daab4f18p-9"),
    ("pow", 424.214, 0.0, 1.139511, "0x0.0p+0", "0x0.0p+0",
     "0x1.a9741925d7745p-3", "0x1.704b2fd8286f9p-6"),
    ("pow", 43.524, 0.0, 1.911118, "0x0.0p+0", "0x0.0p+0",
     "0x1.13b350db89bdfp-2", "0x1.3e6bf876b947bp-4"),
]
# (the function whose NumPy version changes the rate, distance km, p_d, mu, rate)
BB84_CASES = [
    ("exp", 132.368, 0.0, 1.328275, "0x1.81a92564a2a79p-16"),
    ("exp", 180.18, 7.2e-08, 0.779162, "0x1.e50eb5a73b19ep-19"),
    ("exp", 121.399, 0.0, 0.629307, "0x1.eb45dfb7dc8edp-15"),
    ("log2", 124.786, 1e-05, 1.127321, "0x1.0023f43835af3p-18"),
    ("log2", 2.043, 7.2e-08, 1.878409, "0x1.58aee403e60b6p-9"),
    ("log2", 41.87, 1e-05, 1.367571, "0x1.6a2875ba38e06p-10"),
]
# (the same, with the total mu split evenly over the arms); no drawn case
# has NumPy's square of 1 - p_d change the rate
MDI_CASES = [
    ("exp", 205.798, 7.2e-08, 0.81949, "0x1.2b3865527539ep-26"),
    ("exp", 121.399, 0.0, 0.629307, "0x1.672aa8a7f33fcp-21"),
    ("exp", 45.15, 0.0, 0.434354, "0x1.d1c4db1ae1f22p-17"),
    ("log2", 231.962, 7.2e-08, 1.728528, "0x1.33d53cc54ec50p-29"),
    ("log2", 67.627, 7.2e-08, 0.214919, "0x1.a88b3e076e843p-20"),
    ("log2", 37.073, 7.2e-08, 1.584645, "0x1.36906a023a9aep-15"),
]
BATCH = 500


def arm(distance):
    return fiber_transmittance(distance / 2.0, 0.145, 0.2)


def full(distance):
    return fiber_transmittance(distance, 0.145, 0.2)


def cycled(cases):
    # the cases repeated over a batch of BATCH cells
    return [cases[i % len(cases)] for i in range(BATCH)]


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("tail, column", [("truncated", 4), ("odd", 5)])
def test_key_rate_keeps_the_scalar_values(tail, column):
    def values(terms):
        # rate_R, q_3 and q_5 of _key_rate_terms' output
        return [terms[-1], terms[3][2], terms[3][3]]

    for case in PM_CASES:
        _, distance, p_d, mu = case[:4]
        expected = [case[column], *case[6:]]
        ch = ChannelParams(arm(distance), p_d)
        bd = rate.key_rate(ch, rate.PmParams(mu, M_SLICES, F_EC), tail=tail)
        assert hexes([bd.rate_R, bd.fractions[3], bd.fractions[5]]) == expected, case
        point = rate._point_terms(p_d, ch.eta_arm, M_SLICES)
        one = rate._key_rate_terms(np.array([mu]), p_d, ch.eta_arm, M_SLICES, F_EC, tail, *point)
        assert [hexes(v) for v in values(one)] == [[x] for x in expected], case
    batch = cycled(PM_CASES)
    cells = [(p_d, arm(d), *rate._point_terms(p_d, arm(d), M_SLICES)) for _, d, p_d, *_ in batch]
    p_d, eta, *point = rate._columns(cells)
    mus = np.array([case[3] for case in batch])
    terms = rate._key_rate_terms(mus, p_d, eta, M_SLICES, F_EC, tail, *point)
    expected = [[case[column] for case in batch], *([case[i] for case in batch] for i in (6, 7))]
    assert [hexes(v) for v in values(terms)] == expected
    if tail == "truncated":  # the sweep's fixed-intensity path
        channels = [ChannelParams(arm(d), p_d) for _, d, p_d, *_ in batch]
        pairs = rate.optimize_mu_chunk(channels, M_SLICES, F_EC, mus.tolist())
        assert hexes(r for _, r in pairs) == expected[0]


def test_bb84_rate_keeps_the_scalar_values():
    for _, distance, p_d, mu, value in BB84_CASES:
        ch = ChannelParams(full(distance), p_d)
        assert baselines.bb84_rate(mu, E_D, F_EC, ch).hex() == value
        point = baselines._bb84_point(ch.eta_arm, p_d, E_D)
        one = baselines._bb84_rate(np.array([mu]), E_D, F_EC, ch.eta_arm, p_d, *point)
        assert hexes(one) == [value]
    batch = cycled(BB84_CASES)
    channels = [ChannelParams(full(d), p_d) for _, d, p_d, _, _ in batch]
    pairs = baselines.bb84_optimize_mu(channels, E_D, F_EC, [case[3] for case in batch])
    assert hexes(r for _, r in pairs) == [case[4] for case in batch]


def test_mdi_rate_keeps_the_scalar_values():
    for _, distance, p_d, mu, value in MDI_CASES:
        eta = arm(distance)
        assert baselines.mdi_rate(mu / 2, mu / 2, eta, eta, p_d, E_D, F_EC).hex() == value
        point = baselines._mdi_point(eta, eta, p_d, E_D)
        half = np.array([mu / 2])
        one = baselines._mdi_rate(half, half, eta, eta, p_d, E_D, F_EC, *point)
        assert hexes(one) == [value]
    batch = cycled(MDI_CASES)
    channels = [ChannelParams(arm(d), p_d) for _, d, p_d, _, _ in batch]
    pairs = baselines.mdi_optimize_mu(channels, E_D, F_EC, [case[3] for case in batch])
    assert hexes(r for _, r in pairs) == [case[4] for case in batch]

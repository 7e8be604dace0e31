"""Comparison protocols and repeaterless capacity bounds.

Decoy-state BB84 and MDI-QKD in the standard threshold-detector model,
plus the TGW and PLOB upper bounds on repeaterless secret-key capacity.
BB84 and the bounds take the full-distance transmittance; MDI takes
per-arm values.  Each rate is one array function of the intensity,
``_bb84_rate`` and ``_mdi_rate``, evaluated with the transcendentals of
a :class:`pmqkd.rate.Ops` as :func:`pmqkd.rate._key_rate_terms` is:
:func:`bb84_rate` and :func:`mdi_rate` at one element, and
:func:`bb84_optimize_mu` and :func:`mdi_optimize_mu` over a batch of
channels through :func:`pmqkd.rate.maximize_cells`.  The terms that do
not depend on the intensity (the single-photon yield, 1 - H of its
error and MDI's (1 - p_d)^2) are computed once per channel.  The array
functions check no input: the public functions check ``e_d``, ``f_ec``
and the intensities, ``ChannelParams`` the channels.
"""
from __future__ import annotations

import math

import numpy as np

from .detection import ChannelParams, _check_f_ec, _check_intensity, _check_prob, binary_entropy
from .rate import EXACT, _clip_half, _gain, _where, _yield, maximize_cells


def _bb84_point(eta: float, pd: float, e_d: float) -> tuple[float, float]:
    # the mu-independent terms of bb84_rate on one channel: the infinite-decoy
    # single-photon yield y_1 and 1 - H(e_1)
    y0 = 2.0 * pd
    e0 = 0.5
    y1 = _yield(1, pd, 1.0 - eta)
    e1 = e_d + (e0 - e_d) * y0 / y1 if y1 > 0 else e0
    return y1, 1.0 - binary_entropy(min(e1, 0.5))


def bb84_rate(mu: float, e_d: float, f_ec: float, channel: ChannelParams) -> float:
    """Asymptotic decoy-state BB84 key rate per emitted pulse.

    R = (1/2) * Q_mu * { -f*H(E_mu) + q_1*[1 - H(e_1)] } with the
    single-photon yield and error taken from the infinite-decoy model
    (Y_0 = 2*p_d, e_0 = 1/2), floored at 0.  ``channel.eta_arm`` holds
    the full-distance transmittance (source to measurement, detector
    efficiency included).
    """
    _check_intensity("mu", mu)
    _check_prob("e_d", e_d)
    _check_f_ec(f_ec)
    eta, pd = channel.eta_arm, channel.p_d
    return _bb84_rate(mu, e_d, f_ec, eta, pd, *_bb84_point(eta, pd, e_d))


def _bb84_rate(mu, e_d, f_ec, eta, pd, y1, h1, ops=EXACT):
    # bb84_rate at the intensity mu from the channel's _bb84_point: floats,
    # or arrays that broadcast together
    y0 = 2.0 * pd
    e0 = 0.5
    q_mu = _gain(pd, ops.exp(-eta * mu))
    live = q_mu > 0.0
    q_live = _where(live, q_mu, 1.0)  # so that nothing divides by 0
    e_mu = e_d + (e0 - e_d) * y0 / q_live
    e_mu = _where(0.5 < e_mu, 0.5, e_mu)  # min(e_mu, 0.5)
    q1 = ops.exp(-mu) * mu * y1 / q_live
    rate = 0.5 * q_mu * (-f_ec * ops.entropy(e_mu) + q1 * h1)
    return _where(live, ops.floor(rate), 0.0)


def bb84_optimize_mu(channels, e_d: float, f_ec: float, mus=None) -> list[tuple[float, float]]:
    """``(mu, rate)`` of :func:`bb84_rate` on each channel at the intensity in
    ``MU_RANGE`` maximizing it, by ``maximize_cells``; with ``mus``, at one
    given intensity each."""
    _check_prob("e_d", e_d)
    _check_f_ec(f_ec)
    for mu in mus or ():
        _check_intensity("mu", mu)
    return maximize_cells(
        [(ch.eta_arm, ch.p_d, *_bb84_point(ch.eta_arm, ch.p_d, e_d)) for ch in channels],
        lambda mu, *columns: _bb84_rate(mu, e_d, f_ec, *columns),
        mus,
    )


def _bessel_i0(z):
    # power series, summed (for each element of an array) until its term
    # falls below 1e-16 of its total; z is small in every regime used here
    z2 = z * z
    total = term = 1.0
    live = True  # still summing: a float's flag, or an array's per element
    for k in range(1, 512):
        term = term * (z2 / (4.0 * k * k))
        total = _where(live, total + term, total)
        live = _where(term < 1e-16 * total, False, live)
        if not (live.any() if isinstance(live, np.ndarray) else live):
            break
    return total


def _mdi_single_photon(
    eta_a: float, eta_b: float, p_d: float, e_d: float
) -> tuple[float, float]:
    # two-photon-pair yield and error of the rectilinear basis: (Y_11, e_11)
    e0 = 0.5
    y11 = (1.0 - p_d) ** 2 * (
        eta_a * eta_b / 2.0
        + (2.0 * eta_a + 2.0 * eta_b - 3.0 * eta_a * eta_b) * p_d
        + 4.0 * (1.0 - eta_a) * (1.0 - eta_b) * p_d**2
    )
    e11 = e0
    if y11 > 0.0:
        e11 = _clip_half((e0 * y11 - (e0 - e_d) * (1.0 - p_d**2) * eta_a * eta_b / 2.0) / y11)
    return y11, e11


def _mdi_point(eta_a: float, eta_b: float, p_d: float, e_d: float) -> tuple[float, float, float]:
    # the mu-independent terms of mdi_rate on one channel: Y_11, 1 - H(e_11)
    # and (1 - p_d)**2, the chance that neither detector dark-counts
    y11, e11 = _mdi_single_photon(eta_a, eta_b, p_d, e_d)
    return y11, 1.0 - binary_entropy(e11), (1.0 - p_d) ** 2


def mdi_rate(
    mu_a: float,
    mu_b: float,
    eta_a: float,
    eta_b: float,
    p_d: float,
    e_d: float,
    f_ec: float,
) -> float:
    """MDI-QKD rate in the rectilinear-basis threshold-detector model.

    R = (1/2) * { Q_11*[1 - H(e_11)] - f*Q_rect*H(E_rect) } with
    Q_11 = mu_a*mu_b*exp(-mu_a-mu_b)*Y_11, floored at 0.
    """
    _check_intensity("mu_a", mu_a)
    _check_intensity("mu_b", mu_b)
    _check_prob("eta_a", eta_a)
    _check_prob("eta_b", eta_b)
    _check_prob("p_d", p_d)
    _check_prob("e_d", e_d)
    _check_f_ec(f_ec)
    point = _mdi_point(eta_a, eta_b, p_d, e_d)
    return _mdi_rate(mu_a, mu_b, eta_a, eta_b, p_d, e_d, f_ec, *point)


def _mdi_rate(mu_a, mu_b, eta_a, eta_b, p_d, e_d, f_ec, y11, h11, pass2, ops=EXACT):
    # mdi_rate at the intensities (mu_a, mu_b) from the channel's _mdi_point:
    # floats, or arrays that broadcast together
    mu_prime = eta_a * mu_a + eta_b * mu_b
    x = eta_a * mu_a * eta_b * mu_b
    # NumPy's sqrt is correctly rounded, as math's is
    x = 0.5 * (np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x))
    damp = ops.exp(-mu_prime / 2.0)
    # each arm's 1 - (1 - p_d)*exp(-eta*mu/2), computed once when both arms
    # are given the same eta and mu objects
    arm_a = 1.0 - (1.0 - p_d) * ops.exp(-eta_a * mu_a / 2.0)
    same = eta_b is eta_a and mu_b is mu_a
    arm_b = arm_a if same else 1.0 - (1.0 - p_d) * ops.exp(-eta_b * mu_b / 2.0)
    q_c = 2.0 * pass2 * damp * arm_a * arm_b
    q_e = 2.0 * p_d * pass2 * damp * (_bessel_i0(2.0 * x) - (1.0 - p_d) * damp)
    q_rect = q_c + q_e
    live = q_rect > 0.0
    e_rect = _clip_half((e_d * q_c + (1.0 - e_d) * q_e) / _where(live, q_rect, 1.0))
    e_rect = _where(live, e_rect, 0.5)
    q11 = mu_a * mu_b * ops.exp(-mu_a - mu_b) * y11
    return ops.floor(0.5 * (q11 * h11 - f_ec * q_rect * ops.entropy(e_rect)))


def mdi_optimize_mu(channels, e_d: float, f_ec: float, mus=None) -> list[tuple[float, float]]:
    """``(mu, rate)`` of :func:`mdi_rate` on each channel, whose two arms
    both have its ``eta_arm`` and share the total intensity mu evenly, at
    the mu in ``MU_RANGE`` maximizing it, by ``maximize_cells``; with
    ``mus``, at one given intensity each."""
    _check_prob("e_d", e_d)
    _check_f_ec(f_ec)
    for mu in mus or ():
        _check_intensity("mu", mu)  # the total, as given: each arm's mu / 2 then passes too

    def step(mu, eta, p_d, y11, h11, pass2, ops):
        half = mu / 2.0  # each arm's intensity, one array for both
        return _mdi_rate(half, half, eta, eta, p_d, e_d, f_ec, y11, h11, pass2, ops)

    return maximize_cells(
        [(ch.eta_arm, ch.p_d, *_mdi_point(ch.eta_arm, ch.eta_arm, ch.p_d, e_d)) for ch in channels],
        step,
        mus,
    )


def tgw_bound(eta: float) -> float:
    """Takeoka-Guha-Wilde bound -log2((1-eta)/(1+eta))."""
    if not (0.0 <= eta < 1.0):
        raise ValueError(f"eta must be in [0, 1), got {eta!r}")
    return -math.log2((1.0 - eta) / (1.0 + eta)) + 0.0  # 0.0, not -0.0, at eta = 0


def plob_bound(eta: float) -> float:
    """Pirandola-Laurenza-Ottaviani-Banchi bound -log2(1-eta)."""
    if not (0.0 <= eta < 1.0):
        raise ValueError(f"eta must be in [0, 1), got {eta!r}")
    return -math.log1p(-eta) / math.log(2.0)

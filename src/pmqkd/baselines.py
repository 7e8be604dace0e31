"""Comparison protocols and repeaterless capacity bounds.

Decoy-state BB84 and MDI-QKD in the standard threshold-detector model,
plus the TGW and PLOB upper bounds on repeaterless secret-key capacity.
BB84 and the bounds take the full-distance transmittance; MDI takes
per-arm values.  :func:`bb84_optimize_mu` and :func:`mdi_optimize_mu`
run the intensity search through :func:`pmqkd.rate.maximize_cells`, as
:func:`pmqkd.rate.optimize_mu_chunk` does for phase matching.  Their
private grid twins ``_bb84_rate_grid``/``_mdi_rate_grid`` evaluate the
rate over the intensity grid for a chunk of channels in one NumPy pass;
they only select each channel's bracket in :func:`pmqkd.rate.maximize`,
which takes every value it returns from the scalar path.  The terms
that do not depend on the intensity (the single-photon yield and 1 - H
of its error) are computed once per channel.  The twins and the scalar
steps check no input: the optimizers check ``e_d`` and ``f_ec``,
``ChannelParams`` the channels, and mu is the fixed ``MU_RANGE`` grid.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .detection import ChannelParams, _check_f_ec, _check_intensity, _check_prob, binary_entropy
from .rate import _entropy_grid, _gain, _yield, maximize_cells


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
    return _bb84_rate_at(e_d, f_ec, eta, pd, *_bb84_point(eta, pd, e_d), mu)


def _bb84_rate_at(e_d, f_ec, eta, pd, y1, h1, mu) -> float:
    # bb84_rate at one intensity from the channel's _bb84_point, unchecked
    y0 = 2.0 * pd
    e0 = 0.5
    q_mu = _gain(pd, eta * mu)
    if q_mu <= 0.0:
        return 0.0
    e_mu = e_d + (e0 - e_d) * y0 / q_mu
    q1 = math.exp(-mu) * mu * y1 / q_mu
    e_mu = min(e_mu, 0.5)
    rate = 0.5 * q_mu * (-f_ec * binary_entropy(e_mu) + q1 * h1)
    return max(rate, 0.0) + 0.0  # + 0.0 turns a -0.0 into 0.0


def _bb84_rate_grid(mu: np.ndarray, e_d: float, f_ec: float, eta, pd, y1, h1) -> np.ndarray:
    """:func:`bb84_rate` over an array of intensities, not floored at 0,
    unchecked: ``maximize``'s ``f_grid`` for :func:`bb84_optimize_mu`.

    ``eta``, ``pd`` and the channel's mu-independent terms ``y1``,
    ``h1`` (:func:`_bb84_point`, from the scalar path) are floats, or
    ``(n, 1)`` columns with one row per channel, which broadcast against
    the intensities.  The rest agrees with the scalar path up to the ulp
    differences between NumPy's and ``math``'s ``exp``/``log2``.
    """
    y0 = 2.0 * pd
    e0 = 0.5
    q_mu = 1.0 - (1.0 - 2.0 * pd) * np.exp(-(eta * mu))
    with np.errstate(divide="ignore", invalid="ignore"):
        e_mu = np.minimum(e_d + (e0 - e_d) * y0 / q_mu, 0.5)
        q1 = np.exp(-mu) * mu * y1 / q_mu
        rate = 0.5 * q_mu * (-f_ec * _entropy_grid(e_mu) + q1 * h1)
    return np.where(q_mu > 0.0, rate, 0.0)


def bb84_optimize_mu(channels, e_d: float, f_ec: float) -> list[tuple[float, float]]:
    """``(mu, rate)`` of :func:`bb84_rate` on each channel at the intensity in
    ``MU_RANGE`` maximizing it, by ``maximize_cells``."""
    _check_prob("e_d", e_d)
    _check_f_ec(f_ec)
    return maximize_cells(
        [(ch.eta_arm, ch.p_d, *_bb84_point(ch.eta_arm, ch.p_d, e_d)) for ch in channels],
        functools.partial(_bb84_rate_at, e_d, f_ec),
        lambda mus, *columns: _bb84_rate_grid(mus, e_d, f_ec, *columns),
    )


def _bessel_i0(z: float) -> float:
    # power series; z is small in every regime used here
    total = 1.0
    term = 1.0
    for k in range(1, 512):
        term *= (z * z) / (4.0 * k * k)
        total += term
        if term < 1e-16 * total:
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
    if y11 > 0.0:
        e11 = (e0 * y11 - (e0 - e_d) * (1.0 - p_d**2) * eta_a * eta_b / 2.0) / y11
        e11 = min(max(e11, 0.0), 0.5)
    else:
        e11 = e0
    return y11, e11


def _mdi_point(eta_a: float, eta_b: float, p_d: float, e_d: float) -> tuple[float, float]:
    # the mu-independent terms of mdi_rate on one channel: Y_11 and 1 - H(e_11)
    y11, e11 = _mdi_single_photon(eta_a, eta_b, p_d, e_d)
    return y11, 1.0 - binary_entropy(e11)


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
    return _mdi_rate_at(eta_a, eta_b, p_d, e_d, f_ec, *point, mu_a, mu_b)


def _mdi_rate_at(eta_a, eta_b, p_d, e_d, f_ec, y11, h11, mu_a, mu_b) -> float:
    # mdi_rate at one pair of intensities from the channel's _mdi_point, unchecked
    mu_prime = eta_a * mu_a + eta_b * mu_b
    x = 0.5 * math.sqrt(eta_a * mu_a * eta_b * mu_b)
    damp = math.exp(-mu_prime / 2.0)
    q_c = (
        2.0
        * (1.0 - p_d) ** 2
        * damp
        * (1.0 - (1.0 - p_d) * math.exp(-eta_a * mu_a / 2.0))
        * (1.0 - (1.0 - p_d) * math.exp(-eta_b * mu_b / 2.0))
    )
    q_e = 2.0 * p_d * (1.0 - p_d) ** 2 * damp * (_bessel_i0(2.0 * x) - (1.0 - p_d) * damp)
    q_rect = q_c + q_e
    if q_rect > 0.0:
        e_rect = (e_d * q_c + (1.0 - e_d) * q_e) / q_rect
        e_rect = min(max(e_rect, 0.0), 0.5)
    else:
        e_rect = 0.5
    q11 = mu_a * mu_b * math.exp(-mu_a - mu_b) * y11
    rate = 0.5 * (q11 * h11 - f_ec * q_rect * binary_entropy(e_rect))
    return max(rate, 0.0) + 0.0  # + 0.0 turns a -0.0 into 0.0


def _mdi_symmetric_step(e_d, f_ec, eta, p_d, y11, h11, mu) -> float:
    # one optimizer step: mdi_rate with mu split evenly over two arms of eta
    return _mdi_rate_at(eta, eta, p_d, e_d, f_ec, y11, h11, mu / 2.0, mu / 2.0)


def _mdi_rate_grid(mu_a, mu_b, eta_a, eta_b, p_d, e_d: float, f_ec: float, y11, h11) -> np.ndarray:
    """:func:`mdi_rate` over arrays of intensities, not floored at 0,
    unchecked: ``maximize``'s ``f_grid`` for :func:`mdi_optimize_mu`.

    ``eta_a``, ``eta_b``, ``p_d`` and the channel's mu-independent
    terms ``y11``, ``h11`` (:func:`_mdi_point`, from the scalar path)
    are floats, or ``(n, 1)`` columns with one row per channel, which
    broadcast against the intensities.  The rest agrees with the scalar
    path up to the ulp differences between NumPy's and ``math``'s
    functions.
    """
    mu_prime = eta_a * mu_a + eta_b * mu_b
    x = 0.5 * np.sqrt(eta_a * mu_a * eta_b * mu_b)
    damp = np.exp(-mu_prime / 2.0)
    q_c = (
        2.0
        * (1.0 - p_d) ** 2
        * damp
        * (1.0 - (1.0 - p_d) * np.exp(-eta_a * mu_a / 2.0))
        * (1.0 - (1.0 - p_d) * np.exp(-eta_b * mu_b / 2.0))
    )
    q_e = 2.0 * p_d * (1.0 - p_d) ** 2 * damp * (np.i0(2.0 * x) - (1.0 - p_d) * damp)
    q_rect = q_c + q_e
    with np.errstate(divide="ignore", invalid="ignore"):
        e_rect = np.clip((e_d * q_c + (1.0 - e_d) * q_e) / q_rect, 0.0, 0.5)
    e_rect = np.where(q_rect > 0.0, e_rect, 0.5)
    q11 = mu_a * mu_b * np.exp(-mu_a - mu_b) * y11
    return 0.5 * (q11 * h11 - f_ec * q_rect * _entropy_grid(e_rect))


def mdi_optimize_mu(channels, e_d: float, f_ec: float) -> list[tuple[float, float]]:
    """``(mu, rate)`` of :func:`mdi_rate` on each channel, whose two arms
    both have its ``eta_arm`` and share the total intensity mu evenly, at
    the mu in ``MU_RANGE`` maximizing it, by ``maximize_cells``."""
    _check_prob("e_d", e_d)
    _check_f_ec(f_ec)
    return maximize_cells(
        [(ch.eta_arm, ch.p_d, *_mdi_point(ch.eta_arm, ch.eta_arm, ch.p_d, e_d)) for ch in channels],
        functools.partial(_mdi_symmetric_step, e_d, f_ec),
        lambda mus, eta, p_d, y11, h11: _mdi_rate_grid(
            mus / 2.0, mus / 2.0, eta, eta, p_d, e_d, f_ec, y11, h11
        ),
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

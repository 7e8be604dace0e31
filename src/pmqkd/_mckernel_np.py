"""Vectorized NumPy per-round simulation kernel.

Maps a block of uniform variates to per-round outputs.  The mapping is
part of the random-stream definition: changing it changes the round
stream, and with it the tallies, of every seeded run.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def simulate_block(
    u: np.ndarray,
    eta: float,
    p_d: float,
    intensities: np.ndarray,
    m_slices: int,
    phi0_value: float,
    phi0_rate: float,
    t0: int,
    kappa_a: np.ndarray,
    kappa_b: np.ndarray,
    mu_idx: np.ndarray,
    j_a: np.ndarray,
    j_b: np.ndarray,
    outcome: np.ndarray,
    phi_a: np.ndarray,
    phi_b: np.ndarray,
) -> None:
    """Fill per-round outputs from a (7, n) block of uniforms.

    Variate layout: key bit a, key bit b, phase a, phase b, intensity
    pick, L-detector draw, R-detector draw.
    """
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
    # half-angle identities: one cosine per round covers both detectors
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

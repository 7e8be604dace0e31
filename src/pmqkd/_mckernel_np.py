"""Vectorized NumPy per-round simulation kernel.

Maps a block of uniform variates to per-round outputs.  The mapping is
part of the random-stream definition: changing it changes the round
stream, and with it the tallies, of every seeded run.

The click model is evaluated only on rounds whose detector draws fall
below the largest click probability any round of the block can have;
every other round has no click.  This leaves the uniform-to-round
mapping, and so the random-stream definition, unchanged: a gathered
subset goes through the same elementwise ufuncs as the full block and
gives the same bits.

The passes over every round write through ``out=`` into the output
arrays and one float64 scratch array, which holds each phase on its
way to its slice and whose bytes also hold the slice-wrap mask; the
candidate masks are the only other temporaries sized by the block.
The workers of ``simcore.run_blocks`` call the kernel on work units of
at most ``simcore._UNIT_ROUNDS`` rounds, one per worker thread at a
time, so these temporaries are per unit.  The outputs may
be views into longer arrays; nothing outside them is written.
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
) -> None:
    """Fill per-round outputs from a (7, n) block of uniforms.

    Variate layout: key bit a, key bit b, phase a, phase b, intensity
    pick, L-detector draw, R-detector draw.
    """
    scratch = np.empty(u.shape[1])
    np.less(u[0], 0.5, out=kappa_a.view(np.bool_))
    np.less(u[1], 0.5, out=kappa_b.view(np.bool_))
    k = len(intensities)
    np.multiply(u[4], k, out=scratch)
    mu_idx[:] = scratch  # truncates, as astype does
    np.minimum(mu_idx, k - 1, out=mu_idx)

    # A detector clicks when its draw is below -expm1(log_q - eta*mu*c2);
    # as c2, s2 <= 1, no round's click probability exceeds p_max.  The
    # margin covers the few ulp by which math.expm1 and np.expm1 may differ.
    log_q = math.log1p(-p_d)
    p_max = -math.expm1(log_q - eta * float(np.max(intensities)))
    bound = min(1.0, p_max * (1.0 + 1e-9))
    candidate = u[5] < bound
    candidate |= u[6] < bound
    idx = np.flatnonzero(candidate)

    mu = intensities[mu_idx[idx]]
    if phi0_rate != 0.0:
        phi0 = phi0_value + phi0_rate * (t0 + idx.astype(np.float64))
    else:
        phi0 = phi0_value
    phi_a = u[2, idx] * TWO_PI
    phi_b = u[3, idx] * TWO_PI
    delta = (phi_b + math.pi * kappa_b[idx]) - (phi_a + math.pi * kappa_a[idx]) + phi0
    # half-angle identities: one cosine per round covers both detectors
    c = np.cos(delta)
    c2 = 0.5 * (1.0 + c)
    s2 = 0.5 * (1.0 - c)
    p_left = -np.expm1(log_q - eta * mu * c2)
    p_right = -np.expm1(log_q - eta * mu * s2)
    l_click = u[5, idx] < p_left
    r_click = u[6, idx] < p_right
    outcome.fill(0)
    outcome[idx] = l_click + 2 * r_click

    # 0 <= phi < 2*pi, so the rounded slice lies in [0, M]; M wraps to 0
    scale = m_slices / TWO_PI
    wrap = scratch.view(np.bool_)[: len(scratch)]
    for r, j in ((2, j_a), (3, j_b)):
        np.multiply(u[r], TWO_PI, out=scratch)
        scratch *= scale
        scratch += 0.5
        j[:] = scratch  # truncation is floor here: the value is >= 0.5
        np.equal(j, m_slices, out=wrap)
        np.putmask(j, wrap, 0)

"""Vectorized NumPy simulation kernel: one work unit of rounds to its
emitted counts and its single-click records.

Maps a block of uniform variates to per-round outcomes.  The mapping is
part of the random-stream definition: changing it changes the round
stream, and with it the tallies, of every seeded run.

Over every round of the unit the kernel computes three things only:
the scaled intensity draw, from which the per-intensity emitted counts
follow; the candidate mask; and its ``flatnonzero``.  A candidate is a
round whose detector draws fall below the largest click probability
any round of the unit can have; every other round has no click.  The
intensity index, the key bits, the phases, the click law and the slices
are evaluated only on the gathered candidates, with the same
elementwise ufuncs on the same doubles as a pass over every round, so
they give the same bits.

The records follow the clicks, not the rounds: the kernel returns one
record per round with exactly one click, in round order, and no
per-round output.  A record holds what sifting and postcompensation
read: the intensity index, the slice difference d0 = (j_b - j_a) mod M
and the raw disagreement e0 = kappa_a ^ kappa_b ^ [R click].  The
passes over every round write through ``out=`` into two per-unit
temporaries, one float64 and one bool array; the others are sized by
the candidates.  The workers of ``simcore.run_blocks`` call the kernel
on work units of at most ``simcore._UNIT_ROUNDS`` rounds.
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
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The emitted counts and single-click records of a (7, n) block of uniforms.

    Variate layout: key bit a, key bit b, phase a, phase b, intensity
    pick, L-detector draw, R-detector draw.  ``t0`` is the run index of
    the block's first round.  The uniforms are only read.

    Returns the int64 count of rounds per intensity, and the records
    ``(mu_idx, d0, e0)`` of the rounds with exactly one click, in round
    order: the int16 intensity index, the int16 slice difference
    ``(j_b - j_a) mod M`` and the int8 raw disagreement
    ``kappa_a ^ kappa_b ^ [R click]``.
    """
    # A detector clicks when its draw is below -expm1(log_q - eta*mu*c2);
    # as c2, s2 <= 1, no round's click probability exceeds its intensity's
    # p_max.  The margin covers the few ulp by which math.expm1 and
    # np.expm1 may differ.  The candidates are the rounds with a draw below
    # the largest p_max, then those with a draw below their own.
    log_q = math.log1p(-p_d)
    p_max = [min(1.0, -math.expm1(log_q - eta * mu) * (1.0 + 1e-9)) for mu in intensities]
    scaled = np.minimum(u[5], u[6])
    mask = np.less(scaled, max(p_max))
    idx = np.flatnonzero(mask)

    k = len(intensities)
    # a round's intensity index is min(trunc(scaled), k - 1), which is
    # >= i exactly when scaled >= i, for 1 <= i <= k - 1
    np.multiply(u[4], k, out=scaled)
    at_least = [u.shape[1]]
    for i in range(1, k):
        np.greater_equal(scaled, i, out=mask)
        at_least.append(np.count_nonzero(mask))
    at_least.append(0)
    emitted = -np.diff(np.asarray(at_least, dtype=np.int64))

    mu_idx = np.minimum(scaled[idx].astype(np.int16), k - 1)  # astype truncates
    u_left = u[5][idx]  # u[r][idx] gathers from one row; u[r, idx] is a slower mixed index
    u_right = u[6][idx]
    near = np.flatnonzero(np.minimum(u_left, u_right) < np.asarray(p_max)[mu_idx])
    idx, mu_idx, u_left, u_right = idx[near], mu_idx[near], u_left[near], u_right[near]

    kappa_a = (u[0][idx] < 0.5).view(np.int8)
    kappa_b = (u[1][idx] < 0.5).view(np.int8)
    mu = intensities[mu_idx]
    if phi0_rate != 0.0:
        phi0 = phi0_value + phi0_rate * (t0 + idx.astype(np.float64))
    else:
        phi0 = phi0_value
    phi_a = u[2][idx] * TWO_PI
    phi_b = u[3][idx] * TWO_PI
    delta = (phi_b + math.pi * kappa_b) - (phi_a + math.pi * kappa_a) + phi0
    # half-angle identities: one cosine per round covers both detectors
    c = np.cos(delta)
    c2 = 0.5 * (1.0 + c)
    s2 = 0.5 * (1.0 - c)
    p_left = -np.expm1(log_q - eta * mu * c2)
    p_right = -np.expm1(log_q - eta * mu * s2)
    l_click = u_left < p_left
    r_click = u_right < p_right
    single = np.flatnonzero(l_click != r_click)

    # 0 <= phi < 2*pi, so the rounded slice lies in [0, M], and mod M
    # wraps slice M to 0
    scale = m_slices / TWO_PI
    j_a, j_b = ((phi[single] * scale + 0.5).astype(np.int32)  # truncation is floor: >= 0.5
                for phi in (phi_a, phi_b))
    d0 = ((j_b - j_a) % m_slices).astype(np.int16)
    e0 = kappa_a[single] ^ kappa_b[single] ^ r_click[single].view(np.int8)
    return emitted, (mu_idx[single], d0, e0)

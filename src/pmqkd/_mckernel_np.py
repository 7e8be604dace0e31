"""Vectorized NumPy simulation kernel: one work unit of rounds to its
emitted counts and its single-click records.

Maps the unit's uniform variates to per-round outcomes.  The mapping is
part of the random-stream definition: changing it changes the round
stream, and with it the tallies, of every seeded run.

The variates form seven rows of one double per round: key bit a, key
bit b, phase a, phase b, intensity pick, L-detector draw, R-detector
draw.  The kernel does not take them as one array: it asks a supplier
``draw(r, out)`` for row ``r`` into a float64 row ``out`` of its own,
one row at a time, in the order 5, 6, 4, 0, 1, 2, 3.

- Rows 5 and 6 give the candidates: the rounds whose detector draws
  fall below the largest click probability any round of the unit can
  have.  Every other round has no click.  Row 5's draws below that
  bound are kept before row 6 is drawn into the same row; a candidate
  without one reads 1.0, which, like its own draw at or above the
  bound, never clicks.  Row 6 is gathered at the candidates.
- Row 4 gives the intensity index: its scaled draw, computed in place,
  gives the emitted counts per intensity over every round, and the
  index is gathered at the candidates, which then narrow to those with
  a draw below their own intensity's bound.
- Rows 0 to 3, the key bits and the phases, are each gathered at the
  surviving candidates right after they are drawn, and are not asked
  for at all when no candidate survives.

The click law and the slices are evaluated on the gathered candidates,
with the same elementwise ufuncs on the same doubles as a pass over
every round, so they give the same bits.  Over every round the kernel
holds one float64 row and one bool comparison at a time (1 MB and
128 KB for a 2^17-round unit), which are freed before the click law
runs; the other temporaries are sized by the candidates, and the click
law works in two of them, three doubles a candidate.

The records follow the clicks, not the rounds: the kernel returns one
record per round with exactly one click, in round order, and no
per-round output.  A record holds what sifting and postcompensation
read: the intensity index, the slice difference d0 = (j_b - j_a) mod M
and the raw disagreement e0 = kappa_a ^ kappa_b ^ [R click].  The
workers of ``simcore.run_blocks`` call the kernel on work units of at
most ``simcore._UNIT_ROUNDS`` rounds.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi


def simulate_block(
    draw: Callable[[int, np.ndarray], None],
    n: int,
    eta: float,
    p_d: float,
    intensities: np.ndarray,
    m_slices: int,
    phi0_value: float,
    phi0_rate: float,
    t0: int,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The emitted counts and single-click records of an ``n``-round unit.

    ``draw(r, out)`` writes row ``r`` of the unit's uniforms, one double
    per round, into the float64 array ``out`` of length ``n`` and into
    nothing else; the kernel asks for each row at most once, in the
    order 5, 6, 4, 0, 1, 2, 3, and reads a row only from the ``out`` it
    gave for it.  ``t0`` is the run index of the unit's first round.

    Returns the int64 count of rounds per intensity, and the records
    ``(mu_idx, d0, e0)`` of the rounds with exactly one click, in round
    order: the int16 intensity index, the int16 slice difference
    ``(j_b - j_a) mod M`` and the int8 raw disagreement
    ``kappa_a ^ kappa_b ^ [R click]``.
    """
    # A detector clicks when its draw is below -expm1(log_q - eta*mu*c2);
    # as c2, s2 <= 1, no round's click probability exceeds its intensity's
    # p_max.  The margin covers the few ulp by which math.expm1 and
    # np.expm1 may differ.
    log_q = math.log1p(-p_d)
    p_max = [min(1.0, -math.expm1(log_q - eta * mu) * (1.0 + 1e-9)) for mu in intensities]
    emitted, idx, mu_idx, u_left, u_right, kappa_a, kappa_b, phi_a, phi_b = _candidates(
        draw, n, p_max)

    # The click law in two buffers, through out=: ``d``, one double a
    # candidate, takes the phase difference, its cosine c and then
    # eta*mu; ``p``, an (L, R) pair a candidate, takes phi_a's and
    # phi0's terms, then c2 = (1 + c)/2 and s2 = (1 - c)/2 and the click
    # probabilities -expm1(log_q - eta*mu*c2) and the same with s2.  The
    # same ufuncs on the same doubles in the same order as those
    # expressions written out, so the same bits.
    p = np.empty((2, len(idx)))
    d = np.multiply(kappa_b, math.pi)
    np.add(phi_b, d, out=d)
    np.multiply(kappa_a, math.pi, out=p[0])
    np.add(phi_a, p[0], out=p[0])
    np.subtract(d, p[0], out=d)
    # phi0 = phi0_value + phi0_rate*(t0 + idx); a fixed phi0's +0.0 product
    # can only turn a -0.0 difference into +0.0, which cos reads the same
    p[1] = idx  # as idx.astype(np.float64)
    np.add(t0, p[1], out=p[1])
    np.multiply(phi0_rate, p[1], out=p[1])
    np.add(phi0_value, p[1], out=p[1])
    np.add(d, p[1], out=d)
    # half-angle identities: one cosine per round covers both detectors
    np.cos(d, out=d)
    np.add(1.0, d, out=p[0])
    np.subtract(1.0, d, out=p[1])
    np.multiply(0.5, p, out=p)
    np.take(intensities, mu_idx, out=d)
    np.multiply(eta, d, out=d)
    np.multiply(d, p, out=p)
    np.subtract(log_q, p, out=p)
    np.expm1(p, out=p)
    np.negative(p, out=p)
    l_click = u_left < p[0]
    r_click = u_right < p[1]
    single = np.flatnonzero(l_click != r_click)

    # 0 <= phi < 2*pi, so the rounded slice lies in [0, M], and mod M
    # wraps slice M to 0
    scale = m_slices / TWO_PI
    j_a, j_b = ((phi[single] * scale + 0.5).astype(np.int32)  # truncation is floor: >= 0.5
                for phi in (phi_a, phi_b))
    d0 = ((j_b - j_a) % m_slices).astype(np.int16)
    e0 = kappa_a[single] ^ kappa_b[single] ^ r_click[single].view(np.int8)
    return emitted, (mu_idx[single], d0, e0)


def _candidates(draw, n, p_max):
    """The pass of ``simulate_block`` over every round.

    Returns the emitted counts per intensity and, at the candidate
    rounds, their positions in the unit, intensity index, L and R
    detector draws, int8 key bits a and b and phases a and b.  A
    candidate is a round with a detector draw below the largest
    ``p_max``, then below its own intensity's.  The float64 row and the
    bool comparisons, one at a time, are the kernel's only per-round
    memory, and are freed before the click law makes its temporaries.
    """
    row = np.empty(n)
    bound = max(p_max)
    # an L draw at or above bound never clicks, and neither does 1.0, as
    # no p_left exceeds 1: only the draws below bound are kept
    draw(5, row)
    left = np.flatnonzero(row < bound)
    u_left = row[left]
    draw(6, row)
    mask = row < bound
    mask[left] = True  # min(u5, u6) < bound
    idx = np.flatnonzero(mask)
    del mask  # so that the counts below hold one bool row at a time
    u_right = row[idx]
    # the row, no longer read, puts the kept L draws in candidate order
    row[idx] = 1.0
    row[left] = u_left
    u_left = row[idx]

    k = len(p_max)
    # a round's intensity index is min(trunc(scaled), k - 1), which is
    # >= i exactly when scaled >= i, for 1 <= i <= k - 1
    draw(4, row)
    scaled = np.multiply(row, k, out=row)
    at_least = [n, *(np.count_nonzero(scaled >= i) for i in range(1, k)), 0]
    emitted = -np.diff(np.asarray(at_least, dtype=np.int64))

    mu_idx = np.minimum(scaled[idx].astype(np.int16), k - 1)  # astype truncates
    near = np.flatnonzero(np.minimum(u_left, u_right) < np.asarray(p_max)[mu_idx])
    # one at a time, so that at most one old and one new array are held
    idx = idx[near]
    mu_idx = mu_idx[near]
    u_left = u_left[near]
    u_right = u_right[near]

    def gather(r):
        if len(idx):  # else row r is not drawn
            draw(r, row)
        return row[idx]

    kappa_a = (gather(0) < 0.5).view(np.int8)
    kappa_b = (gather(1) < 0.5).view(np.int8)
    phi_a = gather(2) * TWO_PI
    phi_b = gather(3) * TWO_PI
    return emitted, idx, mu_idx, u_left, u_right, kappa_a, kappa_b, phi_a, phi_b

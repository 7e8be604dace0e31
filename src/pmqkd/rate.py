"""Analytic performance of the phase-matching protocol.

Yields, gain, bit/phase error rates, photon-number fractions, the final
key rate, and intensity optimization.  The production formulas follow
the reference closed forms term by term (including their clamping
behavior) so that results are bit-comparable with a straight port of
them; tighter or exact variants live in the test oracles.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .detection import ChannelParams, _check_f_ec, _check_intensity, binary_entropy


# The odd photon orders kept in the phase-error bound: q_1, q_3 and q_5, as
# in the paper's rate and its reference routine.
ODD_ORDERS = (1, 3, 5)

# The largest slice count M: every integer up to 2**53 is exact as a float.
MAX_EXACT_M = 2**53

# From this slice count up, the misalignment error is summed as a series:
# pi/M - (M/pi)**2 * sin(pi/M)**3 cancels, to ~3e-13 relative error at
# M = 256 and a negative value from M ~ 2**28, while the series' first
# omitted term is below 1e-14 relative at M = 256 and shrinks as M**-6.
SERIES_M = 256


@dataclass(frozen=True)
class PmParams:
    """Source and postprocessing parameters.

    ``mu_total`` is the combined intensity; each party sends half.
    """

    mu_total: float
    m_slices: int = 16
    f_ec: float = 1.15

    def __post_init__(self):
        _check_intensity("mu_total", self.mu_total)
        if self.mu_total == 0.0:
            raise ValueError(f"mu_total must be positive, got {self.mu_total!r}")
        _check_m_slices(self.m_slices)
        _check_f_ec(self.f_ec)


def _check_m_slices(m_slices) -> None:
    if not (2 <= m_slices <= MAX_EXACT_M) or m_slices % 2 != 0:
        raise ValueError(
            f"m_slices must be an even integer in [2, {MAX_EXACT_M}], got {m_slices!r}"
        )


@dataclass(slots=True)
class RateBreakdown:
    """Every intermediate of one key-rate evaluation.

    ``gain_Q`` is the any-click probability 1 - (1-2*p_d)*exp(-eta*mu),
    exact to first order in p_d as in the reference routine (the Monte
    Carlo counts single clicks only).  ``qber_Z`` is
    (p_d + eta*mu*e_delta)*exp(-eta*mu)/Q.  ``phase_err_X`` is the
    phase-error bound, clamped to [0, 0.5]: ``tail="truncated"`` charges
    everything beyond the kept orders as full error (1 - q_0 - q_1 -
    q_3 - q_5), ``tail="odd"`` charges 1 - q_0 - ``q_odd``, which is
    tighter.
    """

    gain_Q: float
    qber_Z: float
    phase_err_X: float
    fractions: dict[int, float]  # q_k for k = 0 and the odd orders
    q_odd: float  # closed-form sum of all odd-order fractions q_1 + q_3 + ...
    bit_errors: dict[int, float]  # e^Z_k for the same k
    e_delta: float
    rate_R: float


# Each formula lives in one private function that takes the intermediates
# it needs (``x = eta*mu`` the received intensity, ``loss = 1-eta``,
# ``loss_k = loss**k``, ``y`` a yield, ``q`` the gain).  ``key_rate``
# computes every intermediate once, feeds it through them and returns them
# all in its ``RateBreakdown``.  The Monte Carlo model check, the
# decoy-state rate, the baselines and the attack analysis call the same
# functions, so each formula has this one implementation.


def _yield(k: int, p_d: float, loss_k: float) -> float:
    # click yield of a k-photon input, 1 - (1-2*p_d)*(1-eta)^k; the vacuum
    # yield is written as 2*p_d so it is exact
    if k == 0:
        return 2.0 * p_d
    return 1.0 - (1.0 - 2.0 * p_d) * loss_k


def _gain(p_d: float, x: float) -> float:
    # any-click probability, first order in p_d (see RateBreakdown.gain_Q)
    return 1.0 - (1.0 - 2.0 * p_d) * math.exp(-x)


@functools.lru_cache
def misalignment_e_delta(m_slices) -> float:
    """Slice-misalignment error rate pi/M - (M/pi)^2 * sin^3(pi/M).

    From ``SERIES_M`` up it is x^3/2 - 13x^5/120 + 41x^7/3024 with
    x = pi/M, the leading terms of the same function's Taylor series.
    """
    if not (2 <= m_slices <= MAX_EXACT_M):
        raise ValueError(f"m_slices must be >= 2 and at most {MAX_EXACT_M}, got {m_slices!r}")
    x = math.pi / m_slices
    if m_slices < SERIES_M:
        return x - (m_slices / math.pi) ** 2 * math.sin(x) ** 3
    x2 = x * x
    return x * x2 * (0.5 - x2 * (13.0 / 120.0 - x2 * (41.0 / 3024.0)))


def _bit_error(p_d: float, loss_k: float, y: float, e_delta: float) -> float:
    # dark-count clicks err with 1/2, photon clicks with e_delta; no click
    # at all (p_d = 0 with k = 0 or eta = 0) is a random guess
    if y <= 0.0:
        return 0.5
    return (p_d * loss_k + e_delta * (1.0 - loss_k)) / y


def _qber(q: float, p_d: float, x: float, e_delta: float) -> float:
    if q <= 0.0:
        return 0.5
    val = (p_d + x * e_delta) * math.exp(-x) / q
    return min(max(val, 0.0), 0.5)


def _fraction(k: int, y: float, mu: float, q: float) -> float:
    if q <= 0.0:
        return 0.0
    return y * mu**k * math.exp(-mu) / (math.factorial(k) * q)


def _odd_fraction(q: float, p_d: float, loss: float, mu: float) -> float:
    if q <= 0.0:
        return 0.0
    num = math.sinh(mu) - (1.0 - 2.0 * p_d) * math.sinh(loss * mu)
    return math.exp(-mu) * num / q


def _phase_error(q0: float, odd_qs, odd_es, q_odd: float, tail: str) -> float:
    # accumulation order mirrors the reference expression for parity
    ex = q0 * 0.5
    for q, e in zip(odd_qs, odd_es):
        ex = ex + q * e
    if tail == "truncated":
        tail_term = 1.0 - q0
        for q in odd_qs:
            tail_term = tail_term - q
    elif tail == "odd":
        tail_term = 1.0 - q0 - q_odd
    else:
        raise ValueError(f"unknown tail mode {tail!r}")
    ex = ex + tail_term
    return min(max(ex, 0.0), 0.5)


def _rate(m, q: float, f_ec: float, ez: float, ex: float) -> float:
    bracket = -f_ec * binary_entropy(ez) + 1.0 - binary_entropy(ex)
    return max((2.0 / m) * q * bracket, 0.0) + 0.0  # + 0.0 turns a -0.0 into 0.0


# the photon numbers whose yield and bit error the rate reads: the vacuum and
# the odd orders
ORDERS = (0, *ODD_ORDERS)


def _point_terms(p_d: float, eta: float, m) -> tuple:
    # the mu-independent terms of the rate on one channel: (e_delta, the
    # yields of ORDERS, their bit errors)
    loss = 1.0 - eta
    e_delta = misalignment_e_delta(m)
    ys, es = [], []
    for k in ORDERS:
        loss_k = loss**k
        y = _yield(k, p_d, loss_k)
        ys.append(y)
        es.append(_bit_error(p_d, loss_k, y, e_delta))
    return e_delta, ys, es


def _key_rate_terms(
    p_d: float, eta: float, mu: float, m, f_ec: float, tail: str, e_delta: float, ys, es
) -> tuple:
    # the mu-dependent terms at one intensity, from the channel's _point_terms
    # (e_delta, ys, es): (gain_Q, qber_Z, phase_err_X, the fractions of ORDERS,
    # q_odd, rate_R)
    x = eta * mu
    q = _gain(p_d, x)
    qs = [_fraction(k, y, mu, q) for k, y in zip(ORDERS, ys)]
    q_odd = _odd_fraction(q, p_d, 1.0 - eta, mu)
    ez = _qber(q, p_d, x, e_delta)
    ex = _phase_error(qs[0], qs[1:], es[1:], q_odd, tail)
    return q, ez, ex, qs, q_odd, _rate(m, q, f_ec, ez, ex)


def key_rate(ch: ChannelParams, pm: PmParams, *, tail: str = "truncated") -> RateBreakdown:
    """Key rate per emitted pulse pair, (2/M)*Q*[1 - f*H(E^Z) - H(E^X)].

    Negative bracket values are floored to rate 0.
    """
    point = _point_terms(ch.p_d, ch.eta_arm, pm.m_slices)
    q, ez, ex, qs, q_odd, rate_R = _key_rate_terms(
        ch.p_d, ch.eta_arm, pm.mu_total, pm.m_slices, pm.f_ec, tail, *point
    )
    e_delta, _, es = point
    return RateBreakdown(
        q, ez, ex, dict(zip(ORDERS, qs)), q_odd, dict(zip(ORDERS, es)), e_delta, rate_R
    )


def _golden_max(f, lo: float, hi: float, tol: float = 1e-9) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = c if fc >= fd else d
    return x, max(fc, fd)


# How far ``maximize``'s ``f_grid`` may be from ``f``: this share of the
# grid's largest |value| plus an absolute term.  The baselines' and the
# phase-matching rate's grids are tested against it
# (tests/test_baselines.py).  Their measured deviation is below 7.4e-10
# (BB84, MDI) and 3.6e-9 (pm) of the largest |value|; the larger ones sit
# where 1 - exp(-eta*mu) cancels (p_d = 0 at long distance), and there
# they are below 8e-17 absolute.
GRID_REL_TOL = 1e-8
GRID_ABS_TOL = 1e-15

# the number of points of maximize's grid
N_GRID = 200


@functools.lru_cache(maxsize=8)
def _grid(lo: float, hi: float) -> tuple[tuple[float, ...], np.ndarray]:
    # maximize's grid as floats and as a read-only array, built once per range
    xs = tuple(lo + (hi - lo) * i / (N_GRID - 1) for i in range(N_GRID))
    arr = np.array(xs)
    arr.flags.writeable = False
    return xs, arr


def maximize(fs, lo: float, hi: float, f_grid=None) -> list[tuple[float, float]]:
    """Deterministic maximization of each function in ``fs`` over ``[lo, hi]``.

    For each ``f`` it scans a 200-point grid and refines the best
    bracket by golden-section search, keeping the grid point if the
    refinement does worse.  Returns one ``(x, f(x))`` per function;
    when ``f <= 0`` on the whole grid that is ``(lo, 0.0)``.  One
    function is the one-row case, ``maximize([f], lo, hi)[0]``.

    ``f_grid``, if given, maps the grid (a read-only NumPy array) to
    every function's values in one pass, a ``(len(fs), 200)`` array (or
    200 values for one function): row i holds ``fs[i]``'s values, not
    floored at 0, to within ``GRID_REL_TOL`` of the row's largest
    |value| plus ``GRID_ABS_TOL``.  A row only selects its function's
    best grid point: ``f`` is evaluated at every point the bound cannot
    rule out as the maximum, so the result is the same as without it.
    :func:`maximize_cells`, which the phase-matching rate and the BB84
    and MDI baselines call, passes one for a chunk of sweep points at a
    time, so a sweep makes one grid pass per protocol and chunk.
    """
    xs, grid = _grid(lo, hi)
    n = len(fs)
    scans = [range(N_GRID)] * n  # the grid indices at which to evaluate each f
    if f_grid is not None:
        g = np.asarray(f_grid(grid), dtype=float).reshape(n, N_GRID)
        tops = g.max(axis=1).tolist()
        tols = (GRID_REL_TOL * np.abs(g).max(axis=1) + GRID_ABS_TOL).tolist()
        for i, (row, top, tol) in enumerate(zip(g, tops, tols)):
            if not math.isfinite(tol):  # a NaN or infinite entry: scan on the scalar path
                continue
            if top < -tol:
                scans[i] = ()
                continue
            cand = np.flatnonzero(row >= top - 2.0 * tol).tolist()
            # near 0 or on several peaks, scan the whole grid on the scalar path
            if top > tol and cand[-1] - cand[0] == len(cand) - 1:
                scans[i] = cand
    return [_refine(f, xs, lo, hi, scan) for f, scan in zip(fs, scans)]


def _refine(f, xs: tuple[float, ...], lo: float, hi: float, scan) -> tuple[float, float]:
    # f at the grid indices in scan, then golden-section search in the best one's bracket
    vals = {i: f(xs[i]) for i in scan}
    best = max(vals, key=vals.__getitem__, default=None)
    if best is None or vals[best] <= 0.0:
        return xs[0], 0.0
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, N_GRID - 1)]
    x_opt, v_opt = _golden_max(f, a, b, tol=1e-9 * (hi - lo))
    if v_opt < vals[best]:
        return xs[best], vals[best]
    return x_opt, v_opt


def _entropy_grid(x: np.ndarray) -> np.ndarray:
    # binary_entropy over an array with entries in [0, 1/2]
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where(x > 0.0, h, 0.0)


def _columns(cells) -> list:
    # each entry of the per-point cells as one (len(cells), 1) column, and an
    # entry that is a list of floats as a list of such columns
    cols = []
    for entry in zip(*cells):
        arr = np.array(entry, dtype=float)
        cols.append(arr[:, None] if arr.ndim == 1 else list(arr.T[:, :, None]))
    return cols


def _key_rate_grid(mu: np.ndarray, p_d, eta, m, f_ec: float, point) -> np.ndarray:
    """``key_rate``'s truncated-tail ``rate_R`` over an array of intensities,
    not floored at 0: ``maximize``'s ``f_grid`` for
    :func:`optimize_mu_chunk`.

    ``p_d``, ``eta`` and the terms in ``point`` (the channel's
    ``_point_terms``) are floats, or ``(n, 1)`` columns with one row per
    channel, which broadcast against the intensities.  It mirrors
    ``_key_rate_terms`` term by term.  e_delta, the yields and the bit
    errors do not depend on mu and come from the scalar path; the rest
    agrees with it up to the ulp differences between NumPy's and
    ``math``'s ``exp``/``log2``/powers.
    """
    e_delta, ys, es = point
    x = eta * mu
    damp_x, damp_mu = np.exp(-x), np.exp(-mu)
    q = 1.0 - (1.0 - 2.0 * p_d) * damp_x
    live = q > 0.0  # where the scalar _qber and _fraction do not short-cut
    qs = []
    with np.errstate(divide="ignore", invalid="ignore"):
        ez = np.where(live, np.clip((p_d + x * e_delta) * damp_x / q, 0.0, 0.5), 0.5)
        for k, y in zip(ORDERS, ys):
            qs.append(np.where(live, y * mu**k * damp_mu / (math.factorial(k) * q), 0.0))
    # _phase_error's truncated tail, accumulated in its order
    ex = qs[0] * 0.5
    for qk, ek in zip(qs[1:], es[1:]):
        ex = ex + qk * ek
    tail_term = 1.0 - qs[0]
    for qk in qs[1:]:
        tail_term = tail_term - qk
    ex = np.clip(ex + tail_term, 0.0, 0.5)
    bracket = -f_ec * _entropy_grid(ez) + 1.0 - _entropy_grid(ex)
    return (2.0 / m) * q * bracket


# the intensity search range of every protocol's optimization
MU_RANGE = (0.01, 2.0)


def maximize_cells(cells, step, grid) -> list[tuple[float, float]]:
    """:func:`maximize` of one protocol's rate over :data:`MU_RANGE` on
    each channel of a chunk, with one grid pass for the whole chunk.

    ``cells`` holds each channel's terms from the scalar path, a tuple
    whose entries are floats or lists of floats.  ``step(*cell, mu)`` is
    the rate at one intensity, and ``grid(mus, *columns)`` its NumPy
    grid over every channel, where each entry of the cells comes as an
    ``(n, 1)`` column (a list entry as a list of columns).  Empty
    ``cells`` give ``[]``.
    """
    if not cells:
        return []
    fs = [functools.partial(step, *cell) for cell in cells]
    columns = _columns(cells)
    return maximize(fs, *MU_RANGE, f_grid=lambda mus: grid(mus, *columns))


def optimize_mu_chunk(channels, m_slices: int, f_ec: float) -> list[tuple[float, float]]:
    """``(mu, rate_R)`` of each channel at the intensity in :data:`MU_RANGE`
    maximizing the key rate, found by :func:`maximize_cells`.

    Where the rate vanishes everywhere the smallest grid intensity is
    returned with rate 0.  Every returned value is ``key_rate``'s.
    """
    _check_m_slices(m_slices)
    _check_f_ec(f_ec)
    return maximize_cells(
        [(ch.p_d, ch.eta_arm, *_point_terms(ch.p_d, ch.eta_arm, m_slices)) for ch in channels],
        functools.partial(_rate_step, m_slices, f_ec),
        lambda mus, p_d, eta, *point: _key_rate_grid(mus, p_d, eta, m_slices, f_ec, point),
    )


def _rate_step(m_slices: int, f_ec: float, p_d: float, eta: float, e_delta: float, ys, es,
               mu: float) -> float:
    # one optimizer step: rate_R at mu from the channel's _point_terms
    return _key_rate_terms(p_d, eta, mu, m_slices, f_ec, "truncated", e_delta, ys, es)[-1]


def optimize_mu(ch: ChannelParams, m_slices: int, f_ec: float) -> tuple[float, float]:
    """``(mu, rate_R)`` at the intensity in :data:`MU_RANGE` maximizing the
    key rate on ``ch``: :func:`optimize_mu_chunk` of the one channel."""
    return optimize_mu_chunk([ch], m_slices, f_ec)[0]

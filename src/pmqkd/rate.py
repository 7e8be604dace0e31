"""Analytic performance of the phase-matching protocol.

Yields, gain, bit/phase error rates, photon-number fractions, the final
key rate, and intensity optimization.  The production formulas follow
the reference closed forms term by term (including their clamping
behavior) so that results are bit-comparable with a straight port of
them; tighter or exact variants live in the test oracles.

Each protocol's rate is one array function (:func:`_key_rate_terms`
here, ``_bb84_rate`` and ``_mdi_rate`` in :mod:`pmqkd.baselines`) that
takes its transcendentals from an :class:`Ops`.  ``EXACT`` maps
``math``'s functions over the elements, so every value is the scalar
formula's to the bit; ``key_rate`` is that function at one element.
``GRID`` uses NumPy's ufuncs, which differ from ``math`` in the last bit
on some inputs, and only selects :func:`maximize`'s bracket.
:func:`maximize` runs the golden-section refinement in lockstep over a
batch of cells, one ``EXACT`` call per step.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .detection import ChannelParams, _check_f_ec, _check_intensity, _entropy


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
    exact to first order in p_d as in the reference routine.  ``qber_Z``
    is (p_d + eta*mu*e_delta)*exp(-eta*mu)/Q.  Both differ from what the
    Monte Carlo tallies: it drops double clicks, so its gain is the
    single-click probability 2(1-p_d)e^{-x/2}I_0(x/2) - 2(1-p_d)^2 e^{-x}
    with x = eta*mu, and its E_Z follows the slice factor
    (1 - sinc^2(pi/M)*cos r)/2 at the residual phase offset r, not the
    closed-form e_delta.  ``phase_err_X`` is the phase-error bound,
    clamped to [0, 0.5]: ``tail="truncated"`` charges everything beyond
    the kept orders as full error (1 - q_0 - q_1 - q_3 - q_5),
    ``tail="odd"`` charges 1 - q_0 - ``q_odd``, which is tighter.
    """

    gain_Q: float
    qber_Z: float
    phase_err_X: float
    fractions: dict[int, float]  # q_k for k = 0 and the odd orders
    q_odd: float  # q_1 + q_3 + ...: all odd orders in closed form; empirical_rate: kept ones
    bit_errors: dict[int, float]  # e^Z_k for the same k
    e_delta: float
    rate_R: float


# Each formula is written once, over floats or arrays, and takes the
# intermediates it needs, so that ``_key_rate_terms`` computes each
# transcendental once; the Monte Carlo model check, the decoy-state rate,
# the attack analysis and BB84 call the same formulas.


def _gain(p_d, none):
    # click probability, first order in p_d (see RateBreakdown.gain_Q), given
    # the chance that no photon arrives: exp(-eta*mu), or (1-eta)**k
    return 1.0 - (1.0 - 2.0 * p_d) * none


def _yield(k: int, p_d: float, loss_k: float) -> float:
    # click yield of a k-photon input, loss_k = (1-eta)**k; the vacuum
    # yield is written as 2*p_d so it is exact
    return 2.0 * p_d if k == 0 else _gain(p_d, loss_k)


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


# The rate functions below take floats or arrays: these helpers act on a
# float as Python does and elementwise on an array.


def _where(cond, a, b):
    # a where cond holds, else b; where cond holds everywhere, a itself if b
    # changes neither its shape nor its dtype (np.where would only copy it)
    if not isinstance(cond, np.ndarray):
        return a if cond else b
    if type(a) is np.ndarray and a.shape == cond.shape and _keeps(a, b) and cond.all():
        return a
    return np.where(cond, a, b)


def _keeps(a: np.ndarray, b) -> bool:
    # np.where(cond, a, b) has a's shape and dtype (a sufficient test, not a
    # necessary one): b is a Python float beside a float array, or an array
    # of a's shape and dtype
    if isinstance(b, np.ndarray):
        return b.shape == a.shape and b.dtype == a.dtype
    return type(b) is float and a.dtype.kind == "f"


def _clip_half(v):
    # min(max(v, 0.0), 0.5) (np.clip keeps a -0.0 and a NaN as min and max do)
    return np.clip(v, 0.0, 0.5) if isinstance(v, np.ndarray) else min(max(v, 0.0), 0.5)


def _floor(v):
    # max(v, 0.0) + 0.0: + 0.0 turns a -0.0 into 0.0
    return (np.maximum(v, 0.0) if isinstance(v, np.ndarray) else max(v, 0.0)) + 0.0


def _fraction(k: int, y, mu_k, damp, q):
    # photon-number fraction q_k = y * mu**k * exp(-mu) / (k! * q) of the
    # clicks, for a gain q > 0
    return y * mu_k * damp / (math.factorial(k) * q)


def _phase_error(q0, odd_qs, odd_es, q_odd, tail: str):
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
    return _clip_half(ex + tail_term)


def _rate(m, q, f_ec, ez, ex, ops):
    bracket = -f_ec * ops.entropy(ez) + 1.0 - ops.entropy(ex)
    return ops.floor((2.0 / m) * q * bracket)


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


class Ops(NamedTuple):
    """The transcendentals a rate function evaluates with, and its floor at 0."""

    exp: Callable
    sinh: Callable
    log2: Callable
    pow: Callable  # pow(x, k) for an int k
    floor: Callable

    def entropy(self, x):
        # binary_entropy of x in [0, 1/2], with this log2
        pos = x > 0.0
        x = _where(pos, x, 0.5)  # log2 of positive values only
        return _where(pos, _entropy(x, self.log2), 0.0)


def _mapped(fn):
    # fn of a number, and of each element of an array as a Python float
    # (further arguments fixed), so that every value is fn's to the bit
    def each(x, *args):
        if not isinstance(x, np.ndarray):
            return fn(x, *args)
        values = map(fn, x.ravel().tolist(), *map(itertools.repeat, args))
        return np.fromiter(values, float, x.size).reshape(x.shape)

    return each


# values: every transcendental and power from math (the scalar formulas'
# bits: math.pow is the libm pow that float ** calls), rates floored at 0
EXACT = Ops(_mapped(math.exp), _mapped(math.sinh), _mapped(math.log2), _mapped(math.pow), _floor)
# maximize's grid pass: NumPy's ufuncs, and rates kept signed, so that a row
# below 0 marks a cell without key
GRID = Ops(np.exp, np.sinh, np.log2, np.power, lambda v: v)


def _key_rate_terms(
    mu, p_d, eta, m, f_ec, tail: str, e_delta, ys, es, ops: Ops = EXACT, q_odd: bool = True
) -> tuple:
    """``key_rate``'s terms at the intensity ``mu``: (gain_Q, qber_Z,
    phase_err_X, the fractions of ``ORDERS``, q_odd, rate_R).

    ``mu``, ``p_d``, ``eta`` and the channel's ``_point_terms`` (e_delta,
    ys, es) are floats, or arrays that broadcast together.  ``q_odd=False``
    skips the odd-order sum (None) where the truncated tail does not read
    it.  With ``GRID`` ops rate_R is not floored at 0.
    """
    x = eta * mu
    damp_x, damp_mu = ops.exp(-x), ops.exp(-mu)
    q = _gain(p_d, damp_x)
    live = q > 0.0  # without clicks E_Z is 1/2 and every fraction 0
    q_live = _where(live, q, 1.0)  # so that nothing divides by 0
    ez = _where(live, _clip_half((p_d + x * e_delta) * damp_x / q_live), 0.5)
    qs = []
    for k, y in zip(ORDERS, ys):
        mu_k = ops.pow(mu, k) if k > 1 else mu**k  # mu**0 and mu**1 are exact anyway
        qs.append(_where(live, _fraction(k, y, mu_k, damp_mu, q_live), 0.0))
    odd = None
    if q_odd or tail == "odd":
        num = ops.sinh(mu) - (1.0 - 2.0 * p_d) * ops.sinh((1.0 - eta) * mu)
        odd = _where(live, damp_mu * num / q_live, 0.0)
    ex = _phase_error(qs[0], qs[1:], es[1:], odd, tail)
    return q, ez, ex, qs, odd, _rate(m, q, f_ec, ez, ex, ops)


def key_rate(ch: ChannelParams, pm: PmParams, *, tail: str = "truncated") -> RateBreakdown:
    """Key rate per emitted pulse pair, (2/M)*Q*[1 - f*H(E^Z) - H(E^X)].

    Negative bracket values are floored to rate 0.
    """
    e_delta, ys, es = _point_terms(ch.p_d, ch.eta_arm, pm.m_slices)
    q, ez, ex, qs, q_odd, rate_R = _key_rate_terms(
        pm.mu_total, ch.p_d, ch.eta_arm, pm.m_slices, pm.f_ec, tail, e_delta, ys, es
    )
    return RateBreakdown(
        q, ez, ex, dict(zip(ORDERS, qs)), q_odd, dict(zip(ORDERS, es)), e_delta, rate_R
    )


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

# the most cells in one grid pass, and (times N_GRID) the most points in one
# exact call of the scan: 16 keeps the temporaries to a few hundred KB
GRID_ROWS = 16


@functools.lru_cache(maxsize=8)
def _grid(lo: float, hi: float) -> np.ndarray:
    # maximize's grid as a read-only array, built once per range
    arr = np.array([lo + (hi - lo) * i / (N_GRID - 1) for i in range(N_GRID)])
    arr.flags.writeable = False
    return arr


def _scan_ranges(f_grid, n: int, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the first and one-past-last grid index at which maximize evaluates each
    # cell exactly: the whole grid, the candidates f_grid cannot rule out, or
    # none where f_grid's row is below 0 by more than its bound
    first, stop = np.zeros(n, dtype=np.intp), np.full(n, N_GRID, dtype=np.intp)
    if f_grid is None:
        return first, stop
    for start in range(0, n, GRID_ROWS):
        rows = np.arange(start, min(start + GRID_ROWS, n))
        g = np.asarray(f_grid(rows, grid), dtype=float).reshape(len(rows), N_GRID)
        top = g.max(axis=1)
        tol = GRID_REL_TOL * np.abs(g).max(axis=1) + GRID_ABS_TOL
        finite = np.isfinite(tol)  # a NaN or infinite entry: scan the whole grid
        with np.errstate(invalid="ignore"):
            cand = g >= (top - 2.0 * tol)[:, None]
        lo_i = cand.argmax(axis=1)
        hi_i = N_GRID - cand[:, ::-1].argmax(axis=1)
        # near 0 or on several peaks, scan the whole grid
        narrow = finite & (top > tol) & (hi_i - lo_i == cand.sum(axis=1))
        dead = finite & (top < -tol)
        first[rows] = np.where(narrow, lo_i, np.where(dead, N_GRID, 0))
        stop[rows] = np.where(narrow, hi_i, N_GRID)
    return first, stop


def maximize(f, n: int, lo: float, hi: float, f_grid=None) -> list[tuple[float, float]]:
    """Deterministic maximization of ``n`` functions over ``[lo, hi]``, in
    lockstep.

    ``f(cells, xs)`` returns, for 1-D arrays of cell indices and points of
    one length, each cell's function at its point.  Each function is
    evaluated on a 200-point grid, and the best grid point's bracket is
    refined by golden-section search, keeping the grid point if the
    refinement does worse.  Returns one ``(x, f(x))`` per cell; when
    ``f <= 0`` on the whole grid that is ``(lo, 0.0)``.  The search
    steps of every cell run together: each step is one call of ``f`` for
    every cell not yet within the tolerance, and the steps pass the same
    cells array until a cell stops.

    ``f_grid(cells, grid)``, if given, returns those cells' values on the
    grid (a read-only array) as a ``(len(cells), 200)`` array, for at most
    ``GRID_ROWS`` cells at a time: each row not floored at 0, within
    ``GRID_REL_TOL`` of the row's largest |value| plus ``GRID_ABS_TOL``.
    A row only selects its cell's best grid point: ``f`` is evaluated at
    every point the bound cannot rule out as the maximum, so the result
    is the same as without it.  :func:`maximize_cells` passes one.
    """
    grid = _grid(lo, hi)
    first, stop = _scan_ranges(f_grid, n, grid)
    # the scan: every cell at its grid indices, at most GRID_ROWS * N_GRID a call
    counts = stop - first
    cells = np.repeat(np.arange(n), counts)
    offsets = np.cumsum(counts) - counts
    index = np.arange(len(cells)) - np.repeat(offsets - first, counts)
    size = GRID_ROWS * N_GRID
    vals = np.concatenate([
        f(cells[i : i + size], grid[index[i : i + size]]) for i in range(0, len(cells), size)
    ] or [np.empty(0)])
    # each scanned cell's first best grid index, as max() over the scan picks it
    scanned = np.flatnonzero(counts)
    seg_max = np.maximum.reduceat(vals, offsets[scanned]) if len(scanned) else vals
    hits = np.flatnonzero(~(vals < np.repeat(seg_max, counts[scanned])))
    at = hits[np.searchsorted(hits, offsets[scanned])]
    live = ~(vals[at] <= 0.0)
    cell, best, best_val = scanned[live], index[at][live], vals[at][live]
    x_out, v_out = np.full(n, grid[0]), np.zeros(n)
    if not len(cell):
        return list(zip(x_out.tolist(), v_out.tolist()))
    # golden-section search in each live cell's bracket, all cells in step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    tol = 1e-9 * (hi - lo)
    a, b = grid[np.maximum(best - 1, 0)], grid[np.minimum(best + 1, N_GRID - 1)]
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = np.split(f(np.concatenate([cell, cell]), np.concatenate([c, d])), 2)
    # the steps carry only the cells still above the tolerance, and so index
    # nothing (and call f on one cells array) until one of them stops
    final = np.empty((4, len(cell)))  # each cell's last (c, d, fc, fd)
    at, cells = np.arange(len(cell)), cell
    while True:
        going = b - a > tol
        if not going.all():
            stop = ~going
            final[:, at[stop]] = c[stop], d[stop], fc[stop], fd[stop]
            at, cells, a, b, c, d, fc, fd = (v[going] for v in (at, cells, a, b, c, d, fc, fd))
            if not len(at):
                break
        # fc >= fd keeps [a, d] and puts a new c in it, else [c, b] with a new d
        left = fc >= fd
        a, b, kept, f_kept = (np.where(left, a, c), np.where(left, d, b), np.where(left, c, d),
                              np.where(left, fc, fd))
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = f(cells, x)
        c, d = np.where(left, x, kept), np.where(left, kept, x)
        fc, fd = np.where(left, fx, f_kept), np.where(left, f_kept, fx)
    c, d, fc, fd = final
    x_opt, v_opt = np.where(fc >= fd, c, d), np.where(fd > fc, fd, fc)
    worse = v_opt < best_val  # the refinement did worse than the grid point
    x_out[cell] = np.where(worse, grid[best], x_opt)
    v_out[cell] = np.where(worse, best_val, v_opt)
    return list(zip(x_out.tolist(), v_out.tolist()))


def _columns(cells) -> list:
    # each entry of the per-cell tuples as one array over the cells, and an
    # entry that is a list of floats as a list of such arrays
    cols = []
    for entry in zip(*cells):
        arr = np.array(entry, dtype=float)
        cols.append(arr if arr.ndim == 1 else list(arr.T))
    return cols


def _take(columns, cells) -> list:
    # the columns' entries of the given cells, in the cells' shape
    return [col[cells] if isinstance(col, np.ndarray) else [c[cells] for c in col]
            for col in columns]


# the intensity search range of every protocol's optimization
MU_RANGE = (0.01, 2.0)


def maximize_cells(cells, step, mus=None) -> list[tuple[float, float]]:
    """:func:`maximize` of one protocol's rate over :data:`MU_RANGE` on each
    channel of a batch, or with ``mus`` its rate at one intensity each.

    ``cells`` holds each channel's mu-independent terms, a tuple whose
    entries are floats or lists of floats.  ``step(mus, *columns, ops)``
    is the rate at an array of intensities, where each entry of the cells
    comes as an array over the channels (a list entry as a list of
    arrays) that broadcasts against ``mus``.  The grid pass calls it with
    ``GRID`` ops and ``(rows, 1)`` columns, the values with ``EXACT``.
    Returns one ``(mu, rate)`` per cell; empty ``cells`` give ``[]``.
    """
    if not cells:
        return []
    columns = _columns(cells)
    if mus is not None:
        return list(zip(mus, step(np.array(mus, dtype=float), *columns, EXACT).tolist()))
    taken = [None, None]  # the cell indices of the last exact call, and their columns

    def exact(idx, xs):
        # maximize's steps pass one idx array until a cell stops: gather once
        if idx is not taken[0]:
            taken[:] = idx, _take(columns, idx)
        return step(xs, *taken[1], EXACT)

    return maximize(
        exact, len(cells), *MU_RANGE,
        lambda idx, grid: step(grid, *_take(columns, idx[:, None]), GRID),
    )


def optimize_mu_chunk(channels, m_slices: int, f_ec: float, mus=None) -> list[tuple[float, float]]:
    """``(mu, rate_R)`` of each channel at the intensity in :data:`MU_RANGE`
    maximizing the key rate, found by :func:`maximize_cells`; with ``mus``,
    at one given intensity each, checked as ``PmParams`` checks it.

    Where the rate vanishes everywhere the smallest grid intensity is
    returned with rate 0.  Every returned value is ``key_rate``'s.
    """
    _check_m_slices(m_slices)
    _check_f_ec(f_ec)
    for mu in mus or ():
        PmParams(mu, m_slices, f_ec)
    return maximize_cells(
        [(ch.p_d, ch.eta_arm, *_point_terms(ch.p_d, ch.eta_arm, m_slices)) for ch in channels],
        functools.partial(_pm_rate, m_slices, f_ec),
        mus,
    )


def _pm_rate(m_slices: int, f_ec: float, mu, p_d, eta, e_delta, ys, es, ops: Ops):
    # the optimizer's rate: key_rate's truncated-tail rate_R
    return _key_rate_terms(mu, p_d, eta, m_slices, f_ec, "truncated", e_delta, ys, es, ops,
                           q_odd=False)[-1]


def optimize_mu(ch: ChannelParams, m_slices: int, f_ec: float) -> tuple[float, float]:
    """``(mu, rate_R)`` at the intensity in :data:`MU_RANGE` maximizing the
    key rate on ``ch``: :func:`optimize_mu_chunk` of the one channel."""
    return optimize_mu_chunk([ch], m_slices, f_ec)[0]

"""Decoy-state estimation of per-photon-number yields and errors.

Solves the truncated Poisson-mixture linear systems
Q_mu = sum_k P_mu(k) Y_k and E_mu Q_mu = sum_k e_k P_mu(k) Y_k by
bounded least squares.  The estimates attribute nothing to the Poisson
mass beyond the truncation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rate import (
    EXACT,
    ODD_ORDERS,
    PmParams,
    RateBreakdown,
    _fraction,
    _phase_error,
    _rate,
    misalignment_e_delta,
)
from .simcore import Tally

ILL_CONDITIONED_THRESHOLD = 1e10


class IllConditionedSystemError(ValueError):
    def __init__(self, condition_number: float):
        super().__init__(f"decoy system is ill-conditioned (cond = {condition_number:.3e})")
        self.condition_number = condition_number


@dataclass
class DecoyEstimate:
    k_max: int
    yields: np.ndarray  # Y_k, k = 0..k_max
    bit_errors: np.ndarray  # e^Z_k


def _poisson_matrix(intensities: np.ndarray, k_max: int) -> np.ndarray:
    a = np.empty((len(intensities), k_max + 1))
    for i, mu in enumerate(intensities):
        row = np.empty(k_max + 1)
        term = math.exp(-mu)
        for k in range(k_max + 1):
            row[k] = term
            term *= mu / (k + 1)
        a[i] = row
    return a


def _bounded_fit(a: np.ndarray, b: np.ndarray, upper: np.ndarray) -> np.ndarray:
    from scipy.optimize import lsq_linear  # deferred: importing it costs ~0.5 s per process
    res = lsq_linear(a, b, bounds=(np.zeros(a.shape[1]), upper), method="bvls")
    return res.x


def decoy_estimate(tallies: list[Tally], k_max: int) -> DecoyEstimate:
    """Estimate Y_k and e^Z_k for k <= k_max from per-intensity tallies.

    Requires at least k_max + 1 distinct intensities.  Raises
    IllConditionedSystemError when the Poisson design matrix cannot
    support the requested truncation.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if len(tallies) < k_max + 1:
        raise ValueError(
            f"need at least k_max+1 = {k_max + 1} intensities, got {len(tallies)}"
        )
    intensities = np.array([t.intensity for t in tallies], dtype=float)
    if len(set(intensities.tolist())) != len(intensities):
        raise ValueError("intensities must be distinct")
    q_hat = np.array([t.q_hat for t in tallies])
    eq_hat = np.array([t.ez_hat * t.q_hat for t in tallies])

    a = _poisson_matrix(intensities, k_max)
    cond = float(np.linalg.cond(a))
    if cond > ILL_CONDITIONED_THRESHOLD:
        raise IllConditionedSystemError(cond)

    y = _bounded_fit(a, q_hat, np.ones(k_max + 1))
    ey = _bounded_fit(a, eq_hat, np.maximum(y, 1e-300))
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(y > 1e-12, ey / np.maximum(y, 1e-300), 0.5)

    return DecoyEstimate(k_max=k_max, yields=y, bit_errors=e)


@dataclass
class EmpiricalRate:
    breakdown: RateBreakdown


def empirical_rate(tallies: list[Tally], estimate: DecoyEstimate, pm: PmParams) -> EmpiricalRate:
    """Key rate assembled from measured gain/QBER and estimated yields.

    Uses the tally whose intensity equals ``pm.mu_total``.  Vacuum
    rounds are charged the fixed error 1/2; every photon order beyond
    the kept odd ones counts as full phase error.  So ``q_odd`` holds the
    sum of the kept odd fractions, q_1 + q_3 + ... up to ``k_max``, not
    ``key_rate``'s closed-form sum over every odd order.
    """
    signal = None
    for t in tallies:
        if abs(t.intensity - pm.mu_total) < 1e-12:
            signal = t
            break
    if signal is None:
        raise ValueError(f"no tally at the signal intensity {pm.mu_total}")

    q_hat = signal.q_hat
    ez = ex = 0.5
    rate = 0.0
    fractions, bit_errors, odd_qs = {}, {}, []
    if q_hat > 0.0 and signal.sifted > 0:
        ez = min(signal.ez_hat, 0.5)
        odd = [k for k in ODD_ORDERS if k <= estimate.k_max]
        mu, damp = pm.mu_total, math.exp(-pm.mu_total)
        for k in (0, *odd):
            fractions[k] = _fraction(k, float(estimate.yields[k]), mu**k, damp, q_hat)
            bit_errors[k] = 0.5 if k == 0 else float(estimate.bit_errors[k])
        odd_qs, odd_es = [fractions[k] for k in odd], [bit_errors[k] for k in odd]
        ex = _phase_error(fractions[0], odd_qs, odd_es, 0.0, "truncated")
        rate = _rate(pm.m_slices, q_hat, pm.f_ec, ez, ex, EXACT)
    breakdown = RateBreakdown(
        gain_Q=q_hat,
        qber_Z=ez,
        phase_err_X=ex,
        fractions=fractions,
        q_odd=sum(odd_qs, 0.0),
        bit_errors=bit_errors,
        e_delta=misalignment_e_delta(pm.m_slices),
        rate_R=rate,
    )
    return EmpiricalRate(breakdown=breakdown)

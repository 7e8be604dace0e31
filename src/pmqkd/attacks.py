"""Beam-splitting attack analysis.

Eve taps both arms with transmittance-eta beam splitters, keeps the
reflected light, and after the phase announcement runs unambiguous
state discrimination on her copies.  Comparing the resulting key-rate
upper bound against the tagging-style (GLLP) single-photon formula
shows the latter overshoots it in a large parameter region, while the
phase-error-based rate stays below the bound everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .detection import _check_intensity, _check_prob, binary_entropy
from .rate import _fraction, _phase_error


@dataclass(frozen=True)
class AttackPoint:
    """All rates at one (mu, eta) point, per sifted click except ``r_gllp_literal``."""

    eta: float
    mu: float
    r_bs: float
    r_gllp: float
    r_gllp_literal: float  # eta*mu*exp(-mu): r_gllp without the gain denominator
    r_pm: float


@dataclass(frozen=True)
class ViolationReport:
    """The scan's points in grid order, and the grid spans and bisected
    crossovers where the per-click tagging rate exceeds r_BS."""

    points: tuple[AttackPoint, ...]
    violation_intervals: tuple[tuple[float, float], ...]
    crossovers: tuple[float, ...]

    @property
    def has_violation(self) -> bool:
        return bool(self.violation_intervals)


def _check_point(mu_total: float, eta: float) -> None:
    _check_intensity("mu_total", mu_total)
    _check_prob("eta", eta)


def usd_success(mu_total: float, eta: float) -> float:
    """Probability of unambiguously reading one party's key bit.

    Eve's tapped copy carries intensity (1-eta)*mu/2, and the optimal
    unambiguous discrimination of the two opposite coherent states
    succeeds with 1 - |<alpha|-alpha>| = 1 - exp(-(1-eta)*mu).
    """
    _check_point(mu_total, eta)
    return -math.expm1(-(1.0 - eta) * mu_total)


def bs_attack(mu_total: float, eta: float) -> AttackPoint:
    """Full attack evaluation at one parameter point.

    Eve needs either party's bit, so her success probability is
    P_BS = 1 - (1 - P_suc)^2 with P_suc from :func:`usd_success`, and her
    information equals P_BS; the surviving rate is
    r_BS = 1 - P_BS = exp(-2*(1-eta)*mu).
    """
    _check_point(mu_total, eta)
    return AttackPoint(
        eta=eta,
        mu=mu_total,
        r_bs=math.exp(-2.0 * (1.0 - eta) * mu_total),
        r_gllp=gllp_rate_under_bs(mu_total, eta),
        r_gllp_literal=eta * mu_total * math.exp(-mu_total),
        r_pm=pm_rate_under_bs(mu_total, eta),
    )


def gllp_rate_under_bs(mu_total: float, eta: float) -> float:
    """Tagging-style rate under the attack: the single-photon fraction.

    The attack is error-free, so the formula reduces to
    q_1 = eta*mu*exp(-mu)/(1-exp(-eta*mu)), the fraction of clicked
    rounds.
    """
    _check_point(mu_total, eta)
    bare = eta * mu_total * math.exp(-mu_total)
    q_mu = -math.expm1(-eta * mu_total)
    if q_mu <= 0.0:
        # eta*mu -> 0 limit: every click is single-photon
        return math.exp(-mu_total)
    return bare / q_mu


def pm_rate_under_bs(mu_total: float, eta: float) -> float:
    """Phase-error-based rate under the attack, 1 - H(E^X).

    With no dark counts Y_k = 1-(1-eta)^k, all bit errors vanish, and
    E^X = 1 - q_1 - q_3 - q_5 clamped to [0, 0.5].
    """
    _check_point(mu_total, eta)
    # expm1/log1p keep the yields and gain precise at small eta*mu
    q_mu = -math.expm1(-eta * mu_total)
    qs = [0.0] * 3  # no fraction without clicks (eta*mu = 0)
    if q_mu > 0.0:
        qs = [_fraction(k, -math.expm1(k * math.log1p(-eta)) if eta < 1.0 else 1.0,
                        mu_total**k, math.exp(-mu_total), q_mu) for k in (1, 3, 5)]
    ex = _phase_error(0.0, qs, (0.0,) * 3, 0.0, "truncated")
    return 1.0 - binary_entropy(ex)


def sweep_grid(lo: float, hi: float, steps: int) -> list[float]:
    """``steps`` evenly spaced points from ``lo`` to exactly ``hi``."""
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps - 1)] + [hi]


def find_gllp_violation(
    *,
    fixed_mu: float | None = None,
    fixed_eta: float | None = None,
    sweep_range: tuple[float, float] | None = None,
    steps: int,
) -> ViolationReport:
    """Evaluate :func:`bs_attack` on the grid and locate where r_GLLP > r_BS.

    Exactly one of ``fixed_mu``/``fixed_eta`` must be given; the other
    variable is swept over ``sweep_grid(lo, hi, steps)``, by default eta
    in [1e-3, 1 - 1e-9] or mu in [1e-3, 2].  Each grid point is evaluated
    once, and each sign change of r_GLLP - r_BS (per click) is refined
    by 80 bisection steps of one evaluation each.  Both ends of the range
    are checked first, so a bad one is named as given.  An empty
    violation set is a valid result.
    """
    if (fixed_mu is None) == (fixed_eta is None):
        raise ValueError("fix exactly one of mu or eta")
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    if fixed_mu is not None:
        lo, hi = sweep_range or (1e-3, 1.0 - 1e-9)

        def args(x: float) -> tuple[float, float]:
            return fixed_mu, x

    else:
        lo, hi = sweep_range or (1e-3, 2.0)

        def args(x: float) -> tuple[float, float]:
            return x, fixed_eta

    for end in (lo, hi):  # the ends as given, before any grid point is evaluated
        _check_point(*args(end))
    if not (lo < hi):
        raise ValueError("sweep range must satisfy lo < hi")
    xs = sweep_grid(lo, hi, steps)
    points = tuple(bs_attack(*args(x)) for x in xs)
    above = [p.r_gllp - p.r_bs > 0 for p in points]

    crossovers, intervals = [], []
    start = xs[0]  # where the current run of equal signs began
    for i in range(steps - 1):
        if above[i] != above[i + 1]:
            # the left end keeps its side, so only the midpoint is evaluated
            a, b = xs[i], xs[i + 1]
            for _ in range(80):
                m = 0.5 * (a + b)
                p = bs_attack(*args(m))
                if above[i] != (p.r_gllp - p.r_bs > 0):
                    b = m
                else:
                    a = m
            crossovers.append(0.5 * (a + b))
            if above[i]:
                intervals.append((start, xs[i + 1]))
            start = xs[i + 1]
    if above[-1]:
        intervals.append((start, xs[-1]))

    return ViolationReport(
        points=points, violation_intervals=tuple(intervals), crossovers=tuple(crossovers)
    )

"""Reference code that only the tests use.

Closed forms and Fock-space constructions that check the package from
outside: dark-count composition of click outcomes, coherent-state click
marginals, the sliced-phase mismatch density and misalignment error, the
coherent-state parity split and phase-averaged dephasing on the
truncated number basis, the slice-offset search with one sample draw
for every click, and the phase-matching, BB84 and MDI rates in 60-digit
arithmetic.
No command runs them, so they live here rather than in ``pmqkd``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import numpy as np

from pmqkd.detection import ClickProbs, _check_prob
from pmqkd.simcore import (
    MIN_SAMPLED_CLICKS,
    InsufficientSamplesError,
    PostcompResult,
    RoundData,
)

TWO_PI = 2.0 * math.pi
# the truncation of the coherent-state oracles, raised for large intensities
DEFAULT_CUTOFF = 16


class Outcome(IntEnum):
    """A round's clicks, as the kernel tests classify the rounds.  The
    simulator keeps a record for LEFT and RIGHT only, with the R click in
    its ``e0``."""

    NONE = 0
    LEFT = 1
    RIGHT = 2
    DOUBLE = 3


class CutoffOverflowError(ValueError):
    """A coherent state's Poisson tail beyond the chosen truncation is too large."""


# ---------------------------------------------------------------------------
# detection: dark counts, coherent inputs, sliced-phase mismatch
# ---------------------------------------------------------------------------


def with_dark_counts(raw: ClickProbs, p_d: float) -> ClickProbs:
    """Compose photon-click outcomes with independent dark counts.

    Each detector independently dark-fires with probability ``p_d``;
    the four joint dark-count cases reshuffle the raw outcomes.
    """
    _check_prob("p_d", p_d)
    q = 1.0 - p_d
    p0 = q * q * raw.p_none
    pl = p_d * q * raw.p_none + q * raw.p_left
    pr = p_d * q * raw.p_none + q * raw.p_right
    plr = (1.0 - p_d * p_d) * raw.p_double + p_d * q * (raw.p_left + raw.p_right) + p_d * p_d
    return ClickProbs(p0, pl, pr, plr)


def coherent_clicks(
    mu_total: float, eta: float, phi_delta: float, p_d: float
) -> tuple[float, float]:
    """Marginal click probabilities (P_L, P_R) for coherent inputs.

    Both parties send mu_total/2, so the interfered intensities are
    eta*mu*cos^2(phi_delta/2) at L and eta*mu*sin^2(phi_delta/2) at R.
    The two detectors are statistically independent: joint outcome
    probabilities are products of these marginals.

    Uses expm1/log1p so that probabilities of order p_d ~ 1e-7 keep
    full relative precision.
    """
    if mu_total < 0 or math.isnan(mu_total):
        raise ValueError(f"mean photon number must be nonnegative, got {mu_total!r}")
    _check_prob("eta", eta)
    _check_prob("p_d", p_d)
    half = 0.5 * phi_delta
    c2 = math.cos(half) ** 2
    s2 = math.sin(half) ** 2
    log_q = math.log1p(-p_d) if p_d < 1.0 else -math.inf
    p_left = -math.expm1(log_q - eta * mu_total * c2)
    p_right = -math.expm1(log_q - eta * mu_total * s2)
    return (p_left, p_right)


def phase_diff_pdf(phi: float, phi_0: float, m_slices: int) -> float:
    """Density of the phase difference phi_b - phi_a on matched slices.

    Both announced phases are uniform over one slice of width 2*pi/M,
    Bob's offset by the reference deviation phi_0, so the difference is
    triangular on [phi_0 - 2*pi/M, phi_0 + 2*pi/M) with peak M/(2*pi).
    """
    if m_slices < 2:
        raise ValueError("m_slices must be >= 2")
    w = TWO_PI / m_slices
    h2 = (m_slices / TWO_PI) ** 2
    if phi_0 - w <= phi < phi_0:
        return h2 * (phi + (w - phi_0))
    if phi_0 <= phi < phi_0 + w:
        return h2 * (-phi + (w + phi_0))
    return 0.0


# pi to 60 decimals: its error, ~1e-61, is far below a double's
PI_60 = Fraction("3.141592653589793238462643383279502884197169399375105820974944")


def e_delta_series(m_slices: int) -> float:
    """pi/M - (M/pi)^2 * sin^3(pi/M), summed exactly in rationals.

    With sin^3 x = (3 sin x - sin 3x)/4 the function is
    sum_{n>=2} (-1)^n (3^(2n+1) - 3) x^(2n-1) / (4 (2n+1)!) at x = pi/M;
    the terms alternate and shrink for M >= 2, and the sum stops once a
    term is below 1e-40 of the total.
    """
    x = PI_60 / m_slices
    total, n = Fraction(0), 2
    while True:
        coeff = Fraction((-1) ** n * (3 ** (2 * n + 1) - 3), 4 * math.factorial(2 * n + 1))
        term = coeff * x ** (2 * n - 1)
        total += term
        if abs(term) < abs(total) * Fraction(1, 10**40):
            return float(total)
        n += 1


def postcompensate_one_shot(
    clicks: RoundData, sample_fraction: float, rng: np.random.Generator, m_slices: int
) -> PostcompResult:
    """``simcore.postcompensate`` with the sample drawn by one ``random``
    call of one uniform per click, and the (d0, e0) counts read in one
    ``bincount``."""
    picked = np.flatnonzero(rng.random(len(clicks)) < sample_fraction)
    if len(picked) < MIN_SAMPLED_CLICKS:
        raise InsufficientSamplesError(
            f"only {len(picked)} sampled clicked rounds; need >= {MIN_SAMPLED_CLICKS}"
        )
    bins = 2 * clicks.d0[picked].astype(np.intp) + clicks.e0[picked]
    counts = np.bincount(bins, minlength=2 * m_slices).reshape(m_slices, 2)
    matched = -np.arange(m_slices) % m_slices
    flipped = (matched + m_slices // 2) % m_slices
    kept = counts[matched].sum(axis=1) + counts[flipped].sum(axis=1)
    wrong = counts[matched, 1] + counts[flipped, 0]
    table = np.divide(wrong, kept, out=np.full(m_slices, np.nan), where=kept > 0)
    j_d_opt = int(np.nanargmin(table))
    return PostcompResult(j_d_opt=j_d_opt, qber_table=table, sampled_clicks=len(picked))


# ---------------------------------------------------------------------------
# coherent states: parity split and phase-averaged dephasing
# ---------------------------------------------------------------------------


def coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes of |alpha> up to the cutoff."""
    a = complex(alpha)
    if a == 0:
        vec = np.zeros(cutoff + 1, dtype=complex)
        vec[0] = 1.0
        return vec
    n = np.arange(cutoff + 1)
    log_fact = np.array([math.lgamma(i + 1) for i in n])
    log_mag = n * math.log(abs(a)) - 0.5 * abs(a) ** 2 - 0.5 * log_fact
    return np.exp(log_mag) * np.exp(1j * cmath.phase(a) * n)


@dataclass(frozen=True)
class ParityDecomposition:
    c_odd: float
    c_even: float
    odd_vec: np.ndarray
    even_vec: np.ndarray


def _poisson_tail(mu: float, cutoff: int) -> float:
    # P(N > cutoff) for N ~ Poisson(mu)
    term = math.exp(-mu)
    cdf = term
    for k in range(1, cutoff + 1):
        term *= mu / k
        cdf += term
    return max(1.0 - cdf, 0.0)


def default_cutoff_for(mu: float) -> int:
    c = DEFAULT_CUTOFF
    while _poisson_tail(mu, c) >= 1e-14 and c < 200:
        c += 4
    return c


def coherent_parity_decompose(mu_total: float, cutoff: int | None = None) -> ParityDecomposition:
    """Split |sqrt(mu)> into normalized odd and even parity components.

    The weights are c_odd = exp(-mu)*sinh(mu) and
    c_even = exp(-mu)*cosh(mu); mixing the two opposite-phase coherent
    projectors reproduces c_odd|odd><odd| + c_even|even><even|.
    """
    if mu_total < 0:
        raise ValueError("mu_total must be nonnegative")
    c = cutoff if cutoff is not None else default_cutoff_for(mu_total)
    if _poisson_tail(mu_total, c) >= 1e-14:
        raise CutoffOverflowError(
            f"Poisson tail beyond cutoff {c} is too large for mu={mu_total}"
        )
    vec = coherent_vector(math.sqrt(mu_total), c)
    odd = vec.copy()
    odd[0::2] = 0.0
    even = vec.copy()
    even[1::2] = 0.0
    c_odd = math.exp(-mu_total) * math.sinh(mu_total)
    c_even = math.exp(-mu_total) * math.cosh(mu_total)
    n_odd = np.linalg.norm(odd)
    n_even = np.linalg.norm(even)
    odd_vec = odd / n_odd if n_odd > 0 else odd
    even_vec = even / n_even
    return ParityDecomposition(c_odd=c_odd, c_even=c_even, odd_vec=odd_vec, even_vec=even_vec)


def phase_average_dephase(mu_total: float, n_quadrature: int, cutoff: int) -> np.ndarray:
    """Uniform-phase average of |sqrt(mu) e^{i phi}> projectors.

    With at least 2*cutoff+2 quadrature points every off-diagonal term
    cancels exactly and the diagonal carries the Poisson weights.
    """
    if n_quadrature < 2 * cutoff + 2:
        raise ValueError("n_quadrature must be at least 2*cutoff + 2")
    d = cutoff + 1
    rho = np.zeros((d, d), dtype=complex)
    amp = math.sqrt(mu_total)
    for j in range(n_quadrature):
        phi = 2.0 * math.pi * j / n_quadrature
        vec = coherent_vector(amp * cmath.exp(1j * phi), cutoff)
        rho += np.outer(vec, vec.conj())
    return rho / n_quadrature


@dataclass(frozen=True)
class RateTermsMp:
    """The rate routine's gain, E_Z, photon fractions and e_delta in 60-digit mpmath."""

    gain_Q: object  # mpmath.mpf
    qber_Z: object
    fractions: dict  # q_k for k = 0, 1, 3, 5
    e_delta: object


def rate_terms_mp(mu: float, eta: float, p_d: float, m_slices: int) -> RateTermsMp:
    """``key_rate``'s Q, E_Z and q_0/q_1/q_3/q_5 in 60-digit arithmetic.

    The floats given are taken as exact, and the formulas are the rate
    routine's (Q first order in p_d, the closed-form e_delta, no clamp):
    Q = 1 - (1-2p_d)e^{-eta mu}, E_Z = (p_d + eta mu e_delta)e^{-eta mu}/Q,
    q_k = Y_k mu^k e^{-mu}/(k! Q) with Y_0 = 2p_d and
    Y_k = 1 - (1-2p_d)(1-eta)^k.
    """
    import mpmath  # deferred: only the high-precision oracle needs it

    with mpmath.workdps(60):
        mu, eta, p_d = mpmath.mpf(mu), mpmath.mpf(eta), mpmath.mpf(p_d)
        x = mpmath.pi / m_slices
        e_delta = x - (m_slices / mpmath.pi) ** 2 * mpmath.sin(x) ** 3
        q = 1 - (1 - 2 * p_d) * mpmath.exp(-eta * mu)
        ez = (p_d + eta * mu * e_delta) * mpmath.exp(-eta * mu) / q
        fractions = {}
        for k in (0, 1, 3, 5):
            y = 2 * p_d if k == 0 else 1 - (1 - 2 * p_d) * (1 - eta) ** k
            fractions[k] = y * mu**k * mpmath.exp(-mu) / (mpmath.factorial(k) * q)
        return RateTermsMp(q, ez, fractions, e_delta)


def _entropy_mp(x):
    import mpmath

    return 0 if x in (0, 1) else -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)


def _clip_half_mp(x):
    return min(max(x, 0), 0.5)


def pm_rate_mp(mu: float, eta: float, p_d: float, m_slices: int, f_ec: float, tail: str):
    """``key_rate``'s rate_R and its bracket b = 1 - f H(E_Z) - H(E_X), in
    60-digit arithmetic (the rate is 0 where b <= 0).

    The terms are ``rate_terms_mp``'s, E_Z and E_X clamped to [0, 1/2];
    e_k = (p_d (1-eta)^k + e_delta (1 - (1-eta)^k)) / Y_k for k >= 1, and
    the vacuum errs with 1/2.  The truncated tail charges 1 - q_0 - q_1 -
    q_3 - q_5 as full error, the odd tail 1 - q_0 - q_odd with
    q_odd = e^{-mu}(sinh mu - (1-2p_d) sinh((1-eta) mu))/Q.
    """
    import mpmath

    with mpmath.workdps(60):
        terms = rate_terms_mp(mu, eta, p_d, m_slices)
        mu, eta, p_d = mpmath.mpf(mu), mpmath.mpf(eta), mpmath.mpf(p_d)
        qs, q, e_delta = terms.fractions, terms.gain_Q, terms.e_delta
        ex = qs[0] / 2
        for k in (1, 3, 5):
            loss = (1 - eta) ** k
            ex += qs[k] * (p_d * loss + e_delta * (1 - loss)) / (1 - (1 - 2 * p_d) * loss)
        if tail == "truncated":
            ex += 1 - qs[0] - qs[1] - qs[3] - qs[5]
        else:
            odd = mpmath.sinh(mu) - (1 - 2 * p_d) * mpmath.sinh((1 - eta) * mu)
            ex += 1 - qs[0] - mpmath.exp(-mu) * odd / q
        b = 1 - f_ec * _entropy_mp(_clip_half_mp(terms.qber_Z)) - _entropy_mp(_clip_half_mp(ex))
        return max(2 * q * b / m_slices, 0), b


def bb84_rate_mp(mu: float, e_d: float, f_ec: float, eta: float, p_d: float):
    """``bb84_rate``'s rate and its bracket b = 1 - f H(E_mu) / (q_1 (1 - H(e_1))),
    in 60-digit arithmetic (the rate is 0 where b <= 0).

    Q = 1 - (1-2p_d)e^{-eta mu}, E_mu = min(e_d + (1/2 - e_d) 2p_d / Q, 1/2),
    q_1 = mu e^{-mu} Y_1 / Q, Y_1 = 1 - (1-2p_d)(1-eta) and
    e_1 = min(e_d + (1/2 - e_d) 2p_d / Y_1, 1/2); R = Q q_1 (1 - H(e_1)) b / 2.
    """
    import mpmath

    with mpmath.workdps(60):
        mu, e_d, eta, p_d = map(mpmath.mpf, (mu, e_d, eta, p_d))
        q = 1 - (1 - 2 * p_d) * mpmath.exp(-eta * mu)
        e_mu = min(e_d + (0.5 - e_d) * 2 * p_d / q, 0.5)
        y1 = 1 - (1 - 2 * p_d) * (1 - eta)
        e1 = min(e_d + (0.5 - e_d) * 2 * p_d / y1, 0.5)
        key = mu * mpmath.exp(-mu) * y1 / q * (1 - _entropy_mp(e1))
        b = 1 - f_ec * _entropy_mp(e_mu) / key
        return max(q * key * b / 2, 0), b


def mdi_rate_mp(mu_a: float, mu_b: float, eta_a: float, eta_b: float, p_d: float, e_d: float,
                f_ec: float):
    """``mdi_rate``'s rate and its bracket
    b = 1 - f Q_rect H(E_rect) / (Q_11 (1 - H(e_11))), in 60-digit
    arithmetic (the rate is 0 where b <= 0), with I_0 from ``mpmath.besseli``.

    With P = (1-p_d)^2, D = e^{-(eta_a mu_a + eta_b mu_b)/2} and
    x = sqrt(eta_a mu_a eta_b mu_b)/2:
    Q_C = 2 P D (1 - (1-p_d)e^{-eta_a mu_a/2})(1 - (1-p_d)e^{-eta_b mu_b/2}),
    Q_E = 2 p_d P D (I_0(2x) - (1-p_d) D), Q_rect = Q_C + Q_E,
    E_rect = (e_d Q_C + (1-e_d) Q_E)/Q_rect clamped to [0, 1/2],
    Y_11 = P (eta_a eta_b/2 + (2 eta_a + 2 eta_b - 3 eta_a eta_b) p_d
    + 4 (1-eta_a)(1-eta_b) p_d^2),
    e_11 = (Y_11/2 - (1/2 - e_d)(1-p_d^2) eta_a eta_b/2)/Y_11 clamped to
    [0, 1/2], Q_11 = mu_a mu_b e^{-mu_a-mu_b} Y_11 and
    R = Q_11 (1 - H(e_11)) b / 2.
    """
    import mpmath

    with mpmath.workdps(60):
        mu_a, mu_b, eta_a, eta_b, p_d, e_d = map(mpmath.mpf, (mu_a, mu_b, eta_a, eta_b, p_d, e_d))
        pass2 = (1 - p_d) ** 2
        damp = mpmath.exp(-(eta_a * mu_a + eta_b * mu_b) / 2)
        x = mpmath.sqrt(eta_a * mu_a * eta_b * mu_b) / 2
        arm_a = 1 - (1 - p_d) * mpmath.exp(-eta_a * mu_a / 2)
        arm_b = 1 - (1 - p_d) * mpmath.exp(-eta_b * mu_b / 2)
        q_c = 2 * pass2 * damp * arm_a * arm_b
        q_e = 2 * p_d * pass2 * damp * (mpmath.besseli(0, 2 * x) - (1 - p_d) * damp)
        e_rect = _clip_half_mp((e_d * q_c + (1 - e_d) * q_e) / (q_c + q_e))
        y11 = pass2 * (eta_a * eta_b / 2 + (2 * eta_a + 2 * eta_b - 3 * eta_a * eta_b) * p_d
                       + 4 * (1 - eta_a) * (1 - eta_b) * p_d**2)
        e11 = _clip_half_mp((y11 / 2 - (0.5 - e_d) * (1 - p_d**2) * eta_a * eta_b / 2) / y11)
        key = mu_a * mu_b * mpmath.exp(-mu_a - mu_b) * y11 * (1 - _entropy_mp(e11))
        b = 1 - f_ec * (q_c + q_e) * _entropy_mp(e_rect) / key
        return max(key * b / 2, 0), b

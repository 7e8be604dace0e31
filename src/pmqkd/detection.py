"""Detection model of the untrusted interference node.

Click probabilities for Fock and coherent-state inputs on a 50/50 beam
splitter followed by two threshold detectors, dark-count composition,
and the phase-mismatch distribution induced by coarse phase slicing.
All functions are pure and stateless.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

PROB_SUM_TOL = 1e-12


def _check_prob(name: str, value: float) -> None:
    if math.isnan(value) or not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


# The largest intensity the formulas take: sinh(mu) overflows a float above ~710.
MAX_INTENSITY = 500.0


def _check_f_ec(f_ec: float) -> None:
    if not (1.0 <= f_ec < math.inf):
        raise ValueError(f"f_ec must be finite and >= 1, got {f_ec!r}")


def _check_fiber(eta_d: float, alpha_db_per_km: float) -> None:
    _check_prob("eta_d", eta_d)
    if not (0.0 < alpha_db_per_km < math.inf):
        raise ValueError(f"alpha_db_per_km must be positive and finite, got {alpha_db_per_km!r}")


def _check_distance(distance_km: float) -> None:
    if not (0.0 <= distance_km < math.inf):
        raise ValueError(f"distance_km must be nonnegative and finite, got {distance_km!r}")


def fiber_transmittance(distance_km: float, eta_d: float, alpha_db_per_km: float) -> float:
    """Transmittance over ``distance_km`` of fiber, detector efficiency included.

    ``eta_d * 10**(-alpha * l / 10)``.  Phase-matching and MDI arms span
    half the A-B distance, so their per-arm value is this at ``l/2``;
    BB84 and the capacity bounds use the full distance.  The inputs are
    checked first, so a bad one is named rather than the transmittance.
    """
    _check_fiber(eta_d, alpha_db_per_km)
    _check_distance(distance_km)
    return eta_d * 10.0 ** (-alpha_db_per_km * distance_km / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Physical layer shared by every protocol formula.

    ``eta_arm`` is the transmittance of one arm from a source to the
    measurement node with detector efficiency folded in.  ``p_d`` is a
    dark-count probability per detector per round.  These are the only
    channel values the formulas read: fiber length, attenuation and
    detector efficiency enter through ``eta_arm`` alone, which
    :meth:`from_distance` derives from them.
    """

    eta_arm: float
    p_d: float

    def __post_init__(self):
        _check_prob("eta_arm", self.eta_arm)
        _check_prob("p_d", self.p_d)

    @classmethod
    def from_distance(
        cls,
        distance_km: float,
        *,
        eta_d: float,
        p_d: float,
        alpha_db_per_km: float = 0.2,
    ) -> "ChannelParams":
        """Channel whose two arms each span half of a total A-B distance.

        ``eta_arm = fiber_transmittance(l/2, eta_d, alpha)``; this is the
        one place the half-distance rule is applied.
        """
        _check_distance(distance_km)  # name the total distance, not l/2
        return cls(fiber_transmittance(distance_km / 2.0, eta_d, alpha_db_per_km), p_d)


@dataclass(frozen=True)
class ClickProbs:
    """Probabilities of the four detector outcomes in one round."""

    p_none: float
    p_left: float
    p_right: float
    p_double: float

    def __post_init__(self):
        for name in ("p_none", "p_left", "p_right", "p_double"):
            v = getattr(self, name)
            if math.isnan(v) or v < -PROB_SUM_TOL or v > 1.0 + PROB_SUM_TOL:
                raise ValueError(f"{name} out of range: {v!r}")
        if abs(self.total() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"click probabilities must sum to 1, got {self.total()!r}")

    def total(self) -> float:
        return self.p_none + self.p_left + self.p_right + self.p_double

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_none, self.p_left, self.p_right, self.p_double)


def single_photon_clicks(eta: float, phi_delta: float) -> ClickProbs:
    """Outcome probabilities for one photon split over the two arms.

    The photon survives with probability ``eta``; a surviving photon
    exits toward L with probability cos^2(phi_delta/2) and toward R
    with sin^2(phi_delta/2).  A single photon can never double-click.
    """
    _check_prob("eta", eta)
    half = 0.5 * phi_delta
    c2 = math.cos(half) ** 2
    return ClickProbs(1.0 - eta, eta * c2, eta * (1.0 - c2), 0.0)


def k_photon_clicks(k: int, eta: float, phi_delta: float) -> ClickProbs:
    """Outcome probabilities for a k-photon input.

    Treats the k photons as identical independent single-photon events:
    no click requires every photon lost, an L (R) click requires at
    least one photon at L (R) and none at R (L), the remainder is a
    double click.
    """
    if k < 0:
        raise ValueError(f"photon number must be nonnegative, got {k}")
    p1 = single_photon_clicks(eta, phi_delta)
    if k == 1:
        return p1
    p0k = p1.p_none**k
    pl = (p1.p_none + p1.p_left) ** k - p0k
    pr = (p1.p_none + p1.p_right) ** k - p0k
    plr = 1.0 + p0k - (p1.p_none + p1.p_left) ** k - (p1.p_none + p1.p_right) ** k
    return ClickProbs(p0k, pl, pr, max(plr, 0.0))


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


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with H(0) = H(1) = 0."""
    if math.isnan(x) or not (0.0 <= x <= 1.0):
        raise ValueError(f"entropy argument must be in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)

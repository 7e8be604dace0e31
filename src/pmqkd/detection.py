"""Detection model of the untrusted interference node.

Click probabilities for Fock-state inputs on a 50/50 beam splitter
followed by two threshold detectors, the channel parameters, fiber
transmittance, binary entropy and the shared input checks.  All
functions are pure and stateless.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

PROB_SUM_TOL = 1e-12


def _check_prob(name: str, value: float) -> None:
    if math.isnan(value) or not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _check_photon_number(k: int) -> None:
    if k < 0:
        raise ValueError(f"photon number must be nonnegative, got {k}")


# The largest intensity the formulas take: sinh(mu) overflows a float above ~710.
MAX_INTENSITY = 500.0


def _check_intensity(name: str, mu: float) -> None:
    if not (0.0 <= mu <= MAX_INTENSITY):  # NaN fails the comparison
        raise ValueError(f"{name} must be in [0, {MAX_INTENSITY:g}], got {mu!r}")


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
    _check_photon_number(k)
    p1 = single_photon_clicks(eta, phi_delta)
    if k == 1:
        return p1
    p0k = p1.p_none**k
    pl = (p1.p_none + p1.p_left) ** k - p0k
    pr = (p1.p_none + p1.p_right) ** k - p0k
    plr = 1.0 + p0k - (p1.p_none + p1.p_left) ** k - (p1.p_none + p1.p_right) ** k
    return ClickProbs(p0k, pl, pr, max(plr, 0.0))


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with H(0) = H(1) = 0."""
    if math.isnan(x) or not (0.0 <= x <= 1.0):
        raise ValueError(f"entropy argument must be in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return _entropy(x, math.log2)


def _entropy(x, log2):
    # binary entropy of x strictly between 0 and 1 (floats or an array)
    return -x * log2(x) - (1.0 - x) * log2(1.0 - x)

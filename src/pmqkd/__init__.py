"""Phase-matching QKD toolkit.

Analytic rate model, baseline protocols and capacity bounds,
beam-splitting attack analysis, a truncated-Fock-space oracle, and a
round-level Monte Carlo simulator with decoy-state estimation.
"""
from .detection import (
    ChannelParams,
    ClickProbs,
    binary_entropy,
    fiber_transmittance,
    k_photon_clicks,
    single_photon_clicks,
)
from .rate import PmParams, RateBreakdown, key_rate, misalignment_e_delta, optimize_mu
from .baselines import bb84_rate, mdi_rate, plob_bound, tgw_bound
from .attacks import (
    AttackPoint,
    ViolationReport,
    bs_attack,
    find_gllp_violation,
    gllp_rate_under_bs,
    pm_rate_under_bs,
    usd_success,
)
from .simcore import (
    Phi0Model,
    SimConfig,
    SimResult,
    Tally,
    collect_rounds,
    postcompensate,
    sift,
    simulate,
    tallies_to_csv,
)
from .decoy import DecoyEstimate, EmpiricalRate, decoy_estimate, empirical_rate

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "ClickProbs",
    "binary_entropy",
    "fiber_transmittance",
    "k_photon_clicks",
    "single_photon_clicks",
    "PmParams",
    "RateBreakdown",
    "key_rate",
    "misalignment_e_delta",
    "optimize_mu",
    "bb84_rate",
    "mdi_rate",
    "plob_bound",
    "tgw_bound",
    "AttackPoint",
    "ViolationReport",
    "bs_attack",
    "find_gllp_violation",
    "gllp_rate_under_bs",
    "pm_rate_under_bs",
    "usd_success",
    "Phi0Model",
    "SimConfig",
    "SimResult",
    "Tally",
    "collect_rounds",
    "postcompensate",
    "sift",
    "simulate",
    "tallies_to_csv",
    "DecoyEstimate",
    "EmpiricalRate",
    "decoy_estimate",
    "empirical_rate",
]

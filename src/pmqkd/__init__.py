"""Phase-matching QKD toolkit.

Analytic rate model, baseline protocols and capacity bounds,
beam-splitting attack analysis, a truncated-Fock-space oracle, and a
round-level Monte Carlo simulator with decoy-state estimation.

A submodule is imported the first time one of its names (or the
submodule itself) is looked up on the package, so ``import pmqkd``
loads none of them and a command loads only the modules it runs.
"""
import importlib

__version__ = "0.1.0"

# each submodule and the names the package exports from it
_EXPORTS = {
    "detection": (
        "ChannelParams",
        "ClickProbs",
        "binary_entropy",
        "fiber_transmittance",
        "k_photon_clicks",
        "single_photon_clicks",
    ),
    "rate": ("PmParams", "RateBreakdown", "key_rate", "misalignment_e_delta", "optimize_mu"),
    "baselines": ("bb84_rate", "mdi_rate", "plob_bound", "tgw_bound"),
    "attacks": (
        "AttackPoint",
        "ViolationReport",
        "bs_attack",
        "find_gllp_violation",
        "gllp_rate_under_bs",
        "pm_rate_under_bs",
        "usd_success",
    ),
    "simcore": (
        "Phi0Model",
        "SimConfig",
        "SimResult",
        "Tally",
        "collect_rounds",
        "postcompensate",
        "sift",
        "simulate",
        "tallies_to_csv",
    ),
    "decoy": ("DecoyEstimate", "EmpiricalRate", "decoy_estimate", "empirical_rate"),
    "focklab": (),
    "cli": (),
    "_mckernel_np": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})

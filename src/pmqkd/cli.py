"""Command-line front end.

Subcommands: ``rate`` (one parameter point), ``sweep`` (distance/eta/mu
scans with optional intensity optimization), ``attack`` (beam-splitting
attack comparison), ``simulate`` (Monte Carlo protocol run from a JSON
config), ``fock-check`` (truncated-Fock-space self-checks).

Sweeps give phase-matching and MDI the per-arm channel of
:meth:`pmqkd.detection.ChannelParams.from_distance`, BB84 and the capacity
bounds the full-distance :func:`pmqkd.detection.fiber_transmittance`, and
evaluate the grid in the calling process, ``SWEEP_BATCH`` points at a
time.  Each protocol evaluates a batch in array calls: one at fixed
intensities, or :func:`pmqkd.rate.maximize`'s lockstep search, whose
intensity-grid pass takes ``rate.GRID_ROWS`` points at a time.
``p_d``, ``eta_d``, ``alpha_db_per_km``, ``f_ec``, ``e_d`` and
``m_slices`` are checked once per command, in :class:`Preset`.  Exit
codes: 0 success, 1 domain error, 2 usage error, 3 failed
statistical/numerical check.

Only the sweep's modules are imported with this one; ``attack``,
``simulate``, ``fock-check`` and ``rate --config`` import the module
they call when they run, so start-up does not load the Monte Carlo.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

# NumPy loads next. OpenBLAS's helper threads would spin for ~0.1 s after
# start-up beside the Monte Carlo's workers, and no command needs BLAS threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import baselines, detection, rate
from .detection import ChannelParams, fiber_transmittance, k_photon_clicks

# A longer grid is a mistyped --step, not a sweep.
MAX_SWEEP_POINTS = 10**6
# Times below are on a 2-core host.
# attack keeps one AttackPoint per grid point: --steps 10**5 takes ~1.5 s and ~100 MB.
MAX_ATTACK_STEPS = 10**5
# fock-check --max-k 64 takes ~1.5 s and ~33 MB.
MAX_FOCK_K = 64

SWEEP_COLUMNS = [
    "distance_km",
    "eta_arm",
    "eta_total",
    "mu_opt",
    "R_pm",
    "R_bb84",
    "R_mdi",
    "R_plob",
    "R_tgw",
]

ALL_PROTOCOLS = ("pm", "bb84", "mdi", "plob", "tgw")


@dataclass(frozen=True)
class Preset:
    p_d: float
    f_ec: float
    eta_d: float
    m_slices: int
    e_d: float  # baseline-protocol misalignment only
    alpha_db_per_km: float

    def __post_init__(self):
        # once per command, whichever protocols run
        detection._check_prob("p_d", self.p_d)
        detection._check_fiber(self.eta_d, self.alpha_db_per_km)
        detection._check_f_ec(self.f_ec)
        detection._check_prob("e_d", self.e_d)
        rate._check_m_slices(self.m_slices)


PRESETS = {
    "fig3b": Preset(
        p_d=7.2e-8, f_ec=1.15, eta_d=0.145, m_slices=16, e_d=0.015, alpha_db_per_km=0.2
    ),
}

# the values of the flags left unset when no --preset is given
DEFAULT_PRESET = Preset(
    p_d=0.0, f_ec=1.15, eta_d=1.0, m_slices=16, e_d=0.015, alpha_db_per_km=0.2
)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# shared parameter resolution
# ---------------------------------------------------------------------------


def _apply_preset(args) -> Preset:
    """The ``--preset`` (or default) values with every flag given in their place, checked."""
    preset = PRESETS[args.preset] if args.preset else DEFAULT_PRESET
    # a field without a flag on this subcommand (rate's e_d) is not given
    given = {f.name: getattr(args, f.name, None) for f in fields(Preset)}
    return replace(preset, **{k: v for k, v in given.items() if v is not None})


def _json_preset(value, name: str) -> str:
    if value not in sorted(PRESETS):  # a list: an unhashable value is not in it
        raise ValueError(f"{name} must be one of {sorted(PRESETS)}, got {value!r}")
    return value


def _read_rate_config(path: str) -> dict:
    """``rate --config`` document with every value checked; each key fills the
    flag of the same dest when that flag is not given."""
    from . import simcore

    doc = simcore._read_json(path)
    numbers = ("distance_km", "eta_arm", "mu", "p_d", "eta_d", "f_ec", "alpha_db_per_km")
    parsers = dict.fromkeys(numbers, simcore._json_number)
    parsers.update(m_slices=simcore._json_integer, preset=_json_preset)
    return simcore._json_fields(doc, "config", parsers, ())


def _resolve_rate_args(args) -> tuple[ChannelParams, rate.PmParams, float | None]:
    if args.config:
        for flag, value in _read_rate_config(args.config).items():
            if getattr(args, flag) is None:
                setattr(args, flag, value)
    if args.mu is None:
        raise ValueError("an intensity --mu is required")
    if (args.distance_km is None) == (args.eta_arm is None):
        raise ValueError("give exactly one of --distance or --eta")
    if args.eta_arm is not None:
        # args hold only the values given, so a preset's eta_d and alpha still go with --eta
        for flag, key in (("--eta-d", "eta_d"), ("--alpha", "alpha_db_per_km")):
            if getattr(args, key) is not None:
                raise ValueError(f"{flag} ({key}) applies only with --distance, not with --eta")
    preset = _apply_preset(args)
    if args.distance_km is not None:
        ch = ChannelParams.from_distance(
            args.distance_km, eta_d=preset.eta_d, p_d=preset.p_d,
            alpha_db_per_km=preset.alpha_db_per_km,
        )
    else:
        ch = ChannelParams(args.eta_arm, preset.p_d)
    pm = rate.PmParams(mu_total=args.mu, m_slices=preset.m_slices, f_ec=preset.f_ec)
    return ch, pm, args.distance_km


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def cmd_rate(args) -> int:
    ch, pm, distance = _resolve_rate_args(args)
    breakdown = rate.key_rate(ch, pm, tail=args.tail)
    rows: list[tuple[str, object]] = []
    if distance is not None:
        rows.append(("distance_km", distance))
    rows.extend(
        [
            ("eta_arm", ch.eta_arm),
            ("p_d", ch.p_d),
            ("mu", pm.mu_total),
            ("m_slices", pm.m_slices),
            ("f_ec", pm.f_ec),
            ("gain_Q", breakdown.gain_Q),
            ("qber_Z", breakdown.qber_Z),
            ("phase_err_X", breakdown.phase_err_X),
            ("e_delta", breakdown.e_delta),
            ("q_odd", breakdown.q_odd),
        ]
    )
    for k in sorted(breakdown.fractions):
        rows.append((f"q_{k}", breakdown.fractions[k]))
    for k in sorted(breakdown.bit_errors):
        rows.append((f"eZ_{k}", breakdown.bit_errors[k]))
    rows.append(("rate_R", breakdown.rate_R))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {_fmt(value)}")
    if args.csv:
        header = ",".join(name for name, _ in rows)
        line = ",".join(_fmt(v) for _, v in rows)
        _write_text(args.csv, header + "\n" + line + "\n")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


# Sweep points evaluated together: each protocol's golden-section steps run
# in lockstep over them, and its temporaries grow with them, ~1.3 KB a point.
SWEEP_BATCH = 512


def _sweep_batch(
    values: list[float],
    variable: str,
    preset: Preset,
    protocols: tuple[str, ...],
    optimize: bool,
    fixed_mu: float,
    distance_for_mu: float,
) -> list[dict]:
    p_d, f_ec, eta_d, m_slices, e_d, alpha = (
        preset.p_d, preset.f_ec, preset.eta_d, preset.m_slices, preset.e_d,
        preset.alpha_db_per_km,
    )

    rows, arms = [], []
    for value in values:
        if variable == "eta":
            distance = None
            ch_arm = ChannelParams(value, p_d)
            # run_sweep checked value <= eta_d, so eta_d is 0 only when value is
            eta_total = value * value / eta_d if value else 0.0
        elif variable in ("distance_km", "mu"):
            distance = value if variable == "distance_km" else distance_for_mu
            ch_arm = ChannelParams.from_distance(
                distance, eta_d=eta_d, p_d=p_d, alpha_db_per_km=alpha
            )
            eta_total = fiber_transmittance(distance, eta_d, alpha)
        else:
            raise ValueError(f"unknown sweep variable {variable!r}")
        rows.append({
            "distance_km": distance,
            "eta_arm": ch_arm.eta_arm,
            "eta_total": eta_total,
            # the swept mu for every protocol set; else pm's mu, filled below
            "mu_opt": value if variable == "mu" else None,
        })
        arms.append(ch_arm)

    # one intensity per point for every protocol: the swept one, None to optimize,
    # else the fixed one
    mus = values if variable == "mu" else None if optimize else [fixed_mu] * len(values)
    full = [ChannelParams(row["eta_total"], p_d) for row in rows]
    best = {}  # each rate column's (mu, rate) per point
    if "pm" in protocols:
        best["R_pm"] = rate.optimize_mu_chunk(arms, m_slices, f_ec, mus)
    if "bb84" in protocols:
        best["R_bb84"] = baselines.bb84_optimize_mu(full, e_d, f_ec, mus)
    if "mdi" in protocols:
        best["R_mdi"] = baselines.mdi_optimize_mu(arms, e_d, f_ec, mus)
    for column, pairs in best.items():
        for row, (mu, r) in zip(rows, pairs):
            row[column] = r
            if column == "R_pm":
                row["mu_opt"] = mu
    for row in rows:
        eta_capped = min(row["eta_total"], 1.0 - 1e-15)
        if "plob" in protocols:
            row["R_plob"] = baselines.plob_bound(eta_capped)
        if "tgw" in protocols:
            row["R_tgw"] = baselines.tgw_bound(eta_capped)
    return rows


def run_sweep(
    variable: str,
    start: float,
    stop: float,
    step: float,
    protocols: tuple[str, ...],
    preset: Preset,
    optimize_mu: bool,
    fixed_mu: float = 0.5,
    distance_for_mu: float = 0.0,
) -> list[dict]:
    """Evaluate every protocol on the grid; rows come back in grid order."""
    for flag, x in (("--start", start), ("--stop", stop), ("--step", step)):
        if not math.isfinite(x):
            raise ValueError(f"sweep {flag} must be a finite number, got {x!r}")
    if not (start < stop) or step <= 0:
        raise ValueError("sweep needs start < stop and step > 0")
    if (stop - start) / step > MAX_SWEEP_POINTS:
        raise ValueError(
            f"sweep --step must give at most {MAX_SWEEP_POINTS} grid points, got {step!r}"
        )
    if not protocols:
        raise ValueError("protocol set must be nonempty")
    unknown = set(protocols) - set(ALL_PROTOCOLS)
    if unknown:
        raise ValueError(f"unknown protocols: {sorted(unknown)}")
    # each value from its index, so no float error accumulates along the grid
    values = []
    i, v = 0, start
    while v <= stop + 1e-12:
        values.append(round(v, 12))
        i += 1
        after = start + i * step
        if after <= v:
            raise ValueError(f"sweep --step must advance the grid past {v!r}, got {step!r}")
        v = after
    # values are rounded to 12 decimals and may pass --stop by 1e-12, so a
    # finer step repeats values or adds whole steps past --stop
    if step < 1e-11:
        raise ValueError(f"sweep --step must be at least 1e-11, got {step!r}")
    if variable == "eta":
        # eta_arm includes the detector efficiency, so no arm transmits more than eta_d
        over = next((v for v in values if v > preset.eta_d), None)
        if over is not None:
            raise ValueError(f"sweep eta_arm {over!r} exceeds eta_d {preset.eta_d!r}")
    return [
        row
        for i in range(0, len(values), SWEEP_BATCH)
        for row in _sweep_batch(
            values[i : i + SWEEP_BATCH], variable, preset, protocols, optimize_mu, fixed_mu,
            distance_for_mu,
        )
    ]


def sweep_rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def _check_sweep_flags(args) -> None:
    """Reject a given flag that the sweep's ``--variable`` (or ``--optimize-mu``) never reads."""
    variable, swept = args.variable, f"--variable {args.variable}"
    for flag, unread, where in (
        ("--distance", args.distance_km is not None and variable != "mu", swept),
        ("--alpha", args.alpha_db_per_km is not None and variable == "eta", swept),
        ("--optimize-mu", args.optimize_mu and variable == "mu", swept),
        ("--mu", args.mu is not None and variable == "mu", swept),
        ("--mu", args.mu is not None and args.optimize_mu, "--optimize-mu"),
    ):
        if unread:
            raise ValueError(f"{flag} does not apply with {where}")


def cmd_sweep(args) -> int:
    preset = _apply_preset(args)  # first, so a bad fiber value is named by its own check
    _check_sweep_flags(args)
    protocols = tuple(p.strip() for p in args.protocols.split(",") if p.strip())
    # a flag left unset takes run_sweep's default
    fixed = {"fixed_mu": args.mu, "distance_for_mu": args.distance_km}
    rows = run_sweep(
        variable=args.variable,
        start=args.start,
        stop=args.stop,
        step=args.step,
        protocols=protocols,
        preset=preset,
        optimize_mu=args.optimize_mu,
        **{k: v for k, v in fixed.items() if v is not None},
    )
    _write_text(args.output, sweep_rows_to_csv(rows))
    return 0


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------


def cmd_attack(args) -> int:
    """CSV of :func:`attacks.find_gllp_violation`'s points and its violation
    summary; only the swept axis takes a range flag."""
    if (args.fix_mu is None) == (args.fix_eta is None):
        raise ValueError("give exactly one of --fix-mu or --fix-eta")
    if args.steps > MAX_ATTACK_STEPS:
        raise ValueError(f"--steps must be at most {MAX_ATTACK_STEPS}, got {args.steps}")
    sweep_name, fixed_name = ("eta", "mu") if args.fix_mu is not None else ("mu", "eta")
    ranges = {"eta": args.eta_range, "mu": args.mu_range}
    if ranges[fixed_name] is not None:
        raise ValueError(f"--{fixed_name}-range does not apply with --fix-{fixed_name}")
    text, sweep_range = ranges[sweep_name], None
    if text is not None:
        lo, _, hi = text.partition(":")
        try:
            sweep_range = (float(lo), float(hi))
        except ValueError:
            pass
        if sweep_range is None or not all(map(math.isfinite, sweep_range)):
            raise ValueError(
                f"--{sweep_name}-range must be lo:hi with two finite numbers, got {text!r}"
            )
    from . import attacks

    report = attacks.find_gllp_violation(
        fixed_mu=args.fix_mu, fixed_eta=args.fix_eta, sweep_range=sweep_range, steps=args.steps
    )

    lines = [f"{sweep_name},r_gllp_per_click,r_gllp_literal,r_bs,r_pm"]
    for p in report.points:
        x = p.eta if sweep_name == "eta" else p.mu
        lines.append(
            f"{_fmt(x)},{_fmt(p.r_gllp)},{_fmt(p.r_gllp_literal)},{_fmt(p.r_bs)},{_fmt(p.r_pm)}"
        )
    summary = "none"
    if report.has_violation:
        spans = ";".join(f"{_fmt(a)}..{_fmt(b)}" for a, b in report.violation_intervals)
        summary = f"{sweep_name} in {spans}"
        if report.crossovers:
            summary += " crossover=" + ";".join(_fmt(c) for c in report.crossovers)
    lines.append(f"# violation(per_click): {summary}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    from . import simcore

    cfg = simcore.SimConfig.from_json_file(args.config)
    result = simcore.simulate(cfg)
    _write_text(args.output, simcore.tallies_to_csv(result.tallies))
    comparisons = simcore.compare_to_model(result)
    print(f"j_d_opt {result.block_offsets[0][2]}")
    ok = True
    for c in comparisons:
        print(
            f"intensity {_fmt(c.intensity)}  "
            f"Q_hat {_fmt(c.q_hat)} Q_model {_fmt(c.q_model)} z_Q {c.z_q:+.3f}  "
            f"EZ_hat {_fmt(c.ez_hat)} EZ_model {_fmt(c.ez_model)} z_EZ {c.z_ez:+.3f}"
        )
        ok = ok and c.consistent
    print(f"consistency {'ok' if ok else 'FAIL'} (|z| < 4)")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# fock-check
# ---------------------------------------------------------------------------


def cmd_fock_check(args) -> int:
    if not 1 <= args.max_k <= MAX_FOCK_K:
        print(f"error: --max-k {args.max_k} is not in [1, {MAX_FOCK_K}]", file=sys.stderr)
        return 2
    from . import focklab

    ok = True
    for k in range(1, args.max_k + 1):
        res = focklab.lemma1_check(k)
        good = res.relation_residual < 1e-10 and res.identity_residual < 1e-10
        ok = ok and good
        print(
            f"k={k} e_x {res.e_x:.6f} e_z {res.e_z:.6f} "
            f"relation_residual {res.relation_residual:.3e} "
            f"identity_residual {res.identity_residual:.3e} "
            f"{'ok' if good else 'FAIL'}"
        )
    worst = 0.0
    for k in range(0, 5):
        for eta in (0.25, 0.5, 1.0):
            for phi in (0.0, math.pi / 2.0, math.pi):
                oracle = focklab.k_photon_interference_probs(k, eta, phi)
                model = k_photon_clicks(k, eta, phi)
                worst = max(
                    worst,
                    max(
                        abs(a - b)
                        for a, b in zip(oracle.as_tuple(), model.as_tuple())
                    ),
                )
    click_ok = worst < 1e-9
    ok = ok and click_ok
    print(f"click-model max |oracle - formula| for k<=4: {worst:.3e} {'ok' if click_ok else 'FAIL'}")
    print("OK" if ok else "FAIL")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmqkd",
        description="Phase-matching QKD performance, attack analysis and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--preset", choices=sorted(PRESETS), default=None)
        p.add_argument("--pd", dest="p_d", type=float, default=None,
                       help="dark count probability per detector per round")
        p.add_argument("--eta-d", dest="eta_d", type=float, default=None)
        p.add_argument("--m-slices", dest="m_slices", type=int, default=None)
        p.add_argument("--f-ec", dest="f_ec", type=float, default=None)
        p.add_argument("--alpha", dest="alpha_db_per_km", type=float, default=None,
                       help="fiber attenuation dB/km")

    p_rate = sub.add_parser("rate", help="key-rate breakdown at one point")
    p_rate.add_argument("--distance", dest="distance_km", type=float, default=None,
                        help="total distance km")
    p_rate.add_argument("--eta", dest="eta_arm", type=float, default=None,
                        help="per-arm transmittance (no --eta-d or --alpha)")
    p_rate.add_argument("--mu", type=float, default=None, help="total intensity")
    p_rate.add_argument("--tail", choices=("truncated", "odd"), default="truncated")
    p_rate.add_argument("--config", default=None, help="JSON file with the same keys")
    p_rate.add_argument("--csv", default=None, help="also write a one-row CSV")
    add_common(p_rate)
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = sub.add_parser("sweep", help="protocol comparison over a grid")
    p_sweep.add_argument("--variable", choices=("distance_km", "eta", "mu"),
                         default="distance_km")
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    p_sweep.add_argument("--optimize-mu", action="store_true")
    p_sweep.add_argument("--mu", type=float, default=None,
                         help="fixed intensity when not optimizing")
    p_sweep.add_argument("--distance", dest="distance_km", type=float, default=None,
                         help="fixed distance for --variable mu")
    p_sweep.add_argument("--protocols", default="pm,bb84,mdi,plob,tgw")
    p_sweep.add_argument("--output", default="-")
    p_sweep.add_argument("--e-d", dest="e_d", type=float, default=None,
                         help="baseline-protocol misalignment error")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_attack = sub.add_parser("attack", help="beam-splitting attack comparison")
    p_attack.add_argument("--fix-mu", type=float, default=None)
    p_attack.add_argument("--fix-eta", type=float, default=None)
    p_attack.add_argument("--eta-range", default=None, help="lo:hi of the swept eta (--fix-mu)")
    p_attack.add_argument("--mu-range", default=None, help="lo:hi of the swept mu (--fix-eta)")
    p_attack.add_argument("--steps", type=int, default=200)
    p_attack.add_argument("--output", default="-")
    p_attack.set_defaults(func=cmd_attack)

    p_sim = sub.add_parser("simulate", help="Monte Carlo protocol run")
    p_sim.add_argument("config", help="SimConfig JSON path")
    p_sim.add_argument("--output", default="-", help="tally CSV destination")
    p_sim.set_defaults(func=cmd_simulate)

    p_fock = sub.add_parser("fock-check", help="Fock-space parity/click self-checks")
    p_fock.add_argument("--max-k", dest="max_k", type=int, default=6)
    p_fock.set_defaults(func=cmd_fock_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

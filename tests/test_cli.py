import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmqkd import attacks, cli, focklab
from pmqkd.detection import ChannelParams, fiber_transmittance


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- rate -----------------------------------------------------------------------


def test_rate_fig3b_point(capsys):
    code, out, _ = run_cli(
        ["rate", "--distance", "300", "--mu", "0.2", "--preset", "fig3b"], capsys
    )
    assert code == 0
    fields = dict(line.split(None, 1) for line in out.strip().split("\n"))
    rate = float(fields["rate_R"])
    assert 0.8e-6 < rate < 1.2e-6


def test_rate_dead_channel_zero(capsys):
    code, out, _ = run_cli(["rate", "--eta", "0", "--mu", "0.5"], capsys)
    assert code == 0
    fields = dict(line.split(None, 1) for line in out.strip().split("\n"))
    assert fields["rate_R"] == "0"  # not -0


def test_rate_config_equals_flags(tmp_path, capsys):
    cfg = {
        "distance_km": 250,
        "mu": 0.3,
        "p_d": 7.2e-8,
        "eta_d": 0.145,
        "m_slices": 16,
        "f_ec": 1.15,
        "alpha_db_per_km": 0.2,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code1, out1, _ = run_cli(["rate", "--config", str(path)], capsys)
    code2, out2, _ = run_cli(
        [
            "rate", "--distance", "250", "--mu", "0.3", "--pd", "7.2e-8",
            "--eta-d", "0.145", "--m-slices", "16", "--f-ec", "1.15", "--alpha", "0.2",
        ],
        capsys,
    )
    assert code1 == code2 == 0
    assert out1 == out2
    # a preset named in the file fills in like --preset
    path.write_text(json.dumps({"distance_km": 300, "mu": 0.2, "preset": "fig3b"}))
    code1, out1, _ = run_cli(["rate", "--config", str(path)], capsys)
    code2, out2, _ = run_cli(
        ["rate", "--distance", "300", "--mu", "0.2", "--preset", "fig3b"], capsys
    )
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "config, named",
    [
        ({"distance_km": 100, "mu": [0.3]}, "mu"),
        ({"distance_km": 100, "mu": 0.3, "m_slice": 8}, "'m_slice'"),
        ({"distance_km": 100, "mu": 0.3, "m_slices": 8.5}, "m_slices"),
        ({"distance_km": 100, "mu": 0.3, "m_slices": 10**400}, "m_slices"),
        ({"distance_km": "100", "mu": 0.3}, "distance_km"),
        ({"eta_arm": None, "mu": 0.3}, "eta_arm"),
        ({"distance_km": 100, "mu": 0.3, "p_d": True}, "p_d"),
        ({"distance_km": 100, "mu": math.nan}, "mu"),
        ({"distance_km": 100, "mu": 0.3, "alpha_db_per_km": math.inf}, "alpha_db_per_km"),
        ({"distance_km": 100, "mu": 0.3, "preset": ["fig3b"]}, "preset"),
        ({"distance_km": 100, "mu": 0.3, "preset": "fig9"}, "preset"),
        ([100, 0.3], "config"),
    ],
    ids=["list_mu", "unknown_key", "fractional_m_slices", "huge_m_slices", "string_distance",
         "null_eta", "bool_p_d", "nan_mu", "inf_alpha", "list_preset", "unknown_preset",
         "not_object"],
)
def test_rate_bad_config_is_one_line_error(tmp_path, capsys, config, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(["rate", "--config", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--distance", "100", "--alpha", "nan"], "alpha_db_per_km"),
        (["--distance", "100", "--alpha=-1e10"], "alpha_db_per_km"),
        (["--distance", "-10"], "distance_km"),
        (["--distance", "inf"], "distance_km"),
        (["--distance", "100", "--eta-d", "nan"], "eta_d"),
    ],
    ids=["nan_alpha", "huge_negative_alpha", "negative_distance", "inf_distance", "nan_eta_d"],
)
def test_rate_bad_fiber_flag_is_named(capsys, argv, named):
    code, out, err = run_cli(["rate", "--mu", "0.3", *argv], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {named} ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, config, flag, key",
    [
        (["--eta-d", "0.5", "--alpha", "3"], {}, "--eta-d", "eta_d"),
        (["--alpha", "3"], {}, "--alpha", "alpha_db_per_km"),
        (["--eta-d", "nan"], {}, "--eta-d", "eta_d"),
        (["--alpha", "nan"], {}, "--alpha", "alpha_db_per_km"),
        ([], {"eta_d": 0.145}, "--eta-d", "eta_d"),
        ([], {"alpha_db_per_km": 0.2}, "--alpha", "alpha_db_per_km"),
    ],
    ids=["eta_d_and_alpha", "alpha", "nan_eta_d", "nan_alpha", "config_eta_d", "config_alpha"],
)
def test_rate_eta_rejects_fiber_values(tmp_path, capsys, argv, config, flag, key):
    # --eta is the per-arm transmittance itself: a fiber value next to it would be ignored
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, eta_arm=0.1, mu=0.3)))
    code, out, err = run_cli(["rate", "--config", str(path), *argv], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} ({key}) ") and err.count("\n") == 1


def test_rate_eta_takes_the_preset(capsys):
    # the preset's eta_d and alpha fill in after the check, so they do not count as given
    code, out, _ = run_cli(["rate", "--eta", "0.01", "--mu", "0.3", "--preset", "fig3b"], capsys)
    assert code == 0
    assert float(dict(line.split(None, 1) for line in out.splitlines())["p_d"]) == 7.2e-8


def test_rate_missing_mu_is_domain_error(capsys):
    code, _, err = run_cli(["rate", "--distance", "100"], capsys)
    assert code == 1
    assert "error" in err
    # the channel needs exactly one of the two flags
    for argv in ([], ["--distance", "100", "--eta", "0.1"]):
        code, out, err = run_cli(["rate", "--mu", "0.3", *argv], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: give exactly one of --distance or --eta\n"


def test_rate_csv_output(tmp_path, capsys):
    target = tmp_path / "point.csv"
    code, _, _ = run_cli(
        ["rate", "--distance", "100", "--mu", "0.4", "--preset", "fig3b", "--csv", str(target)],
        capsys,
    )
    assert code == 0
    header, row = target.read_text().strip().split("\n")
    assert header.split(",")[0] == "distance_km"
    assert len(header.split(",")) == len(row.split(","))


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--start", "x"])
    assert exc.value.code == 2


# --- sweep -----------------------------------------------------------------------


def test_sweep_csv_structure(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        [
            "sweep", "--preset", "fig3b", "--start", "50", "--stop", "60", "--step", "5",
            "--mu", "0.4", "--protocols", "pm,plob", "--output", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "distance_km,eta_arm,eta_total,mu_opt,R_pm,R_bb84,R_mdi,R_plob,R_tgw"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "50"
    assert first[5] == "" and first[6] == "" and first[8] == ""  # absent protocols blank
    assert float(first[4]) > 0 and float(first[7]) > 0


@pytest.mark.parametrize(
    "start, protocols, mus",
    [("0", "bb84,mdi", ["0", "0.5", "1"]), ("0", "plob,tgw", ["0", "0.5", "1"]),
     ("0.5", "pm,bb84,mdi", ["0.5", "1"])],
    ids=["baselines", "bounds", "with_pm"],
)
def test_mu_sweep_rows_name_their_mu(capsys, start, protocols, mus):
    # mu_opt holds each row's swept mu whichever protocols run, not only with pm
    code, out, _ = run_cli(
        ["sweep", "--variable", "mu", "--distance", "100", "--start", start, "--stop", "1",
         "--step", "0.5", "--protocols", protocols],
        capsys,
    )
    assert code == 0
    assert [line.split(",")[3] for line in out.splitlines()[1:]] == mus


def test_sweep_deterministic(tmp_path, capsys):
    args = [
        "sweep", "--preset", "fig3b", "--start", "100", "--stop", "110", "--step", "5",
        "--optimize-mu", "--protocols", "pm,bb84",
    ]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


GOLDEN_SWEEP = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "sweep_fig3b.csv"


def test_sweep_fig3b_rows_match_golden(fig3b_sweep):
    # the recorded 0-500 km Fig. 3b sweep (run once in tests/conftest.py), all 501 rows
    # byte for byte
    assert fig3b_sweep.code == 0
    rows = fig3b_sweep.csv.splitlines()
    golden_rows = GOLDEN_SWEEP.read_text().splitlines()
    assert len(rows) == len(golden_rows) == 502
    for row, golden in zip(rows, golden_rows):
        assert row == golden


# each protocol's array rate function, which its grid passes and exact steps call
RATE_STEPS = {"pm": (cli.rate, "_pm_rate"), "bb84": (cli.baselines, "_bb84_rate"),
              "mdi": (cli.baselines, "_mdi_rate")}


def count_rate_calls(monkeypatch, calls):
    # record the ops and the intensities of every call of each protocol's rate function
    def counting(protocol, step):
        def counted(*args):
            ops = next(a for a in args if isinstance(a, cli.rate.Ops))
            mus = next(a for a in args if isinstance(a, np.ndarray))
            calls[protocol].append((ops, mus.size))
            return step(*args)
        return counted

    for protocol, (module, name) in RATE_STEPS.items():
        monkeypatch.setattr(module, name, counting(protocol, getattr(module, name)))


def test_sweep_fig3b_optimizers_take_no_scalar_fallback(monkeypatch):
    # each protocol's 501 cells run in one lockstep search: one exact call for the
    # scan of every cell's candidates, one for the first two golden-section points,
    # then one per golden-section step; and no cell scans the whole 200-point grid
    calls = {protocol: [] for protocol in RATE_STEPS}
    count_rate_calls(monkeypatch, calls)
    maximize = cli.rate.maximize
    evaluations = []  # per cell, how many points it is evaluated at

    def counting_maximize(f, n, lo, hi, f_grid=None):
        per_cell = [0] * n

        def counted(cells, xs):
            for i in cells.tolist():
                per_cell[i] += 1
            return f(cells, xs)

        assert f_grid is not None
        out = maximize(counted, n, lo, hi, f_grid)
        evaluations.extend(per_cell)
        return out

    monkeypatch.setattr(cli.rate, "maximize", counting_maximize)
    rows = cli.run_sweep(
        "distance_km", 0, 500, 1, ("pm", "bb84", "mdi"), cli.PRESETS["fig3b"], optimize_mu=True
    )
    assert len(rows) == 501
    assert len(evaluations) == 3 * 501
    assert max(evaluations) < 200
    # golden-section steps from a two-grid-step bracket down to the tolerance
    step = (2.0 - 0.01) / 199
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    iterations = math.ceil(math.log(1e-9 * (2.0 - 0.01) / (2 * step)) / math.log(invphi))
    for protocol, seen in calls.items():
        exact = [size for ops, size in seen if ops is cli.rate.EXACT]
        assert len(exact) <= 2 + iterations + 1, protocol
        assert max(exact) <= cli.rate.GRID_ROWS * cli.rate.N_GRID, protocol


@pytest.mark.parametrize("points", [2, cli.rate.GRID_ROWS, cli.rate.GRID_ROWS + 1, 501])
def test_sweep_runs_one_grid_pass_per_protocol_and_chunk(monkeypatch, points):
    # the grid passes take at most GRID_ROWS points (x 200 intensities) each
    calls = {protocol: [] for protocol in RATE_STEPS}
    count_rate_calls(monkeypatch, calls)
    rows = cli.run_sweep(
        "distance_km", 0, points - 1, 1, tuple(RATE_STEPS), cli.PRESETS["fig3b"], optimize_mu=True
    )
    assert len(rows) == points
    for protocol, seen in calls.items():
        grid = [size for ops, size in seen if ops is cli.rate.GRID]
        assert len(grid) == math.ceil(points / cli.rate.GRID_ROWS), protocol
        assert max(grid) == cli.rate.N_GRID, protocol  # the intensity grid, rows broadcast


def test_optimized_sweep_memory_is_bounded_per_batch():
    # beside its rows, an optimized 4,000-point sweep holds one batch's arrays at a
    # time: ~0.7 MB measured; one batch of all points took ~4.3 MB, and grid passes
    # of 512 points ~13 MB
    preset = cli.PRESETS["fig3b"]
    protocols = ("pm", "bb84", "mdi")
    cli.run_sweep("distance_km", 0, 1, 1, protocols, preset, True)  # the caches, once
    tracemalloc.start()
    try:
        rows = cli.run_sweep("distance_km", 0, 499.875, 0.125, protocols, preset, True)
        with_rows, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 4000
    assert peak - with_rows < 1.5e6


def per_point_rows(variable, values, preset):
    """Each point optimized on its own: pm by optimize_mu, BB84 and MDI by the
    one-row maximize on their public rate functions, with and without a grid."""
    p_d, e_d, f_ec = preset.p_d, preset.e_d, preset.f_ec
    rows = []
    for v in values:
        if variable == "eta":
            arm, full = v, v * v / preset.eta_d
        else:
            arm = ChannelParams.from_distance(v, eta_d=preset.eta_d, p_d=p_d).eta_arm
            full = fiber_transmittance(v, preset.eta_d, preset.alpha_db_per_km)
        ch_arm, ch_full = ChannelParams(arm, p_d), ChannelParams(full, p_d)
        mu_opt, r_pm = cli.rate.optimize_mu(ch_arm, preset.m_slices, f_ec)

        def bb84(mu):
            return cli.baselines.bb84_rate(mu, e_d, f_ec, ch_full)

        def mdi(mu):
            return cli.baselines.mdi_rate(mu / 2.0, mu / 2.0, arm, arm, p_d, e_d, f_ec)

        def bb84_grid(cells, mus):
            point = cli.baselines._bb84_point(full, p_d, e_d)
            return cli.baselines._bb84_rate(mus, e_d, f_ec, full, p_d, *point, cli.rate.GRID)

        def mdi_grid(cells, mus):
            point = cli.baselines._mdi_point(arm, arm, p_d, e_d)
            return cli.baselines._mdi_rate(mus / 2, mus / 2, arm, arm, p_d, e_d, f_ec, *point,
                                           cli.rate.GRID)

        row = {"mu_opt": mu_opt, "R_pm": r_pm}
        for name, f, f_grid in (("R_bb84", bb84, bb84_grid), ("R_mdi", mdi, mdi_grid)):
            def one_cell(cells, xs, f=f):
                return np.array([f(x) for x in xs.tolist()])

            best = cli.rate.maximize(one_cell, 1, *cli.rate.MU_RANGE, f_grid)[0]
            assert best == cli.rate.maximize(one_cell, 1, *cli.rate.MU_RANGE)[0]
            row[name] = best[1]
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "variable, start, stop, step",
    [("distance_km", 0.0, 40.0, 1.0), ("eta", 0.0, 0.1, 0.0025)],
    ids=["distance_0_40km", "eta"],
)
def test_chunked_sweep_equals_the_per_point_optimizers(variable, start, stop, step):
    # 41 points: two full grid passes and a partial one
    preset = cli.PRESETS["fig3b"]
    rows = cli.run_sweep(variable, start, stop, step, ("pm", "bb84", "mdi"), preset, True)
    assert len(rows) == 41 and 2 * cli.rate.GRID_ROWS < 41 < 3 * cli.rate.GRID_ROWS
    values = [round(start + i * step, 12) for i in range(41)]
    got = [{k: row[k] for k in ("mu_opt", "R_pm", "R_bb84", "R_mdi")} for row in rows]
    assert got == per_point_rows(variable, values, preset)


@pytest.mark.parametrize(
    "argv, named",
    [
        # the bad intensity sits in the second chunk of points
        (["--variable", "mu", "--start", "480", "--stop", "520", "--protocols", "bb84"],
         "mu must be in [0, 500], got 501.0"),
        (["--variable", "mu", "--start", "480", "--stop", "520", "--protocols", "pm,mdi"],
         "mu_total must be in [0, 500], got 501.0"),
        (["--variable", "mu", "--start", "480", "--stop", "520", "--protocols", "mdi"],
         "mu must be in [0, 500], got 501.0"),
        (["--start", "0", "--stop", "2", "--mu", "1000", "--protocols", "mdi"],
         "mu must be in [0, 500], got 1000.0"),
        (["--start", "0", "--stop", "40", "--optimize-mu", "--e-d", "nan"],
         "e_d must be in [0, 1], got nan"),
        (["--start", "0", "--stop", "40", "--optimize-mu", "--f-ec", "0.5"],
         "f_ec must be finite and >= 1, got 0.5"),
        (["--start", "0", "--stop", "40", "--optimize-mu", "--pd", "5"],
         "p_d must be in [0, 1], got 5.0"),
        (["--start", "0", "--stop", "40", "--optimize-mu", "--pd", "nan"],
         "p_d must be in [0, 1], got nan"),
        (["--start", "0", "--stop", "40", "--optimize-mu", "--eta-d", "1.5"],
         "eta_d must be in [0, 1], got 1.5"),
        (["--start", "0", "--stop", "40", "--optimize-mu", "--alpha", "nan"],
         "alpha_db_per_km must be positive and finite, got nan"),
        (["--start", "0", "--stop", "40", "--optimize-mu", "--m-slices", "3"],
         f"m_slices must be an even integer in [2, {2**53}], got 3"),
    ],
    ids=["mu_bb84", "mu_pm", "mu_mdi", "mu_mdi_fixed", "e_d", "f_ec", "p_d", "p_d_nan", "eta_d",
         "alpha", "m_slices"],
)
def test_chunked_sweep_bad_input_is_one_line_error(monkeypatch, capsys, argv, named):
    # the inputs are checked before any rate evaluation, which checks none of them
    def no_rate_call(*args):
        raise AssertionError("a rate function ran")

    for module, name in RATE_STEPS.values():
        monkeypatch.setattr(module, name, no_rate_call)
    code, out, err = run_cli(["sweep", "--preset", "fig3b", "--step", "1", *argv], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {named}\n"


GRID = ["--start", "0", "--stop", "3", "--step", "1"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sweep", *GRID, "--mu", "inf", "--protocols", "bb84"], "mu "),
        (["sweep", *GRID, "--mu", "inf", "--protocols", "mdi"], "mu "),
        (["sweep", *GRID, "--mu", "inf", "--protocols", "pm"], "mu_total "),
        (["rate", "--distance", "100", "--mu", "inf"], "mu_total "),
        (["sweep", *GRID, "--mu", "nan", "--protocols", "bb84"], "mu "),
    ],
    ids=["sweep_inf_bb84", "sweep_inf_mdi", "sweep_inf_pm", "rate_inf", "sweep_nan_bb84"],
)
def test_non_finite_intensity_is_named(capsys, argv, named):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {named}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--preset", "fig3b", *GRID, "--optimize-mu", "--protocols", protocols]
        for protocols in ("pm", "bb84", "plob")
    ] + [["rate", "--distance", "100", "--mu", "0.3"]],
    ids=["sweep_pm", "sweep_bb84", "sweep_plob", "rate"],
)
@pytest.mark.parametrize("m_slices", ["3", "0", str(2**53 + 2)])
def test_bad_m_slices_is_one_line_error(capsys, argv, m_slices):
    # checked once per command, also when no phase-matching cell runs
    code, out, err = run_cli([*argv, "--m-slices", m_slices], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: m_slices must be an even integer ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "grid, named",
    [
        (["--start", "0", "--stop", "inf", "--step", "1"], "--stop"),  # would never end
        (["--start", "0", "--stop", "3", "--step", "nan"], "--step"),
        (["--start", "0", "--stop", "3", "--step", "inf"], "--step"),
        (["--start", "nan", "--stop", "3", "--step", "1"], "--start"),
        (["--start=-inf", "--stop", "3", "--step", "1"], "--start"),
    ],
    ids=["inf_stop", "nan_step", "inf_step", "nan_start", "minus_inf_start"],
)
def test_sweep_non_finite_grid_flag_is_named(capsys, grid, named):
    code, out, err = run_cli(["sweep", *grid, "--protocols", "plob,tgw"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: sweep {named} ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "grid",
    [
        ["--start", "0", "--stop", "10", "--step", "1e-300"],
        ["--start", "1e20", "--stop", "2e20", "--step", "1"],
        # 1000 is below half the float spacing (16384) at 1e20, so v += step never moves
        ["--start", "1e20", "--stop", "1.0000000000000002e20", "--step", "1000"],
        # 1.5 is below the float spacing (2) at 2^53: start + 2 * 1.5 and
        # start + 3 * 1.5 are the same value
        ["--start", "9007199254740992", "--stop", "9007199254741032", "--step", "1.5"],
    ],
    ids=["tiny_step", "huge_start", "step_below_spacing", "step_below_spacing_in_steps"],
)
def test_sweep_runaway_grid_is_rejected(capsys, grid):
    code, out, err = run_cli(["sweep", *grid, "--protocols", "plob"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: sweep --step ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "grid",
    [
        # 21 rows over 3 distinct distances, the last five past --stop
        ["--start", "0", "--stop", "1e-12", "--step", "1e-13"],
        # a row at 4e-12, one step past --stop
        ["--start", "0", "--stop", "3e-12", "--step", "1e-12"],
    ],
    ids=["repeated_values", "row_past_stop"],
)
def test_sweep_step_finer_than_the_grid_rounding_is_rejected(capsys, grid):
    code, out, err = run_cli(["sweep", *grid, "--protocols", "plob"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: sweep --step must be at least 1e-11") and err.count("\n") == 1


@st.composite
def sweep_grids(draw):
    """(start, stop, step) of a distance sweep of at most 1,000 points."""
    start = draw(st.floats(0, 1000))
    stop = start + draw(st.floats(1e-13, 500))
    return start, stop, (stop - start) / draw(st.floats(1, 1000))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sweep_grids())
@example((0.0, 1e-12, 1e-13))
@example((0.0, 3e-12, 1e-12))
def test_sweep_grid_increases_from_start_and_ends_at_stop(grid):
    # the grid is rejected with a one-line error, only for a step below 1e-11,
    # or its values increase from the rounded start and pass --stop by no
    # more than the 1e-12 tolerance plus the rounding to 12 decimals
    start, stop, step = grid
    try:
        rows = cli.run_sweep("distance_km", start, stop, step, ("plob",), cli.PRESETS["fig3b"],
                             optimize_mu=False)
    except ValueError as exc:
        assert "\n" not in str(exc) and step < 1e-11
        return
    values = [row["distance_km"] for row in rows]
    assert values[0] == round(start, 12)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] <= stop + 1.5e-12


@pytest.mark.parametrize(
    "stop, step, points",
    [(1000.0, 0.1, 10_001), (300.0, 0.3, 1_001), (100.0, 0.1, 1_001)],
    ids=["0_1000_by_0.1", "0_300_by_0.3", "0_100_by_0.1"],
)
def test_sweep_grid_does_not_drift_from_its_index(stop, step, points):
    # a running sum of the steps drifts past the rounding: 0:1000:0.1 ended
    # at 999.900000000159 and 0:300:0.3 dropped its 300 row
    rows = cli.run_sweep("distance_km", 0.0, stop, step, ("plob",), cli.PRESETS["fig3b"],
                         optimize_mu=False)
    values = [row["distance_km"] for row in rows]
    assert values == [round(i * step, 12) for i in range(points)]
    assert values[-1] == stop


@pytest.mark.parametrize(
    "flag, named",
    [(["--alpha", "nan"], "alpha_db_per_km"), (["--eta-d", "nan"], "eta_d")],
    ids=["nan_alpha", "nan_eta_d"],
)
def test_sweep_eta_checks_fiber_flags(capsys, flag, named):
    # an eta sweep uses neither value for the per-arm channel; they are still checked
    code, out, err = run_cli(
        ["sweep", "--variable", "eta", "--start", "0.1", "--stop", "0.2", "--step", "0.1", *flag],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {named} ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, value, eta_d",
    [(["--preset", "fig3b", "--start", "0.1", "--stop", "0.2"], 0.2, 0.145),
     (["--eta-d", "0", "--start", "0", "--stop", "0.1"], 0.1, 0.0)],
    ids=["fig3b", "zero_eta_d"],
)
def test_sweep_eta_above_eta_d_is_rejected(capsys, flags, value, eta_d):
    # eta_arm includes the detector efficiency, so a larger one is no channel at all
    code, out, err = run_cli(
        ["sweep", "--variable", "eta", *flags, "--step", "0.1", "--mu", "0.3"], capsys
    )
    assert code == 1
    assert out == ""
    assert err == f"error: sweep eta_arm {value!r} exceeds eta_d {eta_d!r}\n"


@pytest.mark.parametrize(
    "flags, csv",
    [
        (["--preset", "fig3b", "--start", "0.05", "--stop", "0.1", "--step", "0.05"],
         ",0.050000000000000003,0.017241379310344831,0.29999999999999999,0.00035573151245445206,"
         "0.0013670382263567241,7.4464799597813265e-06,0.02509098096283045,0.049753035197099449\n"
         ",0.10000000000000001,0.068965517241379323,0.29999999999999999,0.00073520903821899135,"
         "0.0054792880339827885,2.9874333821399843e-05,0.1030934929641036,0.19930880822340666\n"),
        (["--eta-d", "0.5", "--start", "0.25", "--stop", "0.5", "--step", "0.25"],
         ",0.25,0.125,0.29999999999999999,0.0020248097117486221,0.0099516997055450994,"
         "0.00018823663664066032,0.19264507794239591,0.36257007938470825\n"
         ",0.5,0.5,0.29999999999999999,0.0047403752003770446,0.040319155310317954,"
         "0.00076232785810715232,1,1.5849625007211563\n"),
        (["--eta-d", "0.5", "--start", "0", "--stop", "0.1", "--step", "0.05"],
         ",0,0,0.29999999999999999,0,0,0,0,0\n"
         ",0.050000000000000003,0.005000000000000001,0.29999999999999999,0.00035581894384107793,"
         "0.00039634605405911363,7.4504519071367943e-06,0.0072315692310758583,0.014427070635279709\n"
         ",0.10000000000000001,0.020000000000000004,0.29999999999999999,0.00073529541654103947,"
         "0.0015862542391786895,2.9882183643192703e-05,0.029146345659516487,0.057715497856287497\n"),
    ],
    ids=["fig3b", "up_to_eta_d", "from_zero"],
)
def test_sweep_eta_valid_grid_is_unchanged(capsys, flags, csv):
    # eta_total = eta_arm**2 / eta_d, and the eta_d check leaves a valid grid's bytes as they
    # were; a zero rate at eta_arm = 0 prints as 0, not -0
    code, out, _ = run_cli(["sweep", "--variable", "eta", *flags, "--mu", "0.3"], capsys)
    assert code == 0
    assert out == ",".join(cli.SWEEP_COLUMNS) + "\n" + csv


def run_fresh(code, *args, cwd=None, environ=os.environ):
    """``python -c code *args`` in a new interpreter that imports this pmqkd,
    with ``environ`` as its environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True
    )


def test_import_loads_no_process_pool_or_optimizer():
    # sweeps run in the calling process, the Monte Carlo's threads start only when a
    # block is simulated, and SciPy's optimizer is imported only where used
    heavy = ("multiprocessing", "concurrent.futures", "scipy.optimize")
    code = (f"import sys, threading, pmqkd.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules], threading.active_count())")
    assert run_fresh(code).stdout == "[] 1\n"


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
THREADS_AFTER_IMPORT = """
import os
import pmqkd.cli
print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_starts_numpy_without_openblas_helper_threads():
    # the helper threads would spin beside the Monte Carlo's workers after start-up
    environ = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    done = run_fresh(THREADS_AFTER_IMPORT, environ=environ)
    assert (done.stdout, done.stderr) == ("1 1\n", "")


def test_a_set_openblas_thread_count_is_kept():
    code = "import os, pmqkd.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = run_fresh(code, environ=dict(os.environ, OPENBLAS_NUM_THREADS="2"))
    assert (done.stdout, done.stderr) == ("2\n", "")


LOADED_BY_COMMANDS = """
import json, os, sys
import pmqkd.cli
heavy = ("numpy.random", "scipy")
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "pmqkd" or m in heavy)
seen = [loaded()]
sweep = ["sweep", "--preset", "fig3b", "--start", "0", "--stop", "2", "--step", "1",
         "--optimize-mu", "--output", os.devnull]
seen += [pmqkd.cli.main(sweep), loaded()]
seen += [pmqkd.cli.main(["simulate", sys.argv[1], "--output", os.devnull]), loaded()]
print(json.dumps(seen))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # start-up loads the sweep's modules alone, the sweep loads nothing more, and
    # simulate adds the Monte Carlo's two and numpy.random; nothing loads scipy
    done = run_fresh(LOADED_BY_COMMANDS, str(_sim_config(tmp_path)))
    start_up = ["pmqkd", "pmqkd.baselines", "pmqkd.cli", "pmqkd.detection", "pmqkd.rate"]
    monte_carlo = sorted([*start_up, "pmqkd._mckernel_np", "pmqkd.simcore", "numpy.random"])
    assert done.stderr == ""
    assert json.loads(done.stdout.splitlines()[-1]) == [start_up, 0, start_up, 0, monte_carlo]


NAMES_RESOLVE = """
import pkgutil
import pmqkd
submodules = [m.name for m in pkgutil.iter_modules(pmqkd.__path__)]
for name in [*pmqkd.__all__, *submodules]:
    getattr(pmqkd, name)
assert {*pmqkd.__all__, *submodules} <= set(dir(pmqkd))
assert not hasattr(pmqkd, "backend")
try:
    from pmqkd import backend
except ImportError:
    pass
else:
    raise AssertionError("pmqkd.backend imported")
"""
CLI_MAIN = "import sys; from pmqkd.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize(
    "code, argv",
    [
        (NAMES_RESOLVE, []),
        (CLI_MAIN, ["rate", "--distance", "100", "--mu", "0.3"]),
        (CLI_MAIN, ["rate", "--config", "rate.json"]),
        (CLI_MAIN, ["sweep", *GRID, "--optimize-mu"]),
        (CLI_MAIN, ["attack", "--fix-mu", "0.5", "--steps", "20"]),
        (CLI_MAIN, ["simulate", "sim.json"]),
        (CLI_MAIN, ["fock-check", "--max-k", "1"]),
    ],
    ids=["names", "rate", "rate_config", "sweep", "attack", "simulate", "fock_check"],
)
def test_names_and_commands_work_first_in_a_fresh_interpreter(tmp_path, code, argv):
    # nothing imported earlier in the process stands in for a lazy import
    _sim_config(tmp_path)
    (tmp_path / "rate.json").write_text(json.dumps({"distance_km": 100, "mu": 0.3}))
    done = run_fresh(code, *argv, cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")


def test_sweep_eta_variable(capsys):
    code, out, _ = run_cli(
        [
            "sweep", "--variable", "eta", "--start", "0.01", "--stop", "0.02",
            "--step", "0.01", "--mu", "0.5", "--protocols", "pm",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    row = lines[1].split(",")
    assert row[0] == ""  # no distance for a transmittance sweep
    assert float(row[1]) == pytest.approx(0.01)


def test_sweep_bad_protocols(capsys):
    code, _, err = run_cli(
        ["sweep", "--start", "0", "--stop", "10", "--step", "5", "--protocols", "pm,nope"],
        capsys,
    )
    assert code == 1
    assert "nope" in err
    code, out, err = run_cli(
        ["sweep", "--start", "0", "--stop", "10", "--step", "5", "--protocols", ","], capsys
    )
    assert code == 1
    assert out == ""
    assert err == "error: protocol set must be nonempty\n"


# --- attack -----------------------------------------------------------------------


def test_attack_fixed_mu_crossover(capsys):
    code, out, _ = run_cli(["attack", "--fix-mu", "0.5", "--steps", "50"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eta,r_gllp_per_click,r_gllp_literal,r_bs,r_pm"
    assert lines[-1].startswith("# violation(per_click):")
    assert "crossover=" in lines[-1]
    cross = float(lines[-1].split("crossover=")[1].split(";")[0])
    assert 0.55 <= cross <= 0.70


def test_attack_fixed_eta_all_violating(capsys):
    code, out, _ = run_cli(["attack", "--fix-eta", "0.2", "--steps", "40"], capsys)
    assert code == 0
    summary = out.strip().split("\n")[-1]
    assert "violation(per_click): mu in 0.001" in summary


def test_attack_empty_violation(capsys):
    code, out, _ = run_cli(
        ["attack", "--fix-mu", "0.5", "--eta-range", "0.9:1.0", "--steps", "30"], capsys
    )
    assert code == 0
    assert out.strip().split("\n")[-1] == "# violation(per_click): none"


@pytest.mark.parametrize(
    "argv, end",
    [
        (["--fix-eta", "0.2"], "2"),
        (["--fix-eta", "0", "--steps", "200"], "2"),
        (["--fix-eta", "0.01", "--mu-range", "0.001:4", "--steps", "7"], "4"),
        (["--fix-mu", "0.5", "--eta-range", "0.3:0.7", "--steps", "400"], "0.69999999999999996"),
    ],
)
def test_attack_grid_ends_at_the_requested_end(capsys, argv, end):
    code, out, _ = run_cli(["attack", *argv], capsys)
    assert code == 0
    assert out.strip().split("\n")[-2].split(",")[0] == end


def test_attack_violation_summary_ends_at_the_requested_end(capsys):
    code, out, _ = run_cli(["attack", "--fix-eta", "0.2"], capsys)
    assert code == 0
    assert out.strip().split("\n")[-1] == "# violation(per_click): mu in 0.001..2"


def test_attack_requires_exactly_one_fix(capsys):
    code, _, err = run_cli(["attack"], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--fix-mu", "0.5", "--steps", "1"], "steps"),
        (["--fix-mu", "0.5", "--steps", "0"], "steps"),
        (["--fix-eta", "0.2", "--steps", "-2"], "steps"),
        (["--fix-mu", "nan"], "mu_total"),
        (["--fix-eta", "0.2", "--mu-range", "0.1:x"], "--mu-range"),
        (["--fix-mu", "0.5", "--eta-range", "0.5"], "--eta-range"),
    ],
    ids=["steps_1", "steps_0", "steps_negative", "nan_mu", "bad_mu_range", "bad_eta_range"],
)
def test_attack_bad_flag_is_one_line_error(capsys, argv, named):
    code, out, err = run_cli(["attack", *argv], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--fix-eta", "0.2", "--mu-range", "0.1:inf"], "--mu-range"),
        (["--fix-mu", "0.5", "--eta-range", "nan:1"], "--eta-range"),
    ],
    ids=["inf_mu_range", "nan_eta_range"],
)
def test_attack_non_finite_range_is_named(capsys, argv, flag):
    code, out, err = run_cli(["attack", *argv], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} must be lo:hi with two finite numbers")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--fix-mu", "0.5", "--eta-range", "0.5:2"], "eta must be in [0, 1], got 2.0"),
        (["--fix-eta", "0.2", "--mu-range", "0.1:1e300"],
         "mu_total must be in [0, 500], got 1e+300"),
    ],
    ids=["eta_axis", "mu_axis"],
)
def test_attack_bad_range_end_is_named_as_given(monkeypatch, capsys, argv, message):
    # the end the user typed is named, not a grid point, and no point is evaluated first
    calls = []
    monkeypatch.setattr(attacks, "bs_attack", lambda mu, eta: calls.append((mu, eta)))
    code, out, err = run_cli(["attack", *argv], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert calls == []


@pytest.mark.parametrize("fix", [["--fix-eta", "0.2"], ["--fix-mu", "0.5"]], ids=["eta", "mu"])
@pytest.mark.parametrize("over", [0, 1], ids=["at_bound", "above_bound"])
def test_attack_steps_bound_is_checked_before_the_scan(monkeypatch, capsys, fix, over):
    # the scan (grid and bs_attack calls) is stubbed: above the bound it must never start
    scans = []

    def stub_scan(**kwargs):
        scans.append(kwargs["steps"])
        return attacks.ViolationReport(points=(), violation_intervals=(), crossovers=())

    monkeypatch.setattr(attacks, "find_gllp_violation", stub_scan)
    steps = cli.MAX_ATTACK_STEPS + over
    code, out, err = run_cli(["attack", *fix, "--steps", str(steps)], capsys)
    if over:
        assert (code, out, scans) == (1, "", [])
        assert err == f"error: --steps must be at most {cli.MAX_ATTACK_STEPS}, got {steps}\n"
    else:
        assert (code, err, scans) == (0, "", [steps])


@pytest.mark.parametrize(
    "argv, calls",
    [(["--fix-mu", "0.5", "--steps", "50"], 130), (["--fix-eta", "0.2"], 200)],
    ids=["fixed_mu_one_crossover", "fixed_eta_no_crossover"],
)
def test_attack_evaluates_each_point_once(monkeypatch, capsys, argv, calls):
    # one bs_attack call per grid point and per bisection step (80 per crossover),
    # and the CSV rows reuse the scan's points
    bs_attack = attacks.bs_attack
    seen = []

    def counting_bs_attack(mu, eta):
        seen.append((mu, eta))
        return bs_attack(mu, eta)

    monkeypatch.setattr(attacks, "bs_attack", counting_bs_attack)
    code, out, _ = run_cli(["attack", *argv], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    steps = len(lines) - 2  # header and summary
    crossovers = lines[-1].split("crossover=")[1].split(";") if "crossover=" in lines[-1] else []
    assert len(seen) == calls == steps + 80 * len(crossovers)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["attack", "--fix-mu", "0.5", "--steps", "20", "--mu-range", "0.1:0.3"], "--mu-range"),
        (["attack", "--fix-eta", "0.2", "--eta-range", "0.1:x"], "--eta-range"),
        (["sweep", *GRID, "--mu", "0.3", "--distance", "50"], "--distance"),
        (["sweep", "--variable", "eta", "--start", "0.1", "--stop", "0.2", "--step", "0.1",
          "--distance", "50"], "--distance"),
        (["sweep", "--variable", "eta", "--start", "0.1", "--stop", "0.2", "--step", "0.1",
          "--alpha", "0.3"], "--alpha"),
        (["sweep", "--variable", "mu", "--start", "0.1", "--stop", "0.2", "--step", "0.1",
          "--optimize-mu"], "--optimize-mu"),
        (["sweep", "--variable", "mu", "--start", "0.1", "--stop", "0.2", "--step", "0.1",
          "--mu", "0.4"], "--mu"),
        (["sweep", *GRID, "--mu", "0.3", "--optimize-mu"], "--mu"),
    ],
    ids=[
        "attack_fix_mu_mu_range", "attack_fix_eta_eta_range", "sweep_distance_km_distance",
        "sweep_eta_distance", "sweep_eta_alpha", "sweep_mu_optimize", "sweep_mu_mu",
        "sweep_mu_with_optimize",
    ],
)
def test_unread_flag_is_rejected(capsys, argv, flag):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def test_sweep_preset_goes_with_every_variable(capsys):
    # only given flags are checked, so a preset's alpha still goes with an eta sweep
    code, out, _ = run_cli(
        ["sweep", "--preset", "fig3b", "--variable", "eta", "--start", "0.05", "--stop", "0.1",
         "--step", "0.05", "--mu", "0.5", "--protocols", "pm"],
        capsys,
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 3


def test_rate_takes_no_e_d(capsys):
    # --e-d is the baselines' misalignment, which only sweep reads
    with pytest.raises(SystemExit) as exc:
        cli.main(["rate", "--distance", "100", "--mu", "0.3", "--e-d", "0.4"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: unrecognized arguments: --e-d 0.4" in err.strip().split("\n")[-1]


def test_readme_cli_examples_parse():
    # every pmqkd line of the README's shell blocks uses flags the parser still has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("pmqkd "):
                commands.append(shlex.split(line)[1:])
    parser = cli.build_parser()
    assert {argv[0] for argv in commands} == {"rate", "sweep", "attack", "simulate", "fock-check"}
    for argv in commands:
        parser.parse_args(argv)


EXTREMES = ("nan", "inf", "-inf", "-1", "0", "1000", "1e308", "1" + "0" * 400)
SWEEP_2 = ["sweep", "--start", "0", "--stop", "10", "--step", "10"]
SWEEP_MU = ["sweep", "--variable", "mu", "--start", "0.1", "--stop", "0.2", "--step", "0.1"]
SWEEP_ETA = ["sweep", "--variable", "eta", "--start", "0.1", "--stop", "0.2", "--step", "0.1"]
# (command, flags given one extreme value each; "{}" marks where a range flag takes it)
EXTREME_TABLE = [
    (["rate", "--distance", "100", "--mu", "0.3"],
     ["--distance", "--mu", "--pd", "--eta-d", "--m-slices", "--f-ec", "--alpha"]),
    (["rate", "--eta", "0.1", "--mu", "0.3"], ["--eta"]),
    ([*SWEEP_2, "--mu", "0.3"],
     ["--start", "--stop", "--step", "--mu", "--pd", "--eta-d", "--m-slices", "--f-ec",
      "--alpha", "--e-d"]),
    ([*SWEEP_2, "--mu", "0.3", "--protocols", "bb84,mdi"], ["--mu", "--pd", "--f-ec", "--e-d"]),
    ([*SWEEP_MU, "--distance", "100"], ["--distance", "--start", "--stop"]),
    (SWEEP_ETA, ["--start", "--stop"]),
    (["attack", "--steps", "3"], ["--fix-mu", "--fix-eta"]),
    (["attack", "--steps", "3", "--fix-eta", "0.2"],
     ["--mu-range 0:{}", "--mu-range {}:1", "--steps"]),
    (["attack", "--steps", "3", "--fix-mu", "0.5"],
     ["--eta-range 0:{}", "--eta-range {}:1", "--steps"]),
    (["fock-check"], ["--max-k"]),
]


def test_extreme_flag_values_end_without_a_traceback(capsys):
    # any number on the command line exits 0, 1 or 2 with one error line, never a nan result
    bad = []
    for command, flags in EXTREME_TABLE:
        for flag in flags:
            for value in EXTREMES:
                name, _, template = flag.partition(" ")
                argv = [*command, f"{name}={(template or '{}').format(value)}"]
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # the escape is the failure
                    code = f"{type(exc).__name__}: {exc}"
                out, err = capsys.readouterr()
                if code == 0:
                    ok = "nan" not in out
                elif code == 1:
                    ok = out == "" and err.startswith("error: ") and err.count("\n") == 1
                elif code == 2:  # argparse prints its usage before its one error line
                    ok = err.count("error: ") == 1
                else:
                    ok = False
                if not ok:
                    bad.append((argv, code, err))
    assert bad == []


# --- simulate ----------------------------------------------------------------------


def _sim_config(tmp_path, **overrides):
    doc = {
        "rounds": 200_000,
        "seed": 42,
        "m_slices": 16,
        "intensities": [0.5],
        "sample_fraction": 0.2,
        "channel": {"eta_arm": 0.1, "p_d": 7.2e-8},
        "phi0": {"kind": "fixed", "value_rad": 0.0},
    }
    doc.update(overrides)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    return path


def test_simulate_consistent_run(tmp_path, capsys):
    path = _sim_config(tmp_path)
    out_csv = tmp_path / "tallies.csv"
    code, out, _ = run_cli(["simulate", str(path), "--output", str(out_csv)], capsys)
    assert code == 0
    assert "j_d_opt 0" in out
    assert "consistency ok" in out
    header = out_csv.read_text().split("\n")[0]
    assert header == "intensity,emitted,clicked,sifted,errors,Q_hat,Q_se,EZ_hat,EZ_se"


def test_simulate_byte_identical_output(tmp_path, capsys):
    path = _sim_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(["simulate", str(path), "--output", str(a)], capsys)[0] == 0
    assert run_cli(["simulate", str(path), "--output", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_reports_offset(tmp_path, capsys):
    path = _sim_config(
        tmp_path,
        m_slices=12,
        phi0={"kind": "fixed", "value_rad": math.radians(70.0)},
    )
    code, out, _ = run_cli(["simulate", str(path)], capsys)
    assert code == 0
    assert "j_d_opt 2" in out


def test_simulate_vacuum_intensity_without_dark_counts_is_consistent(tmp_path, capsys):
    # model gain, observed gain and standard error are all exactly 0 for mu = 0
    path = _sim_config(
        tmp_path, rounds=300_000, intensities=[0.0, 0.1, 0.2, 0.5],
        channel={"eta_arm": 0.1, "p_d": 0.0},
    )
    code, out, _ = run_cli(["simulate", str(path)], capsys)
    vacuum = next(ln for ln in out.splitlines() if ln.startswith("intensity 0 "))
    assert "z_Q +0.000" in vacuum
    assert code == 0 and "consistency ok" in out


def test_simulate_unallocatable_rounds_is_one_line_error(tmp_path, capsys):
    # nothing is allocated per round, so the config's rounds bound stops
    # the run before any work starts
    code, out, err = run_cli(["simulate", str(_sim_config(tmp_path, rounds=2**62))], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: rounds must be in [1, {2**32}], got {2**62}\n"


@pytest.mark.parametrize("argv", [["simulate"], ["rate", "--config"]], ids=["simulate", "rate"])
def test_deeply_nested_config_is_one_line_error(tmp_path, capsys, argv):
    # deeper than the JSON parser's recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli([*argv, str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path} is not a readable JSON document: ")
    assert err.count("\n") == 1


def test_simulate_missing_file(capsys):
    code, _, err = run_cli(["simulate", "/nonexistent/cfg.json"], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"m_slices": 40000}, "m_slices"),
        ({"rounds": None}, "rounds"),
        ({"intensities": 0.5}, "intensities"),
        ({"phi0": {"kind": "fixed", "value_rad": float("nan")}}, "phi0.value_rad"),
        ({"jd_block_round": 500}, "'jd_block_round'"),
        ({"channel": {"eta_arm": 0.1, "p_d": 7.2e-8, "pd": 0.0}}, "'pd'"),
        ({"phi0": {"kind": "fixed", "value": 0.1}}, "'value'"),
        ({"phi0": {"kind": "drift"}}, "'drift'"),
        ({"phi0": {"kind": "fixed", "rate_rad_per_round": 1e-6}}, "1e-06"),
        # a fiber value next to eta_arm would be ignored: the two channel forms do not mix
        ({"channel": {"eta_arm": 0.1, "p_d": 7.2e-8, "distance_km": 300}}, "'distance_km'"),
        ({"channel": {"eta_arm": 0.1, "p_d": 7.2e-8, "eta_d": 0.145}}, "'eta_d'"),
        ({"channel": {"eta_arm": 0.1, "p_d": 7.2e-8, "alpha_db_per_km": 0.2}},
         "'alpha_db_per_km'"),
        # the drift passes the largest float within the run: the kernel's phase would be inf
        ({"rounds": 1000, "phi0": {"kind": "slow_drift", "rate_rad_per_round": 1e308}},
         "phi0.rate_rad_per_round must keep phi0 finite over 1000 rounds, got 1e+308"),
        # the intensity index is int16
        ({"rounds": 1000, "intensities": [i * 1e-4 for i in range(40_000)]},
         "intensities must hold at most 32768 values, got 40000"),
        # a jd block's count per (intensity, slice difference, disagreement) stays <= 32 MB
        ({"rounds": 1000, "m_slices": 32766, "intensities": [i * 1e-3 for i in range(65)]},
         "intensities times m_slices must be at most 2097152, got 2129790"),
    ],
    ids=["m_slices_40000", "rounds_null", "scalar_intensities", "nan_phi0",
         "unknown_key", "unknown_channel_key", "unknown_phi0_key", "bad_phi0_kind",
         "fixed_phi0_with_rate", "eta_arm_with_distance", "eta_arm_with_eta_d",
         "eta_arm_with_alpha", "overflowing_drift", "intensities_40000", "histogram_cells"],
)
def test_simulate_bad_config_is_one_line_error(tmp_path, capsys, overrides, named):
    code, out, err = run_cli(["simulate", str(_sim_config(tmp_path, **overrides))], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize(
    "drop, where",
    [
        ("rounds", "config"),
        ("seed", "config"),
        ("m_slices", "config"),
        ("intensities", "config"),
        ("channel", "config"),
        ("channel.p_d", "channel"),
    ],
)
def test_simulate_missing_key_is_named(tmp_path, capsys, drop, where):
    path = _sim_config(tmp_path)
    doc = json.loads(path.read_text())
    parent, _, key = drop.rpartition(".")
    del (doc[parent] if parent else doc)[key]
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["simulate", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: missing key {key!r} in {where}\n"


# --- fock-check ----------------------------------------------------------------------


def test_fock_check_passes(capsys):
    code, out, _ = run_cli(["fock-check", "--max-k", "4"], capsys)
    assert code == 0
    assert out.strip().endswith("OK")
    assert "k=4" in out


@pytest.mark.parametrize("max_k", ["0", "-3"])
def test_fock_check_rejects_max_k_below_1(capsys, max_k):
    code, out, err = run_cli(["fock-check", "--max-k", max_k], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: --max-k {max_k} is not in [1, {cli.MAX_FOCK_K}]\n"


@pytest.mark.parametrize("over", [0, 1], ids=["at_bound", "above_bound"])
def test_fock_check_max_k_bound_is_checked_before_any_state(monkeypatch, capsys, over):
    # lemma1_check is stubbed: above the bound it must never run, so no state is built
    ks = []

    def stub_check(k):
        ks.append(k)
        return focklab.Lemma1Result(k, 0.0, 0.0, 0.0, 0.0)

    monkeypatch.setattr(focklab, "lemma1_check", stub_check)
    max_k = cli.MAX_FOCK_K + over
    code, out, err = run_cli(["fock-check", "--max-k", str(max_k)], capsys)
    if over:
        assert (code, out, ks) == (2, "", [])
        assert err == f"error: --max-k {max_k} is not in [1, {cli.MAX_FOCK_K}]\n"
    else:
        assert (code, ks) == (0, list(range(1, max_k + 1)))


def test_fock_check_has_no_cutoff_flag(capsys):
    # the truncation is the photon number under test; there is nothing to set
    with pytest.raises(SystemExit) as exc:
        cli.main(["fock-check", "--cutoff", "16"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cutoff 16" in capsys.readouterr().err

"""What the benchmark under ``perfbench/`` needs from the package.

The benchmark's tracer skips a function it cannot find, so a renamed or
deleted layer would read as zero calls instead of failing; its child
process reads the decoy summary of every Monte Carlo run, and its runner
checks every seed-42 run against the goldens.  These tests import the
benchmark's modules, read its goldens and change nothing in them.  The
README's performance figures come from the committed ``BENCH_*.json``
records of its runs.
"""
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from pmqkd import cli, simcore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import run
    import tracing

    return child, run, tracing


def test_every_traced_layer_exists(perfbench, monkeypatch):
    _, _, tracing = perfbench
    requested = []
    monkeypatch.setattr(
        tracing.Tracer, "wrap",
        lambda self, module, attr, **kwargs: requested.append((module, attr)),
    )
    monkeypatch.setattr(
        tracing.Tracer, "wrap_generator",
        lambda self, module, attr: requested.append((module, attr)),
    )
    tracing.install(tracing.Tracer())
    assert requested
    missing = [
        (getattr(module, "__name__", module), attr)
        for module, attr in requested
        if getattr(module, attr, None) is None
    ]
    assert not missing


def test_decoy_summary_of_a_seeded_simulate(perfbench, tmp_path, capsys):
    child, run, _ = perfbench
    cfg = run.mc_config(run.MC_BASE, run.DEFAULT_SEED, "smoke")
    assert cfg["rounds"] == 300_000 and cfg["seed"] == 42
    cfg_path, csv_path = tmp_path / "config.json", tmp_path / "tallies.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", str(cfg_path), "--output", str(csv_path)]) == 0
    capsys.readouterr()
    summary = child.decoy_summary(csv_path.read_text(), cfg["m_slices"], max(cfg["intensities"]))
    assert sorted(summary) == ["Y_1", "key_rate"]
    assert 0.0 < summary["Y_1"] <= 1.0
    assert math.isfinite(summary["key_rate"]) and summary["key_rate"] >= 0.0


@pytest.mark.parametrize("workload", ["mc_fixed", "mc_drift"])
def test_smoke_size_monte_carlo_matches_its_golden(perfbench, workload):
    _, run, _ = perfbench
    goldens = json.loads((PERFBENCH / "golden" / "mc.json").read_text())
    assert goldens["seed"] == run.DEFAULT_SEED
    golden = goldens[workload]["smoke"]
    _, base = run.WORKLOADS[workload]
    cfg = simcore.SimConfig.from_json_dict(run.mc_config(base, run.DEFAULT_SEED, "smoke"))
    res = simcore.simulate(cfg)
    csv = simcore.tallies_to_csv(res.tallies)
    assert csv == golden["tally_csv"]
    assert hashlib.sha256(csv.encode()).hexdigest() == golden["tally_sha256"]
    assert [list(b) for b in res.block_offsets] == golden["block_offsets"]


def test_traced_smoke_simulate_gives_finite_layer_metrics(perfbench, monkeypatch, tmp_path, capsys):
    # the tracer's wrappers and probes run in this process; every module
    # attribute install replaces is put back afterwards
    _, run, tracing = perfbench
    import pmqkd
    from pmqkd import _mckernel_np

    modules = [getattr(pmqkd, name) for name in ("baselines", "cli", "decoy", "rate", "simcore")]
    for module in modules + [_mckernel_np]:
        for name, value in list(vars(module).items()):
            if callable(value):
                monkeypatch.setattr(module, name, value)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    cfg = run.mc_config(run.MC_BASE, run.DEFAULT_SEED, "smoke")
    cfg_path, csv_path = tmp_path / "config.json", tmp_path / "tallies.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", str(cfg_path), "--output", str(csv_path)]) == 0
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer)
    # simulate bins each unit's records as it arrives: the record-level
    # layers are off its path, and the stream of units is on it
    assert metrics["simcore.postcompensate.calls"] == 0
    assert metrics["simcore.run_blocks.self_s"] > 0 and metrics["simcore.simulate.self_s"] > 0
    assert all(math.isfinite(value) for value in metrics.values())
    # collect_rounds' probe reads its 5 B records, and the counts beside them
    simcore.collect_rounds(simcore.SimConfig.from_json_dict(cfg))
    assert 5 < tracing.layer_metrics(tracer)["simcore.round_bytes_per_round"] < 5.01


def test_readme_sweep_figure_is_the_committed_median():
    # the README's fig3b throughput is BENCH_sweep_fig3b.json's median, rounded
    root = PERFBENCH.parent
    bench = json.loads((root / "BENCH_sweep_fig3b.json").read_text())
    median = bench["pairs_seed_42"]["throughput"]["change"]["median"]
    readme = (root / "README.md").read_text()
    figures = re.findall(r"The\s+`sweep_fig3b`\s+sweep\s+runs\s+at\s+(\d+)\s+points/s", readme)
    assert figures == [str(round(median))]


def test_readme_sweep_start_up_is_the_committed_median():
    # the README's fig3b start-up time is BENCH_sweep_fig3b.json's setup_s median, in ms
    root = PERFBENCH.parent
    bench = json.loads((root / "BENCH_sweep_fig3b.json").read_text())
    median = bench["pairs_seed_42"]["setup_s"]["change"]["median"]
    readme = " ".join((root / "README.md").read_text().split())
    figures = re.findall(r"`sweep_fig3b` starts up in (\d+) ms", readme)
    assert figures == [str(round(1e3 * median))]


def test_readme_monte_carlo_figures_are_the_committed_medians():
    # each Monte Carlo workload's throughput and peak RSS in the README is
    # the change median of its BENCH_<workload>.json, rounded
    root = PERFBENCH.parent
    readme = " ".join((root / "README.md").read_text().split())
    figures = re.findall(
        r"(\d+\.\d) M rounds/s at (\d+\.\d) MB(?: peak RSS)? \(`(mc_\w+)`\)", readme)
    want = []
    for workload in ("mc_fixed", "mc_drift"):
        pairs = json.loads((root / f"BENCH_{workload}.json").read_text())["pairs_seed_42"]
        want.append((f"{pairs['throughput']['change']['median'] / 1e6:.1f}",
                     f"{pairs['peak_rss_mb']['change']['median']:.1f}", workload))
    assert figures == want

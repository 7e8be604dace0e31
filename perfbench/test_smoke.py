"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload with a 0-50 km sweep and 300k Monte Carlo rounds,
checks the output line against BENCHMARK.json, and checks that a
corrupted golden is reported as failed operations.
"""
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--size", "smoke", "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--trace", str(trace))
    line = result_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for value in (v["value"] for v in line["metrics"].values()):
        assert isinstance(value, (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        rate_name = "points_per_s" if workload.startswith("sweep") else "mrounds_per_s"
        for name in ("setup_s", rate_name, "peak_rss_mb", "failed_frac"):
            assert any(ln.startswith(name + " ") for ln in proc.stdout.splitlines()), name


def test_trace_counts_sweep():
    line = result_line(run_bench("--workload", "sweep_fig3b", "--trace", "1"))
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["rate.optimize_mu.calls"] == 51
    assert m["rate.key_rate.calls"] > 200 * 51
    assert m["backend.simulate_block.calls"] == 0


def test_trace_counts_monte_carlo():
    line = result_line(run_bench("--workload", "mc_drift", "--trace", "1"))
    m = {k: v["value"] for k, v in line["metrics"].items()}
    # 300k rounds are two 2^18-round RNG blocks; four jd blocks of 75k rounds
    assert m["backend.simulate_block.calls"] == 2
    assert m["simcore.postcompensate.calls"] == 4
    assert m["simcore.sift.calls"] == 4 * (32 + 1)
    assert m["kernel.bytes_per_round_computed"] == 7 * 8 + 25
    assert m["simcore.round_bytes_per_round"] == 25
    assert m["simcore.run_blocks.self_s"] > 0


def test_other_seed_checks_invariants():
    line = result_line(run_bench("--workload", "mc_fixed", "--seed", "7"))
    assert line["correct"] is True and line["failed"] == 0


def test_corrupted_golden_raises_failed_ops(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(os.path.join(HERE, "golden"), golden)
    sweep = (golden / "sweep_fig3b.csv").read_text().splitlines()
    cells = sweep[11].split(",")
    cells[5] = repr(float(cells[5]) * 1.001)  # R_bb84 at 10 km
    sweep[11] = ",".join(cells)
    (golden / "sweep_fig3b.csv").write_text("\n".join(sweep) + "\n")
    mc = json.loads((golden / "mc.json").read_text())
    mc["mc_drift"]["smoke"]["block_offsets"][2][2] += 1
    (golden / "mc.json").write_text(json.dumps(mc))

    line = result_line(run_bench("--workload", "sweep_fig3b", "--golden-dir", str(golden)))
    assert line["failed"] == 1 and line["correct"] is False
    line = result_line(run_bench("--workload", "mc_drift", "--golden-dir", str(golden)))
    assert line["failed"] == 1 and line["correct"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "mc_fixed", cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_speed_probe_samples_while_work_runs():
    sys.path.insert(0, HERE)
    import hostspeed

    for kind in hostspeed.JOBS:
        probe = hostspeed.Probe(kind, 0.01)
        probe.start()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
        out = probe.stop()
        assert out["samples"] >= 5
        assert 0 < out["spent_s"] < 0.2
        assert out["speed"] > 0

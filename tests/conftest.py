"""Fixtures shared by the test modules."""
import time
from typing import NamedTuple

import pytest

from pmqkd import cli


class SweepRun(NamedTuple):
    code: int  # cli.main's exit code
    rows: list  # run_sweep's rows
    csv: str  # the file written to --output
    elapsed: float  # seconds spent in run_sweep


@pytest.fixture(scope="session")
def fig3b_sweep(tmp_path_factory):
    """The Fig. 3b sweep, 0-500 km in 1 km steps with per-distance intensity
    optimization, run once through ``cli.main``; shared by acceptance
    criteria 1-3 and the golden CSV test."""
    out_file = tmp_path_factory.mktemp("fig3b") / "sweep.csv"
    run_sweep = cli.run_sweep
    seen = {}

    def timed_run_sweep(*args, **kwargs):
        t0 = time.monotonic()
        seen["rows"] = run_sweep(*args, **kwargs)
        seen["elapsed"] = time.monotonic() - t0
        return seen["rows"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_sweep", timed_run_sweep)
        code = cli.main(
            [
                "sweep", "--preset", "fig3b", "--start", "0", "--stop", "500", "--step", "1",
                "--optimize-mu", "--output", str(out_file),
            ]
        )
    return SweepRun(code, seen.get("rows"), out_file.read_text(), seen.get("elapsed"))

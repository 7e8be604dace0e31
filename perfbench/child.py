"""One repetition of a workload, in a fresh interpreter.

Started by ``run.py`` with one JSON argument (the repetition's spec).
It imports pmqkd from the checkout's ``src``, calls
``pmqkd.cli.main(argv)`` once, and prints one JSON line with its
timings, the outputs ``run.py`` checks, and, when traced, the per-layer
values.  ``start_monotonic`` is the CLOCK_MONOTONIC reading taken just
before ``cli.main``; ``run.py`` subtracts its own reading taken before
launching the interpreter to get the set-up time.
"""
import contextlib
import io
import json
import os
import re
import resource
import sys
import time

import hostspeed

# Host-speed probe intervals: the set-up is short, so it is sampled
# more densely.
SETUP_PROBE_INTERVAL_S = 0.02
RUN_PROBE_INTERVAL_S = 0.05

Z_LINE = re.compile(r"intensity (\S+) .* z_Q (\S+) .* z_EZ (\S+)")


def provenance() -> dict:
    import numpy
    import scipy

    import pmqkd

    try:
        from pmqkd import backend

        active = backend.active_backend()
    except ImportError:
        active = "numpy (no backend switch)"
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": active,
        "pmqkd_version": getattr(pmqkd, "__version__", "unknown"),
    }


def capture_simulate(store: dict) -> None:
    """Keep the SimResult that ``cli simulate`` computes (for its block offsets)."""
    from pmqkd import simcore

    inner = simcore.simulate

    def simulate(cfg):
        store["result"] = inner(cfg)
        return store["result"]

    simcore.simulate = simulate


def decoy_summary(tally_csv: str, m_slices: int, mu_signal: float) -> dict:
    """Decoy-state Y_1 and key rate from the tallies ``cli simulate`` wrote."""
    from pmqkd import decoy, rate, simcore

    rows = [line.split(",") for line in tally_csv.strip().splitlines()[1:]]
    tallies = [
        simcore.Tally(intensity=float(r[0]), emitted=int(r[1]), clicked_single=int(r[2]),
                      sifted=int(r[3]), errors=int(r[4]))
        for r in rows
    ]
    try:
        est = decoy.decoy_estimate(tallies, k_max=2)
        emp = decoy.empirical_rate(
            tallies, est, rate.PmParams(mu_total=mu_signal, m_slices=m_slices)
        )
    except ValueError as exc:
        return {"error": str(exc)}
    return {"Y_1": float(est.yields[1]), "key_rate": emp.breakdown.rate_R}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    # Only the interpreter job: the NumPy one would import NumPy early.
    probe = hostspeed.Probe("python", SETUP_PROBE_INTERVAL_S)
    probe.start()
    t0 = time.perf_counter()
    import pmqkd.cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(pmqkd.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"pmqkd imported from {pmqkd.__file__}, not from {src}", file=sys.stderr)
        return 2
    if spec.get("warmup"):
        probe.stop()
        return 0
    captured: dict = {}
    if spec["kind"] == "mc":
        capture_simulate(captured)
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    stdout = io.StringIO()
    setup_probe = probe.stop()
    probe = hostspeed.Probe(spec["probe_kind"], RUN_PROBE_INTERVAL_S)
    start_monotonic = time.monotonic()
    probe.start()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        try:
            rc = pmqkd.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    run_s = time.perf_counter() - t0
    run_probe = probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "start_monotonic": start_monotonic,
        "run_s": run_s,
        "setup_probe": setup_probe,
        "run_probe": run_probe,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": rc,
        "provenance": provenance(),
    }
    result = captured.get("result")
    if result is not None and os.path.exists(spec["output"]):
        out["block_offsets"] = [list(b) for b in result.block_offsets]
        out["z_scores"] = [
            {"intensity": float(m[1]), "z_Q": float(m[2]), "z_EZ": float(m[3])}
            for m in Z_LINE.finditer(stdout.getvalue())
        ]
        with open(spec["output"], encoding="utf-8") as f:
            out["decoy"] = decoy_summary(f.read(), result.config.m_slices,
                                         max(result.config.intensities))
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        tracer.dump(spec["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Timing wrappers installed around pmqkd's public module functions.

The wrappers replace module attributes, so they see exactly the calls
that the program makes through those attributes (``rate.key_rate`` is
looked up as a module global by ``rate.optimize_mu``, ``simcore.sift``
by ``simcore.postcompensate``, and so on).  Names bound with
``from ... import`` elsewhere are not seen; ``detection`` is therefore
only measured as part of ``rate``.

Every span is aggregated in memory per (name, parent name) into a call
count, a total and a self time (total minus the time of its direct
child spans).  Spans of functions that are not marked hot are also kept
individually, with their parent span id, and written out at the end of
the run; hot leaves such as ``key_rate`` run ~10^5 times per sweep and
are only aggregated.
"""
from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # frame: [name, span id, start, time covered by child spans]
        self._stack = [["root", 0, _clock(), 0.0]]
        self._next_id = 1
        self.aggregates: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = {}

    def _enter(self, name: str) -> None:
        self._stack.append([name, self._next_id, _clock(), 0.0])
        self._next_id += 1

    def _exit(self, keep_span: bool) -> None:
        end = _clock()
        name, span_id, start, child_s = self._stack.pop()
        parent = self._stack[-1]
        dur = end - start
        parent[3] += dur
        agg = self.aggregates.get((name, parent[0]))
        if agg is None:
            agg = self.aggregates[(name, parent[0])] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child_s
        if keep_span:
            self.spans.append((span_id, parent[1], name, start, end))

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, module, attr: str, *, hot: bool = False, probe=None, name=None) -> None:
        """Time every call of ``module.attr``; ``probe(args, result)`` runs after it.

        A module or function that does not exist is skipped, so layers a
        later version of the program removes read as zero calls.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return
        name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        keep_span = not hot

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(keep_span)
            if probe is not None:
                probe(self, args, result)
            return result

        setattr(module, attr, traced)

    def wrap_generator(self, module, attr: str) -> None:
        """Time each step of the iterator ``module.attr`` returns.

        A generator function returns before doing any work, so timing
        the call itself would read zero.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(True)
                yield item

        setattr(module, attr, traced)

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total_s, self_s) of ``name`` summed over its parents."""
        calls, total, self_s = 0, 0.0, 0.0
        for (n, _), (c, t, s) in self.aggregates.items():
            if n == name:
                calls += c
                total += t
                self_s += s
        return calls, total, self_s

    def dump(self, path: str) -> None:
        doc = {
            "clock": "time.perf_counter, seconds",
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.aggregates.items())
            ],
            "spans": [
                {"id": i, "parent_id": p, "name": n, "start": a, "end": b}
                for i, p, n, a, b in self.spans
            ],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def _kernel_bytes(tracer: Tracer, args, _result) -> None:
    """Bytes the kernel reads and writes, computed from the array dtypes.

    The first array argument is the (variates, n) block of uniforms; the
    outputs are the other arrays with one entry per round.
    """
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    u = arrays[0]
    n = u.shape[-1]
    tracer.count("kernel.rounds", n)
    tracer.count("kernel.bytes_read", u.nbytes)
    tracer.count("kernel.bytes_written", sum(a.nbytes for a in arrays[1:] if a.shape == (n,)))


def _round_bytes(tracer: Tracer, _args, data) -> None:
    """Bytes per round held by the concatenated round arrays."""
    nbytes = sum(v.nbytes for v in vars(data).values() if isinstance(v, np.ndarray))
    tracer.count("rounds.nbytes", nbytes)
    tracer.count("rounds.count", len(data))


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install(tracer: Tracer) -> None:
    """Wrap the functions whose layers the benchmark reports."""
    from pmqkd import baselines, cli, decoy, rate, simcore

    # the kernel behind the backend switch, or the kernel module alone
    kernel = _module("pmqkd.backend") or _module("pmqkd._mckernel_np")
    tracer.wrap(cli, "main")
    tracer.wrap(cli, "run_sweep")
    tracer.wrap(rate, "optimize_mu")
    tracer.wrap(rate, "key_rate", hot=True)
    tracer.wrap(baselines, "bb84_rate", hot=True)
    tracer.wrap(baselines, "mdi_rate", hot=True)
    tracer.wrap(simcore, "simulate")
    tracer.wrap(simcore, "collect_rounds", probe=_round_bytes)
    tracer.wrap_generator(simcore, "run_blocks")
    tracer.wrap(kernel, "simulate_block", probe=_kernel_bytes, name="backend.simulate_block")
    tracer.wrap(simcore, "postcompensate")
    tracer.wrap(simcore, "sift", hot=True)
    tracer.wrap(decoy, "decoy_estimate")
    tracer.wrap(decoy, "empirical_rate")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values measured inside one run, keyed by metric name."""
    out: dict[str, float] = {}
    for name in ("cli.main", "cli.run_sweep", "rate.optimize_mu", "simcore.run_blocks",
                 "simcore.collect_rounds", "simcore.postcompensate", "simcore.simulate"):
        out[f"{name}.self_s"] = tracer.totals(name)[2]
    for name in ("rate.optimize_mu", "rate.key_rate", "baselines.bb84_rate",
                 "baselines.mdi_rate", "backend.simulate_block", "simcore.postcompensate",
                 "simcore.sift"):
        out[f"{name}.calls"] = tracer.totals(name)[0]
    for name in ("rate.key_rate", "baselines.bb84_rate", "baselines.mdi_rate",
                 "backend.simulate_block", "simcore.sift", "decoy.decoy_estimate",
                 "decoy.empirical_rate"):
        out[f"{name}.s"] = tracer.totals(name)[1]
    calls, total, _ = tracer.totals("rate.key_rate")
    out["rate.key_rate.us_per_call"] = 1e6 * total / calls if calls else 0.0
    c = tracer.counters
    rounds = c.get("kernel.rounds", 0)
    out["kernel.bytes_per_round_computed"] = (
        (c["kernel.bytes_read"] + c["kernel.bytes_written"]) / rounds if rounds else 0.0
    )
    held = c.get("rounds.count", 0)
    out["simcore.round_bytes_per_round"] = c["rounds.nbytes"] / held if held else 0.0
    return out

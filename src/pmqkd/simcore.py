"""Round-level Monte Carlo simulation of the practical protocol.

Generates rounds in fixed-size blocks whose RNG substreams derive from
(seed, block index).  The rounds are made in work units of part of one
RNG block and one jd block (the rounds that share a slice offset),
shared out over one thread per CPU in the process's affinity mask; a
unit's variates and outputs are fixed by its block's substream and its
round positions alone, so the records and the tallies do not depend on
the thread count.  Detection uses the independent-detector coherent
click model; exactly-one-click rounds count as successes and double
clicks are discarded.

A unit leaves only its count of rounds per intensity and one record per
single click.  ``simulate`` takes the units in round order as they are
done and bins each one's records into the open jd block's count per
(intensity, slice difference, raw disagreement), draws their sample
uniforms and then drops them; the offset search, sifting and tallies
read the counts.  So its memory does not grow with the run: at most
two units per worker are made ahead of the one it bins, and each
worker holds one float64 row of its unit's uniforms (1 MB for a
2^17-round unit), one bool mask and temporaries sized by the unit's
candidate rounds.  ``collect_rounds``
keeps every record instead, for ``postcompensate`` and ``sift``, which
work on records.
"""
from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

# Bound here rather than looked up on the module: the kernel runs on
# worker threads, where a wrapper put on the module attribute (a
# single-stack profiler's, say) must not run.
from ._mckernel_np import simulate_block as _simulate_block
from .detection import ChannelParams, _check_intensity
from .rate import _key_rate_terms, _point_terms

# Rounds per RNG block.  Part of the random-stream definition: changing
# it changes which uniforms drive which round.
RNG_BLOCK_ROUNDS = 1 << 18

# Most rounds in a work unit of ``run_blocks``, which also ends one at
# each jd block boundary; not part of the random-stream definition.  A
# worker's kernel holds one float64 row of one unit (1 MB) and a bool
# mask; ``postcompensate`` draws its sample this many clicks at a time.
# The size sets how often the workers hand each other the interpreter
# lock: a unit makes ~100 NumPy calls on its candidates (~7.5 us each
# on a 2^16-round unit's ~3,000 alone, 10-12 us beside another worker's
# calls), and the workers pass the lock around them.  On a 2-core host (8M
# seed-42 rounds, two workers), 2^17 against 2^16 took a ``simulate``
# run from ~1,790 voluntary context switches to ~590 on ``mc_fixed``
# (~1,920 to ~860 on ``mc_drift``) and its CPU down by 7%; in ten
# alternating benchmark pairs it won 9/10 on ``mc_fixed`` (46.0 -> 51.3
# M rounds/s scaled, 34.2 -> 36.1 as measured) and 10/10 on
# ``mc_drift`` (49.1 -> 64.8 scaled, 33.4 -> 39.4), for 1.6 MB more
# peak RSS (40.9 -> 42.5 MB).  A 2^17 unit run as two 2^16 kernel calls
# loses the gain.  All of these were measured while OpenBLAS's idle
# helper thread spun on the second core after NumPy loaded.  The CLI
# now starts NumPy without it (``OPENBLAS_NUM_THREADS=1``), so the size
# is worth measuring again.
_UNIT_ROUNDS = 1 << 17

try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _WORKERS = os.cpu_count() or 1

_ROUND_STREAM = 0
_SAMPLE_STREAM = 1

MIN_SAMPLED_CLICKS = 100

# Nothing is allocated per round or per click in ``simulate``, so no
# allocation failure stops an oversized run: this bound does.  Only the
# work-unit list grows with the rounds, one tuple per unit (2^15 of them
# at the bound); ``collect_rounds`` keeps 5 B a click on top.
MAX_ROUNDS = 1 << 32

# The slice difference is int16 and M is even.
MAX_M_SLICES = 32766
# The intensity index is int16, so it holds at most 2^15 intensities.
MAX_INTENSITIES = 1 << 15
# ``simulate`` counts a jd block's clicks per (intensity, slice
# difference, raw disagreement) in int64: at most 32 MB.
MAX_HISTOGRAM_CELLS = 1 << 21


class InsufficientSamplesError(ValueError):
    """Too few sampled clicked rounds to search the slice offset."""


@dataclass(frozen=True)
class Phi0Model:
    """Reference deviation phi_0: fixed, or drifting linearly per round."""

    kind: str = "fixed"  # "fixed" | "slow_drift"
    value_rad: float = 0.0
    rate_rad_per_round: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed", "slow_drift"):
            raise ValueError(f"phi0 kind must be 'fixed' or 'slow_drift', got {self.kind!r}")
        if self.kind == "fixed" and self.rate_rad_per_round != 0.0:
            raise ValueError(
                f"fixed phi0 cannot have a drift rate, got {self.rate_rad_per_round!r}"
            )
        for name in ("value_rad", "rate_rad_per_round"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"phi0 {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    rounds: int
    seed: int
    m_slices: int
    intensities: tuple[float, ...]
    channel: ChannelParams
    sample_fraction: float = 0.1
    phi0: Phi0Model = field(default_factory=Phi0Model)
    jd_block_rounds: int | None = None  # None: one offset for the whole run

    def __post_init__(self):
        # a float or bool count passes the range checks below, then fails inside the run
        for name in ("rounds", "seed", "m_slices", "jd_block_rounds"):
            value = getattr(self, name)
            if value is None and name == "jd_block_rounds":
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (1 <= self.rounds <= MAX_ROUNDS):
            raise ValueError(f"rounds must be in [1, {MAX_ROUNDS}], got {self.rounds!r}")
        if not (0 <= self.seed < 2**63):
            raise ValueError(f"seed must be a nonnegative 63-bit integer, got {self.seed!r}")
        if not (2 <= self.m_slices <= MAX_M_SLICES) or self.m_slices % 2 != 0:
            raise ValueError(
                f"m_slices must be an even integer in [2, {MAX_M_SLICES}], got {self.m_slices!r}"
            )
        if len(self.intensities) == 0:
            raise ValueError("intensities must be nonempty")
        if len(self.intensities) > MAX_INTENSITIES:
            raise ValueError(
                f"intensities must hold at most {MAX_INTENSITIES} values, "
                f"got {len(self.intensities)}"
            )
        if len(set(self.intensities)) != len(self.intensities):
            raise ValueError("intensities must be distinct")
        for i, mu in enumerate(self.intensities):
            _check_intensity(f"intensities[{i}]", mu)
        if not (0.0 < self.sample_fraction < 1.0):
            raise ValueError(f"sample_fraction must be in (0, 1), got {self.sample_fraction!r}")
        # a sampled click is a round of the block, so a shorter block always
        # fails the offset search; a block makes at least one work unit
        if self.jd_block_rounds is not None and self.jd_block_rounds < MIN_SAMPLED_CLICKS:
            raise ValueError(
                f"jd_block_rounds must be >= {MIN_SAMPLED_CLICKS}, got {self.jd_block_rounds!r}"
            )
        # phi0 reaches |value_rad| + |rate_rad_per_round| * rounds; past the
        # largest float the kernel's phase difference would be inf or nan
        rate = self.phi0.rate_rad_per_round
        if rate and not math.isfinite(abs(self.phi0.value_rad) + abs(rate) * self.rounds):
            raise ValueError(
                f"phi0.rate_rad_per_round must keep phi0 finite over {self.rounds} rounds,"
                f" got {rate!r}"
            )
        cells = len(self.intensities) * self.m_slices
        if cells > MAX_HISTOGRAM_CELLS:
            raise ValueError(
                f"intensities times m_slices must be at most {MAX_HISTOGRAM_CELLS}, got {cells!r}"
            )

    # -- JSON round trip ----------------------------------------------------

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SimConfig":
        """Parse a config document whose keys are the field names.

        An absent key takes the field's default; the fields without one
        are required.  ``channel`` is ``{eta_arm, p_d}`` or ``{distance_km,
        eta_d, p_d, alpha_db_per_km?}``, never a mix.  Unknown keys,
        mistyped values and non-finite numbers raise ValueError naming the
        key.
        """
        schema = _schema(
            cls,
            **dict.fromkeys(("rounds", "seed", "m_slices"), _json_integer),
            intensities=_json_numbers,
            channel=_json_channel,
            phi0=_json_phi0,
            jd_block_rounds=lambda v, name: None if v is None else _json_integer(v, name),
        )
        return cls(**_json_fields(doc, "config", *schema))

    @classmethod
    def from_json_file(cls, path) -> "SimConfig":
        return cls.from_json_dict(_read_json(path))


def _read_json(path):
    """The JSON document in the file ``path``.

    Malformed text, or nesting too deep for the parser, raises a
    one-line ValueError naming the file.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path} is not a readable JSON document: {exc}") from None


def _json_fields(doc, name: str, parsers: dict, required) -> dict:
    """The keys of the JSON object ``doc``, each value through its parser.

    A non-object, a key not in ``parsers`` or a missing ``required`` key
    raises ValueError naming ``name``.  A parser gets the value and the
    name to report: ``key`` in the top-level ``config``, else ``name.key``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc).difference(parsers))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {name}")
    for key in required:
        if key not in doc:
            raise ValueError(f"missing key {key!r} in {name}")
    return {
        key: parsers[key](value, key if name == "config" else f"{name}.{key}")
        for key, value in doc.items()
    }


def _schema(make, **parsers) -> tuple[dict, list]:
    """``_json_fields``' parsers and required keys for the parameters of ``make``:
    a number unless ``parsers`` gives another, required when it has no default."""
    params = inspect.signature(make).parameters.values()
    return (
        {**dict.fromkeys((p.name for p in params), _json_number), **parsers},
        [p.name for p in params if p.default is p.empty],
    )


def _json_number(value, name: str) -> float:
    """A finite JSON number as a float; booleans, null and strings are rejected."""
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
    ):
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _json_integer(value, name: str) -> int:
    """A JSON integer; an integral float such as 1e6 is accepted."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _json_numbers(value, name: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_json_number(v, f"{name}[{i}]") for i, v in enumerate(value))


def _json_channel(value, name: str) -> ChannelParams:
    """``{eta_arm, p_d}``, or the fiber form read by ``ChannelParams.from_distance``."""
    arm_form = isinstance(value, dict) and "eta_arm" in value
    make = ChannelParams if arm_form else ChannelParams.from_distance
    return make(**_json_fields(value, name, *_schema(make)))


def _json_phi0(value, name: str) -> Phi0Model:
    # the kind goes in as given: Phi0Model names a bad one
    return Phi0Model(**_json_fields(value, name, *_schema(Phi0Model, kind=lambda v, _: v)))


@dataclass
class RoundData:
    """Struct-of-arrays single-click records, one per round with exactly
    one click: all that sifting, the offset search and the tallies read."""

    mu_idx: np.ndarray  # int16, index into the config intensities
    d0: np.ndarray  # int16, the slice difference (j_b - j_a) mod M
    e0: np.ndarray  # int8, the raw disagreement kappa_a ^ kappa_b ^ [R click]

    def __len__(self) -> int:
        return len(self.mu_idx)

    def take(self, index) -> "RoundData":
        return RoundData(self.mu_idx[index], self.d0[index], self.e0[index])


@dataclass
class RunClicks(RoundData):
    """The single-click records of a run, in round order, with the emitted
    rounds of each jd block.

    Jd block ``b``'s records are ``stops[b - 1]:stops[b]`` (from 0 for
    ``b = 0``); ``len()`` counts the records.
    """

    emitted: np.ndarray  # int64 (jd blocks, intensities): rounds per intensity
    stops: np.ndarray  # int64 (jd blocks,): the end of each jd block's records


def _stream_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator of block ``index`` of ``stream`` (``_ROUND_STREAM`` or ``_SAMPLE_STREAM``)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream, index])))


def _jd_rounds(cfg: SimConfig) -> int:
    """Rounds per jd block: the run is cut into blocks of this many, the last one shorter."""
    return cfg.jd_block_rounds or cfg.rounds


def _round_units(cfg: SimConfig) -> list[tuple[int, int, int, int, int, int]]:
    """The work units of the run, in round order.

    Each unit is ``(jd block, RNG block index, block start, block rounds,
    a, b)``: rounds ``[a, b)`` of one RNG block, at most ``_UNIT_ROUNDS``
    of them, all in one jd block.  A unit starts at each multiple of
    ``_UNIT_ROUNDS`` within an RNG block and at each jd block boundary.
    """
    chunk = _jd_rounds(cfg)
    units = []
    for block_index, start in enumerate(range(0, cfg.rounds, RNG_BLOCK_ROUNDS)):
        n = min(RNG_BLOCK_ROUNDS, cfg.rounds - start)
        cuts = sorted({*range(0, n, _UNIT_ROUNDS), *range(-start % chunk, n, chunk)})
        units += [((start + a) // chunk, block_index, start, n, a, b)
                  for a, b in zip(cuts, cuts[1:] + [n])]
    return units


def _run_units(run_unit, count: int) -> Iterator:
    """Yield ``run_unit(i)`` for units ``i = 0 .. count - 1``, in order,
    each as soon as it is done, from ``min(_WORKERS, count)`` workers.

    The calling thread is one worker and every other one runs on a
    thread of its own.  A worker runs the lowest unit not yet taken, so
    a worker whose CPU is busier runs fewer units; the calling thread
    runs one only while the next result is not done.  Unit ``i`` does
    not start until unit ``i - 2 * workers`` has been yielded, and a
    result is dropped here once it is yielded, so at most that many are
    held.  Once a unit fails, or the caller stops iterating, no unit is
    started; every thread is joined before the failure of the lowest
    unit is raised.
    """
    workers = min(_WORKERS, count)
    done = threading.Condition()
    taken = yielded = 0
    stopped = False
    results = {}
    failed = {}  # unit index -> exception

    def take():
        """Under ``done``: the lowest unit not yet taken, if it may start now."""
        nonlocal taken
        if stopped or failed or taken == count or taken >= yielded + 2 * workers:
            return None
        taken += 1
        return taken - 1

    def run(i):
        try:
            result = run_unit(i)
        except BaseException as exc:  # raised by the calling thread
            with done:
                failed[i] = exc
                done.notify_all()
        else:
            with done:
                results[i] = result
                done.notify_all()

    def work():
        while True:
            with done:
                while (i := take()) is None:
                    if stopped or failed or taken == count:
                        return
                    done.wait()
            run(i)

    threads = [threading.Thread(target=work) for _ in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        while yielded < count:
            with done:
                if failed:
                    break
                ready = yielded in results
                if ready:
                    yielded += 1
                    done.notify_all()
                elif (i := take()) is None:
                    done.wait()
                    continue
            if ready:
                yield results.pop(yielded - 1)
            else:
                run(i)
    finally:
        with done:
            stopped = True
            done.notify_all()
        for thread in threads:
            thread.join()
    if failed:
        raise failed[min(failed)]


def run_blocks(cfg: SimConfig) -> Iterator[tuple[int, np.ndarray, RoundData]]:
    """Yield each work unit's jd block, emitted counts per intensity and
    single-click records, in round order, as soon as the unit is done;
    all three are fixed by (seed, config).

    The run is cut into units of at most ``_UNIT_ROUNDS`` rounds of one
    RNG block and one jd block (``_round_units``), which ``_run_units``
    shares out over one thread per CPU in the process's affinity mask;
    no worker waits for a block to finish before it starts on the next,
    but none runs more than two units per worker ahead of the last one
    yielded.  A unit makes its own generator, so every worker calls the
    one ``run_unit``, which holds no state between units.
    Unit ``[a, b)`` of an ``n``-round block reads columns
    ``a:b`` of the block's ``(7, n)`` uniforms: row ``r`` is doubles
    ``[r*n + a, r*n + b)`` of the block's stream.  PCG64 makes each
    double from one 64-bit output, so these are the doubles of one
    ``random((7, n))`` call, and the rounds do not depend on the unit
    size or the thread count.  The kernel asks for the rows one at a
    time and not in stream order; each is drawn after moving the unit's
    generator to its first double, forward or back (``advance`` counts
    modulo PCG64's period of 2^128).  A worker keeps only what the
    kernel returns.
    """
    units = _round_units(cfg)
    intensities = np.asarray(cfg.intensities, dtype=np.float64)

    def run_unit(i):
        jd_block, block_index, start, n, a, b = units[i]
        rng = _stream_rng(cfg.seed, _ROUND_STREAM, block_index)
        pos = 0  # the generator's place in the block's stream, in doubles

        def draw(r, out):
            nonlocal pos
            rng.bit_generator.advance((r * n + a - pos) % 2**128)
            rng.random(out=out)
            pos = r * n + b

        emitted, records = _simulate_block(
            draw,
            b - a,
            cfg.channel.eta_arm,
            cfg.channel.p_d,
            intensities,
            cfg.m_slices,
            cfg.phi0.value_rad,
            cfg.phi0.rate_rad_per_round,
            start + a,
        )
        return jd_block, emitted, RoundData(*records)

    yield from _run_units(run_unit, len(units))


def collect_rounds(cfg: SimConfig) -> RunClicks:
    """The run's single-click records and emitted counts, the units' records
    concatenated once, in round order, so each jd block's are contiguous."""
    jd_blocks = len(range(0, cfg.rounds, _jd_rounds(cfg)))
    emitted = np.zeros((jd_blocks, len(cfg.intensities)), dtype=np.int64)
    stops = np.zeros(jd_blocks, dtype=np.int64)
    parts = []
    for jd_block, unit_emitted, records in run_blocks(cfg):
        emitted[jd_block] += unit_emitted
        stops[jd_block] += len(records)
        parts.append(records)
    np.cumsum(stops, out=stops)
    columns = [np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(RoundData)]
    return RunClicks(*columns, emitted=emitted, stops=stops)


# ---------------------------------------------------------------------------
# sifting and phase postcompensation
# ---------------------------------------------------------------------------


def sift(data: RoundData, j_d: int, m_slices: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep the single clicks whose compensated slices match.

    A round survives when (d0 + j_d) mod M, that is (j_b + j_d - j_a)
    mod M, is 0 or M/2; Bob flips his bit on an R click, which ``e0``
    holds, and again in the M/2 case.  Returns the kept positions in
    ``data`` and, per kept round, whether Bob's flipped bit differs
    from Alice's.
    """
    dmod = data.d0.astype(np.int32)
    dmod += j_d
    dmod %= m_slices
    keep = dmod == 0
    keep |= dmod == m_slices // 2
    idx = np.flatnonzero(keep)
    # a kept dmod is 0 or M/2, so the half-turn flip is dmod != 0
    errors = (data.e0[idx] != 0) ^ (dmod[idx] != 0)
    return idx, errors


@dataclass
class PostcompResult:
    j_d_opt: int
    qber_table: np.ndarray  # sampled QBER per candidate offset, NaN if unsampled
    sampled_clicks: int


def _add_sample(counts: np.ndarray, clicks: RoundData, sample_fraction: float,
                rng: np.random.Generator) -> int:
    """Draw one uniform per click of ``clicks``, in order, and add the
    clicks it picks to ``counts``, the intp count per bin ``2 * d0 + e0``;
    returns how many it picked."""
    picked = np.flatnonzero(rng.random(len(clicks)) < sample_fraction)
    counts += np.bincount(2 * clicks.d0[picked].astype(np.intp) + clicks.e0[picked],
                          minlength=len(counts))
    return len(picked)


def _sifted(counts: np.ndarray, j_d):
    """The clicks that offset ``j_d`` (one, or an array) keeps and the
    errors among them, from ``counts`` per (..., d0, e0), as ``sift`` keeps
    them: d0 = -j_d, where an error is e0 = 1, and d0 = M/2 - j_d (mod M),
    where Bob's half-turn flip makes it e0 = 0."""
    m = counts.shape[-2]
    matched = counts[..., -j_d % m, :]
    flipped = counts[..., (-j_d + m // 2) % m, :]
    return matched.sum(axis=-1) + flipped.sum(axis=-1), matched[..., 1] + flipped[..., 0]


def _offset_table(counts: np.ndarray, sampled: int) -> tuple[int, np.ndarray]:
    """The offset minimizing the sampled QBER (smallest index on ties) and
    the table of every offset's, from the sample's count per bin
    ``2 * d0 + e0``.  An offset that keeps no sampled click reads NaN;
    fewer than ``MIN_SAMPLED_CLICKS`` raise InsufficientSamplesError."""
    if sampled < MIN_SAMPLED_CLICKS:
        raise InsufficientSamplesError(
            f"only {sampled} sampled clicked rounds; need >= {MIN_SAMPLED_CLICKS}"
        )
    kept, wrong = _sifted(counts.reshape(-1, 2), np.arange(len(counts) // 2))
    table = np.divide(wrong, kept, out=np.full(len(kept), np.nan), where=kept > 0)
    return int(np.nanargmin(table)), table


def postcompensate(
    clicks: RoundData,
    sample_fraction: float,
    rng: np.random.Generator,
    m_slices: int,
) -> PostcompResult:
    """Search the slice offset minimizing the sampled QBER.

    ``clicks`` are single-click records in round order.  Draws the
    announced test sample from them, one uniform each, with a dedicated
    generator, evaluates the sampled QBER for every offset, and returns
    the minimizer (smallest index on ties) with the table.

    The table is read from one count of the sample per (d0, e0)
    (``_offset_table``).  The uniforms are drawn, and the counts added
    up, ``_UNIT_ROUNDS`` clicks at a time: the same doubles in the same
    order as one draw for every click.
    """
    counts = np.zeros(2 * m_slices, dtype=np.intp)
    sampled = 0
    for lo in range(0, len(clicks), _UNIT_ROUNDS):
        sampled += _add_sample(counts, clicks.take(slice(lo, lo + _UNIT_ROUNDS)),
                               sample_fraction, rng)
    j_d_opt, table = _offset_table(counts, sampled)
    return PostcompResult(j_d_opt=j_d_opt, qber_table=table, sampled_clicks=sampled)


# ---------------------------------------------------------------------------
# tallies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tally:
    """Per-intensity counters and the derived estimates."""

    intensity: float
    emitted: int
    clicked_single: int
    sifted: int
    errors: int

    @property
    def q_hat(self) -> float:
        return self.clicked_single / self.emitted if self.emitted else 0.0

    @property
    def q_se(self) -> float:
        return _binomial_se(self.q_hat, self.emitted, 0.0)

    @property
    def ez_hat(self) -> float:
        return self.errors / self.sifted if self.sifted else 0.0

    @property
    def ez_se(self) -> float:
        return _binomial_se(self.ez_hat, self.sifted, 0.0)


def _binomial_se(p: float, n: int, default: float) -> float:
    """The standard error sqrt(p (1 - p) / n) of a proportion ``p`` of
    ``n`` trials; ``default`` when there are no trials."""
    return math.sqrt(p * (1.0 - p) / n) if n else default


@dataclass
class SimResult:
    config: SimConfig
    tallies: list[Tally]
    block_offsets: list[tuple[int, int, int]]  # (start, stop, j_d)


def simulate(cfg: SimConfig) -> SimResult:
    """Run the full pipeline: rounds, offset search, sifting, tallies.

    Every round of a jd block counts as emitted.  Each unit's single-click
    records are binned, as they arrive in round order, into the block's
    count per (intensity, d0, e0), and the sample's uniforms are drawn
    from the block's sample stream, one per click in click order, as
    ``postcompensate`` draws them.  When the block closes, the sample's
    count gives the offset, and ``_sifted`` reads the sifted rounds and
    errors per intensity from the block's count.  A jd block with too few
    sampled clicks raises InsufficientSamplesError naming the block.
    """
    chunk = _jd_rounds(cfg)
    k, m = len(cfg.intensities), cfg.m_slices
    emitted, clicked, sifted, errors = np.zeros((4, k), dtype=np.int64)
    block_offsets = []
    with contextlib.closing(run_blocks(cfg)) as units:
        for bi, block in itertools.groupby(units, key=lambda unit: unit[0]):
            start, stop = bi * chunk, min((bi + 1) * chunk, cfg.rounds)
            counts = np.zeros((k, m, 2), dtype=np.int64)
            sample = np.zeros(2 * m, dtype=np.intp)
            sampled = 0
            rng = _stream_rng(cfg.seed, _SAMPLE_STREAM, bi)
            for _, unit_emitted, records in block:
                emitted += unit_emitted
                cells = np.ravel_multi_index((records.mu_idx, records.d0, records.e0), (k, m, 2))
                np.add.at(counts.reshape(-1), cells, 1)  # add.at is fastest on a flat index
                sampled += _add_sample(sample, records, cfg.sample_fraction, rng)
            try:
                j_d, _ = _offset_table(sample, sampled)
            except InsufficientSamplesError as exc:
                raise InsufficientSamplesError(f"jd block [{start}, {stop}): {exc}") from None
            kept, wrong = _sifted(counts, j_d)
            clicked += counts.sum(axis=(1, 2))
            sifted += kept
            errors += wrong
            block_offsets.append((start, stop, j_d))

    tallies = [
        Tally(
            intensity=cfg.intensities[i],
            emitted=int(emitted[i]),
            clicked_single=int(clicked[i]),
            sifted=int(sifted[i]),
            errors=int(errors[i]),
        )
        for i in range(k)
    ]
    return SimResult(config=cfg, tallies=tallies, block_offsets=block_offsets)


def tallies_to_csv(tallies: list[Tally]) -> str:
    """Fixed-order CSV with 17-significant-digit floats."""
    lines = ["intensity,emitted,clicked,sifted,errors,Q_hat,Q_se,EZ_hat,EZ_se"]
    for t in tallies:
        lines.append(
            f"{t.intensity:.17g},{t.emitted},{t.clicked_single},{t.sifted},{t.errors},"
            f"{t.q_hat:.17g},{t.q_se:.17g},{t.ez_hat:.17g},{t.ez_se:.17g}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# comparison against the analytic model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelComparison:
    intensity: float
    q_hat: float
    q_model: float
    z_q: float
    ez_hat: float
    ez_model: float
    z_ez: float

    @property
    def consistent(self) -> bool:
        return abs(self.z_q) < 4.0 and abs(self.z_ez) < 4.0


def _z_score(observed: float, model: float, se: float) -> float:
    """(observed - model) / se; with a zero-variance model, 0 on a match and inf otherwise."""
    if se > 0:
        return (observed - model) / se
    return 0.0 if observed == model else math.inf


def compare_to_model(result: SimResult) -> list[ModelComparison]:
    """Score-test z values of the tallies against the analytic formulas.

    The model is ``key_rate``'s ``gain_Q`` and ``qber_Z``, which differ
    from what the tallies count in the two ways ``RateBreakdown`` names:
    the Monte Carlo drops double clicks, and its E_Z follows the slice
    factor, not the closed-form e_delta.  Standard errors use the model
    probabilities, which keeps the test defined when the observed error
    count is zero.
    """
    cfg = result.config
    eta, pd = cfg.channel.eta_arm, cfg.channel.p_d
    mus = np.array([t.intensity for t in result.tallies])
    # f_ec = 1 only feeds the rate, which is not read
    q, ez = _key_rate_terms(mus, pd, eta, cfg.m_slices, 1.0, "truncated",
                            *_point_terms(pd, eta, cfg.m_slices), q_odd=False)[:2]
    rows = []
    for t, q_model, ez_model in zip(result.tallies, q.tolist(), ez.tolist()):
        q_se = _binomial_se(q_model, t.emitted, math.inf)
        ez_se = _binomial_se(ez_model, t.sifted, math.inf)
        rows.append(
            ModelComparison(
                intensity=t.intensity,
                q_hat=t.q_hat,
                q_model=q_model,
                z_q=_z_score(t.q_hat, q_model, q_se),
                ez_hat=t.ez_hat,
                ez_model=ez_model,
                z_ez=_z_score(t.ez_hat, ez_model, ez_se),
            )
        )
    return rows

import dataclasses
import json
import math
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pmqkd import rate, simcore
from pmqkd.detection import ChannelParams
from pmqkd.simcore import (
    MAX_HISTOGRAM_CELLS,
    MAX_INTENSITIES,
    MAX_M_SLICES,
    MIN_SAMPLED_CLICKS,
    InsufficientSamplesError,
    Phi0Model,
    RoundData,
    SimConfig,
    collect_rounds,
    compare_to_model,
    postcompensate,
    sift,
    simulate,
    tallies_to_csv,
)
from oracles import Outcome, postcompensate_one_shot
from test_mckernel import (
    SINGLE_CLICKS,
    Rounds,
    assert_same_records,
    full_rounds,
    jd_blocks,
    run_kernel,
    simulate_memory_bound,
    single_clicks,
    slow_drift_config,
    traced_peak,
)

PI = math.pi


def base_config(**overrides):
    defaults = dict(
        rounds=100_000,
        seed=7,
        m_slices=16,
        intensities=(0.5,),
        channel=ChannelParams(eta_arm=0.1, p_d=0.0),
        sample_fraction=0.2,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def config_doc(cfg: SimConfig) -> dict:
    """The JSON document that ``SimConfig.from_json_dict`` reads back as ``cfg``."""
    return dict(dataclasses.asdict(cfg), intensities=list(cfg.intensities))


# --- determinism ---------------------------------------------------------------


def test_identical_seeds_identical_streams():
    cfg = base_config(rounds=5_000)
    a = collect_rounds(cfg)
    b = collect_rounds(cfg)
    for name, values in vars(a).items():
        assert np.array_equal(values, getattr(b, name)), name


def test_csv_byte_identical_across_runs():
    cfg = base_config(rounds=50_000)
    csv1 = tallies_to_csv(simulate(cfg).tallies)
    csv2 = tallies_to_csv(simulate(cfg).tallies)
    assert csv1 == csv2


def test_block_partition_invariant(monkeypatch):
    # the records and counts must not depend on how the rounds are grouped
    # into work units, which is what makes the threaded fill equivalent to
    # one serial pass
    for jd_block_rounds, jd_cuts in ((None, 0), (100_001, 2)):
        cfg = base_config(rounds=simcore.RNG_BLOCK_ROUNDS + 1234, jd_block_rounds=jd_block_rounds)
        chunk = jd_block_rounds or cfg.rounds
        units = simcore._round_units(cfg)
        # a unit starts at each multiple of _UNIT_ROUNDS in an RNG block and at each jd boundary
        assert len(units) == simcore.RNG_BLOCK_ROUNDS // simcore._UNIT_ROUNDS + 1 + jd_cuts
        # the units tile the run in order, each inside one RNG block and one jd block
        stop = 0
        for jd, block_index, start, n, a, b in units:
            assert start + a == stop
            assert start == block_index * simcore.RNG_BLOCK_ROUNDS
            assert n == min(simcore.RNG_BLOCK_ROUNDS, cfg.rounds - start)
            assert 0 <= a < b <= n and b - a <= simcore._UNIT_ROUNDS
            assert jd == (start + a) // chunk == (start + b - 1) // chunk
            stop = start + b
        assert stop == cfg.rounds
        yielded = list(simcore.run_blocks(cfg))
        assert [jd for jd, _, _ in yielded] == [unit[0] for unit in units]
        data = simcore.collect_rounds(cfg)
        assert len(data) == sum(len(records) for _, _, records in yielded)
        with monkeypatch.context() as patch:
            patch.setattr(simcore, "_UNIT_ROUNDS", 1000)
            assert len(simcore._round_units(cfg)) == 263 + 2 + jd_cuts
            other = simcore.collect_rounds(cfg)
        for name, values in vars(data).items():
            assert values.tobytes() == getattr(other, name).tobytes(), name


# --- physics of the round stream --------------------------------------------------


def test_no_light_no_dark_never_clicks():
    cfg = base_config(rounds=20_000, intensities=(0.0,), channel=ChannelParams(eta_arm=0.3, p_d=0.0))
    data = collect_rounds(cfg)
    assert len(data) == 0 and data.emitted.sum() == cfg.rounds


def test_click_rate_matches_gain():
    cfg = base_config(rounds=1_000_000, channel=ChannelParams(eta_arm=0.1, p_d=0.0), seed=11)
    data = collect_rounds(cfg)
    q = 1 - math.exp(-0.05)
    p_hat = len(data) / cfg.rounds
    se = math.sqrt(q * (1 - q) / cfg.rounds)
    assert abs(p_hat - q) < 4 * se


def test_sifted_fraction_two_over_m():
    cfg = base_config(rounds=1_000_000, seed=13)
    res = simulate(cfg)
    t = res.tallies[0]
    frac = t.sifted / t.clicked_single
    expect = 2 / cfg.m_slices
    se = math.sqrt(expect * (1 - expect) / t.clicked_single)
    assert abs(frac - expect) < 4 * se


def test_slice_indices_round_the_phases():
    for m in (2, 16, 30, MAX_M_SLICES):
        cfg = base_config(rounds=20_000, m_slices=m)
        data = collect_rounds(cfg)
        # the phases are rows 2 and 3 of the round stream's uniforms, times
        # 2*pi; the oracle's outcomes say which rounds have a record
        u = simcore._stream_rng(cfg.seed, simcore._ROUND_STREAM, 0).random((7, cfg.rounds))
        single = np.isin(full_rounds(cfg).outcome, SINGLE_CLICKS)
        assert len(data) == np.count_nonzero(single) > 0
        j_a, j_b = (np.floor(phi[single] * m / (2 * PI) + 0.5).astype(np.int64) % m
                    for phi in (u[2] * (2 * PI), u[3] * (2 * PI)))
        assert np.array_equal(data.d0, (j_b - j_a) % m)


# --- sifting rules ------------------------------------------------------------------


def _record(d0, e0):
    return RoundData(
        mu_idx=np.zeros(1, dtype=np.int16),
        d0=np.array([d0], dtype=np.int16),
        e0=np.array([e0], dtype=np.int8),
    )


def _kernel_records(u_left, u_right):
    """The kernel's records of rounds with equal key bits (1) and phases (0),
    with the given detector draws: a draw of 0 clicks (p_d = 0.5), 1 never."""
    u = np.zeros((7, len(u_left)))
    u[5], u[6] = u_left, u_right
    return run_kernel(u, 0.1, 0.5, np.asarray((0.1,)), 16, 0.0, 0.0, 0)[1]


def test_sift_matched_slices_agreement():
    kept, errors = sift(_record(0, 0), 0, 16)
    assert kept.tolist() == [0]
    assert errors.tolist() == [False]


def test_sift_half_turn_flip():
    data = _record(8, 0)  # j_b - j_a = M/2
    kept, errors = sift(data, 0, 16)
    assert kept.tolist() == [0]
    assert errors.tolist() == [True]  # flip makes the bits disagree here


def test_sift_right_click_flip():
    # the kernel puts Bob's R-click flip into e0: on equal key bits and
    # matched slices an R click is an error, an L click is not
    data = _kernel_records(u_left=(1.0, 0.0), u_right=(0.0, 1.0))
    assert data.e0.tolist() == [1, 0]
    kept, errors = sift(data, 0, 16)
    assert kept.tolist() == [0, 1]
    assert errors.tolist() == [True, False]


def test_sift_drops_unmatched_and_nonsingle():
    assert len(sift(_record(2, 0), 0, 16)[0]) == 0
    # a round with no click or with two has no record to sift
    data = _kernel_records(u_left=(1.0, 0.0), u_right=(1.0, 0.0))
    assert len(data) == len(sift(data, 0, 16)[0]) == 0


def test_sift_offset_compensates():
    data = _record(14, 0)  # j_a = 5, j_b = 3
    assert len(sift(data, 2, 16)[0]) == 1
    assert len(sift(data, 1, 16)[0]) == 0


def sift_over_all_rounds(data, j_d, m):
    # the rule evaluated on every round, then restricted to the single clicks
    single = np.isin(data.outcome, SINGLE_CLICKS)
    dmod = (data.j_b.astype(np.int32) + j_d - data.j_a.astype(np.int32)) % m
    keep = single & ((dmod == 0) | (dmod == m // 2))
    idx = np.nonzero(keep)[0]
    bob = (
        data.kappa_b[idx].astype(np.int8)
        ^ (data.outcome[idx] == Outcome.RIGHT).astype(np.int8)
        ^ (dmod[idx] == m // 2).astype(np.int8)
    )
    return idx, data.kappa_a[idx] != bob


def sift_over_single_clicks(data, j_d, m):
    # the rule evaluated on the gathered single-click rounds only
    single = np.flatnonzero(np.isin(data.outcome, SINGLE_CLICKS))
    dmod = (data.j_b[single].astype(np.int32) + j_d - data.j_a[single].astype(np.int32)) % m
    half = m // 2
    keep = (dmod == 0) | (dmod == half)
    idx = single[keep]
    bob = (
        data.kappa_b[idx].astype(np.int8)
        ^ (data.outcome[idx] == Outcome.RIGHT).astype(np.int8)
        ^ (dmod[keep] == half).astype(np.int8)
    )
    return idx, data.kappa_a[idx] != bob


@pytest.mark.parametrize("m", [2, 16, 32766])
def test_sift_equals_the_all_rounds_rule(m):
    # sift on the records of random rounds keeps, of the single clicks,
    # the rounds the rule on every round keeps, with the same errors
    rng = np.random.default_rng(m)
    n = 20_000
    rounds = Rounds(
        kappa_a=rng.integers(0, 2, n).astype(np.int8),
        kappa_b=rng.integers(0, 2, n).astype(np.int8),
        mu_idx=rng.integers(0, 3, n).astype(np.int16),
        j_a=rng.integers(0, m, n).astype(np.int16),
        j_b=rng.integers(0, min(m, 4), n).astype(np.int16),  # many matches even at large M
        outcome=rng.integers(0, 4, n).astype(np.int8),
    )
    single = np.flatnonzero(np.isin(rounds.outcome, SINGLE_CLICKS))
    data = single_clicks(rounds, m)
    for j_d in sorted({0, 1, m // 2, m - 1}):
        kept, errors = sift(data, j_d, m)
        assert errors.dtype == np.bool_
        for oracle in (sift_over_all_rounds, sift_over_single_clicks):
            want_kept, want_errors = oracle(rounds, j_d, m)
            assert np.array_equal(single[kept], want_kept)
            assert errors.dtype == want_errors.dtype and np.array_equal(errors, want_errors)


def partition_config(extra):
    # four intensities, a vacuum one among them, over two RNG blocks and
    # jd blocks that cut units off the _UNIT_ROUNDS grid
    return base_config(rounds=2 * simcore.RNG_BLOCK_ROUNDS + extra, seed=5,
                       intensities=(0.0, 0.1, 0.3, 0.5), jd_block_rounds=100_003,
                       channel=ChannelParams(eta_arm=0.1, p_d=7.2e-8))


@pytest.mark.parametrize("extra", [-1, 0, 1, 12345])
def test_bincount_in_slices_equals_one_bincount(extra):
    # the emitted counts are counted per work unit, without a bincount;
    # per jd block they equal one bincount of the oracle's intensity indices
    cfg = partition_config(extra)
    data = collect_rounds(cfg)
    full = full_rounds(cfg)
    assert data.emitted.dtype == np.int64
    for b, start in enumerate(range(0, cfg.rounds, cfg.jd_block_rounds)):
        mu_idx = full.mu_idx[start:start + cfg.jd_block_rounds]
        assert np.array_equal(data.emitted[b], np.bincount(mu_idx, minlength=4))


@pytest.mark.parametrize("extra", [-1, 0, 1, 12345])
def test_single_clicks_in_slices_equals_one_scan(extra):
    # the records are found per work unit; together they are one scan of
    # the oracle's outcomes for the single clicks
    cfg = partition_config(extra)
    data = collect_rounds(cfg)
    assert data.stops.dtype == np.int64 and data.stops[-1] == len(data)
    assert_same_records(data, single_clicks(full_rounds(cfg), cfg.m_slices))


# --- postcompensation ----------------------------------------------------------------


def test_postcompensation_aligned_references():
    cfg = base_config(rounds=200_000, seed=5)
    res = simulate(cfg)
    assert res.block_offsets[0][2] == 0


@pytest.mark.parametrize("seed", [1, 2, 3, 42, 123])
def test_postcompensation_seventy_degrees(seed):
    cfg = base_config(
        rounds=200_000,
        seed=seed,
        m_slices=12,
        phi0=Phi0Model("fixed", math.radians(70.0)),
        channel=ChannelParams(eta_arm=0.1, p_d=7.2e-8),
    )
    res = simulate(cfg)
    assert res.block_offsets[0][2] == 2


def test_half_turn_offset_inverts_qber():
    cfg = base_config(rounds=400_000, seed=21, channel=ChannelParams(eta_arm=0.2, p_d=0.0))
    # simulate's sample stream for its first (here its only) block
    rng = simcore._stream_rng(cfg.seed, simcore._SAMPLE_STREAM, 0)
    res = postcompensate(collect_rounds(cfg), cfg.sample_fraction, rng, cfg.m_slices)
    assert res.j_d_opt == simulate(cfg).block_offsets[0][2]
    table = res.qber_table
    j = res.j_d_opt
    m = cfg.m_slices
    opposite = table[(j + m // 2) % m]
    assert opposite == pytest.approx(1.0 - table[j], abs=0.02)


def test_qber_table_invariant_under_common_slice_shift():
    # the records keep j_b - j_a alone, so a slice shift common to both
    # parties leaves the table as it is; a shift of d0 rotates it
    cfg = base_config(rounds=300_000, seed=33)
    m = cfg.m_slices
    full = full_rounds(cfg)
    data = collect_rounds(cfg)
    base = postcompensate(data, 0.3, np.random.default_rng(1), m)
    for shift in (1, 5, 11):
        shifted = dataclasses.replace(full, j_a=(full.j_a + shift) % m, j_b=(full.j_b + shift) % m)
        res = postcompensate(single_clicks(shifted, m), 0.3, np.random.default_rng(1), m)
        assert res.qber_table.tobytes() == base.qber_table.tobytes()
        assert res.j_d_opt == base.j_d_opt
        rotated = dataclasses.replace(data, d0=(data.d0 + shift) % m)
        res = postcompensate(rotated, 0.3, np.random.default_rng(1), m)
        assert res.qber_table.tobytes() == np.roll(base.qber_table, -shift).tobytes()


def postcompensate_by_offset_loop(clicks, sample_fraction, rng, m_slices):
    """``postcompensate``'s offset and table from one ``sift`` call per offset."""
    sample = clicks.take(np.flatnonzero(rng.random(len(clicks)) < sample_fraction))
    table = np.full(m_slices, np.nan)
    for j_d in range(m_slices):
        kept, errors = sift(sample, j_d, m_slices)
        if len(kept) > 0:
            table[j_d] = np.count_nonzero(errors) / len(kept)
    return int(np.nanargmin(table)), table


def table_sample(case, m):
    """Records for the offset table: random ones, ones in few slices, or
    ones whose table has tied minima."""
    rng = np.random.default_rng(m)
    n = 3000
    if case == "random":
        d0 = rng.integers(0, m, n)
        e0 = rng.random(n) < 0.3
    elif case == "few_slices":  # at M = 32766 almost every offset keeps nothing
        d0 = rng.choice([5 % m, (m // 2 + 7) % m, m - 1], n)
        e0 = rng.random(n) < 0.3
    elif m == 2:  # offsets 0 and 1 both read 1/2
        d0 = np.zeros(n, dtype=np.int64)
        e0 = np.arange(n) % 2
    else:  # offsets M - 3 and M - 1 both read 0
        d0 = 1 + 2 * (np.arange(n) % 2)
        e0 = np.zeros(n)
    return RoundData(rng.integers(0, 3, n).astype(np.int16), d0.astype(np.int16),
                     e0.astype(np.int8))


@pytest.mark.parametrize("case", ["random", "few_slices", "tied"])
@pytest.mark.parametrize("m", [2, 16, 32, MAX_M_SLICES])
def test_qber_table_equals_the_offset_loop(m, case):
    clicks = table_sample(case, m)
    fraction = 1.0 if case == "tied" else 0.5  # a tie holds on the whole sample
    res = postcompensate(clicks, fraction, np.random.default_rng(7), m)
    j_d, table = postcompensate_by_offset_loop(clicks, fraction, np.random.default_rng(7), m)
    assert res.qber_table.dtype == np.float64
    assert res.qber_table.tobytes() == table.tobytes()  # NaN where nothing is kept
    assert res.j_d_opt == j_d
    if case == "tied":
        assert np.count_nonzero(table == np.nanmin(table)) == 2
        assert res.j_d_opt == (0 if m == 2 else m - 3)
    if case == "few_slices" and m == MAX_M_SLICES:
        assert np.count_nonzero(np.isnan(table)) == m - 6


def sample_outcome(post, clicks, fraction, m):
    """``post``'s offset, table bytes and sample size on ``clicks``, or its
    InsufficientSamplesError message; and the sample stream's next double."""
    rng = np.random.default_rng(11)
    try:
        res = post(clicks, fraction, rng, m)
        outcome = (res.j_d_opt, res.qber_table.tobytes(), res.sampled_clicks)
    except InsufficientSamplesError as exc:
        outcome = str(exc)
    return outcome, rng.random()


UNIT = simcore._UNIT_ROUNDS


@pytest.mark.parametrize("n", [0, 1, UNIT - 1, UNIT, UNIT + 1, 3 * UNIT + 5],
                         ids=["0", "1", "UNIT-1", "UNIT", "UNIT+1", "3UNIT+5"])
def test_chunked_sample_draw_equals_one_draw_per_click(n):
    # the sample's uniforms, drawn one unit's length of clicks at a time,
    # are the doubles of one draw for every click, in order
    m = 16
    rng = np.random.default_rng(n)
    clicks = RoundData(rng.integers(0, 3, n).astype(np.int16),
                       rng.integers(0, m, n).astype(np.int16),
                       (rng.random(n) < 0.3).astype(np.int8))
    outcomes = []
    for fraction in (0.001, 0.5):
        got = sample_outcome(postcompensate, clicks, fraction, m)
        assert got == sample_outcome(postcompensate_one_shot, clicks, fraction, m)
        outcomes.append(got[0])
    # too few sampled clicks where the one draw picks fewer than
    # MIN_SAMPLED_CLICKS: at the small fraction, below about 100,000 clicks
    picked = [np.count_nonzero(np.random.default_rng(11).random(n) < fraction)
              for fraction in (0.001, 0.5)]
    assert [isinstance(o, str) for o in outcomes] == [p < MIN_SAMPLED_CLICKS for p in picked]


def test_reference_shift_moves_offset():
    width = 2 * PI / 16
    for shift_slices in (1, 4):
        cfg = base_config(
            rounds=200_000,
            seed=5,
            phi0=Phi0Model("fixed", shift_slices * width),
        )
        res = simulate(cfg)
        assert res.block_offsets[0][2] == shift_slices


def test_postcompensation_insufficient_samples():
    cfg = base_config(rounds=2_000, channel=ChannelParams(eta_arm=1e-4, p_d=0.0))
    data = collect_rounds(cfg)
    with pytest.raises(InsufficientSamplesError):
        postcompensate(data, 0.1, np.random.default_rng(0), cfg.m_slices)


def test_offset_search_needs_exactly_min_sampled_clicks():
    # M = 4; every sampled click has d0 = 1, one in ten with a raw disagreement
    def counts(sampled):
        return np.array([0, 0, sampled - sampled // 10, sampled // 10, 0, 0, 0, 0])

    offset, table = simcore._offset_table(counts(MIN_SAMPLED_CLICKS), MIN_SAMPLED_CLICKS)
    assert offset == 3 and table[3] == 0.1  # d0 = -j_d (mod M)
    fewer = MIN_SAMPLED_CLICKS - 1
    with pytest.raises(InsufficientSamplesError,
                       match=f"^only {fewer} sampled clicked rounds; need >= {MIN_SAMPLED_CLICKS}$"):
        simcore._offset_table(counts(fewer), fewer)


def test_slow_drift_tracked_per_block():
    m = 16
    width = 2 * PI / m
    block = 100_000
    cfg = base_config(
        rounds=4 * block,
        seed=17,
        m_slices=m,
        phi0=Phi0Model("slow_drift", 0.0, width / (2 * block)),
        jd_block_rounds=block,
        channel=ChannelParams(eta_arm=0.2, p_d=0.0),
        sample_fraction=0.3,
    )
    res = simulate(cfg)
    offsets = [jd for (_, _, jd) in res.block_offsets]
    # phi0 advances half a slice per block: offsets follow 0,1,1,2
    assert offsets == [0, 1, 1, 2]


def simulate_on_full_blocks(cfg):
    """The tallies and offsets of ``simulate`` from every round of each jd
    block, made by the oracle, with the sifting rule run on every round
    and ``postcompensate`` on the records of the single clicks among them."""
    data = full_rounds(cfg)
    n, k = cfg.rounds, len(cfg.intensities)
    chunk = cfg.jd_block_rounds or n
    counts = np.zeros((4, k), dtype=np.int64)
    offsets = []
    for bi, start in enumerate(range(0, n, chunk)):
        stop = min(start + chunk, n)
        part = data.take(slice(start, stop))
        rng = simcore._stream_rng(cfg.seed, simcore._SAMPLE_STREAM, bi)
        try:
            post = postcompensate(single_clicks(part, cfg.m_slices), cfg.sample_fraction, rng,
                                  cfg.m_slices)
        except InsufficientSamplesError as exc:
            raise InsufficientSamplesError(f"jd block [{start}, {stop}): {exc}") from None
        kept, errors = sift_over_all_rounds(part, post.j_d_opt, cfg.m_slices)
        mu_sifted = part.mu_idx[kept]
        single = np.isin(part.outcome, SINGLE_CLICKS)
        for row, mu in zip(counts, (part.mu_idx, part.mu_idx[single], mu_sifted,
                                    mu_sifted[errors])):
            row += np.bincount(mu, minlength=k)
        offsets.append((start, stop, post.j_d_opt))
    return counts.T.tolist(), offsets


def tallies_and_offsets(cfg):
    res = simulate(cfg)
    rows = [[t.emitted, t.clicked_single, t.sifted, t.errors] for t in res.tallies]
    return rows, res.block_offsets


SUBSET_CONFIGS = {
    # jd blocks longer than an RNG block, straddling RNG blocks, with a vacuum intensity
    "drift_straddling": dict(
        rounds=2 * simcore.RNG_BLOCK_ROUNDS + 1234, seed=8, intensities=(0.0, 0.1, 0.4),
        channel=ChannelParams(eta_arm=0.1, p_d=7.2e-8), jd_block_rounds=300_001,
        phi0=Phi0Model("slow_drift", 0.2, 2 * PI / 16 / 200_000),
    ),
    "two_slices": dict(m_slices=2, intensities=(0.0, 0.5), jd_block_rounds=50_000),
    "mostly_double_clicks": dict(channel=ChannelParams(eta_arm=0.1, p_d=0.99)),
    # the last jd block has 1,000 rounds: too few sampled clicks
    "low_click_block": dict(rounds=91_000, jd_block_rounds=45_000),
}


@pytest.mark.parametrize("name", list(SUBSET_CONFIGS))
def test_single_click_subset_equals_the_full_block_pipeline(name):
    cfg = base_config(**SUBSET_CONFIGS[name])
    outputs = []
    for run in (simulate_on_full_blocks, tallies_and_offsets):
        before = threading.active_count()
        try:
            outputs.append(run(cfg))
        except InsufficientSamplesError as exc:
            outputs.append(str(exc))
        assert threading.active_count() == before
    assert outputs[0] == outputs[1]
    if name == "low_click_block":
        assert re.fullmatch(r"jd block \[90000, 91000\): only \d+ sampled clicked rounds;"
                            r" need >= 100", outputs[0])
    else:
        assert sum(row[2] for row in outputs[0][0]) > 0


# eight RNG blocks at a 46% single-click rate, where 86% of the rounds
# are kernel candidates
BUSY_CONFIG = dict(rounds=8 * simcore.RNG_BLOCK_ROUNDS + 1234, intensities=(1.0, 2.0),
                   channel=ChannelParams(eta_arm=0.5, p_d=7.2e-8))


def simulate_from_records(cfg):
    """The tallies and offsets of ``simulate`` from every record of the run:
    ``collect_rounds``, then ``postcompensate`` and ``sift`` on each jd
    block's records."""
    data = collect_rounds(cfg)
    k = len(cfg.intensities)
    counts = np.zeros((3, k), dtype=np.int64)
    offsets = []
    for b, (start, stop) in enumerate(jd_blocks(cfg)):
        clicks = data.take(slice(data.stops[b - 1] if b else 0, data.stops[b]))
        rng = simcore._stream_rng(cfg.seed, simcore._SAMPLE_STREAM, b)
        post = postcompensate(clicks, cfg.sample_fraction, rng, cfg.m_slices)
        kept, errors = sift(clicks, post.j_d_opt, cfg.m_slices)
        mu_sifted = clicks.mu_idx[kept]
        for row, mu in zip(counts, (clicks.mu_idx, mu_sifted, mu_sifted[errors])):
            row += np.bincount(mu, minlength=k)
        offsets.append((start, stop, post.j_d_opt))
    return [[int(e), *map(int, c)] for e, c in zip(data.emitted.sum(axis=0), counts.T)], offsets


STREAM_CONFIGS = {
    "fixed": dict(phi0=Phi0Model("fixed", 0.7)),
    "drift": {},
    "two_slices": dict(m_slices=2, intensities=(0.0, 0.5)),
    "most_slices_64_intensities": dict(m_slices=MAX_M_SLICES,
                                       intensities=tuple(i * 0.01 for i in range(64))),
}


@pytest.mark.parametrize("name", list(STREAM_CONFIGS))
def test_binned_stream_equals_the_record_pipeline(monkeypatch, name):
    # jd blocks of 150,001 rounds over three RNG blocks: each straddles a
    # unit boundary, and the second an RNG block boundary too
    cfg = dataclasses.replace(slow_drift_config(), rounds=2 * simcore.RNG_BLOCK_ROUNDS + 1234,
                              **STREAM_CONFIGS[name])
    blocks = jd_blocks(cfg)
    assert blocks[1][0] < simcore.RNG_BLOCK_ROUNDS < blocks[1][1]
    assert all(start % simcore._UNIT_ROUNDS for start, _ in blocks[1:])
    want = simulate_from_records(cfg)
    assert sum(row[2] for row in want[0]) > 0
    for workers in (1, 2):
        monkeypatch.setattr(simcore, "_WORKERS", workers)
        assert tallies_and_offsets(cfg) == want, workers


def test_simulate_memory_scales_with_clicks_not_block_rounds(monkeypatch):
    # Each worker's kernel holds one row and a bool, then the candidates'
    # temporaries (~60 B a unit round here, where 86% of the rounds are
    # candidates); simulate holds the units' records only until it has
    # binned them and drawn their sample uniforms.  A worker buffer of all
    # seven rows (56 B a unit round), or a record of every click made so
    # far (5 B a click, 5 MB here), exceeds the bound.
    cfg = base_config(**BUSY_CONFIG)
    for workers in (1, 2):
        monkeypatch.setattr(simcore, "_WORKERS", workers)
        res, peak = traced_peak(simulate, cfg)
        clicks = sum(t.clicked_single for t in res.tallies)
        assert clicks > 0.4 * cfg.rounds
        assert peak <= simulate_memory_bound(cfg, workers, 80), workers


def test_simulate_memory_does_not_grow_with_the_rounds(monkeypatch):
    # four times the rounds, and the clicks, peak no higher than two RNG
    # blocks, within a quarter of a unit's row; on one worker the peak
    # does not depend on how the threads interleave
    monkeypatch.setattr(simcore, "_WORKERS", 1)
    short = dataclasses.replace(base_config(**BUSY_CONFIG), rounds=2 * simcore.RNG_BLOCK_ROUNDS)
    long = dataclasses.replace(short, rounds=4 * short.rounds)
    (_, short_peak), (_, long_peak) = (traced_peak(simulate, cfg) for cfg in (short, long))
    assert long_peak <= short_peak + 2 * simcore._UNIT_ROUNDS


def test_sample_draw_memory_does_not_grow_with_the_clicks():
    # a million records: the sample's uniforms, its mask and the picked
    # bins of one chunk at a time, not one uniform (8 B) per click
    n = 1_000_000
    rng = np.random.default_rng(0)  # numpy.random is imported before the trace
    clicks = RoundData(rng.integers(0, 3, n).astype(np.int16),
                       rng.integers(0, 16, n).astype(np.int16),
                       (rng.random(n) < 0.3).astype(np.int8))
    tracemalloc.start()
    try:
        res = postcompensate(clicks, 0.2, np.random.default_rng(1), 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.sampled_clicks > 0.19 * n
    assert peak <= 16 * simcore._UNIT_ROUNDS


# --- tallies and model comparison ----------------------------------------------------


def test_tally_counter_ordering():
    cfg = base_config(rounds=300_000, intensities=(0.1, 0.4, 0.8), seed=3,
                      channel=ChannelParams(eta_arm=0.05, p_d=1e-6))
    res = simulate(cfg)
    total = 0
    for t in res.tallies:
        assert t.errors <= t.sifted <= t.clicked_single <= t.emitted
        total += t.emitted
    assert total == cfg.rounds


def test_compare_to_model_consistency():
    cfg = base_config(rounds=1_000_000, seed=42, channel=ChannelParams(eta_arm=0.01, p_d=7.2e-8))
    rows = compare_to_model(simulate(cfg))
    assert len(rows) == 1
    assert abs(rows[0].z_q) < 4
    assert abs(rows[0].z_ez) < 4
    assert rows[0].consistent


@pytest.mark.parametrize(
    # 1 - 2*p_d is exact for both p_d; from SERIES_M slices e_delta is its series
    "p_d, m_slices",
    [
        pytest.param(2.0**-20, 16, id="9.5367431640625e-07"),
        pytest.param(0.0, 16, id="0.0"),
        pytest.param(2.0**-20, rate.SERIES_M, id="9.5367431640625e-07-series"),
        pytest.param(0.0, rate.SERIES_M, id="0.0-series"),
    ],
)
def test_compare_to_model_uses_rate_formulas(p_d, m_slices):
    ch = ChannelParams(eta_arm=0.05, p_d=p_d)
    cfg = base_config(rounds=60_000, intensities=(0.0, 0.2, 0.5), channel=ch, m_slices=m_slices)
    rows = compare_to_model(simulate(cfg))
    assert [r.intensity for r in rows] == [0.0, 0.2, 0.5]
    for r in rows[1:]:
        pm = rate.PmParams(mu_total=r.intensity, m_slices=cfg.m_slices)
        bd = rate.key_rate(ch, pm)
        assert r.q_model == bd.gain_Q
        assert r.ez_model == bd.qber_Z
    assert rows[0].q_model == 2 * p_d
    if p_d == 0.0:
        assert rows[0].ez_model == 0.5


def test_zero_variance_model_scores_zero_on_a_match():
    ch = ChannelParams(eta_arm=0.05, p_d=0.0)
    cfg = base_config(rounds=60_000, intensities=(0.0, 0.5), channel=ch)
    res = simulate(cfg)
    vacuum = compare_to_model(res)[0]
    assert vacuum.q_hat == vacuum.q_model == 0.0
    assert vacuum.z_q == 0.0 and vacuum.z_ez == 0.0
    assert vacuum.consistent
    # a click the model cannot produce still scores inf
    res.tallies[0] = dataclasses.replace(res.tallies[0], clicked_single=1)
    assert compare_to_model(res)[0].z_q == math.inf


def test_csv_format():
    cfg = base_config(rounds=60_000, intensities=(0.2, 0.5))
    csv = tallies_to_csv(simulate(cfg).tallies)
    lines = csv.strip().split("\n")
    assert lines[0] == "intensity,emitted,clicked,sifted,errors,Q_hat,Q_se,EZ_hat,EZ_se"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.20000000000000001"  # 17 significant digits of 0.2


def test_config_json_roundtrip(tmp_path):
    cfg = base_config(intensities=(0.1, 0.5), phi0=Phi0Model("slow_drift", 0.2, 1e-7))
    doc = config_doc(cfg)
    again = SimConfig.from_json_dict(doc)
    assert again == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert SimConfig.from_json_file(path) == cfg


def test_config_from_distance_json():
    cfg = SimConfig.from_json_dict(
        {
            "rounds": 1000,
            "seed": 1,
            "m_slices": 16,
            "intensities": [0.5],
            "channel": {"distance_km": 200, "eta_d": 0.145, "p_d": 7.2e-8},
        }
    )
    assert cfg.channel.eta_arm == pytest.approx(0.145 * 10 ** (-0.2 * 100 / 10))
    doc = config_doc(cfg)
    assert doc["channel"] == {"eta_arm": cfg.channel.eta_arm, "p_d": 7.2e-8}
    assert SimConfig.from_json_dict(doc) == cfg


def test_readme_simulate_example_parses():
    # the README's simulate config follows the schema from_json_dict accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    cfg = SimConfig.from_json_dict(json.loads(blocks[0]))
    assert cfg.channel == ChannelParams(eta_arm=0.1, p_d=7.2e-8)


def test_config_json_types():
    doc = config_doc(base_config(rounds=1000))
    assert SimConfig.from_json_dict(dict(doc, rounds=1e3)).rounds == 1000
    for key, bad in (("rounds", 2.5), ("seed", True), ("seed", "7"), ("sample_fraction", None),
                     ("channel", [0.1]), ("phi0", None), ("intensities", ["0.5"])):
        with pytest.raises(ValueError, match=key):
            SimConfig.from_json_dict(dict(doc, **{key: bad}))


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(rounds=0)
    with pytest.raises(ValueError):
        base_config(intensities=())
    with pytest.raises(ValueError):
        base_config(intensities=(0.5, 0.5))
    with pytest.raises(ValueError):
        base_config(sample_fraction=1.0)
    with pytest.raises(ValueError):
        base_config(m_slices=9)
    with pytest.raises(ValueError):
        base_config(m_slices=MAX_M_SLICES + 2)
    most = tuple(i * 1e-3 for i in range(MAX_INTENSITIES))
    assert len(base_config(intensities=most).intensities) == MAX_INTENSITIES
    with pytest.raises(ValueError, match=f"^intensities must hold at most {MAX_INTENSITIES} "):
        base_config(intensities=(*most, 40.0))
    # the histogram's cells: 64 intensities at the most slices fit, 65 do not
    assert 64 * MAX_M_SLICES <= MAX_HISTOGRAM_CELLS < 65 * MAX_M_SLICES
    base_config(intensities=most[:64], m_slices=MAX_M_SLICES)
    with pytest.raises(ValueError, match=f"^intensities times m_slices must be at most"
                                         f" {MAX_HISTOGRAM_CELLS}, got {65 * MAX_M_SLICES}$"):
        base_config(intensities=most[:65], m_slices=MAX_M_SLICES)
    # the count checks come first: their messages are unchanged
    with pytest.raises(ValueError, match="^intensities must hold at most "):
        base_config(intensities=(*most, 40.0), m_slices=MAX_M_SLICES)
    with pytest.raises(ValueError, match="^m_slices must be an even integer "):
        base_config(intensities=most[:65], m_slices=MAX_M_SLICES + 2)
    with pytest.raises(ValueError):
        base_config(intensities=(0.5, math.nan))
    with pytest.raises(ValueError):
        base_config(intensities=(math.inf,))
    with pytest.raises(ValueError, match="^phi0 value_rad must be finite, got nan$"):
        Phi0Model("fixed", math.nan)
    with pytest.raises(ValueError, match="^phi0 rate_rad_per_round must be finite, got inf$"):
        Phi0Model("slow_drift", 0.0, math.inf)
    with pytest.raises(ValueError, match="^fixed phi0 cannot have a drift rate, got 1e-06$"):
        Phi0Model("fixed", 0.0, 1e-6)
    with pytest.raises(ValueError, match="^phi0 kind must be .*, got 'drift'$"):
        Phi0Model("drift")

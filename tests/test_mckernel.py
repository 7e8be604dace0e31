"""The kernel against a full-array oracle, the seeded round stream, and its threaded fill."""
import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from pmqkd import _mckernel_np, simcore
from pmqkd.detection import ChannelParams
from pmqkd.simcore import (
    MAX_INTENSITIES,
    MAX_M_SLICES,
    MAX_ROUNDS,
    RNG_BLOCK_ROUNDS,
    Phi0Model,
    RoundData,
    SimConfig,
    simulate,
    tallies_to_csv,
)

from oracles import Outcome

TWO_PI = 2.0 * math.pi

OUTPUTS = ("mu_idx", "d0", "e0")
DTYPES = (np.int16, np.int16, np.int8)
SINGLE_CLICKS = (Outcome.LEFT, Outcome.RIGHT)


@dataclasses.dataclass
class Rounds:
    """Every round of a block, as the oracle computes it."""

    kappa_a: np.ndarray  # int8
    kappa_b: np.ndarray  # int8
    mu_idx: np.ndarray  # int16
    j_a: np.ndarray  # int16
    j_b: np.ndarray  # int16
    outcome: np.ndarray  # int8, an Outcome code

    def take(self, index):
        return Rounds(*(getattr(self, f.name)[index] for f in dataclasses.fields(self)))


def oracle_block(u, eta, p_d, intensities, m_slices, phi0_value, phi0_rate, t0):
    """The click model evaluated on every round of the block: every round's
    outputs, and each round's two click probabilities."""
    n = u.shape[1]
    kappa_a = (u[0] < 0.5).astype(np.int8)
    kappa_b = (u[1] < 0.5).astype(np.int8)
    phi_a = u[2] * TWO_PI
    phi_b = u[3] * TWO_PI
    mu_idx = np.minimum((u[4] * len(intensities)).astype(np.int16), len(intensities) - 1)
    mu = intensities[mu_idx]

    if phi0_rate != 0.0:
        phi0 = phi0_value + phi0_rate * (t0 + np.arange(n, dtype=np.float64))
    else:
        phi0 = phi0_value
    delta = (phi_b + math.pi * kappa_b) - (phi_a + math.pi * kappa_a) + phi0
    c = np.cos(delta)
    c2 = 0.5 * (1.0 + c)
    s2 = 0.5 * (1.0 - c)
    log_q = math.log1p(-p_d)
    p_left = -np.expm1(log_q - eta * mu * c2)
    p_right = -np.expm1(log_q - eta * mu * s2)
    l_click = u[5] < p_left
    r_click = u[6] < p_right
    outcome = (l_click + 2 * r_click).astype(np.int8)

    scale = m_slices / TWO_PI
    j_a = (np.floor(phi_a * scale + 0.5).astype(np.int16) % m_slices).astype(np.int16)
    j_b = (np.floor(phi_b * scale + 0.5).astype(np.int16) % m_slices).astype(np.int16)
    return Rounds(kappa_a, kappa_b, mu_idx, j_a, j_b, outcome), (p_left, p_right)


def single_clicks(rounds, m_slices):
    """The records of the single clicks of ``rounds``, in round order,
    derived from their key bits, slices and outcomes."""
    single = rounds.take(np.flatnonzero(np.isin(rounds.outcome, SINGLE_CLICKS)))
    d0 = (single.j_b.astype(np.int64) - single.j_a) % m_slices
    e0 = single.kappa_a ^ single.kappa_b ^ (single.outcome == Outcome.RIGHT)
    return RoundData(single.mu_idx, d0.astype(np.int16), e0.astype(np.int8))


def oracle_records(u, *params):
    """The oracle's emitted counts, ``bincount(mu_idx)``, and its single-click records."""
    rounds, _ = oracle_block(u, *params)
    return np.bincount(rounds.mu_idx, minlength=len(params[2])), single_clicks(rounds, params[3])


def row_supplier(u, asked=None):
    """A kernel row supplier ``draw(r, out)`` that copies row ``r`` of the
    (7, n) array ``u`` into ``out``; each request ``(r, out)`` is appended
    to ``asked`` if given."""
    def draw(r, out):
        if asked is not None:
            asked.append((r, out))
        out[...] = u[r]

    return draw


def run_kernel(u, *params):
    """The kernel's emitted counts and records, its rows copied from ``u``."""
    emitted, records = _mckernel_np.simulate_block(row_supplier(u), u.shape[1], *params)
    return emitted, RoundData(*records)


def assert_same_records(got, want):
    for name, dtype in zip(OUTPUTS, DTYPES):
        assert getattr(got, name).dtype == getattr(want, name).dtype == dtype, name
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def assert_kernel_matches_oracle(u, *params):
    emitted, records = run_kernel(u, *params)
    want_emitted, want_records = oracle_records(u, *params)
    assert emitted.dtype == np.int64 and np.array_equal(emitted, want_emitted)
    assert_same_records(records, want_records)
    return records


INTENSITY_SETS = {
    "with_vacuum": (0.0, 0.1, 0.5),
    "bound_reaches_one": (0.2, 30.0),  # eta=1: p_max rounds to 1, every round is a candidate
    "one_intensity": (0.3,),
}
PHI0 = {
    "fixed": (0.7, 0.0, 0),
    "drift": (0.3, 2.0 * math.pi / 32 / 1e6, 5_000_001),
    # the one phi0 expression at its edges: -0.0 + 0.0 * t is +0.0, and the
    # largest block's last round is the last run index allowed
    "fixed_negative_zero_late": (-0.0, 0.0, MAX_ROUNDS - (1 << 18) - 3),
}


@pytest.mark.parametrize("n", [1, (1 << 18) + 3])
@pytest.mark.parametrize("phi0", list(PHI0), ids=list(PHI0))
@pytest.mark.parametrize("eta", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("mus", list(INTENSITY_SETS), ids=list(INTENSITY_SETS))
@pytest.mark.parametrize("p_d", [0.0, 7.2e-8, 0.999])
def test_kernel_matches_full_array_oracle(p_d, mus, eta, phi0, n):
    intensities = np.asarray(INTENSITY_SETS[mus], dtype=np.float64)
    u = np.random.default_rng(n).random((7, n))
    params = (eta, p_d, intensities, 16, *PHI0[phi0])
    _, (p_left, p_right) = oracle_block(u, *params)
    # put some detector draws just below and at their click probability,
    # where a bound below the true maximum would drop a click
    edge = np.arange(0, n, 3)
    u[5, edge] = np.nextafter(p_left[edge], 0.0)
    u[6, edge[::2]] = p_right[edge[::2]]
    # and some intensity draws where u[4] * k lands on or next to an integer
    u[4, 1::5] = np.arange(len(u[4, 1::5])) % (2 * len(intensities) + 1) / (2 * len(intensities))
    u[4, 2::5] = np.nextafter(u[4, 1::5][: len(u[4, 2::5])], 0.0)
    assert_kernel_matches_oracle(u, *params)


@pytest.mark.parametrize("k", [3, 64, MAX_INTENSITIES])
def test_emitted_counts_at_few_and_many_intensities(k):
    # the k - 1 compare-and-count passes, up to the largest k a config may have
    n = 1 << 16 if k < MAX_INTENSITIES else 1000
    intensities = np.linspace(0.01, 2.0, k)
    u = np.random.default_rng(k).random((7, n))
    u[4, :3] = (0.0, np.nextafter(1.0, 0.0), (k - 1) / k)  # the first and last index
    assert_kernel_matches_oracle(u, 0.1, 7.2e-8, intensities, 16, 0.0, 0.0, 0)


@pytest.mark.parametrize("m", [2, 6, 16, 32, MAX_M_SLICES])
def test_slice_map_at_the_slice_edges(m):
    # phases at 0, just below 2*pi, and one ulp either side of every slice
    # centre k/M and every rounding edge (k + 1/2)/M, where the rounded
    # slice can reach M and must wrap to 0
    marks = np.concatenate([np.arange(m + 1) / m, (np.arange(m) + 0.5) / m])
    edges = np.concatenate([marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0)])
    edges = np.concatenate([[0.0, 1.0 - 2.0**-53], edges[edges < 1.0]])
    n = len(edges)
    u = np.random.default_rng(m).random((7, 2 * n))
    # one party's phase at 0, in slice 0, so that d0 reads the other's slice
    u[2] = np.concatenate([edges, np.zeros(n)])
    u[3] = np.concatenate([np.zeros(n), edges])
    # every round is a single click: the L draw is below p_d, the R draw never clicks
    u[5] = 0.0
    u[6] = 1.0
    params = (0.1, 0.5, np.asarray((0.1, 0.5)), m, 0.0, 0.0, 0)
    got = assert_kernel_matches_oracle(u, *params)
    assert len(got) == 2 * n
    j_a, j_b = -got.d0[:n] % m, got.d0[n:]
    assert np.array_equal(j_a, j_b)
    assert j_a[1] == j_b[1] == 0  # u = 1 - 2**-53 wraps
    assert j_b.max() == m - 1


# --- the seeded round stream ---------------------------------------------------

# Recorded with the full-array kernel (every round through the click model).
SLOW_DRIFT_CSV = (
    "intensity,emitted,clicked,sifted,errors,Q_hat,Q_se,EZ_hat,EZ_se\n"
    "0,200848,0,0,0,0,0,0,0\n"
    "0.10000000000000001,199741,1904,240,4,0.0095323443859798435,0.00021741344675129282,"
    "0.016666666666666666,0.0082635971003575098\n"
    "0.40000000000000002,199411,7725,994,10,0.038739086610066649,0.00043213632513912028,"
    "0.010060362173038229,0.0031653225565982037\n"
)
SLOW_DRIFT_OFFSETS = [(0, 150001, 1), (150001, 300002, 1), (300002, 450003, 2), (450003, 600000, 2)]


def slow_drift_config():
    return SimConfig(
        rounds=600_000,
        seed=2024,
        m_slices=16,
        intensities=(0.0, 0.1, 0.4),
        channel=ChannelParams(eta_arm=0.1, p_d=7.2e-8),
        sample_fraction=0.2,
        phi0=Phi0Model("slow_drift", 0.1, 2.0 * math.pi / 16 / 300_000),
        jd_block_rounds=150_001,
    )


def test_slow_drift_tallies_and_offsets_pinned():
    res = simulate(slow_drift_config())
    assert tallies_to_csv(res.tallies) == SLOW_DRIFT_CSV
    assert res.block_offsets == SLOW_DRIFT_OFFSETS


def kernel_params(cfg):
    """The kernel arguments of ``cfg`` that precede the block's start round."""
    return (cfg.channel.eta_arm, cfg.channel.p_d, np.asarray(cfg.intensities), cfg.m_slices,
            cfg.phi0.value_rad, cfg.phi0.rate_rad_per_round)


def full_rounds(cfg):
    """Every round of ``cfg``'s seeded stream, from the oracle: one
    ``random((7, n))`` draw and one oracle call per RNG block."""
    blocks = []
    for bi, start in enumerate(range(0, cfg.rounds, RNG_BLOCK_ROUNDS)):
        n = min(RNG_BLOCK_ROUNDS, cfg.rounds - start)
        u = simcore._stream_rng(cfg.seed, simcore._ROUND_STREAM, bi).random((7, n))
        blocks.append(oracle_block(u, *kernel_params(cfg), start)[0])
    return Rounds(*(np.concatenate([getattr(b, f.name) for b in blocks])
                    for f in dataclasses.fields(Rounds)))


def unit_grid_starts(cfg):
    """The work units that start at a multiple of ``_UNIT_ROUNDS`` within an RNG block."""
    return sum(len(range(0, min(RNG_BLOCK_ROUNDS, cfg.rounds - start), simcore._UNIT_ROUNDS))
               for start in range(0, cfg.rounds, RNG_BLOCK_ROUNDS))


def jd_blocks(cfg):
    chunk = cfg.jd_block_rounds or cfg.rounds
    return [(start, min(start + chunk, cfg.rounds)) for start in range(0, cfg.rounds, chunk)]


RECORD_CASES = {
    "fixed": dict(phi0=Phi0Model("fixed", 0.7)),
    "drift": {},
    "two_slices_with_vacuum": dict(m_slices=2, intensities=(0.0, 0.5)),
    "most_slices_one_intensity": dict(m_slices=MAX_M_SLICES, intensities=(0.4,)),
    "dark_counts": dict(channel=ChannelParams(eta_arm=0.1, p_d=0.99)),
}


@pytest.mark.parametrize("case", list(RECORD_CASES))
def test_collect_rounds_equals_fresh_block_runs(monkeypatch, case):
    # three RNG blocks, the last one short, cut into units at the
    # _UNIT_ROUNDS grid and at the jd block boundaries: a unit drawn from the
    # wrong place in its block's stream, a stale tail of a worker's buffer,
    # (under drift) a unit's first round index off its block's, or a record
    # put in the wrong jd block would show against one oracle pass per block
    cfg = dataclasses.replace(slow_drift_config(), rounds=2 * RNG_BLOCK_ROUNDS + 1234,
                              **RECORD_CASES[case])
    units = simcore._round_units(cfg)
    # the unit grid of each RNG block, and the three jd boundaries, all off it
    assert len(units) == unit_grid_starts(cfg) + 3
    assert all(cut % RNG_BLOCK_ROUNDS % simcore._UNIT_ROUNDS for cut in (150_001, 300_002, 450_003))
    assert 150_001 in [start + a for _, _, start, _, a, _ in units]
    full = full_rounds(cfg)
    for workers in (1, 2, 3):
        monkeypatch.setattr(simcore, "_WORKERS", workers)
        data = simcore.collect_rounds(cfg)
        assert len(data.stops) == len(data.emitted) == len(jd_blocks(cfg))
        for b, (start, stop) in enumerate(jd_blocks(cfg)):
            part = full.take(slice(start, stop))
            emitted = np.bincount(part.mu_idx, minlength=len(cfg.intensities))
            assert np.array_equal(data.emitted[b], emitted)
            records = data.take(slice(data.stops[b - 1] if b else 0, data.stops[b]))
            assert_same_records(records, single_clicks(part, cfg.m_slices))
        assert len(data) == data.stops[-1]


@pytest.mark.parametrize("phi0", list(PHI0), ids=list(PHI0))
def test_kernel_writes_only_inside_its_views(phi0):
    # the rows are copied from a view of the first columns of a wider
    # buffer, which is read only
    n = 5000
    buf = np.random.default_rng(3).random((7, n + 77))
    before = buf.copy()
    u = buf[:, :n]
    params = (0.1, 7.2e-8, np.asarray((0.0, 0.1, 0.5)), 16, *PHI0[phi0])
    emitted, records = run_kernel(u, *params)
    assert buf.tobytes() == before.tobytes()
    want_emitted, want_records = oracle_records(u, *params)
    assert np.array_equal(emitted, want_emitted)
    assert_same_records(records, want_records)


@pytest.mark.parametrize("phi0", list(PHI0), ids=list(PHI0))
def test_kernel_asks_for_each_row_once_in_order(phi0):
    # candidates from rows 5 and 6, the intensity from row 4, then the key
    # bits and phases; every row lands in the kernel's one row
    n = 5000
    u = np.random.default_rng(4).random((7, n))
    before = u.copy()
    asked = []
    params = (0.1, 7.2e-8, np.asarray((0.0, 0.1, 0.5)), 16, *PHI0[phi0])
    emitted, records = _mckernel_np.simulate_block(row_supplier(u, asked), n, *params)
    assert [r for r, _ in asked] == [5, 6, 4, 0, 1, 2, 3]
    for _, out in asked:
        assert out.dtype == np.float64 and out.shape == (n,) and out.flags.writeable
    buffers = {out.__array_interface__["data"][0] for _, out in asked}
    assert len(buffers) == 1
    assert u.tobytes() == before.tobytes()
    want_emitted, want_records = oracle_records(u, *params)
    assert np.array_equal(emitted, want_emitted)
    assert_same_records(RoundData(*records), want_records)


def test_kernel_draws_no_key_or_phase_row_without_a_candidate():
    # no round can click, so only the detector and intensity rows are drawn
    n = 5000
    u = np.random.default_rng(5).random((7, n))
    asked = []
    params = (0.0, 0.0, np.asarray((0.1, 0.5)), 16, 0.0, 0.0, 0)
    emitted, records = _mckernel_np.simulate_block(row_supplier(u, asked), n, *params)
    assert [r for r, _ in asked] == [5, 6, 4]
    want_emitted, want_records = oracle_records(u, *params)
    assert len(want_records) == 0
    assert np.array_equal(emitted, want_emitted)
    assert_same_records(RoundData(*records), want_records)


def test_kernel_holds_one_row_and_one_bool_a_round():
    # no round can click, so nothing is sized by the candidates: the peak
    # is the float64 row and one bool comparison at a time, 9 B a round
    n = 1 << 17
    draw = row_supplier(np.random.default_rng(6).random((7, n)))
    params = (0.0, 0.0, np.asarray((0.1, 0.2, 0.5)), 16, 0.0, 0.0, 0)
    tracemalloc.start()
    try:
        _mckernel_np.simulate_block(draw, n, *params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 9 * n <= peak < 10 * n


def traced_peak(run, cfg):
    """``run(cfg)`` and the peak of the memory it allocated."""
    np.random.default_rng()  # imports numpy.random, once per process, before the trace
    tracemalloc.start()
    try:
        out = run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def simulate_memory_bound(cfg, workers, kernel_bytes):
    """Bytes ``simulate`` may hold: per worker, its kernel's ``kernel_bytes``
    a unit round and the records of the two units per worker it may run
    ahead, at most 5 B a round; and one jd block's counts."""
    unit = simcore._UNIT_ROUNDS
    return (workers * (kernel_bytes + 2 * workers * 5) * unit
            + 16 * len(cfg.intensities) * cfg.m_slices)


def test_collect_rounds_memory_peak(monkeypatch):
    # per worker, the kernel's float64 row (8 B a unit round) and one bool
    # comparison at a time (1 B), then the others, which are sized by the
    # candidates (~70 B each, at ~8% of the rounds here).  collect_rounds
    # adds 5 B a click record, twice while the units' records are
    # concatenated; simulate holds no more records than the units it may
    # run ahead.  Over eight RNG blocks a record of every round (5 B a
    # round, 10.5 MB) exceeds either bound, and so does a worker's
    # (7, _UNIT_ROUNDS) buffer of all seven rows (56 B a unit round).
    cfg = dataclasses.replace(slow_drift_config(), rounds=8 * RNG_BLOCK_ROUNDS + 1234)
    for workers in (1, 2):
        monkeypatch.setattr(simcore, "_WORKERS", workers)
        data, peak = traced_peak(simcore.collect_rounds, cfg)
        assert data.emitted.sum() == cfg.rounds
        assert peak <= 40 * len(data) + workers * 20 * simcore._UNIT_ROUNDS, workers
        _, peak = traced_peak(simulate, cfg)
        assert peak <= simulate_memory_bound(cfg, workers, 20), workers


# --- the worker count ----------------------------------------------------------

WORKER_CASES = {
    "fixed": lambda cfg: dataclasses.replace(
        cfg, rounds=2 * RNG_BLOCK_ROUNDS + 1234, phi0=Phi0Model("fixed", 0.7)),
    "slow_drift": lambda cfg: dataclasses.replace(cfg, rounds=2 * RNG_BLOCK_ROUNDS + 1234),
    # below one unit: the draw and the kernel run on the calling thread alone
    "below_one_unit": lambda cfg: dataclasses.replace(
        cfg, rounds=simcore._UNIT_ROUNDS - 1, channel=ChannelParams(eta_arm=0.5, p_d=7.2e-8),
        jd_block_rounds=None),
}


@pytest.mark.parametrize("case", list(WORKER_CASES))
def test_output_does_not_depend_on_the_worker_count(monkeypatch, case):
    cfg = WORKER_CASES[case](slow_drift_config())
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(simcore, "_WORKERS", workers)
        data = simcore.collect_rounds(cfg)
        res = simulate(cfg)
        runs.append(({name: values.tobytes() for name, values in vars(data).items()},
                     tallies_to_csv(res.tallies), res.block_offsets))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_output_does_not_depend_on_the_unit_size(monkeypatch):
    # three RNG blocks under drift, with jd blocks whose cuts miss every unit
    # grid tried: each size cuts the run into other units, and none moves a
    # record, a tally or an offset
    cfg = dataclasses.replace(slow_drift_config(), rounds=2 * RNG_BLOCK_ROUNDS + 1234)
    sizes = (1000, 1 << 15, 1 << 16, 1 << 17)
    cuts = range(cfg.jd_block_rounds, cfg.rounds, cfg.jd_block_rounds)
    assert len(cuts) == 3 and all(cut % RNG_BLOCK_ROUNDS % size for cut in cuts for size in sizes)
    runs = {}
    for size in sizes:
        for workers in (1, 2):
            monkeypatch.setattr(simcore, "_UNIT_ROUNDS", size)
            monkeypatch.setattr(simcore, "_WORKERS", workers)
            assert len(simcore._round_units(cfg)) == unit_grid_starts(cfg) + 3
            data = simcore.collect_rounds(cfg)
            res = simulate(cfg)
            runs[size, workers] = ({name: values.tobytes() for name, values in vars(data).items()},
                                   tallies_to_csv(res.tallies), res.block_offsets)
    first = runs[sizes[0], 1]
    assert len({j_d for _, _, j_d in first[2]}) > 1  # the drift moves the offset
    for key, run in runs.items():
        assert run == first, key


def test_every_unit_runs_once_on_its_own_worker(monkeypatch):
    # workers - 1 threads are made, and the first `workers` units wait for
    # each other at a barrier, so they run on distinct workers, one of them
    # the calling thread
    workers = 3
    monkeypatch.setattr(simcore, "_WORKERS", workers)
    made = []  # the thread objects: an idle worker's ident can be reused
    make_thread = threading.Thread

    def counted_thread(*args, **kwargs):
        made.append(make_thread(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(threading, "Thread", counted_thread)
    barrier = threading.Barrier(workers, timeout=30)
    ran = []

    def run_unit(i):
        if i < workers:
            barrier.wait()
        ran.append((i, threading.current_thread()))
        return i

    assert list(simcore._run_units(run_unit, 40)) == list(range(40))
    assert len(made) == workers - 1
    assert sorted(i for i, _ in ran) == list(range(40))
    assert {thread for _, thread in ran} <= {*made, threading.current_thread()}
    assert len({thread for i, thread in ran if i < workers}) == workers


def test_unit_failure_reaches_the_caller_after_every_thread_is_joined(monkeypatch):
    monkeypatch.setattr(simcore, "_WORKERS", 3)
    before = threading.active_count()

    def later_units_fail(i):
        if i == 1:
            time.sleep(0.05)  # unit 1 fails after unit 2, but is raised
        if i > 0:
            raise ValueError(f"unit {i}")

    with pytest.raises(ValueError, match="^unit 1$"):
        list(simcore._run_units(later_units_fail, 6))
    assert threading.active_count() == before

    ran = []

    def first_unit_fails(i):
        ran.append(i)
        if i == 0:
            raise KeyError(i)
        time.sleep(0.2)

    with pytest.raises(KeyError):
        list(simcore._run_units(first_unit_fails, 6))
    assert threading.active_count() == before
    # no unit starts after the failure: beside unit 0, at most the one
    # unit each other worker had taken before it failed ran
    assert 0 in ran and sorted(ran) == list(range(len(ran))) and len(ran) <= 3


def test_stream_under_contention_keeps_order_and_window(monkeypatch):
    # more workers than cores and a short switch interval: every unit runs
    # once, the results arrive in order, and no unit starts before the
    # unit 2 * workers below it has been taken (the consumer appends it
    # just after the stream counts it yielded, hence the + 1)
    workers, count = 6, 400
    monkeypatch.setattr(simcore, "_WORKERS", workers)
    received, ran, early = [], [], []

    def run_unit(i):
        if i >= len(received) + 1 + 2 * workers:
            early.append(i)
        ran.append(i)
        return i

    def consume():
        for result in simcore._run_units(run_unit, count):
            received.append(result)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumer = threading.Thread(target=consume)
        consumer.start()
        consumer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not consumer.is_alive()
    assert received == list(range(count))
    assert sorted(ran) == list(range(count))
    assert early == []


def test_the_window_is_exactly_two_units_per_worker(monkeypatch):
    # the consumer holds result 0, and the other workers run on until
    # exactly 2 * workers units past it have started, and no further
    workers = 3
    monkeypatch.setattr(simcore, "_WORKERS", workers)
    started = []
    stream = simcore._run_units(lambda i: started.append(i) or i, 40)
    assert next(stream) == 0
    deadline = time.monotonic() + 30
    while len(started) < 1 + 2 * workers and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.1)  # time for one more unit to start, were it allowed to
    held = sorted(started)
    stream.close()
    assert held == list(range(1 + 2 * workers))


def counting_kernel(monkeypatch, fail_at=None):
    """Put a kernel on ``simcore`` that records each unit's first round,
    and raises ``fail_at[1]`` at the unit starting at ``fail_at[0]``."""
    started = []
    kernel = simcore._simulate_block

    def run(*args):
        started.append(args[-1])
        if fail_at and args[-1] == fail_at[0]:
            raise fail_at[1]
        return kernel(*args)

    monkeypatch.setattr(simcore, "_simulate_block", run)
    return started


def test_a_failed_jd_block_stops_the_stream(monkeypatch):
    # the first of 600 jd blocks has too few sampled clicks: beside the two
    # units read before it fails, at most two a worker start, and every
    # thread is joined before the error reaches the caller
    monkeypatch.setattr(simcore, "_WORKERS", 3)
    cfg = dataclasses.replace(slow_drift_config(), jd_block_rounds=1000)
    started = counting_kernel(monkeypatch)
    before = threading.active_count()
    with pytest.raises(simcore.InsufficientSamplesError, match=r"^jd block \[0, 1000\): "):
        simulate(cfg)
    assert threading.active_count() == before
    assert 2 <= len(started) <= 2 + 2 * 3


def test_a_kernel_failure_is_raised_once(monkeypatch):
    # long enough for more units than the failing one, its window and the
    # units the other two workers took
    monkeypatch.setattr(simcore, "_WORKERS", 3)
    cfg = dataclasses.replace(slow_drift_config(), rounds=1_200_000)
    units = simcore._round_units(cfg)
    _, _, start, _, a, _ = units[3]
    boom = RuntimeError("kernel failed")
    started = counting_kernel(monkeypatch, (start + a, boom))
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as exc:
        simulate(cfg)
    assert exc.value is boom and exc.value.__context__ is None
    assert hooked == [] and threading.active_count() == before
    # the failing unit ran once, and no unit past the window started
    assert started.count(start + a) == 1
    assert len(started) <= 3 + 2 * 3 < len(units)


def test_below_one_unit_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(simcore, "_WORKERS", 3)
    monkeypatch.setattr(threading, "Thread", no_thread)
    ran = []
    assert list(simcore._run_units(ran.append, 1)) == [None]
    assert ran == [0]
    cfg = WORKER_CASES["below_one_unit"](slow_drift_config())
    assert len(simcore._round_units(cfg)) == 1
    assert simcore.collect_rounds(cfg).emitted.sum() == cfg.rounds

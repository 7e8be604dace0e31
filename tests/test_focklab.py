import math
import tracemalloc

import numpy as np
import pytest

from pmqkd.detection import k_photon_clicks, single_photon_clicks
from pmqkd.focklab import (
    beam_split,
    build_protocol_state,
    fock_state,
    hadamard_qubits,
    k_photon_interference_probs,
    lemma1_check,
)

from oracles import (
    CutoffOverflowError,
    coherent_parity_decompose,
    coherent_vector,
    phase_average_dephase,
)

PI = math.pi


# --- beam splitter ------------------------------------------------------------


def test_beam_split_single_photon():
    modes = beam_split(fock_state(1, 0))[0, 0]
    s = 1 / math.sqrt(2)
    assert modes[1, 0] == pytest.approx(s, rel=1e-12)
    assert modes[0, 1] == pytest.approx(s, rel=1e-12)
    assert np.sum(np.abs(modes) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_beam_split_hong_ou_mandel():
    modes = beam_split(fock_state(1, 1))[0, 0]
    s = 1 / math.sqrt(2)
    assert abs(modes[1, 1]) < 1e-14
    assert modes[2, 0] == pytest.approx(s, rel=1e-12)
    assert modes[0, 2] == pytest.approx(-s, rel=1e-12)


def test_beam_split_two_photons_one_arm():
    modes = beam_split(fock_state(2, 0))[0, 0]
    assert modes[2, 0] == pytest.approx(0.5, rel=1e-12)
    assert modes[1, 1] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert modes[0, 2] == pytest.approx(0.5, rel=1e-12)


def test_beam_split_unitary_on_random_states():
    rng = np.random.default_rng(8)
    d = 9
    tot = np.add.outer(np.arange(d), np.arange(d))
    for _ in range(20):
        amps = rng.normal(size=(2, 2, d, d)) + 1j * rng.normal(size=(2, 2, d, d))
        amps[:, :, tot >= d] = 0.0  # keep the transform exact
        amps /= np.linalg.norm(amps)
        out = beam_split(amps)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        # applying the splitter twice returns the input (self-inverse map)
        assert np.max(np.abs(beam_split(out) - amps)) < 1e-12


def test_beam_split_does_not_depend_on_the_cutoff():
    # each photon number mixes on its own, so padding the array changes no bit
    rng = np.random.default_rng(8)
    d = 9
    amps = rng.normal(size=(2, 2, d, d)) + 1j * rng.normal(size=(2, 2, d, d))
    amps[:, :, np.add.outer(np.arange(d), np.arange(d)) > 8] = 0.0
    padded = np.zeros((2, 2, 13, 13), dtype=complex)
    padded[:, :, :d, :d] = amps
    out = beam_split(amps)
    out_padded = beam_split(padded)
    assert np.array_equal(out_padded[:, :, :d, :d], out)
    assert not out_padded[:, :, d:, :].any() and not out_padded[:, :, :, d:].any()


def test_beam_split_memory_grows_with_the_state_not_its_square():
    # a dense two-mode matrix on a 41x41 array would take 41**4 * 16 B = 45 MB;
    # fock_state(20, 0) alone is only 21x21, so pad it
    state = np.zeros((2, 2, 41, 41), dtype=complex)
    state[0, 0, 20, 0] = 1.0
    tracemalloc.start()
    try:
        out = beam_split(state)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert held < 1e6
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


# --- protocol states ------------------------------------------------------------


def _expected_protocol_state(k: int, cutoff: int) -> np.ndarray:
    """Independent construction: binomial expansion of the split k-photon
    pulse with the four qubit branches written out explicitly."""
    d = cutoff + 1
    sym = np.zeros((d, d), dtype=complex)
    anti = np.zeros((d, d), dtype=complex)
    norm = math.sqrt(2.0**k * math.factorial(k))
    for j in range(k + 1):
        coeff = math.comb(k, j) * math.sqrt(math.factorial(j) * math.factorial(k - j))
        sym[j, k - j] = coeff / norm
        anti[j, k - j] = coeff * (-1.0) ** (k - j) / norm
    amps = np.zeros((2, 2, d, d), dtype=complex)
    if k % 2 == 1:
        amps[0, 0] = 0.5 * sym
        amps[1, 1] = 0.5 * sym
        amps[0, 1] = 0.5j * anti
        amps[1, 0] = -0.5j * anti
    else:
        amps[0, 0] = 0.5 * sym
        amps[1, 1] = -0.5 * sym
        amps[0, 1] = 0.5j * anti
        amps[1, 0] = 0.5j * anti
    return amps


@pytest.mark.parametrize("k", [1, 2, 3])
def test_protocol_state_coefficients(k):
    state = build_protocol_state(k)
    assert state.shape == (2, 2, k + 1, k + 1)
    assert np.max(np.abs(state - _expected_protocol_state(k, k))) < 1e-12


def test_protocol_state_vacuum_qubit_rank():
    state = build_protocol_state(0)
    rho = np.einsum("abnm,cdnm->abcd", state, state.conj())
    rho4 = rho.reshape(4, 4)
    eigs = np.linalg.eigvalsh(rho4)
    assert (eigs > 1e-12).sum() == 1  # vacuum leaves the qubits pure


def test_protocol_state_normalized():
    for k in range(9):
        assert np.linalg.norm(build_protocol_state(k)) == pytest.approx(1.0, abs=1e-12)


# --- parity relations -------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_lemma1_residuals(k):
    res = lemma1_check(k)
    assert res.relation_residual < 1e-10
    assert res.identity_residual < 1e-10
    if k % 2 == 1:
        assert res.e_x == pytest.approx(res.e_z, abs=1e-10)
    else:
        assert res.e_x == pytest.approx(1.0 - res.e_z, abs=1e-10)


def test_lemma1_rejects_vacuum():
    with pytest.raises(ValueError):
        lemma1_check(0)


def test_hadamard_is_involution():
    state = build_protocol_state(3)
    twice = hadamard_qubits(hadamard_qubits(state))
    assert np.max(np.abs(twice - state)) < 1e-12


# --- coherent state helpers ----------------------------------------------------------


def test_coherent_vector_norm_and_poisson():
    vec = coherent_vector(math.sqrt(0.8), cutoff=40)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    probs = np.abs(vec) ** 2
    w = math.exp(-0.8)
    for k in range(6):
        assert probs[k] == pytest.approx(w, rel=1e-10)
        w *= 0.8 / (k + 1)


def test_parity_decomposition_weights():
    d0 = coherent_parity_decompose(0.0)
    assert d0.c_odd == 0.0
    assert d0.c_even == 1.0
    d1 = coherent_parity_decompose(1.0)
    series = sum(1.0 ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(30))
    assert d1.c_odd == pytest.approx(math.exp(-1.0) * series, rel=1e-12)
    assert d1.c_odd == pytest.approx(0.432332358381694, rel=1e-12)
    assert d1.c_odd + d1.c_even == pytest.approx(1.0, abs=1e-12)


def test_parity_decomposition_reconstructs_mixture():
    mu = 1.3
    dec = coherent_parity_decompose(mu)
    cutoff = len(dec.odd_vec) - 1
    plus = coherent_vector(math.sqrt(mu), cutoff)
    minus = coherent_vector(-math.sqrt(mu), cutoff)
    mixture = 0.5 * (np.outer(plus, plus.conj()) + np.outer(minus, minus.conj()))
    rebuilt = dec.c_odd * np.outer(dec.odd_vec, dec.odd_vec.conj()) + dec.c_even * np.outer(
        dec.even_vec, dec.even_vec.conj()
    )
    diff = mixture - rebuilt
    trace_distance = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)))
    assert trace_distance < 1e-12


def test_parity_decomposition_cutoff_guard():
    with pytest.raises(CutoffOverflowError):
        coherent_parity_decompose(5.0, cutoff=6)


def test_phase_average_dephases_to_poisson():
    mu, cutoff = 1.0, 10
    rho = phase_average_dephase(mu, 64, cutoff)
    off = rho - np.diag(np.diag(rho))
    assert np.max(np.abs(off)) < 1e-12
    w = math.exp(-mu)
    for k in range(cutoff + 1):
        assert rho[k, k].real == pytest.approx(w, rel=1e-10)
        w *= mu / (k + 1)
    tail = 1.0 - sum(
        math.exp(-mu) * mu**k / math.factorial(k) for k in range(cutoff + 1)
    )
    assert float(np.trace(rho).real) == pytest.approx(1.0 - tail, abs=1e-12)


def test_phase_average_vacuum():
    rho = phase_average_dephase(0.0, 24, 8)
    expect = np.zeros((9, 9))
    expect[0, 0] = 1.0
    assert np.max(np.abs(rho - expect)) < 1e-14


def test_phase_average_needs_enough_points():
    with pytest.raises(ValueError):
        phase_average_dephase(1.0, 12, 10)


# --- click oracle agreement ------------------------------------------------------------


def test_click_oracle_matches_closed_forms():
    worst = 0.0
    for k in range(0, 5):
        for eta in (0.25, 0.5, 1.0):
            for phi in (0.0, PI / 2, PI):
                oracle = k_photon_interference_probs(k, eta, phi)
                model = k_photon_clicks(k, eta, phi)
                worst = max(
                    worst,
                    max(abs(a - b) for a, b in zip(oracle.as_tuple(), model.as_tuple())),
                )
    assert worst < 1e-9


def test_click_oracle_single_photon_general_angle():
    oracle = k_photon_interference_probs(1, 0.37, 1.234)
    model = single_photon_clicks(0.37, 1.234)
    assert oracle.as_tuple() == pytest.approx(model.as_tuple(), abs=1e-12)

"""Truncated-Fock-space oracle for states, parity relations and clicks.

States are plain complex amplitude arrays of shape (2, 2, d, d) over
(qubit, qubit, mode, mode), with d - 1 the photon number of the input.
A beam splitter conserves the photon number, so two-mode mixing is
applied one n-photon block at a time, nothing grows faster than the
amplitudes themselves, and no truncation can cut a populated state.
Channel loss is modeled by an explicit beam splitter into an
environment mode followed by a probability marginal, which keeps every
click probability exact.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .detection import ClickProbs, _check_photon_number, _check_prob

_AMP_TOL = 1e-14


# ---------------------------------------------------------------------------
# generic two-mode mixing on the truncated number basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _mix_block(n: int, u00: float, u01: float, u10: float, u11: float) -> np.ndarray:
    """n-photon block of a1+ -> u00*a1+ + u01*a2+, a2+ -> u10*a1+ + u11*a2+.

    The map conserves the photon number, so it acts on the states
    |n1, n-n1> alone: entry [m1, n1] is <m1, n-m1| U |n1, n-n1>.  The
    cached block is read-only.
    """
    lg = [math.lgamma(m + 1) for m in range(n + 1)]
    block = np.zeros((n + 1, n + 1), dtype=complex)
    for n1 in range(n + 1):
        n2 = n - n1
        for i in range(n1 + 1):
            ci = math.comb(n1, i) * u00**i * u01 ** (n1 - i)
            for j in range(n2 + 1):
                cj = math.comb(n2, j) * u10**j * u11 ** (n2 - j)
                m1 = i + j
                norm = math.exp(0.5 * (lg[m1] + lg[n - m1] - lg[n1] - lg[n2]))
                block[m1, n1] += ci * cj * norm
    block.flags.writeable = False
    return block


_BS_COEFF = 1.0 / math.sqrt(2.0)
# a+ -> (a+ + b+)/sqrt(2), b+ -> (a+ - b+)/sqrt(2)
_BS = (_BS_COEFF, _BS_COEFF, _BS_COEFF, -_BS_COEFF)


def _apply_pair(amps: np.ndarray, axis1: int, axis2: int, u: tuple) -> np.ndarray:
    """Mix two Fock axes of an amplitude array, one photon number at a time.

    Block n acts on the anti-diagonal n1 + n2 = n.  Entries with
    n1 + n2 >= d stay zero; callers must ensure those inputs are
    unpopulated.
    """
    moved = np.moveaxis(amps, (axis1, axis2), (-2, -1))
    out = np.zeros(moved.shape, dtype=complex)
    for n in range(moved.shape[-1]):
        n1 = np.arange(n + 1)
        out[..., n1, n - n1] = moved[..., n1, n - n1] @ _mix_block(n, *u).T
    return np.moveaxis(out, (-2, -1), (axis1, axis2))


# ---------------------------------------------------------------------------
# protocol states: complex arrays over (qubit, qubit, mode, mode)
# ---------------------------------------------------------------------------


def fock_state(n_a: int, n_b: int) -> np.ndarray:
    """|n_a, n_b> with both qubits in |0>, truncated at n_a + n_b photons per mode."""
    d = n_a + n_b + 1
    amps = np.zeros((2, 2, d, d), dtype=complex)
    amps[0, 0, n_a, n_b] = 1.0
    return amps


def beam_split(amps: np.ndarray) -> np.ndarray:
    """50/50 beam splitter on the two optical modes of a (2, 2, d, d) state.

    Number-basis substitution a+ -> (a+ + b+)/sqrt(2),
    b+ -> (a+ - b+)/sqrt(2).  The output is exact when no populated
    basis state holds more than d - 1 photons in total.  Every state
    built here meets that: it is truncated at its own photon number,
    which the splitter conserves.
    """
    return _apply_pair(amps, 2, 3, _BS)


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def hadamard_qubits(amps: np.ndarray) -> np.ndarray:
    return np.einsum("ax,by,xynm->abnm", _HADAMARD, _HADAMARD, amps)


def pauli_y_bob(amps: np.ndarray) -> np.ndarray:
    return np.einsum("by,xynm->xbnm", _PAULI_Y, amps)


def build_protocol_state(k: int) -> np.ndarray:
    """Entangled qubit-mode state for a k-photon source round.

    A k-photon pulse is split on the balanced beam splitter, both
    qubits start in (|0>+i|1>)/sqrt(2), and each party applies its
    controlled pi-phase gate to its arm.  No mode can hold more than k
    photons, so the state is truncated at k.
    """
    modes = beam_split(fock_state(k, 0))[0, 0]
    amps = np.zeros((2, 2, k + 1, k + 1), dtype=complex)
    qubit_coeff = {(0, 0): 0.5, (0, 1): 0.5j, (1, 0): 0.5j, (1, 1): -0.5}
    sign = np.where(np.arange(k + 1) % 2 == 0, 1.0, -1.0)
    for (qa, qb), coeff in qubit_coeff.items():
        block = modes
        if qa:
            block = block * sign[:, None]  # pi phase per photon in arm A
        if qb:
            block = block * sign[None, :]
        amps[qa, qb] = coeff * block
    return amps


@dataclass(frozen=True)
class Lemma1Result:
    k: int
    e_x: float
    e_z: float
    relation_residual: float
    identity_residual: float


def _qubit_density_in_sector(amps: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Unnormalized 4x4 qubit density from mode sectors selected by mask."""
    sel = amps[:, :, mask]  # (2, 2, n_sel)
    flat = sel.reshape(4, -1)
    return flat @ flat.conj().T


def _disagreement(rho: np.ndarray) -> float:
    # P(Z_a != Z_b) on a (possibly unnormalized) density in the 00,01,10,11 basis
    return float(rho[1, 1].real + rho[2, 2].real)


_H2 = np.kron(_HADAMARD, _HADAMARD)
_IY = np.kron(np.eye(2), _PAULI_Y)


def _click_masks(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L, R and double-click sectors of a (d, d) detector photon-number grid."""
    n_l = np.arange(d)[:, None]
    n_r = np.arange(d)[None, :]
    return (n_l >= 1) & (n_r == 0), (n_l == 0) & (n_r >= 1), (n_l >= 1) & (n_r >= 1)


def _sector_identity_residual(amps_a: np.ndarray, amps_b: np.ndarray) -> float:
    """Phase-insensitive comparison within each interference sector.

    The symmetric and antisymmetric mode components feed different
    detectors, so equality up to one phase per sector is what fixes the
    announced-outcome measurement statistics.  Interfering both states
    separates the sectors into disjoint photon-number populations.
    """
    d = amps_a.shape[-1]
    ia = beam_split(amps_a)
    ib = beam_split(amps_b)
    n_l = np.arange(d)[:, None]
    n_r = np.arange(d)[None, :]
    residual = 0.0
    # unlike the click masks, each sector keeps the vacuum: the states must agree there too
    for mask in ((n_l >= 0) & (n_r == 0), (n_l == 0) & (n_r >= 0)):
        ua = ia[:, :, mask].ravel()
        ub = ib[:, :, mask].ravel()
        na, nb = np.linalg.norm(ua), np.linalg.norm(ub)
        if na < _AMP_TOL and nb < _AMP_TOL:
            continue
        if min(na, nb) < _AMP_TOL:
            return 1.0
        residual = max(residual, abs(1.0 - abs(np.vdot(ua, ub)) / (na * nb)))
    return residual


def lemma1_check(k: int) -> Lemma1Result:
    """Numerical check of the parity relation between X and Z errors.

    Builds the k-photon protocol state, verifies that its
    double-Hadamard image matches the state itself for odd k and its
    (I x Y) image for even k (sector-wise, up to per-sector phases),
    then evaluates both error rates under the honest lossless
    interference measurement.  The returned relation residual is
    |e_x - e_z| for odd k and |e_x - (1 - e_z)| for even k.  Every
    step conserves the photon number, so the truncation at k is exact.
    """
    if k < 1:
        raise ValueError("k must be >= 1; the vacuum never produces a click")
    psi0 = build_protocol_state(k)
    target = psi0 if k % 2 == 1 else pauli_y_bob(psi0)
    identity_residual = _sector_identity_residual(hadamard_qubits(psi0), target)

    interfered = beam_split(psi0)
    mask_l, mask_r, _ = _click_masks(k + 1)
    rho = _qubit_density_in_sector(interfered, mask_l)
    rho_r = _qubit_density_in_sector(interfered, mask_r)
    rho = rho + _IY @ rho_r @ _IY.conj().T  # Bob flips on an R announcement
    p_click = float(np.trace(rho).real)
    if p_click <= 0.0:
        raise ValueError("no single-click probability; cannot define error rates")
    e_z = _disagreement(rho) / p_click
    rho_x = _H2 @ rho @ _H2.T
    e_x = _disagreement(rho_x) / p_click
    relation = abs(e_x - e_z) if k % 2 == 1 else abs(e_x - (1.0 - e_z))
    return Lemma1Result(
        k=k,
        e_x=e_x,
        e_z=e_z,
        relation_residual=relation,
        identity_residual=identity_residual,
    )


# ---------------------------------------------------------------------------
# click-probability oracle: loss stage + interference
# ---------------------------------------------------------------------------


def k_photon_interference_probs(k: int, eta: float, phi_delta: float) -> ClickProbs:
    """Click probabilities of a split k-photon input, via state evolution.

    The input (a+ + e^{i phi} b+)^k acquires per-arm loss through
    explicit environment modes and interferes on the balanced beam
    splitter; outcomes are read from the photon-number marginal of the
    detector modes.  Serves as the independent oracle for the
    closed-form detection model.
    """
    _check_photon_number(k)
    _check_prob("eta", eta)
    d = k + 1
    psi = np.zeros((d, d, d, d), dtype=complex)  # modes: a, b, env_a, env_b
    norm = math.sqrt(2.0**k * math.factorial(k))
    for j in range(k + 1):
        amp = (
            math.comb(k, j)
            * cmath.exp(1j * phi_delta * (k - j))
            * math.sqrt(math.factorial(j) * math.factorial(k - j))
        )
        psi[j, k - j, 0, 0] = amp / norm
    t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
    loss = (t, r, -r, t)  # a+ -> t a+ + r e+, e+ -> -r a+ + t e+
    psi = _apply_pair(psi, 0, 2, loss)
    psi = _apply_pair(psi, 1, 3, loss)
    psi = _apply_pair(psi, 0, 1, _BS)
    probs = np.sum(np.abs(psi) ** 2, axis=(2, 3))  # marginal over environments
    return ClickProbs(float(probs[0, 0]), *(float(probs[m].sum()) for m in _click_masks(d)))

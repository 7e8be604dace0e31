"""Truncated-Fock-space oracle for states, parity relations and clicks.

Dense complex amplitudes over (qubit, qubit, mode, mode); the spaces
are tiny at the default cutoff of 16 photons per mode, so there is no
sparse machinery.  Channel loss is modeled by an explicit beam splitter
into an environment mode followed by a probability marginal, which
keeps every click probability exact within the truncation.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .detection import ClickProbs

DEFAULT_CUTOFF = 16

_AMP_TOL = 1e-14


class CutoffOverflowError(ValueError):
    """A transformation would push amplitude beyond the photon cutoff."""


# ---------------------------------------------------------------------------
# generic two-mode mixing on the truncated number basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _pair_mix_matrix(cutoff: int, u00: complex, u01: complex, u10: complex, u11: complex):
    """Matrix of a1+ -> u00*a1+ + u01*a2+, a2+ -> u10*a1+ + u11*a2+.

    Acts on the flattened pair basis index n1*(cutoff+1)+n2.  Columns
    with n1+n2 > cutoff are zeroed; callers must ensure those inputs
    are unpopulated.
    """
    d = cutoff + 1
    mat = np.zeros((d * d, d * d), dtype=complex)
    lg = [math.lgamma(n + 1) for n in range(2 * d)]
    for n1 in range(d):
        for n2 in range(d):
            if n1 + n2 > cutoff:
                continue
            col = n1 * d + n2
            total = n1 + n2
            for i in range(n1 + 1):
                ci = math.comb(n1, i) * u00**i * u01 ** (n1 - i)
                for j in range(n2 + 1):
                    cj = math.comb(n2, j) * u10**j * u11 ** (n2 - j)
                    m1 = i + j
                    m2 = total - m1
                    norm = math.exp(0.5 * (lg[m1] + lg[m2] - lg[n1] - lg[n2]))
                    mat[m1 * d + m2, col] += ci * cj * norm
    return mat


_BS_COEFF = 1.0 / math.sqrt(2.0)


def _bs_matrix(cutoff: int):
    # a+ -> (a+ + b+)/sqrt(2), b+ -> (a+ - b+)/sqrt(2)
    return _pair_mix_matrix(cutoff, _BS_COEFF, _BS_COEFF, _BS_COEFF, -_BS_COEFF)


def _loss_matrix(cutoff: int, eta: float):
    t = math.sqrt(eta)
    r = math.sqrt(1.0 - eta)
    return _pair_mix_matrix(cutoff, t, r, -r, t)


def _apply_pair(amps: np.ndarray, axis1: int, axis2: int, matrix: np.ndarray) -> np.ndarray:
    """Apply a pair-basis matrix to two Fock axes of an amplitude array."""
    d = amps.shape[axis1]
    moved = np.moveaxis(amps, (axis1, axis2), (-2, -1))
    lead = moved.shape[:-2]
    flat = moved.reshape(-1, d * d)
    out = flat @ matrix.T
    out = out.reshape(*lead, d, d)
    return np.moveaxis(out, (-2, -1), (axis1, axis2))


# ---------------------------------------------------------------------------
# protocol states on (qubit, qubit, mode, mode)
# ---------------------------------------------------------------------------


@dataclass
class TwoModeState:
    """Pure state on qubit_a x qubit_b x two truncated optical modes."""

    cutoff_n: int
    amplitudes: np.ndarray  # complex, shape (2, 2, cutoff+1, cutoff+1)

    @classmethod
    def from_fock(
        cls, n_a: int, n_b: int, cutoff: int, qubits: tuple[int, int] = (0, 0)
    ) -> "TwoModeState":
        if not (0 <= n_a <= cutoff and 0 <= n_b <= cutoff):
            raise CutoffOverflowError(f"photon numbers ({n_a}, {n_b}) exceed cutoff {cutoff}")
        amps = np.zeros((2, 2, cutoff + 1, cutoff + 1), dtype=complex)
        amps[qubits[0], qubits[1], n_a, n_b] = 1.0
        return cls(cutoff_n=cutoff, amplitudes=amps)

    def mode_marginal(self) -> np.ndarray:
        """Joint photon-number distribution P(n_a, n_b), qubits traced out."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=(0, 1))

    def _max_total_photons(self) -> int:
        d = self.cutoff_n + 1
        pops = self.mode_marginal()
        tot = np.add.outer(np.arange(d), np.arange(d))
        populated = pops > _AMP_TOL**2
        return int(tot[populated].max()) if populated.any() else 0


def beam_split(state: TwoModeState) -> TwoModeState:
    """50/50 beam splitter on the two optical modes.

    Number-basis substitution a+ -> (a+ + b+)/sqrt(2),
    b+ -> (a+ - b+)/sqrt(2).  Requires every populated basis state to
    hold at most ``cutoff`` photons in total so the output is exact.
    """
    if state._max_total_photons() > state.cutoff_n:
        raise CutoffOverflowError(
            "total photon number exceeds the per-mode cutoff; output would truncate"
        )
    out = _apply_pair(state.amplitudes, 2, 3, _bs_matrix(state.cutoff_n))
    return TwoModeState(cutoff_n=state.cutoff_n, amplitudes=out)


def hadamard_qubits(state: TwoModeState) -> TwoModeState:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    amps = np.einsum("ax,by,xynm->abnm", h, h, state.amplitudes)
    return TwoModeState(cutoff_n=state.cutoff_n, amplitudes=amps)


_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def pauli_y_bob(state: TwoModeState) -> TwoModeState:
    amps = np.einsum("by,xynm->xbnm", _PAULI_Y, state.amplitudes)
    return TwoModeState(cutoff_n=state.cutoff_n, amplitudes=amps)


def build_protocol_state(k: int, cutoff: int = DEFAULT_CUTOFF) -> TwoModeState:
    """Entangled qubit-mode state for a k-photon source round.

    A k-photon pulse is split on the balanced beam splitter, both
    qubits start in (|0>+i|1>)/sqrt(2), and each party applies its
    controlled pi-phase gate to its arm.
    """
    if k > cutoff:
        raise CutoffOverflowError(f"k={k} exceeds cutoff {cutoff}")
    split = beam_split(TwoModeState.from_fock(k, 0, cutoff))
    modes = split.amplitudes[0, 0]
    d = cutoff + 1
    amps = np.zeros((2, 2, d, d), dtype=complex)
    qubit_coeff = {(0, 0): 0.5, (0, 1): 0.5j, (1, 0): 0.5j, (1, 1): -0.5}
    ns = np.arange(d)
    sign = np.where(ns % 2 == 0, 1.0, -1.0)
    for (qa, qb), coeff in qubit_coeff.items():
        block = modes.copy()
        if qa:
            block = block * sign[:, None]  # pi phase per photon in arm A
        if qb:
            block = block * sign[None, :]
        amps[qa, qb] = coeff * block
    return TwoModeState(cutoff_n=cutoff, amplitudes=amps)


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


_H2 = np.kron(
    np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
    np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
)
_IY = np.kron(np.eye(2), _PAULI_Y)


def _sector_identity_residual(state_a: TwoModeState, state_b: TwoModeState) -> float:
    """Phase-insensitive comparison within each interference sector.

    The symmetric and antisymmetric mode components feed different
    detectors, so equality up to one phase per sector is what fixes the
    announced-outcome measurement statistics.  Interfering both states
    separates the sectors into disjoint photon-number populations.
    """
    d = state_a.cutoff_n + 1
    ia = beam_split(state_a).amplitudes
    ib = beam_split(state_b).amplitudes
    n_l = np.arange(d)[:, None]
    n_r = np.arange(d)[None, :]
    residual = 0.0
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


def lemma1_check(k: int, cutoff: int | None = None) -> Lemma1Result:
    """Numerical check of the parity relation between X and Z errors.

    Builds the k-photon protocol state, verifies that its
    double-Hadamard image matches the state itself for odd k and its
    (I x Y) image for even k (sector-wise, up to per-sector phases),
    then evaluates both error rates under the honest lossless
    interference measurement.  The returned relation residual is
    |e_x - e_z| for odd k and |e_x - (1 - e_z)| for even k.
    """
    if k < 1:
        raise ValueError("k must be >= 1; the vacuum never produces a click")
    c = cutoff if cutoff is not None else max(DEFAULT_CUTOFF, k)
    psi0 = build_protocol_state(k, c)
    psi_hh = hadamard_qubits(psi0)
    target = psi0 if k % 2 == 1 else pauli_y_bob(psi0)
    identity_residual = _sector_identity_residual(psi_hh, target)

    interfered = beam_split(psi0)
    d = c + 1
    n_l = np.arange(d)[:, None]
    n_r = np.arange(d)[None, :]
    mask_l = (n_l >= 1) & (n_r == 0)
    mask_r = (n_l == 0) & (n_r >= 1)

    rho = _qubit_density_in_sector(interfered.amplitudes, mask_l)
    rho_r = _qubit_density_in_sector(interfered.amplitudes, mask_r)
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
# click-probability oracle: loss stage + interference, exact in cutoff
# ---------------------------------------------------------------------------


def k_photon_interference_probs(k: int, eta: float, phi_delta: float) -> ClickProbs:
    """Click probabilities of a split k-photon input, via state evolution.

    The input (a+ + e^{i phi} b+)^k acquires per-arm loss through
    explicit environment modes and interferes on the balanced beam
    splitter; outcomes are read from the photon-number marginal of the
    detector modes.  Serves as the independent oracle for the
    closed-form detection model.
    """
    if k < 0:
        raise ValueError("photon number must be nonnegative")
    if not (0.0 <= eta <= 1.0):
        raise ValueError("eta must be in [0, 1]")
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
    loss = _loss_matrix(k, eta)
    psi = _apply_pair(psi, 0, 2, loss)
    psi = _apply_pair(psi, 1, 3, loss)
    psi = _apply_pair(psi, 0, 1, _bs_matrix(k))
    probs = np.sum(np.abs(psi) ** 2, axis=(2, 3))  # marginal over environments
    n_l = np.arange(d)[:, None]
    n_r = np.arange(d)[None, :]
    p_none = float(probs[0, 0])
    p_left = float(probs[(n_l >= 1) & (n_r == 0)].sum())
    p_right = float(probs[(n_l == 0) & (n_r >= 1)].sum())
    p_double = float(probs[(n_l >= 1) & (n_r >= 1)].sum())
    return ClickProbs(p_none, p_left, p_right, p_double)

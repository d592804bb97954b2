"""Effective noisy controlled-swap channel built from pulse averages.

Each photon carries, besides its polarization qubit, a three-way mode
register: 0 = nominal pulse shape, 1 = the orthogonal (distorted) remainder,
2 = lost.  A single orthogonal bucket per photon is exact for fidelity
purposes — only the projection onto the nominal mode matters.

Branch structure: with the atom in |0> both photons reflect and keep their
ports; in |1> both transmit and the ports exchange contents.  When both
photons survive, nothing in the environment records the branch, so that
component stays a coherent pure state.  A loss event (spontaneous emission
or a wrong-port exit) leaves an environment record, so loss sectors are
classical: diagonal in the atomic branch and in which photon was lost, while
a surviving partner photon keeps its internal coherence.

Full space: atom (2) x [pol (2) x mode (3)] per port, 72 dimensions, flat
index in C order of the shape (2, 2, 3, 2, 3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pulses import OverlapSet

MODE_IDEAL = 0
MODE_DISTORTED = 1
MODE_LOST = 2

_PORT_DIM = 6  # pol x mode
_DIM = 2 * _PORT_DIM * _PORT_DIM


@dataclass(frozen=True)
class OutputDensity:
    """Density operator over atom x two extended photon ports, together with
    the per-branch ideal output vectors used by the fidelity."""

    matrix: np.ndarray
    branch_targets: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if mat.shape != (_DIM, _DIM):
            raise ValueError(f"density matrix must be {_DIM}x{_DIM}")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        trace = float(np.trace(mat).real)
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {trace!r} deviates from 1")
        if float(np.linalg.eigvalsh(mat)[0]) < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")


def _normalized_pair(amp, label):
    pair = np.asarray(amp, dtype=complex).reshape(-1)
    if pair.shape != (2,):
        raise ValueError(f"{label} must be a length-2 (h, v) amplitude pair")
    if abs(np.linalg.norm(pair) - 1.0) > 1e-12:
        raise ValueError(f"{label} amplitudes must be normalized")
    return pair


def _branch_fields(ov, branch, pol):
    # (survival probability, mode overlap): atomic branch 0 reflects, 1 transmits
    key = "reflect" if branch == 0 else "transmit"
    return getattr(ov, f"{key}_prob_{pol}"), getattr(ov, f"{key}_overlap_{pol}")


def _survivor_vector(ov, branch, pair):
    """6-vector of the surviving photon amplitude at one output port."""
    out = np.zeros(_PORT_DIM, dtype=complex)
    for qi, pol in enumerate(("h", "v")):
        prob, xi = _branch_fields(ov, branch, pol)
        s = math.sqrt(prob)
        chi = math.sqrt(max(0.0, 1.0 - abs(xi) ** 2))
        out[3 * qi + MODE_IDEAL] = pair[qi] * s * xi
        out[3 * qi + MODE_DISTORTED] = pair[qi] * s * chi
    return out


def _lost_diagonal(ov, branch, pair):
    """6x6 diagonal weight of the lost component at one output port."""
    diag = np.zeros(_PORT_DIM)
    for qi, pol in enumerate(("h", "v")):
        prob, _ = _branch_fields(ov, branch, pol)
        diag[3 * qi + MODE_LOST] = abs(pair[qi]) ** 2 * (1.0 - prob)
    return np.diag(diag).astype(complex)


def apply_noisy_cswap(
    ov: OverlapSet,
    photon_left=(1.0, 0.0),
    photon_right=(0.0, 1.0),
    atom=(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
) -> OutputDensity:
    """Output density operator of the noisy gate on a product input.

    ``ov`` holds the pulse averages, e.g. ``pulses.overlaps(params, pulse)``:
    the reflect_* entries act in atomic branch 0, transmit_* in branch 1.
    Photons are given as (h, v) amplitude pairs at the left and right ports,
    the atom as (c0, c1); defaults are the typical input: atom in
    (|0>+|1>)/sqrt(2), photons |h> and |v>.
    """
    left = _normalized_pair(photon_left, "photon_left")
    right = _normalized_pair(photon_right, "photon_right")
    atom_amp = _normalized_pair(atom, "atom")

    rho = np.zeros((_DIM, _DIM), dtype=complex)

    # both-photons-survive component: coherent across atomic branches
    psi = np.zeros(_DIM, dtype=complex)
    survivors = {}
    for b in (0, 1):
        # branch 0 keeps ports, branch 1 exchanges their contents
        at_left, at_right = (left, right) if b == 0 else (right, left)
        s_left = _survivor_vector(ov, b, at_left)
        s_right = _survivor_vector(ov, b, at_right)
        survivors[b] = (s_left, s_right, at_left, at_right)
        atom_ket = np.zeros(2, dtype=complex)
        atom_ket[b] = atom_amp[b]
        psi += np.kron(atom_ket, np.kron(s_left, s_right))
    rho += np.outer(psi, psi.conj())

    # loss sectors: diagonal in (branch, loss pattern); the surviving photon
    # keeps its coherence
    for b in (0, 1):
        s_left, s_right, at_left, at_right = survivors[b]
        weight = abs(atom_amp[b]) ** 2
        atom_proj = np.zeros((2, 2), dtype=complex)
        atom_proj[b, b] = 1.0
        lost_left = _lost_diagonal(ov, b, at_left)
        lost_right = _lost_diagonal(ov, b, at_right)
        alive_left = np.outer(s_left, s_left.conj())
        alive_right = np.outer(s_right, s_right.conj())
        rho += weight * np.kron(atom_proj, np.kron(lost_left, alive_right))
        rho += weight * np.kron(atom_proj, np.kron(alive_left, lost_right))
        rho += weight * np.kron(atom_proj, np.kron(lost_left, lost_right))

    targets = []
    for b in (0, 1):
        _, _, at_left, at_right = survivors[b]
        atom_ket = np.zeros(2, dtype=complex)
        atom_ket[b] = 1.0
        port_left = np.zeros(_PORT_DIM, dtype=complex)
        port_right = np.zeros(_PORT_DIM, dtype=complex)
        for qi in range(2):
            port_left[3 * qi + MODE_IDEAL] = at_left[qi]
            port_right[3 * qi + MODE_IDEAL] = at_right[qi]
        targets.append(np.kron(atom_ket, np.kron(port_left, port_right)))

    return OutputDensity(rho, (targets[0], targets[1]))


def _presence_diag() -> np.ndarray:
    """Diagonal of the both-photons-present projector."""
    keep = np.ones(3)
    keep[MODE_LOST] = 0.0
    port = np.repeat(keep[None, :], 2, axis=0).reshape(-1)  # pol x mode
    return np.kron(np.ones(2), np.kron(port, port))


def loss_probability(rho: OutputDensity) -> float:
    """Probability that at least one photon was lost."""
    present = float(np.sum(np.diag(rho.matrix).real * _presence_diag()))
    return min(max(1.0 - present, 0.0), 1.0)


def fidelity(rho: OutputDensity) -> float:
    """Overlap with the ideal entangled output under per-branch renormalization.

    Each atomic branch is renormalized by its own survival probability and the
    branches enter with equal weight 1/2; this is exactly the convention under
    which the closed-form metric from the pulse averages is recovered.
    """
    mat = rho.matrix
    psi0, psi1 = rho.branch_targets
    blocks = mat.reshape(2, _PORT_DIM**2, 2, _PORT_DIM**2)
    # port-space presence diagonal (identical for both atom values)
    presence = _presence_diag().reshape(2, -1)[0]
    weights = []
    for b in (0, 1):
        block = blocks[b, :, b, :]
        total = float(np.trace(block).real)
        surviving = float(np.sum(np.diag(block).real * presence))
        weights.append(surviving / total if total > 0.0 else 0.0)
    value = 0.0j
    for b, psi_b in ((0, psi0), (1, psi1)):
        for bp, psi_bp in ((0, psi0), (1, psi1)):
            w = math.sqrt(weights[b] * weights[bp])
            if w <= 0.0:
                continue
            value += np.vdot(psi_b, mat @ psi_bp) / w
    return min(max(0.5 * value.real, 0.0), 1.0)

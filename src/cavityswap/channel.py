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
        if not np.max(np.abs(mat - mat.conj().T)) <= 1e-10:
            raise ValueError("density matrix is not Hermitian")
        trace = float(np.trace(mat).real)
        if not abs(trace - 1.0) <= 1e-10:
            raise ValueError(f"density matrix trace {trace!r} deviates from 1")
        if not float(np.linalg.eigvalsh(mat)[0]) >= -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")


def _normalized_pair(amp, label):
    pair = np.asarray(amp, dtype=complex).reshape(-1)
    if pair.shape != (2,):
        raise ValueError(f"{label} must be a length-2 (h, v) amplitude pair")
    if not abs(np.linalg.norm(pair) - 1.0) <= 1e-12:
        raise ValueError(f"{label} amplitudes must be normalized")
    return pair


def _port_state(ov, branch, pair):
    """One photon's (h, v) pair at one output port in one atomic branch,
    over pol x mode: its surviving amplitudes (nominal and distorted), the
    diagonal weights of its lost mode, and its ideal output.  Branch 0
    reflects the photon, branch 1 transmits it."""
    alive = np.zeros(_PORT_DIM, dtype=complex)
    lost = np.zeros(_PORT_DIM)
    ideal = np.zeros(_PORT_DIM, dtype=complex)
    key = "reflect" if branch == 0 else "transmit"
    for qi, pol in enumerate("hv"):
        prob = getattr(ov, f"{key}_prob_{pol}")
        xi = getattr(ov, f"{key}_overlap_{pol}")
        s = math.sqrt(prob)
        chi = math.sqrt(max(0.0, 1.0 - abs(xi) ** 2))
        alive[3 * qi + MODE_IDEAL] = pair[qi] * s * xi
        alive[3 * qi + MODE_DISTORTED] = pair[qi] * s * chi
        lost[3 * qi + MODE_LOST] = abs(pair[qi]) ** 2 * (1.0 - prob)
        ideal[3 * qi + MODE_IDEAL] = pair[qi]
    return alive, np.diag(lost), ideal


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

    blocks = np.zeros((2, _PORT_DIM**2, 2, _PORT_DIM**2), dtype=complex)
    psi = np.zeros(_DIM, dtype=complex)
    targets = []
    # branch 0 keeps the ports, branch 1 exchanges their contents
    for b, (at_left, at_right) in enumerate(((left, right), (right, left))):
        alive_l, lost_l, ideal_l = _port_state(ov, b, at_left)
        alive_r, lost_r, ideal_r = _port_state(ov, b, at_right)
        unit = np.eye(2, dtype=complex)[b]
        # both photons survive: coherent across the branches
        psi += np.kron(atom_amp * unit, np.kron(alive_l, alive_r))
        # the environment records a loss, so the loss sectors (left, right or
        # both lost) are classical in the branch and the loss pattern, and a
        # surviving photon keeps its coherence.  Their supports are disjoint,
        # so these sums are exact
        blocks[b, :, b, :] += abs(atom_amp[b]) ** 2 * (
            np.kron(lost_l, np.outer(alive_r, alive_r.conj()) + lost_r)
            + np.kron(np.outer(alive_l, alive_l.conj()), lost_r)
        )
        targets.append(np.kron(unit, np.kron(ideal_l, ideal_r)))
    rho = blocks.reshape(_DIM, _DIM) + np.outer(psi, psi.conj())
    return OutputDensity(rho, tuple(targets))


# diagonal of the both-photons-present projector
_PRESENT = np.tile(np.kron(*2 * [np.arange(_PORT_DIM) % 3 != MODE_LOST]), 2).astype(float)


def loss_probability(rho: OutputDensity) -> float:
    """Probability that at least one photon was lost."""
    present = float(np.sum(np.diag(rho.matrix).real * _PRESENT))
    return min(max(1.0 - present, 0.0), 1.0)


def fidelity(rho: OutputDensity) -> float:
    """Overlap with the ideal entangled output under per-branch renormalization.

    Each atomic branch is renormalized by its own survival probability and the
    branches enter with equal weight 1/2; this is exactly the convention under
    which the closed-form metric from the pulse averages is recovered.
    """
    mat = rho.matrix
    weights = []
    for diagonal, present in zip(np.diag(mat).reshape(2, -1), _PRESENT.reshape(2, -1)):
        total = float(np.sum(diagonal).real)
        weights.append(float(np.sum(diagonal.real * present)) / total if total > 0.0 else 0.0)
    value = 0.0j
    for psi_b, weight_b in zip(rho.branch_targets, weights):
        for psi_bp, weight_bp in zip(rho.branch_targets, weights):
            w = math.sqrt(weight_b * weight_bp)
            if w > 0.0:
                value += np.vdot(psi_b, mat @ psi_bp) / w
    return min(max(0.5 * value.real, 0.0), 1.0)

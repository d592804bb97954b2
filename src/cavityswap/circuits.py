"""Exact state-vector engine for the atom + photon register.

Conventions: wire 0 is the atom where one is present; photon polarization
maps h -> 0, v -> 1; basis indices are big-endian in wire order (wire 0 is
the most significant bit).  Measurements are handled by exhaustive branch
decomposition — every outcome is retained with its exact probability — so
all verification paths are deterministic.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

_SQRT1_2 = 1.0 / math.sqrt(2.0)

PLUS = np.array([_SQRT1_2, _SQRT1_2], dtype=complex)

_SINGLE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT1_2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Sdag": np.array([[1, 0], [0, -1j]], dtype=complex),
}

MAX_WIRES = 24


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``num_wires`` qubit wires."""

    amplitudes: np.ndarray
    num_wires: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if not (1 <= self.num_wires <= MAX_WIRES):
            raise ValueError(f"wire count must be in [1, {MAX_WIRES}], got {self.num_wires}")
        if amps.shape[0] != 2**self.num_wires:
            raise ValueError(
                f"amplitude vector length {amps.shape[0]} does not match {self.num_wires} wires"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than 1e-12")


def _check_wire_count(n: int) -> None:
    # guard before any 2**n allocation happens
    if not (1 <= n <= MAX_WIRES):
        raise ValueError(f"wire count must be in [1, {MAX_WIRES}], got {n}")


def basis_state(bits: Sequence[int]) -> PureState:
    """Computational basis state |bits>, wire 0 first."""
    n = len(bits)
    _check_wire_count(n)
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        index = (index << 1) | b
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return PureState(amps, n)

def product_state(*factors) -> PureState:
    """Tensor product of single-wire amplitude pairs, wire 0 first."""
    amps = np.array([1.0], dtype=complex)
    for f in factors:
        f = np.asarray(f, dtype=complex).reshape(-1)
        if f.shape != (2,):
            raise ValueError("each factor must be a length-2 amplitude pair")
        amps = np.kron(amps, f)
    return PureState(amps, len(factors))

def random_state(num_wires: int, rng: np.random.Generator) -> PureState:
    """Haar-ish random state from normalized complex Gaussian amplitudes."""
    _check_wire_count(num_wires)
    amps = rng.normal(size=2**num_wires) + 1j * rng.normal(size=2**num_wires)
    return PureState(amps / np.linalg.norm(amps), num_wires)


@dataclass(frozen=True)
class Gate:
    """One primitive gate; ``wires`` in (control, target1, target2) order for
    CSWAP, single wire otherwise.  Phase(theta) = diag(1, e^{i theta}); S is
    Phase(pi/2), the gate that adds a phase i to the |1> component."""

    kind: str
    wires: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        if any(w < 0 for w in self.wires):
            raise ValueError("wire indices must be non-negative")
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"wire collision in {self.kind}: {self.wires}")
        if self.kind == "CSWAP":
            if len(self.wires) != 3:
                raise ValueError("CSWAP needs (control, target1, target2)")
        elif self.kind == "Phase":
            if len(self.wires) != 1 or self.theta is None:
                raise ValueError("Phase needs one wire and an angle")
        elif self.kind in _SINGLE_QUBIT and self.kind != "I":
            if len(self.wires) != 1:
                raise ValueError(f"{self.kind} acts on exactly one wire")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")


def H(wire: int) -> Gate:
    return Gate("H", (wire,))

def X(wire: int) -> Gate:
    return Gate("X", (wire,))

def Z(wire: int) -> Gate:
    return Gate("Z", (wire,))

def S(wire: int) -> Gate:
    return Gate("S", (wire,))

def Sdag(wire: int) -> Gate:
    return Gate("Sdag", (wire,))

def Phase(theta: float, wire: int) -> Gate:
    return Gate("Phase", (wire,), theta=float(theta))

def CSWAP(control: int, target1: int, target2: int) -> Gate:
    return Gate("CSWAP", (control, target1, target2))


def _matrix_1q(gate: Gate) -> np.ndarray:
    if gate.kind == "Phase":
        return np.array([[1, 0], [0, np.exp(1j * gate.theta)]], dtype=complex)
    return _SINGLE_QUBIT[gate.kind]


def _act(gate: Gate, tensor: np.ndarray, num_wires: int) -> np.ndarray:
    """Apply one gate to the leading ``num_wires`` axes of ``tensor``, one
    axis of size 2 per wire; trailing axes are carried along unchanged."""
    if any(w >= num_wires for w in gate.wires):
        raise ValueError(f"gate wires {gate.wires} out of range for {num_wires} wires")
    if gate.kind == "CSWAP":
        c, a, b = gate.wires
        on = (slice(None),) * c + (1,)
        out = tensor.copy()
        # target axes shift down once the control axis is indexed away
        out[on] = np.swapaxes(tensor[on], a - (a > c), b - (b > c))
        return out
    w = gate.wires[0]
    moved = np.tensordot(_matrix_1q(gate), tensor, axes=([1], [w]))
    return np.moveaxis(moved, 0, w)


def apply(state: PureState, gate: Gate) -> PureState:
    """Apply one gate, returning a new state."""
    n = state.num_wires
    return PureState(_act(gate, state.amplitudes.reshape((2,) * n), n).reshape(-1), n)


def cswap_multi(
    state: PureState, control: int, reg_a: Sequence[int], reg_b: Sequence[int]
) -> PureState:
    """Register-level controlled swap: pairwise CSWAP(control; a_i, b_i).

    On (c0|0> + c1|1>) (x) |psi>_A (x) |phi>_B this produces
    c0|0>|psi>|phi> + c1|1>|phi>|psi>.
    """
    reg_a = tuple(reg_a)
    reg_b = tuple(reg_b)
    if len(reg_a) != len(reg_b):
        raise ValueError("registers must have equal length")
    wires = (control,) + reg_a + reg_b
    if len(set(wires)) != len(wires):
        raise ValueError("control and register wires must all be distinct")
    for a, b in zip(reg_a, reg_b):
        state = apply(state, CSWAP(control, a, b))
    return state


@dataclass(frozen=True)
class Measurement:
    """Computational-basis measurement of one wire."""

    wire: int


@dataclass(frozen=True)
class ClassicallyControlled:
    """Gates applied only on branches where a prior measurement gave
    ``condition = (measurement_index, required_bit)``."""

    condition: tuple[int, int]
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "condition", (int(self.condition[0]), int(self.condition[1])))
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.condition[1] not in (0, 1):
            raise ValueError("outcome condition bit must be 0 or 1")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate/measurement/feed-forward steps."""

    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        seen_measurements = 0
        for step in self.steps:
            if isinstance(step, Measurement):
                seen_measurements += 1
            elif isinstance(step, ClassicallyControlled):
                if step.condition[0] >= seen_measurements:
                    raise ValueError(
                        "classical condition refers to a measurement that has not happened"
                    )
            elif not isinstance(step, Gate):
                raise ValueError(f"unsupported circuit step {step!r}")


@dataclass(frozen=True)
class BranchOutcome:
    """One measurement branch: outcome bits in measurement order, its exact
    probability, and the collapsed (renormalized) state."""

    outcome: tuple[int, ...]
    probability: float
    post_state: PureState


def measure(state: PureState, wire: int) -> list[BranchOutcome]:
    """Both branches of a computational-basis measurement (zero-probability
    branches are dropped)."""
    n = state.num_wires
    if wire >= n:
        raise ValueError(f"wire {wire} out of range")
    tensor = state.amplitudes.reshape((2,) * n)
    branches = []
    for bit in (0, 1):
        idx = [slice(None)] * n
        idx[wire] = bit
        sub = tensor[tuple(idx)]
        prob = float(np.sum(np.abs(sub) ** 2))
        if prob <= 0.0:
            continue
        collapsed = np.zeros_like(tensor)
        collapsed[tuple(idx)] = sub / math.sqrt(prob)
        branches.append(BranchOutcome((bit,), prob, PureState(collapsed.reshape(-1), n)))
    return branches


def run(circuit: Circuit, state: PureState) -> list[BranchOutcome]:
    """Execute a circuit by exhaustive branch decomposition."""
    branches = [((), 1.0, state)]
    for step in circuit.steps:
        if isinstance(step, Gate):
            branches = [(bits, p, apply(s, step)) for bits, p, s in branches]
        elif isinstance(step, Measurement):
            split = []
            for bits, p, s in branches:
                for b in measure(s, step.wire):
                    split.append((bits + b.outcome, p * b.probability, b.post_state))
            branches = split
        else:
            index, required = step.condition
            updated = []
            for bits, p, s in branches:
                if bits[index] == required:
                    for g in step.gates:
                        s = apply(s, g)
                updated.append((bits, p, s))
            branches = updated
    return [BranchOutcome(bits, p, s) for bits, p, s in branches]


def swap_test(psi: PureState, phi: PureState) -> float:
    """Exact probability of the '-' outcome of the overlap measurement.

    Control prepared in (|0>+|1>)/sqrt(2), register CSWAP, Hadamard, measure:
    the '-' probability equals (1 - |<psi|phi>|^2)/2.
    """
    if psi.num_wires != phi.num_wires:
        raise ValueError("registers must have the same size")
    n = psi.num_wires
    state = PureState(
        np.kron(PLUS, np.kron(psi.amplitudes, phi.amplitudes)), 2 * n + 1
    )
    state = cswap_multi(state, 0, range(1, n + 1), range(n + 1, 2 * n + 1))
    state = apply(state, H(0))
    tensor = state.amplitudes.reshape(2, -1)
    return float(np.sum(np.abs(tensor[1]) ** 2))


# ---------------------------------------------------------------------------
# controlled phase flip


def cpf_target() -> np.ndarray:
    """Photon-pair phase flip on the |hv> component, basis order hh,hv,vh,vv."""
    return np.diag([1.0, -1.0, 1.0, 1.0]).astype(complex)


def czz_target() -> np.ndarray:
    """Controlled-(Z x Z) from the atom wire onto the two photons."""
    return np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0]).astype(complex)


def cpf_circuit() -> Circuit:
    """Two-CSWAP realization of the phase flip with atom measurement.

    The controlled-(Z x Z) core Z1 . CSWAP . Z1 . CSWAP is dressed with phase
    gates, the atom is rotated and measured, and outcome 1 is repaired by
    Z on each photon.  Both outcomes occur with probability 1/2 for every
    photon input, and both post-correction branch maps equal the phase flip
    up to a branch-dependent global phase.
    """
    return Circuit(
        (
            Z(1),
            CSWAP(0, 1, 2),
            Z(1),
            CSWAP(0, 1, 2),
            Sdag(1),
            S(2),
            Sdag(0),
            H(0),
            Measurement(0),
            ClassicallyControlled((0, 1), (Z(1), Z(2))),
        )
    )


def cpf_feedforward(state: PureState) -> list[BranchOutcome]:
    """Run the phase-flip construction; returns photon-register branches.

    Accepts either a two-wire photon state (the atom is prepended in
    (|0>+|1>)/sqrt(2)) or a three-wire state whose atom factor already is
    exactly that, unentangled; anything else is rejected.
    """
    if state.num_wires == 2:
        full = PureState(np.kron(PLUS, state.amplitudes), 3)
    elif state.num_wires == 3:
        tensor = state.amplitudes.reshape(2, 4)
        if np.max(np.abs(tensor[0] - tensor[1])) > 1e-12:
            raise ValueError("atom wire must enter as (|0>+|1>)/sqrt(2), unentangled")
        full = state
    else:
        raise ValueError("expected a 2-wire photon state or a 3-wire atom+photon state")
    results = []
    for branch in run(cpf_circuit(), full):
        tensor = branch.post_state.amplitudes.reshape(2, 4)
        photon = tensor[branch.outcome[0]]  # atom collapsed onto the outcome
        results.append(
            BranchOutcome(branch.outcome, branch.probability, PureState(photon, 2))
        )
    return results


def equivalent_up_to_phase(U, V, tol: float) -> bool:
    """True iff U equals V up to one global phase, entrywise within tol.

    The phase is fixed from the entry pair with the largest |U|*|V| product,
    then max-entry |U - e^{i phi} V| <= tol is required.
    """
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if U.ndim != 2 or U.shape != V.shape or U.shape[0] != U.shape[1]:
        raise ValueError(f"need equal square matrices, got {U.shape} vs {V.shape}")
    return bool(_phase_equiv_batch(U[None], V, tol)[0])


def _phase_equiv_batch(A: np.ndarray, V: np.ndarray, tol: float) -> np.ndarray:
    # equivalent_up_to_phase over a leading batch axis, which may be empty;
    # V is one matrix, or one matrix per batch entry
    n, size = A.shape[0], math.prod(A.shape[1:])
    V = np.broadcast_to(V, A.shape).reshape(n, size)
    A = A.reshape(n, size)
    flat = (np.abs(A) * np.abs(V)).argmax(axis=1)
    rows = np.arange(n)
    a, v = A[rows, flat], V[rows, flat]
    # z = a * conj(v) and z / |z| in real arithmetic, so that U against U
    # gets phase exactly 1: numpy's complex multiply fuses into
    # Im(a * conj(a)) != 0, and its complex division by |z| multiplies by a
    # reciprocal, which can leave 0.9999999999999999
    zr = a.real * v.real + a.imag * v.imag
    zi = a.imag * v.real - a.real * v.imag
    mag = np.hypot(zr, zi)
    safe = np.where(mag > 0.0, mag, 1.0)
    phase = np.where(mag > 0.0, zr / safe + 1j * (zi / safe), 1.0 + 0.0j)
    resid = np.max(np.abs(A - phase[:, None] * V), axis=1)
    return resid <= tol


# ---------------------------------------------------------------------------
# full-matrix helpers (used by synthesis and by verification)


def gate_matrix(gate: Gate, num_wires: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of one gate."""
    return circuit_unitary([gate], num_wires)


def circuit_unitary(gates: Iterable[Gate], num_wires: int) -> np.ndarray:
    """Product of gate matrices in application order: the gates applied to
    the identity, whose columns ride along as trailing axes."""
    dim = 2**num_wires
    tensor = np.eye(dim, dtype=complex).reshape((2,) * num_wires + (dim,))
    for gate in gates:
        tensor = _act(gate, tensor, num_wires)
    return tensor.reshape(dim, dim)


# ---------------------------------------------------------------------------
# bounded exhaustive synthesis


class SearchSpaceError(RuntimeError):
    """Candidate count exceeds the enumeration guard."""

    def __init__(self, size: int, limit: int):
        super().__init__(f"search space has {size} candidates, guard is {limit}")
        self.size = size
        self.limit = limit


@dataclass(frozen=True)
class SynthesisMatch:
    """One passing candidate.

    ``layers`` lists, outermost-first in application order, the gate kind on
    each wire (atom, photon, photon); ``feedforward`` is the correction index
    per measurement outcome for feed-forward variants, else None.
    """

    layers: tuple[tuple[str, str, str], ...]
    feedforward: tuple[int, int] | None

    @property
    def circuit(self) -> Circuit:
        """The match as a circuit: each layer's non-identity gates, a CSWAP
        between consecutive layers, then the measurement and its corrections."""
        steps: list = []
        for depth, kinds in enumerate(self.layers):
            if depth:
                steps.append(CSWAP(0, 1, 2))
            steps.extend(_layer_gates(kinds))
        if self.feedforward is not None:
            steps.append(Measurement(0))
            for outcome, ci in enumerate(self.feedforward):
                gates = _CORRECTION_GATES[ci]
                if gates:
                    steps.append(ClassicallyControlled((0, outcome), gates))
        return Circuit(tuple(steps))


@dataclass(frozen=True)
class SynthesisResult:
    """``search_space`` is the nominal candidate count that the guard
    applies to; ``evaluated`` counts the operators the search actually
    formed and put through a match predicate, phase-class representatives
    included."""

    matches: tuple[SynthesisMatch, ...]
    search_space: int
    truncated: bool
    elapsed: float
    evaluated: int


_SYNTH_KINDS = ("I", "H", "X", "Z", "S", "Sdag")

# atom gates that commute with the atom-controlled CSWAP; as the atom gate of
# the final layer they change neither photon-map predicate
_ATOM_DIAGONAL = ("I", "Z", "S", "Sdag")

# diagonal pauli corrections applied to the photon pair, index order fixed
_CORRECTION_GATES = ((), (Z(2),), (Z(1),), (Z(1), Z(2)))

_GUARD = 100_000_000

# The phase-class key of a matrix: the matrix times the conjugate phase of its
# reference entry (the first, in flat order, of modulus above _KEY_REF), each
# real and imaginary part rounded to a grid of spacing _KEY_GRID.  Equal keys
# only propose candidates; every use confirms them exactly.
_KEY_REF = 0.3
_KEY_GRID = 2.0**-8
# a phase-class member equals its representative up to phase within this
_CLASS_TOL = 1e-12
# Lookups and representative tests widen their tolerance by this much.  After
# four depths a member's operator differs from its representative's by at
# most about 1e-10 (35 * _CLASS_TOL, times sqrt(8) for the final layer); the
# factor of ten left over absorbs the feed-forward test dividing by a
# branch's norm.
_CLASS_SLACK = 1e-9
# matrices per batched step
_BLOCK = 8192


def _correction_matrices() -> list[np.ndarray]:
    # photon-pair block of each correction with the atom in |0>
    return [circuit_unitary(gates, 3)[:4, :4] for gates in _CORRECTION_GATES]


def _layer_matrices(kinds: Sequence[str]) -> np.ndarray:
    return np.array(
        [circuit_unitary(_layer_gates(_layer_kinds(i, kinds)), 3) for i in range(len(kinds) ** 3)]
    )


def _decode_layer(index: int, n_kinds: int) -> tuple[int, int, int]:
    return (index // (n_kinds**2), (index // n_kinds) % n_kinds, index % n_kinds)


def _layer_kinds(index: int, kinds: Sequence[str]) -> tuple[str, str, str]:
    return tuple(kinds[k] for k in _decode_layer(index, len(kinds)))


def _layer_gates(names: Sequence[str]) -> list[Gate]:
    return [Gate(kind, (wire,)) for wire, kind in enumerate(names) if kind != "I"]


def _matches_full(U: np.ndarray, target: np.ndarray, tol: float) -> list[tuple[int, None]]:
    # necessary magnitude screen, then the exact phase-aligned comparison
    rough = np.max(np.abs(np.abs(U) - np.abs(target)[None]), axis=(1, 2)) <= tol
    survivors = np.nonzero(rough)[0]
    exact = _phase_equiv_batch(U[survivors], target, tol)
    return [(int(i), None) for i in survivors[exact]]


def _matches_factorized(U: np.ndarray, target4: np.ndarray, tol: float) -> list[tuple[int, None]]:
    # measurement-free realization: U must split as (atom unitary) x target4;
    # the coefficient matrix c absorbs the global phase, so the residual test
    # is exact.  The rebuilt operator is exactly zero wherever target4 is, so
    # those entries of U alone screen out most candidates first.
    off = U.reshape(len(U), 64)[:, np.tile(target4 == 0, (2, 2)).ravel()]
    survivors = np.nonzero(np.max(np.abs(off), axis=1, initial=0.0) <= tol)[0]
    Ur = U[survivors].reshape(-1, 2, 4, 2, 4)
    c = np.einsum("ij,naibj->nab", target4.conj(), Ur) / 4.0
    rebuilt = np.einsum("nab,ij->naibj", c, target4)
    resid = np.max(np.abs(Ur - rebuilt), axis=(1, 2, 3, 4))
    return [(int(i), None) for i in survivors[resid <= tol]]


def _matches_feedforward(
    U: np.ndarray, target4: np.ndarray, corrections: list[np.ndarray], tol: float
) -> list[tuple[int, tuple[int, int]]]:
    # atom enters in |+>, is measured at the end; each outcome's photon map,
    # after one diagonal correction, must match the target.  Both outcomes
    # must carry non-negligible probability — a dead branch would be
    # post-selection, not feed-forward.
    Ur = U.reshape(-1, 2, 4, 2, 4)
    M = (Ur[:, :, :, 0, :] + Ur[:, :, :, 1, :]) * _SQRT1_2  # [batch, outcome, 4, 4]
    s2 = np.sum(np.abs(M) ** 2, axis=(2, 3)) / 4.0
    alive = np.all(s2 >= 1e-12, axis=1)
    scale = np.sqrt(np.where(s2 > 0.0, s2, 1.0))
    N = M / scale[:, :, None, None]
    # diagonal corrections cannot change entry magnitudes
    mag_ok = np.all(
        np.abs(np.abs(N) - np.abs(target4)[None, None]) <= tol, axis=(2, 3)
    )
    survivors = np.nonzero(alive & np.all(mag_ok, axis=1))[0]
    if survivors.size == 0:
        return []
    ok = np.empty((survivors.size, 2, len(corrections)), dtype=bool)
    for b in (0, 1):
        Nb = N[survivors, b]
        for ci, D in enumerate(corrections):
            ok[:, b, ci] = _phase_equiv_batch(np.matmul(D, Nb), target4, tol)
    hits = []
    for row in np.nonzero(ok[:, 0].any(axis=1) & ok[:, 1].any(axis=1))[0]:
        for c0 in np.nonzero(ok[row, 0])[0]:
            for c1 in np.nonzero(ok[row, 1])[0]:
                hits.append((int(survivors[row]), (int(c0), int(c1))))
    return hits


def _phase_canonical(A: np.ndarray):
    """Rows of A times the conjugate phase of their reference entry, real and
    imaginary parts interleaved, in units of _KEY_GRID; also the reference
    indices and the entry moduli."""
    flat = A.reshape(len(A), math.prod(A.shape[1:]))
    rows = np.arange(len(flat))
    mag = np.abs(flat)
    ref = np.argmax(mag > _KEY_REF, axis=1)  # 0 where no entry qualifies
    r, rmag = flat[rows, ref], mag[rows, ref]
    unit = np.where(rmag > 0.0, r.conj() / np.where(rmag > 0.0, rmag, 1.0), 1.0)
    return (flat * unit[:, None]).view(np.float64) / _KEY_GRID, ref, mag


def _keys(scaled: np.ndarray) -> list[bytes]:
    grid = np.rint(np.clip(scaled, -(2.0**30), 2.0**30)).astype(np.int32)
    return grid.view(np.dtype((np.void, 4 * grid.shape[1]))).ravel().tolist()


def _stable(scaled: np.ndarray, ref: np.ndarray, mag: np.ndarray, eps: float) -> np.ndarray:
    # rows (unitary matrices) whose key every matrix within eps of them, up
    # to phase, shares: that matrix picks the same reference entry, whose
    # phase then differs by at most 2 eps / _KEY_REF, so no coordinate moves
    # by more than eps (1 + 2 / _KEY_REF) and none may lie that close to a
    # rounding edge
    shift = eps * (1.0 + 2.0 / _KEY_REF) / _KEY_GRID
    clear = np.all(0.5 - np.abs(scaled - np.rint(scaled)) > shift, axis=1)
    up_to_ref = np.arange(mag.shape[1]) <= ref[:, None]
    ambiguous = np.any(up_to_ref & (np.abs(mag - _KEY_REF) <= eps), axis=1)
    has_ref = mag[np.arange(len(mag)), ref] > _KEY_REF
    return clear & has_ref & ~ambiguous


def _prefix_classes(start: np.ndarray, depth: int, staged: np.ndarray):
    """Phase classes of staged[l_{depth-1}] ... staged[l_0] . start over all
    layer tuples, built one depth at a time from the representatives of the
    depth before.  A search step generator (one empty step per layer); it
    returns the representatives and, per class, its member layer tuples in
    application order."""
    reps, members = start[None], [[()]]
    for _ in range(depth):
        index: dict[bytes, int] = {}
        new_reps: list[np.ndarray] = []
        new_members: list[list[tuple[int, ...]]] = []
        for layer, stage in enumerate(staged):
            products = np.matmul(stage, reps)
            ids = []
            for i, key in enumerate(_keys(_phase_canonical(products)[0])):
                if key not in index:
                    index[key] = len(new_reps)
                    new_reps.append(products[i])
                    new_members.append([])
                ids.append(index[key])
            same = _phase_equiv_batch(products, np.array([new_reps[c] for c in ids]), _CLASS_TOL)
            for i, c in enumerate(ids):
                if not same[i]:  # grouped by its key alone: a class of its own
                    c = len(new_reps)
                    new_reps.append(products[i])
                    new_members.append([])
                new_members[c].extend(t + (layer,) for t in members[i])
            yield [], 0
        reps, members = np.array(new_reps), new_members
    return reps, members


def _confirm(cands, test, variant, layers, staged) -> list:
    # form each candidate's operator in application order and run the match
    # predicate on it; returns (layer tuple, variant, correction pair) per hit
    hits = []
    for lo in range(0, len(cands), _BLOCK):
        block = cands[lo : lo + _BLOCK]
        idx = np.array(block, dtype=np.intp)
        U = layers[idx[:, -1]]
        if idx.shape[1] > 1:
            prefix = staged[idx[:, 0]]
            for j in range(1, idx.shape[1] - 1):
                prefix = np.matmul(staged[idx[:, j]], prefix)
            U = np.matmul(U, prefix)
        hits.extend((block[i], variant, ff) for i, ff in test(U))
    return hits


def _search_full(target, k, layers, staged, cswap8, tol):
    """Meet in the middle for an 8x8 target.  L_k . M . L_0 matches T only if
    the middle M = C . L_{k-1} ... L_1 . C is within 8 tol of the query
    L_k^+ . T . L_0^+ up to phase (|A E B|_max <= 8 |E|_max for 8x8
    unitaries A, B), so each query is looked up by key among the middles'
    phase classes.  A middle whose key is not stable at that tolerance is
    screened against every query instead.  Each proposed candidate is
    confirmed by _matches_full on its own operator."""
    test = functools.partial(_matches_full, target=target, tol=tol)
    if k == 0:
        yield _confirm([(i,) for i in range(len(layers))], test, 0, layers, staged), len(layers)
        return
    reps, members = yield from _prefix_classes(cswap8, k - 1, staged)
    eps = 8.0 * tol + _CLASS_SLACK
    scaled, ref, mag = _phase_canonical(reps)
    stable = _stable(scaled, ref, mag, eps)
    table: dict[bytes, list[int]] = {}
    for c, key in zip(np.nonzero(stable)[0], _keys(scaled[stable])):
        table.setdefault(key, []).append(int(c))
    loose = np.nonzero(~stable)[0]
    loose_flat = reps[loose].reshape(len(loose), target.size)
    loose_norm = np.sum(np.abs(loose_flat) ** 2, axis=1)
    right = np.matmul(target, layers.conj().transpose(0, 2, 1))  # T . L_0^+
    for last in range(len(layers)):
        queries = np.matmul(layers[last].conj().T, right)
        pairs = [
            (first, c)
            for first, key in enumerate(_keys(_phase_canonical(queries)[0]))
            for c in table.get(key, ())
        ]
        if loose.size:
            # min over phase of |M - e^{i phi} Q|_F^2 is |M|^2 + |Q|^2 - 2 |<Q, M>|,
            # at most target.size * eps^2 when the entries are within eps
            q = queries.reshape(len(queries), target.size)
            norms = np.sum(np.abs(q) ** 2, axis=1)[:, None] + loose_norm[None]
            gap = norms - 2.0 * np.abs(q.conj() @ loose_flat.T)
            near = gap <= target.size * eps**2 + 1e-12 * norms
            pairs += [(int(first), int(loose[j])) for first, j in zip(*np.nonzero(near))]
        cands = [(first,) + middle + (last,) for first, c in pairs for middle in members[c]]
        yield _confirm(cands, test, 0, layers, staged), len(cands)


def _search_photon(target, k, kinds, layers, staged, feedforward, tol):
    """Phase classes for a 4x4 target.  Both photon-map predicates hold for
    L_k . P exactly when they hold for L_k . e^{i theta} P, and for D . L_k . P
    with D atom-diagonal, so one prefix P = C . L_{k-1} ... C . L_0 per phase
    class and one final layer per atom-diagonal family is tested, at
    tol + _CLASS_SLACK.  Hits expand to every member of their class and
    family, and each member is confirmed at tol on its own operator."""
    reps, members = yield from _prefix_classes(np.eye(8, dtype=complex), k, staged)
    tests = [functools.partial(_matches_factorized, target4=target)]
    if feedforward:
        tests.append(functools.partial(
            _matches_feedforward, target4=target, corrections=_correction_matrices()
        ))
    families: dict[tuple[int, int, int], list[int]] = {}
    for index in range(len(layers)):
        a, b, c = _decode_layer(index, len(kinds))
        atom = -1 if kinds[a] in _ATOM_DIAGONAL else a
        families.setdefault((atom, b, c), []).append(index)
    for finals in families.values():
        for lo in range(0, len(reps), _BLOCK):
            U = np.matmul(layers[finals[0]], reps[lo : lo + _BLOCK])
            hits, evaluated = [], len(U)
            for variant, test in enumerate(tests):
                classes = sorted({lo + i for i, _ in test(U, tol=tol + _CLASS_SLACK)})
                cands = [t + (f,) for c in classes for t in members[c] for f in finals]
                hits += _confirm(cands, functools.partial(test, tol=tol), variant, layers, staged)
                evaluated += len(cands)
            yield hits, evaluated


def synthesize(
    target: np.ndarray,
    num_cswaps: int,
    gate_set: Sequence[str] = ("I", "Z", "S", "Sdag", "H"),
    allow_feedforward: bool = False,
    tol: float = 1e-9,
    time_budget: float | None = None,
) -> SynthesisResult:
    """Exhaustive search over layered CSWAP circuits on (atom, photon, photon).

    Candidates have the shape L_k . CSWAP . L_{k-1} . ... . CSWAP . L_0 with
    k = num_cswaps and each layer assigning one gate-set element per wire;
    the CSWAP control is always the atom.  A 8x8 target is matched as the
    whole operator; a 4x4 target is a photon map, matched either
    measurement-free (the operator must factorize as atom x target) or, when
    allow_feedforward is set, through a terminal atom measurement with one
    diagonal correction per outcome.  Matching is up to global phase at
    tolerance ``tol``; results come back sorted by layer assignment.

    The search runs on phase classes of partial products, with
    meet-in-the-middle lookups for an 8x8 target, and confirms every
    reported match on its own operator; full-operator and feed-forward
    matches pass the rule of ``equivalent_up_to_phase``.

    A positive ``time_budget`` (seconds) makes the search stop early with
    ``truncated`` set, keeping the matches confirmed so far; exceeding
    _GUARD candidates raises SearchSpaceError before any work is done.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape == (8, 8):
        mode = "full"
    elif target.shape == (4, 4):
        mode = "photon"
    else:
        raise ValueError("target must be 4x4 (photon map) or 8x8 (full operator)")
    if not np.all(np.isfinite(target)):
        raise ValueError("target entries must be finite")
    if not (0 <= num_cswaps <= 4):
        raise ValueError("num_cswaps must be between 0 and 4")
    kinds = tuple(gate_set)
    if len(set(kinds)) != len(kinds):
        raise ValueError("gate_set entries must be unique")
    for k in kinds:
        if k not in _SYNTH_KINDS:
            raise ValueError(f"unsupported gate kind {k!r}; choose from {_SYNTH_KINDS}")

    n_layers = len(kinds) ** 3
    use_feedforward = mode == "photon" and allow_feedforward
    variants = 1 + (16 if use_feedforward else 0)
    size = n_layers ** (num_cswaps + 1) * variants
    if size > _GUARD:
        raise SearchSpaceError(size, _GUARD)

    start = time.monotonic()
    layers = _layer_matrices(kinds)
    cswap8 = gate_matrix(CSWAP(0, 1, 2), 3)
    staged = np.matmul(cswap8, layers)  # CSWAP . layer, one chain element
    if mode == "full":
        steps = _search_full(target, num_cswaps, layers, staged, cswap8, tol)
    else:
        steps = _search_photon(target, num_cswaps, kinds, layers, staged, use_feedforward, tol)

    found: list[tuple[tuple[int, ...], int, tuple[int, int] | None]] = []
    evaluated = 0
    truncated = False
    for hits, count in steps:  # the budget is checked between steps
        found.extend(hits)
        evaluated += count
        if time_budget is not None and time.monotonic() - start > time_budget:
            truncated = True
            break

    found.sort(key=lambda item: (item[0], item[1], item[2] or (-1, -1)))
    matches = tuple(
        SynthesisMatch(tuple(_layer_kinds(index, kinds) for index in layers_idx), ff)
        for layers_idx, _, ff in found
    )
    return SynthesisResult(matches, size, truncated, time.monotonic() - start, evaluated)


def format_circuit(circuit: Circuit) -> str:
    """Canonical one-line rendering used by reports."""
    parts = []
    for step in circuit.steps:
        if isinstance(step, Gate):
            if step.kind == "Phase":
                parts.append(f"Phase({step.theta:g},{step.wires[0]})")
            else:
                parts.append(f"{step.kind}({','.join(str(w) for w in step.wires)})")
        elif isinstance(step, Measurement):
            parts.append(f"measure({step.wire})")
        else:
            gates = ",".join(f"{g.kind}({g.wires[0]})" for g in step.gates)
            parts.append(f"on{step.condition[1]}:[{gates}]")
    return " ; ".join(parts) if parts else "(empty)"

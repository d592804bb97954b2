"""Exact state-vector engine for the atom + photon register.

Conventions: wire 0 is the atom where one is present; photon polarization
maps h -> 0, v -> 1; basis indices are big-endian in wire order (wire 0 is
the most significant bit).  Measurements are handled by exhaustive branch
decomposition — every outcome is retained with its exact probability — so
all verification paths are deterministic.
"""
from __future__ import annotations

import itertools
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
    # equivalent_up_to_phase over a leading batch axis, which may be empty
    n = A.shape[0]
    weight = (np.abs(A) * np.abs(V)[None]).reshape(n, V.size)
    flat = weight.argmax(axis=1)
    a = A.reshape(n, V.size)[np.arange(n), flat]
    v = V.reshape(-1)[flat]
    # z = a * conj(v) and z / |z| in real arithmetic, so that U against U
    # gets phase exactly 1: numpy's complex multiply fuses into
    # Im(a * conj(a)) != 0, and its complex division by |z| multiplies by a
    # reciprocal, which can leave 0.9999999999999999
    zr = a.real * v.real + a.imag * v.imag
    zi = a.imag * v.real - a.real * v.imag
    mag = np.hypot(zr, zi)
    safe = np.where(mag > 0.0, mag, 1.0)
    phase = np.where(mag > 0.0, zr / safe + 1j * (zi / safe), 1.0 + 0.0j)
    resid = np.max(np.abs(A - phase[:, None, None] * V[None]), axis=(1, 2))
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
    circuit: Circuit


@dataclass(frozen=True)
class SynthesisResult:
    matches: tuple[SynthesisMatch, ...]
    search_space: int
    truncated: bool
    elapsed: float


_SYNTH_KINDS = ("I", "H", "X", "Z", "S", "Sdag")

# diagonal pauli corrections applied to the photon pair, index order fixed
_CORRECTION_GATES = ((), (Z(2),), (Z(1),), (Z(1), Z(2)))

_GUARD = 100_000_000
_BATCH_CAP = 65536


def _correction_matrices() -> list[np.ndarray]:
    # photon-pair block of each correction with the atom in |0>
    return [circuit_unitary(gates, 3)[:4, :4] for gates in _CORRECTION_GATES]


def _layer_matrices(kinds: Sequence[str]) -> np.ndarray:
    return np.array(
        [circuit_unitary(_layer_gates(i, kinds), 3) for i in range(len(kinds) ** 3)]
    )


def _decode_layer(index: int, n_kinds: int) -> tuple[int, int, int]:
    return (index // (n_kinds**2), (index // n_kinds) % n_kinds, index % n_kinds)


def _layer_gates(index: int, kinds: Sequence[str]) -> list[Gate]:
    gates = []
    for wire, ki in enumerate(_decode_layer(index, len(kinds))):
        kind = kinds[ki]
        if kind != "I":
            gates.append(Gate(kind, (wire,)))
    return gates


def _build_circuit(layers, kinds, feedforward) -> Circuit:
    steps: list = []
    last = len(layers) - 1
    for depth, index in enumerate(layers):
        steps.extend(_layer_gates(index, kinds))
        if depth < last:
            steps.append(CSWAP(0, 1, 2))
    if feedforward is not None:
        steps.append(Measurement(0))
        for outcome, ci in enumerate(feedforward):
            gates = _CORRECTION_GATES[ci]
            if gates:
                steps.append(ClassicallyControlled((0, outcome), tuple(gates)))
    return Circuit(tuple(steps))


def _matches_full(U: np.ndarray, target: np.ndarray, tol: float) -> list[tuple[int, None]]:
    # necessary magnitude screen, then the exact phase-aligned comparison
    rough = np.max(np.abs(np.abs(U) - np.abs(target)[None]), axis=(1, 2)) <= tol
    survivors = np.nonzero(rough)[0]
    exact = _phase_equiv_batch(U[survivors], target, tol)
    return [(int(i), None) for i in survivors[exact]]


def _matches_factorized(U: np.ndarray, target4: np.ndarray, tol: float) -> list[tuple[int, None]]:
    # measurement-free realization: U must split as (atom unitary) x target4;
    # the coefficient matrix c absorbs the global phase, so the residual test
    # is exact.
    Ur = U.reshape(-1, 2, 4, 2, 4)
    c = np.einsum("ij,naibj->nab", target4.conj(), Ur) / 4.0
    rebuilt = np.einsum("nab,ij->naibj", c, target4)
    resid = np.max(np.abs(Ur - rebuilt), axis=(1, 2, 3, 4))
    return [(int(i), None) for i in np.nonzero(resid <= tol)[0]]


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


def synthesize(
    target: np.ndarray,
    num_cswaps: int,
    gate_set: Sequence[str] = ("I", "Z", "S", "Sdag", "H"),
    allow_feedforward: bool = False,
    tol: float = 1e-9,
    time_budget: float | None = None,
    guard: int = _GUARD,
) -> SynthesisResult:
    """Exhaustive search over layered CSWAP circuits on (atom, photon, photon).

    Candidates have the shape L_k . CSWAP . L_{k-1} . ... . CSWAP . L_0 with
    k = num_cswaps and each layer assigning one gate-set element per wire;
    the CSWAP control is always the atom.  A 8x8 target is matched as the
    whole operator; a 4x4 target is a photon map, matched either
    measurement-free (the operator must factorize as atom x target) or, when
    allow_feedforward is set, through a terminal atom measurement with one
    diagonal correction per outcome.  Matching is up to global phase at
    tolerance ``tol``; enumeration order is deterministic and results come
    back sorted by layer assignment.

    A positive ``time_budget`` (seconds) makes the search stop early with
    ``truncated`` set; exceeding ``guard`` candidates raises SearchSpaceError
    before any work is done.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape == (8, 8):
        mode = "full"
    elif target.shape == (4, 4):
        mode = "photon"
    else:
        raise ValueError("target must be 4x4 (photon map) or 8x8 (full operator)")
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
    if size > guard:
        raise SearchSpaceError(size, guard)

    start = time.monotonic()
    layers = _layer_matrices(kinds)
    cswap8 = gate_matrix(CSWAP(0, 1, 2), 3)
    staged = np.matmul(cswap8, layers)  # CSWAP . layer, one chain element
    corrections = _correction_matrices()

    # batch over as many leading layers as fits; loop the rest
    batch = np.eye(8, dtype=complex)[None]
    batched_digits = 0
    while batched_digits < num_cswaps and batch.shape[0] * n_layers <= _BATCH_CAP:
        batch = np.einsum("nij,fjk->nfik", staged, batch).reshape(-1, 8, 8)
        batched_digits += 1
    loop_digits = num_cswaps - batched_digits

    found: list[tuple[tuple[int, ...], int, tuple[int, int] | None]] = []
    truncated = False
    for outer in itertools.product(range(n_layers), repeat=loop_digits):
        # outer = (l_{j}, ..., l_{k-1}) in application order
        prefix = batch
        for index in outer:
            prefix = np.matmul(staged[index], prefix)
        for final in range(n_layers):
            if time_budget is not None and time.monotonic() - start > time_budget:
                truncated = True
                break
            U = np.matmul(layers[final], prefix)
            if mode == "full":
                hits = [(i, None, 0) for i, _ in _matches_full(U, target, tol)]
            else:
                hits = [(i, None, 0) for i, _ in _matches_factorized(U, target, tol)]
                if use_feedforward:
                    hits.extend(
                        (i, ff, 1)
                        for i, ff in _matches_feedforward(U, target, corrections, tol)
                    )
            for flat, ff, variant in hits:
                digits = tuple(
                    (flat // n_layers**d) % n_layers for d in range(batched_digits)
                )
                found.append((digits + outer + (final,), variant, ff))
        if truncated:
            break

    found.sort(key=lambda item: (item[0], item[1], item[2] or (-1, -1)))
    matches = tuple(
        SynthesisMatch(
            tuple(
                tuple(kinds[k] for k in _decode_layer(index, len(kinds)))
                for index in layers_idx
            ),
            ff,
            _build_circuit(layers_idx, kinds, ff),
        )
        for layers_idx, _, ff in found
    )
    return SynthesisResult(matches, size, truncated, time.monotonic() - start)


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

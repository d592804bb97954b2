"""Exact state-vector engine for the atom + photon register.

Conventions: wire 0 is the atom where one is present; photon polarization
maps h -> 0, v -> 1; basis indices are big-endian in wire order (wire 0 is
the most significant bit).  Measurements are handled by exhaustive branch
decomposition — every outcome is retained with its exact probability — so
all verification paths are deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
        _check_wire_count(self.num_wires)
        if amps.shape[0] != 2**self.num_wires:
            raise ValueError(
                f"amplitude vector length {amps.shape[0]} does not match {self.num_wires} wires"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than 1e-12")


def _check_wire_count(n: int, limit: int = MAX_WIRES) -> None:
    # guard before any 2**n allocation happens
    if not (1 <= n <= limit):
        raise ValueError(f"wire count must be in [1, {limit}], got {n}")


def _index(value, what: str) -> int:
    # a wire or measurement index: a non-negative integer.  A bool is an
    # int, and int() would truncate a float, so neither is taken for one
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{what} must be non-negative integers, got {value!r}")
    return int(value)


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
    _check_wire_count(len(factors))
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
        object.__setattr__(self, "wires", tuple(_index(w, "wire indices") for w in self.wires))
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"wire collision in {self.kind}: {self.wires}")
        if self.kind == "CSWAP":
            if len(self.wires) != 3:
                raise ValueError("CSWAP needs (control, target1, target2)")
        elif self.kind == "Phase":
            if len(self.wires) != 1 or self.theta is None:
                raise ValueError("Phase needs one wire and an angle")
            if not math.isfinite(self.theta):
                raise ValueError(f"Phase angle must be finite, got {self.theta!r}")
        elif self.kind in _SINGLE_QUBIT and self.kind != "I":
            if len(self.wires) != 1:
                raise ValueError(f"{self.kind} acts on exactly one wire")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind != "Phase" and self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle, got {self.theta!r}")


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

    def __post_init__(self):
        object.__setattr__(self, "wire", _index(self.wire, "measured wires"))


@dataclass(frozen=True)
class ClassicallyControlled:
    """Gates applied only on branches where a prior measurement gave
    ``condition = (measurement_index, required_bit)``."""

    condition: tuple[int, int]
    gates: tuple[Gate, ...]

    def __post_init__(self):
        index, bit = self.condition
        # as for an index, neither a bool nor a float is taken for a bit
        if isinstance(bit, bool) or not isinstance(bit, (int, np.integer)) or bit not in (0, 1):
            raise ValueError(f"outcome condition bit must be 0 or 1, got {bit!r}")
        object.__setattr__(self, "condition", (_index(index, "measurement indices"), int(bit)))
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            if not isinstance(gate, Gate):
                raise ValueError(f"a conditional step applies gates only, got {gate!r}")


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


def _format_step(step) -> str:
    if isinstance(step, Gate):
        if step.kind == "Phase":
            return f"Phase({step.theta:g},{step.wires[0]})"
        return f"{step.kind}({','.join(str(w) for w in step.wires)})"
    if isinstance(step, Measurement):
        return f"measure({step.wire})"
    return f"on{step.condition[1]}:[{','.join(map(_format_step, step.gates))}]"


def format_circuit(circuit: Circuit) -> str:
    """Canonical one-line rendering used by reports."""
    return " ; ".join(map(_format_step, circuit.steps)) or "(empty)"


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
    if _index(wire, "measured wires") >= n:
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
    _check_wire_count(2 * n + 1)
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
        if not np.max(np.abs(tensor[0] - tensor[1])) <= 1e-12:
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
    weight = np.abs(A)
    weight *= np.abs(V)
    flat = weight.argmax(axis=1)
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
    diff = phase[:, None] * V
    np.subtract(A, diff, out=diff)
    return np.abs(diff, out=weight).max(axis=1) <= tol


# ---------------------------------------------------------------------------
# full-matrix helpers (used by synthesis and by verification)


def gate_matrix(gate: Gate, num_wires: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of one gate."""
    return circuit_unitary([gate], num_wires)


def circuit_unitary(gates: Iterable[Gate], num_wires: int) -> np.ndarray:
    """Product of gate matrices in application order: the gates applied to
    the identity, whose columns ride along as trailing axes."""
    _check_wire_count(num_wires, MAX_WIRES // 2)  # at most as many entries as the largest state
    dim = 2**num_wires
    tensor = np.eye(dim, dtype=complex).reshape((2,) * num_wires + (dim,))
    for gate in gates:
        tensor = _act(gate, tensor, num_wires)
    return tensor.reshape(dim, dim)


# Synthesis lives in cavityswap.synthesis.  Its public names still resolve
# here (PEP 562): each is imported on its first lookup, so that `import
# cavityswap.circuits` loads no search code, and then bound in this module,
# where code that patches module attributes finds it.
_SYNTHESIS_NAMES = ("SearchSpaceError", "SynthesisResult", "synthesize")


def __getattr__(name):
    if name not in _SYNTHESIS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import synthesis

    value = globals()[name] = getattr(synthesis, name)
    return value

"""Property tests: the gate kernel against kron products, the
phase-equivalence rule on random matrices and batches, and format_circuit
read back step by step."""
import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from cavityswap.circuits import (  # noqa: E402
    CSWAP,
    Circuit,
    ClassicallyControlled,
    Gate,
    Measurement,
    Phase,
    _phase_equiv_batch,
    circuit_unitary,
    equivalent_up_to_phase,
    format_circuit,
)
from test_circuits import HADAMARD, PAULI_X, PHASE_S, cswap_permutation, kron_all  # noqa: E402

LITERAL_1Q = {
    "H": HADAMARD,
    "X": PAULI_X,
    "Z": np.array([[1, 0], [0, -1]]),
    "S": PHASE_S,
    "Sdag": PHASE_S.conj(),
}


def draw_gate(draw, n, theta=st.floats(-2.0 * math.pi, 2.0 * math.pi)):
    kinds = sorted(LITERAL_1Q) + ["Phase"] + (["CSWAP"] if n >= 3 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "CSWAP":
        return CSWAP(*draw(st.permutations(range(n)))[:3])
    if kind == "Phase":
        return Phase(draw(theta), draw(st.integers(0, n - 1)))
    return Gate(kind, (draw(st.integers(0, n - 1)),))


@st.composite
def gate_lists(draw):
    n = draw(st.integers(1, 4))
    return n, [draw_gate(draw, n) for _ in range(draw(st.integers(0, 8)))]


def reference_matrix(gate, n):
    if gate.kind == "CSWAP":
        return cswap_permutation(n, *gate.wires)
    factors = [np.eye(2)] * n
    if gate.kind == "Phase":
        factors[gate.wires[0]] = np.array([[1, 0], [0, np.exp(1j * gate.theta)]])
    else:
        factors[gate.wires[0]] = LITERAL_1Q[gate.kind]
    return kron_all(*factors)


@given(gate_lists())
def test_circuit_unitary_matches_kron_products(case):
    n, gates = case
    want = np.eye(2**n, dtype=complex)
    for gate in gates:
        want = reference_matrix(gate, n) @ want
    assert np.max(np.abs(circuit_unitary(gates, n) - want)) <= 1e-13


square_matrices = st.sampled_from([1, 2, 4, 8]).flatmap(
    lambda d: arrays(
        complex,
        (d, d),
        elements=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    )
)


@given(square_matrices)
def test_every_matrix_is_equivalent_to_itself_at_zero_tolerance(U):
    assert equivalent_up_to_phase(U, U, 0.0)


@given(square_matrices, st.floats(-2.0 * math.pi, 2.0 * math.pi))
def test_global_phase_multiples_are_equivalent(U, theta):
    assert equivalent_up_to_phase(U, np.exp(1j * theta) * U, 1e-13)


def test_batch_agrees_entrywise_and_accepts_an_empty_batch():
    rng = np.random.default_rng(31)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    got = _phase_equiv_batch(np.stack([M, 1j * M, M + 1e-6]), M, 1e-15)
    assert got.tolist() == [True, True, False]
    empty = _phase_equiv_batch(np.zeros((0, 4, 4), dtype=complex), M, 1e-15)
    assert empty.shape == (0,) and empty.dtype == bool


@st.composite
def circuits_with_steps(draw):
    """A circuit of gates, measurements and conditional steps, any angle
    finite, and the steps format_circuit must render: (kind, wires, angle)
    per gate or measurement, (bit, [(kind, wires, angle), ...]) per
    conditional step, an angle being what %g keeps of it."""
    n = draw(st.integers(1, 4))
    angles = st.floats(allow_nan=False, allow_infinity=False)
    steps, want, measured = [], [], 0
    for _ in range(draw(st.integers(0, 8))):
        choice = draw(st.sampled_from(["gate", "measure", "conditional"]))
        if choice == "measure":
            steps.append(Measurement(draw(st.integers(0, n - 1))))
            want.append(("measure", (steps[-1].wire,), None))
            measured += 1
        elif choice == "conditional" and measured:
            gates = [draw_gate(draw, n, angles) for _ in range(draw(st.integers(0, 3)))]
            bit = draw(st.integers(0, 1))
            steps.append(ClassicallyControlled((draw(st.integers(0, measured - 1)), bit), gates))
            want.append((bit, [expected_gate(g) for g in gates]))
        else:
            steps.append(draw_gate(draw, n, angles))
            want.append(expected_gate(steps[-1]))
    return Circuit(steps), want


def expected_gate(gate):
    angle = None if gate.theta is None else float(f"{gate.theta:g}")
    return gate.kind, gate.wires, angle


GATE_TEXT = re.compile(r"(\w+)\(([^()]*)\)")


def read_gate(text):
    kind, args = GATE_TEXT.fullmatch(text).groups()
    values = args.split(",")
    if kind == "Phase":
        return kind, (int(values[1]),), float(values[0])
    return kind, tuple(map(int, values)), None


def read_circuit(line):
    """format_circuit's line read back, in the form of circuits_with_steps."""
    if line == "(empty)":
        return []
    steps = []
    for text in line.split(" ; "):
        conditional = re.fullmatch(r"on([01]):\[(.*)\]", text)
        if conditional is None:
            steps.append(read_gate(text))
            continue
        inner = conditional[2]
        gates = [m[0] for m in GATE_TEXT.finditer(inner)]
        assert ",".join(gates) == inner, text
        steps.append((int(conditional[1]), [read_gate(g) for g in gates]))
    return steps


@given(circuits_with_steps())
def test_format_circuit_reads_back_step_by_step(case):
    circuit, want = case
    assert read_circuit(format_circuit(circuit)) == want

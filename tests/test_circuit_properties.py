"""Property tests: the gate kernel against kron products, and the
phase-equivalence rule on random matrices and batches."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from cavityswap.circuits import (  # noqa: E402
    CSWAP,
    Gate,
    Phase,
    _phase_equiv_batch,
    circuit_unitary,
    equivalent_up_to_phase,
)
from test_circuits import HADAMARD, PAULI_X, PHASE_S, cswap_permutation, kron_all  # noqa: E402

LITERAL_1Q = {
    "H": HADAMARD,
    "X": PAULI_X,
    "Z": np.array([[1, 0], [0, -1]]),
    "S": PHASE_S,
    "Sdag": PHASE_S.conj(),
}


@st.composite
def gate_lists(draw):
    n = draw(st.integers(1, 4))
    kinds = sorted(LITERAL_1Q) + ["Phase"] + (["CSWAP"] if n >= 3 else [])
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "CSWAP":
            gates.append(CSWAP(*draw(st.permutations(range(n)))[:3]))
        elif kind == "Phase":
            theta = draw(st.floats(-2.0 * math.pi, 2.0 * math.pi))
            gates.append(Phase(theta, draw(st.integers(0, n - 1))))
        else:
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),)))
    return n, gates


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

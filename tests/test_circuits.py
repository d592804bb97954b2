"""State-vector simulator, swap-test statistics, and the phase-flip circuit."""
import itertools
import math

import numpy as np
import pytest

from cavityswap import circuits
from cavityswap.circuits import (
    CSWAP,
    Circuit,
    ClassicallyControlled,
    Gate,
    H,
    Measurement,
    Phase,
    PureState,
    S,
    X,
    apply,
    basis_state,
    circuit_unitary,
    cpf_feedforward,
    cpf_target,
    cswap_multi,
    czz_target,
    equivalent_up_to_phase,
    format_circuit,
    gate_matrix,
    measure,
    product_state,
    random_state,
    run,
    swap_test,
)

PLUS = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


def kron_all(*mats):
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def cswap_permutation(n, control, t1, t2):
    """Brute-force permutation matrix: swap bits t1 and t2 when control is 1.

    Wire 0 is the most significant bit of the basis index.
    """
    dim = 2**n
    P = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bits = [(idx >> (n - 1 - w)) & 1 for w in range(n)]
        out = list(bits)
        if bits[control] == 1:
            out[t1], out[t2] = out[t2], out[t1]
        jdx = 0
        for b in out:
            jdx = (jdx << 1) | b
        P[jdx, idx] = 1.0
    return P


def align_phase(a, b):
    """Global phase making b match a at the entry where a is largest."""
    k = int(np.argmax(np.abs(a)))
    return a[k] / b[k]


# ---------------------------------------------------------------------------
# states and ordering


def test_wire_zero_is_most_significant():
    state = basis_state([1, 0])
    assert np.argmax(np.abs(state.amplitudes)) == 2
    state = basis_state([0, 1, 1])
    assert np.argmax(np.abs(state.amplitudes)) == 3


def test_product_state_matches_kron():
    a, b = (0.6, 0.8j), (1.0 / math.sqrt(2), -1.0 / math.sqrt(2))
    state = product_state(a, b)
    assert np.allclose(state.amplitudes, np.kron(a, b), atol=1e-15)


def test_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.0, 0.0]), 2)
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), 1)  # unnormalized
    with pytest.raises(ValueError, match="state norm nan"):
        PureState(np.array([np.nan, 0.0]), 1)
    with pytest.raises(ValueError):
        basis_state([])
    with pytest.raises(ValueError):
        basis_state([0] * 30)  # guarded before any allocation
    with pytest.raises(ValueError):
        basis_state([0, 2])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PureState(np.array([1.0, 0.0]), 0), r"wire count must be in \[1, "),
        (lambda: product_state([1.0, 0.0, 0.0]), "length-2 amplitude pair"),
        (lambda: Gate("X", (-1,)), "wire indices must be non-negative"),
        (lambda: ClassicallyControlled((0, 2), (X(1),)), "condition bit must be 0 or 1"),
        (lambda: Circuit([H(0), "H(1)"]), "unsupported circuit step 'H\\(1\\)'"),
        (lambda: measure(basis_state([0, 1]), 2), "wire 2 out of range"),
        (lambda: cpf_feedforward(basis_state([0])), "expected a 2-wire photon state"),
        # an index that would act on another wire or measurement than named:
        # negative ones count from the end, and int() truncates a float
        (lambda: measure(basis_state([0, 1]), -1), "measured wires must be non-negative"),
        (lambda: Measurement(-2), "measured wires must be non-negative"),
        (lambda: ClassicallyControlled((-1, 0), (X(1),)), "measurement indices must be non-neg"),
        (lambda: Gate("H", (1.5,)), "wire indices must be non-negative integers, got 1.5"),
        (lambda: Gate("H", (True,)), "wire indices must be non-negative integers, got True"),
        # a bit that int() would take for 1
        (lambda: ClassicallyControlled((0, 1.5), (X(1),)), "bit must be 0 or 1, got 1.5"),
        (lambda: ClassicallyControlled((0, True), (X(1),)), "bit must be 0 or 1, got True"),
        (lambda: ClassicallyControlled((0, 1), (Measurement(1),)), "applies gates only"),
    ],
    ids=["wire-count", "factor-length", "negative-wire", "condition-bit", "step-type",
         "measured-wire", "cpf-wires", "negative-measured-wire", "negative-measurement-wire",
         "negative-measurement-index", "float-wire", "bool-wire", "float-bit", "bool-bit",
         "conditional-measurement"],
)
def test_invalid_arguments_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_numpy_integer_indices_are_indices():
    circuit = Circuit([Gate("H", (np.int64(1),)), Measurement(np.intp(0)),
                       ClassicallyControlled((np.int32(0), np.int64(1)), (X(1),))])
    assert circuit.steps[-1].condition == (0, 1)
    assert format_circuit(circuit) == "H(1) ; measure(0) ; on1:[X(1)]"


def _refuse_allocation(*args, **kwargs):
    raise AssertionError("a 2^n array was allocated before the wire count was checked")


@pytest.mark.parametrize("allocator,build", [
    ("kron", lambda: product_state(*[PLUS] * (circuits.MAX_WIRES + 1))),
    # 2 * 12 + 1 wires with the control
    ("kron", lambda: swap_test(basis_state([0] * 12), basis_state([1] * 12))),
    ("eye", lambda: circuit_unitary([], circuits.MAX_WIRES // 2 + 2)),
    ("eye", lambda: gate_matrix(H(0), circuits.MAX_WIRES // 2 + 1)),
    ("eye", lambda: circuit_unitary([], 0)),
], ids=["product-state", "swap-test", "circuit-unitary", "gate-matrix", "no-wires"])
def test_wire_counts_are_checked_before_allocating(monkeypatch, allocator, build):
    """A dense unitary takes at most MAX_WIRES // 2 wires, as many entries
    as the largest state; the allocating call refuses to run, so each
    check must come first."""
    monkeypatch.setattr(np, allocator, _refuse_allocation)
    with pytest.raises(ValueError, match="wire count must be in"):
        build()


def test_format_circuit_renders_phase_angles():
    circuit = Circuit([Phase(0.25, 1), H(0), Measurement(0), ClassicallyControlled((0, 1), (X(1),))])
    assert format_circuit(circuit) == "Phase(0.25,1) ; H(0) ; measure(0) ; on1:[X(1)]"
    # a conditional gate is rendered as the same gate outside one would be
    step = ClassicallyControlled((0, 1), (Phase(0.5, 1), CSWAP(0, 1, 2)))
    circuit = Circuit([Measurement(0), step])
    assert format_circuit(circuit) == "measure(0) ; on1:[Phase(0.5,1),CSWAP(0,1,2)]"


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("I", (0,))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("CSWAP", (0, 1))
    with pytest.raises(ValueError):
        CSWAP(0, 1, 1)
    with pytest.raises(ValueError):
        Gate("Phase", (0,))  # missing angle
    with pytest.raises(ValueError):
        Gate("CNOT", (0, 1))
    # an angle is Phase's alone, and a finite one
    for theta in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="Phase angle must be finite"):
            Phase(theta, 0)
    with pytest.raises(ValueError, match="H takes no angle"):
        Gate("H", (0,), theta=1.0)
    with pytest.raises(ValueError, match="CSWAP takes no angle"):
        Gate("CSWAP", (0, 1, 2), theta=0.0)


# ---------------------------------------------------------------------------
# gate application


HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
PAULI_X = np.array([[0, 1], [1, 0]])
PHASE_S = np.array([[1, 0], [0, 1j]])


def test_apply_matches_kron_matrices():
    rng = np.random.default_rng(21)
    state = random_state(3, rng)
    eye = np.eye(2)
    cases = [
        (H(0), kron_all(HADAMARD, eye, eye)),
        (X(1), kron_all(eye, PAULI_X, eye)),
        (Phase(0.4, 2), kron_all(eye, eye, [[1, 0], [0, np.exp(0.4j)]])),
        (CSWAP(0, 1, 2), cswap_permutation(3, 0, 1, 2)),
        (CSWAP(2, 0, 1), cswap_permutation(3, 2, 0, 1)),
    ]
    for gate, matrix in cases:
        got = apply(state, gate).amplitudes
        want = matrix @ state.amplitudes
        assert np.max(np.abs(got - want)) <= 1e-13, gate.kind


def test_gate_matrix_cswap_against_permutation():
    assert np.array_equal(gate_matrix(CSWAP(0, 1, 2), 3), cswap_permutation(3, 0, 1, 2))
    assert np.array_equal(gate_matrix(CSWAP(1, 0, 3), 4), cswap_permutation(4, 1, 0, 3))


def test_circuit_unitary_composes_right_to_left():
    gates = [H(0), S(1), CSWAP(0, 1, 2)]
    eye = np.eye(2)
    want = (
        cswap_permutation(3, 0, 1, 2)
        @ kron_all(eye, PHASE_S, eye)
        @ kron_all(HADAMARD, eye, eye)
    )
    assert np.allclose(circuit_unitary(gates, 3), want, atol=1e-14)


def test_cswap_truth_table():
    for bits in itertools.product((0, 1), repeat=3):
        out = apply(basis_state(list(bits)), CSWAP(0, 1, 2))
        want = list(bits) if bits[0] == 0 else [bits[0], bits[2], bits[1]]
        assert np.array_equal(out.amplitudes, basis_state(want).amplitudes)


def test_cswap_multi_validates_registers():
    state = basis_state([0] * 5)
    with pytest.raises(ValueError):
        cswap_multi(state, 0, (1, 2), (3,))  # length mismatch
    with pytest.raises(ValueError):
        cswap_multi(state, 0, (1, 2), (2, 4))  # overlap
    with pytest.raises(ValueError):
        cswap_multi(state, 0, (1, 5), (3, 4))  # out of range


# ---------------------------------------------------------------------------
# measurement and feed-forward


def test_measure_deterministic_wire():
    state = basis_state([1, 0])
    branches = measure(state, 0)
    assert len(branches) == 1  # zero-probability branch dropped
    assert branches[0].outcome == (1,)
    assert branches[0].probability == pytest.approx(1.0, abs=1e-15)


def test_measure_plus_state():
    state = product_state(PLUS, (1, 0))
    branches = measure(state, 0)
    assert [b.outcome for b in branches] == [(0,), (1,)]
    for b in branches:
        assert b.probability == pytest.approx(0.5, abs=1e-14)
        assert abs(np.linalg.norm(b.post_state.amplitudes) - 1.0) <= 1e-12


def test_run_applies_conditional_gates():
    # measuring |+> then X-correcting on outcome 1 folds both branches onto |0>
    circ = Circuit((H(0), Measurement(0), ClassicallyControlled((0, 1), (X(0),))))
    for branch in run(circ, basis_state([0])):
        assert branch.post_state.amplitudes[0] == pytest.approx(1.0, abs=1e-14)


def test_circuit_rejects_dangling_condition():
    with pytest.raises(ValueError):
        Circuit((ClassicallyControlled((0, 1), (X(0),)), Measurement(0)))


# ---------------------------------------------------------------------------
# swap test


def test_swap_test_extremes():
    psi = basis_state([0, 1, 0])
    assert swap_test(psi, psi) == pytest.approx(0.0, abs=1e-14)
    assert swap_test(psi, basis_state([1, 0, 1])) == pytest.approx(0.5, abs=1e-14)


def test_swap_test_halved_form_not_the_unhalved_one():
    """The control-qubit interference yields (1 - |<psi|phi>|^2) / 2.

    A frequently quoted variant omits the factor 1/2; for any pair with
    overlap below one the two formulas disagree, and the simulated statistics
    must side with the halved form.
    """
    rng = np.random.default_rng(66)
    psi, phi = random_state(3, rng), random_state(3, rng)
    q = 1.0 - abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
    got = swap_test(psi, phi)
    assert got == pytest.approx(q / 2.0, abs=1e-12)
    assert abs(got - q) > 0.1  # far from the unhalved variant


def test_swap_test_rejects_mismatched_registers():
    with pytest.raises(ValueError):
        swap_test(basis_state([0]), basis_state([0, 0]))


# ---------------------------------------------------------------------------
# phase-flip construction


def test_targets_are_the_expected_diagonals():
    assert np.array_equal(cpf_target(), np.diag([1.0, -1.0, 1.0, 1.0]))
    assert np.array_equal(czz_target(), np.diag([1.0, 1, 1, 1, 1, -1, -1, 1]))
    assert np.allclose(czz_target() @ czz_target(), np.eye(8), atol=0)


def test_cpf_feedforward_on_random_inputs():
    rng = np.random.default_rng(77)
    target = cpf_target()
    for _ in range(25):
        photons = random_state(2, rng)
        branches = cpf_feedforward(photons)
        assert [b.outcome for b in branches] == [(0,), (1,)]
        want = target @ photons.amplitudes
        for b in branches:
            assert b.probability == pytest.approx(0.5, abs=1e-12)
            got = b.post_state.amplitudes
            assert np.max(np.abs(got - align_phase(got, want) * want)) <= 1e-12


def test_cpf_feedforward_accepts_three_wire_input():
    photons = random_state(2, np.random.default_rng(88))
    full = PureState(np.kron(PLUS, photons.amplitudes), 3)
    branches = cpf_feedforward(full)
    direct = cpf_feedforward(photons)
    for b3, b2 in zip(branches, direct):
        assert b3.outcome == b2.outcome
        assert np.max(np.abs(b3.post_state.amplitudes - b2.post_state.amplitudes)) <= 1e-12


def test_cpf_feedforward_rejects_wrong_atom_state():
    with pytest.raises(ValueError):
        cpf_feedforward(product_state((1, 0), (1, 0), (0, 1)))
    # PureState refuses NaN, but its amplitude array stays writable
    state = PureState(np.kron(PLUS, basis_state([0, 1]).amplitudes), 3)
    state.amplitudes[0] = np.nan
    with pytest.raises(ValueError, match="atom wire"):
        cpf_feedforward(state)


# ---------------------------------------------------------------------------
# phase equivalence


def test_equivalent_up_to_phase():
    with pytest.raises(ValueError):
        equivalent_up_to_phase(np.eye(2), np.eye(3), 1e-9)


def test_equivalent_up_to_phase_zero_matrices():
    assert equivalent_up_to_phase(np.zeros((2, 2)), np.zeros((2, 2)), 1e-12)

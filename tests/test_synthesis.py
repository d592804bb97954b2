"""Bounded search over layered CSWAP circuits."""
import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from cavityswap import circuits
from cavityswap.circuits import (
    Gate,
    Measurement,
    SearchSpaceError,
    circuit_unitary,
    cpf_target,
    czz_target,
    equivalent_up_to_phase,
    format_circuit,
    run,
    synthesize,
)
from test_circuits import HADAMARD, PHASE_S, cswap_permutation, kron_all

FULL_SET = ("I", "Z", "S", "Sdag", "H")

LITERAL_1Q = {
    "I": np.eye(2),
    "Z": np.diag([1.0, -1.0]),
    "S": PHASE_S,
    "Sdag": PHASE_S.conj(),
    "H": HADAMARD,
}


def planted_unitary(layers):
    """L_k . CSWAP . ... . CSWAP . L_0 from literal matrices, layers (kind
    names per wire) in application order."""
    cswap = cswap_permutation(3, 0, 1, 2)
    u = np.eye(8, dtype=complex)
    for depth, layer in enumerate(layers):
        if depth:
            u = cswap @ u
        u = kron_all(*(LITERAL_1Q[k] for k in layer)) @ u
    return u


def digest(lines):
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def match_lines(result):
    """The canonical line of each match: layers, then the correction pair."""
    return [
        ";".join(",".join(layer) for layer in m.layers) + f"|{m.feedforward}"
        for m in result.matches
    ]


def branch_maps(circuit):
    """Photon maps of a measure-and-correct circuit, one per outcome; None
    for an outcome whose weight is below the 1e-12 feed-forward floor."""
    pre, post = [], {0: [], 1: []}
    seen_measure = False
    for step in circuit.steps:
        if isinstance(step, Measurement):
            seen_measure = True
        elif isinstance(step, Gate):
            assert not seen_measure
            pre.append(step)
        else:
            post[step.condition[1]].extend(step.gates)
    U = circuit_unitary(pre, 3).reshape(2, 4, 2, 4)
    maps = {}
    for outcome in (0, 1):
        block = (U[outcome, :, 0, :] + U[outcome, :, 1, :]) / math.sqrt(2.0)
        correction = circuit_unitary([Gate(g.kind, (g.wires[0] - 1,)) for g in post[outcome]], 2)
        weight = float(np.sum(np.abs(block) ** 2)) / 4.0
        maps[outcome] = correction @ (block / math.sqrt(weight)) if weight >= 1e-12 else None
    return maps


def test_czz_rediscovered_quickly():
    start = time.perf_counter()
    result = synthesize(czz_target(), 2, ("I", "Z"))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert result.search_space == 512  # 8 layers ** 3 candidates, no variants
    assert not result.truncated
    rendered = [format_circuit(m.circuit) for m in result.matches]
    assert "Z(1) ; CSWAP(0,1,2) ; Z(1) ; CSWAP(0,1,2)" in rendered
    # every reported identity must actually hold as an operator
    for match in result.matches:
        gates = [s for s in match.circuit.steps if isinstance(s, Gate)]
        assert equivalent_up_to_phase(circuit_unitary(gates, 3), czz_target(), 1e-9)


def test_czz_search_is_deterministic():
    a = synthesize(czz_target(), 2, ("I", "Z"))
    b = synthesize(czz_target(), 2, ("I", "Z"))
    assert [format_circuit(m.circuit) for m in a.matches] == [
        format_circuit(m.circuit) for m in b.matches
    ]


def test_cpf_has_no_measurement_free_two_cswap_form():
    result = synthesize(cpf_target(), 2, FULL_SET)
    assert result.search_space == 125**3
    assert len(result.matches) == 0


def test_cpf_feedforward_placement_found():
    result = synthesize(cpf_target(), 2, FULL_SET, allow_feedforward=True, time_budget=60.0)
    assert not result.truncated
    assert len(result.matches) > 0
    placements = {m.layers: m.feedforward for m in result.matches}
    # the hand-built construction: Z on the still photon around the first
    # swap, the emitter rotated before the second, then the readout layer
    want = (("I", "Z", "I"), ("Sdag", "Z", "I"), ("H", "Sdag", "S"))
    assert want in placements
    assert placements[want] == (0, 3)  # identity / Z-on-both corrections
    # spot-check the first few and the hand-built one operationally
    target = cpf_target()
    for match in result.matches[:3] + tuple(
        m for m in result.matches if m.layers == want
    ):
        for outcome, mapped in branch_maps(match.circuit).items():
            assert equivalent_up_to_phase(mapped, target, 1e-9), (match.layers, outcome)


def test_found_circuit_runs_end_to_end():
    """Simulating a reported feed-forward circuit must enact the target."""
    # the reduced set keeps the search around a second and still has solutions
    result = synthesize(cpf_target(), 2, ("I", "Z", "S", "H"), allow_feedforward=True)
    assert result.matches
    match = result.matches[0]
    rng = np.random.default_rng(3)
    photons = circuits.random_state(2, rng)
    full = circuits.PureState(
        np.kron((np.sqrt(0.5), np.sqrt(0.5)), photons.amplitudes), 3
    )
    want = cpf_target() @ photons.amplitudes
    total = 0.0
    for branch in run(match.circuit, full):
        total += branch.probability
        post = branch.post_state.amplitudes.reshape(2, 4)[branch.outcome[0]]
        k = int(np.argmax(np.abs(post)))
        assert np.max(np.abs(post - (post[k] / want[k]) * want)) <= 1e-9
    assert total == pytest.approx(1.0, abs=1e-12)


def test_zero_cswaps():
    result = synthesize(cpf_target(), 0, FULL_SET)
    assert result.search_space == 125
    assert len(result.matches) == 0
    # but a single-layer identity against a local target works
    local = np.kron(np.eye(2), np.array([[1, 0], [0, -1]], dtype=complex))
    found = synthesize(local, 0, ("I", "Z"))
    assert any(m.layers == (("I", "I", "Z"),) for m in found.matches)


def test_layer_tables_are_the_kernel_products():
    # the Kronecker tables synthesis uses, bit for bit the operators the
    # gate kernel builds, for every kind
    kinds = circuits._SYNTH_KINDS
    photon, layers = circuits._layer_tables(kinds)
    want = np.array([
        circuit_unitary(circuits._layer_gates(names), 3)
        for names in itertools.product(kinds, repeat=3)
    ])
    assert layers.tobytes() == want.tobytes()
    want = np.array([
        circuit_unitary(circuits._layer_gates(("I",) + pair), 3)[:4, :4]
        for pair in itertools.product(kinds, repeat=2)
    ])
    assert photon.tobytes() == want.tobytes()


def test_correction_diagonals_are_the_correction_blocks():
    for gates, diagonal in zip(circuits._CORRECTION_GATES, circuits._CORRECTION_DIAGONALS):
        assert np.array_equal(np.diag(diagonal), circuit_unitary(gates, 3)[:4, :4])


def test_full_operator_target_mode():
    # 8x8 targets are matched as whole operators, not photon maps
    result = synthesize(czz_target(), 1, ("I", "Z"))
    assert result.search_space == 64
    assert len(result.matches) == 0  # one CSWAP cannot make CZZ from {I, Z}


def test_search_space_guard():
    with pytest.raises(SearchSpaceError) as info:
        synthesize(cpf_target(), 4, ("I", "H", "X", "Z", "S", "Sdag"), allow_feedforward=True)
    assert info.value.size > info.value.limit


def test_time_budget_truncates():
    result = synthesize(
        cpf_target(), 2, FULL_SET, allow_feedforward=True, time_budget=1e-4
    )
    assert result.truncated
    assert result.elapsed >= 0.0


def test_argument_validation():
    with pytest.raises(ValueError):
        synthesize(np.eye(3), 1)
    with pytest.raises(ValueError):
        synthesize(cpf_target(), 5)
    with pytest.raises(ValueError):
        synthesize(cpf_target(), 1, ("I", "Q"))
    with pytest.raises(ValueError):
        synthesize(cpf_target(), 1, ("I", "Z", "Z"))
    with pytest.raises(ValueError):
        synthesize(np.full((8, 8), np.nan), 1)
    with pytest.raises(ValueError, match="gate_set"):
        synthesize(cpf_target(), 1, ())
    # unitary entries have modulus at most 1: tol must be finite, in (0, 1)
    for tol in (math.nan, -1.0, 0.0, 1.0, 1e300, math.inf):
        with pytest.raises(ValueError, match="tol"):
            synthesize(czz_target(), 1, ("I", "Z"), tol=tol)
    for budget in (math.nan, -1.0, 0.0, -math.inf):
        with pytest.raises(ValueError, match="time_budget"):
            synthesize(czz_target(), 1, ("I", "Z"), time_budget=budget)
    assert not synthesize(czz_target(), 1, ("I", "Z"), time_budget=math.inf).truncated


@pytest.mark.parametrize("scale", [0.0, 1e-200, 1e200])
@pytest.mark.parametrize("allow_feedforward", [False, True])
def test_photon_map_target_at_extreme_scale(scale, allow_feedforward):
    # no unitary matches these photon maps; the screen must not overflow
    result = synthesize(scale * np.eye(4, dtype=complex), 1, ("I", "Z", "H"),
                        allow_feedforward=allow_feedforward)
    assert result.matches == ()


def test_format_circuit_empty():
    result = synthesize(np.eye(4, dtype=complex), 0, ("I",))
    assert len(result.matches) == 1
    assert format_circuit(result.matches[0].circuit) == "(empty)"
    assert result.matches[0].line == "(empty)"


def test_match_lines_render_as_format_circuit(cpf_feedforward):
    searches = {
        "cpf feed-forward": cpf_feedforward,
        "cpf measurement-free": synthesize(cpf_target(), 2, FULL_SET),
        "identity photon map": synthesize(np.eye(4, dtype=complex), 2, ("I", "Z")),
        "czz": synthesize(czz_target(), 2, ("I", "Z")),
        "no CSWAP": synthesize(np.eye(4, dtype=complex), 0, ("I",)),
    }
    assert len(searches["cpf measurement-free"].matches) == 0
    for name, result in searches.items():
        for match in result.matches:
            assert match.line == format_circuit(match.circuit), (name, match)
    # outcomes whose correction is the identity are among them
    identity_fixes = [m.feedforward for m in cpf_feedforward.matches if 0 in m.feedforward]
    assert identity_fixes and any(ff != (0, 0) for ff in identity_fixes)
    assert len(searches["identity photon map"].matches) > 0


# Digests of the sorted match lists, copied from perfbench/pins.json: the
# planted entries hash match_lines, the CLI entries hash the printed circuit
# lines.  One planted target per match-count class.
PINNED_PLANTED = [
    ((("Sdag", "Sdag", "S"), ("H", "Z", "Sdag"), ("H", "Sdag", "H")),
     4, "496f21195dc26b97fa2f4e6b934263c0ad52ede5378bc701fa7becfee3f256a6"),
    ((("S", "Sdag", "H"), ("Sdag", "Sdag", "I"), ("Sdag", "H", "I")),
     64, "e74ed8088544438de97a36cd5648965accb23470234cc18fcadae1318af6dd05"),
    ((("Sdag", "Sdag", "H"), ("I", "Sdag", "Sdag"), ("S", "Z", "I")),
     323, "505570ae0657f6699b8a5f0a488c6ed4717753ea74229b23ffcb5a6ad7980d67"),
    ((("S", "I", "Sdag"), ("I", "Z", "S"), ("I", "Sdag", "Sdag")),
     1024, "2bc18860ee591bd4caf842c2db89b567bc9d7faef628595965f2cb8502abe3f1"),
]


@pytest.fixture(scope="module")
def cpf_feedforward():
    return synthesize(cpf_target(), 2, FULL_SET, allow_feedforward=True)


@pytest.mark.parametrize("layers,found,want", PINNED_PLANTED)
def test_planted_match_list_is_pinned(layers, found, want):
    result = synthesize(planted_unitary(layers), 2, FULL_SET)
    lines = match_lines(result)
    assert ";".join(",".join(layer) for layer in layers) + "|None" in lines
    assert (len(lines), digest(lines)) == (found, want)


def test_cli_match_lists_are_pinned(cpf_feedforward):
    czz = synthesize(czz_target(), 2, ("I", "Z"))
    for result, found, want in [
        (cpf_feedforward, 2048,
         "73020c328b7176b1eae12e1db49c09f5850b580df38003f4c1dde5ec419bfb84"),
        (czz, 32, "6097560689d8563afb3b597b99a37cffa9c6ce13c1180866729705492c210581"),
    ]:
        lines = [format_circuit(m.circuit) for m in result.matches]
        assert (len(lines), digest(lines)) == (found, want)


def test_search_evaluates_fewer_operators_than_it_covers(cpf_feedforward):
    assert cpf_feedforward.search_space == 125**3 * 17
    # the photon-map screen forms no operator per prefix class: 5 525 classes
    # times 50 final-layer families would be 276 250
    assert len(cpf_feedforward.matches) <= cpf_feedforward.evaluated < 10_000


@pytest.mark.parametrize("target,allow_feedforward", [(czz_target(), False), (cpf_target(), True)])
def test_truncated_matches_are_confirmed_matches(target, allow_feedforward, cpf_feedforward):
    full = cpf_feedforward if allow_feedforward else synthesize(target, 2, FULL_SET)
    assert not full.truncated
    first, later = (
        synthesize(target, 2, FULL_SET, allow_feedforward=allow_feedforward, time_budget=budget)
        for budget in (1e-4, 0.3 * full.elapsed)
    )
    assert first.truncated
    for partial in (first, later):
        assert set(match_lines(partial)) <= set(match_lines(full))


def test_matches_do_not_depend_on_the_order_classes_are_found(cpf_feedforward):
    # the reversed gate set enumerates layers, hence products, in another
    # order: other representatives, and classes found and numbered in
    # another order.  The brute-force property never reaches searches this
    # large
    backwards = FULL_SET[::-1]
    planted = planted_unitary(PINNED_PLANTED[2][0])
    assert sorted(match_lines(synthesize(planted, 2, backwards))) == sorted(
        match_lines(synthesize(planted, 2, FULL_SET))
    )
    fed = synthesize(cpf_target(), 2, backwards, allow_feedforward=True)
    assert sorted(match_lines(fed)) == sorted(match_lines(cpf_feedforward))

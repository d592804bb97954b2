"""Property tests: synthesize against an independent brute force over every
layer assignment, in full-operator and feed-forward mode."""
import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cavityswap.circuits import (  # noqa: E402
    _KEY_GRID,
    CSWAP,
    Circuit,
    Gate,
    Measurement,
    circuit_unitary,
    equivalent_up_to_phase,
    synthesize,
)
from test_synthesis import branch_maps, match_lines  # noqa: E402

KINDS = ("I", "H", "X", "Z", "S", "Sdag")
TOL = 1e-9
# photon-pair corrections by index: none, Z on the second photon, Z on the
# first, Z on both (the first photon is the more significant bit)
CORRECTIONS = [np.diag(d).astype(complex) for d in ([1, 1, 1, 1], [1, -1, 1, -1],
                                                   [1, 1, -1, -1], [1, -1, -1, 1])]
# brute-force sizes that keep one example well under a second
FULL_LIMIT = 4096
FEEDFORWARD_LIMIT = 729


def circuit_gates(layers):
    gates = []
    for depth, layer in enumerate(layers):
        if depth:
            gates.append(CSWAP(0, 1, 2))
        gates.extend(Gate(kind, (wire,)) for wire, kind in enumerate(layer) if kind != "I")
    return gates


def factorizes(U, target, tol):
    # U = c (x) target, c the blockwise projection onto target
    blocks = U.reshape(2, 4, 2, 4)
    c = np.array([[np.vdot(target, blocks[a, :, b, :]) / 4.0 for b in (0, 1)] for a in (0, 1)])
    return np.max(np.abs(U - np.kron(c, target))) <= tol


def brute_force(target, k, kinds, feedforward, tol):
    """Sorted match lines of every candidate, tested one at a time."""
    layer_matrix = {
        layer: circuit_unitary(circuit_gates([layer]), 3)
        for layer in itertools.product(kinds, repeat=3)
    }
    cswap = circuit_unitary([CSWAP(0, 1, 2)], 3)
    lines = []
    for layers in itertools.product(layer_matrix, repeat=k + 1):
        name = ";".join(",".join(layer) for layer in layers)
        U = layer_matrix[layers[0]]
        for layer in layers[1:]:
            U = layer_matrix[layer] @ cswap @ U
        if target.shape == (8, 8):
            if equivalent_up_to_phase(U, target, tol):
                lines.append(f"{name}|None")
            continue
        if factorizes(U, target, tol):
            lines.append(f"{name}|None")
        if feedforward:
            maps = branch_maps(Circuit(tuple(circuit_gates(layers)) + (Measurement(0),)))
            if maps[0] is None or maps[1] is None:
                continue
            fixes = [
                [ci for ci, D in enumerate(CORRECTIONS) if equivalent_up_to_phase(D @ maps[o], target, tol)]
                for o in (0, 1)
            ]
            lines += [f"{name}|({c0}, {c1})" for c0 in fixes[0] for c1 in fixes[1]]
    return sorted(lines)


@st.composite
def searches(draw):
    feedforward = draw(st.booleans())
    k = draw(st.integers(0, 3))
    limit = FEEDFORWARD_LIMIT if feedforward else FULL_LIMIT
    most = max(m for m in (1, 2, 3) if m ** (3 * (k + 1)) <= limit)
    kinds = tuple(draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=most, unique=True)))
    planted = [tuple(draw(st.sampled_from(kinds)) for _ in range(3)) for _ in range(k + 1)]
    if feedforward:
        # a random circuit's branch map rarely has a placement; these photon
        # maps have many over small gate sets
        maps = branch_maps(Circuit(tuple(circuit_gates(planted)) + (Measurement(0),)))
        target = draw(st.sampled_from([
            maps[0] if maps[0] is not None else maps[1],
            np.eye(4, dtype=complex),
            CORRECTIONS[3],
            np.eye(4, dtype=complex)[[0, 2, 1, 3]],
        ]))
    else:
        target = circuit_unitary(circuit_gates(planted), 3)
    target = np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))) * target
    # one entry moved by nothing, by half the tolerance, or by twice it
    shift = draw(st.sampled_from([0.0, 0.5, 2.0]))
    entry = draw(st.integers(0, target.size - 1))
    target.flat[entry] += shift * TOL * np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    return target, k, kinds, feedforward


@settings(max_examples=60)
@given(searches())
def test_synthesize_matches_brute_force(search):
    target, k, kinds, feedforward = search
    result = synthesize(target, k, kinds, allow_feedforward=feedforward, tol=TOL)
    assert sorted(match_lines(result)) == brute_force(target, k, kinds, feedforward, TOL)


@pytest.mark.parametrize("kinds,k,target", [
    (("I", "Z"), 2, np.eye(4, dtype=complex)),
    (("I", "S"), 2, CORRECTIONS[3]),
    (("I", "H"), 2, CORRECTIONS[3]),
    (("X", "Z"), 2, np.eye(4, dtype=complex)[[0, 2, 1, 3]]),
    (("H", "S", "Sdag"), 1, 1j * CORRECTIONS[3]),
])
def test_feedforward_placements_match_brute_force(kinds, k, target):
    result = synthesize(target, k, kinds, allow_feedforward=True, tol=TOL)
    want = brute_force(target, k, kinds, True, TOL)
    assert any(not line.endswith("|None") for line in want)
    assert sorted(match_lines(result)) == want


@pytest.mark.parametrize("tol", [TOL, 0.5 * _KEY_GRID, _KEY_GRID])
def test_query_on_a_rounding_edge_matches_brute_force(tol):
    # for the planted outer pair the query L_1^+ . T . L_0^+ is the CSWAP
    # itself; moving one of its zero entries by half a grid step puts that
    # keyed coordinate exactly on a rounding edge
    kinds = ("H", "S")
    first, last = ("H", "S", "H"), ("S", "H", "S")
    query = circuit_unitary([CSWAP(0, 1, 2)], 3)
    query[0, 1] += 0.5 * _KEY_GRID
    target = (
        circuit_unitary(circuit_gates([last]), 3) @ query @ circuit_unitary(circuit_gates([first]), 3)
    )
    result = synthesize(target, 1, kinds, tol=tol)
    want = brute_force(target, 1, kinds, False, tol)
    assert sorted(match_lines(result)) == want
    assert ("H,S,H;S,H,S|None" in want) == (tol >= 0.5 * _KEY_GRID)

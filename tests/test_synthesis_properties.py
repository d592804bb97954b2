"""Property tests: synthesize against an independent brute force over every
layer assignment, in full-operator, measurement-free photon-map and
feed-forward mode."""
import functools
import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cavityswap import synthesis  # noqa: E402
from cavityswap.circuits import (  # noqa: E402
    CSWAP,
    Circuit,
    Gate,
    Measurement,
    circuit_unitary,
    cpf_target,
    czz_target,
    equivalent_up_to_phase,
)
from cavityswap.synthesis import (  # noqa: E402
    _CLASS_SLACK,
    _KEY_GRID,
    _SKETCH,
    _SKETCH_L1,
    _near,
    _phase_canonical,
    _stable,
    _unit_rows,
    synthesize,
)
from test_synthesis import FULL_SET, branch_maps, match_lines  # noqa: E402

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
    # an 8x8 operator, or a 4x4 photon map matched measurement-free or
    # through feed-forward
    mode = draw(st.sampled_from(["full", "photon", "feedforward"]))
    feedforward = mode == "feedforward"
    k = draw(st.integers(0, 3))
    limit = FEEDFORWARD_LIMIT if feedforward else FULL_LIMIT
    most = max(m for m in (1, 2, 3) if m ** (3 * (k + 1)) <= limit)
    kinds = tuple(draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=most, unique=True)))
    planted = [tuple(draw(st.sampled_from(kinds)) for _ in range(3)) for _ in range(k + 1)]
    U = circuit_unitary(circuit_gates(planted), 3)
    if mode == "full":
        target = U
    else:
        if feedforward:
            maps = branch_maps(Circuit(tuple(circuit_gates(planted)) + (Measurement(0),)))
            planted_map = maps[0] if maps[0] is not None else maps[1]
        else:
            # the largest 4x4 block at a unitary's norm: the photon map of
            # the planted circuit whenever its operator factorizes
            blocks = U.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3).reshape(4, 4, 4)
            block = blocks[np.argmax(np.linalg.norm(blocks, axis=(1, 2)))]
            planted_map = 2.0 * block / np.linalg.norm(block)
        # a random circuit's photon map rarely has a placement; these photon
        # maps have many over small gate sets
        target = draw(st.sampled_from([
            planted_map,
            np.eye(4, dtype=complex),
            CORRECTIONS[3],
            np.eye(4, dtype=complex)[[0, 2, 1, 3]],
        ]))
    target = np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))) * target
    # one entry moved by nothing, by half the tolerance, or by twice it
    shift = draw(st.sampled_from([0.0, 0.5, 2.0]))
    entry = draw(st.integers(0, target.size - 1))
    target.flat[entry] += shift * TOL * np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    return target, k, kinds, feedforward


@settings(max_examples=90)
@given(searches())
def test_synthesize_matches_brute_force(search):
    target, k, kinds, feedforward = search
    result = synthesize(target, k, kinds, allow_feedforward=feedforward, tol=TOL)
    assert sorted(match_lines(result)) == brute_force(target, k, kinds, feedforward, TOL)


# searches whose results must not depend on the calls before them: (target,
# CSWAPs, gate kinds, feed-forward); FULL_SET is synthesize's default
CALL_POOL = [
    (czz_target(), 1, FULL_SET, False),
    (czz_target(), 2, FULL_SET, False),
    (cpf_target(), 2, FULL_SET, True),
    (czz_target(), 2, ("I", "Z"), False),
    (cpf_target(), 1, ("I", "Z", "H"), True),
    (np.eye(4, dtype=complex), 0, FULL_SET, True),
    (czz_target(), 0, FULL_SET, False),
]


def pool_search(i):
    target, k, kinds, feedforward = CALL_POOL[i]
    result = synthesize(target, k, kinds, allow_feedforward=feedforward)
    return result.matches, result.evaluated


@functools.lru_cache(maxsize=None)
def cold_pool_results():
    """Each pool search's result from an empty memo and no gate-set tables,
    computed once."""
    results = []
    for i in range(len(CALL_POOL)):
        synthesis._MEMO = (None, None, None, None)
        synthesis._gate_set_tables.cache_clear()
        results.append(pool_search(i))
    return results


@settings(max_examples=12)
@given(st.lists(st.integers(0, len(CALL_POOL) - 1), min_size=2, max_size=5))
def test_a_search_does_not_depend_on_the_calls_before_it(order):
    """Matches and evaluated counts of a search are those it has after an
    empty memo and no gate-set tables, whatever searches ran before it."""
    cold = cold_pool_results()
    # each example from the same start
    synthesis._MEMO = (None, None, None, None)
    synthesis._gate_set_tables.cache_clear()
    for i in order:
        assert pool_search(i) == cold[i]


@pytest.mark.parametrize("kinds,k,target", [
    (("I", "Z"), 2, np.eye(4, dtype=complex)),
    (("I", "S"), 2, CORRECTIONS[3]),
    (("I", "H"), 2, CORRECTIONS[3]),
    (("X", "Z"), 2, np.eye(4, dtype=complex)[[0, 2, 1, 3]]),
    (("H", "S", "Sdag"), 1, 1j * CORRECTIONS[3]),
    # matches with unequal correction pairs, as cpf's: a correction the
    # screen fails to propose drops them
    (("I", "Z"), 2, CORRECTIONS[1]),
])
def test_feedforward_placements_match_brute_force(kinds, k, target):
    result = synthesize(target, k, kinds, allow_feedforward=True, tol=TOL)
    want = brute_force(target, k, kinds, True, TOL)
    assert any(not line.endswith("|None") for line in want)
    assert sorted(match_lines(result)) == want
    # the photon-map screen proposes no candidate that fails confirmation,
    # dead branches included
    assert result.evaluated == len(want)


# the planted layers of the searches below, as operators
OUTER_KINDS = ("H", "S")
FIRST, MIDDLE, LAST = (
    circuit_unitary(circuit_gates([layer]), 3)
    for layer in (("H", "S", "H"), ("H", "H", "S"), ("S", "H", "S"))
)
CSWAP_MATRIX = circuit_unitary([CSWAP(0, 1, 2)], 3)
PREFIX = CSWAP_MATRIX @ FIRST
# A two-CSWAP full-operator search with nothing kept meets one layer
# earlier: the query (C . L_1)^+ . L_2^+ . T for the planted middle and
# final layers is the prefix class C . FIRST, moved by whatever the target
# adds.  Once a feed-forward search of its gate set has kept the two-CSWAP
# classes, it meets at the final layer: the query L_2^+ . T is the class
# C . MIDDLE . C . FIRST, moved the same way.  Per search, the planted
# class P and the operator S whose inverse forms the query, so that a
# target S . Q gives the query Q
PLANTED_LINE = "H,S,H;H,H,S;S,H,S|None"
SEARCHES = {
    "earlier": (PREFIX, LAST @ CSWAP_MATRIX @ MIDDLE),
    "final": (CSWAP_MATRIX @ MIDDLE @ PREFIX, LAST),
}


def per_search(*tols):
    # each tolerance for the search that meets one layer earlier, then for
    # the one that meets at the final layer and its repeat
    return [pytest.param(tol, "earlier", id=str(tol)) for tol in tols] + [
        pytest.param(tol, "final", id=f"{tol}-repeat") for tol in tols
    ]


def full_search(search, target, tol):
    """A two-CSWAP full-operator search that meets one layer earlier and
    keeps no table, or one that meets at the final layer on the classes a
    feed-forward search kept, repeated on them and on its key lookup at
    tol."""
    if search == "earlier":
        result = synthesize(target, 2, OUTER_KINDS, tol=tol)
        assert synthesis._MEMO == (None, None, None, None)
        return result
    synthesize(cpf_target(), 2, OUTER_KINDS, allow_feedforward=True)
    result = synthesize(target, 2, OUTER_KINDS, tol=tol)
    key, _, kept_tol, lookup = synthesis._MEMO
    assert (key, kept_tol) == ((OUTER_KINDS, 2), tol) and lookup is not None
    repeat = synthesize(target, 2, OUTER_KINDS, tol=tol)
    assert synthesis._MEMO[3] is lookup
    assert repeat.matches == result.matches
    return repeat


def rule_residual(U, V):
    """max |U - e^{i phi} V| at the phase equivalent_up_to_phase picks."""
    flat = np.argmax(np.abs(U) * np.abs(V))
    z = U.flat[flat] * np.conj(V.flat[flat])
    return np.max(np.abs(U - z / abs(z) * V))


@pytest.mark.parametrize("tol,search", per_search(TOL, 0.5 * _KEY_GRID, _KEY_GRID))
def test_query_on_a_rounding_edge_matches_brute_force(tol, search):
    """The full-operator search keys a query by its phase-normalized image
    of the sketch.  The planted class's image gets one coordinate (the real
    part of the last entry, past the reference entry) moved onto a rounding
    edge, k + 1/2 grid steps from zero, by adding to the last row of the
    query a multiple of conj(v): only that entry of the image moves, and the
    phase reference does not.  Rounding noise in forming the query decides
    that coordinate's grid value, so the query's key may or may not be its
    class's; the result must equal brute force either way."""
    planted, outer = SEARCHES[search]
    scaled, ref, _ = _phase_canonical((planted @ _SKETCH)[None])
    entry = len(_SKETCH) - 1
    assert ref[0] < entry
    coordinate = scaled[0, 2 * entry]
    step = math.floor(coordinate) + 0.5 - coordinate  # in grid units
    # the image entry moves by step grid units in the normalized frame
    reference = (planted @ _SKETCH)[ref[0]]
    query = planted.copy()
    query[entry] += step * _KEY_GRID * (reference / abs(reference)) * _SKETCH.conj()
    target = outer @ query
    # on the edge as the search sees the query, up to its rounding
    image = outer.conj().T @ (target @ _SKETCH)
    edge = _phase_canonical(image[None])[0][0, 2 * entry]
    assert abs(abs(edge - math.floor(edge)) - 0.5) < 1e-9
    result = full_search(search, target, tol)
    want = brute_force(target, 2, OUTER_KINDS, False, tol)
    assert sorted(match_lines(result)) == want
    assert (PLANTED_LINE in want) == (tol >= 0.5 * _KEY_GRID)


# at 1e-5 and 1e-3 the planted class's image key is no longer stable
@pytest.mark.parametrize("tol,search", per_search(TOL, 1e-5, 1e-3))
def test_planted_circuit_at_the_widened_radius_is_found(tol, search):
    """Every entry of the query moves by delta from the planted class, with
    the phase conj(v_j) / |v_j| down column j, so that every coordinate of
    its image of the sketch v moves by delta |v|_1: the farthest an
    entrywise move of delta can carry it.  delta is scaled so that the
    planted circuit sits at 0.9 tol; the shift is then about 1.48 tol for
    the search that meets one layer earlier and 1.46 tol for the one that
    meets at the final layer.  At the loose tolerances the class is
    screened by least squares, and a screen whose radius on the image
    falls below that shift misses the planted circuit:
    the least-squares screen at a radius of 0.9 tol in place of
    (8 tol + _CLASS_SLACK) |v|_1 rejects it here.  At 1e-3 the shift is
    about a third of a grid step, and keying the class without the
    stability test misses it too.  At 1e-9 the class is keyed, and a table
    and queries keyed by different vectors miss it."""
    planted, outer = SEARCHES[search]
    eps = (8.0 * tol + _CLASS_SLACK) * _SKETCH_L1
    stable = _stable(*_phase_canonical((planted @ _SKETCH)[None]), eps)[0]
    assert stable == (tol == TOL)
    pattern = np.ones((8, 1)) * (_SKETCH.conj() / np.abs(_SKETCH))
    # the image moves by delta |v|_1 in every coordinate
    assert np.allclose(pattern @ _SKETCH, _SKETCH_L1)
    unit = 1e-3 * tol
    delta = 0.9 * tol * unit / rule_residual(outer @ planted, outer @ (planted + unit * pattern))
    target = outer @ (planted + delta * pattern)
    assert rule_residual(outer @ planted, target) == pytest.approx(0.9 * tol, rel=1e-3)
    result = full_search(search, target, tol)
    want = brute_force(target, 2, OUTER_KINDS, False, tol)
    assert PLANTED_LINE in want
    assert sorted(match_lines(result)) == want
    if not stable:
        # the query's image against the class's, as the search screens it
        image = outer.conj().T @ (target @ _SKETCH)
        table = _unit_rows((planted @ _SKETCH)[None, None]).conj().T
        assert _near(image[None], table, len(_SKETCH) * eps**2)[0, 0]
        assert not _near(image[None], table, len(_SKETCH) * (0.9 * tol) ** 2)[0, 0]

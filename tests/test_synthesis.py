"""Bounded search over layered CSWAP circuits."""
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from cavityswap import circuits, synthesis
from cavityswap.circuits import (
    Gate,
    Measurement,
    circuit_unitary,
    cpf_target,
    czz_target,
    equivalent_up_to_phase,
    format_circuit,
    run,
)
from cavityswap.synthesis import SearchSpaceError, SynthesisMatch, synthesize
from test_circuits import HADAMARD, PHASE_S, cswap_permutation, kron_all
from test_phase_classes import block_classes, reference_keys, staged_layers

FULL_SET = ("I", "Z", "S", "Sdag", "H")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


def sort_keys(result, kinds):
    """Per match, its layer indices in gate-set order, then its correction
    pair, (-1, -1) for a measurement-free match: the order synthesize
    promises."""
    return [
        ([kinds.index(kind) for layer in m.layers for kind in layer], m.feedforward or (-1, -1))
        for m in result.matches
    ]


def test_a_measurement_free_match_sorts_before_its_feed_forward_twins(cpf_feedforward):
    """The identity photon map at no CSWAP: the all-identity layer matches
    measurement-free and with no correction, and the measurement-free match
    comes first."""
    kinds = ("I", "Z", "H")
    result = synthesize(np.eye(4), 0, kinds, allow_feedforward=True)
    assert [(m.layers, m.feedforward) for m in result.matches[:3]] == [
        ((("I", "I", "I"),), None),
        ((("I", "I", "I"),), (0, 0)),
        ((("I", "I", "Z"),), (1, 1)),
    ]
    for keys in (sort_keys(result, kinds), sort_keys(cpf_feedforward, FULL_SET)):
        assert keys == sorted(keys)


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
    kinds = synthesis._SYNTH_KINDS
    photon, layers = synthesis._layer_tables(kinds)
    want = np.array([
        circuit_unitary(synthesis._layer_gates(names), 3)
        for names in itertools.product(kinds, repeat=3)
    ])
    assert layers.tobytes() == want.tobytes()
    want = np.array([
        circuit_unitary(synthesis._layer_gates(("I",) + pair), 3)[:4, :4]
        for pair in itertools.product(kinds, repeat=2)
    ])
    assert photon.tobytes() == want.tobytes()


@pytest.mark.parametrize("kinds", [FULL_SET, ("I", "Z"), ("I", "H", "X", "Z", "S")], ids=len)
def test_gate_set_tables_are_read_only_fresh_builds(kinds):
    """The tables built once per gate set equal the layer tables and the
    CSWAP product formed afresh, and no caller can write to them."""
    tables = synthesis._gate_set_tables(kinds)
    assert synthesis._gate_set_tables(kinds) is tables
    photon, layers = synthesis._layer_tables(kinds)
    staged = np.matmul(circuit_unitary([synthesis._SYNTH_CSWAP], 3), layers)
    assert tables.names.shape == (len(kinds) ** 3,)
    assert tables.names.tolist() == list(itertools.product(kinds, repeat=3))
    want = {
        "layers": layers,
        "staged": staged,
        "layers_dag": layers.conj().transpose(0, 2, 1),
        "photon_dag": photon.conj().transpose(0, 2, 1),
    }
    for name, array in want.items():
        assert np.array_equal(getattr(tables, name), array), name
    # one family for the atom-diagonal kinds, one per other kind
    diagonal = [kind in synthesis._ATOM_DIAGONAL for kind in kinds]
    assert tables.in_family.sum(axis=0).tolist() == [1] * len(kinds)
    assert tables.in_family[0].tolist() == diagonal
    assert len(tables.atoms) == 1 + diagonal.count(False)
    for array in tables:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def per_row_matches(rows, kinds):
    """Matches built one hit row at a time, the construction the bulk build
    replaced."""
    names = list(itertools.product(kinds, repeat=3))
    return tuple(
        SynthesisMatch(tuple(names[index] for index in row), None if c0 < 0 else (c0, c1))
        for *row, c0, c1 in rows.tolist()
    )


@pytest.mark.parametrize("target,k,kinds,allow_feedforward,steps,found", [
    pytest.param(czz_target(), 2, FULL_SET, False, None, 1024, id="czz"),
    pytest.param(cpf_target(), 2, FULL_SET, True, None, 2048, id="cpf-feedforward"),
    pytest.param(czz_target(), 1, ("I", "Z"), False, None, 0, id="no-match"),
    pytest.param(czz_target(), 2, FULL_SET, False, 8, None, id="truncated"),
])
def test_bulk_built_matches_equal_the_per_row_construction(
    monkeypatch, target, k, kinds, allow_feedforward, steps, found
):
    """synthesize builds all its matches at once from the sorted hit rows:
    the same matches, in the same order and of the same types, as one
    SynthesisMatch per row.  The truncated search reads a clock that
    advances one second per reading, so that its budget stops it after the
    given number of steps, a part of the way through its query blocks."""
    budget = None
    if steps is not None:
        ticks = itertools.count()
        monkeypatch.setattr(synthesis, "time", types.SimpleNamespace(
            monotonic=lambda: float(next(ticks))
        ))
        budget = steps - 0.5
    built = []
    build = synthesis._build_matches

    def recorded(rows, names):
        built.append((rows, build(rows, names)))
        return built[-1][1]

    monkeypatch.setattr(synthesis, "_build_matches", recorded)
    result = synthesize(target, k, kinds, allow_feedforward=allow_feedforward, time_budget=budget)
    [(rows, matches)] = built
    assert result.matches is matches
    assert result.truncated == (steps is not None)
    if found is None:
        assert 0 < len(matches) < 1024
    else:
        assert len(matches) == found
    assert matches == per_row_matches(rows, kinds)
    for match in matches:
        assert type(match.layers) is tuple and len(match.layers) == k + 1
        for layer in match.layers:
            assert type(layer) is tuple and len(layer) == 3
            assert all(type(kind) is str for kind in layer)
        pair = match.feedforward
        assert (pair is None) != allow_feedforward
        assert pair is None or (type(pair) is tuple and [type(c) for c in pair] == [int, int])


def test_correction_diagonals_are_the_correction_blocks():
    for gates, diagonal in zip(synthesis._CORRECTION_GATES, synthesis._CORRECTION_DIAGONALS):
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
    # num_cswaps counts CSWAPs: no float, however integral, and no string
    for num_cswaps in (1.5, 2.0, "2"):
        with pytest.raises(ValueError, match="num_cswaps"):
            synthesize(czz_target(), num_cswaps)
    assert synthesize(czz_target(), np.int64(1), ("I", "Z")).search_space == 8**2
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


@pytest.mark.parametrize("num_cswaps", [True, False])
def test_a_bool_is_no_cswap_count(num_cswaps):
    # a bool is an int: True would run a one-CSWAP search
    with pytest.raises(ValueError, match="num_cswaps"):
        synthesize(czz_target(), num_cswaps)


@pytest.mark.parametrize("gate_set", ["IZS", "Sdag"])
def test_a_gate_set_string_is_rejected(gate_set):
    # a string is a sequence of its characters: "IZS" would search over I,
    # Z and S, and "Sdag" would fail on the kind "d"
    with pytest.raises(ValueError, match="gate_set"):
        synthesize(czz_target(), 1, gate_set)


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


# the printed lines of synthesize --target cpf --cswaps 2 --feedforward
PINNED_CPF_FEEDFORWARD = (
    2048, "73020c328b7176b1eae12e1db49c09f5850b580df38003f4c1dde5ec419bfb84"
)


def test_cli_match_lists_are_pinned(cpf_feedforward):
    czz = synthesize(czz_target(), 2, ("I", "Z"))
    for result, found, want in [
        (cpf_feedforward, *PINNED_CPF_FEEDFORWARD),
        (czz, 32, "6097560689d8563afb3b597b99a37cffa9c6ce13c1180866729705492c210581"),
    ]:
        lines = [format_circuit(m.circuit) for m in result.matches]
        assert (len(lines), digest(lines)) == (found, want)


def test_search_evaluates_fewer_operators_than_it_covers(cpf_feedforward):
    assert cpf_feedforward.search_space == 125**3 * 17
    # the photon-map screen forms no operator per prefix class: 5 525 classes
    # times 50 final-layer families would be 276 250
    assert len(cpf_feedforward.matches) <= cpf_feedforward.evaluated < 10_000


@pytest.mark.parametrize("kinds,free_rows,fed_rows,phase_tests,found", [
    (FULL_SET, 5_525, 9_236, 4_096, 2_048),
    (("I", "H", "X", "Z", "S"), 21_470, 28_743, 320, 160),
])
def test_photon_screens_test_only_what_the_stage_before_proposed(
    monkeypatch, kinds, free_rows, fed_rows, phase_tests, found
):
    """Rows screened against the measurement-free table (one per photon
    pair) and the feed-forward table (one per correction and photon pair),
    and 4x4 matrices phase-tested in the feed-forward confirmation, of the
    2-CSWAP cpf feed-forward search.  Over the default set no class passes
    the first block, so the other three are screened for none; outcome 0
    is screened on the live rows alone; and each candidate is tested at
    one correction per outcome, the one its screen proposed."""
    rows, tested = {}, []
    near, phase_equiv = synthesis._near, synthesis._phase_equiv_batch

    def counted_near(X, Q_dag, bound):
        rows[Q_dag.shape[1]] = rows.get(Q_dag.shape[1], 0) + len(X)
        return near(X, Q_dag, bound)

    def counted_phase_equiv(A, V, tol):
        if A.shape[-1] == 4:  # the class build tests 8x8 products
            tested.append(len(A))
        return phase_equiv(A, V, tol)

    monkeypatch.setattr(synthesis, "_near", counted_near)
    monkeypatch.setattr(synthesis, "_phase_equiv_batch", counted_phase_equiv)
    result = synthesize(cpf_target(), 2, kinds, allow_feedforward=True)
    n2 = len(kinds) ** 2
    assert rows == {n2: free_rows, 4 * n2: fed_rows}
    assert sum(tested) == phase_tests
    assert result.evaluated == found == len(result.matches)


@pytest.mark.parametrize("target,kinds,allow_feedforward,evaluated", [
    (cpf_target(), FULL_SET, True, 2_048),
    (np.eye(4, dtype=complex), ("I", "Z", "S", "H"), True, 6_564),
    (czz_target(), FULL_SET, False, 1_024),
], ids=["cpf-feedforward", "identity-feedforward", "czz"])
def test_no_search_step_forms_more_than_a_block(target, kinds, allow_feedforward, evaluated):
    """The time budget is checked after every search step, and no step of
    a 2-CSWAP search forms more than _PRODUCT_BLOCK candidates; the steps'
    counts add up to the search's evaluated count."""
    tables = synthesis._gate_set_tables(kinds)
    if target.shape == (8, 8):
        steps = synthesis._search_full(target, 2, kinds, tables, 1e-9)
    else:
        steps = synthesis._search_photon(target, 2, kinds, tables, allow_feedforward, 1e-9)
    counts = [count for _, count in steps]
    assert max(counts) <= synthesis._PRODUCT_BLOCK
    result = synthesize(target, 2, kinds, allow_feedforward=allow_feedforward)
    assert sum(counts) == result.evaluated == evaluated


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


@pytest.mark.parametrize("kinds,depth,count", [
    (FULL_SET, 1, 125), (FULL_SET, 2, 5525),
    (synthesis._SYNTH_KINDS, 1, 216), (synthesis._SYNTH_KINDS, 2, 25272),
])
def test_sketch_keys_separate_the_middle_classes(kinds, depth, count):
    """The full-operator search keys each prefix class C . L_{depth-1} ...
    C . L_0 by its image of _SKETCH, at the final layer or one layer
    earlier.  Two classes sharing a key would cost a failed confirmation
    per member and query.  Every class keeps a key of its own, as it keeps
    a rounded phase-canonical matrix of its own, and every member's
    operator, formed as the searches confirm it, passes the rule of
    equivalent_up_to_phase at _CLASS_TOL against its representative."""
    staged = staged_layers(kinds)
    reps, members, offsets = block_classes(depth, staged)
    assert len(reps) == count
    whole = reference_keys(synthesis._phase_canonical(reps)[0])
    sketch = synthesis._keys(synthesis._phase_canonical(reps @ synthesis._SKETCH)[0])
    assert len(set(whole)) == len(np.unique(sketch)) == count
    formed = staged[members[:, 0]]
    for j in range(1, depth):
        formed = np.matmul(staged[members[:, j]], formed)
    rep_of = np.repeat(np.arange(len(reps)), np.diff(offsets))
    assert circuits._phase_equiv_batch(formed, reps[rep_of], synthesis._CLASS_TOL).all()


@pytest.mark.parametrize("sketch,count", [
    (np.full(8, 8**-0.5, dtype=complex), 8657), (np.eye(8, dtype=complex)[0], 15474),
], ids=["uniform", "e0"])
def test_prefix_classes_that_share_an_image_key_stay_apart(monkeypatch, sketch, count):
    """Prefix products are keyed by their image of _SKETCH.  A symmetric
    vector gives inequivalent products one key: the uniform vector and e_0
    turn the 5 525 depth-2 classes into 8 657 and 15 474.  Each later
    product with a key is checked on all its entries before it joins, so
    the classes stay phase classes and the search finds the same circuits."""
    monkeypatch.setattr(synthesis, "_SKETCH", sketch)
    monkeypatch.setattr(synthesis, "_SKETCH_L1", math.fsum(map(abs, sketch.tolist())))
    staged = staged_layers(FULL_SET)
    every = sorted(itertools.product(range(len(staged)), repeat=2))
    reps, members, offsets = block_classes(2, staged)
    assert len(reps) == count
    assert sorted(map(tuple, members.tolist())) == every
    formed = np.matmul(staged[members[:, 1]], staged[members[:, 0]])
    rep_of = np.repeat(np.arange(len(reps)), np.diff(offsets))
    # the rule of equivalent_up_to_phase, over all members at once
    assert circuits._phase_equiv_batch(formed, reps[rep_of], synthesis._CLASS_TOL).all()
    result = synthesize(cpf_target(), 2, FULL_SET, allow_feedforward=True)
    lines = [format_circuit(m.circuit) for m in result.matches]
    assert (len(lines), digest(lines)) == PINNED_CPF_FEEDFORWARD
    # the search built its classes under this sketch, not a stale table
    key, (reps, _, _), _, _ = synthesis._MEMO
    assert (key, len(reps)) == ((FULL_SET, 2), count)


@pytest.mark.parametrize("bound", [0.5, 1e-3])
def test_near_is_the_least_squares_distance(bound):
    """_near(X, Q^+, bound)[i, j] says min over complex z of |X_i - z Q_j|^2
    <= bound, for table rows Q_j of norm 1 or 0.  The minimum is |X_i|^2 -
    |<Q_j, X_i>|^2, taken here in Python complex arithmetic, over seeded
    rows, zero rows and a zero table row, rows proportional to a table row,
    and rows placed a relative 1e-6 inside and outside the bound."""
    rng = np.random.default_rng(23)

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    Q = gaussian(5, 16)
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    Q[2] = 0.0
    rows = [gaussian(16) * 10.0 ** rng.uniform(-2.0, 0.5) for _ in range(40)]
    zero = [len(rows), len(rows) + 1]
    rows += [np.zeros(16, dtype=complex)] * 2
    proportional, placed = [], []  # (row, table row), (row, table row, inside)
    for j in (0, 1, 3, 4):
        z = complex(*rng.normal(size=2))
        proportional.append((len(rows), j))
        rows.append(z * Q[j])
        # a unit vector orthogonal to Q_j, at squared distance bound (1 -+ 1e-6)
        u = gaussian(16)
        u -= np.vdot(Q[j], u) * Q[j]
        u /= np.linalg.norm(u)
        for inside in (True, False):
            placed.append((len(rows), j, inside))
            rows.append(z * Q[j] + math.sqrt(bound * (1.0 + (-1e-6 if inside else 1e-6))) * u)
    X = np.array(rows)

    def distance(x, q):
        x, q = x.tolist(), q.tolist()
        overlap = sum(a.conjugate() * b for a, b in zip(q, x))
        return sum(abs(b) ** 2 for b in x) - abs(overlap) ** 2

    table = [[distance(x, q) for q in Q] for x in X]
    # no row lies within rounding of the bound, so the definition decides
    assert min(abs(d - bound) for row in table for d in row) > 1e-9 * bound
    got = synthesis._near(X, Q.conj().T, bound)
    assert got.tolist() == [[d <= bound for d in row] for row in table]
    assert got[zero].all()
    assert all(got[i, j] for i, j in proportional)
    assert all(got[i, j] == inside for i, j, inside in placed)


def test_sketch_is_a_unit_vector():
    # the keying radius (8 tol + _CLASS_SLACK) |v|_1 and the stability test
    # both assume |v|_2 = 1, so that an image's entries have modulus <= 1
    assert math.fsum(abs(x) ** 2 for x in synthesis._SKETCH) == pytest.approx(1.0, abs=1e-15)


def planted_pool():
    with open(os.path.join(ROOT, "perfbench", "pins.json")) as f:
        return [entry["layers"] for entry in json.load(f)["planted_pool"]]


@pytest.mark.parametrize(
    "layers", planted_pool(), ids=lambda layers: ";".join(map(",".join, layers))
)
def test_full_search_confirms_no_false_proposal(layers):
    """Each candidate the full-operator search forms is a match: no query's
    image key lands on a class whose operator then fails confirmation.  A
    sketch with too few distinct images forms more candidates than matches:
    the uniform vector does on every target here."""
    result = synthesize(planted_unitary(layers), 2, FULL_SET)
    assert result.matches and result.evaluated == len(result.matches)


@pytest.mark.parametrize("gates", [FULL_SET, ("I", "Z")])
def test_czz_search_confirms_no_false_proposal(gates):
    result = synthesize(czz_target(), 2, gates)
    assert result.matches and result.evaluated == len(result.matches)


@pytest.mark.parametrize("target,gates", [
    *((planted_unitary(layers), FULL_SET) for layers in planted_pool()),
    (czz_target(), FULL_SET), (czz_target(), ("I", "Z")),
], ids=[*(";".join(map(",".join, layers)) for layers in planted_pool()), "czz-5", "czz-2"])
def test_a_repeated_full_search_confirms_no_false_proposal(target, gates):
    """A full-operator search repeated after the feed-forward search of its
    gate set and depth meets at the final layer, on the prefix classes that
    search keeps: the matches of the one-off search before it, and again
    each candidate it forms is a match."""
    once = synthesize(target, 2, gates)
    synthesize(cpf_target(), 2, gates, allow_feedforward=True)
    assert synthesis._MEMO[0] == (gates, 2)
    again = synthesize(target, 2, gates)
    assert again.matches == once.matches and again.evaluated == len(again.matches)


@pytest.fixture
def builds(monkeypatch):
    """The depth of each prefix-class build from here on, in order."""
    depths = []
    build = synthesis._prefix_classes

    def counted(depth, staged):
        depths.append(depth)
        return build(depth, staged)

    monkeypatch.setattr(synthesis, "_prefix_classes", counted)
    return depths


EMPTY = (None, None, None, None)


@pytest.mark.parametrize("target,kinds,k,allow_feedforward", [
    pytest.param(planted_unitary(PINNED_PLANTED[1][0]), FULL_SET, 2, False, id="full"),
    pytest.param(cpf_target(), FULL_SET, 2, True, id="feedforward"),
    pytest.param(planted_unitary([("S", "H", "Z")]), FULL_SET, 0, False, id="full-0"),
    pytest.param(planted_unitary([("H", "S", "H"), ("S", "H", "S")]), FULL_SET, 1, False,
                 id="full-1"),
    pytest.param(planted_unitary([("H", "Z", "I"), ("Z", "H", "H"), ("I", "Z", "H"),
                                  ("H", "H", "Z")]), ("I", "Z", "H"), 3, False, id="full-3"),
])
def test_a_warm_search_equals_a_cold_one(target, kinds, k, allow_feedforward):
    """Only a build of two CSWAPs is kept.  A full-operator search of two
    CSWAPs meets one layer before the final one on an empty memo, and at
    the final layer once the feed-forward search of its gate set has kept
    the two-CSWAP classes; one of three meets one layer earlier on those
    classes, and keeps them when it builds them.  One of a single CSWAP or
    none builds its classes and keeps nothing.  A photon-map search of two
    CSWAPs keeps its classes, and its repeats read them.  Every call gives
    the same result, and a full search proposes no candidate that fails
    confirmation."""
    cold = synthesize(target, k, kinds, allow_feedforward=allow_feedforward)
    if k == 2 and not allow_feedforward:
        synthesize(cpf_target(), k, kinds, allow_feedforward=True)
    results = [cold] + [
        synthesize(target, k, kinds, allow_feedforward=allow_feedforward) for _ in range(2)
    ]
    key, classes, _, _ = synthesis._MEMO
    if k >= 2:
        assert key == (kinds, 2) and classes is not None
    else:
        assert synthesis._MEMO == EMPTY
    assert cold.matches
    assert allow_feedforward or cold.evaluated == len(cold.matches)
    for result in results:
        assert not result.truncated
        assert result.search_space == len(kinds) ** (3 * k + 3) * (17 if allow_feedforward else 1)
        assert (result.matches, result.evaluated) == (cold.matches, cold.evaluated)


def test_a_one_off_full_search_builds_no_table(builds):
    """A full-operator search of two CSWAPs whose classes are not kept
    meets one layer before the final one, on depth-1 classes that it does
    not keep; one that finds them kept reads them.  One of a single CSWAP
    or none builds its classes, keeps nothing and leaves a kept table in
    place."""
    synthesize(czz_target(), 2, FULL_SET)
    assert synthesis._MEMO == EMPTY
    synthesize(cpf_target(), 2, FULL_SET, allow_feedforward=True)
    fed = synthesis._MEMO
    synthesize(czz_target(), 2, ("I", "Z"))
    assert synthesis._MEMO is fed
    synthesize(czz_target(), 2, FULL_SET)
    assert synthesis._MEMO[0] == fed[0] and synthesis._MEMO[1] is fed[1]
    for k in (1, 0):
        synthesize(czz_target(), k, FULL_SET)
        assert synthesis._MEMO[1] is fed[1]
    assert builds == [1, 2, 1, 1, 0]
    synthesis._MEMO = EMPTY
    for k in (1, 0):
        synthesize(czz_target(), k, FULL_SET)
        assert synthesis._MEMO == EMPTY


def test_searches_of_fewer_cswaps_keep_the_two_cswap_table(builds):
    """After the feed-forward search of the default set, searches of one
    CSWAP or none build their own classes and leave the two-CSWAP table
    kept, so the planted two-CSWAP search and the feed-forward search
    after them build no prefix classes."""
    synthesize(cpf_target(), 2, FULL_SET, allow_feedforward=True)
    table = synthesis._MEMO[1]
    synthesize(czz_target(), 1)
    synthesize(czz_target(), 0)
    synthesize(np.eye(4), 0, allow_feedforward=True)
    assert synthesis._MEMO[1] is table
    assert builds == [2, 1, 0, 0]
    layers, found, want = PINNED_PLANTED[1]
    lines = match_lines(synthesize(planted_unitary(layers), 2, FULL_SET))
    assert (len(lines), digest(lines)) == (found, want)
    fed = synthesize(cpf_target(), 2, FULL_SET, allow_feedforward=True)
    lines = [format_circuit(m.circuit) for m in fed.matches]
    assert (len(lines), digest(lines)) == PINNED_CPF_FEEDFORWARD
    assert builds == [2, 1, 0, 0]


def test_a_three_cswap_full_search_reads_the_kept_two_cswap_table(builds):
    """A full-operator search of three CSWAPs meets one layer before the
    final one, on the two-CSWAP classes, and keeps them when it builds
    them.  After the feed-forward search of its gate set has kept them, it
    builds no classes, and its result is the cold one."""
    kinds = ("I", "Z", "S", "H")
    cold = synthesize(czz_target(), 3, kinds)
    assert builds == [2] and synthesis._MEMO[0] == (kinds, 2)
    synthesis._MEMO = EMPTY
    synthesize(cpf_target(), 2, kinds, allow_feedforward=True)
    assert builds == [2, 2]
    warm = synthesize(czz_target(), 3, kinds)
    assert builds == [2, 2]
    assert (warm.matches, warm.evaluated, warm.search_space) == (
        cold.matches, cold.evaluated, 64**4
    )


def test_a_three_cswap_photon_table_serves_only_its_own_search(builds):
    """A photon-map search of three CSWAPs builds its depth-3 classes,
    keeps none of them and leaves the kept two-CSWAP table in place, so
    its repeat builds them again."""
    kinds = ("Z", "H")
    synthesize(cpf_target(), 2, kinds, allow_feedforward=True)
    kept = synthesis._MEMO
    first, again = (
        synthesize(np.eye(4), 3, kinds, allow_feedforward=True) for _ in range(2)
    )
    assert builds == [2, 3, 3]
    assert synthesis._MEMO is kept
    assert first.matches and (again.matches, again.evaluated) == (first.matches, first.evaluated)


def test_a_deep_one_off_full_search_stays_small():
    """czz over (I, Z, S, H) at three CSWAPs, twice in a fresh interpreter.
    The depth-3 prefix table, 1 KB of room per layer tuple, would take
    256 MB; its build peaked at 162 MB.  Both calls meet one layer before
    the final one, on the 4 096 depth-2 products: the first builds and
    keeps their classes, the second reads them.  The peak is the child's
    VmHWM: its ru_maxrss would carry this process's peak across fork and
    exec."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux /proc")
    child = """
import json
from cavityswap import circuits, synthesis
kinds = ("I", "Z", "S", "H")
found = [len(synthesis.synthesize(circuits.czz_target(), 3, kinds).matches) for _ in range(2)]
kept = synthesis._MEMO[0] == (kinds, 2)
with open("/proc/self/status") as f:
    peak_kb = int(next(line for line in f if line.startswith("VmHWM:")).split()[1])
print(json.dumps([found, kept, peak_kb]))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(circuits.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    found, kept, peak_kb = json.loads(proc.stdout)
    assert found == [0, 0] and kept
    assert peak_kb < 100 * 1024


def test_memoized_arrays_are_read_only():
    # the table from the feed-forward search, the lookup from a full search
    synthesize(cpf_target(), 2, FULL_SET, allow_feedforward=True)
    synthesize(czz_target(), 2, FULL_SET)
    key, classes, tol, lookup = synthesis._MEMO
    assert (key, tol) == ((FULL_SET, 2), 1e-9)
    arrays = [*classes, *lookup]
    assert len(arrays) == 7
    for array in arrays:
        # a compact copy, not a view of the build's larger buffer
        assert array.base is None or array.base.nbytes == array.nbytes
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_a_search_stopped_by_its_budget_stores_no_table():
    result = synthesize(cpf_target(), 2, FULL_SET, allow_feedforward=True, time_budget=1e-4)
    assert result.truncated
    assert synthesis._MEMO == EMPTY
    # the budget stops a three-CSWAP full search in its depth-2 class build
    assert synthesize(czz_target(), 3, ("I", "Z", "S", "H"), time_budget=1e-4).truncated
    assert synthesis._MEMO == EMPTY

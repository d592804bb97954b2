"""The block-built phase classes of synthesis against the layer-at-a-time
dict build they replaced, kept here as the reference.  The two number their
classes differently; what the searches read is compared: the classes, each
under its representative, and each class's members in order."""
import itertools

import numpy as np
import pytest

from cavityswap.circuits import (
    _CLASS_TOL,
    _SYNTH_CSWAP,
    _layer_gates,
    _phase_canonical,
    _phase_equiv_batch,
    _prefix_classes,
    circuit_unitary,
    gate_matrix,
)

GATE_SETS = [("I", "Z"), ("I", "Z", "S", "Sdag", "H"), ("I", "H", "X", "Z", "S", "Sdag")]


def reference_keys(scaled):
    # the rounded phase-canonical matrix as bytes, one per row
    grid = np.rint(np.clip(scaled, -(2.0**30), 2.0**30)).astype(np.int32)
    return grid.view(np.dtype((np.void, 4 * grid.shape[1]))).ravel().tolist()


def reference_classes(start, depth, staged):
    """One layer at a time: a dict from key to the class of its first
    product, a member list of layer tuples per class."""
    reps, members = start[None], [[()]]
    for _ in range(depth):
        index = {}
        new_reps, new_members = [], []
        for layer, stage in enumerate(staged):
            products = np.matmul(stage, reps)
            ids = []
            for i, key in enumerate(reference_keys(_phase_canonical(products)[0])):
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
        reps, members = np.array(new_reps), new_members
    return reps, members


def block_classes(start, depth, staged):
    steps = _prefix_classes(start, depth, staged)
    while True:
        try:
            assert next(steps) == ([], 0)
        except StopIteration as done:
            return done.value


def assert_same_classes(got, want):
    """The same classes as the reference, in any order: each representative
    (bitwise) with the same member layer tuples in the same order."""
    (reps, members, offsets), (want_reps, want_members) = got, want
    assert reps.shape == want_reps.shape
    assert len(offsets) == len(reps) + 1 and offsets[0] == 0 and offsets[-1] == len(members)
    rows = [[tuple(row) for row in members[lo:hi].tolist()]
            for lo, hi in zip(offsets[:-1], offsets[1:])]
    # classes whose products missed their key's representative may share
    # bytes; their members, a partition, tell them apart
    assert sorted(zip((rep.tobytes() for rep in reps), rows)) == sorted(
        zip((rep.tobytes() for rep in want_reps), want_members)
    )


def staged_layers(kinds):
    layers = np.array([
        circuit_unitary(_layer_gates(names), 3) for names in itertools.product(kinds, repeat=3)
    ])
    return np.matmul(gate_matrix(_SYNTH_CSWAP, 3), layers)


@pytest.mark.parametrize("kinds", GATE_SETS, ids=len)
@pytest.mark.parametrize("start", ["identity", "cswap"])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_block_build_matches_the_dict_build(kinds, start, depth):
    staged = staged_layers(kinds)
    first = np.eye(8, dtype=complex) if start == "identity" else gate_matrix(_SYNTH_CSWAP, 3)
    reps, members, offsets = block_classes(first, depth, staged)
    assert_same_classes((reps, members, offsets), reference_classes(first, depth, staged))
    assert members.shape == (len(staged) ** depth, depth)
    # the members partition every layer tuple
    every = np.array(list(itertools.product(range(len(staged)), repeat=depth)), dtype=np.intp)
    rows = members[np.lexsort(members.T[::-1])] if depth else members
    assert np.array_equal(rows, every.reshape(len(every), depth))


@pytest.mark.parametrize("block", [1, 4096])
def test_products_that_fail_confirmation_are_classes_of_their_own(monkeypatch, block):
    # each nudged layer, next to its original, gives the same keys but
    # misses them by 1e-9, far above _CLASS_TOL: a class of its own per
    # product, so that within a layer own classes and new keys alternate.
    # Blocks of one layer, or of all of them
    monkeypatch.setattr("cavityswap.circuits._PRODUCT_BLOCK", block)
    base = staged_layers(("I", "H"))
    nudged = base.copy()
    nudged[:, 0, 0] += 1e-9
    staged = np.stack((base, nudged), axis=1).reshape(-1, 8, 8)
    for depth in (1, 2):
        reps, members, offsets = block_classes(np.eye(8, dtype=complex), depth, staged)
        want = reference_classes(np.eye(8, dtype=complex), depth, staged)
        assert_same_classes((reps, members, offsets), want)
    keys = set(reference_keys(_phase_canonical(reps)[0]))
    assert len(keys) < len(reps)

"""Bounded exhaustive synthesis of layered CSWAP circuits on (atom, photon,
photon): ``synthesize`` and its result types.  The gates, the circuit types
and the rule of ``equivalent_up_to_phase`` are those of
:mod:`cavityswap.circuits`.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .circuits import (
    CSWAP,
    Circuit,
    ClassicallyControlled,
    Gate,
    Measurement,
    Z,
    _SINGLE_QUBIT,
    _SQRT1_2,
    _format_step,
    _phase_equiv_batch,
    gate_matrix,
)


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

    @property
    def circuit(self) -> Circuit:
        """The match as a circuit: each layer's non-identity gates, a CSWAP
        between consecutive layers, then the measurement and its corrections."""
        steps: list = []
        for depth, kinds in enumerate(self.layers):
            if depth:
                steps.append(_SYNTH_CSWAP)
            steps.extend(_layer_gates(kinds))
        if self.feedforward is not None:
            steps.append(Measurement(0))
            for outcome, ci in enumerate(self.feedforward):
                gates = _CORRECTION_GATES[ci]
                if gates:
                    steps.append(ClassicallyControlled((0, outcome), gates))
        return Circuit(tuple(steps))

    @property
    def line(self) -> str:
        """format_circuit(self.circuit), joined from text cached per layer."""
        parts: list[str] = []
        for depth, kinds in enumerate(self.layers):
            if depth:
                parts.append(_CSWAP_TEXT)
            parts.extend(_layer_text(kinds))
        if self.feedforward is not None:
            parts.append(_MEASURE_TEXT)
            parts.extend(
                _CORRECTION_TEXT[outcome][ci]
                for outcome, ci in enumerate(self.feedforward)
                if _CORRECTION_GATES[ci]
            )
        return " ; ".join(parts) or "(empty)"


@dataclass(frozen=True)
class SynthesisResult:
    """``matches`` are sorted by layer indices, then correction pair (a
    measurement-free match first), each rendered by its ``line``.
    ``search_space`` is the nominal candidate count that the guard applies
    to; ``evaluated`` counts the distinct candidate operators the search
    formed and confirmed with a match predicate, a feed-forward one at the
    corrections its screen proposed.  The screens that propose them run on
    phase-class representatives and form no candidate operator, so they
    are not counted, and neither is the build of a class table, the only
    kept one being of exactly two CSWAPs: a full-operator search that meets
    one layer before the final one and one that meets at the final layer
    on the kept table have the same ``matches`` and ``evaluated``, and
    differ only in ``elapsed``."""

    matches: tuple[SynthesisMatch, ...]
    search_space: int
    truncated: bool
    elapsed: float
    evaluated: int


_SYNTH_KINDS = ("I", "H", "X", "Z", "S", "Sdag")

# atom gates that commute with the atom-controlled CSWAP; as the atom gate of
# the final layer they change neither photon-map predicate
_ATOM_DIAGONAL = ("I", "Z", "S", "Sdag")

# diagonal pauli corrections applied to the photon pair, index order fixed,
# and the diagonal of each one's photon-pair block
_CORRECTION_GATES = ((), (Z(2),), (Z(1),), (Z(1), Z(2)))
_CORRECTION_DIAGONALS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
# the atom-controlled swap between consecutive layers
_SYNTH_CSWAP = CSWAP(0, 1, 2)
# rendered steps of SynthesisMatch.line
_CSWAP_TEXT = _format_step(_SYNTH_CSWAP)
_MEASURE_TEXT = _format_step(Measurement(0))
_CORRECTION_TEXT = tuple(
    tuple(_format_step(ClassicallyControlled((0, outcome), gates)) for gates in _CORRECTION_GATES)
    for outcome in (0, 1)
)

_GUARD = 100_000_000

# The phase-class key of an 8-entry vector: it times the conjugate phase of
# its reference entry (the first, in flat order, of modulus above _KEY_REF),
# each real and imaginary part rounded to a grid of spacing _KEY_GRID, hashed
# to 64 bits.  Equal keys only propose candidates; every use confirms them
# exactly, so two grids that share a hash cost one failed confirmation.
# Every key is of an image of _SKETCH, not of a whole matrix.  A prefix
# product joins the class of its key's first product only after a check
# of all its entries, and is a class of its own otherwise, so classes that
# share an image key stay apart.  The full-operator search keys each prefix
# class P and each query Q: Q within eps of a phase times P, entrywise,
# puts Q v within eps |v|_1 of that phase times P v, so the search keys at
# that radius.
_KEY_REF = 0.3
_KEY_GRID = 2.0**-8
# multipliers of the hash, one per pair of grid values, that is per entry
# of an image: powers of an odd constant modulo 2^64, so all odd
_KEY_MIX = np.array([pow(0x9E3779B97F4A7C15, i, 2**64) for i in range(1, 9)], dtype=np.uint64)
# A unit vector with unequal moduli and unrelated phases, so that distinct
# classes have distinct images: a basis vector or the uniform vector
# maps many of them to one key
_SKETCH = np.array([
    complex(0.22292075373578038, -0.054768657872202364),
    complex(-0.05157484668762511, -0.32287215262986263),
    complex(-0.24618398370122935, -0.06523618486952638),
    complex(-0.04641036886700771, 0.2720597919802662),
    complex(0.24099309443526287, 0.383205372833425),
    complex(0.27751183921663564, -0.05307301308246318),
    complex(-0.35486482584214285, -0.03595006035006595),
    complex(0.40019295321427156, 0.3567045378146365),
])
_SKETCH_L1 = math.fsum(map(abs, _SKETCH.tolist()))
# a phase-class member equals its representative up to phase within this
_CLASS_TOL = 1e-12
# Lookups and representative tests widen their tolerance by this much.  After
# four depths a member's operator differs from its representative's by at
# most about 1e-10 (35 * _CLASS_TOL, times sqrt(8) for the final layer); the
# factor of ten left over absorbs the feed-forward test dividing by a
# branch's norm.
_CLASS_SLACK = 1e-9
# a feed-forward branch must carry at least this weight
_BRANCH_FLOOR = 1e-12
# most products built, queries or classes screened, candidates confirmed
# per search step; products and queries in whole layers, at least one
_PRODUCT_BLOCK = 512
# One slot (key, classes, tol, lookup), replaced whole: empty, or the
# prefix classes of one gate set at exactly two CSWAPs, read-only, with the
# full-operator search's key lookup into them at tol once one has run;
# _classes alone writes the classes.  A search reads the slot once, so
# concurrent searches at worst build a table twice
_MEMO: tuple = (None, None, None, None)


def _layer_tables(kinds: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    # the photon-pair operator B = b (x) c of each kind pair and the layer
    # operator a (x) B of each kind triple, in itertools.product order
    gates = np.array([_SINGLE_QUBIT[kind] for kind in kinds])
    n = len(kinds)
    photon = np.einsum("bkl,cmn->bckmln", gates, gates).reshape(n * n, 4, 4)
    return photon, np.einsum("aij,pkl->apikjl", gates, photon).reshape(n**3, 8, 8)


class _GateSetTables(NamedTuple):
    """What a search reads that depends on its gate kinds alone, as
    read-only arrays; layers are indexed by kind triple and photon pairs by
    kind pair, in itertools.product order."""

    names: np.ndarray  # the kind triple of each layer, an object array
    layers: np.ndarray  # a (x) B of each kind triple, B = b (x) c
    staged: np.ndarray  # CSWAP . layer, one chain element
    layers_dag: np.ndarray
    photon_dag: np.ndarray  # B^+ of each kind pair
    atoms: np.ndarray  # the atom gate of each final-layer family
    in_family: np.ndarray  # [family, kind]


@functools.lru_cache(maxsize=8)
def _gate_set_tables(kinds: tuple[str, ...]) -> _GateSetTables:
    # built once per gate set and process; nothing from a search is kept
    # here.  Eight sets of six kinds hold about 6 MB
    names = np.fromiter(itertools.product(kinds, repeat=3), dtype=object, count=len(kinds) ** 3)
    photon, layers = _layer_tables(kinds)
    staged = np.matmul(gate_matrix(_SYNTH_CSWAP, 3), layers)
    # an atom-diagonal final gate only rephases each photon map: one family
    families: dict[int, list[int]] = {}
    for a, kind in enumerate(kinds):
        families.setdefault(-1 if kind in _ATOM_DIAGONAL else a, []).append(a)
    groups = list(families.values())
    atoms = np.array([_SINGLE_QUBIT[kinds[group[0]]] for group in groups])
    in_family = np.zeros((len(groups), len(kinds)), dtype=bool)
    for f, group in enumerate(groups):
        in_family[f, group] = True
    tables = _GateSetTables(
        names, layers, staged, layers.conj().transpose(0, 2, 1),
        photon.conj().transpose(0, 2, 1), atoms, in_family,
    )
    # each is fresh, or a view of a fresh array of its own size; freezing
    # them in place rather than copying them keeps the heap as the search
    # left it
    for array in tables:
        array.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=len(_SYNTH_KINDS) ** 3)
def _layer_gates(names: tuple[str, ...]) -> tuple[Gate, ...]:
    # one immutable Gate tuple per kind triple, shared by every match
    return tuple(Gate(kind, (wire,)) for wire, kind in enumerate(names) if kind != "I")


@functools.lru_cache(maxsize=len(_SYNTH_KINDS) ** 3)
def _layer_text(names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(map(_format_step, _layer_gates(names)))


def _matches_full(U: np.ndarray, target: np.ndarray, tol: float):
    # the rule of equivalent_up_to_phase
    index = np.nonzero(_phase_equiv_batch(U, target, tol))[0]
    return index, np.full((len(index), 2), -1)


def _matches_factorized(U: np.ndarray, target4: np.ndarray, tol: float):
    # measurement-free realization: U must split as (atom unitary) x target4;
    # the coefficient matrix c absorbs the global phase, so the residual test
    # is exact
    Ur = U.reshape(-1, 2, 4, 2, 4)
    c = np.einsum("ij,naibj->nab", target4.conj(), Ur) / 4.0
    rebuilt = np.einsum("nab,ij->naibj", c, target4)
    index = np.nonzero(np.max(np.abs(Ur - rebuilt), axis=(1, 2, 3, 4)) <= tol)[0]
    return index, np.full((len(index), 2), -1)


def _matches_feedforward(U: np.ndarray, proposed: np.ndarray, target4: np.ndarray, tol: float):
    # atom enters in |+>, is measured at the end; each outcome's photon map,
    # after one diagonal correction, must match the target by the rule of
    # equivalent_up_to_phase.  Both outcomes must carry non-negligible
    # probability — a dead branch would be post-selection, not feed-forward.
    # Only the corrections proposed[batch, outcome, D] are tested
    Ur = U.reshape(-1, 2, 4, 2, 4)
    M = (Ur[:, :, :, 0, :] + Ur[:, :, :, 1, :]) * _SQRT1_2  # [batch, outcome, 4, 4]
    s2 = np.sum(np.abs(M) ** 2, axis=(2, 3)) / 4.0
    alive = np.nonzero(np.all(s2 >= _BRANCH_FLOOR, axis=1))[0]
    N = M[alive] / np.sqrt(s2[alive])[:, :, None, None]
    ok = proposed[alive]
    b, o, d = np.nonzero(ok)
    ok[b, o, d] = _phase_equiv_batch(_CORRECTION_DIAGONALS[d, :, None] * N[b, o], target4, tol)
    rows, c0, c1 = np.nonzero(ok[:, 0, :, None] & ok[:, 1, None, :])
    return alive[rows], np.column_stack((c0, c1))


def _phase_canonical(A: np.ndarray):
    """Rows of A times the conjugate phase of their reference entry, real and
    imaginary parts interleaved, in units of _KEY_GRID; also the reference
    indices and the entry moduli."""
    flat = A.reshape(len(A), math.prod(A.shape[1:]))
    rows = np.arange(len(flat))
    mag = np.abs(flat)
    ref = np.argmax(mag > _KEY_REF, axis=1)  # 0 where no entry qualifies
    r, rmag = flat[rows, ref], mag[rows, ref]
    unit = np.where(rmag > 0.0, r.conj() / np.where(rmag > 0.0, rmag, 1.0), 1.0)
    scaled = (flat * unit[:, None]).view(np.float64)
    scaled /= _KEY_GRID
    return scaled, ref, mag


def _keys(scaled: np.ndarray) -> np.ndarray:
    # one uint64 per row: each pair of int32 grid values read as one word,
    # times its multiplier, summed modulo 2^64
    grid = np.clip(scaled, -(2.0**30), 2.0**30)
    grid = np.rint(grid, out=grid).astype(np.int32)
    return grid.view(np.uint64) @ _KEY_MIX


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # starts[i], ..., starts[i] + counts[i] - 1 for each i, concatenated
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)


def _member_rows(members: np.ndarray, offsets: np.ndarray, classes: np.ndarray, tails):
    # each member tuple of classes[i] followed by tails[i] (one index or a
    # row of them), for each listed class in turn, and how many each has
    counts = offsets[classes + 1] - offsets[classes]
    rows = members[_ranges(offsets[classes], counts)]
    return np.column_stack((rows, np.repeat(tails, counts, axis=0))), counts


def _stable(scaled: np.ndarray, ref: np.ndarray, mag: np.ndarray, eps: float) -> np.ndarray:
    # rows (unitary matrices, or unit vectors: entries of modulus at most 1)
    # whose key every row within eps of them, up to phase, shares: that row
    # picks the same reference entry, whose phase then differs by at most
    # 2 eps / _KEY_REF, so no coordinate moves by more than eps (1 + 2 /
    # _KEY_REF) and none may lie that close to a rounding edge
    shift = eps * (1.0 + 2.0 / _KEY_REF) / _KEY_GRID
    clear = np.all(0.5 - np.abs(scaled - np.rint(scaled)) > shift, axis=1)
    up_to_ref = np.arange(mag.shape[1]) <= ref[:, None]
    ambiguous = np.any(up_to_ref & (np.abs(mag - _KEY_REF) <= eps), axis=1)
    has_ref = mag[np.arange(len(mag)), ref] > _KEY_REF
    return clear & has_ref & ~ambiguous


def _prefix_classes(depth: int, staged: np.ndarray):
    """Phase classes of staged[l_{depth-1}] ... staged[l_0] over all layer
    tuples, built one depth at a time from the representatives of the
    depth before.  The products of a depth are ordered by layer and then by
    the class they extend.  Each is keyed by its image of _SKETCH, formed
    as stage . (R v) from its class's image R v, and a key's first product
    is the representative of its class.  The products themselves are formed
    in blocks of whole layers, one matrix product per block.  A later
    product with a key joins the key's first class when it passes the rule
    of equivalent_up_to_phase at _CLASS_TOL against that representative,
    and is a class of its own otherwise: a key is only a proposal, so
    distinct classes that share an image key stay apart.  The classes
    partition the layer tuples, and each lists its members in product
    order; class ids follow no promised order.  A search step
    generator (one empty step per block); it returns the representatives,
    the member layer tuples in application order as one int array grouped
    by class, and the offsets of each class's rows in it."""
    reps = np.eye(8, dtype=complex)[None]
    members = np.zeros((1, 0), dtype=np.intp)
    offsets = np.array([0, 1])
    for _ in range(depth):
        n = len(reps)
        per = max(1, _PRODUCT_BLOCK // n)  # whole layers per block
        sketched = reps @ _SKETCH  # the images R v
        blocks = range(0, len(staged), per)
        # the class of product layer * n + i by the key of its image stage .
        # (R v) alone, and whether it is its key's first; products that miss
        # their key's representative get classes from count on.  Classes
        # are numbered in the order of first occurrence, not of key: warm
        # feed-forward searches run faster over a table in that order
        images = (np.matmul(sketched, staged[lo : lo + per].transpose(0, 2, 1)) for lo in blocks)
        keys = np.concatenate([_keys(_phase_canonical(im.reshape(-1, 8))[0]) for im in images])
        _, firsts, inverse = np.unique(keys, return_index=True, return_inverse=True)
        fresh = np.zeros(len(keys), dtype=bool)
        fresh[firsts] = True
        count = len(firsts)
        classes = (np.cumsum(fresh) - 1)[firsts[inverse]]
        # room for a class per product; rows never written are never touched
        new_reps = np.empty((len(classes), 8, 8), dtype=complex)
        columns = reps.transpose(1, 0, 2).reshape(8, 8 * n)  # column c of reps[i] at i * 8 + c
        for lo in blocks:
            layers = staged[lo : lo + per]
            # one matrix product gives [layer, row, i, column]
            products = (layers.reshape(-1, 8) @ columns).reshape(len(layers), 8, n, 8)
            products = products.transpose(0, 2, 1, 3).reshape(-1, 8, 8)
            at = lo * n + np.arange(len(products))
            first = fresh[at]
            new_reps[classes[at[first]]] = products[first]
            # each later product against its key's representative; one that
            # misses it is a class of its own
            at, products = at[~first], products[~first]
            odd = np.nonzero(~_phase_equiv_batch(products, new_reps[classes[at]], _CLASS_TOL))[0]
            classes[at[odd]] = count + np.arange(len(odd))
            new_reps[count : count + len(odd)] = products[odd]
            count += len(odd)
            yield [], 0
        # members of each class in product order: a stable sort by class
        grouped = np.argsort(classes, kind="stable")
        members, counts = _member_rows(members, offsets, grouped % n, grouped // n)
        ends = np.concatenate(([0], np.cumsum(counts)))
        offsets = ends[np.searchsorted(classes[grouped], np.arange(count + 1))]
        reps = new_reps[:count]
    return reps, members, offsets


def _classes(kinds, depth, staged):
    """The prefix classes of (kinds, depth), the only way a search gets
    them: a search step generator that reads _MEMO on a hit, and otherwise
    builds them with _prefix_classes and keeps a completed build of exactly
    two CSWAPs, as compact read-only copies."""
    global _MEMO
    key, classes, _, _ = _MEMO
    if key == (kinds, depth):
        return classes
    classes = yield from _prefix_classes(depth, staged)
    if depth == 2:
        classes = _read_only(*classes)
        _MEMO = ((kinds, depth), classes, None, None)
    return classes


def _read_only(*arrays) -> tuple[np.ndarray, ...]:
    # compact copies, never views of a larger buffer, that raise on writing
    copies = tuple(np.array(a) for a in arrays)
    for a in copies:
        a.flags.writeable = False
    return copies


def _confirm(cands: np.ndarray, test, layers, staged, *per_row):
    # a search step per block of at most _PRODUCT_BLOCK rows of cands, one
    # layer tuple each: the match predicate on each candidate's operator in
    # application order, with the rows of per_row that go with it, returns
    # the passing indices and a correction pair each (-1, -1 measurement-
    # free); the step carries the block's hits as int rows, layer indices
    # then correction pair, and its candidate count
    for lo in range(0, len(cands), _PRODUCT_BLOCK):
        idx = cands[lo : lo + _PRODUCT_BLOCK]
        U = layers[idx[:, -1]]
        if idx.shape[1] > 1:
            prefix = staged[idx[:, 0]]
            for j in range(1, idx.shape[1] - 1):
                prefix = np.matmul(staged[idx[:, j]], prefix)
            U = np.matmul(U, prefix)
        matched, pairs = test(U, *(a[lo : lo + _PRODUCT_BLOCK] for a in per_row))
        yield np.column_stack((idx[matched], pairs)), len(idx)


def _search_full(target, k, kinds, tables, tol):
    """Search steps for an 8x8 target, met at depth j among the phase
    classes of the prefixes P = C . L_{j-1} ... C . L_0.  A candidate S . P,
    S = L_k . C ... C . L_j the suffix, matches T only if P is within sqrt8
    tol <= 8 tol of the query S^+ . T up to phase (|A E|_max <= sqrt8
    |E|_max for an 8x8 unitary A).  Each class and each query is keyed by
    its image of the unit vector v = _SKETCH alone: Q within eps of a phase
    times P, entrywise, puts Q v within eps |v|_1 of that phase times P v.
    So the query images, a block of suffixes at a time, are looked up by
    key at that radius among the classes' images.  A class whose key is
    not stable at that radius is screened against every query image
    instead, by least squares (_near).  A search of at most one CSWAP, or
    one whose gate kinds and depth have their table in the memo, meets at
    the final layer (j = k); any other meets one layer earlier (j = k - 1).
    Either way its classes come from _classes, which keeps only a build of
    two CSWAPs.  Both give the same matches and evaluated counts.
    Each proposed member and suffix is confirmed by _matches_full on its
    own operator, one search step per block of candidates."""
    global _MEMO
    layers, staged = tables.layers, tables.staged
    n = len(layers)
    # L_k^+ . T . v for every final layer, as rows
    last = np.matmul(tables.layers_dag, target @ _SKETCH)
    meet = k if k <= 1 or _MEMO[0] == (kinds, k) else k - 1
    built = yield from _classes(kinds, meet, staged)
    if meet == k:
        blocks = [(last, np.arange(n)[:, None])]
    else:
        # (C . L_{k-1})^+ . L_k^+ . T . v, the row u . conj(S) being
        # (S^+ . u) as a row, for a block of L_{k-1} at a time, with the
        # suffix (L_{k-1}, L_k) of each
        per = max(1, _PRODUCT_BLOCK // n)
        pairs = np.column_stack(np.divmod(np.arange(n * n), n))
        blocks = (
            (
                np.matmul(last, staged[lo : lo + per].conj()).reshape(-1, len(_SKETCH)),
                pairs[lo * n : (lo + per) * n],
            )
            for lo in range(0, n, per)
        )
    reps, members, offsets = built
    eps = (8.0 * tol + _CLASS_SLACK) * _SKETCH_L1
    # the key lookup at tol, kept with a memoized table
    key, kept, kept_tol, lookup = _MEMO
    if kept is not built or kept_tol != tol:
        images = reps @ _SKETCH
        scaled, ref, mag = _phase_canonical(images)
        clear = _stable(scaled, ref, mag, eps)
        stable, loose = np.nonzero(clear)[0], np.nonzero(~clear)[0]
        keys = _keys(scaled[stable])
        order = np.argsort(keys, kind="stable")
        lookup = (keys[order], stable[order], loose, _unit_rows(images[loose, None]).conj().T)
        if kept is built:
            lookup = _read_only(*lookup)
            _MEMO = (key, built, tol, lookup)
    table, table_ids, loose, loose_dag = lookup
    test = functools.partial(_matches_full, target=target, tol=tol)
    for queries, suffixes in blocks:
        query_keys = _keys(_phase_canonical(queries)[0])
        left = np.searchsorted(table, query_keys)
        counts = np.searchsorted(table, query_keys, side="right") - left
        query = np.repeat(np.arange(len(queries)), counts)
        classes = table_ids[_ranges(left, counts)]
        if loose.size:
            # an image within eps of a phase times P v, entrywise, is within
            # 8 eps^2 of it in squared norm, and no nearer to that phase
            # times P v than to the nearest multiple of P v
            near_q, near_j = np.nonzero(_near(queries, loose_dag, len(_SKETCH) * eps**2))
            query = np.concatenate((query, near_q))
            classes = np.concatenate((classes, loose[near_j]))
        cands = _member_rows(members, offsets, classes, suffixes[query])[0]
        yield from _confirm(cands, test, layers, staged)
        yield [], 0  # at least one step per block of queries


def _near(X: np.ndarray, Q_dag: np.ndarray, bound: float) -> np.ndarray:
    # [row of X, row of Q]: min over complex z of |X - z Q|_F^2 <= bound,
    # for rows of Q of norm 1 or 0, given as Q_dag = Q.conj().T (formed once
    # per table by the caller).  That minimum is |X|^2 - |<Q, X>|^2; the
    # 1e-12 terms absorb rounding in the difference.  Squared moduli are
    # re^2 + im^2 on real views
    overlap = (X @ Q_dag).view(np.float64)
    overlap *= overlap
    x = X.view(np.float64)
    xn = np.einsum("ij,ij->i", x, x)
    return overlap[:, ::2] + overlap[:, 1::2] >= (xn * (1.0 - 1e-12) - bound - 1e-12)[:, None]


def _unit_rows(A: np.ndarray) -> np.ndarray:
    # one matrix (the last two axes) per row, scaled to Frobenius norm 1
    # unless it is zero
    flat = A.reshape(-1, A.shape[-2] * A.shape[-1])
    norm = np.sqrt(np.sum(np.abs(flat) ** 2, axis=1, keepdims=True))
    return flat / np.where(norm > 0.0, norm, 1.0)


def _search_photon(target, k, kinds, tables, feedforward, tol):
    """Meet at the final layer for a 4x4 target T.  The final layer
    a (x) B moves to the target side, so one prefix P = C . L_{k-1} ...
    C . L_0 per phase class is screened against a table of at most 36 x 4
    entries, and no operator is formed for it.  (a (x) B) . P factorizes
    as A (x) T exactly when each 4x4 block of P is proportional to
    B^+ . T.  With the atom prepared in |+> and measured, outcome o leaves
    the photon map B . W, W = sum_j a[o, j] Q_j with Q_j = (P[j, :, 0, :] + P[j, :, 1, :]) / sqrt2;
    after a correction D it equals T up to scale and phase exactly when W
    is proportional to B^+ . D^+ . T, with the same B for both outcomes.
    The prefix classes are keyed by image, but a product joins one only
    within _CLASS_TOL, entrywise, of a phase times its representative, so
    each member's operator stays within the _CLASS_SLACK that the screening
    radius assumes.  The screens square moduli as re^2 + im^2 on real views
    and take the corrections D as the outer columns of their table.  Each
    stage screens only what the one before it proposed: the first block of
    every class, the other three only for the classes where some B passes
    it; outcome 0 on the live rows alone, where both W carry weight;
    outcome 1 only on those where outcome 0 passes for some B.  Each
    (row, B) keeps the corrections that pass for each outcome.  Each
    proposed member and final layer is confirmed at tol on its own
    operator, a feed-forward one at its proposed corrections alone: the
    radius holds per table entry B^+ . D^+ . T, so a correction pair that
    passes at tol was proposed for both outcomes."""
    layers, staged, photon_dag = tables.layers, tables.staged, tables.photon_dag
    reps, members, offsets = yield from _classes(kinds, k, staged)
    n2 = len(kinds) ** 2
    # the screens test proportionality, so T and each table entry may be
    # rescaled; T to unit peak first, so that no norm overflows
    peak = np.max(np.abs(target))
    unit = target / peak if peak > 0.0 else target
    # correction-major: (B^+ . D^+ . T)^+ for each D, then B; D = I first
    fed_dag = _unit_rows(
        np.matmul(photon_dag, (_CORRECTION_DIAGONALS[:, :, None] * unit)[:, None])
    ).conj().T
    free_dag = np.ascontiguousarray(fed_dag[:, :n2])  # (B^+ . T)^+
    atoms, in_family = tables.atoms, tables.in_family
    atom_offset = n2 * np.arange(len(kinds))  # of the final layer's index
    # Screening radius eps, entrywise, around the multiples of a table entry.
    # A class member is e^{i theta} P + E with |E|_max < _CLASS_SLACK, and
    # |V E|_max <= 2 |E|_max for a 4x4 unitary V.  Measurement-free: if the
    # member passes at tol, the blocks U_ij of (a (x) B) . member lie within
    # tol of c_ij T; its block (m, j) is B^+ . sum_i conj(a[i, m]) U_ij with
    # sum_i |a[i, m]| <= sqrt2, so P's block lies within
    # 2 sqrt2 tol + _CLASS_SLACK of a multiple of B^+ . T.  Feed-forward: the
    # test scales the member's W to Frobenius norm 2, and that lies within
    # 2 tol of a multiple of B^+ . D^+ . T (V = B^+ . D^+).  Undoing the
    # scaling multiplies this by |W|_F / 2 <= 1, since the two W of a unitary
    # have squared norms summing to 4, and E moves W by at most
    # 2 _CLASS_SLACK: P's W lies within 2 tol + 2 _CLASS_SLACK.  Over 16
    # entries the squared Frobenius distance is at most 16 eps^2.  E also
    # moves |W|_F by at most 8 _CLASS_SLACK, so no branch above the weight
    # floor |W|_F^2 / 4 >= _BRANCH_FLOOR of the test is screened out.
    eps = 2.0 * math.sqrt(2.0) * tol + 2.0 * _CLASS_SLACK
    bound = 16.0 * eps**2
    alive = (2.0 * math.sqrt(_BRANCH_FLOOR) - 8.0 * _CLASS_SLACK) ** 2

    def screen(rows):
        # [row, D, B]: the row within eps of a multiple of the table entry of
        # correction D and photon pair B
        return _near(rows, fed_dag, bound).reshape(len(rows), 4, n2)

    free_test = functools.partial(_matches_factorized, target4=target, tol=tol)
    fed_test = functools.partial(_matches_feedforward, target4=target, tol=tol)
    for lo in range(0, len(reps), _PRODUCT_BLOCK):
        P = reps[lo : lo + _PRODUCT_BLOCK].reshape(-1, 2, 4, 2, 4)
        n = len(P)
        # every block proportional to B^+ . T: the first block for every
        # class, the other three only for the classes where some B passes it
        blocks = P.transpose(0, 1, 3, 2, 4).reshape(n, 4, 16)
        ok = _near(blocks[:, 0], free_dag, bound)
        c = np.nonzero(ok.any(axis=1))[0]
        rest = _near(blocks[c, 1:].reshape(-1, 16), free_dag, bound).reshape(len(c), 3, n2)
        t, p = np.nonzero(ok[c] & rest.all(axis=1))
        final = (p[:, None] + atom_offset).ravel()
        cands = _member_rows(members, offsets, np.repeat(lo + c[t], len(kinds)), final)[0]
        yield from _confirm(cands, free_test, layers, staged)
        if feedforward:
            Q = (P[:, :, :, 0] + P[:, :, :, 1]) * _SQRT1_2  # [class, j, 4, 4]
            # one row per class and family, in that order: [row, outcome, 16]
            W = np.einsum("fom,nmxy->nfoxy", atoms, Q).reshape(-1, 2, 16)
            w = W.view(np.float64)
            live = np.nonzero((np.einsum("iok,iok->io", w, w) >= alive).all(axis=1))[0]
            # outcome 0 on the live rows, outcome 1 only on those where
            # outcome 0 passes for some B; each (row, B) keeps the
            # corrections that pass for each outcome, for the same B
            first = screen(W[live, 0])
            some = first.any(axis=1)
            hit = np.nonzero(some.any(axis=1))[0]
            second = screen(W[live[hit], 1])
            t, p = np.nonzero(some[hit] & second.any(axis=1))
            proposed = np.stack((first[hit[t], :, p], second[t, :, p]), axis=1)
            c, f = np.divmod(live[hit[t]], len(atoms))
            t, a = np.nonzero(in_family[f])
            cands, counts = _member_rows(members, offsets, lo + c[t], atom_offset[a] + p[t])
            proposed = np.repeat(proposed[t], counts, axis=0)
            yield from _confirm(cands, fed_test, layers, staged, proposed)
        yield [], 0  # at least one step per block of classes


def synthesize(
    target: np.ndarray,
    num_cswaps: int,
    gate_set: Sequence[str] = ("I", "Z", "S", "Sdag", "H"),
    allow_feedforward: bool = False,
    tol: float = 1e-9,
    time_budget: float | None = None,
) -> SynthesisResult:
    """Exhaustive search over layered CSWAP circuits on (atom, photon, photon).

    Candidates have the shape L_k . CSWAP . L_{k-1} . ... . CSWAP . L_0 with
    k = num_cswaps and each layer assigning one gate-set element per wire;
    the CSWAP control is always the atom.  A 8x8 target is matched as the
    whole operator; a 4x4 target is a photon map, matched either
    measurement-free (the operator must factorize as atom x target) or, when
    allow_feedforward is set, through a terminal atom measurement with one
    diagonal correction per outcome.  Matching is up to global phase at
    tolerance ``tol``, which must lie in (0, 1) since unitary entries have
    modulus at most 1.  Hits stay int rows, layer indices then correction
    pair (-1, -1 measurement-free), and one lexsort of them sorts the
    matches, which are then built all at once.

    Each layer's operator is the Kronecker product of its gates' 2x2
    matrices.  The search runs on phase classes of partial products, built
    a block of whole layers at a time.  A 4x4 target meets at the final
    layer: each prefix class, all but the final layer of a candidate, is
    screened against the target with each final layer undone.  An 8x8
    target is looked up by key, each class and each query keyed by its
    image of one fixed unit vector v (a query within eps of a class,
    entrywise, has an image within eps |v|_1 of the class's, the radius of
    the lookup).  An 8x8 search of at most one CSWAP, or one whose prefix
    classes are memoized, meets at the final layer: it looks the target
    with its final layer undone up among the prefix classes.  Any other
    looks the target with its final two layers undone up among the classes
    one layer shorter.  The screens only propose candidates.  Every
    reported match is confirmed on its own operator by its exact rule
    alone: full-operator and feed-forward matches pass the rule of
    ``equivalent_up_to_phase``, measurement-free photon maps the
    factorization residual.

    The prefix classes depend only on the gate set and num_cswaps.  Every
    search gets them through one module-level memo, which keeps only a
    completed build of exactly two CSWAPs, with the full-operator key
    lookup at its last ``tol``.  A photon-map search builds them unless
    kept.  A full-operator search of at most one CSWAP builds its own and
    meets at the final layer (its build forms one product per layer, where
    a meet one layer earlier would form one query per pair of layers); one
    of more meets one layer earlier unless its own are kept.  Either way
    the result is the same.
    The memo is one slot, replaced whole, so concurrent calls at worst
    build a table twice.  The tables that depend on the gate set alone
    (layer operators, their CSWAP products and adjoints, the kind triples)
    are built once per gate set and process, for up to eight gate sets, as
    read-only arrays; they hold no search result.

    A ``time_budget`` (seconds, positive) makes the search stop early with
    ``truncated`` set, keeping the matches confirmed so far; the budget is
    checked after each block of built products, of screened classes or
    queries, and after each block of at most 512 confirmed candidates
    (_PRODUCT_BLOCK).  Exceeding _GUARD candidates raises
    SearchSpaceError before any work is done; a ``num_cswaps`` that is not
    an integer in [0, 4] (a bool included), a gate set given as one string
    or empty, a ``tol`` outside (0, 1) or a budget that is NaN or not
    positive raise ValueError.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape == (8, 8):
        mode = "full"
    elif target.shape == (4, 4):
        mode = "photon"
    else:
        raise ValueError("target must be 4x4 (photon map) or 8x8 (full operator)")
    if not np.all(np.isfinite(target)):
        raise ValueError("target entries must be finite")
    # a bool is an int, but True is no CSWAP count
    integral = isinstance(num_cswaps, (int, np.integer)) and not isinstance(num_cswaps, bool)
    if not integral or not 0 <= num_cswaps <= 4:
        raise ValueError(f"num_cswaps must be an integer between 0 and 4, got {num_cswaps!r}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be finite and in (0, 1), got {tol!r}")
    if time_budget is not None and not time_budget > 0.0:
        raise ValueError(f"time_budget must be positive, got {time_budget!r}")
    # a string is a sequence of its characters, not of gate kinds
    if isinstance(gate_set, str):
        raise ValueError(f"gate_set must be a sequence of gate kinds, not the string {gate_set!r}")
    kinds = tuple(gate_set)
    if not kinds:
        raise ValueError("gate_set must not be empty")
    if len(set(kinds)) != len(kinds):
        raise ValueError("gate_set entries must be unique")
    for k in kinds:
        if k not in _SYNTH_KINDS:
            raise ValueError(f"unsupported gate kind {k!r}; choose from {_SYNTH_KINDS}")

    n_layers = len(kinds) ** 3
    use_feedforward = mode == "photon" and allow_feedforward
    variants = 1 + (16 if use_feedforward else 0)
    size = n_layers ** (num_cswaps + 1) * variants
    if size > _GUARD:
        raise SearchSpaceError(size, _GUARD)

    start = time.monotonic()
    tables = _gate_set_tables(kinds)
    if mode == "full":
        steps = _search_full(target, num_cswaps, kinds, tables, tol)
    else:
        steps = _search_photon(target, num_cswaps, kinds, tables, use_feedforward, tol)

    found = [np.empty((0, num_cswaps + 3), dtype=np.intp)]
    evaluated = 0
    truncated = False
    for hits, count in steps:  # the budget is checked between steps
        if len(hits):  # a class build's steps and the ends of blocks carry none
            found.append(hits)
        evaluated += count
        if time_budget is not None and time.monotonic() - start > time_budget:
            truncated = True
            break

    # by layer indices, then correction pair: a measurement-free (-1, -1) first
    rows = np.concatenate(found)
    matches = _build_matches(rows[np.lexsort(rows.T[::-1])], tables.names)
    return SynthesisResult(matches, size, truncated, time.monotonic() - start, evaluated)


def _build_matches(rows: np.ndarray, names: np.ndarray) -> tuple[SynthesisMatch, ...]:
    # one match per hit row, layer indices then correction pair, all at once:
    # the kind triples by one take from names, the pairs as Python ints
    layers = map(tuple, names[rows[:, :-2]].tolist())
    feedforward = [None if c0 < 0 else (c0, c1) for c0, c1 in rows[:, -2:].tolist()]
    return tuple(map(SynthesisMatch, layers, feedforward))

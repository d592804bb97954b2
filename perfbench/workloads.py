"""Seeded inputs of the three workloads.

Each workload is one client in a closed loop: the next operation starts when
the previous one has finished.  The same seed gives the same inputs.  The
program sees only the generated argv or arrays, never the seed.
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("sweep-grid", "synthesis", "cli-session")

# operating domain of the sweeps and custom metric points, in units of kappa
G_RANGE = (0.1, 20.0)
DW_RANGE = (0.01, 10.0)
GAMMA_RANGE = (0.1, 2.0)

# --- sweep-grid -----------------------------------------------------------
# Why: cavity and the Gauss-Hermite path of pulses do almost all the work of
# a large sweep, so batched or exact pulse averages show here.  The
# grids span the wide-pulse corner, whose rows the 64-node rule does not
# resolve; they are counted as failures, not left out.  One grid has twice
# the points: a batched kernel's working set grows with the grid.
GRID_SIDE = 100
SWEEP_GRIDS = 3
BIG_GRID = (200, 100)


def log_spaced(rng, lo, hi, n):
    """n log-spaced values in [lo, hi) with a seeded offset inside one step."""
    u = float(rng.uniform(0.0, 1.0))
    exponent = math.log(lo) + (math.log(hi) - math.log(lo)) * (np.arange(n) + u) / n
    return np.exp(exponent)


def log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def sweep_grid(seed):
    """SWEEP_GRIDS grids of GRID_SIDE x GRID_SIDE points, then one BIG_GRID
    (g values x bandwidths); one gamma each."""
    rng = np.random.default_rng([seed, 1])
    grids = []
    for n_g, n_dw in [(GRID_SIDE, GRID_SIDE)] * SWEEP_GRIDS + [BIG_GRID]:
        gamma = float(log_uniform(rng, *GAMMA_RANGE))
        g = log_spaced(rng, *G_RANGE, n_g)
        dw = log_spaced(rng, *DW_RANGE, n_dw)
        grids.append({"gamma": gamma, "g": g.tolist(), "dw": dw.tolist()})
    return grids


def sweep_argv(grid):
    return [
        "sweep",
        "--axis", "coupling",
        "--values", ",".join(repr(v) for v in grid["g"]),
        "--bandwidth", ",".join(repr(v) for v in grid["dw"]),
        "--gamma", repr(grid["gamma"]),
    ]


# --- synthesis ------------------------------------------------------------
# Why: only the synthesis part of circuits works here.  Full-operator
# matching and photon-map matching with feed-forward use that layer
# differently, so a search index that helps one and hurts the other shows.
# The match count of a planted target moves the search time about 2x, so
# each run draws one planted target from every match-count class of a pool
# pinned in pins.json.
SYNTH_GATES = ("I", "Z", "S", "Sdag", "H")
SYNTH_CSWAPS = 2
FEEDFORWARD_ARGV = ["synthesize", "--target", "cpf", "--cswaps", "2", "--feedforward"]


def synthesis(seed, pool):
    """One pool entry per class, in seeded order; pool entries carry
    ``class`` and ``layers`` (kind names per wire, one triple per layer)."""
    rng = np.random.default_rng([seed, 2])
    classes = sorted({entry["class"] for entry in pool})
    picks = []
    for cls in classes:
        members = [entry for entry in pool if entry["class"] == cls]
        picks.append(members[int(rng.integers(len(members)))])
    return [picks[i] for i in rng.permutation(len(picks))]


_SQ = 1.0 / math.sqrt(2.0)
_GATES = {
    "I": np.eye(2, dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
    "S": np.diag([1.0, 1j]),
    "Sdag": np.diag([1.0, -1j]),
    "H": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
}


def _cswap():
    # atom = wire 0 = most significant bit controls the swap of wires 1, 2
    perm = [0, 1, 2, 3, 4, 6, 5, 7]
    return np.eye(8, dtype=complex)[perm]


def planted_unitary(layers):
    """L_k . CSWAP . ... . CSWAP . L_0 for layers given in application order."""
    cswap = _cswap()
    u = np.eye(8, dtype=complex)
    for depth, layer in enumerate(layers):
        if depth:
            u = cswap @ u
        a, b, c = (_GATES[k] for k in layer)
        u = np.kron(a, np.kron(b, c)) @ u
    return u


# --- cli-session ----------------------------------------------------------
# Why: whole-process launches at README sizes, where interpreter start-up and
# cli dominate the quick calls and adaptive Simpson dominates full `verify`.
# Batched pulse averages and a synthesis index should change nothing here: a
# batched kernel that slows single-point `metrics`, or a synthesis index that
# costs more than a 1-CSWAP search saves, shows here; work moved into import
# shows in setup_s.  The raised --nodes calls include values >= 186, which
# fail in this version (the residual's doubled rule gets NaN weights); they
# stay in the mix.
KNOWN_NAN_NODES = 186
SYNTH_QUICK = (
    ["synthesize", "--target", "czz", "--cswaps", "1"],
    ["synthesize", "--target", "cpf", "--cswaps", "1", "--feedforward"],
    ["synthesize", "--target", "czz", "--cswaps", "2", "--gates", "I,Z"],
)
PRESETS = {
    # rates in units of kappa_h and the bandwidth each preset's rule gives
    "atomic": {"rates": (32.0 / 4.2, 1.0, 2.6 / 4.2), "bandwidth": 0.1},
    "solid-state": {
        "rates": (0.66 / 6.0, 1.0, 0.001 / 6.0),
        "bandwidth": 0.1 * (0.66 / 6.0) ** 2,
    },
}


def _metrics_point(rng, pairs):
    """Custom operating point: argv in physical units plus normalized rates."""
    kappa = float(log_uniform(rng, 0.5, 2.0))
    pols = []
    for _ in range(2 if pairs else 1):
        pols.append((float(log_uniform(rng, *G_RANGE)), float(log_uniform(rng, *GAMMA_RANGE))))
    dw = float(log_uniform(rng, *DW_RANGE))

    def flag(values):
        return ",".join(repr(v * kappa) for v in values)

    argv = [
        "metrics",
        "--g", flag([p[0] for p in pols]),
        "--kappa", repr(kappa),
        "--gamma", flag([p[1] for p in pols]),
        "--bandwidth", f"{dw!r}kappa",
    ]
    rates = [(g, 1.0, gm) for g, gm in pols]
    return argv, {"h": rates[0], "v": rates[-1], "bandwidth": dw}


def cli_session(seed):
    """One session: a list of invocations, each {kind, argv, expect}."""
    rng = np.random.default_rng([seed, 3])
    calls = []

    def add(kind, argv, **expect):
        calls.append({"kind": kind, "argv": argv, "expect": expect})

    for name, preset in PRESETS.items():
        for fmt in ("plain", "json"):
            add("metrics", ["metrics", "--preset", name, "--format", fmt],
                h=preset["rates"], v=preset["rates"], bandwidth=preset["bandwidth"], nodes=64)
    for i in range(6):
        argv, point = _metrics_point(rng, pairs=i % 3 == 2)
        argv += ["--format", "json" if i % 2 else "plain"]
        add("metrics", argv, nodes=64, **point)
    for nodes in (int(rng.integers(96, KNOWN_NAN_NODES)), int(rng.integers(96, KNOWN_NAN_NODES)),
                  int(rng.integers(KNOWN_NAN_NODES, 257)), int(rng.integers(KNOWN_NAN_NODES, 257))):
        argv, point = _metrics_point(rng, pairs=False)
        add("metrics", argv + ["--nodes", str(nodes), "--format", "json"], nodes=nodes, **point)
    for branch in ("coupled", "decoupled", "coupled"):
        g, gamma = float(log_uniform(rng, *G_RANGE)), float(log_uniform(rng, *GAMMA_RANGE))
        span = float(log_uniform(rng, 0.5, 5.0))
        pol = "h" if rng.random() < 0.5 else "v"
        argv = ["coeffs", "--g", repr(g), "--gamma", repr(gamma), "--branch", branch,
                "--pol", pol, "--omega-start", repr(-span), "--omega-stop", repr(span),
                "--omega-step", repr(span / 100.0)]
        add("coeffs", argv, rates=(g, 1.0, gamma), branch=branch)
    for _ in range(2):
        lo = float(log_uniform(rng, 0.01, 0.05))
        hi = float(log_uniform(rng, 0.2, 0.5))
        couplings = sorted(float(v) for v in log_uniform(rng, 1.0, 12.0, 3))
        gamma = float(log_uniform(rng, *GAMMA_RANGE))
        argv = ["sweep", "--axis", "bandwidth", "--values", f"{lo!r}:{hi!r}:30",
                "--coupling", ",".join(repr(c) for c in couplings), "--gamma", repr(gamma)]
        add("sweep", argv, g=couplings, dw=np.linspace(lo, hi, 30).tolist(), gamma=gamma)
    states = ["random"] * 6 + ["identical", "orthogonal"]
    for n, pick in zip(range(1, 9), rng.permutation(len(states))):
        trials = int(rng.integers(1000, 20001))
        fp_seed = int(rng.integers(0, 2**31))
        argv = ["fingerprint", "--n", str(n), "--trials", str(trials), "--seed", str(fp_seed),
                "--states", states[pick], "--format", "json" if n % 2 else "plain"]
        add("fingerprint", argv, n=n, trials=trials, seed=fp_seed, states=states[pick])
    for argv in SYNTH_QUICK:
        add("synthesize", list(argv))
    for _ in range(2):
        add("verify-circuits", ["verify", "circuits"])
    for _ in range(4):
        add("verify", ["verify"])
    return [calls[i] for i in rng.permutation(len(calls))]

"""Pulse-averaged coefficients, quadrature schemes, and gate metrics."""
import math
import struct
from typing import Callable

import numpy as np
import pytest

from cavityswap import pulses
from cavityswap.cavity import AtomBranch, CavityParams, response_arrays
from cavityswap.pulses import (
    ADAPTIVE_SIMPSON,
    GAUSS_HERMITE,
    OverlapSet,
    PulseSpec,
    QuadratureConfig,
    QuadratureError,
    adaptive_simpson_mean,
    gate_metrics,
    gauss_hermite_mean,
    metrics_residual,
    overlaps,
    spectral_density,
    sweep,
)

ATOMIC = CavityParams.symmetric(32.0 / 4.2, 1.0, 2.6 / 4.2)
SOLID_STATE = CavityParams.symmetric(0.66 / 6.0, 1.0, 0.001 / 6.0)

# np.trapezoid exists from numpy 2.0; the np.trapz fallback serves numpy
# 1.24-1.26 and must stay lazy, since numpy >= 2.4 no longer has np.trapz.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def test_spectral_density_is_normalized():
    for dw in (0.01, 0.1, 0.5):
        omega = np.linspace(-8.0 * dw, 8.0 * dw, 20001)
        total = _trapezoid(spectral_density(omega, dw), omega)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_gauss_hermite_against_trapezoid():
    """The Hermite rule must agree with a dense brute-force integral of the
    actual reflection integrand."""
    dw = 0.1

    def integrand(w):
        r, _, _ = response_arrays(ATOMIC, "h", AtomBranch.COUPLED, w)
        return np.abs(r) ** 2

    omega = np.linspace(-8.0 * dw, 8.0 * dw, 200001)
    brute = _trapezoid(integrand(omega) * spectral_density(omega, dw), omega)
    gh = gauss_hermite_mean(integrand, dw)
    assert gh.imag == 0.0
    assert gh.real == pytest.approx(brute, abs=1e-10)


def test_gauss_hermite_exact_on_polynomials():
    # degree-5 polynomial: the 64-node rule is exact to roundoff
    dw = 0.3
    poly = lambda w: 2.0 - w + 3.0 * w**2 + w**5
    # Gaussian moments: E[w^2] = dw^2/4, odd moments vanish
    expected = 2.0 + 3.0 * dw**2 / 4.0
    assert gauss_hermite_mean(poly, dw).real == pytest.approx(expected, abs=1e-14)


def test_adaptive_simpson_agrees_with_hermite():
    def integrand(w):
        _, t, _ = response_arrays(ATOMIC, "h", AtomBranch.DECOUPLED, w)
        return t

    gh = gauss_hermite_mean(integrand, 0.1)
    simpson = adaptive_simpson_mean(integrand, 0.1, 1e-13)
    assert abs(gh - simpson) <= 1e-11


def _recursive_simpson_mean(
    func: Callable[[np.ndarray], np.ndarray],
    bandwidth: float,
    tol: float = 1e-12,
    window: float = 6.0,
) -> complex:
    """The depth-first adaptive Simpson rule, one integrand point per call:
    the reference that the level-by-level rule must reproduce bit for bit."""
    norm = math.sqrt(2.0 / (math.pi * bandwidth * bandwidth))

    def weighted(w: float) -> complex:
        value = func(np.array([w]))
        return norm * math.exp(-2.0 * w * w / (bandwidth * bandwidth)) * complex(value[0])

    def simpson(fa, fm, fb, h):
        return (h / 6.0) * (fa + 4.0 * fm + fb)

    unresolved = 0.0

    def recurse(a, m, b, fa, fm, fb, whole, tol, depth):
        nonlocal unresolved
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = weighted(lm)
        frm = weighted(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        err = abs(left + right - whole)
        if err <= 15.0 * tol or depth <= 0:
            if err > 15.0 * tol:
                unresolved = max(unresolved, err / 15.0)
            return left + right + (left + right - whole) / 15.0
        return recurse(a, lm, m, fa, flm, fm, left, tol / 2.0, depth - 1) + recurse(
            m, rm, b, fm, frm, fb, right, tol / 2.0, depth - 1
        )

    a = -window * bandwidth
    b = window * bandwidth
    fa = weighted(a)
    fm = weighted(0.0)
    fb = weighted(b)
    total = recurse(a, 0.0, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, 48)
    if unresolved > 0.0:
        raise QuadratureError(unresolved)
    return total


def _recorded(func):
    """func, and a one-point stand-in that replays what func returned.

    The reference rule calls its integrand once per point, about 50 us a
    call through response_arrays; replaying the values the level-by-level
    rule saw keeps the comparison fast.  A point that rule never evaluated
    raises KeyError, so the two trees must coincide.
    """
    seen = {}

    def vectorized(w):
        values = func(w)
        seen.update(zip(w.tolist(), values.tolist()))
        return values

    def replay(w):
        return np.array([seen[float(w[0])]])

    return vectorized, replay, seen


def _bits(z: complex) -> bytes:
    """The bytes of both parts: == alone does not see the sign of a zero."""
    return struct.pack("<dd", z.real, z.imag)


def test_adaptive_simpson_matches_recursive_reference():
    """Level by level, the rule must give the recursion's mean with ==, at
    both presets, g = 0 and gamma = 0, for r, |r|^2 and the decoupled t."""
    points = (
        (ATOMIC, 0.1),
        (SOLID_STATE, 0.1 * SOLID_STATE.g_h**2),
        (CavityParams.symmetric(0.0, 1.0, 1.0), 0.1),
        (CavityParams.symmetric(3.0, 1.0, 0.0), 0.3),
    )
    for params, dw in points:
        coupled = lambda w: response_arrays(params, "h", AtomBranch.COUPLED, w)[0]
        integrands = (
            coupled,
            lambda w: np.abs(coupled(w)) ** 2,
            lambda w: response_arrays(params, "h", AtomBranch.DECOUPLED, w)[1],
        )
        for integrand in integrands:
            for tol in (1e-10, 1e-12, 1e-14):
                vectorized, replay, seen = _recorded(integrand)
                value = adaptive_simpson_mean(vectorized, dw, tol)
                assert _bits(value) == _bits(_recursive_simpson_mean(replay, dw, tol))
                # the values replayed are those of one-point calls
                for w in sorted(seen)[::97]:
                    assert integrand(np.array([w]))[0] == seen[w]


def test_adaptive_simpson_reports_unresolved_error():
    # a step inside the pulse window cannot be resolved to 1e-14 at any
    # bisection depth; the failure must surface, not silently degrade
    step = lambda w: np.where(w > 0.0123456, 1.0, 0.0) + 0j
    with pytest.raises(QuadratureError) as info:
        adaptive_simpson_mean(step, 0.1, 1e-14)
    assert info.value.residual > 0.0
    with pytest.raises(QuadratureError) as reference:
        _recursive_simpson_mean(step, 0.1, 1e-14)
    assert info.value.residual == reference.value.residual


def test_adaptive_simpson_rejects_non_finite_integrand():
    # NaN never meets the error test: the rule must stop at once, not bisect
    # toward 2**48 intervals
    spike = lambda w: np.where(np.abs(w - 0.15) < 0.02, np.nan, 1.0) + 0j
    with pytest.raises(QuadratureError, match=r"not finite at omega = 0\.15$") as info:
        adaptive_simpson_mean(spike, 0.1)
    assert info.value.residual == math.inf
    simpson = QuadratureConfig(method=ADAPTIVE_SIMPSON)
    for g in (1e200, 1e155):  # g^2 overflows
        with pytest.raises(QuadratureError, match="not finite"):
            overlaps(CavityParams.symmetric(g, 1.0, 1.0), PulseSpec(0.1), simpson)


def test_adaptive_simpson_caps_the_tree(monkeypatch):
    # below what rounding can reach, every interval is split on every level;
    # the rule must stop at the interval cap, not grow each level to 2**48
    integrand = lambda w: response_arrays(ATOMIC, "h", AtomBranch.COUPLED, w)[0]
    monkeypatch.setattr(pulses, "_MAX_INTERVALS", 4096)
    with pytest.raises(QuadratureError, match="within 4096 intervals") as info:
        adaptive_simpson_mean(integrand, 0.1, 1e-300)
    assert info.value.residual == math.inf
    # at the default tolerance the tree holds 2675 intervals: a cap of 2674
    # stops it, and a cap of 2675 leaves its mean as it was
    monkeypatch.setattr(pulses, "_MAX_INTERVALS", 2674)
    with pytest.raises(QuadratureError, match="within 2674 intervals"):
        adaptive_simpson_mean(integrand, 0.1, 1e-12)
    monkeypatch.setattr(pulses, "_MAX_INTERVALS", 2675)
    vectorized, replay, _ = _recorded(integrand)
    assert _bits(adaptive_simpson_mean(vectorized, 0.1, 1e-12)) == _bits(
        _recursive_simpson_mean(replay, 0.1, 1e-12)
    )


def _simpson_branch_overlap(params, pol, branch, bandwidth, tol):
    """(survival probability, normalized mode overlap) of one polarization
    and branch, each average its own adaptive_simpson_mean call over
    response_arrays: the per-branch reference for the batched path."""

    def amplitude(omega):
        r, t, _ = response_arrays(params, pol, branch, omega)
        return r if branch is AtomBranch.COUPLED else t

    power = adaptive_simpson_mean(lambda w: np.abs(amplitude(w)) ** 2, bandwidth, tol).real
    mean = adaptive_simpson_mean(amplitude, bandwidth, tol)
    return power, mean / math.sqrt(power) if power > 0.0 else 0.0j


ASYMMETRIC = CavityParams(3.0, 5.0, 1.0, 2.0, 1.0, 0.5)


def test_simpson_overlaps_match_per_branch_reference():
    """The batched path under adaptive Simpson gives, with ==, what one
    integral per polarization and branch gives: both presets, g = 0,
    gamma = 0 and kappa_h != kappa_v."""
    simpson = QuadratureConfig(method=ADAPTIVE_SIMPSON)
    points = (
        (ATOMIC, 0.1),
        (SOLID_STATE, 0.1 * SOLID_STATE.g_h**2),
        (CavityParams.symmetric(0.0, 1.0, 1.0), 0.1),
        (CavityParams.symmetric(3.0, 1.0, 0.0), 0.3),
        (ASYMMETRIC, 0.1),
    )
    for params, dw in points:
        values = {}
        for pol in ("h", "v"):
            for branch, name in ((AtomBranch.COUPLED, "reflect"), (AtomBranch.DECOUPLED, "transmit")):
                prob, overlap = _simpson_branch_overlap(params, pol, branch, dw, simpson.tolerance)
                values[f"{name}_prob_{pol}"] = prob
                values[f"{name}_overlap_{pol}"] = overlap
        assert overlaps(params, PulseSpec(dw), simpson) == OverlapSet(**values)


def test_simpson_integrates_each_decoupled_branch_once(monkeypatch):
    # the Decoupled branch depends on kappa and the bandwidth alone: one
    # (power, mean) pair per distinct kappa, after one per polarization for
    # the Coupled branch
    calls = []
    counted = pulses.adaptive_simpson_mean

    def counting(*args, **kwargs):
        calls.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(pulses, "adaptive_simpson_mean", counting)
    simpson = QuadratureConfig(method=ADAPTIVE_SIMPSON)
    for params, expected in ((ATOMIC, 6), (ASYMMETRIC, 8)):
        calls.clear()
        overlaps(params, PulseSpec(0.1), simpson)
        assert len(calls) == expected


def test_simpson_sweep_matches_per_point_metrics():
    """A Simpson sweep row is the point's own gate_metrics, bit for bit.
    g = 1e200 makes the batch raise: every point is evaluated again on its
    own, and the failing rows keep their place, NaN metrics and the error
    gate_metrics raises."""
    simpson = QuadratureConfig(method=ADAPTIVE_SIMPSON)
    couplings, bandwidths = [1e200, 0.0, 3.0], [0.3, 0.05]
    rows = sweep(couplings, bandwidths, 0.5, simpson)
    assert [(r.g_over_kappa, r.bandwidth_over_kappa) for r in rows] == [
        (g, dw) for g in sorted(couplings) for dw in sorted(bandwidths)
    ]
    for row in rows:
        params = CavityParams.symmetric(row.g_over_kappa, 1.0, 0.5)
        if row.g_over_kappa == 1e200:
            with pytest.raises(QuadratureError) as info:
                gate_metrics(params, PulseSpec(row.bandwidth_over_kappa), simpson)
            assert row.error == str(info.value)
            assert "not finite" in row.error
            assert math.isnan(row.loss_probability) and math.isnan(row.fidelity)
        else:
            point = gate_metrics(params, PulseSpec(row.bandwidth_over_kappa), simpson)
            assert row.error == ""
            assert (row.loss_probability, row.fidelity) == (
                point.loss_probability,
                point.fidelity,
            )


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(method="trapezoid")
    with pytest.raises(ValueError):
        QuadratureConfig(nodes=4)
    with pytest.raises(ValueError):
        QuadratureConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(tolerance=1e-3)
    with pytest.raises(ValueError):
        PulseSpec(0.0)
    with pytest.raises(ValueError):
        PulseSpec(-0.1)


def test_atomic_operating_point():
    # agrees to 1e-6 with an independent trapezoid evaluation; pinned at
    # 1e-9 against regressions
    result = gate_metrics(ATOMIC, PulseSpec(0.1))
    assert result.loss_probability == pytest.approx(0.013003423359, abs=1e-9)
    assert result.fidelity == pytest.approx(0.997519328179, abs=1e-9)


def test_solid_state_operating_point():
    g2k = SOLID_STATE.g_h**2 / SOLID_STATE.kappa_h
    result = gate_metrics(SOLID_STATE, PulseSpec(0.1 * g2k))
    assert result.loss_probability == pytest.approx(0.015920445218, abs=1e-9)
    assert result.fidelity == pytest.approx(0.997552808751, abs=1e-9)


def test_atomic_overlap_amplitudes():
    ov = overlaps(ATOMIC, PulseSpec(0.1))
    assert ov.reflect_prob_h == pytest.approx(0.989419, abs=1e-6)
    assert ov.transmit_prob_h == pytest.approx(0.997519, abs=1e-6)
    # reflection flips the pulse sign; both overlaps stay essentially real
    assert ov.reflect_overlap_h.real == pytest.approx(-0.999999634, abs=1e-9)
    assert abs(ov.reflect_overlap_h.imag) <= 1e-12
    assert ov.transmit_overlap_h.real == pytest.approx(0.998758489, abs=1e-9)
    assert abs(ov.transmit_overlap_h.imag) <= 1e-12


def test_decoupled_transmission_narrowband_series():
    # E[1/(1+w^2)] over the Gaussian: 1 - dw^2/4 + 3 (dw^2/4)^2 + O(dw^6)
    ov = overlaps(CavityParams.symmetric(6.0, 1.0, 1.0), PulseSpec(0.01))
    assert ov.transmit_prob_h == pytest.approx(0.999975001875, abs=1e-11)


def test_fidelity_narrowband_limit():
    """Vanishing bandwidth removes all pulse distortion."""
    for params in (ATOMIC, SOLID_STATE):
        dw = 1e-3 * min(params.kappa_h, params.g_h**2 / params.kappa_h)
        result = gate_metrics(params, PulseSpec(dw))
        assert 1.0 - result.fidelity <= 5e-7


def test_quadrature_residual_converged():
    for params, dw in ((ATOMIC, 0.1), (SOLID_STATE, 0.1 * 0.11**2)):
        result, residual = metrics_residual(params, PulseSpec(dw))
        assert result == gate_metrics(params, PulseSpec(dw))
        assert residual <= 1e-12


def test_zero_coupling_gives_half_loss():
    # without an emitter the "reflecting" branch transmits instead, so half
    # of the amplitude is routed wrong: p -> 1/2 and only the transmitted
    # half contributes to the overlap sum
    result = gate_metrics(CavityParams(0.0, 0.0, 1.0, 1.0, 0.0, 0.0), PulseSpec(1e-4))
    assert result.loss_probability == pytest.approx(0.5, abs=1e-6)
    assert result.fidelity == pytest.approx(0.25, abs=1e-6)


def test_overlap_set_validation():
    good = dict(
        reflect_prob_h=0.9,
        reflect_prob_v=0.9,
        transmit_prob_h=0.99,
        transmit_prob_v=0.99,
        reflect_overlap_h=-0.999 + 0j,
        reflect_overlap_v=-0.999 + 0j,
        transmit_overlap_h=0.998 + 0j,
        transmit_overlap_v=0.998 + 0j,
    )
    OverlapSet(**good)
    with pytest.raises(ValueError):
        OverlapSet(**{**good, "reflect_prob_h": 1.5})
    with pytest.raises(ValueError):
        OverlapSet(**{**good, "transmit_prob_v": -0.1})
    with pytest.raises(ValueError):
        OverlapSet(**{**good, "reflect_overlap_h": 1.2 + 0j})


def test_sweep_rows_sorted_and_complete():
    rows = sweep([6.0, 3.0], [0.1, 0.05])
    keys = [(r.g_over_kappa, r.bandwidth_over_kappa) for r in rows]
    assert keys == [(3.0, 0.05), (3.0, 0.1), (6.0, 0.05), (6.0, 0.1)]
    assert all(r.error == "" for r in rows)
    point = gate_metrics(CavityParams.symmetric(6.0, 1.0, 1.0), PulseSpec(0.1))
    assert rows[3].loss_probability == pytest.approx(point.loss_probability, abs=1e-14)
    assert rows[3].fidelity == pytest.approx(point.fidelity, abs=1e-14)


def test_sweep_marks_failed_points():
    # g = 1e200 overflows g^2 and the averages turn NaN; a negative g and a
    # zero bandwidth are rejected by CavityParams and PulseSpec
    rows = pulses.sweep([1e200, 3.0, -1.0], [0.1, 0.0])
    assert len(rows) == 6
    keys = [(r.g_over_kappa, r.bandwidth_over_kappa) for r in rows]
    assert keys == [(-1.0, 0.0), (-1.0, 0.1), (3.0, 0.0), (3.0, 0.1), (1e200, 0.0), (1e200, 0.1)]
    bad = [r for r in rows if r.error]
    assert len(bad) == 5
    assert all(math.isnan(r.loss_probability) and math.isnan(r.fidelity) for r in bad)
    assert rows[0].error == rows[1].error == "coupling rates must be >= 0"
    assert rows[2].error == rows[4].error == "bandwidth must be positive and finite, got 0.0"
    assert rows[5].error == "reflect_prob_h = nan outside [0, 1]"
    good = [r for r in rows if not r.error]
    assert [(r.g_over_kappa, r.bandwidth_over_kappa) for r in good] == [(3.0, 0.1)]
    assert all(math.isfinite(r.loss_probability) for r in good)


def _scalar_path(params, bandwidth, nodes):
    """(OverlapSet, p, F) the per-point way: every average its own
    gauss_hermite_mean call, the metrics plain Python arithmetic."""
    v = {}
    for pol in ("h", "v"):
        for branch, name in ((AtomBranch.COUPLED, "reflect"), (AtomBranch.DECOUPLED, "transmit")):

            def amplitude(w, pol=pol, branch=branch):
                r, t, _ = response_arrays(params, pol, branch, w)
                return r if branch is AtomBranch.COUPLED else t

            power = gauss_hermite_mean(lambda w: np.abs(amplitude(w)) ** 2, bandwidth, nodes).real
            mean = gauss_hermite_mean(amplitude, bandwidth, nodes)
            v[f"{name}_prob_{pol}"] = power
            v[f"{name}_overlap_{pol}"] = mean / math.sqrt(power) if power > 0.0 else 0.0j
    p = 1.0 - (v["transmit_prob_h"] * v["transmit_prob_v"] + v["reflect_prob_h"] * v["reflect_prob_v"]) / 2.0
    f = abs(v["reflect_overlap_h"] * v["reflect_overlap_v"] + v["transmit_overlap_h"] * v["transmit_overlap_v"]) ** 2 / 4.0
    return OverlapSet(**v), min(max(p, 0.0), 1.0), min(max(f, 0.0), 1.0)


def test_batched_kernel_matches_scalar_path_exactly():
    """Batching must not move a single bit: the sweep and overlaps() against
    the per-point computation, with ==.  An odd node count puts a node at
    omega = 0; g = 0 takes the bare-cavity form inside a batch."""
    couplings = [0.0, 1e-3, 3.0, 20.0]
    bandwidths = [1e-3, 0.1, 10.0]
    for gamma in (0.0, 1.0):
        for nodes in (8, 63, 64, 185):
            quad = QuadratureConfig(nodes=nodes)
            rows = sweep(couplings, bandwidths, gamma, quad)
            assert [(r.g_over_kappa, r.bandwidth_over_kappa) for r in rows] == [
                (g, dw) for g in couplings for dw in bandwidths
            ]
            for row in rows:
                params = CavityParams.symmetric(row.g_over_kappa, 1.0, gamma)
                expected, p, f = _scalar_path(params, row.bandwidth_over_kappa, nodes)
                assert row.error == ""
                assert (row.loss_probability, row.fidelity) == (p, f)
                assert overlaps(params, PulseSpec(row.bandwidth_over_kappa), quad) == expected
    mixed = CavityParams(3.0, 0.0, 1.0, 2.0, 0.0, 1.0)
    expected, p, f = _scalar_path(mixed, 0.1, 63)
    assert overlaps(mixed, PulseSpec(0.1), QuadratureConfig(nodes=63)) == expected
    result = gate_metrics(mixed, PulseSpec(0.1), QuadratureConfig(nodes=63))
    assert (result.loss_probability, result.fidelity) == (p, f)


def test_metrics_rounds_like_the_scalar_expressions():
    """metrics() works on arrays but must round as the Python expression
    does: complex products unfused, |z| by hypot, and ** 2 by libm pow,
    which can differ from h * h in the last bit."""
    rng = np.random.default_rng(5)
    moduli = [h for h in rng.uniform(0.5, 1.0, 20000).tolist() if h**2 != h * h][:20]
    cases = [OverlapSet(0.9, 0.8, 0.95, 0.85, complex(h), 1 + 0j, 0j, 0j) for h in moduli]
    for _ in range(300):
        probs = rng.uniform(0.0, 1.0, 4).tolist()
        parts = rng.uniform(-0.7, 0.7, (4, 2)).tolist()
        cases.append(OverlapSet(*probs, *(complex(re, im) for re, im in parts)))
    for ov in cases:
        p = 1.0 - (ov.transmit_prob_h * ov.transmit_prob_v + ov.reflect_prob_h * ov.reflect_prob_v) / 2.0
        f = abs(ov.reflect_overlap_h * ov.reflect_overlap_v + ov.transmit_overlap_h * ov.transmit_overlap_v) ** 2 / 4.0
        result = pulses.metrics(ov)
        assert (result.loss_probability, result.fidelity) == (min(max(p, 0.0), 1.0), min(max(f, 0.0), 1.0))


def test_degenerate_hermite_rule_is_rejected():
    # numpy's weights are all zero at 371 nodes and NaN from 372: the rule
    # must be refused, never turned into p = 1, F = 0
    for nodes in (371, 372):
        with pytest.raises(ValueError, match="degenerate"):
            gauss_hermite_mean(lambda w: np.ones_like(w), 0.1, nodes)
    (row,) = sweep([3.0], [0.1], quad=QuadratureConfig(nodes=371))
    assert math.isnan(row.loss_probability) and math.isnan(row.fidelity)
    assert "371-node Gauss-Hermite rule is degenerate" in row.error
    with pytest.raises(ValueError, match="400-node"):
        metrics_residual(ATOMIC, PulseSpec(0.1), QuadratureConfig(nodes=200))


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep([], [0.1])
    with pytest.raises(ValueError):
        sweep([3.0], [])

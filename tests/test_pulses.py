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
    EXACT,
    OverlapSet,
    PulseSpec,
    QuadratureConfig,
    QuadratureError,
    adaptive_simpson_mean,
    faddeeva,
    gate_metrics,
    metrics_residual,
    overlaps,
    spectral_density,
    sweep_grid,
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


def test_adaptive_simpson_agrees_with_the_exact_rule_on_the_bare_cavity():
    """Simpson's E t of the bare cavity against the exact rule's."""
    def integrand(w):
        _, t, _ = response_arrays(ATOMIC, "h", AtomBranch.DECOUPLED, w)
        return t

    power, overlap = pulses._port_averages(
        QuadratureConfig(), "t", np.array([0.0]), np.array([ATOMIC.kappa_h]),
        np.array([ATOMIC.gamma_h]), np.array([0.1]),
    )
    exact = overlap[0, 0] * math.sqrt(power[0, 0])
    simpson = adaptive_simpson_mean(integrand, 0.1, 1e-13)
    assert abs(exact - simpson) <= 1e-11


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
        raise QuadratureError(unresolved, f"reference recursion unresolved, worst {unresolved:.3e}")
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


def test_adaptive_simpson_names_the_depth_limit_it_missed():
    """The v row's dip, about 1e-200 wide, is far narrower than the pulse,
    and two intervals reach depth 48 unresolved.  Their residual, the worst
    estimate over 15, is below the 1e-12 tolerance, so the message names
    the limit, their count, the worst local estimate and the local target
    15 tol / 2**48 that it missed."""
    params = CavityParams(5.0, 4.0, 1.0, 1e-200, 0.1, 1e-201)
    with pytest.raises(QuadratureError) as info:
        gate_metrics(params, PulseSpec(0.1), QuadratureConfig(method=ADAPTIVE_SIMPSON))
    assert str(info.value) == (
        "quadrature did not converge: 2 intervals unresolved at the depth limit 48, "
        "worst local estimate 2.835e-15 above its target 15*tol/2**48 = 5.329e-26"
    )
    assert info.value.residual == 1.8897702621787136e-16


def test_adaptive_simpson_rejects_non_finite_integrand():
    # NaN never meets the error test: the rule must stop at once, not bisect
    # toward 2**48 intervals
    spike = lambda w: np.where(np.abs(w - 0.15) < 0.02, np.nan, 1.0) + 0j
    with pytest.raises(QuadratureError, match=r"not finite at omega = 0\.15$") as info:
        adaptive_simpson_mean(spike, 0.1)
    assert info.value.residual == math.inf
    simpson = QuadratureConfig(method=ADAPTIVE_SIMPSON)
    for g in (0.0, 3.0):  # the density's norm overflows: dw^2 is subnormal
        with pytest.raises(QuadratureError, match=r"not finite at omega = -6e-160$"):
            overlaps(CavityParams.symmetric(g, 1.0, 1.0), PulseSpec(1e-160), simpson)


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
    """A sweep cell is its point's own gate_metrics under the exact rule,
    bit for bit, and adaptive Simpson's gate_metrics there, the reference
    sweeps no longer run, agrees to 1e-12: g = 1e200 evaluates under both.
    Bandwidth 1e-160, whose square is subnormal, fails under both: the
    cells keep their place, NaN metrics and the error gate_metrics raises,
    and Simpson's integrand is not finite."""
    simpson = QuadratureConfig(method=ADAPTIVE_SIMPSON)
    couplings, bandwidths = [1e200, 0.0, 3.0], [0.3, 1e-160]
    grid = sweep_grid(couplings, bandwidths, 0.5)
    assert grid.couplings.tolist() == sorted(couplings)
    assert grid.bandwidths.tolist() == sorted(bandwidths)
    failed = {(i, j): error for i, j, error in grid.errors}
    for i, g in enumerate(grid.couplings.tolist()):
        params = CavityParams.symmetric(g, 1.0, 0.5)
        for j, dw in enumerate(grid.bandwidths.tolist()):
            cell = (grid.loss[i, j], grid.fidelity[i, j])
            if dw == 1e-160:
                with pytest.raises(QuadratureError, match="not finite"):
                    gate_metrics(params, PulseSpec(dw), simpson)
            if (i, j) in failed:
                with pytest.raises(ValueError) as info:
                    gate_metrics(params, PulseSpec(dw))
                assert failed[i, j] == str(info.value)
                assert math.isnan(cell[0]) and math.isnan(cell[1])
            else:
                point = gate_metrics(params, PulseSpec(dw))
                assert cell == (point.loss_probability, point.fidelity)
            if dw != 1e-160:
                reference = gate_metrics(params, PulseSpec(dw), simpson)
                assert abs(cell[0] - reference.loss_probability) <= 1e-12
                assert abs(cell[1] - reference.fidelity) <= 1e-12
    assert sorted(failed) == [(1, 0), (2, 0)]


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(method="trapezoid")
    with pytest.raises(TypeError):
        QuadratureConfig(nodes=64)
    with pytest.raises(ValueError):
        QuadratureConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(tolerance=1e-3)
    with pytest.raises(ValueError):
        QuadratureConfig(order=7)
    assert QuadratureConfig().method == EXACT
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
    for name in ("reflect_prob_v", "reflect_overlap_h", "transmit_overlap_v"):
        with pytest.raises(ValueError, match=name):
            OverlapSet(**{**good, name: math.nan})


def test_sweep_rows_sorted_and_complete():
    grid = sweep_grid([6.0, 3.0], [0.1, 0.05])
    assert grid.couplings.tolist() == [3.0, 6.0]
    assert grid.bandwidths.tolist() == [0.05, 0.1]
    assert grid.loss.shape == grid.fidelity.shape == (2, 2)
    assert grid.errors == []
    point = gate_metrics(CavityParams.symmetric(6.0, 1.0, 1.0), PulseSpec(0.1))
    assert grid.loss[1, 1] == pytest.approx(point.loss_probability, abs=1e-14)
    assert grid.fidelity[1, 1] == pytest.approx(point.fidelity, abs=1e-14)


def test_sweep_marks_failed_points():
    # bandwidth 1e-160 overflows the Faddeeva evaluation and the averages
    # turn NaN; a negative g and a zero bandwidth are rejected by
    # CavityParams and PulseSpec; g = 1e200 evaluates
    grid = sweep_grid([1e200, 3.0, -1.0], [0.1, 0.0, 1e-160])
    assert grid.couplings.tolist() == [-1.0, 3.0, 1e200]
    assert grid.bandwidths.tolist() == [0.0, 1e-160, 0.1]
    # one entry per failed point, in row-major order
    assert grid.errors == [
        (0, 0, "coupling rates must be >= 0"),
        (0, 1, "coupling rates must be >= 0"),
        (0, 2, "coupling rates must be >= 0"),
        (1, 0, "bandwidth must be positive and finite, got 0.0"),
        (1, 1, "reflect_prob_h = nan outside [0, 1]"),
        (2, 0, "bandwidth must be positive and finite, got 0.0"),
        (2, 1, "reflect_prob_h = nan outside [0, 1]"),
    ]
    failed = [[True, True, True], [True, True, False], [True, True, False]]
    assert np.isnan(grid.loss).tolist() == np.isnan(grid.fidelity).tolist() == failed
    for i in (1, 2):
        assert math.isfinite(grid.loss[i, 2]) and math.isfinite(grid.fidelity[i, 2])


def test_mixed_point_equals_its_single_polarization_points():
    """overlaps() averages both polarizations of a point in one batch, g = 0
    in one of them; each must equal that polarization evaluated alone, with
    ==."""
    mixed = overlaps(CavityParams(3.0, 0.0, 1.0, 2.0, 0.0, 1.0), PulseSpec(0.1))
    for pol, rates in (("h", (3.0, 1.0, 0.0)), ("v", (0.0, 2.0, 1.0))):
        alone = overlaps(CavityParams.symmetric(*rates), PulseSpec(0.1))
        for name in ("reflect_prob", "transmit_prob", "reflect_overlap", "transmit_overlap"):
            assert getattr(mixed, f"{name}_{pol}") == getattr(alone, f"{name}_h")


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


def test_sweep_rejects_non_finite_values():
    for couplings, bandwidths in (([1.0, math.nan], [0.1]), ([1.0], [0.1, math.inf])):
        with pytest.raises(ValueError, match="sweep grid values must be finite"):
            sweep_grid(couplings, bandwidths)


def test_gate_metrics_bounds():
    assert pulses.GateMetrics(0.0, 1.0) == pulses.GateMetrics(0.0, 1.0)
    for loss, fidelity in ((1.5, 0.5), (0.5, -0.1), (math.nan, 0.5)):
        with pytest.raises(ValueError, match="must lie in"):
            pulses.GateMetrics(loss, fidelity)


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep_grid([], [0.1])
    with pytest.raises(ValueError):
        sweep_grid([3.0], [])


# ---------------------------------------------------------------------------
# the exact rule


def _faddeeva_sample():
    rng = np.random.default_rng(3)
    n = 100_000
    re = np.exp(rng.uniform(math.log(1e-8), math.log(1e8), n)) * rng.choice([-1.0, 1.0], n)
    im = np.exp(rng.uniform(math.log(1e-10), math.log(1e8), n))
    edges = np.array([0.0, 1e-8, 1.0, 5.0, 8.0, 30.0, 1e4, 1e8])
    edge_im = np.array([1e-10, 1e-3, 1.0, 10.0, 1e8])
    return np.concatenate([re + 1j * im, (edges[:, None] + 1j * edge_im).ravel(),
                           (-edges[:, None] + 1j * edge_im).ravel()])


def test_faddeeva_matches_scipy_wofz():
    special = pytest.importorskip("scipy.special")
    z = _faddeeva_sample()
    reference = special.wofz(z)
    relative = np.abs(faddeeva(z) - reference) / np.abs(reference)
    assert float(np.max(relative)) <= 5e-14


def test_faddeeva_pair_matches_scipy_wofz():
    """w(z1), the divided difference at well-separated pairs, and at
    z0 == z1 the derivative w'(z) = -2z w(z) + 2i/sqrt(pi), each to 1e-13
    relative.  The references are kept where wofz gives them without
    cancellation: pairs whose w values differ by at least half the larger,
    and derivatives at least a tenth of the larger term."""
    special = pytest.importorskip("scipy.special")
    z0 = _faddeeva_sample()
    z1 = np.roll(z0, 1)
    w0, w1 = special.wofz(z0), special.wofz(z1)
    value, difference = pulses._faddeeva_pair(z0, z1, 36)
    assert float(np.max(np.abs(value - w1) / np.abs(w1))) <= 1e-13
    apart = np.abs(w0 - w1) >= 0.5 * np.maximum(np.abs(w0), np.abs(w1))
    assert np.count_nonzero(apart) > 50_000
    reference = (w0 - w1)[apart] / (z0 - z1)[apart]
    assert float(np.max(np.abs(difference[apart] - reference) / np.abs(reference))) <= 1e-13

    value, derivative = pulses._faddeeva_pair(z0, z0, 36)
    assert np.array_equal(value, faddeeva(z0))
    term = -2.0 * z0 * w0
    reference = term + 2j / math.sqrt(math.pi)
    clean = np.abs(reference) >= 0.1 * np.maximum(np.abs(term), 2.0 / math.sqrt(math.pi))
    assert np.count_nonzero(clean) > 20_000
    relative = np.abs(derivative - reference)[clean] / np.abs(reference[clean])
    assert float(np.max(relative)) <= 1e-13


def test_weideman_coefficients_match_fft():
    """The direct cosine sum gives Weideman's FFT-built coefficients."""
    for order in (8, 36, 72):
        m = 2 * order
        scale = math.sqrt(order / math.sqrt(2.0))
        t = scale * np.tan(np.arange(-m + 1, m) * math.pi / (2 * m))
        f = np.concatenate([[0.0], np.exp(-t * t) * (scale * scale + t * t)])
        fft = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
        got_scale, got = pulses._weideman(order)
        assert got_scale == scale
        assert np.max(np.abs(got - fft[1 : order + 1])) <= 2e-15


def _coincident_coupling(kappa, gamma):
    """The g at which the two poles of the Coupled branch coincide."""
    return abs(kappa - gamma / 2.0) / 2.0


def _mpmath_means(amplitude, bandwidth):
    """(E|c|^2, E c) of the coefficient c = amplitude(w) by mpmath quadrature
    at the working precision."""
    mpmath = pytest.importorskip("mpmath")
    dw = mpmath.mpf(bandwidth)
    norm = mpmath.sqrt(2 / (mpmath.pi * dw * dw))

    def weighted(f):
        return lambda w: norm * mpmath.exp(-2 * w * w / (dw * dw)) * f(w)

    window = [-12 * dw, 0, 12 * dw]
    power = mpmath.quad(weighted(lambda w: abs(amplitude(w)) ** 2), window)
    return power, mpmath.quad(weighted(amplitude), window)


def _mpmath_t_averages(g, kappa, gamma, bandwidth):
    """(E|t|^2, E t) of the Coupled branch by 30-digit mpmath quadrature."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        g, kappa, gamma = (mpmath.mpf(x) for x in (g, kappa, gamma))

        def t(w):
            d = 1j * w - gamma / 2
            return kappa * d / ((kappa - 1j * w) * d - g * g)

        power, mean = _mpmath_means(t, bandwidth)
        return float(power), complex(mean)


def test_coincident_poles_take_the_exact_rule(monkeypatch):
    """At exactly coincident poles and at relative separations 2e-3, 5e-4
    and 1e-8, on the imaginary axis and off it, the exact rule calls no
    adaptive Simpson and its averages of r and t agree with 30-digit
    mpmath to 1e-13 in E|c|^2 and in E c (r = t - 1 gives r's)."""
    calls = []
    counted = pulses.adaptive_simpson_mean

    def counting(*args, **kwargs):
        calls.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(pulses, "adaptive_simpson_mean", counting)
    b = 1.5
    g = _coincident_coupling(1.0, 1.0)
    assert 4.0 * g * g - (1.0 - 0.5) ** 2 == 0.0
    couplings = [g]
    for delta in (2e-3, 5e-4, 1e-8):
        for sign in (1.0, -1.0):  # poles off the imaginary axis, or on it
            couplings.append(math.sqrt((0.25 + sign * (delta * b) ** 2) / 4.0))
    for g in couplings:
        point = [np.array([value]) for value in (g, 1.0, 1.0, 0.1)]
        power_t, mean_t = _mpmath_t_averages(g, 1.0, 1.0, 0.1)
        references = {
            "t": (power_t, mean_t),
            "r": (1.0 - 2.0 * mean_t.real + power_t, mean_t - 1.0),
        }
        for port, (ref_power, ref_mean) in references.items():
            power, overlap = pulses._port_averages(QuadratureConfig(), port, *point)
            mean = overlap[0, 0] * math.sqrt(power[0, 0])
            assert abs(power[0, 0] - ref_power) <= 1e-13
            assert abs(mean - ref_mean) <= 1e-13
        gate_metrics(CavityParams.symmetric(g, 1.0, 1.0), PulseSpec(0.1))
    assert calls == []


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP D15 step 1: E r and E|r|^2 are c0 = -1 and 1 plus sums that nearly "
    "cancel them, and the order-doubling residual cancels the same way",
)
@pytest.mark.parametrize("g,gamma,bandwidth", [(0.05, 0.2, 0.003), (0.01, 1.0, 0.001)])
def test_small_power_fidelity_matches_mpmath(g, gamma, bandwidth):
    """At kappa = 1 and pulses far narrower than the dip, gate_metrics' F
    agrees with F from 30-digit mpmath averages to 1e-13 relative, or to
    the residual that metrics_residual reports where that is larger.  The
    reference takes E r and E|r|^2 directly, not as 1 - 2 Re E t + E|t|^2,
    whose subtraction is the cancellation, and the Decoupled branch's t at
    g = gamma = 0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        g_, gamma_ = mpmath.mpf(g), mpmath.mpf(gamma)

        def r(w):
            d = 1j * w - gamma_ / 2
            return (1j * w * d + g_ * g_) / ((1 - 1j * w) * d - g_ * g_)

        def t(w):
            return 1 / (1 - 1j * w)

        xi_r, xi_t = (
            mean / mpmath.sqrt(power)
            for power, mean in (_mpmath_means(c, bandwidth) for c in (r, t))
        )
        want = float(abs(xi_r**2 + xi_t**2) ** 2 / 4)
    result, residual = metrics_residual(CavityParams.symmetric(g, 1.0, gamma), PulseSpec(bandwidth))
    assert abs(result.fidelity - want) <= max(1e-13 * want, residual)


def test_exact_sweep_rows_equal_gate_metrics():
    """Batching does not move a bit under the exact rule either: each cell
    is its point's gate_metrics with ==, at g = 0, g whose square
    underflows, gamma = 0, coincident poles and wide pulses, and
    metrics_residual reports the same metrics."""
    couplings = [0.0, 1e-200, 1e-170, 1e-3, _coincident_coupling(1.0, 0.5), 3.0, 20.0]
    bandwidths = [1e-3, 0.1, 10.0]
    for gamma in (0.0, 0.5):
        grid = sweep_grid(couplings, bandwidths, gamma)
        assert grid.errors == []
        for i, g in enumerate(grid.couplings.tolist()):
            for j, dw in enumerate(grid.bandwidths.tolist()):
                point = gate_metrics(CavityParams.symmetric(g, 1.0, gamma), PulseSpec(dw))
                assert (grid.loss[i, j], grid.fidelity[i, j]) == (
                    point.loss_probability, point.fidelity,
                )
    result, residual = metrics_residual(ATOMIC, PulseSpec(0.1))
    assert result == gate_metrics(ATOMIC, PulseSpec(0.1))
    assert residual <= 1e-13


def test_full_kernel_blocks_round_as_single_rows():
    """A grid that fills whole kernel blocks gives each row exactly what its
    coupling gives alone, byte for byte, in the averages and in the
    metrics.  At 128 x 128 = _BLOCK_VALUES complex values a temporary holds
    256 KB, from which size numpy evaluates a product whose right factor is
    a temporary in that buffer with the factors swapped, and the complex
    multiply then rounds the imaginary part differently."""
    couplings = np.geomspace(0.1, 20.0, 128)
    bandwidths = np.geomspace(0.01, 10.0, 128)
    assert couplings.size * bandwidths.size == pulses._BLOCK_VALUES
    grid = sweep_grid(couplings, bandwidths, 0.7)
    rates = (couplings, np.ones(couplings.size), np.full(couplings.size, 0.7))
    block = pulses._port_averages(QuadratureConfig(), "r" * couplings.size, *rates, bandwidths)
    for i, g in enumerate(couplings.tolist()):
        alone = sweep_grid([g], bandwidths, 0.7)
        assert grid.loss[i].tobytes() == alone.loss[0].tobytes()
        assert grid.fidelity[i].tobytes() == alone.fidelity[0].tobytes()
        row = pulses._port_averages(QuadratureConfig(), "r", *(x[i : i + 1] for x in rates),
                                    bandwidths)
        assert [x[i].tobytes() for x in block] == [x[0].tobytes() for x in row]


def test_underflowing_coupling_gives_the_bare_cavity():
    """g^2 underflows below about 1e-162, and at gamma = 0 the dip is then
    narrower than rounding: the averages are the bare cavity's, as at g = 0,
    with no NaN and no warning."""
    bare = overlaps(CavityParams.symmetric(0.0, 1.0, 0.0), PulseSpec(0.1))
    for g in (1e-200, 1e-170):
        assert overlaps(CavityParams.symmetric(g, 1.0, 0.0), PulseSpec(0.1)) == bare


def test_subnormal_coupling_term_gives_the_bare_cavity():
    """kappa gamma/2 + g^2 is subnormal but not zero at gamma = 0 for g
    between about 1e-162 and 1.5e-154, and at g = 0 for gamma below about
    2e-308: the dip is as far below rounding as at zero, and both rules
    average the bare cavity there instead of returning NaN."""
    pulse = PulseSpec(0.1)
    for quad in (QuadratureConfig(), QuadratureConfig(method=ADAPTIVE_SIMPSON)):
        bare = gate_metrics(CavityParams.symmetric(0.0, 1.0, 0.0), pulse, quad)
        assert bare.loss_probability == pytest.approx(5.024753226e-01, abs=1e-10)
        assert bare.fidelity == pytest.approx(0.25, abs=1e-13)
        for params in (CavityParams.symmetric(1e-160, 1.0, 0.0),
                       CavityParams.symmetric(1e-155, 1.0, 0.0),
                       CavityParams.symmetric(0.0, 1.0, 1e-310)):
            assert gate_metrics(params, pulse, quad) == bare
    # sweeps run the exact rule
    bare = gate_metrics(CavityParams.symmetric(0.0, 1.0, 0.0), pulse)
    grid = sweep_grid([1e-160, 1e-158, 1e-155], [0.1], 0.0)
    assert grid.errors == []
    assert grid.loss.ravel().tolist() == [bare.loss_probability] * 3
    assert grid.fidelity.ravel().tolist() == [bare.fidelity] * 3


def test_both_rules_take_bare_rows_in_kappa_units():
    """At kappa = 2**-531 the atomic point's g^2 and kappa gamma/2 are zero
    in the caller's units but not in units of kappa: both rules average the
    coupled cavity there, bit for bit as at kappa = 1, and not the bare one.
    The pulse is 2**20 kappa wide, so that its square stays normal."""
    for quad in (QuadratureConfig(), QuadratureConfig(method=ADAPTIVE_SIMPSON)):
        want = gate_metrics(ATOMIC, PulseSpec(2.0**20), quad)
        tiny = CavityParams.symmetric(*(math.ldexp(x, -531) for x in (ATOMIC.g_h, 1.0, ATOMIC.gamma_h)))
        assert gate_metrics(tiny, PulseSpec(2.0**-511), quad) == want
        bare = gate_metrics(CavityParams.symmetric(0.0, 1.0, 0.0), PulseSpec(2.0**20), quad)
        assert abs(want.loss_probability - bare.loss_probability) > 1e-7


def test_exact_rule_matches_adaptive_simpson_at_the_presets():
    """The exact rule against adaptive Simpson at 1e-13, at both presets."""
    simpson = QuadratureConfig(method=ADAPTIVE_SIMPSON, tolerance=1e-13)
    for params, dw in ((ATOMIC, 0.1), (SOLID_STATE, 0.1 * SOLID_STATE.g_h**2)):
        exact = gate_metrics(params, PulseSpec(dw))
        reference = gate_metrics(params, PulseSpec(dw), simpson)
        assert abs(exact.loss_probability - reference.loss_probability) <= 1e-12
        assert abs(exact.fidelity - reference.fidelity) <= 1e-12


def test_simpson_sweep_reevaluates_only_failing_points(monkeypatch):
    """At bandwidth 1e-160 the batch's averages are NaN: such a point spoils
    only itself, and only it is evaluated again on its own."""
    calls = []
    counted = pulses.gate_metrics

    def counting(params, *args, **kwargs):
        calls.append(params.g_h)
        return counted(params, *args, **kwargs)

    monkeypatch.setattr(pulses, "gate_metrics", counting)
    grid = sweep_grid([2.0, 3.0], [1e-160, 0.1], 0.5)
    assert calls == [2.0, 3.0]
    assert [(i, j) for i, j, _ in grid.errors] == [(0, 0), (1, 0)]
    assert all(error == "reflect_prob_h = nan outside [0, 1]" for *_, error in grid.errors)


def test_simpson_sweep_point_pass_keeps_its_successes():
    """Bandwidth 1e308 puts the Simpson window at infinity: Simpson fails
    there with "omega must be finite", its weight exponent overflowing
    without a RuntimeWarning, and keeps its success at 0.1.  The exact rule,
    which sweeps run, evaluates both cells."""
    simpson = QuadratureConfig(method=ADAPTIVE_SIMPSON)
    params = CavityParams.symmetric(0.3, 1.0, 1.0)
    with pytest.raises(ValueError, match="^omega must be finite$"):
        gate_metrics(params, PulseSpec(1e308), simpson)
    reference = gate_metrics(params, PulseSpec(0.1), simpson)
    grid = sweep_grid([0.3], [0.1, 1e308], 1.0)
    assert grid.errors == []
    for j, dw in enumerate((0.1, 1e308)):
        point = gate_metrics(params, PulseSpec(dw))
        assert (grid.loss[0, j], grid.fidelity[0, j]) == (point.loss_probability, point.fidelity)
    assert abs(grid.loss[0, 0] - reference.loss_probability) <= 1e-12
    assert abs(grid.fidelity[0, 0] - reference.fidelity) <= 1e-12

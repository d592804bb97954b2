"""Property tests of the pulse-average kernels over edge parameters:
gamma = 0, g = 0, g whose square underflows, wide and narrow pulses,
near-coincident poles and rates at any power-of-two scale."""
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cavityswap import cavity, pulses  # noqa: E402
from cavityswap.invariants import _strip_trapezoid  # noqa: E402


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def _generic_point():
    # rates relative to kappa; the narrowest feature, a pole g^2/kappa from
    # the axis at gamma = 0, stays within 1e-4 of the widest pulse, which
    # bounds the reference's grid
    return st.tuples(
        st.one_of(st.just(0.0), _log_uniform(0.1, 20.0)),  # g / kappa
        _log_uniform(0.1, 10.0),  # kappa
        st.one_of(st.just(0.0), _log_uniform(0.05, 4.0)),  # gamma / kappa
        _log_uniform(1e-3, 30.0),  # bandwidth / kappa
    ).map(lambda p: (p[0] * p[1], p[1], p[2] * p[1], p[3] * p[1]))


def _near_coincident_point():
    # relative pole separation delta, on either side of the coincidence
    # 4 g^2 = (kappa - gamma/2)^2: poles mirrored about the imaginary axis,
    # or both on it
    def build(args):
        kappa, gamma_ratio, delta, side, bandwidth = args
        gamma = gamma_ratio * kappa
        b = kappa + gamma / 2.0
        g = math.sqrt(((kappa - gamma / 2.0) ** 2 + side * (delta * b) ** 2) / 4.0)
        return g, kappa, gamma, bandwidth * kappa

    return st.tuples(
        _log_uniform(0.1, 10.0),
        st.floats(0.05, 1.9),
        _log_uniform(1e-8, 1e-2),
        st.sampled_from([1.0, -1.0]),
        _log_uniform(1e-2, 3.0),
    ).map(build)


@settings(max_examples=60)
@given(point=st.one_of(_generic_point(), _near_coincident_point()))
def test_exact_averages_match_strip_trapezoid(point):
    """The exact rule's averages of r and t, near-coincident points
    included, agree with the trapezoid reference to 1e-14 in E|c|^2 and in
    E c."""
    g, kappa, gamma, bandwidth = point
    for port in ("r", "t"):
        power, overlap = pulses._port_averages(
            pulses.DEFAULT_QUAD, port, *np.array([point[:3]]).T, np.array([bandwidth])
        )
        mean = complex(overlap[0, 0]) * math.sqrt(power[0, 0])
        ref_power, ref_mean = _strip_trapezoid(port, g, kappa, gamma, bandwidth)
        assert abs(power[0, 0] - ref_power) <= 1e-14
        assert abs(mean - ref_mean) <= 1e-14


def _sweep_axes():
    """(couplings, bandwidths, gamma): short axes in any order, values
    repeated, drawing g = 0, g = 1e-200 (g^2 underflows), the coupling at
    which the poles coincide and pulses up to 10 kappa wide."""

    def build(args):
        gamma, picks, pool, bandwidths = args
        coincident = abs(1.0 - gamma / 2.0) / 2.0
        values = [0.0, 1e-200, coincident, *pool]
        return [values[i % len(values)] for i in picks], bandwidths, gamma

    return st.tuples(
        st.one_of(st.just(0.0), _log_uniform(0.05, 2.0)),  # gamma / kappa
        st.lists(st.integers(0, 7), min_size=1, max_size=6),
        st.lists(_log_uniform(0.01, 20.0), min_size=1, max_size=5),
        st.lists(
            st.one_of(_log_uniform(1e-3, 10.0), st.just(10.0)), min_size=1, max_size=4
        ).flatmap(lambda dw: st.permutations(dw + dw[:1])),
    ).map(build)


@settings(max_examples=25, deadline=None)
@given(axes=_sweep_axes())
def test_sweep_rows_equal_their_gate_metrics(axes):
    """The grid kernel changes no bit: every sweep cell, over axes in any
    order and with repeats, is its own point's gate_metrics with ==, on the
    sorted axes."""
    couplings, bandwidths, gamma = axes
    grid = pulses.sweep_grid(couplings, bandwidths, gamma)
    assert grid.couplings.tolist() == sorted(couplings)
    assert grid.bandwidths.tolist() == sorted(bandwidths)
    assert grid.errors == []
    for i, g in enumerate(grid.couplings.tolist()):
        params = cavity.CavityParams.symmetric(g, 1.0, gamma)
        for j, dw in enumerate(grid.bandwidths.tolist()):
            point = pulses.gate_metrics(params, pulses.PulseSpec(dw))
            assert (grid.loss[i, j], grid.fidelity[i, j]) == (point.loss_probability, point.fidelity)


def _extreme_rate():
    return st.one_of(st.just(0.0), _log_uniform(1e-300, 1e300))


@settings(max_examples=60, deadline=None)
@given(
    couplings=st.lists(_extreme_rate(), min_size=1, max_size=4),
    bandwidths=st.lists(_log_uniform(1e-300, 1e300), min_size=1, max_size=4),
    gamma=_extreme_rate(),
)
def test_sweep_batch_raises_and_warns_nowhere(couplings, bandwidths, gamma):
    """sweep_grid runs its batch with no guard around it: over g and gamma
    in {0} and [1e-300, 1e300] (units of kappa) and bandwidths in [1e-300,
    1e300] it neither raises nor warns, and every cell is its point's
    gate_metrics with ==, or NaN with exactly the error gate_metrics raises
    there."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = pulses.sweep_grid(couplings, bandwidths, gamma)
    failed = {(i, j): error for i, j, error in grid.errors}
    for i, g in enumerate(grid.couplings.tolist()):
        params = cavity.CavityParams.symmetric(g, 1.0, gamma)
        for j, dw in enumerate(grid.bandwidths.tolist()):
            cell = (grid.loss[i, j], grid.fidelity[i, j])
            if (i, j) in failed:
                with pytest.raises((ValueError, ArithmeticError)) as info:
                    pulses.gate_metrics(params, pulses.PulseSpec(dw))
                assert str(info.value) == failed[i, j]
                assert math.isnan(cell[0]) and math.isnan(cell[1])
            else:
                point = pulses.gate_metrics(params, pulses.PulseSpec(dw))
                assert cell == (point.loss_probability, point.fidelity)


_ATOMIC_POINT = (32.0 / 4.2, 1.0, 2.6 / 4.2, 0.1)


@given(h=_generic_point(), v=_generic_point(), k=st.integers(-1000, 1000))
@example(h=_ATOMIC_POINT, v=_ATOMIC_POINT, k=520)
@example(h=_ATOMIC_POINT, v=_ATOMIC_POINT, k=-550)
def test_gate_metrics_are_homogeneous_bit_for_bit(h, v, k):
    """The metrics are homogeneous of degree 0 in the rates and the
    bandwidth, and the exact rule evaluates each rate row in units of its
    kappa: scaling a point by 2**k, with every input still normal, changes
    no bit."""

    def at_scale(k):
        rates = (h[0], v[0], h[1], v[1], h[2], v[2])
        params = cavity.CavityParams(*(math.ldexp(x, k) for x in rates))
        return pulses.gate_metrics(params, pulses.PulseSpec(math.ldexp(h[3], k)))

    assert at_scale(k) == at_scale(0)

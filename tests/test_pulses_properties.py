"""Property tests of the Gauss-Hermite pulse-average kernel over edge
parameters: gamma = 0, g = 0, wide and narrow pulses, odd and even rules."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from cavityswap import cavity, pulses  # noqa: E402


def _full_node_averages(nodes, port, g, kappa, gamma, bandwidth):
    """(power, overlap) with the coefficient evaluated at every node of
    numpy's rule, none of them mirrored."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    with np.errstate(all="ignore"):
        omega = bandwidth[:, None] * x / math.sqrt(2.0)
        (amp,) = cavity.coefficients(g[:, None], kappa[:, None], gamma[:, None], omega, port)
        power = np.sum(w * np.abs(amp) ** 2, axis=-1) / math.sqrt(math.pi)
        mean = np.sum(w * amp, axis=-1) / math.sqrt(math.pi)
        positive = power > 0.0
        root = np.sqrt(np.where(positive, power, 1.0))
        overlap = np.empty(len(power), dtype=complex)
        overlap.real = np.where(positive, mean.real / root, 0.0)
        overlap.imag = np.where(positive, mean.imag / root, 0.0)
    return power, overlap


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


_points = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), _log_uniform(1e-3, 1e3)),  # g
        _log_uniform(1e-3, 1e3),  # kappa
        st.one_of(st.just(0.0), _log_uniform(1e-3, 1e3)),  # gamma
        _log_uniform(1e-6, 1e3),  # bandwidth
    ),
    min_size=1,
    max_size=6,
)


@given(points=_points, nodes=st.integers(8, 370))
def test_half_node_kernel_equals_full_node_evaluation(points, nodes):
    """Evaluating the coefficients at the nodes omega >= 0 and mirroring them
    by conjugation must not move a bit of either port's averages."""
    g, kappa, gamma, bandwidth = np.array(points, dtype=float).T
    quad = pulses.QuadratureConfig(nodes=nodes)
    for port in ("r", "t"):
        power, overlap = pulses._port_averages(quad, port, g, kappa, gamma, bandwidth)
        full_power, full_overlap = _full_node_averages(nodes, port, g, kappa, gamma, bandwidth)
        assert np.array_equal(power, full_power)
        assert np.array_equal(overlap, full_overlap)

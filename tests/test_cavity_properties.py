"""Property tests of the spectral response over valid rates: flux
conservation, conjugate symmetry and homogeneity, with g = 0, gamma = 0 and
detunings far off resonance included."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from cavityswap.cavity import AtomBranch, CavityParams, coefficients, response_arrays  # noqa: E402


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


_couplings = st.one_of(st.just(0.0), _log_uniform(1e-3, 1e3))  # g and gamma
_params = st.builds(
    CavityParams,
    g_h=_couplings,
    g_v=_couplings,
    kappa_h=_log_uniform(1e-3, 1e3),
    kappa_v=_log_uniform(1e-3, 1e3),
    gamma_h=_couplings,
    gamma_v=_couplings,
)
# detunings in units of the polarization's kappa
_detunings = st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8)


@given(params=_params, detunings=_detunings)
def test_flux_conservation_and_conjugate_symmetry(params, detunings):
    for pol in ("h", "v"):
        omega = np.array(detunings) * params.rates(pol)[1]
        for branch in AtomBranch:
            rp, tp, mp = response_arrays(params, pol, branch, omega)
            residual = np.abs(rp) ** 2 + np.abs(tp) ** 2 + np.abs(mp) ** 2 - 1.0
            assert np.max(np.abs(residual)) <= 1e-12
            # r and t are conjugate-even in the detuning, m is conjugate-odd
            rm, tm, mm = response_arrays(params, pol, branch, -omega)
            assert np.max(np.abs(rm - rp.conj())) <= 1e-12
            assert np.max(np.abs(tm - tp.conj())) <= 1e-12
            assert np.max(np.abs(mm + mp.conj())) <= 1e-12


# normal detunings in units of kappa, and zero
_normal_detunings = st.lists(
    st.one_of(
        st.just(0.0),
        st.tuples(st.sampled_from([-1.0, 1.0]), _log_uniform(1e-3, 1e4)).map(lambda p: p[0] * p[1]),
    ),
    min_size=1, max_size=8,
)


@given(
    rates=st.tuples(_couplings, _log_uniform(1e-3, 1e3), _couplings),
    detunings=_normal_detunings,
    k=st.integers(-900, 900),
)
@example(rates=(1.0, 1.0, 1.0), detunings=[0.0, 1.0], k=900)
@example(rates=(1e-3, 1.0, 0.0), detunings=[0.0, -1e-3], k=-900)
def test_coefficients_are_homogeneous_bit_for_bit(rates, detunings, k):
    """coefficients(2**k x) == coefficients(x) bit for bit, while the scaled
    rates and detunings stay normal: every point is evaluated at one
    power-of-two scale, whatever its own."""
    g, kappa, gamma = rates
    omega = np.array(detunings) * kappa
    want = coefficients(g, kappa, gamma, omega)
    got = coefficients(*(math.ldexp(x, k) for x in rates), np.ldexp(omega, k))
    for a, b in zip(want, got):
        assert a.tobytes() == b.tobytes()

"""Single-photon spectral response of the two-sided cavity."""
import math

import numpy as np
import pytest

from cavityswap import cavity
from cavityswap.cavity import AtomBranch, CavityParams, response, response_arrays
from cavityswap.invariants import _random_rates

ATOMIC = CavityParams.symmetric(32.0 / 4.2, 1.0, 2.6 / 4.2)


def test_atomic_resonance_point():
    # frozen from a 50-digit evaluation of the same rational functions
    resp = response(ATOMIC, "h", AtomBranch.COUPLED, 0.0)
    assert resp.r == pytest.approx(-0.9946962485186408, abs=1e-12)
    assert resp.t == pytest.approx(0.00530375148135916, abs=1e-12)
    assert abs(resp.m) == pytest.approx(0.10271924553444832, abs=1e-12)
    assert resp.flux_residual() <= 1e-14


def test_linear_system_oracle():
    """Coefficients must agree with a direct solve of the steady-state
    equations for the intracavity field and the emitter coherence."""
    rng = np.random.default_rng(1)
    for _ in range(25):
        params = _random_rates(rng)
        g, kappa, gamma = params.rates("h")
        omega = float(rng.uniform(-4.0, 4.0))
        M = np.array(
            [[kappa - 1j * omega, 1j * g], [1j * g, gamma / 2.0 - 1j * omega]],
            dtype=complex,
        )
        a, sigma = np.linalg.solve(M, np.array([np.sqrt(kappa), 0.0], dtype=complex))
        resp = response(params, "h", AtomBranch.COUPLED, omega)
        assert resp.t == pytest.approx(np.sqrt(kappa) * a, abs=1e-12)
        assert resp.r == pytest.approx(np.sqrt(kappa) * a - 1.0, abs=1e-12)
        assert resp.m == pytest.approx(np.sqrt(gamma) * sigma, abs=1e-12)


def test_transmission_minus_reflection_is_one():
    # T(w) - R(w) = 1 exactly, in both branches: the prompt reflection term
    # and the leaked field share the same cavity amplitude
    rng = np.random.default_rng(2)
    omega = np.linspace(-5.0, 5.0, 301)
    for _ in range(10):
        params = _random_rates(rng)
        for pol in ("h", "v"):
            for branch in AtomBranch:
                r, t, _ = response_arrays(params, pol, branch, omega)
                assert np.max(np.abs(t - r - 1.0)) <= 1e-12


def test_decoupled_branch_is_bare_cavity():
    params = _random_rates(np.random.default_rng(3))
    omega = np.linspace(-3.0, 3.0, 101)
    r, t, m = response_arrays(params, "v", AtomBranch.DECOUPLED, omega)
    kappa = params.kappa_v
    assert np.allclose(r, 1j * omega / (kappa - 1j * omega), atol=1e-14)
    assert np.allclose(t, kappa / (kappa - 1j * omega), atol=1e-14)
    assert np.all(m == 0)


def test_zero_coupling_equals_decoupled():
    # with g = 0 the emitter drops out of the coupled branch entirely
    params = CavityParams(0.0, 0.0, 1.0, 1.0, 0.7, 0.7)
    omega = np.linspace(-2.0, 2.0, 81)
    rc, tc, mc = response_arrays(params, "h", AtomBranch.COUPLED, omega)
    rd, td, md = response_arrays(params, "h", AtomBranch.DECOUPLED, omega)
    assert np.allclose(rc, rd, atol=1e-14)
    assert np.allclose(tc, td, atol=1e-14)
    assert np.all(mc == 0) and np.all(md == 0)


def test_lossless_resonance_sign_flip():
    # gamma = 0 at line center: full reflection with a pi phase, no leakage,
    # and no 0/0 trouble even though the emitter denominator vanishes, nor
    # where g^2 underflows to zero
    for g in (0.05, 1.0, 7.0, 1e-170, 1e-200):
        params = CavityParams.symmetric(g, 1.0, 0.0)
        resp = response(params, "h", AtomBranch.COUPLED, 0.0)
        assert resp.r == pytest.approx(-1.0, abs=1e-14)
        assert resp.t == pytest.approx(0.0, abs=1e-14)
        assert resp.m == 0


def test_resonance_with_subnormal_denominator():
    """Where g^2 and kappa gamma/2 are subnormal or round to zero, omega = 0
    is 0/0 or a complex division that overflows.  The coefficients there
    must be the limit in rho = kappa gamma / (2 g^2), -1/(1 + rho),
    rho/(1 + rho) and -i sqrt(2 rho)/(1 + rho), with no warning; at
    rho = inf the limit is the bare cavity's (0, 1, 0)."""
    cases = [
        # g, kappa, gamma, rho to 16 digits (50-digit reference)
        (1e-200, 1.0, 5e-324, 2.4703282292062328e76),
        (1e-170, 3.0, 1e-323, 1.4821969375237397e17),  # denominator subnormal, not 0
        (1e-155, 1e-10, 1e-300, 0.5),
        (1e-158, 1.0, 0.0, 0.0),
        (5e-324, 0.5, 5e-324, float("inf")),  # rho overflows
    ]
    for g, kappa, gamma, rho in cases:
        r, t, m = cavity.coefficients(g, kappa, gamma, np.array([0.0]))
        if rho == float("inf"):
            want = (0.0, 1.0, 0.0)
        else:
            want = (-1.0 / (1.0 + rho), rho / (1.0 + rho), -np.sqrt(2.0 * rho) / (1.0 + rho))
        assert r[0] == pytest.approx(want[0], rel=1e-13, abs=1e-300)
        assert t[0] == pytest.approx(want[1], rel=1e-13, abs=1e-300)
        assert m[0].real == 0.0
        assert m[0].imag == pytest.approx(want[2], rel=1e-13, abs=1e-160)
        assert abs(abs(r[0]) ** 2 + abs(t[0]) ** 2 + abs(m[0]) ** 2 - 1.0) <= 1e-15


def test_subnormal_denominator_off_resonance():
    """Away from omega = 0 a subnormal denominator, where g^2 or kappa is
    below the normal range, is a complex division that overflows.  The
    coefficients there must match a 50-digit evaluation of the same forms
    and conserve flux, with no warning (this suite turns RuntimeWarnings
    into errors)."""
    mpmath = pytest.importorskip("mpmath")
    cases = [
        # g, kappa, gamma, omega
        (1e-158, 1.0, 0.0, 1e-320),
        (1e-200, 1.0, 5e-324, 1e-320),
        (1e-200, 1.0, 5e-324, -1e-320),
        (1e-170, 0.25, 0.0, 5e-324),  # kappa omega and g^2 both round to zero
        (3e-160, 2.0, 1e-310, 4e-318),
        (1e-155, 1e-10, 1e-300, -3e-310),
        (1.0, 5e-324, 0.0, 1.0),  # kappa below the normal range, omega = g
    ]
    for g, kappa, gamma, omega in cases:
        got = cavity.coefficients(g, kappa, gamma, np.array([omega]))
        with mpmath.workdps(50):
            g_, kappa_, gamma_, omega_ = map(mpmath.mpf, (g, kappa, gamma, omega))
            i_omega = mpmath.mpc(0, omega_)
            d = i_omega - gamma_ / 2
            denom = (kappa_ - i_omega) * d - g_**2
            want = [(i_omega * d + g_**2) / denom, kappa_ * d / denom,
                    mpmath.mpc(0, 1) * mpmath.sqrt(kappa_ * gamma_) * g_ / denom]
        for value, reference in zip(got, want):
            assert abs(mpmath.mpc(value[0]) - reference) <= 1e-14 * abs(reference)
        r, t, m = (value[0] for value in got)
        assert abs(abs(r) ** 2 + abs(t) ** 2 + abs(m) ** 2 - 1.0) <= 1e-15


def test_bare_cavity_with_a_subnormal_denominator():
    """kappa - i omega can be subnormal in the bare form too, and dividing by
    it overflows.  Those points are evaluated at rates scaled by a power of
    two: finite, flux-conserving and equal to the point scaled by 2**600,
    with no warning.  A point with a normal denominator keeps the bytes of
    the direct division."""
    rates = (0.0, 3.7e-309, 2.1e-169, 9.0e-316)
    got = cavity.coefficients(*rates)
    assert all(np.isfinite(value) for value in got)
    r, t, m = map(complex, got)
    assert abs(abs(r) ** 2 + abs(t) ** 2 + abs(m) ** 2 - 1.0) <= 1e-12
    scaled = cavity.coefficients(*(math.ldexp(rate, 600) for rate in rates))
    for value, reference in zip(got, scaled):
        assert complex(value) == pytest.approx(complex(reference), abs=1e-15)
    kappa, omega = np.array([3.7e-309, 0.7]), np.array([9.0e-316, 0.3])
    r, t, _ = cavity.coefficients(0.0, kappa, 0.0, omega)
    denom = kappa[1:] - 1j * omega[1:]
    assert (r[1], t[1]) == ((1j * omega[1:] / denom)[0], (kappa[1:] / denom)[0])


def test_zero_denominator_outside_the_parameter_domain():
    """kappa = gamma = 0 with omega = g makes the denominator exactly zero at
    every scale.  The scaled evaluation runs once, so the result is
    non-finite, not a RecursionError."""
    with np.errstate(all="ignore"):
        r, t, m = cavity.coefficients(1.0, 0.0, 0.0, np.array([1.0]))
    assert not np.isfinite(r[0])


def test_omega_and_gamma_flushed_by_the_scale_are_not_the_resonance_limit():
    """At (g, kappa, gamma, omega) = (1.14e-192, 3.38e268, 2.36e-241,
    9.94e-260) the values span more than the scaled evaluation holds: its
    scale flushes omega and gamma to zero and g^2 below the smallest
    subnormal.  The 50-digit values are r = -3.3e-412, t = 1 and m =
    -2.6e-206 i, not the limit (-1, 0, 0) of an exactly zero omega and
    gamma, so the point is non-finite rather than that limit.  With omega
    and gamma exactly zero it is the limit."""
    with np.errstate(all="ignore"):
        got = cavity.coefficients(1.14e-192, 3.38e268, 2.36e-241, np.array([9.94e-260]))
    assert all(np.isnan(value[0]) for value in got)
    r, t, m = cavity.coefficients(1.14e-192, 3.38e268, 0.0, np.array([0.0]))
    assert (r[0], t[0], m[0]) == (-1.0, 0.0, 0.0)


def test_far_detuned_asymptotics():
    params = ATOMIC
    for omega in (-1e3, 1e3):
        resp = response(params, "h", AtomBranch.COUPLED, omega)
        assert abs(resp.r) == pytest.approx(1.0, abs=1e-3)
        assert abs(resp.t) <= 2e-3
        assert abs(resp.m) <= 1e-3


def test_polarization_selects_rates():
    params = CavityParams(g_h=6.0, g_v=2.0, kappa_h=1.0, kappa_v=1.5, gamma_h=0.3, gamma_v=0.9)
    mirrored = CavityParams.symmetric(2.0, 1.5, 0.9)
    got = response(params, "v", AtomBranch.COUPLED, 0.37)
    want = response(mirrored, "h", AtomBranch.COUPLED, 0.37)
    assert got.r == pytest.approx(want.r, abs=1e-14)
    assert got.t == pytest.approx(want.t, abs=1e-14)
    assert got.m == pytest.approx(want.m, abs=1e-14)


def test_scalar_matches_arrays():
    omega = np.array([-0.7, 0.0, 0.3])
    r, t, m = response_arrays(ATOMIC, "h", AtomBranch.COUPLED, omega)
    for i, w in enumerate(omega):
        resp = response(ATOMIC, "h", AtomBranch.COUPLED, float(w))
        assert resp.r == r[i] and resp.t == t[i] and resp.m == m[i]


def test_mixed_bare_and_dressed_rates_match_scalar_calls():
    """A rate array mixing g = 0 and g > 0 splits into the bare and dressed
    forms; every element is its own scalar call, bit for bit."""
    g = np.array([0.0, 0.5, 0.0, 7.6, 1e-200, 0.0])
    kappa = np.array([1.0, 2.0, 0.3, 1.0, 1.0, 1e-300])
    gamma = np.array([0.0, 0.6, 1.0, 0.62, 0.0, 0.0])
    omega = np.array([0.2, -0.1, 0.0, 0.0, 1e-3, 1e-310])
    arrays = cavity.coefficients(g, kappa, gamma, omega)
    for i in range(len(g)):
        scalars = cavity.coefficients(g[i], kappa[i], gamma[i], omega[i])
        for array, scalar in zip(arrays, scalars):
            assert array[i].tobytes() == scalar.tobytes()


def test_bare_cavity_scale_ignores_gamma():
    """The bare form does not read gamma, so a g = 0 point takes its scale
    from kappa and omega alone: a huge gamma there changes no bit."""
    omega = np.array([-1e-3, 0.0, 0.5, 1e3])
    want = cavity.coefficients(0.0, 1e-300, 0.0, omega * 1e-300)
    got = cavity.coefficients(0.0, 1e-300, 1e300, omega * 1e-300)
    for a, b in zip(want, got):
        assert a.tobytes() == b.tobytes()
    assert all(np.all(np.isfinite(c)) for c in got)


def test_coefficients_reject_non_finite_detunings():
    for omega in ([0.0, np.inf], [np.nan], -np.inf):
        with pytest.raises(ValueError, match="omega must be finite"):
            cavity.coefficients(1.0, 1.0, 0.5, omega)


def test_parameter_validation():
    with pytest.raises(ValueError):
        CavityParams.symmetric(-1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        CavityParams.symmetric(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        CavityParams.symmetric(1.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        CavityParams.symmetric(np.nan, 1.0, 0.1)
    with pytest.raises(ValueError):
        response(ATOMIC, "x", AtomBranch.COUPLED, 0.0)
    with pytest.raises(ValueError):
        response(ATOMIC, "h", AtomBranch.COUPLED, np.inf)

"""Pulse-averaged gate quantities for finite-bandwidth Gaussian photons.

A photon pulse of bandwidth delta_omega samples the cavity response over a
range of detunings, so the gate acts slightly differently on each spectral
component.  Averaging the response against the pulse's spectral density gives
per-branch survival probabilities and mode-overlap amplitudes, which combine
into the two figures of merit: the loss probability and the fidelity of the
entangled output.

Averaging rules.  The default, ``exact``, needs no quadrature: r = t - 1
and t = kappa u(omega) / ((omega - w_0)(omega - w_1)), u(w) = i w - gamma/2,
with both poles in the lower half-plane, so E t is kappa times the divided
difference over the poles of u(w) e(w), e(w) = E[1/(omega - w)] =
conj(i sqrt(pi) w(conj(w)/s) / s), s = dw/sqrt(2), w the Faddeeva function:
one formula at every pole separation.  w and its divided difference come
from one Horner loop over Weideman's rational approximation (SIAM J. Numer.
Anal. 31:1497, 1994), about 2e-14 relative error at its default 36 terms.
It is the rule that sweep_grid and metrics_residual run.  Adaptive
Simpson over a finite window stays as a structurally independent reference,
reached through a QuadratureConfig passed to overlaps or gate_metrics.  Both
rules run through one batched path over a grid of rate rows (g, kappa,
gamma) x bandwidths: the exact rule does its pole algebra once per rate row
and evaluates w per (row, bandwidth) in blocks of rows, and adaptive Simpson
evaluates each point's bisection tree one level at a time, with the same
result as the depth-first recursion.  Under either rule the Decoupled
branch, which sees the bare cavity, adds one rate row per distinct kappa.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import cavity
from .cavity import CavityParams

EXACT = "exact"
ADAPTIVE_SIMPSON = "adaptive-simpson"
METHODS = (EXACT, ADAPTIVE_SIMPSON)


class QuadratureError(ArithmeticError):
    """Adaptive integration failed to reach its error target.

    Carries the worst unresolved local error estimate in ``residual``.
    """

    def __init__(self, residual: float, message: str = ""):
        super().__init__(
            message or f"quadrature did not converge; residual estimate {residual:.3e}"
        )
        self.residual = residual


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian pulse, characterized solely by its bandwidth.

    ``bandwidth`` is delta_omega in the same angular-frequency unit as the
    cavity rates.  The spectral density is the L2-normalized Gaussian
    |f(w)|^2 = sqrt(2/(pi dw^2)) exp(-2 w^2/dw^2), which integrates to one.
    """

    bandwidth: float

    def __post_init__(self):
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Averaging rule selection.  ``tolerance``, the absolute error target,
    applies to adaptive Simpson only; ``order``, the number of terms of the
    Faddeeva approximation, to the exact rule only."""

    method: str = EXACT
    tolerance: float = 1e-12
    order: int = 36

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if not (0.0 < self.tolerance <= 1e-4):
            raise ValueError("tolerance must lie in (0, 1e-4]")
        if self.order < 8:
            raise ValueError("the Faddeeva approximation needs at least 8 terms")


DEFAULT_QUAD = QuadratureConfig()


def spectral_density(omega, bandwidth: float):
    """|f(omega)|^2 of the unit-power Gaussian pulse."""
    omega = np.asarray(omega, dtype=float)
    norm = math.sqrt(2.0 / (math.pi * bandwidth * bandwidth))
    return norm * np.exp(-2.0 * omega * omega / (bandwidth * bandwidth))


@lru_cache(maxsize=4)
def _weideman(order: int):
    """(L, a_1 ... a_N) of Weideman's N-term rational approximation of w.

    a_n is the n-th cosine coefficient of f(t) = exp(-t^2) (L^2 + t^2) at
    t = L tan(theta / 2), sampled at theta = k pi / M, M = 2N: a direct
    cosine sum, since numpy.fft costs milliseconds at first use.  The
    samples and cosines come from math and each sum from math.fsum, so the
    coefficients do not depend on numpy's SIMD paths or the BLAS.
    """
    m = 2 * order
    scale = math.sqrt(order / math.sqrt(2.0))
    # f is even in k, f_0 = L^2 and f_M = 0 (t is infinite there)
    t = np.array([scale * math.tan(k * math.pi / (2 * m)) for k in range(1, m)])
    f = np.array([math.exp(-x * x) for x in t.tolist()]) * (scale * scale + t * t)
    cosines = np.array([math.cos(j * math.pi / m) for j in range(2 * m)])
    terms = f * cosines[np.outer(np.arange(1, order + 1), np.arange(1, m)) % (2 * m)]
    sums = np.array([math.fsum(row) for row in terms.tolist()])
    return scale, (scale * scale + 2.0 * sums) / (2 * m)


def faddeeva(z, order: int = 36) -> np.ndarray:
    """The Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0.

    Weideman's rational approximation: with Z = (L + iz)/(L - iz),
    w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)), p the polynomial
    of the ``order`` coefficients.  At 36 terms it agrees with scipy's wofz
    to 5e-14 relative from |z| = 1e-8 to 1e8, down to the real axis.
    """
    z = np.asarray(z, dtype=complex)
    return _faddeeva_pair(z, z, order)[0]


def _faddeeva_pair(z0, z1, order: int):
    """(w(z1), (w(z0) - w(z1)) / (z0 - z1)), the second w'(z1) where z0 ==
    z1, without cancellation: dp <- dp Z1 + p(Z0), beside p's Horner loop,
    gives p's divided difference, p(Z1) = p(Z0) - (Z0 - Z1) dp, and with
    q = 1/(L - iz), q0 - q1 = i (z0 - z1) q0 q1 = (Z0 - Z1) / 2L."""
    scale, coefficients = _weideman(order)
    den0 = scale - 1j * z0
    den1 = scale - 1j * z1
    mapped0 = (scale + 1j * z0) / den0
    mapped1 = (scale + 1j * z1) / den1
    p = np.full(z0.shape, coefficients[-1], dtype=complex)
    dp = np.zeros(z0.shape, dtype=complex)
    for coefficient in coefficients[-2::-1].tolist():
        dp *= mapped1
        dp += p
        p *= mapped0
        p += coefficient
    # as in _exact_means, every complex product has a named right factor
    both = den0 * den1
    square = den1 * den1
    step = (z0 - z1) / both
    q_sum = (den0 + den1) / both
    p1 = p - dp * step * (2j * scale)
    value = 2.0 * p1 / square + (1.0 / math.sqrt(math.pi)) / den1
    inner = 2.0 * p * q_sum + (4.0 * scale) * dp / square
    return value, 1j * (inner + 1.0 / math.sqrt(math.pi)) / both


def _simpson(fa, fm, fb, h):
    # numpy casts the real factors to complex and forms the full product, as
    # Python does for a float times a complex, so this rounds as the scalar
    # (h / 6.0) * (fa + 4.0 * fm + fb) would
    return (fa + fm * 4.0 + fb) * (h / 6.0)


# The most intervals one Simpson tree may hold.  A level of n intervals has
# about n above it, so the widest level holds at most 2**19; a call that
# reaches the cap peaks near 240 MB.  The trees of the presets' integrands
# hold under 10**4 intervals at tolerance 1e-14; at 1e-16 some end unresolved
# at depth 48 and |r|^2 passes 3.7 * 10**6 intervals.
_MAX_INTERVALS = 2**20

# Adaptive Simpson integrates over [-_WINDOW * dw, _WINDOW * dw]: the density
# mass outside six bandwidths is below 1e-31, negligible against every
# tolerance used here.
_WINDOW = 6.0


def adaptive_simpson_mean(
    func: Callable[[np.ndarray], np.ndarray],
    bandwidth: float,
    tol: float = 1e-12,
) -> complex:
    """Same mean via adaptive Simpson on [-_WINDOW*dw, _WINDOW*dw].

    An interval is accepted once its Simpson estimate and its two halves'
    differ by at most 15·tol, tol halving with each bisection, or at depth
    48; the others are split.

    The tree is evaluated one bisection level at a time, one ``func`` call
    for the midpoints of both halves of every open interval, and the
    accepted values are summed back up the same tree, left half plus right
    half: the mean is bit for bit that of the depth-first recursion.  Working
    memory grows with the widest level rather than with the depth, and the
    values kept for the final sum grow with the number of intervals.

    Raises QuadratureError if an interval reaches depth 48 unresolved, its
    estimate above 15·tol/2**48 (``residual`` is the worst over 15), if the
    tree would exceed _MAX_INTERVALS intervals (a tolerance below what
    rounding can reach splits every interval on every level), or at once if
    the weighted integrand is not finite at a node, which no bisection could
    resolve.
    """
    norm = math.sqrt(2.0 / (math.pi * bandwidth * bandwidth))

    def weighted(w):
        # numpy does not warn about over- or underflow here; the check below
        # rejects whatever non-finite values they leave
        with np.errstate(all="ignore"):
            # math.exp per node: np.exp can differ from it in the last bit
            arg = -2.0 * w * w / (bandwidth * bandwidth)
            weight = norm * np.array([math.exp(x) for x in arg.tolist()])
            out = np.asarray(func(w), dtype=complex) * weight
        bad = ~np.isfinite(out)
        if bad.any():
            where = float(w[np.flatnonzero(bad)[0]])
            raise QuadratureError(math.inf, f"integrand is not finite at omega = {where:g}")
        return out

    # the open intervals of one level: ends a, b, midpoint m, the weighted
    # integrand there, and the interval's own Simpson estimate
    a = np.array([-_WINDOW * bandwidth])
    b = np.array([_WINDOW * bandwidth])
    m = np.zeros(1)
    fa, fm, fb = np.split(weighted(np.concatenate([a, m, b])), 3)
    whole = _simpson(fa, fm, fb, b - a)
    levels = []
    intervals = 0
    for depth in range(48, -1, -1):
        intervals += len(a)
        if intervals > _MAX_INTERVALS:
            raise QuadratureError(
                math.inf,
                f"quadrature did not converge within {_MAX_INTERVALS} intervals; "
                "the tolerance may be below what rounding can reach",
            )
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = np.split(weighted(np.concatenate([lm, rm])), 2)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        pair = left + right
        delta = pair - whole
        err = np.hypot(delta.real, delta.imag)
        done = err <= 15.0 * tol
        if depth == 0 and not done.all():
            worst = float(np.max(err[~done]))
            raise QuadratureError(
                worst / 15.0,
                f"quadrature did not converge: {np.count_nonzero(~done)} intervals unresolved "
                f"at the depth limit 48, worst local estimate {worst:.3e} above its target "
                f"15*tol/2**48 = {15.0 * tol:.3e}",
            )
        # part by part, as Python divides a complex by a float; numpy's
        # complex division multiplies by 1/15 instead
        delta.real /= 15.0
        delta.imag /= 15.0
        levels.append((pair + delta, done))
        split = ~done
        if not split.any():
            break

        def halves(x, y):
            # the split intervals' left halves, then their right halves
            return np.concatenate([x[split], y[split]])

        a, m, b = halves(a, m), halves(lm, rm), halves(m, b)
        fa, fm, fb = halves(fa, fm), halves(flm, frm), halves(fm, fb)
        whole = halves(left, right)
        tol = tol / 2.0
    # fold back up: a split interval's total is its left half's plus its right's
    total = np.empty(0, dtype=complex)
    for value, done in reversed(levels):
        half = len(total) // 2
        value[~done] = total[:half] + total[half:]
        total = value
    return complex(total[0])


# roundoff allowance on the probability and overlap bounds
_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class OverlapSet:
    """Per-polarization pulse averages behind the gate metrics.

    reflect_prob_*: probability a Coupled-branch photon comes back out of the
    input port (survives reflection).  transmit_prob_*: probability a
    Decoupled-branch photon makes it through.  The *_overlap_* entries are the
    normalized projections of the corresponding output pulse onto the nominal
    pulse shape; modulus below one signals pulse distortion.
    """

    reflect_prob_h: float
    reflect_prob_v: float
    transmit_prob_h: float
    transmit_prob_v: float
    reflect_overlap_h: complex
    reflect_overlap_v: complex
    transmit_overlap_h: complex
    transmit_overlap_v: complex

    def __post_init__(self):
        for name in ("reflect_prob_h", "reflect_prob_v", "transmit_prob_h", "transmit_prob_v"):
            value = getattr(self, name)
            if not (0.0 <= value <= _SLACK):
                raise ValueError(f"{name} = {value!r} outside [0, 1]")
        for name in (
            "reflect_overlap_h",
            "reflect_overlap_v",
            "transmit_overlap_h",
            "transmit_overlap_v",
        ):
            if not abs(getattr(self, name)) <= _SLACK:
                raise ValueError(f"|{name}| exceeds 1")


@dataclass(frozen=True)
class GateMetrics:
    """The two figures of merit of the heralded gate."""

    loss_probability: float
    fidelity: float

    def __post_init__(self):
        if not (0.0 <= self.loss_probability <= 1.0 and 0.0 <= self.fidelity <= 1.0):
            raise ValueError("loss probability and fidelity must lie in [0, 1]")


# Points per kernel block: about 2**14 complex values per temporary, so the
# working set of a large grid stays near that of a single point.
_BLOCK_VALUES = 2**14


def _branch_averages(g, kappa, gamma, bandwidth, quad: QuadratureConfig):
    """Pulse averages over a grid of single-polarization points, under ``quad``.

    g, kappa and gamma are equal-length 1-D float arrays, one rate row per
    entry; bandwidth is a 1-D float array.  Returns (reflect_prob,
    reflect_overlap, transmit_prob, transmit_overlap), each of shape (rate
    rows, bandwidths): the survival probability and normalized mode overlap
    of the Coupled branch, judged at the reflected port, and of the
    Decoupled branch, judged at the transmitted port.  Each entry is what
    the rule gives for that point alone.
    """
    # the Decoupled branch sees the bare cavity: only kappa and the bandwidth
    # matter, so it adds one row per distinct kappa below the Coupled rows
    kappas = kappa.tolist()
    position = {value: len(kappas) + i for i, value in enumerate(dict.fromkeys(kappas))}
    bare = np.zeros(len(position))
    power, overlap = _port_averages(
        quad, "r" * len(kappas) + "t" * len(position),
        np.concatenate([g, bare]), np.concatenate([kappa, list(position)]),
        np.concatenate([gamma, bare]), bandwidth,
    )
    index = [position[value] for value in kappas]
    return power[: len(kappas)], overlap[: len(kappas)], power[index], overlap[index]


def _port_averages(quad, ports, g, kappa, gamma, bandwidth):
    """(survival probability, normalized mode overlap) over the grid of rate
    rows (g, kappa, gamma) x bandwidths, of shape (rows, bandwidths).
    ``ports`` names the coefficient of each row, "r" or "t".  The rule
    ``quad`` picks runs block by block (exact) or point by point (adaptive
    Simpson, which raises where an integral fails).  Over- and underflow at
    unphysical points is not warned about here; _within_bounds flags the
    values it leaves.  The exact rule works in the units, a power of two
    from the caller's and so exact, that put each row's largest rate,
    max(g, kappa, gamma), in [1, 2), so that no square of a rate overflows;
    adaptive Simpson in the caller's, so that its errors name omega in them."""
    shift = 1 - np.frexp(np.maximum(np.maximum(g, kappa), gamma))[1]
    units = [np.ldexp(a, shift) for a in (g, kappa, gamma)]
    if quad.method == EXACT:
        power = np.empty((len(g), len(bandwidth)))
        mean = np.empty((len(g), len(bandwidth)), dtype=complex)
        widths = np.ldexp(bandwidth, shift[:, None])
        # blocks of whole rate rows; a row wider than a block is cut
        columns = min(len(bandwidth), _BLOCK_VALUES)
        rows = max(1, _BLOCK_VALUES // columns)
        with np.errstate(all="ignore"):
            terms = _pole_terms(ports, *units)
            for r in range(0, len(g), rows):
                block = [term[r : r + rows] for term in terms]
                for c in range(0, len(bandwidth), columns):
                    cells = (slice(r, r + rows), slice(c, c + columns))
                    power[cells], mean[cells] = _exact_means(*block, widths[cells], quad.order)
    else:
        with np.errstate(over="ignore"):
            g = np.where(_bare_rows(*units), 0.0, g)
        power, mean = _simpson_means(quad.tolerance, ports, g, kappa, gamma, bandwidth)
    overlap = np.empty(power.shape, dtype=complex)
    with np.errstate(all="ignore"):
        positive = power > 0.0
        root = np.sqrt(np.where(positive, power, 1.0))
        # part by part, as Python divides a complex by a float;
        # numpy's complex division multiplies by 1/root instead
        overlap.real = np.where(positive, mean.real / root, 0.0)
        overlap.imag = np.where(positive, mean.imag / root, 0.0)
    return power, overlap


def _simpson_means(tolerance, ports, g, kappa, gamma, bandwidth):
    """(E|c|^2, E c) by adaptive Simpson over the grid of rate rows x
    bandwidths, one point at a time."""
    power = np.empty((len(g), len(bandwidth)))
    mean = np.empty((len(g), len(bandwidth)), dtype=complex)
    for i, (port, *rates) in enumerate(zip(ports, g.tolist(), kappa.tolist(), gamma.tolist())):

        def amplitude(omega):
            return cavity.coefficients(*rates, omega, port)[0]

        for j, dw in enumerate(bandwidth.tolist()):
            power[i, j] = adaptive_simpson_mean(
                lambda w: np.abs(amplitude(w)) ** 2, dw, tolerance
            ).real
            mean[i, j] = adaptive_simpson_mean(amplitude, dw, tolerance)
    return power, mean


def _bare_rows(g, kappa, gamma):
    """Rows, in units that put the largest rate in [1, 2), where kappa
    gamma/2 + g^2 is zero or subnormal (g = 0, or at gamma = 0 g below
    about 1.5e-154 kappa): the dip is narrower than rounding, and both rules
    take the bare cavity i kappa / (omega + i kappa), as cavity.coefficients
    does at g = 0."""
    return kappa * gamma / 2.0 + g * g < sys.float_info.min


def _pole_terms(ports, g, kappa, gamma):
    """The bandwidth-free half of the exact rule, per rate row in the units
    that put its largest rate in [1, 2): (c0 = -1 for r and 0 for t, as
    ``ports`` names c, kappa, mirror poles a0 = conj w_0 and a1 = conj w_1,
    kappa u(w_0), A, B).  t's poles are w = (-i b +- sqrt(4 g^2 - (kappa -
    gamma/2)^2)) / 2, b = kappa + gamma/2.  _bare_rows are taken as g = 0,
    gamma = 2 kappa: both poles and the zero of u sit at -i kappa and
    cancel exactly.  The poles are ordered so that |u(w_0)| <= |u(w_1)|: a
    pole near the real axis, where 1/(w - conj w) is large, is then w_0,
    whose terms carry the small u(w_0).
    """
    bare = _bare_rows(g, kappa, gamma)
    g = np.where(bare, 0.0, g)
    gamma = np.where(bare, 2.0 * kappa, gamma)
    b = kappa + gamma / 2.0
    d = 4.0 * g * g - (kappa - gamma / 2.0) ** 2
    root = np.sqrt(np.abs(d))
    # off the imaginary axis the poles are (+-root - i b)/2, with equal
    # |u|; on it they are -i y, y = (b +- root)/2, the smaller as c/y_big
    # when root would cancel most of b, and |u(-i y)| = |y - gamma/2|
    big = (b + root) / 2.0
    small = np.where(root > b / 2.0, (kappa * gamma / 2.0 + g * g) / big, (b - root) / 2.0)
    first = np.abs(small - gamma / 2.0) <= np.abs(big - gamma / 2.0)
    split = d >= 0.0
    w0 = np.where(split, (root - 1j * b) / 2.0, -1j * np.where(first, small, big))
    w1 = np.where(split, (-root - 1j * b) / 2.0, -1j * np.where(first, big, small))
    a0, a1 = w0.conj(), w1.conj()
    c0 = np.array([-1.0 if port == "r" else 0.0 for port in ports])
    # G(w) = c0 + kappa v(w) H(w) with v(w) = -i w - gamma/2 and H(w) =
    # 1/((w - a0)(w - a1)), so D[G] = i kappa H(w_1) (2 b v(w_0) H(w_0) - 1);
    # v H and kappa H are formed by division, never nearing 1/kappa^2, and
    # each complex product has a named right factor, as in _exact_means
    vh0 = (-1j * w0 - gamma / 2.0) / (w0 - a0) / (w0 - a1)
    kh1 = kappa / (w1 - a0) / (w1 - a1)
    u0 = 1j * w0 - gamma / 2.0
    k0 = kappa * u0
    g0 = c0 + kappa * vh0
    slope = 2.0 * b * vh0 - 1.0
    # B = kappa u(w_0) D[G] + i kappa G(w_1), with i kappa factored out
    inner = u0 * slope + (-1j * w1 - gamma / 2.0)
    return c0, kappa, a0, a1, k0, k0 * g0, 1j * kappa * (c0 + kh1 * inner)


def _exact_means(c0, kappa, a0, a1, k0, a, b, bandwidth, order):
    """(E|c|^2, E c) in closed form over rate rows x bandwidths, from the
    _pole_terms of the rows and the block of each row's bandwidths, in that
    row's units.  With D the divided difference over the poles,
    e(w) = E[1/(omega - w)] and G(w) = conj(c(conj w)), conj(c) on the axis:

        E c = c0 + kappa (u(w_0) D[e] + i e(w_1))
        E|c|^2 = c0^2 + 2 Re kappa (u(w_0) (D[e] G(w_0) + e(w_1) D[G]) + i e(w_1) G(w_1))
               = c0^2 + 2 Re (D[e] A + e(w_1) B)
    """

    def spread(term):
        # a contiguous copy along the bandwidths: numpy's complex multiply
        # takes a fused loop for contiguous operands only
        return np.repeat(term[:, None], bandwidth.shape[1], axis=1)

    # Every point must round as it does on its own, so each complex product
    # has both factors contiguous and a named right factor: numpy computes
    # a product whose right factor is a large temporary in that temporary's
    # buffer with the factors swapped, which rounds differently.
    s = bandwidth / math.sqrt(2.0)
    value, difference = _faddeeva_pair(spread(a0) / s, spread(a1) / s, order)
    e1 = np.conj(value) * (-1j * math.sqrt(math.pi)) / s
    de = np.conj(difference) * (-1j * math.sqrt(math.pi)) / s / s
    k0, a, b = spread(k0), spread(a), spread(b)
    mean = c0[:, None] + k0 * de + (1j * kappa[:, None]) * e1
    power = c0[:, None] ** 2 + 2.0 * (de * a + e1 * b).real
    # true powers below the roundoff of these sums can come out negative
    return np.maximum(power, 0.0), mean


def _within_bounds(reflect_prob, reflect_overlap, transmit_prob, transmit_overlap):
    """Mask of the points whose averages OverlapSet accepts (NaN fails).
    Their p and F are then finite, so GateMetrics accepts them as well."""
    ok = np.ones(reflect_prob.shape, dtype=bool)
    for prob, overlap in ((reflect_prob, reflect_overlap), (transmit_prob, transmit_overlap)):
        ok &= (prob >= 0.0) & (prob <= _SLACK)
        ok &= np.hypot(overlap.real, overlap.imag) <= _SLACK
    return ok


def overlaps(
    params: CavityParams, pulse: PulseSpec, quad: QuadratureConfig = DEFAULT_QUAD
) -> OverlapSet:
    """All eight pulse-averaged quantities for the given operating point:
    the grid of the two polarizations' rates x one bandwidth."""
    g, kappa, gamma = np.array([params.rates("h"), params.rates("v")], dtype=float).T
    averages = _branch_averages(g, kappa, gamma, np.array([pulse.bandwidth]), quad)
    r0, xi0, t1, xi1 = (column[:, 0].tolist() for column in averages)
    return OverlapSet(*r0, *t1, *xi0, *xi1)


def _loss_and_fidelity(
    reflect_prob_h, reflect_prob_v, transmit_prob_h, transmit_prob_v,
    reflect_overlap_h, reflect_overlap_v, transmit_overlap_h, transmit_overlap_v,
):
    """Clamped (loss, fidelity) arrays from arrays of the OverlapSet fields,
    rounded exactly as the scalar Python expressions would round them."""
    p = 1.0 - (transmit_prob_h * transmit_prob_v + reflect_prob_h * reflect_prob_v) / 2.0
    # the complex products in real arithmetic, as Python evaluates them;
    # numpy's vectorized complex multiply fuses them and can round differently
    a, b, c, d = reflect_overlap_h, reflect_overlap_v, transmit_overlap_h, transmit_overlap_v
    re = (a.real * b.real - a.imag * b.imag) + (c.real * d.real - c.imag * d.imag)
    im = (a.real * b.imag + a.imag * b.real) + (c.real * d.imag + c.imag * d.real)
    modulus = np.hypot(re, im)
    # libm pow, as Python's float ** 2 is: it can differ from x * x in the last bit
    squares = map(math.pow, modulus.ravel().tolist(), repeat(2.0))
    f = np.fromiter(squares, float, modulus.size).reshape(modulus.shape) / 4.0
    # clamp 1e-16-level roundoff at ideal operating points
    return np.clip(p, 0.0, 1.0), np.clip(f, 0.0, 1.0)


def metrics(ov: OverlapSet) -> GateMetrics:
    """Loss probability and fidelity from the pulse averages.

    Loss: one minus the average of the two branch survival products.
    Fidelity: squared magnitude of the equally weighted coherent sum of the
    per-branch overlap products, as for the ideal entangled output.
    """
    p, f = _loss_and_fidelity(*(np.array([getattr(ov, field.name)]) for field in fields(ov)))
    return GateMetrics(loss_probability=float(p[0]), fidelity=float(f[0]))


def gate_metrics(
    params: CavityParams, pulse: PulseSpec, quad: QuadratureConfig = DEFAULT_QUAD
) -> GateMetrics:
    return metrics(overlaps(params, pulse, quad))


def metrics_residual(params: CavityParams, pulse: PulseSpec) -> tuple[GateMetrics, float]:
    """The metrics under the exact rule, and their max change in (loss,
    fidelity) when the Faddeeva order doubles from 36 to 72 terms: the
    reported quadrature residual."""
    coarse = gate_metrics(params, pulse)
    fine = gate_metrics(params, pulse, QuadratureConfig(order=2 * DEFAULT_QUAD.order))
    return coarse, max(
        abs(coarse.loss_probability - fine.loss_probability),
        abs(coarse.fidelity - fine.fidelity),
    )


class SweepGrid(NamedTuple):
    """The result of sweep_grid, by columns: the sorted axes, loss and
    fidelity of shape (couplings, bandwidths), and (i, j, message) per
    failed point in row-major order."""

    couplings: np.ndarray
    bandwidths: np.ndarray
    loss: np.ndarray
    fidelity: np.ndarray
    errors: list[tuple[int, int, str]]


def sweep_grid(
    coupling_values: Sequence[float], bandwidth_values: Sequence[float],
    gamma_over_kappa: float = 1.0,
) -> SweepGrid:
    """Metrics under the exact rule over the (g/kappa) x (bandwidth/kappa)
    grid at kappa = 1, gamma defaulting to kappa as in the symmetric sweeps.

    Both axes come back sorted by a stable sort, as sorted() would (0.0 and
    -0.0 keep their input order).  Each cell equals (==) its point's
    gate_metrics, or is NaN with an entry in ``errors`` that carries
    exactly the error gate_metrics raises there.  The valid part of the
    grid is evaluated as one batch, which raises nowhere; a point it
    leaves out or puts out of bounds (NaN included) is evaluated alone.
    """
    if len(coupling_values) == 0 or len(bandwidth_values) == 0:
        raise ValueError("sweep grids must be non-empty")
    couplings = np.sort(np.asarray(coupling_values, dtype=float), kind="stable")
    bandwidths = np.sort(np.asarray(bandwidth_values, dtype=float), kind="stable")
    if not (np.all(np.isfinite(couplings)) and np.all(np.isfinite(bandwidths))):
        raise ValueError("sweep grid values must be finite")
    shape = (len(couplings), len(bandwidths))
    loss = np.full(shape, math.nan)
    fidelity = np.full(shape, math.nan)
    ok = np.zeros(shape, dtype=bool)
    gamma = float(gamma_over_kappa)
    # rows and columns CavityParams or PulseSpec would reject are left to
    # the point-by-point pass
    rows = np.flatnonzero(couplings >= 0.0)
    columns = np.flatnonzero(bandwidths > 0.0)
    if rows.size and columns.size and math.isfinite(gamma) and gamma >= 0.0:
        averages = _branch_averages(
            couplings[rows], np.ones(rows.size), np.full(rows.size, gamma),
            bandwidths[columns], DEFAULT_QUAD,
        )
        # symmetric rates: both polarizations see the same averages
        rp, ro, tp, to = averages
        cells = np.ix_(rows, columns)
        ok[cells] = _within_bounds(*averages)
        loss[cells], fidelity[cells] = _loss_and_fidelity(rp, rp, tp, tp, ro, ro, to, to)
    errors = []
    for i, j in np.argwhere(~ok).tolist():
        try:
            params = CavityParams.symmetric(float(couplings[i]), 1.0, gamma_over_kappa)
            result = gate_metrics(params, PulseSpec(float(bandwidths[j])))
            loss[i, j], fidelity[i, j] = result.loss_probability, result.fidelity
        except (ValueError, ArithmeticError) as exc:
            loss[i, j] = fidelity[i, j] = math.nan
            errors.append((i, j, str(exc)))
    return SweepGrid(couplings, bandwidths, loss, fidelity, errors)

"""Pulse-averaged gate quantities for finite-bandwidth Gaussian photons.

A photon pulse of bandwidth delta_omega samples the cavity response over a
range of detunings, so the gate acts slightly differently on each spectral
component.  Averaging the response against the pulse's spectral density gives
per-branch survival probabilities and mode-overlap amplitudes, which combine
into the two figures of merit: the loss probability and the fidelity of the
entangled output.

Quadrature: the spectral density is Gaussian, so Gauss-Hermite quadrature is
the natural (spectrally convergent) default; an adaptive Simpson rule over a
finite window is kept as a structurally independent cross-check.  Both run
through one batched path: Gauss-Hermite evaluates whole grids of operating
points in blocks, and adaptive Simpson evaluates each point's bisection tree
one level at a time, with the same result as the depth-first recursion.
Either way the Decoupled branch, which sees the bare cavity, is integrated
once per distinct (kappa, bandwidth).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import cavity
from .cavity import CavityParams

GAUSS_HERMITE = "gauss-hermite"
ADAPTIVE_SIMPSON = "adaptive-simpson"
METHODS = (GAUSS_HERMITE, ADAPTIVE_SIMPSON)


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
    """Integration rule selection: node count for Gauss-Hermite, absolute
    error target for adaptive Simpson."""

    method: str = GAUSS_HERMITE
    nodes: int = 64
    tolerance: float = 1e-12

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.nodes < 8:
            raise ValueError("gauss-hermite needs at least 8 nodes")
        if not (0.0 < self.tolerance <= 1e-4):
            raise ValueError("tolerance must lie in (0, 1e-4]")


DEFAULT_QUAD = QuadratureConfig()


def spectral_density(omega, bandwidth: float):
    """|f(omega)|^2 of the unit-power Gaussian pulse."""
    omega = np.asarray(omega, dtype=float)
    norm = math.sqrt(2.0 / (math.pi * bandwidth * bandwidth))
    return norm * np.exp(-2.0 * omega * omega / (bandwidth * bandwidth))


@lru_cache(maxsize=16)
def _checked_hermgauss(n: int):
    # numpy's weights underflow to zero from n = 371 and overflow to NaN from
    # n = 372; a degenerate rule is cached as None so it is rejected cheaply
    with np.errstate(all="ignore"):
        x, w = np.polynomial.hermite.hermgauss(n)
    if np.all(np.isfinite(w)) and abs(np.sum(w) - math.sqrt(math.pi)) <= 1e-12:
        return x, w
    return None


def _hermgauss(n: int):
    rule = _checked_hermgauss(n)
    if rule is None:
        raise ValueError(
            f"the {n}-node Gauss-Hermite rule is degenerate: numpy's weights "
            "are not finite or do not sum to sqrt(pi)"
        )
    return rule


def gauss_hermite_mean(
    func: Callable[[np.ndarray], np.ndarray], bandwidth: float, nodes: int = 64
) -> complex:
    """Mean of func under the Gaussian spectral density.

    Substituting w = dw * x / sqrt(2) turns the density into the Hermite
    weight exp(-x^2), so the mean is sum_i w_i func(dw x_i / sqrt(2)) / sqrt(pi) —
    exact for polynomial func, spectrally convergent for analytic func.
    """
    x, w = _hermgauss(nodes)
    values = func(bandwidth * x / math.sqrt(2.0))
    return complex(np.sum(w * values) / math.sqrt(math.pi))


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

    Raises QuadratureError if an interval reaches depth 48 unresolved, if
    the tree would exceed _MAX_INTERVALS intervals (a tolerance below what
    rounding can reach splits every interval on every level), or at once if
    the weighted integrand is not finite at a node, which no bisection could
    resolve.
    """
    norm = math.sqrt(2.0 / (math.pi * bandwidth * bandwidth))

    def weighted(w):
        # math.exp per node: np.exp can differ from it in the last bit
        arg = -2.0 * w * w / (bandwidth * bandwidth)
        weight = norm * np.array([math.exp(x) for x in arg.tolist()])
        # numpy does not warn about over- or underflow here; the check below
        # rejects whatever non-finite values they leave
        with np.errstate(all="ignore"):
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
    unresolved = 0.0
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
        if depth <= 0:  # the depth limit: keep the worst unresolved estimate
            unresolved = float(np.max(err[~done], initial=0.0)) / 15.0
            done[:] = True
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
    if unresolved > 0.0:
        raise QuadratureError(unresolved)
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
            if abs(getattr(self, name)) > _SLACK:
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
    """Pulse averages at many single-polarization points, under ``quad``.

    g, kappa, gamma and bandwidth are equal-length 1-D float arrays, one
    operating point per entry.  Returns (reflect_prob, reflect_overlap,
    transmit_prob, transmit_overlap): the survival probability and
    normalized mode overlap of the Coupled branch, judged at the reflected
    port, and of the Decoupled branch, judged at the transmitted port.  Each
    entry is what the rule gives for that point alone.
    """
    reflect = _port_averages(quad, "r", g, kappa, gamma, bandwidth)
    # the Decoupled branch sees the bare cavity: only kappa and the bandwidth
    # matter.  Packed as kappa + i*bandwidth the pairs dedupe in a 1-D
    # np.unique, about 10x faster than np.unique(axis=1) on a 100x100 grid.
    pairs, index = np.unique(kappa + 1j * bandwidth, return_inverse=True)
    transmit_prob, transmit_overlap = _port_averages(quad, "t", 0.0, pairs.real, 0.0, pairs.imag)
    return (*reflect, transmit_prob[index], transmit_overlap[index])


def _port_averages(quad, port, g, kappa, gamma, bandwidth):
    """(survival probability, normalized mode overlap) of the coefficient
    named by ``port`` at each point, under the rule ``quad`` picks:
    Gauss-Hermite block by block, detunings on the last axis, adaptive
    Simpson point by point.  Over- and underflow at unphysical points is not
    warned about here; _within_bounds flags the values it leaves."""
    g, kappa, gamma, bandwidth = np.broadcast_arrays(g, kappa, gamma, bandwidth)
    power = np.empty(len(bandwidth))
    mean = np.empty(len(bandwidth), dtype=complex)
    if quad.method == GAUSS_HERMITE:
        x, w = _hermgauss(quad.nodes)
        step = max(1, _BLOCK_VALUES // len(x))
        with np.errstate(all="ignore"):
            for start in range(0, len(bandwidth), step):
                s = slice(start, start + step)
                omega = bandwidth[s, None] * x / math.sqrt(2.0)
                (amp,) = cavity.coefficients(g[s, None], kappa[s, None], gamma[s, None], omega, port)
                power[s] = np.sum(w * np.abs(amp) ** 2, axis=-1) / math.sqrt(math.pi)
                mean[s] = np.sum(w * amp, axis=-1) / math.sqrt(math.pi)
    else:
        points = zip(g.tolist(), kappa.tolist(), gamma.tolist(), bandwidth.tolist())
        for i, (*rates, dw) in enumerate(points):

            def amplitude(omega):
                return cavity.coefficients(*rates, omega, port)[0]

            power[i] = adaptive_simpson_mean(
                lambda w: np.abs(amplitude(w)) ** 2, dw, quad.tolerance
            ).real
            mean[i] = adaptive_simpson_mean(amplitude, dw, quad.tolerance)
    overlap = np.empty(len(bandwidth), dtype=complex)
    with np.errstate(all="ignore"):
        positive = power > 0.0
        root = np.sqrt(np.where(positive, power, 1.0))
        # part by part, as Python divides a complex by a float;
        # numpy's complex division multiplies by 1/root instead
        overlap.real = np.where(positive, mean.real / root, 0.0)
        overlap.imag = np.where(positive, mean.imag / root, 0.0)
    return power, overlap


def _within_bounds(reflect_prob, reflect_overlap, transmit_prob, transmit_overlap):
    """Mask of the points whose averages OverlapSet accepts (NaN fails).
    Their p and F are then finite, so GateMetrics accepts them as well."""
    ok = np.ones(len(reflect_prob), dtype=bool)
    for prob, overlap in ((reflect_prob, reflect_overlap), (transmit_prob, transmit_overlap)):
        ok &= (prob >= 0.0) & (prob <= _SLACK)
        ok &= np.hypot(overlap.real, overlap.imag) <= _SLACK
    return ok


def overlaps(
    params: CavityParams, pulse: PulseSpec, quad: QuadratureConfig = DEFAULT_QUAD
) -> OverlapSet:
    """All eight pulse-averaged quantities for the given operating point."""
    g, kappa, gamma = np.array([params.rates("h"), params.rates("v")], dtype=float).T
    r0, xi0, t1, xi1 = _branch_averages(g, kappa, gamma, np.full(2, pulse.bandwidth), quad)
    return OverlapSet(*r0.tolist(), *t1.tolist(), *xi0.tolist(), *xi1.tolist())


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
    # Python's float ** 2 is libm pow, which can differ from x * x in the last bit
    f = np.array([value**2 for value in modulus.tolist()]) / 4.0
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


def metrics_residual(
    params: CavityParams, pulse: PulseSpec, quad: QuadratureConfig = DEFAULT_QUAD
) -> tuple[GateMetrics, float]:
    """The metrics under ``quad``, and their max change in (loss, fidelity)
    when the rule's resolution is increased.

    Doubled node count for Gauss-Hermite, tolerance/100 for adaptive Simpson;
    serves as the reported quadrature residual.
    """
    if quad.method == GAUSS_HERMITE:
        finer = replace(quad, nodes=2 * quad.nodes)
    else:
        finer = replace(quad, tolerance=quad.tolerance / 100.0)
    coarse = gate_metrics(params, pulse, quad)
    fine = gate_metrics(params, pulse, finer)
    return coarse, max(
        abs(coarse.loss_probability - fine.loss_probability),
        abs(coarse.fidelity - fine.fidelity),
    )


@dataclass(frozen=True)
class SweepRow:
    """One operating point of a parameter sweep.  A non-empty ``error`` marks
    a failed evaluation (metrics are NaN there), kept so grid rows are never
    silently dropped."""

    g_over_kappa: float
    bandwidth_over_kappa: float
    loss_probability: float
    fidelity: float
    error: str = ""


def sweep(
    coupling_values: Sequence[float],
    bandwidth_values: Sequence[float],
    gamma_over_kappa: float = 1.0,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> list[SweepRow]:
    """Metrics over the (g/kappa) x (bandwidth/kappa) grid.

    Rows come back sorted lexicographically by (g/kappa, bandwidth/kappa)
    regardless of input order.  gamma defaults to kappa, the convention used
    throughout the symmetric sweeps.  The grid is evaluated as one batch;
    a point the batch cannot vouch for (every point, if the batch raises) is
    evaluated again on its own, so it fails with exactly the error
    gate_metrics raises for it.
    """
    if len(coupling_values) == 0 or len(bandwidth_values) == 0:
        raise ValueError("sweep grids must be non-empty")
    grid = [
        (float(g), float(dw))
        for g in sorted(coupling_values)
        for dw in sorted(bandwidth_values)
    ]
    for g, dw in grid:
        if not (math.isfinite(g) and math.isfinite(dw)):
            raise ValueError("sweep grid values must be finite")

    def evaluate(point):
        g, dw = point
        try:
            params = CavityParams.symmetric(g, 1.0, gamma_over_kappa)
            result = gate_metrics(params, PulseSpec(dw), quad)
            return SweepRow(g, dw, result.loss_probability, result.fidelity)
        except (ValueError, ArithmeticError) as exc:
            return SweepRow(g, dw, math.nan, math.nan, error=str(exc))

    g, dw = np.array(grid).T
    gamma = float(gamma_over_kappa)
    # points CavityParams or PulseSpec would reject are left to evaluate()
    ok = (g >= 0.0) & (dw > 0.0) & (math.isfinite(gamma) and gamma >= 0.0)
    batch = np.flatnonzero(ok)
    loss = np.full(len(grid), math.nan)
    fidelity = np.full(len(grid), math.nan)
    try:
        averages = _branch_averages(
            g[batch], np.ones(batch.size), np.full(batch.size, gamma), dw[batch], quad
        )
        # symmetric rates: both polarizations see the same averages
        rp, ro, tp, to = averages
        p, f = _loss_and_fidelity(rp, rp, tp, tp, ro, ro, to, to)
    except (ValueError, ArithmeticError):  # e.g. an unresolved integral: evaluate() reports it
        ok[:] = False
    else:
        ok[batch] = _within_bounds(*averages)
        loss[batch] = p
        fidelity[batch] = f
    return [
        SweepRow(*point, p, f) if good else evaluate(point)
        for point, good, p, f in zip(grid, ok.tolist(), loss.tolist(), fidelity.tolist())
    ]

"""Reference pulse averages owned by the benchmark.

The cavity amplitudes are written here in closed form, independently of
``cavityswap.cavity``, and averaged against the Gaussian pulse with a dense
uniform-grid trapezoid rule.  The integrand is analytic in a strip around
the real axis whose half-width is the distance of the nearest dressed pole,
so the trapezoid error falls like exp(-2*pi*strip/step): the step is set
from that distance and from the pulse width, the window from the Gaussian
tail.  References are computed during set-up, never inside a timed region.

``hermite_metrics`` gives the same averages with an n-node Gauss-Hermite
rule.  It only classifies failures: a row that disagrees with the reference
where that rule disagrees too is the known under-resolved quadrature.
"""
from __future__ import annotations

import math

import numpy as np

# step = min(pole distance, bandwidth) / STEPS_PER_STRIP; the window spans
# WINDOW bandwidths each side (Gaussian mass outside is below 1e-18).  Over a
# 100x100 grid of the sweep domain this agrees with 24 steps and 7
# bandwidths to 2e-15.
STEPS_PER_STRIP = 12
WINDOW = 4.5
_CHUNK_ELEMENTS = 1 << 17


def transmission(omega, g, kappa, gamma):
    """Transmission of the two-sided cavity with the emitter coupled.

    t = kappa (gamma/2 - i w) / ((kappa - i w)(gamma/2 - i w) + g^2); the
    reflection is r = t - 1.  For g > 0 or gamma > 0 the fraction is finite
    on the whole real axis.
    """
    a = gamma / 2.0 - 1j * omega
    return kappa * a / ((kappa - 1j * omega) * a + g * g)


def empty_transmission(omega, kappa):
    """Transmission of the empty cavity (emitter decoupled)."""
    return kappa / (kappa - 1j * omega)


def pole_distance(g, kappa, gamma):
    """Distance from the real axis of the nearest pole of the coupled t.

    The poles solve w^2 + i b w - (kappa gamma/2 + g^2) = 0, b = kappa + gamma/2.
    """
    b = kappa + gamma / 2.0
    disc = np.sqrt(np.asarray(4.0 * (kappa * gamma / 2.0 + g * g) - b * b, dtype=complex))
    return np.minimum(np.abs(((-1j * b + disc) / 2.0).imag), np.abs(((-1j * b - disc) / 2.0).imag))


def _flat(*values):
    return [v.ravel() for v in np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))]


def _amplitude(omega, g, kappa, gamma, branch):
    if branch == "coupled":
        return transmission(omega, g, kappa, gamma) - 1.0
    return empty_transmission(omega, kappa)


def trapezoid_means(g, kappa, gamma, bandwidth, branch):
    """(E|a|^2, E a) over the pulse for a = r (coupled) or t (decoupled),
    as 1-d arrays over the broadcast points."""
    g, kappa, gamma, bandwidth = _flat(g, kappa, gamma, bandwidth)
    strip = pole_distance(g, kappa, gamma) if branch == "coupled" else kappa
    step = np.minimum(strip, bandwidth) / STEPS_PER_STRIP
    half = np.ceil(WINDOW * bandwidth / step).astype(np.int64)
    power = np.empty(g.size)
    mean = np.empty(g.size, dtype=complex)
    order = np.argsort(half, kind="stable")
    start = 0
    while start < order.size:
        # points with similar node counts share one zero-padded node array
        stop = start + max(1, _CHUNK_ELEMENTS // (2 * int(half[order[start]]) + 1))
        idx = order[start:stop]
        width = int(half[idx].max())
        k = np.arange(-width, width + 1, dtype=float)[None, :]
        h = step[idx][:, None]
        bw = bandwidth[idx][:, None]
        w = k * h
        weight = np.where(
            np.abs(k) <= half[idx][:, None],
            h * math.sqrt(2.0 / math.pi) / bw * np.exp(-2.0 * (w / bw) ** 2),
            0.0,
        )
        amp = _amplitude(w, g[idx][:, None], kappa[idx][:, None], gamma[idx][:, None], branch)
        power[idx] = np.sum(weight * (amp.real**2 + amp.imag**2), axis=1)
        mean[idx] = np.sum(weight * amp, axis=1)
        start = stop
    return power, mean


def hermite_means(g, kappa, gamma, bandwidth, branch, nodes):
    """The same averages with an n-node Gauss-Hermite rule."""
    g, kappa, gamma, bandwidth = (v[:, None] for v in _flat(g, kappa, gamma, bandwidth))
    x, wts = np.polynomial.hermite.hermgauss(nodes)
    amp = _amplitude(bandwidth * x[None, :] / math.sqrt(2.0), g, kappa, gamma, branch)
    weight = wts[None, :] / math.sqrt(math.pi)
    return np.sum(weight * (amp.real**2 + amp.imag**2), axis=1), np.sum(weight * amp, axis=1)


def _overlap(mean, power):
    safe = np.where(power > 0.0, power, 1.0)
    return np.where(power > 0.0, mean / np.sqrt(safe), 0.0)


def _metrics(means, h_rates, v_rates, bandwidth):
    per_pol = []
    for rates in (h_rates,) if v_rates is None else (h_rates, v_rates):
        per_pol.append(means(*rates, bandwidth, "coupled") + means(*rates, bandwidth, "decoupled"))
    (rp_h, rm_h, tp_h, tm_h) = per_pol[0]
    (rp_v, rm_v, tp_v, tm_v) = per_pol[-1]
    # loss: one minus the mean survival product; fidelity: coherent sum of
    # the per-branch overlap products, as in the gate metrics' definition
    p = 1.0 - (tp_h * tp_v + rp_h * rp_v) / 2.0
    f = np.abs(_overlap(rm_h, rp_h) * _overlap(rm_v, rp_v) + _overlap(tm_h, tp_h) * _overlap(tm_v, tp_v)) ** 2 / 4.0
    return np.clip(p, 0.0, 1.0), np.clip(f, 0.0, 1.0)


def reference_metrics(h_rates, bandwidth, v_rates=None):
    """(p, F) arrays from the dense trapezoid rule.  Rates are (g, kappa,
    gamma) triples of scalars or arrays broadcast against ``bandwidth``;
    ``v_rates=None`` means both polarizations share ``h_rates``."""
    return _metrics(trapezoid_means, h_rates, v_rates, bandwidth)


def hermite_metrics(h_rates, bandwidth, nodes, v_rates=None):
    """(p, F) arrays from an n-node Gauss-Hermite rule."""
    return _metrics(
        lambda g, k, gm, bw, br: hermite_means(g, k, gm, bw, br, nodes), h_rates, v_rates, bandwidth
    )


def self_test(seed, points=5):
    """The reference against the program's adaptive Simpson rule at seeded
    points of the sweep domain; returns the largest |d(p, F)|.

    Simpson runs at tolerance 1e-14: at its default 1e-12 per integral, F
    (a ratio of integrals) can be 8e-12 off at narrow pulses, while the
    trapezoid reference agrees with itself at a finer step to 1e-15.
    """
    from cavityswap import pulses
    from cavityswap.cavity import CavityParams

    import workloads

    rng = np.random.default_rng([seed, 9])
    quad = pulses.QuadratureConfig(method=pulses.ADAPTIVE_SIMPSON, tolerance=1e-14)
    worst = 0.0
    for _ in range(points):
        g = float(workloads.log_uniform(rng, *workloads.G_RANGE))
        gamma = float(workloads.log_uniform(rng, *workloads.GAMMA_RANGE))
        dw = float(workloads.log_uniform(rng, *workloads.DW_RANGE))
        got = pulses.gate_metrics(CavityParams.symmetric(g, 1.0, gamma), pulses.PulseSpec(dw), quad)
        p, f = reference_metrics((g, 1.0, gamma), dw)
        diff = max(abs(got.loss_probability - float(p[0])), abs(got.fidelity - float(f[0])))
        print(f"g={g:.4g} gamma={gamma:.4g} dw={dw:.4g}: |d(p,F)| = {diff:.2e}")
        worst = max(worst, diff)
    return worst


if __name__ == "__main__":
    # python3 perfbench/oracle.py SEED   (from the repository root)
    import os
    import sys

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    worst = self_test(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
    print(f"largest difference {worst:.2e} (limit 1e-12)")
    sys.exit(0 if worst <= 1e-12 else 1)

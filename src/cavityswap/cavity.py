"""Frequency-domain response of a two-sided single-emitter cavity.

The cavity supports two polarization eigenmodes (h, v), each resonantly
coupled to its own emitter transition.  Depending on the emitter's ground
state the incoming field either sees the dressed cavity (Coupled branch,
reflects near resonance) or an empty resonant cavity (Decoupled branch,
transmits).  Everything here is a pure function of the rate parameters and
the detuning.

All rates share one angular-frequency unit; preset loaders normalize to
multiples of kappa_h, but any consistent unit works since the response is
homogeneous in the rates.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np


class AtomBranch(Enum):
    """Ground-state branch of the intracavity emitter."""

    COUPLED = "coupled"      # emitter in |0>: interacts with the cavity modes
    DECOUPLED = "decoupled"  # emitter in |1>: cavity looks empty


@dataclass(frozen=True)
class CavityParams:
    """Physical rates per polarization mode, one consistent angular-frequency unit.

    g: emitter-cavity coupling rate; kappa: per-mirror cavity decay rate
    (symmetric mirrors); gamma: spontaneous emission rate of the excited level.
    """

    g_h: float
    g_v: float
    kappa_h: float
    kappa_v: float
    gamma_h: float
    gamma_v: float

    def __post_init__(self):
        for name in ("g_h", "g_v", "kappa_h", "kappa_v", "gamma_h", "gamma_v"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.g_h < 0 or self.g_v < 0:
            raise ValueError("coupling rates must be >= 0")
        if self.kappa_h <= 0 or self.kappa_v <= 0:
            raise ValueError("cavity decay rates must be > 0")
        if self.gamma_h < 0 or self.gamma_v < 0:
            raise ValueError("spontaneous emission rates must be >= 0")

    @classmethod
    def symmetric(cls, g: float, kappa: float, gamma: float) -> "CavityParams":
        """Identical rates for both polarizations."""
        return cls(g, g, kappa, kappa, gamma, gamma)

    def rates(self, pol: str) -> tuple[float, float, float]:
        """(g, kappa, gamma) for polarization 'h' or 'v'."""
        if pol == "h":
            return self.g_h, self.kappa_h, self.gamma_h
        if pol == "v":
            return self.g_v, self.kappa_v, self.gamma_v
        raise ValueError(f"polarization must be 'h' or 'v', got {pol!r}")


@dataclass(frozen=True)
class SpectralResponse:
    """Reflection, transmission and noise coefficients at one detuning."""

    r: complex
    t: complex
    m: complex

    def flux_residual(self) -> float:
        """|r|^2 + |t|^2 + |m|^2 - 1; analytically zero for valid inputs."""
        return abs(self.r) ** 2 + abs(self.t) ** 2 + abs(self.m) ** 2 - 1.0


def coefficients(g, kappa, gamma, omega, parts: str = "rtm") -> tuple[np.ndarray, ...]:
    """(R, T, m) broadcast over rates (g, kappa, gamma) and detunings omega.

    ``parts`` names the coefficients to compute and return, in that order;
    a caller that needs one of them skips the others' complex divisions.
    Entries with g = 0 take the bare-cavity form: the emitter term vanishes
    identically, which also makes this the Decoupled branch.  The others use
    the dressed form with numerator and denominator multiplied through by
    (i*omega - gamma/2), so the removable singularity at omega = 0,
    gamma = 0 needs no special casing unless g^2 underflows.

    For real rates every coefficient satisfies c(-omega) = conj(c(omega)),
    bit for bit up to the sign of a zero part: negating omega flips signs
    through the same operations.
    """
    g, kappa, gamma, omega = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (g, kappa, gamma, omega))
    )
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega must be finite")
    bare = g == 0.0
    if bare.all():
        return _bare(kappa, omega, parts)
    if not bare.any():
        return _dressed(g, kappa, gamma, omega, parts)
    out = tuple(np.empty(omega.shape, dtype=complex) for _ in parts)
    dressed = ~bare
    for mask, values in (
        (bare, _bare(kappa[bare], omega[bare], parts)),
        (dressed, _dressed(g[dressed], kappa[dressed], gamma[dressed], omega[dressed], parts)),
    ):
        for array, value in zip(out, values):
            array[mask] = value
    return out


def _bare(kappa, omega, parts):
    denom = kappa - 1j * omega
    out = []
    for part in parts:
        if part == "r":
            out.append(1j * omega / denom)
        elif part == "t":
            out.append(kappa / denom)
        else:
            out.append(np.zeros_like(denom))
    return tuple(out)


def _dressed(g, kappa, gamma, omega, parts):
    i_omega = 1j * omega
    g2 = g * g
    d = i_omega - gamma / 2.0
    denom = (kappa - i_omega) * d - g2
    limit = None
    if (g2 < sys.float_info.min).any():
        # g^2 is subnormal for 0 < g below about 1.5e-154 and zero below
        # 1e-162, and at omega = 0 the denominator -(kappa gamma/2 + g^2)
        # can then be too: 0/0, or a complex division that overflows.  Where
        # it is zero at gamma = 0 the limit is (-1, 0, 0), as for every g > 0,
        # and g^2 = 1 gives it; the other such points take _resonance_limit
        g2 = np.where((denom == 0.0) & (gamma == 0.0), 1.0, g2)
        denom = (kappa - i_omega) * d - g2
        limit = (omega == 0.0) & (np.abs(denom) < sys.float_info.min)
        denom = np.where(limit, 1.0, denom)
    out = []
    for part in parts:
        if part == "r":
            out.append((i_omega * d + g2) / denom)
        elif part == "t":
            out.append(kappa * d / denom)
        else:
            out.append(1j * np.sqrt(kappa * gamma) * g / denom)
    if limit is not None and limit.any():
        values = dict(zip("rtm", _resonance_limit(g, kappa, gamma)))
        out = [np.where(limit, values[part], value) for part, value in zip(parts, out)]
    return tuple(out)


def _resonance_limit(g, kappa, gamma):
    """(R, T, m) at omega = 0 as functions of rho = kappa gamma / (2 g^2):
    -1/(1 + rho), rho/(1 + rho) and -i sqrt(2 rho)/(1 + rho).

    rho is formed from the rates scaled by powers of two, which leaves it
    unchanged, such that kappa and g are O(1): it under- or overflows only
    where its own value is out of range, and the forms used for rho >= 1
    still give the limits at rho = inf.
    """
    _, k_exp = np.frexp(kappa)
    _, g_exp = np.frexp(g)
    with np.errstate(all="ignore"):
        rho = (np.ldexp(kappa, -k_exp) * np.ldexp(gamma, k_exp - 2 * g_exp)
               / (2.0 * np.ldexp(g, -g_exp) ** 2))
        large = rho >= 1.0
        r = -1.0 / (1.0 + rho)
        t = np.where(large, 1.0 / (1.0 / rho + 1.0), rho / (1.0 + rho))
        m = np.where(large, math.sqrt(2.0) / (1.0 / np.sqrt(rho) + np.sqrt(rho)),
                     np.sqrt(2.0 * rho) / (1.0 + rho))
    return r, t, -1j * m


def response_arrays(
    params: CavityParams, pol: str, branch: AtomBranch, omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, T, m) over an array of detunings for one polarization and branch:
    coefficients() at that polarization's rates, with g = 0 on the
    Decoupled branch."""
    g, kappa, gamma = params.rates(pol)
    if branch is AtomBranch.DECOUPLED:
        g = 0.0
    return coefficients(g, kappa, gamma, omega)


def response(
    params: CavityParams, pol: str, branch: AtomBranch, omega: float
) -> SpectralResponse:
    """Cavity response coefficients at a single detuning.

    For the Coupled branch with gamma = 0 the point omega = 0 evaluates to the
    analytic limit (-1, 0, 0): the dressed cavity reflects perfectly.
    """
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    r, t, m = response_arrays(params, pol, branch, np.array([omega]))
    return SpectralResponse(complex(r[0]), complex(t[0]), complex(m[0]))

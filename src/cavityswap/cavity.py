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
    The forms are homogeneous of degree 0 in (g, kappa, gamma, omega), so
    every point is evaluated once, with its four values scaled by the power
    of two that brings the largest of those its form reads near 2**500.
    Scaling by a power of two is exact; at that scale no product overflows,
    and values down to 2**-1000 of the largest keep normal squares.
    Entries with g = 0 take the bare-cavity form, which does not read
    gamma: the emitter term vanishes identically, which also makes this
    the Decoupled branch.  The others use the dressed form with
    numerator and denominator multiplied through by (i*omega - gamma/2), so
    the removable singularity at omega = 0, gamma = 0 needs no special
    casing unless g^2 underflows.

    For real rates every coefficient satisfies c(-omega) = conj(c(omega)),
    bit for bit up to the sign of a zero part: negating omega flips signs
    through the same operations.
    """
    arrays = [np.asarray(a, dtype=float) for a in (g, kappa, gamma, omega)]
    point = np.empty((4, *np.broadcast(*arrays).shape))  # the four broadcast to one shape
    for i, array in enumerate(arrays):
        point[i] = array
    if not np.isfinite(point[3]).all():
        raise ValueError("omega must be finite")
    bare = point[0] == 0.0
    point[2] = np.where(bare, 0.0, point[2])  # the bare form does not read gamma
    _, top = np.frexp(np.abs(point).max(axis=0))
    g, kappa, gamma, omega = np.ldexp(point, 500 - top)
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
    d = i_omega - gamma / 2.0
    # At omega = 0 and gamma = 0 the denominator is -g^2, which is subnormal
    # or zero for g below about 2**-1000 of kappa, where the complex division
    # overflows or is 0/0.  The limit there is (-1, 0, 0), as for every
    # g > 0, and g^2 = 1 gives it.
    g2 = g * g
    g2 = np.where((omega == 0.0) & (gamma == 0.0) & (g2 < sys.float_info.min), 1.0, g2)
    denom = (kappa - i_omega) * d - g2
    out = []
    for part in parts:
        if part == "r":
            out.append((i_omega * d + g2) / denom)
        elif part == "t":
            out.append(kappa * d / denom)
        else:
            out.append(1j * np.sqrt(kappa * gamma) * g / denom)
    return tuple(out)


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

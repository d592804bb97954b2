"""Operating points: built-in presets, JSON preset files and the bandwidth
grammar.  Anything a parameter source gets wrong raises UsageError.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .cavity import CavityParams


class UsageError(Exception):
    """Bad arguments or unresolvable configuration."""


@dataclass(frozen=True)
class Preset:
    """Operating point; rates are (h, v) pairs in the tagged unit.

    Built in, loaded from a JSON file, or built from explicit --g/--kappa/
    --gamma flags, which give no name, unit or bandwidth rule.  Only rate
    ratios matter, so resolution divides everything by kappa_h.
    bandwidth_rule uses the same suffix grammar as --bandwidth: a bare number
    (multiples of kappa_h), '<x>kappa', or '<x>g2k' for x * g^2/kappa.
    """

    name: str | None
    g: tuple[float, float]
    kappa: tuple[float, float]
    gamma: tuple[float, float]
    unit: str | None = None
    bandwidth_rule: str | None = None

    def cavity_params(self) -> CavityParams:
        k = self.kappa[0]
        if not 0.0 < k < math.inf:
            raise UsageError(f"kappa_h must be positive and finite, got {k!r}")
        try:  # CavityParams takes its fields in this order; kappa_h / k is exactly 1
            return CavityParams(*(rate / k for rate in (*self.g, *self.kappa, *self.gamma)))
        except ValueError as exc:
            raise UsageError(str(exc))


BUILTIN_PRESETS = {
    "atomic": Preset("atomic", (32.0, 32.0), (4.2, 4.2), (2.6, 2.6), "2pi.MHz", "0.1kappa"),
    "solid-state": Preset(
        "solid-state", (0.66, 0.66), (6.0, 6.0), (0.001, 0.001), "2pi.THz", "0.1g2k"
    ),
}


def _pair(value, what: str) -> tuple[float, float]:
    """(h, v) rates from flag text 'x' or 'h,v', or a JSON number or [h, v] list."""
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, list):
        items = [items]
    try:
        rates = [float(item) for item in items]
    except (TypeError, ValueError, OverflowError):
        rates = []
    if len(rates) in (1, 2):
        return (rates[0], rates[-1])
    raise UsageError(f"{what} expects a number or an (h, v) pair, got {value!r}")


def load_preset(path: str) -> Preset:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, bad UTF-8, over-long integers
            raise UsageError(f"preset file {path!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"preset file {path!r} must hold a JSON object")
    missing = {"name", "g", "kappa", "gamma", "unit", "bandwidth_rule"} - set(data)
    if missing:
        raise UsageError(f"preset file {path!r} lacks fields: {sorted(missing)}")
    for field in ("name", "unit", "bandwidth_rule"):
        if not isinstance(data[field], str):
            raise UsageError(f"preset field {field!r} expects a string, got {data[field]!r}")
    for field in ("g", "kappa", "gamma"):
        items = data[field] if isinstance(data[field], list) else [data[field]]
        # float() would take True as 1.0, and _pair a string as flag text
        if any(isinstance(item, (bool, str)) for item in items):
            raise UsageError(f"preset field {field!r} expects JSON numbers, got {data[field]!r}")
    return Preset(
        data["name"],
        *(_pair(data[rate], f"preset field {rate!r}") for rate in ("g", "kappa", "gamma")),
        data["unit"],
        data["bandwidth_rule"],
    )


def parse_bandwidth(text: str, params: CavityParams) -> float:
    """Bandwidth in internal units (multiples of kappa_h) from suffixed text."""
    text = text.strip()
    prefix, scale = text, 1.0
    if text.endswith("kappa"):
        prefix = text[: -len("kappa")]
    elif text.endswith("g2k"):
        prefix = text[: -len("g2k")]
        try:
            scale = params.g_h**2 / params.kappa_h
        except OverflowError:
            scale = math.inf
    try:
        value = float(prefix)
    except ValueError:
        raise UsageError(f"cannot parse bandwidth {text!r}")
    bandwidth = value * scale  # NaN, overflow and underflow all fail below
    if not 0.0 < bandwidth < math.inf:
        raise UsageError(f"bandwidth {text!r} must resolve to a positive finite value")
    return bandwidth

"""Command-line front end.

Subcommands: coeffs (spectral response tables), metrics (single operating
point), sweep (parameter grids to CSV plus a plot sidecar), verify
(invariant suites), fingerprint (overlap-measurement statistics),
synthesize (bounded circuit search).

Exit codes: 0 success, 1 usage, 2 I/O, 3 verification failure, 4 time-budget
truncation.  Wall-clock timing goes to stderr only, so stdout and file
outputs are byte-identical across repeat runs with the same arguments and
seed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import cavity, channel, circuits, pulses
from .cavity import AtomBranch, CavityParams
from .pulses import PulseSpec, QuadratureConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4


class UsageError(Exception):
    """Bad arguments or unresolvable configuration."""


class VerificationFailure(Exception):
    """One or more invariant checks failed."""


class BudgetExceeded(Exception):
    """A time-budgeted run returned truncated results."""


# ---------------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class Preset:
    """Named operating point; rates are (h, v) pairs in the tagged unit.

    Only rate ratios matter, so resolution divides everything by kappa_h.
    bandwidth_rule uses the same suffix grammar as --bandwidth: a bare number
    (multiples of kappa_h), '<x>kappa', or '<x>g2k' for x * g^2/kappa.
    """

    name: str
    g: tuple[float, float]
    kappa: tuple[float, float]
    gamma: tuple[float, float]
    unit: str
    bandwidth_rule: str

    def cavity_params(self) -> CavityParams:
        k = self.kappa[0]
        if k <= 0:
            raise UsageError(f"preset {self.name!r} has non-positive kappa_h")
        return CavityParams(
            self.g[0] / k,
            self.g[1] / k,
            1.0,
            self.kappa[1] / k,
            self.gamma[0] / k,
            self.gamma[1] / k,
        )


BUILTIN_PRESETS = {
    "atomic": Preset("atomic", (32.0, 32.0), (4.2, 4.2), (2.6, 2.6), "2pi.MHz", "0.1kappa"),
    "solid-state": Preset(
        "solid-state", (0.66, 0.66), (6.0, 6.0), (0.001, 0.001), "2pi.THz", "0.1g2k"
    ),
}


def _json_pair(value, field):
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise UsageError(f"preset field {field!r} must be a number or an [h, v] pair")
        return (float(value[0]), float(value[1]))
    return (float(value), float(value))


def load_preset(path: str) -> Preset:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"preset file {path!r} is not valid JSON: {exc}")
    missing = {"name", "g", "kappa", "gamma", "unit", "bandwidth_rule"} - set(data)
    if missing:
        raise UsageError(f"preset file {path!r} lacks fields: {sorted(missing)}")
    return Preset(
        str(data["name"]),
        _json_pair(data["g"], "g"),
        _json_pair(data["kappa"], "kappa"),
        _json_pair(data["gamma"], "gamma"),
        str(data["unit"]),
        str(data["bandwidth_rule"]),
    )


def parse_bandwidth(text: str, params: CavityParams) -> float:
    """Bandwidth in internal units (multiples of kappa_h) from suffixed text."""
    text = text.strip()
    if text.endswith("kappa"):
        prefix, scale = text[: -len("kappa")], 1.0
    elif text.endswith("g2k"):
        prefix, scale = text[: -len("g2k")], params.g_h**2 / params.kappa_h
    else:
        prefix, scale = text, 1.0
    try:
        value = float(prefix)
    except ValueError:
        raise UsageError(f"cannot parse bandwidth {text!r}")
    if not (value > 0.0 and math.isfinite(value)) or scale <= 0.0:
        raise UsageError(f"bandwidth {text!r} must resolve to a positive value")
    return value * scale


def _rate_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{flag} expects a number or 'h,v' pair, got {text!r}")
    if len(values) == 1:
        return (values[0], values[0])
    if len(values) == 2:
        return (values[0], values[1])
    raise UsageError(f"{flag} expects one or two comma-separated values")


def _resolve_params(args) -> tuple[CavityParams, Preset | None]:
    preset = None
    if getattr(args, "preset", None):
        if args.preset not in BUILTIN_PRESETS:
            raise UsageError(
                f"unknown preset {args.preset!r}; built-ins: {sorted(BUILTIN_PRESETS)}"
            )
        preset = BUILTIN_PRESETS[args.preset]
    elif getattr(args, "preset_file", None):
        preset = load_preset(args.preset_file)
    if preset is not None:
        return preset.cavity_params(), preset
    if getattr(args, "g", None) is None:
        raise UsageError("provide --preset, --preset-file, or explicit --g/--kappa/--gamma")
    g = _rate_pair(args.g, "--g")
    kappa = _rate_pair(args.kappa, "--kappa") if args.kappa else (1.0, 1.0)
    gamma = _rate_pair(args.gamma, "--gamma") if args.gamma else (0.0, 0.0)
    k = kappa[0]
    if k <= 0:
        raise UsageError("--kappa must be positive")
    try:
        params = CavityParams(g[0] / k, g[1] / k, 1.0, kappa[1] / k, gamma[0] / k, gamma[1] / k)
    except ValueError as exc:
        raise UsageError(str(exc))
    return params, None


def _quad_config(args) -> QuadratureConfig:
    try:
        return QuadratureConfig(
            method=args.method, nodes=args.nodes, tolerance=args.tolerance
        )
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# output plumbing


@dataclass(frozen=True)
class RunReport:
    """Result of one invocation: echoed inputs, outputs, quadrature residual,
    seed.  Timing is never part of it — identical inputs and seed must emit
    identical bytes — so timing goes to stderr.
    """

    command: str
    inputs: dict
    outputs: dict
    residual: float | None = None
    seed: int | None = None

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "quadrature_residual": self.residual,
            "seed": self.seed,
        }


def _emit_text(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(out_path, header, rows) -> None:
    # one % template per row, cheaper than a format call per cell
    row_format = ",".join(["%.12e"] * len(header.split(",")))
    lines = [header]
    lines.extend(row_format % tuple(row) for row in rows)
    _emit_text(out_path, "\n".join(lines) + "\n")


def _echo_params(params: CavityParams, preset: Preset | None) -> dict:
    echoed = {
        "g_h": params.g_h,
        "g_v": params.g_v,
        "kappa_h": params.kappa_h,
        "kappa_v": params.kappa_v,
        "gamma_h": params.gamma_h,
        "gamma_v": params.gamma_v,
    }
    if preset is not None:
        echoed["preset"] = preset.name
    return echoed


def _emit_report(report: RunReport, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n")
        return
    for key, value in report.inputs.items():
        sys.stdout.write(f"# {key} = {value}\n")
    if report.seed is not None:
        sys.stdout.write(f"# seed = {report.seed}\n")
    for key, value in report.outputs.items():
        if isinstance(value, float):
            sys.stdout.write(f"{key} = {value:.9e}\n")
        else:
            sys.stdout.write(f"{key} = {value}\n")
    if report.residual is not None:
        sys.stdout.write(f"quadrature_residual = {report.residual:.9e}\n")


# ---------------------------------------------------------------------------
# subcommands

_COEFFS_HEADER = "omega,re_R,im_R,re_T,im_T,re_m,im_m,unitarity_residual"


def cmd_coeffs(args) -> int:
    params, _ = _resolve_params(args)
    branch = AtomBranch.COUPLED if args.branch == "coupled" else AtomBranch.DECOUPLED
    if not (args.omega_start < args.omega_stop) or args.omega_step <= 0:
        raise UsageError("need omega-start < omega-stop and omega-step > 0")
    omega = np.arange(args.omega_start, args.omega_stop + args.omega_step / 2, args.omega_step)
    r, t, m = cavity.response_arrays(params, args.pol, branch, omega)
    residual = np.abs(r) ** 2 + np.abs(t) ** 2 + np.abs(m) ** 2 - 1.0
    rows = zip(omega, r.real, r.imag, t.real, t.imag, m.real, m.imag, residual)
    _emit_csv(args.out, _COEFFS_HEADER, rows)
    return EXIT_OK


def cmd_metrics(args) -> int:
    params, preset = _resolve_params(args)
    bandwidth_text = args.bandwidth or (preset.bandwidth_rule if preset else None)
    if bandwidth_text is None:
        raise UsageError("--bandwidth is required when no preset supplies a rule")
    bandwidth = parse_bandwidth(bandwidth_text, params)
    quad = _quad_config(args)
    pulse = PulseSpec(bandwidth)
    try:
        result, residual = pulses.metrics_residual(params, pulse, quad)
    except (ValueError, ArithmeticError) as exc:
        # e.g. --nodes past what numpy's rule survives: the residual doubles it
        raise UsageError(f"cannot evaluate this operating point: {exc}")
    inputs = _echo_params(params, preset)
    inputs.update(bandwidth=bandwidth, method=quad.method, nodes=quad.nodes)
    outputs = {
        "loss_probability": result.loss_probability,
        "fidelity": result.fidelity,
    }
    _emit_report(RunReport("metrics", inputs, outputs, residual=residual), args.format)
    return EXIT_OK


def _parse_value_list(text: str, flag: str) -> list[float]:
    """'start:stop:count' linspace or comma-separated floats."""
    try:
        if ":" in text:
            start_s, stop_s, count_s = text.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
            if count < 1 or not (start < stop) or count > 100000:
                raise ValueError
            values = np.linspace(start, stop, count).tolist()
        else:
            values = [float(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects 'start:stop:count' or comma-separated numbers")
    if not values or any(not (math.isfinite(v) and v > 0) for v in values):
        raise UsageError(f"{flag} values must be positive and finite")
    return values


_SWEEP_HEADER = "g_over_kappa,dw_over_kappa,p,F"

_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Render loss/fidelity curves from the CSV written next to this script."""
import csv
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

CSV = %(csv)r
X_COL = %(x_col)r
FAMILY_COL = %(family_col)r

curves = {"p": defaultdict(list), "F": defaultdict(list)}
with open(CSV) as fh:
    for row in csv.DictReader(fh):
        family = float(row[FAMILY_COL])
        x = float(row[X_COL])
        for key in curves:
            curves[key][family].append((x, float(row[key])))

for key, families in curves.items():
    fig, ax = plt.subplots()
    for family in sorted(families):
        points = sorted(families[family])
        ax.plot([p[0] for p in points], [p[1] for p in points],
                label="%%s = %%g" %% (FAMILY_COL, family))
    ax.set_xlabel(X_COL)
    ax.set_ylabel(key)
    ax.legend()
    out = CSV.rsplit(".", 1)[0] + "_" + key + ".png"
    fig.savefig(out, dpi=150)
    print("wrote", out)
'''


def cmd_sweep(args) -> int:
    values = _parse_value_list(args.values, "--values")
    if args.axis == "bandwidth":
        bandwidths = values
        couplings = _parse_value_list(args.coupling or "3,6,10", "--coupling")
        x_col, family_col = "dw_over_kappa", "g_over_kappa"
    else:
        couplings = values
        bandwidths = _parse_value_list(args.bandwidth or "0.05,0.1", "--bandwidth")
        x_col, family_col = "g_over_kappa", "dw_over_kappa"
    if args.gamma <= 0 or not math.isfinite(args.gamma):
        raise UsageError("--gamma must be positive (units of kappa)")
    quad = _quad_config(args)
    rows = pulses.sweep(couplings, bandwidths, args.gamma, quad)
    for row in rows:
        if row.error:
            print(
                f"warning: point g={row.g_over_kappa:g} dw={row.bandwidth_over_kappa:g} "
                f"failed: {row.error}",
                file=sys.stderr,
            )
    table = (
        (r.g_over_kappa, r.bandwidth_over_kappa, r.loss_probability, r.fidelity)
        for r in rows
    )
    _emit_csv(args.out, _SWEEP_HEADER, table)
    if args.out:
        script = _PLOT_SCRIPT % {
            "csv": os.path.basename(args.out),
            "x_col": x_col,
            "family_col": family_col,
        }
        with open(args.out + ".plot.py", "w") as fh:
            fh.write(script)
    return EXIT_OK


def cmd_fingerprint(args) -> int:
    if not (1 <= args.n <= 8):
        raise UsageError("--n must be between 1 and 8")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    rng = np.random.default_rng(args.seed)
    if args.states == "orthogonal":
        psi = circuits.basis_state([0] * args.n)
        phi = circuits.basis_state([1] * args.n)
    else:
        psi = circuits.random_state(args.n, rng)
        phi = psi if args.states == "identical" else circuits.random_state(args.n, rng)
    exact = circuits.swap_test(psi, phi)
    draws = rng.random(args.trials) < exact
    frequency = float(np.mean(draws))
    std_error = math.sqrt(exact * (1.0 - exact) / args.trials)
    outputs = {
        "exact_p_minus": exact,
        "empirical_frequency": frequency,
        "recovered_overlap": math.sqrt(max(0.0, 1.0 - 2.0 * exact)),
        "standard_error": std_error,
    }
    inputs = {"n": args.n, "trials": args.trials, "states": args.states}
    _emit_report(RunReport("fingerprint", inputs, outputs, seed=args.seed), args.format)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    target = circuits.cpf_target() if args.target == "cpf" else circuits.czz_target()
    gate_set = tuple(part.strip() for part in args.gates.split(",") if part.strip())
    try:
        result = circuits.synthesize(
            target,
            args.cswaps,
            gate_set,
            allow_feedforward=args.feedforward,
            tol=args.tol,
            time_budget=args.time_budget,
        )
    except (circuits.SearchSpaceError, ValueError) as exc:
        raise UsageError(str(exc))
    for match in result.matches:
        sys.stdout.write(circuits.format_circuit(match.circuit) + "\n")
    sys.stdout.write(f"found = {len(result.matches)}\n")
    sys.stdout.write(f"search_space = {result.search_space}\n")
    if result.truncated:
        sys.stdout.write("TRUNCATED: time budget exceeded, results are partial\n")
        raise BudgetExceeded(f"stopped after {result.elapsed:.1f}s")
    return EXIT_OK


# ---------------------------------------------------------------------------
# invariant suites (cmd_verify)
#
# VERIFY_CHECKS is the one home of each invariant: cmd_verify runs it and the
# tests run the same entries.  A check passes by returning and fails by
# raising.  _require raises explicitly, so the checks keep holding under
# python -O, which strips assert statements.


def _require(condition, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _check_gate_norms():
    rng = np.random.default_rng(7)
    state = circuits.random_state(4, rng)
    gates = [
        circuits.H(0),
        circuits.X(1),
        circuits.Z(2),
        circuits.S(3),
        circuits.Sdag(0),
        circuits.Phase(0.7, 1),
        circuits.Phase(1.1, 2),
        circuits.CSWAP(0, 1, 2),
        circuits.CSWAP(3, 0, 2),
        circuits.CSWAP(1, 0, 3),
    ]
    for gate in gates:
        state = circuits.apply(state, gate)
        norm = float(np.linalg.norm(state.amplitudes))
        _require(abs(norm - 1.0) <= 1e-12, f"norm drifted to {norm!r} after {gate.kind}")


def _check_cswap_involution():
    for index in range(8):
        bits = [(index >> 2) & 1, (index >> 1) & 1, index & 1]
        state = circuits.basis_state(bits)
        twice = circuits.apply(
            circuits.apply(state, circuits.CSWAP(0, 1, 2)), circuits.CSWAP(0, 1, 2)
        )
        _require(np.array_equal(twice.amplitudes, state.amplitudes), f"CSWAP^2 != I on {bits}")


def _check_register_swap_permutation():
    for n in (1, 2, 3, 4):
        # distinct amplitudes tag the basis states, so one application shows
        # where each of them goes.  Index bits, most significant first: the
        # control (wire 0), register a, register b.
        dim = 2 ** (2 * n + 1)
        tags = np.arange(1.0, dim + 1.0)
        state = circuits.PureState(tags / np.linalg.norm(tags), 2 * n + 1)
        out = circuits.cswap_multi(state, 0, range(1, n + 1), range(n + 1, 2 * n + 1))
        index = np.arange(dim)
        control, reg_a, reg_b = index >> (2 * n), (index >> n) % 2**n, index % 2**n
        image = np.where(control == 1, (control << (2 * n)) | (reg_b << n) | reg_a, index)
        expected = np.empty(dim, dtype=complex)
        expected[image] = state.amplitudes
        _require(np.array_equal(out.amplitudes, expected), f"register swap wrong for n = {n}")


def _check_swap_test_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        psi = circuits.random_state(n, rng)
        phi = circuits.random_state(n, rng)
        got = circuits.swap_test(psi, phi)
        overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
        _require(abs(got - (1.0 - overlap) / 2.0) <= 1e-12, "swap test deviates from closed form")


def _check_phase_flip_branches():
    target = circuits.cpf_target()
    gates = [s for s in circuits.cpf_circuit().steps if isinstance(s, circuits.Gate)]
    unitary = circuits.circuit_unitary(gates, 3).reshape(2, 4, 2, 4)
    corrections = {0: np.eye(4), 1: np.kron([[1, 0], [0, -1]], [[1, 0], [0, -1]])}
    for outcome in (0, 1):
        block = (unitary[outcome, :, 0, :] + unitary[outcome, :, 1, :]) / math.sqrt(2.0)
        scale = math.sqrt(np.sum(np.abs(block) ** 2) / 4.0)
        _require(abs(scale**2 - 0.5) <= 1e-12, "branch probability is not 1/2")
        fixed = corrections[outcome] @ (block / scale)
        _require(
            circuits.equivalent_up_to_phase(fixed, target, 1e-12),
            f"branch {outcome} map deviates from the phase flip",
        )
    rng = np.random.default_rng(13)
    for _ in range(10):
        photons = circuits.random_state(2, rng)
        branches = circuits.cpf_feedforward(photons)
        _require(len(branches) == 2, f"{len(branches)} feed-forward branches, not 2")
        for b in branches:
            _require(abs(b.probability - 0.5) <= 1e-12, "branch probability drifted")


def _check_phase_flip_involution():
    rng = np.random.default_rng(17)
    photons = circuits.random_state(2, rng)
    for first in circuits.cpf_feedforward(photons):
        for second in circuits.cpf_feedforward(first.post_state):
            a = second.post_state.amplitudes
            b = photons.amplitudes
            k = int(np.argmax(np.abs(b)))
            phase = a[k] / b[k]
            _require(
                np.max(np.abs(a - phase * b)) <= 1e-12,
                "applying the phase flip twice is not the identity",
            )


def _check_equivalence_relation():
    rng = np.random.default_rng(19)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    equivalent = circuits.equivalent_up_to_phase
    for a, b, tol in (
        (mat, mat, 0.0),
        (mat, 1j * mat, 1e-15),
        (1j * mat, mat, 1e-15),
        (mat, np.exp(0.321j) * mat, 1e-14),
        (-mat, mat, 1e-14),
    ):
        _require(equivalent(a, b, tol), f"phase multiple rejected at tol {tol:g}")
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    zz_cz = np.diag([1.0, -1.0, -1.0, -1.0])
    _require(not equivalent(zz_cz, cz, 1e-9), "ZZ.CZ accepted as CZ")
    _require(not equivalent(mat, mat + 1e-6, 1e-9), "a 1e-6 perturbation accepted at tol 1e-9")


def _random_rates(rng) -> CavityParams:
    return CavityParams(
        g_h=float(rng.uniform(0.0, 12.0)),
        g_v=float(rng.uniform(0.0, 12.0)),
        kappa_h=1.0,
        kappa_v=float(rng.uniform(0.4, 2.5)),
        gamma_h=float(rng.uniform(0.0, 2.0)),
        gamma_v=float(rng.uniform(0.0, 2.0)),
    )


def _rate_draws(rng, count: int) -> list[CavityParams]:
    """count uniform draws, then the last one with g = 0, with gamma = 0 and
    with both zero: exact zeros that uniform draws never hit."""
    draws = [_random_rates(rng) for _ in range(count)]
    return draws + [
        replace(draws[-1], g_h=0.0, g_v=0.0),
        replace(draws[-1], gamma_h=0.0, gamma_v=0.0),
        replace(draws[-1], g_h=0.0, g_v=0.0, gamma_h=0.0, gamma_v=0.0),
    ]


def _check_flux_conservation():
    rng = np.random.default_rng(23)
    omega = np.linspace(-5.0, 5.0, 501)
    residuals = []
    for params in _rate_draws(rng, 20):
        for pol in ("h", "v"):
            for branch in (AtomBranch.COUPLED, AtomBranch.DECOUPLED):
                r, t, m = cavity.response_arrays(params, pol, branch, omega)
                residual = np.abs(r) ** 2 + np.abs(t) ** 2 + np.abs(m) ** 2 - 1.0
                residuals.append(np.max(np.abs(residual)))
    worst = float(np.max(residuals))  # NaN propagates and fails below
    _require(worst <= 1e-12, f"flux conservation violated, max residual {worst:.3e}")


def _check_decoupled_branch():
    params = CavityParams.symmetric(5.0, 1.0, 0.3)
    omega = np.linspace(-4.0, 4.0, 201)
    r, t, m = cavity.response_arrays(params, "h", AtomBranch.DECOUPLED, omega)
    _require(np.all(m == 0), "decoupled branch must have zero noise coefficient")
    residual = np.max(np.abs(np.abs(r) ** 2 + np.abs(t) ** 2 - 1.0))
    _require(residual <= 1e-12, "decoupled flux conservation violated")


def _check_conjugate_symmetry():
    # real time-domain kernels: r and t are conjugate-even in the detuning,
    # the loss amplitude m is conjugate-odd (it carries one factor of i g)
    rng = np.random.default_rng(29)
    omega = np.linspace(0.0, 5.0, 101)
    for params in _rate_draws(rng, 5):
        for pol in ("h", "v"):
            for branch in (AtomBranch.COUPLED, AtomBranch.DECOUPLED):
                rp, tp, mp = cavity.response_arrays(params, pol, branch, omega)
                rm, tm, mm = cavity.response_arrays(params, pol, branch, -omega)
                _require(np.max(np.abs(rm - rp.conj())) <= 1e-12, "reflection symmetry broken")
                _require(np.max(np.abs(tm - tp.conj())) <= 1e-12, "transmission symmetry broken")
                _require(np.max(np.abs(mm + mp.conj())) <= 1e-12, "noise symmetry broken")


def _check_narrowband_limits():
    params = CavityParams.symmetric(5.0, 1.0, 0.0)
    coupled = cavity.response(params, "h", AtomBranch.COUPLED, 1e-8)
    _require(abs(coupled.r + 1.0) <= 1e-6, "coupled narrowband reflection limit broken")
    decoupled = cavity.response(params, "h", AtomBranch.DECOUPLED, 1e-8)
    _require(abs(decoupled.t - 1.0) <= 1e-6, "decoupled narrowband transmission limit broken")


def _check_quadrature_cross():
    preset = BUILTIN_PRESETS["atomic"]
    params = preset.cavity_params()
    pulse = PulseSpec(0.1)
    gh = pulses.gate_metrics(params, pulse, QuadratureConfig())
    simpson = pulses.gate_metrics(
        params, pulse, QuadratureConfig(method=pulses.ADAPTIVE_SIMPSON, tolerance=1e-12)
    )
    _require(
        abs(gh.loss_probability - simpson.loss_probability) <= 1e-9,
        "quadrature schemes disagree on the loss probability",
    )
    _require(
        abs(gh.fidelity - simpson.fidelity) <= 1e-9,
        "quadrature schemes disagree on the fidelity",
    )


def _check_node_doubling():
    for preset in BUILTIN_PRESETS.values():
        params = preset.cavity_params()
        pulse = PulseSpec(parse_bandwidth(preset.bandwidth_rule, params))
        _, residual = pulses.metrics_residual(params, pulse, QuadratureConfig())
        _require(residual <= 1e-10, f"node doubling moves metrics by {residual:.3e}")


def _check_polarization_symmetry():
    params = CavityParams.symmetric(6.0, 1.0, 1.0)
    ov = pulses.overlaps(params, PulseSpec(0.08))
    _require(ov.reflect_prob_h == ov.reflect_prob_v, "h/v reflection probabilities differ")
    _require(ov.transmit_prob_h == ov.transmit_prob_v, "h/v transmission probabilities differ")
    _require(ov.reflect_overlap_h == ov.reflect_overlap_v, "h/v reflection overlaps differ")
    _require(ov.transmit_overlap_h == ov.transmit_overlap_v, "h/v transmission overlaps differ")


def _check_channel_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(5):
        params = CavityParams.symmetric(
            float(rng.uniform(0.5, 12.0)), 1.0, float(rng.uniform(0.0, 2.0))
        )
        pulse = PulseSpec(float(rng.uniform(0.005, 0.3)))
        closed = pulses.gate_metrics(params, pulse)
        rho = channel.apply_noisy_cswap(pulses.overlaps(params, pulse))
        _require(
            abs(channel.loss_probability(rho) - closed.loss_probability) <= 1e-9,
            "channel loss deviates from the closed form",
        )
        _require(
            abs(channel.fidelity(rho) - closed.fidelity) <= 1e-9,
            "channel fidelity deviates from the closed form",
        )


VERIFY_CHECKS = {
    "circuits": {
        "gate-norm-preservation": _check_gate_norms,
        "cswap-involution": _check_cswap_involution,
        "register-swap-permutation": _check_register_swap_permutation,
        "swap-test-closed-form": _check_swap_test_closed_form,
        "phase-flip-branches": _check_phase_flip_branches,
        "phase-flip-involution": _check_phase_flip_involution,
        "phase-equivalence-relation": _check_equivalence_relation,
    },
    "physics": {
        "flux-conservation": _check_flux_conservation,
        "decoupled-branch": _check_decoupled_branch,
        "conjugate-symmetry": _check_conjugate_symmetry,
        "narrowband-limits": _check_narrowband_limits,
        "quadrature-cross-check": _check_quadrature_cross,
        "quadrature-node-doubling": _check_node_doubling,
        "polarization-symmetry": _check_polarization_symmetry,
        "channel-closed-form": _check_channel_closed_form,
    },
}


def cmd_verify(args) -> int:
    checks = [
        (name, check)
        for suite, entries in VERIFY_CHECKS.items()
        if args.suite in (suite, "all")
        for name, check in entries.items()
    ]
    failed = []
    for name, check in checks:
        start = time.perf_counter()
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            failed.append(name)
        except Exception as exc:  # a check that crashes has not passed either
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failed.append(name)
        else:
            print(f"PASS {name}")
        # stderr, like elapsed_s: stdout stays byte-stable
        print(f"time {name} {time.perf_counter() - start:.6f}", file=sys.stderr)
    if failed:
        raise VerificationFailure(", ".join(failed))
    print(f"all {len(checks)} invariants passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and driver


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract wants 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="cavityswap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    params_parent = _Parser(add_help=False)
    params_parent.add_argument("--preset", help="built-in preset name (atomic, solid-state)")
    params_parent.add_argument("--preset-file", help="JSON preset file")
    params_parent.add_argument("--g", help="coupling rate, number or 'h,v' pair")
    params_parent.add_argument("--kappa", help="cavity decay rate (default 1)")
    params_parent.add_argument("--gamma", help="emission rate (default 0)")

    quad_parent = _Parser(add_help=False)
    quad_parent.add_argument(
        "--method",
        choices=pulses.METHODS,
        default=pulses.GAUSS_HERMITE,
    )
    quad_parent.add_argument("--nodes", type=int, default=64)
    quad_parent.add_argument("--tolerance", type=float, default=1e-12)

    p = sub.add_parser("coeffs", parents=[params_parent], help="spectral response table")
    p.add_argument("--branch", choices=["coupled", "decoupled"], default="coupled")
    p.add_argument("--pol", choices=["h", "v"], default="h")
    p.add_argument("--omega-start", type=float, default=-1.0)
    p.add_argument("--omega-stop", type=float, default=1.0)
    p.add_argument("--omega-step", type=float, default=0.01)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(handler=cmd_coeffs)

    p = sub.add_parser(
        "metrics", parents=[params_parent, quad_parent], help="loss and fidelity at one point"
    )
    p.add_argument("--bandwidth", help="pulse bandwidth, e.g. 0.1kappa, 0.1g2k, or absolute")
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser(
        "sweep", parents=[quad_parent], help="metrics over a parameter grid, CSV output"
    )
    p.add_argument("--axis", choices=["bandwidth", "coupling"], required=True)
    p.add_argument("--values", required=True, help="'start:stop:count' or comma list")
    p.add_argument("--coupling", help="fixed g/kappa family values (bandwidth axis)")
    p.add_argument("--bandwidth", help="fixed dw/kappa family values (coupling axis)")
    p.add_argument("--gamma", type=float, default=1.0, help="gamma/kappa (default 1)")
    p.add_argument("--out", help="CSV path; also writes <out>.plot.py")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("suite", choices=["circuits", "physics", "all"], nargs="?", default="all")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("fingerprint", help="overlap measurement statistics")
    p.add_argument("--n", type=int, default=3, help="register size (<= 8)")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--states", choices=["random", "identical", "orthogonal"], default="random")
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(handler=cmd_fingerprint)

    p = sub.add_parser("synthesize", help="bounded search over CSWAP circuits")
    p.add_argument("--target", choices=["cpf", "czz"], required=True)
    p.add_argument("--cswaps", type=int, required=True)
    p.add_argument("--gates", default="I,Z,S,Sdag,H")
    p.add_argument("--feedforward", action="store_true")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--time-budget", type=float, default=None, help="seconds")
    p.set_defaults(handler=cmd_synthesize)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    start = time.monotonic()
    try:
        code = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except BudgetExceeded as exc:
        print(f"time budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    # timing stays off stdout so repeated runs emit identical bytes
    print(f"elapsed_s {time.monotonic() - start:.3f}", file=sys.stderr)
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Command-line front end.

Subcommands: coeffs (spectral response tables), metrics (single operating
point), sweep (parameter grids to CSV plus a plot sidecar), verify
(invariant suites), fingerprint (overlap-measurement statistics),
synthesize (bounded circuit search).  Presets and preset files live in
:mod:`cavityswap.presets`, the invariants that verify runs in
:mod:`cavityswap.invariants`; this module parses flags, formats output and
maps errors to exit codes.  circuits, synthesis and invariants are imported
only by the subcommands that run them.

Exit codes: 0 success, 1 usage, 2 I/O, 3 verification failure, 4 time-budget
truncation.  Wall-clock timing goes to stderr only, so stdout and file
outputs are byte-identical across repeat runs with the same arguments and
seed.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict

import numpy as np

from . import cavity, pulses
from .cavity import AtomBranch
from .presets import BUILTIN_PRESETS, Preset, UsageError, _pair, load_preset, parse_bandwidth
from .pulses import PulseSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4

# rows of a coeffs table, or points on one sweep axis
MAX_GRID_POINTS = 100_000
# fingerprint draws held at once
_TRIAL_CHUNK = 1 << 20


def _resolve_params(args) -> Preset:
    """The operating point from exactly one source: a built-in preset, a
    preset file, or explicit rate flags."""
    explicit = any(flag is not None for flag in (args.g, args.kappa, args.gamma))
    # an empty --preset= or --preset-file= is a source too, and fails as one
    if sum((args.preset is not None, args.preset_file is not None, explicit)) > 1:
        raise UsageError("give one of --preset, --preset-file or --g/--kappa/--gamma")
    if args.preset is not None:
        if args.preset not in BUILTIN_PRESETS:
            raise UsageError(
                f"unknown preset {args.preset!r}; built-ins: {sorted(BUILTIN_PRESETS)}"
            )
        return BUILTIN_PRESETS[args.preset]
    if args.preset_file is not None:
        return load_preset(args.preset_file)
    if args.g is None:
        raise UsageError("provide --preset, --preset-file, or explicit --g/--kappa/--gamma")
    return Preset(
        None, _pair(args.g, "--g"), _pair("1" if args.kappa is None else args.kappa, "--kappa"),
        _pair("0" if args.gamma is None else args.gamma, "--gamma"),
    )


# ---------------------------------------------------------------------------
# output plumbing


@contextlib.contextmanager
def _writer(out_path: str | None):
    """A write function for the --out file, or for stdout when it is omitted."""
    if out_path is None:
        yield sys.stdout.write
        return
    with open(out_path, "w") as fh:
        yield fh.write


# '%.12e' cells from arrays, byte for byte what printf writes.  A finite |x|
# in [1e-30, 1e30) is scaled to the 13-digit integer part of its mantissa,
# x * 10**(12 - e), by at most two correctly rounded products or quotients
# with exact powers of ten, so the scaled value m is within m * 2**-52 of
# the true one.  Where m lies within m * 2**-50 of a half, rint could round
# the other way than printf (every exact decimal tie lands there); those
# cells, zeros, non-finite values and values outside the range take
# Python's own '%.12e'.
_FAST_RANGE = (1e-30, 1e30)
# x * 10**(12 - e) as x * up / down * more, with up, down and more exact
# powers of ten of which at most two differ from 1, for each e =
# floor(log10|x|) the range gives: -31 ... 30, as log10 rounds
_E_MIN = -31
_POW10 = [float(10**k) for k in range(23)]
_SCALE_UP, _SCALE_DOWN, _SCALE_MORE = np.array([
    [_POW10[min(k, 22)] if k >= 0 else 1.0, _POW10[-k] if k < 0 else 1.0,
     _POW10[k - 22] if k > 22 else 1.0]
    for k in (12 - e for e in range(_E_MIN, 31))
]).T.copy()


def _word(text: str) -> int:
    return int.from_bytes(text.encode(), "little")


# A cell is five little-endian uint32 words, each looked up in one table: a
# zero byte, the sign byte (zero for a positive value), the leading digit
# and the point; three words of four digits; "e-dd" or "e+dd".  The table
# is built from small arrays, which leave glibc's mmap threshold and so the
# heap as they were.
_n = np.arange(10_000, dtype=np.uint32)
_WORDS = np.concatenate([
    sum((_n // 10 ** (3 - i) % 10 + ord("0")) << 8 * i for i in range(4)),  # "0000" ... "9999"
    [_word(f"\0{sign}{d}.") for sign in ("\0", "-") for d in range(10)],
    [_word(f"e{e:+03d}") for e in range(-99, 100)],
]).astype("<u4")
del _n
_HEAD = 10_000  # + leading digit, + 10 if negative
_EXPONENT = _HEAD + 20 + 99  # + exponent
# the leading digit and the three groups as floor(digits / divisor), less
# ten thousand times the one before
_GROUP_DIVISORS = np.array([1e12, 1e8, 1e4, 1.0])[:, None]
_CELL = 20  # the widest '%.12e' cell, as in -1.000000000000e+200


def _e12_cells(values: np.ndarray) -> np.ndarray:
    """The '%.12e' cells of float64 values as a uint8 matrix, one cell per
    row, right-aligned behind zero bytes to the widest cell."""
    magnitude = np.abs(values)
    fast = (magnitude >= _FAST_RANGE[0]) & (magnitude < _FAST_RANGE[1])
    magnitude[~fast] = 1.0
    exponent = np.floor(np.log10(magnitude)).astype(np.intp)
    index = exponent - _E_MIN
    mantissa = magnitude * _SCALE_UP[index] / _SCALE_DOWN[index] * _SCALE_MORE[index]
    digits = np.rint(mantissa)
    # log10 rounds, so the exponent can be one off next to a power of ten
    fast &= (mantissa >= 1e12) & (mantissa < 1e13)
    fast &= np.abs(mantissa - digits) < 0.5 - mantissa * 2.0**-50
    carry = np.flatnonzero(digits == 1e13)
    digits[carry] = 1e12
    exponent[carry] += 1
    negative = np.signbit(values)
    # every quotient is exact: the digits are integers below 2**53
    words = np.empty((5, len(values)), np.intp)
    words[:4] = np.floor(digits / _GROUP_DIVISORS)
    words[1:4] -= 10_000 * words[:3]
    words[0] += _HEAD + 10 * negative
    words[4] = exponent + _EXPONENT
    cells = _WORDS.take(words.T).view(np.uint8)
    width = 19 if (negative & fast).any() else 18 if fast.any() else 0
    slow = np.flatnonzero(~fast)
    if slow.size:
        # "%20.12e" right-aligns each cell in _CELL characters with spaces,
        # which no cell holds
        texts = ("%20.12e" * slow.size % tuple(values[slow].tolist())).encode()
        padded = np.frombuffer(texts.replace(b" ", b"\0"), np.uint8).reshape(-1, _CELL)
        width = max(width, int(np.count_nonzero(padded, axis=1).max()))
        cells[slow] = padded
    return cells[:, _CELL - width:]


# rows per block: the working buffers stay small next to a whole grid
_CSV_BLOCK_ROWS = 1024


def _emit_csv(out_path, header, columns) -> None:
    """Write a CSV of '%.12e' cells in blocks of rows.

    Each column is a pair (values, repeat) of a float array and a run
    length: row r holds values[(r // repeat) % len(values)], so a grid
    axis is formatted once and its cells repeated or tiled, and the
    columns with a value per row are formatted a block at a time.
    """
    n_rows = max(len(values) * repeat for values, repeat in columns)
    axes = [None if len(values) == n_rows else np.ascontiguousarray(_e12_cells(values))
            for values, _ in columns]
    per_row = [values for values, _ in columns if len(values) == n_rows]
    with _writer(out_path) as write:
        write(header + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, n_rows)
            rows = np.arange(start, stop)
            # one formatter call for every per-row column of the block
            own = iter(np.split(_e12_cells(np.concatenate([v[start:stop] for v in per_row])),
                                len(per_row)))
            write(_joined([
                next(own) if axis is None else axis.take(rows // repeat % len(axis), axis=0)
                for (_, repeat), axis in zip(columns, axes)
            ]))


def _joined(parts) -> str:
    """Rows of comma-separated cells from one cell matrix per column."""
    widths = [part.shape[1] for part in parts]
    block = np.empty((len(parts[0]), sum(widths) + len(widths)), np.uint8)
    column = 0
    for part, width in zip(parts, widths):
        block[:, column:column + width] = part
        block[:, column + width] = ord(",")
        column += width + 1
    block[:, -1] = ord("\n")
    text = block.tobytes()
    # only a cell narrower than its column leaves zero bytes
    if b"\0" in text:
        text = text.replace(b"\0", b"")
    return text.decode("ascii")


def _emit_report(fmt, command, inputs, outputs, residual=None, seed=None) -> None:
    # timing is never part of a report: identical inputs and seed must emit
    # identical bytes, so timing goes to stderr
    if fmt == "json":
        report = dict(command=command, inputs=inputs, outputs=outputs,
                      quadrature_residual=residual, seed=seed)
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return
    for key, value in inputs.items():
        sys.stdout.write(f"# {key} = {value}\n")
    if seed is not None:
        sys.stdout.write(f"# seed = {seed}\n")
    for key, value in outputs.items():
        sys.stdout.write(f"{key} = {value:.9e}\n")
    if residual is not None:
        sys.stdout.write(f"quadrature_residual = {residual:.9e}\n")


# ---------------------------------------------------------------------------
# subcommands

_COEFFS_HEADER = "omega,re_R,im_R,re_T,im_T,re_m,im_m,unitarity_residual"


def cmd_coeffs(args) -> int:
    params = _resolve_params(args).cavity_params()
    branch = AtomBranch.COUPLED if args.branch == "coupled" else AtomBranch.DECOUPLED
    start, step = args.omega_start, args.omega_step
    end = args.omega_stop + step / 2  # exclusive: an omega-stop on the grid is a row
    if not all(map(math.isfinite, (start, end, step, end - start))):
        raise UsageError("omega-start, omega-stop, omega-step and their span must be finite")
    if not (start < args.omega_stop) or step <= 0:
        raise UsageError("need omega-start < omega-stop and omega-step > 0")
    if (end - start) / step > MAX_GRID_POINTS:  # np.arange's length, before it allocates
        raise UsageError(f"the omega grid would exceed {MAX_GRID_POINTS} rows")
    # end admits a row up to half a step past omega-stop: drop the rows
    # whose grid index lies past it by more than rounding
    rows = math.floor((args.omega_stop - start) / step * (1 + 1e-9)) + 1
    omega = np.arange(start, end, step)[:rows]
    r, t, m = cavity.response_arrays(params, args.pol, branch, omega)
    columns = (omega, r.real, r.imag, t.real, t.imag, m.real, m.imag, cavity.flux_residual(r, t, m))
    _emit_csv(args.out, _COEFFS_HEADER, [(column, 1) for column in columns])
    return EXIT_OK


def cmd_metrics(args) -> int:
    point = _resolve_params(args)
    params = point.cavity_params()
    bandwidth_text = point.bandwidth_rule if args.bandwidth is None else args.bandwidth
    if bandwidth_text is None:
        raise UsageError("--bandwidth is required when no preset supplies a rule")
    bandwidth = parse_bandwidth(bandwidth_text, params)
    pulse = PulseSpec(bandwidth)
    try:
        result, residual = pulses.metrics_residual(params, pulse)
    except (ValueError, ArithmeticError) as exc:
        # e.g. the exact rule's NaN averages at bandwidth 1e-160
        raise UsageError(f"cannot evaluate this operating point: {exc}")
    inputs = asdict(params)  # field order is the echo order
    if point.name is not None:
        inputs["preset"] = point.name
    inputs.update(bandwidth=bandwidth, method=args.method)
    outputs = {
        "loss_probability": result.loss_probability,
        "fidelity": result.fidelity,
    }
    _emit_report(args.format, "metrics", inputs, outputs, residual=residual)
    return EXIT_OK


def _out_path(text: str) -> str:
    # an empty --out= is refused, never read as the flag's absence
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def _parse_value_list(text: str, flag: str) -> list[float]:
    """'start:stop:count' linspace or comma-separated floats."""
    try:
        if ":" in text:
            start_s, stop_s, count_s = text.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
            if count < 1 or not (start < stop) or count > MAX_GRID_POINTS:
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
        couplings = _parse_value_list(args.coupling, "--coupling")
        x_col, family_col = "dw_over_kappa", "g_over_kappa"
    else:
        couplings = values
        bandwidths = _parse_value_list(args.bandwidth, "--bandwidth")
        x_col, family_col = "g_over_kappa", "dw_over_kappa"
    if not (args.gamma >= 0 and math.isfinite(args.gamma)):
        raise UsageError("--gamma must be non-negative and finite (units of kappa)")
    if len(couplings) * len(bandwidths) > MAX_GRID_POINTS:  # before the grid is built
        raise UsageError(f"the sweep grid would exceed {MAX_GRID_POINTS} points")
    couplings, bandwidths, loss, fidelity, errors = pulses.sweep_grid(
        couplings, bandwidths, args.gamma
    )
    g_values, dw_values = couplings.tolist(), bandwidths.tolist()
    for i, j, error in errors:
        print(f"warning: point g={g_values[i]:g} dw={dw_values[j]:g} failed: {error}", file=sys.stderr)
    # the rows run over the product of the sorted axes, g-major
    _emit_csv(args.out, _SWEEP_HEADER, [
        (couplings, len(bandwidths)), (bandwidths, 1), (loss.ravel(), 1), (fidelity.ravel(), 1),
    ])
    if args.out is not None:
        script = _PLOT_SCRIPT % {
            "csv": os.path.basename(args.out),
            "x_col": x_col,
            "family_col": family_col,
        }
        with open(args.out + ".plot.py", "w") as fh:
            fh.write(script)
    return EXIT_OK


def cmd_fingerprint(args) -> int:
    from . import circuits

    if not (1 <= args.n <= 8):
        raise UsageError("--n must be between 1 and 8")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    rng = np.random.default_rng(args.seed)
    if args.states == "orthogonal":
        psi = circuits.basis_state([0] * args.n)
        phi = circuits.basis_state([1] * args.n)
    else:
        psi = circuits.random_state(args.n, rng)
        phi = psi if args.states == "identical" else circuits.random_state(args.n, rng)
    exact = circuits.swap_test(psi, phi)
    # the draws of one rng.random(trials) call, taken a chunk at a time
    hits = 0
    for lo in range(0, args.trials, _TRIAL_CHUNK):
        hits += int(np.count_nonzero(rng.random(min(_TRIAL_CHUNK, args.trials - lo)) < exact))
    frequency = hits / args.trials
    std_error = math.sqrt(exact * (1.0 - exact) / args.trials)
    outputs = {
        "exact_p_minus": exact,
        "empirical_frequency": frequency,
        "recovered_overlap": math.sqrt(max(0.0, 1.0 - 2.0 * exact)),
        "standard_error": std_error,
    }
    inputs = {"n": args.n, "trials": args.trials, "states": args.states}
    _emit_report(args.format, "fingerprint", inputs, outputs, seed=args.seed)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    from . import circuits, synthesis

    target = circuits.cpf_target() if args.target == "cpf" else circuits.czz_target()
    gate_set = tuple(part.strip() for part in args.gates.split(",") if part.strip())
    try:
        result = synthesis.synthesize(
            target,
            args.cswaps,
            gate_set,
            allow_feedforward=args.feedforward,
            tol=args.tol,
            time_budget=args.time_budget,
        )
    except (synthesis.SearchSpaceError, ValueError) as exc:
        raise UsageError(str(exc))
    for match in result.matches:
        sys.stdout.write(match.line + "\n")
    sys.stdout.write(f"found = {len(result.matches)}\n")
    sys.stdout.write(f"search_space = {result.search_space}\n")
    if result.truncated:
        sys.stdout.write("TRUNCATED: time budget exceeded, results are partial\n")
        print(f"time budget exceeded: stopped after {result.elapsed:.1f}s", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import invariants

    checks = [
        (name, check)
        for suite, entries in invariants.VERIFY_CHECKS.items()
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
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(checks)} invariants passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and driver


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern, set per instance, has no exponent: "-1e-3"
        # would read as an option instead of a value
        self._negative_number_matcher = re.compile(r"^-(?:\d+|\d*\.\d+)(?:[eE][-+]?\d+)?$")

    def error(self, message):  # argparse would exit 2; the contract wants 1
        raise UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: parse_args leaves it unchanged."""
    parser = _Parser(prog="cavityswap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    params_parent = _Parser(add_help=False)
    params_parent.add_argument("--preset", help="built-in preset name (atomic, solid-state)")
    params_parent.add_argument("--preset-file", help="JSON preset file")
    params_parent.add_argument("--g", help="coupling rate, number or 'h,v' pair")
    params_parent.add_argument("--kappa", help="cavity decay rate (default 1)")
    params_parent.add_argument("--gamma", help="emission rate (default 0)")

    quad_parent = _Parser(add_help=False)
    # the one rule the commands run; adaptive Simpson, the reference that
    # verify checks it against, is reached through the Python API only
    quad_parent.add_argument("--method", choices=[pulses.EXACT], default=pulses.EXACT)
    # the node count of a quadrature rule the package no longer has:
    # still accepted, so that scripts passing it keep working, and ignored
    quad_parent.add_argument("--nodes", type=int, help=argparse.SUPPRESS)

    p = sub.add_parser("coeffs", parents=[params_parent], help="spectral response table")
    p.add_argument("--branch", choices=["coupled", "decoupled"], default="coupled")
    p.add_argument("--pol", choices=["h", "v"], default="h")
    p.add_argument("--omega-start", type=float, default=-1.0)
    p.add_argument("--omega-stop", type=float, default=1.0)
    p.add_argument("--omega-step", type=float, default=0.01)
    p.add_argument("--out", type=_out_path, help="CSV path (stdout when omitted)")
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
    p.add_argument(
        "--coupling", default="3,6,10", help="fixed g/kappa family values (bandwidth axis)"
    )
    p.add_argument(
        "--bandwidth", default="0.05,0.1", help="fixed dw/kappa family values (coupling axis)"
    )
    p.add_argument("--gamma", type=float, default=1.0, help="gamma/kappa (default 1)")
    p.add_argument("--out", type=_out_path, help="CSV path; also writes <out>.plot.py")
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
    if code == EXIT_OK:
        # timing stays off stdout so repeated runs emit identical bytes
        print(f"elapsed_s {time.monotonic() - start:.3f}", file=sys.stderr)
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

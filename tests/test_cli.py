"""Command-line behavior: exit codes, formats, determinism."""
import ast
import hashlib
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavityswap import cavity, circuits, cli, pulses
from cavityswap.cavity import AtomBranch, CavityParams
from cavityswap.cli import EXIT_BUDGET, EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, run
from cavityswap.presets import BUILTIN_PRESETS, UsageError, parse_bandwidth

# the reference rule, reached through the Python API only
SIMPSON = pulses.QuadratureConfig(method=pulses.ADAPTIVE_SIMPSON)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return lines[0], rows


# ---------------------------------------------------------------------------
# bandwidth grammar and presets


def test_parse_bandwidth_suffixes():
    params = CavityParams.symmetric(0.11, 1.0, 0.001)
    assert parse_bandwidth("0.25", params) == pytest.approx(0.25)
    assert parse_bandwidth("0.1kappa", params) == pytest.approx(0.1)
    assert parse_bandwidth("0.1g2k", params) == pytest.approx(0.1 * 0.11**2)
    for bad in ("kappa", "0.1q2k", "-1kappa", "0kappa", "inf"):
        with pytest.raises(UsageError):
            parse_bandwidth(bad, params)


def test_builtin_presets_normalize_rates():
    atomic = BUILTIN_PRESETS["atomic"].cavity_params()
    assert atomic.kappa_h == 1.0
    assert atomic.g_h == pytest.approx(32.0 / 4.2)
    assert atomic.gamma_h == pytest.approx(2.6 / 4.2)
    solid = BUILTIN_PRESETS["solid-state"].cavity_params()
    assert solid.g_h == pytest.approx(0.66 / 6.0)
    assert solid.gamma_h == pytest.approx(0.001 / 6.0)


def test_preset_file_roundtrip(tmp_path, capsys):
    payload = {
        "name": "custom",
        "g": [5.0, 4.0],
        "kappa": 2.0,
        "gamma": [0.1, 0.2],
        "unit": "2pi.GHz",
        "bandwidth_rule": "0.05kappa",
    }
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(payload))
    assert run(["metrics", "--preset-file", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# preset = custom" in out
    assert "# g_h = 2.5" in out  # 5.0 / kappa_h
    assert "# g_v = 2.0" in out


def test_preset_file_errors(tmp_path):
    missing = tmp_path / "missing.json"
    assert run(["metrics", "--preset-file", str(missing)]) == EXIT_IO
    # an empty path names a file like any other
    assert run(["metrics", "--preset-file="]) == EXIT_IO
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["metrics", "--preset-file", str(bad)]) == EXIT_USAGE
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"name": "x", "g": 1.0}))
    assert run(["metrics", "--preset-file", str(incomplete)]) == EXIT_USAGE


PRESET_PAYLOAD = {
    "name": "custom",
    "g": [5.0, 4.0],
    "kappa": [2.0, 1.5],
    "gamma": [0.1, 0.3],
    "unit": "2pi.GHz",
    "bandwidth_rule": "0.05kappa",
}


def _preset_file(tmp_path, stem, **fields):
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps({**PRESET_PAYLOAD, **fields}))
    return str(path)


def _assert_one_usage_error(argv, capsys):
    assert run(argv) == EXIT_USAGE, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:"), (argv, captured.err)
    return err[0]


def test_rejected_inputs_are_one_usage_error(tmp_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the omega grid was allocated")

    # every rejected grid fails before np.arange, whatever size it asks for
    monkeypatch.setattr(cli.np, "arange", no_grid)
    bare = tmp_path / "bare.json"
    bare.write_text("5")
    valid = _preset_file(tmp_path, "valid")
    cases = [
        # bandwidths that overflow or underflow
        ["metrics", "--g", "1e200", "--bandwidth", "0.1g2k"],
        ["metrics", "--g", "10", "--bandwidth", "1e307g2k"],
        ["metrics", "--g", "1e-150", "--bandwidth", "1e-100g2k"],
        # coeffs grids: not finite, huge, one row over the cap
        ["coeffs", "--g", "1", "--omega-step", "nan"],
        ["coeffs", "--g", "1", "--omega-stop", "inf"],
        ["coeffs", "--g", "1", "--omega-start=-1e308", "--omega-stop", "1e308"],
        ["coeffs", "--g", "1", "--omega-stop", "1e6", "--omega-step", "1e-3"],
        ["coeffs", "--g", "1", "--omega-start", "0", "--omega-stop", "100000",
         "--omega-step", "1"],
        # more than one parameter source, an empty --preset= or
        # --preset-file= counting as one
        ["metrics", "--preset", "atomic", "--g", "5", "--kappa", "2"],
        ["metrics", "--preset=", "--g", "3", "--bandwidth", "0.1"],
        ["metrics", "--preset-file=", "--preset", "atomic"],
        ["metrics", "--preset", "atomic", "--preset-file", valid],
        ["metrics", "--preset-file", valid, "--gamma", "0.1"],
        ["coeffs", "--preset", "solid-state", "--kappa", "2"],
        # explicit flags the record refuses
        ["metrics", "--g", "5", "--kappa", "-1", "--bandwidth", "0.1"],
        ["metrics", "--g", "5,4,3", "--bandwidth", "0.1"],
        # preset files
        ["metrics", "--preset-file", _preset_file(tmp_path, "negative", g=-1)],
        ["metrics", "--preset-file", _preset_file(tmp_path, "nan", g=float("nan"))],
        ["metrics", "--preset-file", _preset_file(tmp_path, "null", g=None)],
        ["metrics", "--preset-file", _preset_file(tmp_path, "text", g="abc")],
        ["metrics", "--preset-file", _preset_file(tmp_path, "triple", g=[1, 2, 3])],
        ["metrics", "--preset-file", _preset_file(tmp_path, "zero-kappa", kappa=0)],
        ["metrics", "--preset-file", str(bare)],
        # adaptive Simpson is a Python-API reference only
        ["metrics", "--preset", "atomic", "--method", "adaptive-simpson"],
        ["sweep", "--axis", "coupling", "--values", "2", "--method", "adaptive-simpson"],
    ]
    for argv in cases:
        _assert_one_usage_error(argv, capsys)
    # JSON booleans and strings are not rates, and the text fields must be
    # strings; the one error line names the field
    for field, value in (("g", True), ("kappa", [1, True]), ("gamma", False),
                         ("g", "5,4"), ("g", ["1", "2"]),
                         ("name", None), ("unit", 2), ("bandwidth_rule", [0.1])):
        argv = ["metrics", "--preset-file", _preset_file(tmp_path, field, **{field: value})]
        assert repr(field) in _assert_one_usage_error(argv, capsys)


def test_coeffs_grid_cap_is_inclusive(tmp_path):
    # np.arange(0, 199999 + 1, 2): the length quotient is exactly the cap
    out = tmp_path / "cap.csv"
    argv = ["coeffs", "--g", "1", "--omega-start", "0", "--omega-stop", "199999",
            "--omega-step", "2", "--out", str(out)]
    assert run(argv) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + cli.MAX_GRID_POINTS


@pytest.mark.parametrize("params,step,count,last", [
    # the rows end before the next grid point, 1.1
    (["--g", "1"], "0.3", 7, 0.8000000000000003),
    (["--g", "1"], "0.7", 3, 0.3999999999999999),
    # the README command: the on-grid stop is a row, at arange's value
    (["--preset", "atomic", "--branch", "coupled"], "0.01", 201, 1.0000000000000018),
])
def test_coeffs_rows_run_from_start_to_stop(monkeypatch, capsys, params, step, count, last):
    seen = []
    response_arrays = cavity.response_arrays

    def recorded(params, pol, branch, omega):
        seen.append(omega)
        return response_arrays(params, pol, branch, omega)

    monkeypatch.setattr(cavity, "response_arrays", recorded)
    argv = ["coeffs", *params, "--omega-start", "-1", "--omega-stop", "1", "--omega-step", step]
    assert run(argv) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(seen[0]) == count
    assert seen[0][-1] == last
    assert rows[-1].startswith(f"{last:.12e},")


def test_explicit_flags_match_an_equivalent_preset_file(tmp_path, capsys):
    flags = ["--g", "5,4", "--kappa", "2,1.5", "--gamma", "0.1,0.3", "--bandwidth", "0.05kappa"]
    for fmt in ("plain", "json"):
        assert run(["metrics", *flags, "--format", fmt]) == EXIT_OK
        explicit = capsys.readouterr().out
        assert run(["metrics", "--preset-file", _preset_file(tmp_path, "p"), "--format", fmt]) \
            == EXIT_OK
        from_file = capsys.readouterr().out
        if fmt == "json":
            explicit, from_file = json.loads(explicit), json.loads(from_file)
            assert from_file["inputs"].pop("preset") == "custom"
        else:
            assert "# preset = custom\n" in from_file
            from_file = from_file.replace("# preset = custom\n", "")
        assert explicit == from_file


# ---------------------------------------------------------------------------
# metrics


def test_metrics_plain_output(capsys):
    assert run(["metrics", "--preset", "atomic"]) == EXIT_OK
    captured = capsys.readouterr()
    values = {}
    for line in captured.out.splitlines():
        if line.startswith("#"):
            continue
        key, _, text = line.partition(" = ")
        values[key] = float(text)
    assert values["loss_probability"] == pytest.approx(0.0130034, abs=1e-6)
    assert values["fidelity"] == pytest.approx(0.9975193, abs=1e-6)
    assert values["quadrature_residual"] <= 1e-12
    assert "elapsed_s" in captured.err
    assert "elapsed_s" not in captured.out


def test_metrics_json_output(capsys):
    assert run(["metrics", "--preset", "solid-state", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "metrics"
    assert payload["inputs"]["preset"] == "solid-state"
    assert payload["outputs"]["loss_probability"] == pytest.approx(0.0159204, abs=1e-6)
    assert payload["outputs"]["fidelity"] == pytest.approx(0.9975528, abs=1e-6)


def test_metrics_explicit_rates_and_zero_coupling(capsys):
    assert run(["metrics", "--g", "0", "--gamma", "0", "--bandwidth", "1e-4kappa"]) == EXIT_OK
    out = capsys.readouterr().out
    loss = [l for l in out.splitlines() if l.startswith("loss_probability")][0]
    assert float(loss.split(" = ")[1]) == pytest.approx(0.5, abs=1e-6)


def test_metrics_at_coincident_poles(capsys):
    """4 g^2 = (kappa - gamma/2)^2: the two poles of the Coupled branch
    coincide.  A 30-digit mpmath quadrature gives F = 0.8097553740599527."""
    assert run(["metrics", "--g", "0.125", "--kappa", "1", "--gamma", "1.5",
                "--bandwidth", "0.022"]) == EXIT_OK
    assert "fidelity = 8.097553741e-01" in capsys.readouterr().out.splitlines()


def test_metrics_usage_errors(capsys):
    assert run(["metrics", "--preset", "nonexistent"]) == EXIT_USAGE
    assert "unknown preset" in capsys.readouterr().err
    assert run(["metrics", "--preset="]) == EXIT_USAGE
    assert "unknown preset ''" in capsys.readouterr().err
    # no preset rule and no --bandwidth: nothing fixes the pulse width
    assert run(["metrics", "--g", "5", "--kappa", "1", "--gamma", "0.1"]) == EXIT_USAGE
    # explicit rates absent entirely
    assert run(["metrics", "--bandwidth", "0.1"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["metrics", "--g", "3", "--kappa=", "--gamma=", "--bandwidth", "0.1"],
    ["metrics", "--g", "3", "--kappa=", "--bandwidth", "0.1"],
    ["metrics", "--g", "3", "--gamma=", "--bandwidth", "0.1"],
    ["metrics", "--preset", "atomic", "--bandwidth="],
    ["sweep", "--axis", "bandwidth", "--values", "0.1", "--coupling="],
    ["sweep", "--axis", "coupling", "--values", "3", "--bandwidth="],
    ["coeffs", "--g", "1", "--out="],
    ["sweep", "--axis", "coupling", "--values", "1", "--out="],
], ids=lambda argv: " ".join(argv))
def test_an_empty_flag_value_is_a_usage_error(argv, capsys):
    # an empty value is refused, never read as the flag's absence and its default
    _assert_one_usage_error(argv, capsys)


def test_metrics_at_huge_couplings_under_the_exact_rule(capsys):
    """Each rate row is scaled by its largest rate, so no square of a rate
    overflows: g = 1e200 kappa prints adaptive Simpson's gate_metrics in
    every printed digit, and a v row with g_v = 4e200 kappa_v evaluates."""
    assert run(["metrics", "--g", "1e200", "--bandwidth", "0.1"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    simpson = pulses.gate_metrics(
        CavityParams.symmetric(1e200, 1.0, 0.0), pulses.PulseSpec(0.1), SIMPSON
    )
    assert [line for line in lines if line.startswith(("loss", "fidelity"))] == [
        f"loss_probability = {simpson.loss_probability:.9e}",
        f"fidelity = {simpson.fidelity:.9e}",
    ] == [
        "loss_probability = 2.478401491e-03",
        "fidelity = 9.975200591e-01",
    ]
    assert run(["metrics", "--g", "5,4", "--kappa", "1,1e-200", "--gamma", "0.1,1e-201",
                "--bandwidth", "0.1"]) == EXIT_OK
    assert "loss_probability = 5.019963986e-01" in capsys.readouterr().out.splitlines()


def test_help_offers_only_the_exact_rule(capsys):
    """The exact rule is the only choice of --method, and --tolerance, the
    error target of adaptive Simpson, is gone with it."""
    for command in ("metrics", "sweep"):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        out = capsys.readouterr().out
        assert "--method {exact}" in out
        assert "--tolerance" not in out
    argv = ["metrics", "--preset", "atomic", "--method", "adaptive-simpson"]
    err = _assert_one_usage_error(argv, capsys)
    assert "invalid choice: 'adaptive-simpson' (choose from 'exact')" in err


def test_gauss_hermite_is_a_usage_error(capsys):
    argv = ["metrics", "--preset", "atomic", "--method", "gauss-hermite"]
    err = _assert_one_usage_error(argv, capsys)
    assert "invalid choice: 'gauss-hermite'" in err


def test_nodes_are_accepted_and_ignored(capsys):
    """--nodes, the node count of the removed Gauss-Hermite rule, is still
    accepted so that scripts passing it keep working; it changes no byte
    and is not echoed."""
    assert run(["metrics", "--preset", "atomic"]) == EXIT_OK
    plain = capsys.readouterr().out
    assert "nodes" not in plain
    sweep = ["sweep", "--axis", "coupling", "--values", "0.5,3,9", "--bandwidth", "0.05,2"]
    assert run(sweep) == EXIT_OK
    swept = capsys.readouterr().out
    for nodes in ("3", "64", "200", "100000"):
        assert run(["metrics", "--preset", "atomic", "--nodes", nodes]) == EXIT_OK
        assert capsys.readouterr().out == plain
        assert run([*sweep, "--nodes", nodes]) == EXIT_OK
        assert capsys.readouterr().out == swept
    for command in ("metrics", "sweep"):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        assert "--nodes" not in capsys.readouterr().out


def test_readme_metrics_example_matches_stdout(capsys):
    """Every line of the README's metrics example other than the elision
    "..." appears, in order, in the stdout of the command it shows."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("```text\n", readme.index("### metrics")) + len("```text\n")
    command, *shown = readme[start:readme.index("\n```", start)].splitlines()
    assert command.startswith("$ cavityswap metrics ")
    assert run(shlex.split(command)[2:]) == EXIT_OK
    printed = iter(capsys.readouterr().out.splitlines())
    for line in shown:
        # `in` consumes the iterator up to the match, so order is checked too
        assert line == "..." or line in printed, line


def test_metrics_evaluates_the_pulse_averages_twice(monkeypatch, capsys):
    # once at the requested rule and once at the doubled one for the residual
    real = pulses.overlaps
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pulses, "overlaps", counting)
    assert run(["metrics", "--preset", "atomic"]) == EXIT_OK
    assert len(calls) == 2


# '%.12e' of adaptive Simpson's gate_metrics on the grid g/kappa in (2, 5,
# 9) x dw/kappa in (0.02, 0.05, 0.1, 0.3) at gamma = kappa, g-major: the
# cells `sweep --method adaptive-simpson` printed before that flag went
SIMPSON_CELLS = [
    ("1.879618566160e-01", "9.998956919992e-01"),
    ("1.885350572730e-01", "9.993491306982e-01"),
    ("1.905669912759e-01", "9.974114217900e-01"),
    ("2.109125518425e-01", "9.779941167147e-01"),
    ("3.817767964532e-02", "9.998998817610e-01"),
    ("3.870359718455e-02", "9.993753236407e-01"),
    ("4.056638417407e-02", "9.975162934718e-01"),
    ("5.908026839771e-02", "9.789482924804e-01"),
    ("1.225749534089e-02", "9.999000175218e-01"),
    ("1.278139911131e-02", "9.993761720306e-01"),
    ("1.463699067704e-02", "9.975196854106e-01"),
    ("3.307379200846e-02", "9.789786815455e-01"),
]


def test_adaptive_simpson_stdout_is_pinned():
    """The level-by-level Simpson rule reproduces the depth-first one byte
    for byte: its gate_metrics are pinned at the atomic preset, and at each
    cell of the grid whose Simpson sweep stdout was pinned, to '%.12e'."""
    atomic = BUILTIN_PRESETS["atomic"].cavity_params()
    result = pulses.gate_metrics(atomic, pulses.PulseSpec(0.1), SIMPSON)
    assert (result.loss_probability, result.fidelity) == (
        0.013003423359003397, 0.9975193281792225,
    )
    points = [(g, dw) for g in (2.0, 5.0, 9.0) for dw in (0.02, 0.05, 0.1, 0.3)]
    for (g, dw), cell in zip(points, SIMPSON_CELLS):
        result = pulses.gate_metrics(
            CavityParams.symmetric(g, 1.0, 1.0), pulses.PulseSpec(dw), SIMPSON
        )
        assert ("%.12e" % result.loss_probability, "%.12e" % result.fidelity) == cell


def test_adaptive_simpson_takes_an_underflowing_coupling_as_the_bare_cavity(capsys):
    """At gamma = 0 and g = 1e-200, g^2 rounds to zero and the dip at omega =
    0 is narrower than rounding: Simpson averages the bare cavity there, as
    the exact rule that metrics runs does, rather than bisecting the jump
    until it fails."""
    argv = ["metrics", "--g", "1e-200", "--gamma", "0", "--bandwidth", "0.1", "--format", "json"]
    assert run(argv) == EXIT_OK
    exact = json.loads(capsys.readouterr().out)["outputs"]
    simpson = pulses.gate_metrics(
        CavityParams.symmetric(1e-200, 1.0, 0.0), pulses.PulseSpec(0.1), SIMPSON
    )
    assert abs(simpson.loss_probability - exact["loss_probability"]) <= 1e-12
    assert abs(simpson.fidelity - exact["fidelity"]) <= 1e-12


def test_adaptive_simpson_wide_pulse_fails_without_warnings():
    """At bandwidth 1e200 the Gaussian weight's exponent overflows: Simpson
    fails at once with one QuadratureError and no RuntimeWarning."""
    atomic = BUILTIN_PRESETS["atomic"].cavity_params()
    with pytest.raises(pulses.QuadratureError) as info:
        pulses.gate_metrics(atomic, pulses.PulseSpec(1e200), SIMPSON)
    assert str(info.value) == "integrand is not finite at omega = -6e+200"


def _cli_process(args, timeout):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "cavityswap.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_adaptive_simpson_non_finite_point_fails_fast():
    """At bandwidth 1e-160 the density's norm overflows and the integrand
    is not finite.  Simpson used to bisect such a point toward 2**48
    intervals; it must fail at once instead.  The command line, which runs
    the exact rule, fails at once there too: metrics with one usage error,
    sweep with a NaN row and a warning, neither with a RuntimeWarning."""
    with pytest.raises(pulses.QuadratureError) as info:
        pulses.gate_metrics(
            CavityParams.symmetric(2.0, 1.0, 1.0), pulses.PulseSpec(1e-160), SIMPSON
        )
    assert str(info.value) == "integrand is not finite at omega = -6e-160"
    proc = _cli_process(["metrics", "--g", "2", "--bandwidth", "1e-160"], timeout=20)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith("usage error: cannot evaluate this operating point: ")
    args = ["sweep", "--axis", "coupling", "--values", "2", "--bandwidth", "1e-160"]
    proc = _cli_process(args, timeout=20)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines()[1] == "2.000000000000e+00,1.000000000000e-160,nan,nan"
    assert proc.stderr.splitlines()[0].startswith("warning: point g=2 dw=1e-160 failed: ")
    assert "RuntimeWarning" not in proc.stderr


def test_zero_tolerance_is_a_usage_error(capsys):
    """--tolerance left the command line with adaptive Simpson, so a zero
    tolerance, like any other, is one usage error there; the Python API's
    Simpson configuration still refuses it."""
    for argv, given in (
        (["metrics", "--preset", "atomic", "--tolerance", "0"], "--tolerance 0"),
        (["sweep", "--axis", "coupling", "--values", "2", "--tolerance", "1e-12"],
         "--tolerance 1e-12"),
    ):
        assert _assert_one_usage_error(argv, capsys) == (
            f"usage error: unrecognized arguments: {given}"
        )
    with pytest.raises(ValueError, match=r"^tolerance must lie in \(0, 1e-4\]$"):
        pulses.QuadratureConfig(method=pulses.ADAPTIVE_SIMPSON, tolerance=0.0)


def test_subnormal_coupling_term_metrics_are_the_bare_cavity(capsys):
    """At gamma = 0 and g = 1e-160, g^2 is subnormal: metrics prints the bare
    cavity's averages, as at g = 0, instead of failing on NaN."""
    outputs = []
    for g in ("1e-160", "0"):
        argv = ["metrics", "--g", g, "--gamma", "0", "--bandwidth", "0.1", "--format", "json"]
        assert run(argv) == EXIT_OK
        outputs.append(json.loads(capsys.readouterr().out)["outputs"])
    assert outputs[0] == outputs[1]


def test_metrics_byte_determinism(capsys):
    run(["metrics", "--preset", "atomic"])
    first = capsys.readouterr().out
    run(["metrics", "--preset", "atomic"])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# coeffs


def test_coeffs_csv_contract(tmp_path):
    out = tmp_path / "table.csv"
    code = run(
        [
            "coeffs",
            "--preset",
            "atomic",
            "--omega-start",
            "-0.5",
            "--omega-stop",
            "0.5",
            "--omega-step",
            "0.25",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == "omega,re_R,im_R,re_T,im_T,re_m,im_m,unitarity_residual"
    assert len(rows) == 5
    params = BUILTIN_PRESETS["atomic"].cavity_params()
    for row in rows:
        resp = cavity.response(params, "h", AtomBranch.COUPLED, row[0])
        # 12 printed significant digits round-trip well below 1e-12 relative
        assert row[1] == pytest.approx(resp.r.real, rel=1e-11, abs=1e-14)
        assert row[2] == pytest.approx(resp.r.imag, rel=1e-11, abs=1e-14)
        assert row[3] == pytest.approx(resp.t.real, rel=1e-11, abs=1e-14)
        assert row[5] == pytest.approx(resp.m.real, rel=1e-11, abs=1e-14)
        assert abs(row[7]) <= 1e-12


def test_coeffs_stdout_matches_file(tmp_path, capsys):
    argv = ["coeffs", "--preset", "atomic", "--omega-stop", "0.1", "--omega-start", "-0.1"]
    assert run(argv) == EXIT_OK
    streamed = capsys.readouterr().out
    out = tmp_path / "t.csv"
    assert run(argv + ["--out", str(out)]) == EXIT_OK
    assert streamed == out.read_text()


def test_coeffs_resonance_with_underflowing_rates(capsys):
    """g^2 and kappa gamma/2 both round to zero here, so omega = 0 is 0/0
    in the dressed formula.  The row there is the finite limit,
    flux-conserving to rounding, with no RuntimeWarning (which this suite
    turns into an error)."""
    argv = ["coeffs", "--g", "1e-200", "--gamma", "5e-324", "--omega-start", "-0.5",
            "--omega-stop", "0.5", "--omega-step", "0.5"]
    assert run(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    rows = [[float(cell) for cell in line.split(",")] for line in captured.out.splitlines()[1:]]
    assert [row[0] for row in rows] == [-0.5, 0.0, 0.5]
    assert all(math.isfinite(cell) for row in rows for cell in row)
    assert rows[1][3] == 1.0 and abs(rows[1][1]) <= 1e-76
    assert all(abs(row[7]) <= 1e-12 for row in rows)


def test_coeffs_at_a_huge_coupling_reflect_perfectly(capsys):
    """At g = 1e200 kappa the dressed cavity reflects perfectly off and on
    resonance: every row prints R = -1, T = 0 and a zero residual, with no
    RuntimeWarning, though g^2 overflows in the caller's units."""
    argv = ["coeffs", "--g", "1e200", "--gamma", "0.5", "--omega-start", "-1",
            "--omega-stop", "1", "--omega-step", "1"]
    assert run(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    rows = [[float(cell) for cell in line.split(",")] for line in captured.out.splitlines()[1:]]
    assert [row[0] for row in rows] == [-1.0, 0.0, 1.0]
    for row in rows:
        assert row[1:5] == [-1.0, 0.0, 0.0, 0.0]
        assert row[7] == 0.0


def test_negative_exponent_values_are_values(capsys):
    """'-1e-3' is a value to argparse as '-0.001' is; a comma list that
    starts with a minus sign still reads as an option."""
    argv = ["coeffs", "--preset", "atomic", "--omega-stop", "1e-3", "--omega-step", "1e-3"]
    assert run([*argv, "--omega-start=-1e-3"]) == EXIT_OK
    expected = capsys.readouterr().out
    assert run([*argv, "--omega-start", "-1e-3"]) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert len(expected.splitlines()) == 4
    error = _assert_one_usage_error(["sweep", "--axis", "bandwidth", "--values", "-0.1,0.2"], capsys)
    assert "expected one argument" in error


def test_coeffs_bad_range():
    assert run(["coeffs", "--preset", "atomic", "--omega-start", "1", "--omega-stop", "-1"]) \
        == EXIT_USAGE
    assert run(["coeffs", "--preset", "atomic", "--omega-step", "0"]) == EXIT_USAGE


def test_coeffs_io_error():
    argv = ["coeffs", "--preset", "atomic", "--out", "/nonexistent-dir/x.csv"]
    assert run(argv) == EXIT_IO


def test_coeffs_decoupled_resonance_row(tmp_path):
    """With the emitter switched off, the resonant photon passes straight through."""
    out = tmp_path / "bare.csv"
    code = run(
        ["coeffs", "--preset", "atomic", "--branch", "decoupled",
         "--omega-start", "-0.1", "--omega-stop", "0.1", "--omega-step", "0.1",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out)
    center = [r for r in rows if r[0] == 0.0][0]
    # R = 0, T = 1, m = 0 exactly at zero detuning for the bare resonator
    assert center[1:7] == pytest.approx([0.0, 0.0, 1.0, 0.0, 0.0, 0.0], abs=1e-14)


# ---------------------------------------------------------------------------
# sweep


def test_csv_cells_format_as_per_cell_fstrings(capsys):
    """The column writer must print every cell as f"{float(v):.12e}" did."""
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1.5, 1 / 3]
    rows = [tuple(values), tuple(np.float64(v) for v in values), tuple(np.array(values)[::-1])]
    header = ",".join(f"c{i}" for i in range(len(values)))
    cli._emit_csv(None, header, [(np.array(column), 1) for column in zip(*rows)])
    expected = [header] + [",".join(f"{float(v):.12e}" for v in row) for row in rows]
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def e12_texts(values):
    """The cells of cli._e12_cells as strings, their zero-byte padding dropped."""
    cells = cli._e12_cells(np.array(values, dtype=float))
    return [row[row != 0].tobytes().decode() for row in cells]


def test_e12_cells_at_the_edges():
    """Cells next to a carry, on an exact decimal tie, at the ends of the
    double range and on both sides of the cut-offs of the vectorized range
    must be printf's."""
    values = [
        9.9999999999995, 9.99999999999949, 1.0001220703125,  # 1 + 2**-13, a tie
        5e-324, 1e308, -1e308, 2.2250738585072014e-308, 1e100, 1e99, 1e-99, 1e-100,
    ]
    for cut in cli._FAST_RANGE:
        values += [cut, -cut, np.nextafter(cut, 0.0), np.nextafter(cut, np.inf)]
    powers = [10.0**k for k in range(-31, 31)]
    values += powers + [np.nextafter(power, 0.0) for power in powers]
    assert e12_texts(values) == ["%.12e" % value for value in values]


def test_sweep_csv_and_plot_sidecar(tmp_path):
    out = tmp_path / "grid.csv"
    code = run(
        ["sweep", "--axis", "bandwidth", "--values", "0.05,0.1", "--coupling", "3,6",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == "g_over_kappa,dw_over_kappa,p,F"
    assert [(r[0], r[1]) for r in rows] == [(3.0, 0.05), (3.0, 0.1), (6.0, 0.05), (6.0, 0.1)]
    point = pulses.gate_metrics(CavityParams.symmetric(3.0, 1.0, 1.0), pulses.PulseSpec(0.05))
    assert rows[0][2] == pytest.approx(point.loss_probability, rel=1e-11)
    assert rows[0][3] == pytest.approx(point.fidelity, rel=1e-11)
    script = (tmp_path / "grid.csv.plot.py").read_text()
    compile(script, "grid.csv.plot.py", "exec")  # sidecar must at least parse
    assert "matplotlib" in script and "grid.csv" in script


def test_sweep_plot_sidecar_renders(tmp_path, monkeypatch):
    pytest.importorskip("matplotlib")
    out = tmp_path / "s.csv"
    run(["sweep", "--axis", "coupling", "--values", "3,6", "--bandwidth", "0.1",
         "--out", str(out)])
    monkeypatch.chdir(tmp_path)
    script = (tmp_path / "s.csv.plot.py").read_text()
    exec(compile(script, "s.csv.plot.py", "exec"), {"__name__": "__main__"})
    assert (tmp_path / "s_p.png").exists()
    assert (tmp_path / "s_F.png").exists()


def test_sweep_linspace_grammar(capsys):
    assert run(["sweep", "--axis", "bandwidth", "--values", "0.1:0.2:3",
                "--coupling", "6"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    dws = [float(line.split(",")[1]) for line in lines[1:]]
    assert dws == pytest.approx([0.1, 0.15, 0.2])


def test_sweep_bad_values(capsys):
    # a list that starts with "-" needs the "=" form to reach the value check
    assert _assert_one_usage_error(
        ["sweep", "--axis", "bandwidth", "--values=-0.1,0.2"], capsys
    ) == "usage error: --values values must be positive and finite"
    assert run(["sweep", "--axis", "bandwidth", "--values", "0.3:0.1:5"]) == EXIT_USAGE
    assert run(["sweep", "--axis", "bandwidth", "--values", "abc"]) == EXIT_USAGE
    assert run(["sweep", "--axis", "coupling", "--values", "3", "--gamma", "-1"]) == EXIT_USAGE


def test_sweep_accepts_gamma_zero(capsys):
    """gamma = 0, metrics' default, is a valid sweep: each cell prints its
    point's gate_metrics.  Negative and non-finite gamma stay usage errors."""
    argv = ["sweep", "--axis", "coupling", "--values", "0.3,2,6", "--bandwidth", "0.05,0.1"]
    assert run([*argv, "--gamma", "0"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    expected = []
    for g in (0.3, 2.0, 6.0):
        for dw in (0.05, 0.1):
            point = pulses.gate_metrics(CavityParams.symmetric(g, 1.0, 0.0), pulses.PulseSpec(dw))
            expected.append(f"{g:.12e},{dw:.12e},{point.loss_probability:.12e},{point.fidelity:.12e}")
    assert rows == expected
    for gamma in ("-0.5", "nan", "inf"):
        assert _assert_one_usage_error([*argv, "--gamma", gamma], capsys) == (
            "usage error: --gamma must be non-negative and finite (units of kappa)"
        )


def test_sweep_grid_cap_is_checked_before_the_grid_is_built(capsys, monkeypatch):
    sizes = []

    def record_size(couplings, bandwidths, *args):
        sizes.append(len(couplings) * len(bandwidths))
        empty = np.empty(0)
        return empty, empty, np.empty((0, 0)), np.empty((0, 0)), []

    monkeypatch.setattr(cli.pulses, "sweep_grid", record_size)
    # 10^10 points, and one row of 100 over the cap
    _assert_one_usage_error(["sweep", "--axis", "coupling", "--values", "1:2:100000",
                             "--bandwidth", "0.01:0.1:100000"], capsys)
    _assert_one_usage_error(["sweep", "--axis", "bandwidth", "--values", "0.01:0.1:1001",
                             "--coupling", "1:2:100"], capsys)
    assert sizes == []
    assert run(["sweep", "--axis", "bandwidth", "--values", "0.01:0.1:1000",
                "--coupling", "1:2:100"]) == EXIT_OK
    assert sizes == [cli.MAX_GRID_POINTS]


def test_sweep_failed_point_still_emits_row(tmp_path, capsys):
    """A bandwidth of 1e-160 overflows the exact rule's Faddeeva evaluation,
    so the pulse averages at that point are NaN.  Its row is still written,
    and it warns the same way whether the CSV goes to stdout or a file."""
    argv = ["sweep", "--axis", "coupling", "--values", "2", "--bandwidth", "0.1,1e-160"]
    assert run(argv) == EXIT_OK
    streamed = capsys.readouterr()
    out = tmp_path / "partial.csv"
    assert run([*argv, "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert out.read_text() == streamed.out
    warning = "warning: point g=2 dw=1e-160 failed: reflect_prob_h = nan outside [0, 1]"
    for err in (streamed.err, captured.err):
        assert [line for line in err.splitlines() if line.startswith("warning:")] == [warning]
        assert "RuntimeWarning" not in err
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    bad = lines[1].split(",")
    assert float(bad[1]) == 1e-160
    assert math.isnan(float(bad[2])) and math.isnan(float(bad[3]))
    good = lines[2].split(",")
    assert float(good[1]) == 0.1 and math.isfinite(float(good[2]))


# A 40 x 30 log grid, g/kappa 0.1-20 plus a g = 1e200 row, bandwidth
# 0.01-10 kappa (the wide-pulse corner), gamma = kappa/2.  The sha256 of its
# stdout pins every byte the CSV writer emits, not only the parsed values.
# The default rule's rows agree with the benchmark's trapezoid reference to
# 2.1e-13.  Naming the rule and passing the ignored --nodes change no byte.
PINNED_COUPLINGS = ",".join(f"{0.1 * 200 ** (i / 38):.4g}" for i in range(39)) + ",1e200"
PINNED_BANDWIDTHS = ",".join(f"{0.01 * 1000 ** (j / 29):.4g}" for j in range(30))


PINNED_SWEEP = ["sweep", "--axis", "coupling", "--values", PINNED_COUPLINGS,
                "--bandwidth", PINNED_BANDWIDTHS, "--gamma", "0.5"]
PINNED_SWEEP_DIGEST = "9ce2b5e1735b2e553d436bd044ce4c22eb3ea5b5ceb18e0c95192bd1459da72a"


@pytest.mark.parametrize("extra", [["--method", "exact"], ["--nodes", "65"], []])
def test_sweep_stdout_is_pinned(extra, capsys):
    assert run([*PINNED_SWEEP, *extra]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 + 40 * 30
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SWEEP_DIGEST


def test_sweep_file_matches_stdout(tmp_path, capsys):
    """--out writes the bytes that stdout gets, the g = 1e200 row included,
    and neither way warns of a failed point."""
    assert run(PINNED_SWEEP) == EXIT_OK
    streamed = capsys.readouterr()
    out = tmp_path / "grid.csv"
    assert run([*PINNED_SWEEP, "--out", str(out)]) == EXIT_OK
    written = capsys.readouterr()
    assert out.read_bytes() == streamed.out.encode()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SWEEP_DIGEST
    assert written.out == ""
    for err in (streamed.err, written.err):
        assert [line for line in err.splitlines() if line.startswith("warning:")] == []


def test_sweep_single_point_matches_metrics(capsys):
    """A one-cell sweep must reproduce the point estimator exactly."""
    assert run(["sweep", "--axis", "coupling", "--values", "6", "--bandwidth", "0.1"]) == EXIT_OK
    swept = [float(x) for x in capsys.readouterr().out.strip().splitlines()[1].split(",")]
    code = run(["metrics", "--g", "6", "--gamma", "1", "--bandwidth", "0.1",
                "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert swept[:2] == [6.0, 0.1]
    assert swept[2] == pytest.approx(payload["outputs"]["loss_probability"], rel=1e-11)
    assert swept[3] == pytest.approx(payload["outputs"]["fidelity"], rel=1e-11)


# ---------------------------------------------------------------------------
# verify


VERIFY_ALL_NAMES = [
    "gate-norm-preservation",
    "cswap-involution",
    "register-swap-permutation",
    "swap-test-closed-form",
    "phase-flip-branches",
    "phase-flip-involution",
    "phase-equivalence-relation",
    "flux-conservation",
    "decoupled-branch",
    "conjugate-symmetry",
    "narrowband-limits",
    "quadrature-cross-check",
    "quadrature-node-doubling",
    "polarization-symmetry",
    "channel-closed-form",
]


def test_verify_all_passes(capsys):
    assert run(["verify", "all"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines() == [f"PASS {name}" for name in VERIFY_ALL_NAMES] + [
        "all 15 invariants passed"
    ]


def test_verify_times_each_check_on_stderr(capsys):
    assert run(["verify"]) == EXIT_OK
    captured = capsys.readouterr()
    timed = [line.split() for line in captured.err.splitlines() if line.startswith("time ")]
    assert [fields[1] for fields in timed] == VERIFY_ALL_NAMES
    assert all(len(fields) == 3 and float(fields[2]) >= 0.0 for fields in timed)
    assert "time " not in captured.out


def test_verify_fails_under_python_O():
    """The checks raise explicitly, so python -O (which strips assert
    statements) still reports a broken invariant."""
    child = """
import sys
from cavityswap import cavity, cli
real = cavity.response_arrays
def scaled(*args, **kwargs):
    r, t, m = real(*args, **kwargs)
    return 1.1 * r, t, m
cavity.response_arrays = scaled
sys.exit(cli.run(["verify", "physics"]))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == EXIT_VERIFY
    assert any(line.startswith("FAIL flux-conservation") for line in proc.stdout.splitlines())


def test_package_has_no_assert_statements():
    # python -O strips assert statements; checks must raise explicitly
    package = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not lines, f"assert statements in {name} at lines {lines}"


def test_verify_circuits_runs_without_quadrature(monkeypatch, capsys):
    # the circuits suite must stay independent of the spectral stack
    def poisoned(*a, **k):
        raise AssertionError("circuits suite touched the cavity response")

    monkeypatch.setattr(cavity, "response_arrays", poisoned)
    assert run(["verify", "circuits"]) == EXIT_OK
    assert capsys.readouterr().out.count("PASS") == 7


def _failed_invariants(err):
    """The names on the one ``verification failed:`` line of stderr.  The
    ``time`` lines name every check run, so a bare substring test of stderr
    would pass whichever check failed."""
    prefix = "verification failed: "
    (line,) = [line for line in err.splitlines() if line.startswith(prefix)]
    return line[len(prefix):].split(", ")


def test_verify_counts_any_exception_as_failure(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("reflect_prob_h = nan outside [0, 1]")

    monkeypatch.setattr(pulses, "overlaps", broken)
    assert run(["verify", "physics"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert "FAIL polarization-symmetry: ValueError: reflect_prob_h = nan outside [0, 1]" in captured.out
    assert "PASS flux-conservation" in captured.out
    assert "polarization-symmetry" in _failed_invariants(captured.err)
    assert "Traceback" not in captured.err


def test_verify_detects_flux_violation(monkeypatch, capsys):
    """A sign error in the reflection numerator must fail verification.

    The fixture recomputes the interacting-branch reflection with the
    emitter term subtracted instead of added; energy bookkeeping then fails
    off resonance and the run must exit 3 naming the broken invariant.
    """
    real = cavity.response_arrays

    def corrupted(params, pol, branch, omega):
        r, t, m = real(params, pol, branch, omega)
        if branch is AtomBranch.COUPLED:
            g, kappa, gamma = params.rates(pol)
            w = np.asarray(omega, dtype=float)
            d = 1j * w - gamma / 2.0
            denom = (kappa - 1j * w) * d - g * g
            r = (1j * w * d - g * g) / denom  # flipped sign on the g^2 term
        return r, t, m

    monkeypatch.setattr(cavity, "response_arrays", corrupted)
    assert run(["verify", "physics"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert "FAIL flux-conservation" in captured.out
    assert "PASS decoupled-branch" in captured.out  # unaffected check still passes
    # the failing invariant is named; an unaffected one is not
    failed = _failed_invariants(captured.err)
    assert "flux-conservation" in failed
    assert "decoupled-branch" not in failed


# ---------------------------------------------------------------------------
# fingerprint


def test_fingerprint_identical_and_orthogonal(capsys):
    assert run(["fingerprint", "--states", "identical", "--seed", "5"]) == EXIT_OK
    out = dict(
        line.split(" = ")
        for line in capsys.readouterr().out.splitlines()
        if not line.startswith("#")
    )
    assert float(out["exact_p_minus"]) == pytest.approx(0.0, abs=1e-12)
    assert float(out["recovered_overlap"]) == pytest.approx(1.0, abs=1e-9)

    assert run(["fingerprint", "--states", "orthogonal", "--seed", "5"]) == EXIT_OK
    out = dict(
        line.split(" = ")
        for line in capsys.readouterr().out.splitlines()
        if not line.startswith("#")
    )
    assert float(out["exact_p_minus"]) == pytest.approx(0.5, abs=1e-12)
    # the square root amplifies 1e-16 roundoff in p to ~1e-8 here
    assert float(out["recovered_overlap"]) == pytest.approx(0.0, abs=1e-7)


def test_fingerprint_exact_value_matches_simulator(capsys):
    assert run(["fingerprint", "--n", "2", "--seed", "9", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    rng = np.random.default_rng(9)
    psi = circuits.random_state(2, rng)
    phi = circuits.random_state(2, rng)
    assert payload["outputs"]["exact_p_minus"] == pytest.approx(
        circuits.swap_test(psi, phi), abs=1e-12
    )
    se = payload["outputs"]["standard_error"]
    assert abs(payload["outputs"]["empirical_frequency"] - payload["outputs"]["exact_p_minus"]) \
        <= 4.0 * se


def test_fingerprint_orthogonal_empirical_within_3sigma(capsys):
    """Orthogonal inputs: measured minus-port frequency sits within 0.5 +/- 0.015.

    At 10^4 trials the binomial standard error of a fair coin is 0.005, so the
    three-sigma band is 0.015 wide on each side.
    """
    code = run(["fingerprint", "--states", "orthogonal", "--trials", "10000",
                "--seed", "123", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["outputs"]["exact_p_minus"] == pytest.approx(0.5, abs=1e-12)
    assert abs(payload["outputs"]["empirical_frequency"] - 0.5) <= 0.015


def test_fingerprint_random_pair_within_3sigma(capsys):
    code = run(["fingerprint", "--n", "3", "--seed", "42", "--trials", "10000",
                "--format", "json"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert abs(out["empirical_frequency"] - out["exact_p_minus"]) \
        <= 3.0 * out["standard_error"]


def test_fingerprint_seeded_bytes_stable(monkeypatch, capsys):
    run(["fingerprint", "--seed", "31337"])
    first = capsys.readouterr().out
    run(["fingerprint", "--seed", "31337"])
    assert capsys.readouterr().out == first
    # drawn a few trials at a time, the same draws give the same bytes
    monkeypatch.setattr("cavityswap.cli._TRIAL_CHUNK", 3)
    run(["fingerprint", "--seed", "31337"])
    assert capsys.readouterr().out == first


def test_fingerprint_limits(capsys):
    assert run(["fingerprint", "--n", "9"]) == EXIT_USAGE
    assert run(["fingerprint", "--n", "0"]) == EXIT_USAGE
    assert run(["fingerprint", "--trials", "0"]) == EXIT_USAGE
    capsys.readouterr()
    assert run(["fingerprint", "--seed", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_czz_cli(capsys):
    assert run(["synthesize", "--target", "czz", "--cswaps", "2", "--gates", "I,Z"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Z(1) ; CSWAP(0,1,2) ; Z(1) ; CSWAP(0,1,2)" in out
    assert "search_space = 512" in out
    found = [l for l in out.splitlines() if l.startswith("found = ")][0]
    assert int(found.split(" = ")[1]) > 0


# sha256 of the whole stdout, match lines unsorted, so that the order of
# the matches is pinned as well as their set
PINNED_SYNTHESIZE_STDOUT = [
    (["--target", "czz", "--cswaps", "2"],
     "759cac3a98dda70268335bfce0f96a3d4c20c6fba4d3ecee4310ff49eb85c77b"),
    (["--target", "cpf", "--cswaps", "2", "--feedforward"],
     "fea6bc7036ba15ff63b10cab073457510bca146d7f2ba959912253b7a58928ad"),
]


@pytest.mark.parametrize("argv,want", PINNED_SYNTHESIZE_STDOUT, ids=["czz", "cpf-feedforward"])
def test_synthesize_stdout_is_pinned_byte_for_byte(argv, want, capsys):
    assert run(["synthesize", *argv]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


def test_synthesize_budget_truncation(capsys):
    code = run(
        ["synthesize", "--target", "cpf", "--cswaps", "2", "--feedforward",
         "--time-budget", "1e-4"]
    )
    assert code == EXIT_BUDGET
    assert "TRUNCATED" in capsys.readouterr().out


def test_synthesize_guard_refuses(capsys):
    code = run(
        ["synthesize", "--target", "cpf", "--cswaps", "4",
         "--gates", "I,H,X,Z,S,Sdag", "--feedforward"]
    )
    assert code == EXIT_USAGE
    assert "guard" in capsys.readouterr().err


def test_synthesize_argument_errors_are_one_usage_error(capsys):
    base = ["synthesize", "--target", "czz", "--cswaps", "1", "--gates", "I,Z"]
    for extra in (["--tol", "nan"], ["--tol", "-1"], ["--tol", "0"], ["--tol", "1"],
                  ["--tol", "1e300"], ["--tol", "inf"], ["--time-budget", "nan"],
                  ["--time-budget", "-1"], ["--time-budget", "0"], ["--gates", ","]):
        _assert_one_usage_error(base + extra, capsys)


def test_unknown_subcommand_and_empty():
    assert run(["nonsense"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_smoke(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["cavityswap"]
    module_name, _, attribute = target.partition(":")
    entry_point = getattr(importlib.import_module(module_name), attribute)
    monkeypatch.setattr(sys, "argv", ["cavityswap", "metrics", "--preset", "atomic"])
    assert entry_point() == EXIT_OK
    captured = capsys.readouterr()
    assert "loss_probability" in captured.out
    assert "elapsed_s" in captured.err

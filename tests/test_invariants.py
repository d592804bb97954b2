"""The invariant registry that ``cavityswap verify`` runs, the layering
that keeps it below the command-line front end, and the package's export
table."""
import json
import os
import subprocess
import sys

import pytest

import cavityswap
from cavityswap import invariants, pulses


@pytest.mark.parametrize(
    "suite, name",
    [(suite, name) for suite, checks in invariants.VERIFY_CHECKS.items() for name in checks],
)
def test_invariant(suite, name):
    invariants.VERIFY_CHECKS[suite][name]()


def test_channel_check_averages_each_draw_once(monkeypatch):
    """channel-closed-form takes the closed form and the channel from one
    set of pulse averages per draw: five draws, five overlaps calls."""
    calls = []
    real = pulses.overlaps

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pulses, "overlaps", counting)
    invariants.VERIFY_CHECKS["physics"]["channel-closed-form"]()
    assert len(calls) == 5


def test_library_modules_import_without_the_front_end():
    """presets loads without invariants, and neither loads cli."""
    child = """
import sys
import cavityswap.presets
assert "cavityswap.invariants" not in sys.modules, "presets imported invariants"
import cavityswap.invariants
assert "cavityswap.cli" not in sys.modules, "a library module imported cli"
"""
    _fresh_interpreter(child)


def _fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(invariants.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_bare_import_loads_no_layer():
    """import cavityswap loads no layer and not numpy; each layer module
    then resolves as an attribute of the package."""
    child = """
import sys
import cavityswap
print(sorted(name for name in sys.modules if name.startswith(("cavityswap.", "numpy"))))
for layer in ("cavity", "channel", "circuits", "pulses"):
    assert getattr(cavityswap, layer) is sys.modules["cavityswap." + layer], layer
"""
    assert _fresh_interpreter(child).stdout == "[]\n"


_PULSE_ONLY = {"channel", "circuits", "invariants"}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["metrics", "--preset", "atomic"], _PULSE_ONLY),
        (["coeffs", "--preset", "atomic", "--omega-step", "0.5"], _PULSE_ONLY),
        (["sweep", "--axis", "coupling", "--values", "3"], _PULSE_ONLY),
        (["fingerprint", "--n", "2"], {"channel", "invariants"}),
        (["synthesize", "--target", "czz", "--cswaps", "1"], {"channel", "invariants"}),
    ],
    ids=["metrics", "coeffs", "sweep", "fingerprint", "synthesize"],
)
def test_each_subcommand_loads_only_its_layers(argv, unloaded):
    """A subcommand imports the layers it runs and no other."""
    child = f"""
import contextlib, io, json, sys
from cavityswap import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.run({argv!r}) == 0
print(json.dumps([name for name in sys.modules if name.startswith("cavityswap.")]))
"""
    loaded = {name.split(".")[1] for name in json.loads(_fresh_interpreter(child).stdout)}
    assert "cli" in loaded
    assert not unloaded & loaded, sorted(loaded)


# the 46 public names of the package
_EXPORTED = set("""
    AtomBranch BranchOutcome CSWAP CavityParams Circuit Gate GateMetrics H OutputDensity
    OverlapSet Phase PulseSpec PureState QuadratureConfig QuadratureError S Sdag
    SearchSpaceError SpectralResponse SweepGrid SynthesisResult X Z apply apply_noisy_cswap
    basis_state circuit_unitary cpf_circuit cpf_feedforward cpf_target cswap_multi czz_target
    equivalent_up_to_phase format_circuit gate_matrix gate_metrics measure overlaps
    product_state random_state response response_arrays run swap_test sweep_grid synthesize
""".split())


def test_export_table_serves_each_name_from_its_module():
    assert len(_EXPORTED) == 46
    assert set(cavityswap.__all__) == _EXPORTED and len(cavityswap.__all__) == 46
    listed = dir(cavityswap)
    for name in cavityswap.__all__:
        value = getattr(cavityswap, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert name in listed, name
    namespace = {}
    exec("from cavityswap import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cavityswap.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        cavityswap.no_such_name

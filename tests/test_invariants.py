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


def test_cross_check_catches_a_shifted_exact_mean(monkeypatch):
    """quadrature-cross-check fails when the exact rule's E c moves by
    1e-10, a shift that moves p and F by less than 1e-9."""
    exact_means = pulses._exact_means

    def shifted(*args):
        power, mean = exact_means(*args)
        return power, mean + 1e-10

    monkeypatch.setattr(pulses, "_exact_means", shifted)
    with pytest.raises(AssertionError, match="exact and trapezoid"):
        invariants.VERIFY_CHECKS["physics"]["quadrature-cross-check"]()


def test_library_modules_import_without_the_front_end():
    """presets loads without invariants, invariants without synthesis, and
    none of them loads cli."""
    child = """
import sys
import cavityswap.presets
assert "cavityswap.invariants" not in sys.modules, "presets imported invariants"
import cavityswap.invariants
assert "cavityswap.synthesis" not in sys.modules, "invariants imported synthesis"
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
for layer in ("cavity", "channel", "circuits", "pulses", "synthesis"):
    assert getattr(cavityswap, layer) is sys.modules["cavityswap." + layer], layer
"""
    assert _fresh_interpreter(child).stdout == "[]\n"


_PULSE_ONLY = {"channel", "circuits", "invariants", "synthesis"}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["metrics", "--preset", "atomic"], _PULSE_ONLY),
        (["coeffs", "--preset", "atomic", "--omega-step", "0.5"], _PULSE_ONLY),
        (["sweep", "--axis", "coupling", "--values", "3"], _PULSE_ONLY),
        (["fingerprint", "--n", "2"], {"channel", "invariants", "synthesis"}),
        (["synthesize", "--target", "czz", "--cswaps", "1"], {"channel", "invariants"}),
        (["verify"], {"synthesis"}),
        (["verify", "circuits"], {"synthesis"}),
    ],
    ids=["metrics", "coeffs", "sweep", "fingerprint", "synthesize", "verify", "verify-circuits"],
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


_SYNTHESIS_NAMES = ("SearchSpaceError", "SynthesisResult", "synthesize")


@pytest.mark.parametrize("name", _SYNTHESIS_NAMES)
def test_circuits_loads_synthesis_only_for_its_names(name):
    """import cavityswap.circuits loads no synthesis, nor does looking up a
    name it does not serve; the first lookup of one of the three public
    synthesis names loads synthesis and binds that name alone in circuits,
    to the synthesis object, where a caller that patches module attributes
    finds it."""
    child = f"""
import sys
import cavityswap.circuits as circuits
circuits.swap_test, circuits.czz_target
for other in ("no_such_name", "SynthesisMatch", "_MEMO"):
    assert not hasattr(circuits, other), other
assert "cavityswap.synthesis" not in sys.modules, "circuits loaded synthesis"
assert {name!r} not in vars(circuits)
value = getattr(circuits, {name!r})
assert value is getattr(sys.modules["cavityswap.synthesis"], {name!r})
assert vars(circuits)[{name!r}] is value
assert not (set({_SYNTHESIS_NAMES!r}) - {{{name!r}}}) & set(vars(circuits))
"""
    _fresh_interpreter(child)


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

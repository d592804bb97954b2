"""Simulator and verifier for a cavity-mediated photon-photon swap gate.

The package splits into these layers: single-photon spectral response
(:mod:`cavityswap.cavity`), finite-bandwidth pulse averages and gate metrics
(:mod:`cavityswap.pulses`), ideal multi-wire circuit simulation plus bounded
circuit synthesis (:mod:`cavityswap.circuits`), the lossy output channel
(:mod:`cavityswap.channel`), operating-point presets
(:mod:`cavityswap.presets`), the invariant registry that ``verify`` runs
(:mod:`cavityswap.invariants`), and the command-line front end
(:mod:`cavityswap.cli`), which nothing else imports.

Each layer loads on first use: ``import cavityswap`` imports no submodule,
and a name in ``__all__`` imports its defining module when it is first
looked up (PEP 562).
"""
import importlib

__version__ = "0.1.0"

# defining module -> the names the package exports from it
_EXPORTS = {
    "cavity": "AtomBranch CavityParams SpectralResponse response response_arrays",
    "channel": "OutputDensity apply_noisy_cswap",
    "circuits": "CSWAP BranchOutcome Circuit Gate H Phase PureState S Sdag SearchSpaceError "
                "SynthesisResult X Z apply basis_state circuit_unitary cpf_circuit "
                "cpf_feedforward cpf_target cswap_multi czz_target equivalent_up_to_phase "
                "format_circuit gate_matrix measure product_state random_state run swap_test "
                "synthesize",
    "pulses": "GateMetrics OverlapSet PulseSpec QuadratureConfig QuadratureError SweepGrid "
              "gate_metrics overlaps sweep_grid",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

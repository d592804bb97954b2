"""Simulator and verifier for a cavity-mediated photon-photon swap gate.

The package splits into these layers: single-photon spectral response
(:mod:`cavityswap.cavity`), finite-bandwidth pulse averages and gate metrics
(:mod:`cavityswap.pulses`), ideal multi-wire circuit simulation plus bounded
circuit synthesis (:mod:`cavityswap.circuits`), the lossy output channel
(:mod:`cavityswap.channel`), operating-point presets
(:mod:`cavityswap.presets`), the invariant registry that ``verify`` runs
(:mod:`cavityswap.invariants`), and the command-line front end
(:mod:`cavityswap.cli`), which nothing else imports.
"""
from .cavity import AtomBranch, CavityParams, SpectralResponse, response, response_arrays
from .channel import OutputDensity, apply_noisy_cswap
from .circuits import (
    CSWAP,
    BranchOutcome,
    Circuit,
    Gate,
    H,
    Phase,
    PureState,
    S,
    Sdag,
    SearchSpaceError,
    SynthesisResult,
    X,
    Z,
    apply,
    basis_state,
    circuit_unitary,
    cpf_circuit,
    cpf_feedforward,
    cpf_target,
    cswap_multi,
    czz_target,
    equivalent_up_to_phase,
    format_circuit,
    gate_matrix,
    measure,
    product_state,
    random_state,
    run,
    swap_test,
    synthesize,
)
from .pulses import (
    GateMetrics,
    OverlapSet,
    PulseSpec,
    QuadratureConfig,
    QuadratureError,
    SweepGrid,
    gate_metrics,
    overlaps,
    sweep_grid,
)

__version__ = "0.1.0"

__all__ = [
    "AtomBranch",
    "BranchOutcome",
    "CSWAP",
    "CavityParams",
    "Circuit",
    "Gate",
    "GateMetrics",
    "H",
    "OutputDensity",
    "OverlapSet",
    "Phase",
    "PulseSpec",
    "PureState",
    "QuadratureConfig",
    "QuadratureError",
    "S",
    "Sdag",
    "SearchSpaceError",
    "SpectralResponse",
    "SweepGrid",
    "SynthesisResult",
    "X",
    "Z",
    "apply",
    "apply_noisy_cswap",
    "basis_state",
    "circuit_unitary",
    "cpf_circuit",
    "cpf_feedforward",
    "cpf_target",
    "cswap_multi",
    "czz_target",
    "equivalent_up_to_phase",
    "format_circuit",
    "gate_matrix",
    "gate_metrics",
    "measure",
    "overlaps",
    "product_state",
    "random_state",
    "response",
    "response_arrays",
    "run",
    "swap_test",
    "sweep_grid",
    "synthesize",
]

"""Invariant registry: VERIFY_CHECKS (suite -> name -> check) is the one home
of each invariant, run by ``cavityswap verify`` and by the tests alike.

A check passes by returning and fails by raising.  _require raises
explicitly, so the checks keep holding under python -O, which strips assert
statements.  Checks call the library through module attributes (e.g.
``cavity.response_arrays``), so a test can substitute a broken function.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import cavity, channel, circuits, presets, pulses
from .cavity import AtomBranch, CavityParams
from .pulses import PulseSpec, QuadratureConfig


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
                residuals.append(np.max(np.abs(cavity.flux_residual(r, t, m))))
    worst = float(np.max(residuals))  # NaN propagates and fails below
    _require(worst <= 1e-12, f"flux conservation violated, max residual {worst:.3e}")


def _check_decoupled_branch():
    params = CavityParams.symmetric(5.0, 1.0, 0.3)
    omega = np.linspace(-4.0, 4.0, 201)
    r, t, m = cavity.response_arrays(params, "h", AtomBranch.DECOUPLED, omega)
    _require(np.all(m == 0), "decoupled branch must have zero noise coefficient")
    residual = np.max(np.abs(cavity.flux_residual(r, t, m)))
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
    preset = presets.BUILTIN_PRESETS["atomic"]
    params = preset.cavity_params()
    pulse = PulseSpec(0.1)
    simpson = pulses.gate_metrics(
        params, pulse, QuadratureConfig(method=pulses.ADAPTIVE_SIMPSON, tolerance=1e-12)
    )
    exact = pulses.gate_metrics(params, pulse)
    _require(
        abs(exact.loss_probability - simpson.loss_probability) <= 1e-9,
        "exact and adaptive Simpson disagree on the loss probability",
    )
    _require(
        abs(exact.fidelity - simpson.fidelity) <= 1e-9,
        "exact and adaptive Simpson disagree on the fidelity",
    )


def _check_order_doubling():
    for preset in presets.BUILTIN_PRESETS.values():
        params = preset.cavity_params()
        pulse = PulseSpec(presets.parse_bandwidth(preset.bandwidth_rule, params))
        _, residual = pulses.metrics_residual(params, pulse)
        _require(residual <= 1e-10, f"doubling the resolution moves metrics by {residual:.3e}")


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
        ov = pulses.overlaps(params, pulse)
        closed = pulses.metrics(ov)
        rho = channel.apply_noisy_cswap(ov)
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
        "quadrature-node-doubling": _check_order_doubling,
        "polarization-symmetry": _check_polarization_symmetry,
        "channel-closed-form": _check_channel_closed_form,
    },
}

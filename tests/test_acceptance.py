"""Release gate: nine checks that must all pass before shipping.

Run with ``pytest -v tests/test_acceptance.py`` to get one verdict line per
criterion.  Tolerances here are contractual; the unit-test files pin the same
quantities more tightly where an independent derivation backs them.
"""
import math
import time

import numpy as np
import pytest

from cavityswap import channel, circuits, cli, pulses
from cavityswap.cavity import CavityParams
from cavityswap.circuits import (
    Gate,
    circuit_unitary,
    cpf_circuit,
    cpf_feedforward,
    cpf_target,
    czz_target,
    equivalent_up_to_phase,
    format_circuit,
    random_state,
    swap_test,
    synthesize,
)
from cavityswap.pulses import PulseSpec, gate_metrics

ATOMIC = CavityParams.symmetric(32.0 / 4.2, 1.0, 2.6 / 4.2)
SOLID_STATE = CavityParams.symmetric(0.66 / 6.0, 1.0, 0.001 / 6.0)


def test_criterion_1_atomic_operating_point():
    start = time.perf_counter()
    result = gate_metrics(ATOMIC, PulseSpec(0.1))
    elapsed = time.perf_counter() - start
    assert 0.9970 <= result.fidelity <= 0.9980
    assert 0.012 <= result.loss_probability <= 0.014
    assert elapsed < 1.0
    print(f"atomic point: p={result.loss_probability:.6f} F={result.fidelity:.6f} "
          f"({elapsed * 1e3:.0f} ms)")


def test_criterion_2_solid_state_operating_point():
    bandwidth = 0.1 * SOLID_STATE.g_h**2 / SOLID_STATE.kappa_h
    start = time.perf_counter()
    result = gate_metrics(SOLID_STATE, PulseSpec(bandwidth))
    elapsed = time.perf_counter() - start
    assert 0.9971 <= result.fidelity <= 0.9981
    assert 0.0144 <= result.loss_probability <= 0.0174
    assert elapsed < 1.0
    print(f"solid-state point: p={result.loss_probability:.6f} F={result.fidelity:.6f} "
          f"({elapsed * 1e3:.0f} ms)")


def test_criterion_3_flux_conservation():
    cli.VERIFY_CHECKS["physics"]["flux-conservation"]()
    print("flux conservation: residual <= 1e-12 over 20 random rate sets, g = 0 and gamma = 0")


def test_criterion_4_coupling_and_bandwidth_trends(tmp_path):
    start = time.perf_counter()
    g_csv = tmp_path / "coupling.csv"
    assert cli.run(
        ["sweep", "--axis", "coupling", "--values", "1:10:10", "--bandwidth", "0.05",
         "--out", str(g_csv)]
    ) == 0
    dw_csv = tmp_path / "bandwidth.csv"
    assert cli.run(
        ["sweep", "--axis", "bandwidth", "--values", "0.02:0.3:15", "--coupling", "6",
         "--out", str(dw_csv)]
    ) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0

    f3 = gate_metrics(CavityParams.symmetric(3.0, 1.0, 1.0), PulseSpec(0.1)).fidelity
    f10 = gate_metrics(CavityParams.symmetric(10.0, 1.0, 1.0), PulseSpec(0.1)).fidelity
    assert abs(f3 - f10) <= 0.01

    g_rows = [line.split(",") for line in g_csv.read_text().strip().splitlines()[1:]]
    p_of_g = [float(row[2]) for row in g_rows]
    assert len(p_of_g) == 10
    assert all(a > b for a, b in zip(p_of_g, p_of_g[1:]))  # strictly decreasing

    dw_rows = [line.split(",") for line in dw_csv.read_text().strip().splitlines()[1:]]
    p_of_dw = [float(row[2]) for row in dw_rows]
    f_of_dw = [float(row[3]) for row in dw_rows]
    assert len(p_of_dw) == 15
    assert all(a < b for a, b in zip(p_of_dw, p_of_dw[1:]))  # strictly increasing
    assert all(a < b for a, b in zip(
        (1.0 - f for f in f_of_dw), (1.0 - f for f in f_of_dw[1:])
    ))
    print(f"trends: |F(3k)-F(10k)|={abs(f3 - f10):.2e}, both sweeps in {elapsed:.1f} s")


def test_criterion_5_phase_flip_feedforward():
    target = cpf_target()
    gates = [s for s in cpf_circuit().steps if isinstance(s, Gate)]
    U = circuit_unitary(gates, 3).reshape(2, 4, 2, 4)
    corrections = {0: np.eye(4), 1: np.kron([[1, 0], [0, -1]], [[1, 0], [0, -1]])}
    for outcome in (0, 1):
        block = (U[outcome, :, 0, :] + U[outcome, :, 1, :]) / math.sqrt(2.0)
        scale = math.sqrt(float(np.sum(np.abs(block) ** 2)) / 4.0)
        assert equivalent_up_to_phase(corrections[outcome] @ (block / scale), target, 1e-12)

    rng = np.random.default_rng(500)
    for _ in range(100):
        photons = random_state(2, rng)
        want = target @ photons.amplitudes
        for branch in cpf_feedforward(photons):
            assert abs(branch.probability - 0.5) <= 1e-12
            got = branch.post_state.amplitudes
            k = int(np.argmax(np.abs(got)))
            assert np.max(np.abs(got - (got[k] / want[k]) * want)) <= 1e-12
    print("phase flip: both branches at 1/2, corrected maps reach the target (1e-12)")


def test_criterion_6_swap_test_statistics():
    rng = np.random.default_rng(600)
    errors = []
    for _ in range(200):
        n = int(rng.integers(1, 5))
        psi, phi = random_state(n, rng), random_state(n, rng)
        overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
        got = swap_test(psi, phi)
        errors.append(abs(got - (1.0 - overlap) / 2.0))
        # the halved interference form, not the bare 1 - |<psi|phi>|^2
        if overlap < 0.9:
            assert abs(got - (1.0 - overlap)) > 1e-3
    # np.max propagates NaN; Python's max would drop it
    worst = float(np.max(errors))
    assert worst <= 1e-12

    trials = 10**4
    for seed in (1, 2, 3):
        srng = np.random.default_rng(seed)
        psi, phi = random_state(3, srng), random_state(3, srng)
        exact = swap_test(psi, phi)
        freq = float(np.mean(srng.random(trials) < exact))
        se = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(freq - exact) <= 3.0 * se
    print(f"swap test: closed form to {worst:.2e}, empirical within 3 sigma at 1e4 trials")


def test_criterion_7_synthesis_rediscovery():
    start = time.perf_counter()
    czz = synthesize(czz_target(), 2, ("I", "Z"))
    czz_elapsed = time.perf_counter() - start
    assert czz_elapsed < 1.0
    rendered = [format_circuit(m.circuit) for m in czz.matches]
    assert "Z(1) ; CSWAP(0,1,2) ; Z(1) ; CSWAP(0,1,2)" in rendered

    cpf = synthesize(
        cpf_target(), 2, ("I", "Z", "S", "Sdag", "H"),
        allow_feedforward=True, time_budget=60.0,
    )
    assert not cpf.truncated
    placements = {m.layers: m.feedforward for m in cpf.matches}
    want = (("I", "Z", "I"), ("Sdag", "Z", "I"), ("H", "Sdag", "S"))
    assert placements.get(want) == (0, 3)
    print(f"synthesis: czz in {czz_elapsed * 1e3:.0f} ms, "
          f"feed-forward placement among {len(cpf.matches)} matches in {cpf.elapsed:.1f} s")


def test_criterion_8_channel_metrics_identity():
    rng = np.random.default_rng(800)
    errors = []
    for _ in range(50):
        params = CavityParams(
            g_h=float(rng.uniform(0.5, 12.0)),
            g_v=float(rng.uniform(0.5, 12.0)),
            kappa_h=1.0,
            kappa_v=float(rng.uniform(0.5, 2.0)),
            gamma_h=float(rng.uniform(0.0, 2.0)),
            gamma_v=float(rng.uniform(0.0, 2.0)),
        )
        pulse = PulseSpec(float(rng.uniform(0.005, 0.3)))
        closed = gate_metrics(params, pulse)
        rho = channel.apply_noisy_cswap(pulses.overlaps(params, pulse))
        errors.append(abs(channel.loss_probability(rho) - closed.loss_probability))
        errors.append(abs(channel.fidelity(rho) - closed.fidelity))
    worst = float(np.max(errors))
    assert worst <= 1e-9
    print(f"channel identity: max |density - closed form| = {worst:.2e} over 50 draws")


def test_criterion_9_register_swap_semantics():
    cli.VERIFY_CHECKS["circuits"]["register-swap-permutation"]()
    print("register swap: every basis state maps to its image, n = 1..4 (680 states)")

"""Noisy controlled-swap channel versus the closed-form metrics."""
import numpy as np
import pytest

from cavityswap import pulses
from cavityswap.cavity import CavityParams
from cavityswap.channel import OutputDensity, apply_noisy_cswap, fidelity, loss_probability
from cavityswap.pulses import OverlapSet, PulseSpec

ATOMIC = CavityParams.symmetric(32.0 / 4.2, 1.0, 2.6 / 4.2)

PERFECT = OverlapSet(1.0, 1.0, 1.0, 1.0, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)


def test_branches_read_reflect_and_transmit_averages():
    # atomic branch 0 reflects the photons, branch 1 transmits them: a lossy
    # reflection shows only with the atom in |0>, a lossy transmission in |1>
    ov = OverlapSet(0.9, 0.8, 1.0, 1.0, 1, 1, 1, 1)
    assert loss_probability(apply_noisy_cswap(ov, atom=(1, 0))) == pytest.approx(0.28, abs=1e-12)
    assert loss_probability(apply_noisy_cswap(ov, atom=(0, 1))) == pytest.approx(0.0, abs=1e-12)
    ov = OverlapSet(1.0, 1.0, 0.9, 0.8, 1, 1, 1, 1)
    assert loss_probability(apply_noisy_cswap(ov, atom=(1, 0))) == pytest.approx(0.0, abs=1e-12)
    assert loss_probability(apply_noisy_cswap(ov, atom=(0, 1))) == pytest.approx(0.28, abs=1e-12)


def test_output_is_a_density_operator():
    rho = apply_noisy_cswap(pulses.overlaps(ATOMIC, PulseSpec(0.1)))
    mat = rho.matrix
    assert mat.shape == (72, 72)
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
    assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(mat).min() >= -1e-10


def test_perfect_model_is_lossless_and_faithful():
    rho = apply_noisy_cswap(PERFECT)
    assert loss_probability(rho) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(rho) == pytest.approx(1.0, abs=1e-12)


def test_branch_one_exchanges_port_contents():
    # distinguishable inputs: h on the left port, v on the right; in the
    # transmit branch the ports must come back exchanged
    rho = apply_noisy_cswap(PERFECT, photon_left=(1, 0), photon_right=(0, 1))
    tensor = rho.matrix.reshape(2, 6, 6, 2, 6, 6)
    # (atom, left pol*mode, right pol*mode); nominal mode index 0: h -> 0, v -> 3
    keep = tensor[0, 0, 3, 0, 0, 3].real
    swapped = tensor[1, 3, 0, 1, 3, 0].real
    crossed = tensor[0, 3, 0, 0, 3, 0].real
    assert keep == pytest.approx(0.5, abs=1e-12)
    assert swapped == pytest.approx(0.5, abs=1e-12)
    assert crossed == pytest.approx(0.0, abs=1e-12)


def test_single_polarization_loss_budget():
    # v-channels ideal, h-channels lossy with no distortion: the loss should
    # be the average of the two h failure probabilities
    model = OverlapSet(0.9, 1.0, 0.8, 1.0, 1, 1, 1, 1)
    rho = apply_noisy_cswap(model)
    assert loss_probability(rho) == pytest.approx(1.0 - (0.9 + 0.8) / 2.0, abs=1e-12)


def test_distortion_lowers_fidelity_not_loss():
    # survival stays perfect; only the mode overlap degrades
    xi = 0.97 + 0.01j
    model = OverlapSet(1, 1, 1, 1, xi, xi, 1, 1)
    rho = apply_noisy_cswap(model)
    assert loss_probability(rho) == pytest.approx(0.0, abs=1e-12)
    expected = abs(xi * xi + 1.0) ** 2 / 4.0
    assert fidelity(rho) == pytest.approx(expected, abs=1e-12)


def test_matches_closed_form_across_draws():
    rng = np.random.default_rng(123)
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
        closed = pulses.gate_metrics(params, pulse)
        rho = apply_noisy_cswap(pulses.overlaps(params, pulse))
        assert loss_probability(rho) == pytest.approx(closed.loss_probability, abs=1e-9)
        assert fidelity(rho) == pytest.approx(closed.fidelity, abs=1e-9)


def test_input_validation():
    with pytest.raises(ValueError):
        OverlapSet(1.2, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        OverlapSet(1, 1, 1, 1, 1.1 + 0j, 1, 1, 1)
    with pytest.raises(ValueError):
        apply_noisy_cswap(PERFECT, photon_left=(0.0, 0.0))
    with pytest.raises(ValueError):
        apply_noisy_cswap(PERFECT, atom=(1.0, 0.0, 0.0))
    for kwargs in ({"photon_left": (np.nan, 0.0)}, {"photon_right": (0.0, np.nan)},
                   {"atom": (np.nan, 1.0)}):
        with pytest.raises(ValueError, match="must be normalized"):
            apply_noisy_cswap(PERFECT, **kwargs)


def test_a_dead_branch_drops_out_of_the_fidelity():
    # every photon is lost with the atom in |0>: that branch has no
    # survivors to renormalize, and only the perfect branch 1 counts
    rho = apply_noisy_cswap(OverlapSet(0, 0, 1, 1, 0, 0, 1, 1))
    assert loss_probability(rho) == pytest.approx(0.5, abs=1e-15)
    assert fidelity(rho) == pytest.approx(0.25, abs=1e-15)


def test_output_density_rejects_a_nan_entry():
    matrix = apply_noisy_cswap(PERFECT).matrix.copy()
    matrix[0, 1] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        OutputDensity(matrix, apply_noisy_cswap(PERFECT).branch_targets)


def test_output_density_rejects_a_nan_trace():
    # a Hermitian diagonal whose sum overflows both ways: the trace is NaN
    matrix = np.zeros((72, 72), dtype=complex)
    matrix[np.arange(4), np.arange(4)] = [1e308, 1e308, -1e308, -1e308]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(np.trace(matrix).real)
        with pytest.raises(ValueError, match="trace nan deviates"):
            OutputDensity(matrix, apply_noisy_cswap(PERFECT).branch_targets)


def test_output_density_rejects_a_nan_eigenvalue(monkeypatch):
    rho = apply_noisy_cswap(PERFECT)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: np.full(len(mat), np.nan))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        OutputDensity(rho.matrix, rho.branch_targets)


def test_output_density_shape_is_checked():
    with pytest.raises(ValueError, match="density matrix must be 72x72"):
        OutputDensity(np.eye(2), (np.zeros(72), np.zeros(72)))

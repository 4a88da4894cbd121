"""Overlap quadrature oracle: agreement, self-consistency, failure modes."""

import math

import numpy as np
import pytest

from sgcoherence import (
    QuadratureConvergenceError,
    QuadratureSpec,
    coherence,
    decoherence_time,
    kernels,
    kinematics,
    overlap_quadrature,
    packet_amplitude,
)


def test_spec_validation():
    QuadratureSpec()
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=float("nan"))
    for bad in (-1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=bad)
    for bad in (4.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            QuadratureSpec(window_halfwidth_sigmas=bad)
        with pytest.raises(ValueError):
            QuadratureSpec(min_points_per_oscillation=bad)


def test_overlap_is_unity_at_t0(typical):
    spec = QuadratureSpec()
    value, err = overlap_quadrature(typical, 0.0, spec, full_output=True)
    assert abs(value - 1.0) <= spec.abs_tol
    assert err <= spec.abs_tol
    assert value.imag == pytest.approx(0.0, abs=1e-12)


def test_overlap_matches_closed_form(typical):
    spec = QuadratureSpec()
    for t in np.geomspace(1e-12, 1e-4, 25):
        value, err = overlap_quadrature(typical, float(t), spec, full_output=True)
        assert err <= spec.abs_tol
        assert abs(abs(value) - float(coherence(typical, float(t)))) <= 1e-6


def test_overlap_imaginary_part_negligible(typical):
    spec = QuadratureSpec()
    for t in np.geomspace(1e-12, 1e-4, 25):
        value = overlap_quadrature(typical, float(t), spec)
        assert abs(value.imag) <= 1e-8


def test_overlap_at_tau_is_inverse_e(typical):
    tau = decoherence_time(typical)
    value = overlap_quadrature(typical, tau, QuadratureSpec())
    assert abs(abs(value) - 1.0 / math.e) <= 1e-6


def test_self_consistency_on_tolerance_halving(typical):
    # Halving abs_tol must move the result by less than the looser bound.
    for t in (1e-10, 2e-9, 1.3e-5):
        v1, e1 = overlap_quadrature(typical, t, QuadratureSpec(abs_tol=1e-8), full_output=True)
        v2, _ = overlap_quadrature(typical, t, QuadratureSpec(abs_tol=5e-9), full_output=True)
        assert abs(v1 - v2) <= e1


def test_convergence_failure_carries_estimate(typical):
    spec = QuadratureSpec(abs_tol=1e-15, max_subdivisions=8)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        overlap_quadrature(typical, 2e-9, spec)
    err = exc_info.value
    assert abs(err.estimate - coherence(typical, 2e-9)) < 1e-6
    assert err.error_bound > 1e-15


def test_negative_time_rejected(typical):
    with pytest.raises(ValueError):
        overlap_quadrature(typical, -1e-9)


def test_error_bound_is_honest(typical):
    # The reported bound must cover the actual deviation from the closed form
    # wherever the closed form itself is reliable (well above underflow).
    spec = QuadratureSpec()
    for t in np.geomspace(1e-11, 3e-9, 15):
        value, err = overlap_quadrature(typical, float(t), spec, full_output=True)
        true = float(coherence(typical, float(t)))
        assert abs(abs(value) - true) <= max(err, 1e-12) * 5.0


def test_overlap_integrand_is_branch_product(typical):
    # The fused integrand must equal phi_+ * conj(phi_-) built from the
    # reference amplitudes. Both routes form phases of up to a*z^2 rad
    # (~1e5 rad at 13 us), so each carries rounding noise of order
    # a*z^2*eps; the comparison allows that much and no more.
    for t in (0.0, 1e-9, 1e-6, 1.3e-5):
        k = kinematics(typical, t)
        sigma_t, dzbar = k.sigma_t, k.delta_z_bar
        amp2 = 1.0 / (math.sqrt(2.0 * math.pi) * sigma_t)
        k_cross = typical.force * t / typical.hbar * (1.0 + (typical.sigma0 / sigma_t) ** 2)
        z = np.linspace(-dzbar - 6 * sigma_t, dzbar + 6 * sigma_t, 257)
        fused = kernels.overlap_integrand(z, amp2, 1.0 / (4.0 * sigma_t**2), dzbar, k_cross)
        reference = packet_amplitude(typical, +1, z, t) * np.conj(
            packet_amplitude(typical, -1, z, t)
        )
        np.testing.assert_allclose(np.abs(fused), np.abs(reference), rtol=1e-12)
        a = typical.mass / (2.0 * typical.hbar * t) if t > 0.0 else 0.0
        phase_noise = a * np.max(z) ** 2 * 5e-16 + 1e-12
        assert float(np.abs(np.angle(fused / reference)).max()) <= phase_noise

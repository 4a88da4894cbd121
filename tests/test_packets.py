"""Evolved packet amplitudes and densities."""

import math

import numpy as np
import pytest
from mpmath import expj, mp, mpf

from sgcoherence import (
    ExperimentParams,
    decoherence_time,
    kinematics,
    packet_amplitude,
    packet_density,
    packet_norm_quadrature,
    total_density_norm_quadrature,
    total_position_density,
    typical_params,
)

# phi_+(z = 1.3e-5 m, t = 2 ns) at typical parameters, frozen from a
# 50-digit mpmath evaluation.
PHI_PLUS_RE = -85.891629543758212
PHI_PLUS_IM = 98.790117970677337


def test_initial_packet_at_origin(typical):
    value = packet_amplitude(typical, +1, 0.0, 0.0)
    assert value.imag == 0.0
    assert value.real == pytest.approx((2 * math.pi * typical.sigma0**2) ** -0.25, rel=1e-15)


def test_branches_coincide_at_t0(typical):
    z = np.linspace(-3e-5, 3e-5, 101)
    plus = packet_amplitude(typical, +1, z, 0.0)
    minus = packet_amplitude(typical, -1, z, 0.0)
    np.testing.assert_array_equal(plus, minus)


@pytest.mark.parametrize("t", [2e-9, 1e-6, 1e-5, 1e-4])
@pytest.mark.parametrize("branch", [+1, -1])
def test_modulus_at_center(typical, t, branch):
    k = kinematics(typical, t)
    center = branch * k.delta_z_bar
    value = packet_amplitude(typical, branch, center, t)
    assert abs(value) ** 2 == pytest.approx(
        1.0 / (math.sqrt(2 * math.pi) * k.sigma_t), rel=1e-13
    )


def test_frozen_amplitude_value(typical):
    # The phase terms about z = 0 reach ~7e7 rad here; taken about the
    # packet centre they stay small, so the phase is good to rounding.
    value = packet_amplitude(typical, +1, 1.3e-5, 2e-9)
    reference = complex(PHI_PLUS_RE, PHI_PLUS_IM)
    assert abs(value) == pytest.approx(abs(reference), rel=1e-12)
    assert value.real == pytest.approx(PHI_PLUS_RE, abs=abs(reference) * 1e-12)
    assert value.imag == pytest.approx(PHI_PLUS_IM, abs=abs(reference) * 1e-12)


def test_density_peak_and_one_sigma_point(typical):
    t = 1e-5
    k = kinematics(typical, t)
    peak = 1.0 / (math.sqrt(2 * math.pi) * k.sigma_t)
    assert packet_density(typical, +1, k.delta_z_bar, t) == pytest.approx(peak, rel=1e-13)
    assert packet_density(typical, +1, k.delta_z_bar + k.sigma_t, t) == pytest.approx(
        peak * math.exp(-0.5), rel=1e-13
    )
    assert packet_density(typical, -1, -k.delta_z_bar, t) == pytest.approx(peak, rel=1e-13)


def test_density_equals_modulus_squared_on_grid(typical):
    # Two independent routes: the Gaussian law vs |amplitude|^2.
    t = 1e-6
    k = kinematics(typical, t)
    z = np.linspace(-k.delta_z_bar - 8 * k.sigma_t, k.delta_z_bar + 8 * k.sigma_t, 1000)
    for branch in (+1, -1):
        density = packet_density(typical, branch, z, t)
        modulus = np.abs(packet_amplitude(typical, branch, z, t)) ** 2
        np.testing.assert_allclose(modulus, density, rtol=1e-10, atol=1e-300)


def test_amplitude_finite_for_finite_inputs(typical):
    z = np.linspace(-1e-3, 1e-3, 401)
    for t in (0.0, 5e-324, 1e-12, 2e-9, 1e-4, 1.0):  # 2 hbar t underflows at 5e-324
        values = packet_amplitude(typical, +1, z, t)
        assert np.all(np.isfinite(values.real)) and np.all(np.isfinite(values.imag))


def test_norm_preserved(typical):
    for t in (2e-9, 1e-5):
        norm, err = packet_norm_quadrature(typical, +1, t)
        assert abs(norm - 1.0) < 1e-8
        assert err < 1e-8


def test_total_density_no_interference(typical):
    t = 1e-5
    z = np.linspace(-5e-5, 5e-5, 301)
    total = total_position_density(typical, z, t)
    explicit = 0.5 * packet_density(typical, +1, z, t) + 0.5 * packet_density(typical, -1, z, t)
    np.testing.assert_allclose(total, explicit, rtol=1e-14)


def test_total_density_reduces_to_single_branch():
    p = ExperimentParams(mass=1.8e-25, field_gradient=1e3, sigma0=1e-5,
                         alpha=1.0, beta=0.0)
    z = np.linspace(-5e-5, 5e-5, 101)
    np.testing.assert_allclose(
        total_position_density(p, z, 1e-5),
        packet_density(p, +1, z, 1e-5),
        rtol=1e-14,
    )


def test_total_density_single_gaussian_at_t0(typical):
    z = np.linspace(-4e-5, 4e-5, 101)
    np.testing.assert_allclose(
        total_position_density(typical, z, 0.0),
        np.abs(packet_amplitude(typical, +1, z, 0.0)) ** 2,
        rtol=1e-13,
    )


def test_bad_branch_rejected(typical):
    with pytest.raises(ValueError):
        packet_amplitude(typical, 0, 0.0, 1e-9)
    with pytest.raises(ValueError):
        packet_density(typical, 2, 0.0, 1e-9)


def test_negative_time_rejected(typical):
    with pytest.raises(ValueError):
        packet_amplitude(typical, +1, 0.0, -1e-9)


@pytest.mark.parametrize("t", [-1e-9, math.nan, math.inf])
def test_norm_quadratures_reject_bad_times(typical, t):
    with pytest.raises(ValueError):
        packet_norm_quadrature(typical, +1, t)
    with pytest.raises(ValueError):
        total_density_norm_quadrature(typical, t)


def _phase_50_digits(params, z, t):
    """exp(i phase) of phi_+ from the uncentred textbook phase, in 50 digits."""
    with mp.workdps(50):
        m, hbar, f, s0, t = (mpf(float(x)) for x in
                             (params.mass, params.hbar, params.force, params.sigma0, t))
        a = m / (2 * hbar * t)
        dz = f * t * t / (2 * m)
        ratio2 = 1 / (1 + (hbar * t / (2 * m * s0 * s0)) ** 2)
        cubic = -(f * f * t**3) / (24 * m * hbar)
        return np.array([
            complex(expj(a * zi * zi + 2 * a * dz * zi + cubic - a * ratio2 * (zi - dz) ** 2))
            for zi in (mpf(float(x)) for x in z)
        ])


@pytest.mark.parametrize("mass, gradient, sigma0, t_over_tau", [
    (1.0, 1.0, 1.0, 1.0),
    (10.0, 1.0, 10.0, 0.3),
    (10.0, 10.0, 10.0, 0.3),
    (0.1, 0.1, 10.0, 100.0),
])
def test_phase_against_extended_precision(mass, gradient, sigma0, t_over_tau):
    # Wide, heavy packets have phase terms of up to ~1e13 rad that cancel
    # to a few rad; summed about z = 0 in double precision they left up to
    # 0.15 rad of z-dependent rounding on these beams.
    base = typical_params()
    params = ExperimentParams(mass=base.mass * mass,
                              field_gradient=base.field_gradient * gradient,
                              sigma0=base.sigma0 * sigma0)
    t = t_over_tau * decoherence_time(params)
    k = kinematics(params, t)
    z = np.linspace(k.delta_z_bar - 4 * k.sigma_t, k.delta_z_bar + 4 * k.sigma_t, 41)
    value = np.asarray(packet_amplitude(params, +1, z, t))
    twist = value / np.abs(value) / _phase_50_digits(params, z, t)
    assert float(np.abs(np.angle(twist / twist[20])).max()) <= 1e-9

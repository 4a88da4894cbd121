"""Propagator-convolution oracle against the closed-form evolved packets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcoherence import (
    QuadratureConvergenceError,
    QuadratureSpec,
    kinematics,
    packet_amplitude,
    packet_density,
    propagate_via_kernel,
)
from sgcoherence import oracle

KERNEL_SPEC = QuadratureSpec(abs_tol=1e-5)


def _grid_over_bright_region(params, t, branch, n):
    k = kinematics(params, t)
    center = branch * k.delta_z_bar
    span = k.sigma_t * math.sqrt(2.0 * math.log(1e3))  # density >= 1e-3 * peak
    return np.linspace(center - span, center + span, n)


@pytest.mark.parametrize("t", [2e-9, 1e-6, 1e-5])
def test_modulus_matches_density(typical, t):
    z = _grid_over_bright_region(typical, t, +1, 19)
    samples = propagate_via_kernel(typical, +1, z, t, KERNEL_SPEC)
    values = np.array([s.value for s in samples])
    density = np.asarray(packet_density(typical, +1, z, t))
    np.testing.assert_allclose(np.abs(values) ** 2, density, rtol=1e-4)


@pytest.mark.parametrize("t", [2e-9, 1e-6, 1e-5])
def test_relative_phase_constant(typical, t):
    z = _grid_over_bright_region(typical, t, +1, 19)
    samples = propagate_via_kernel(typical, +1, z, t, KERNEL_SPEC)
    values = np.array([s.value for s in samples])
    closed = np.asarray(packet_amplitude(typical, +1, z, t))
    phases = values / closed
    phases /= np.abs(phases)
    mean = phases.mean()
    mean /= abs(mean)
    assert float(np.abs(np.angle(phases / mean)).max()) <= 1e-3


def test_global_phase_is_spreading_phase(typical):
    # The one free phase per time equals the Gouy-type phase
    # -arctan(hbar t / 2 m sigma0^2)/2 of free Gaussian spreading.
    t = 1e-6
    z = _grid_over_bright_region(typical, t, +1, 9)
    samples = propagate_via_kernel(typical, +1, z, t, KERNEL_SPEC)
    values = np.array([s.value for s in samples])
    closed = np.asarray(packet_amplitude(typical, +1, z, t))
    gamma = np.angle((values / closed).mean())
    expected = -0.5 * math.atan(typical.hbar * t / (2 * typical.mass * typical.sigma0**2))
    assert gamma == pytest.approx(expected, abs=1e-6)


def test_minus_branch_center_tracking(typical):
    t = 1e-5
    k = kinematics(typical, t)
    for branch in (+1, -1):
        center = branch * k.delta_z_bar
        z = np.linspace(center - 2 * k.sigma_t, center + 2 * k.sigma_t, 41)
        samples = propagate_via_kernel(typical, branch, z, t, KERNEL_SPEC)
        values = np.abs([s.value for s in samples])
        peak_z = z[int(np.argmax(values))]
        assert abs(peak_z - center) <= (z[1] - z[0])


def test_unitarity(typical):
    # Composite-Simpson mass of the propagated density over +-5.5 sigma.
    t = 1e-6
    k = kinematics(typical, t)
    z = np.linspace(k.delta_z_bar - 5.5 * k.sigma_t, k.delta_z_bar + 5.5 * k.sigma_t, 121)
    samples = propagate_via_kernel(typical, +1, z, t, KERNEL_SPEC)
    density = np.abs([s.value for s in samples]) ** 2
    h = z[1] - z[0]
    weights = np.ones_like(z)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    mass = float(np.dot(weights, density)) * h / 3.0
    assert abs(mass - 1.0) <= 1e-6


def test_error_bounds_reported(typical):
    z = _grid_over_bright_region(typical, 1e-6, +1, 5)
    samples, bounds = propagate_via_kernel(typical, +1, z, 1e-6, KERNEL_SPEC, full_output=True)
    assert len(samples) == 5
    assert np.all(bounds <= KERNEL_SPEC.abs_tol)
    closed = np.asarray(packet_amplitude(typical, +1, z, 1e-6))
    values = np.array([s.value for s in samples])
    # one global phase allowed
    phase = (values / closed).mean()
    phase /= abs(phase)
    np.testing.assert_allclose(values, closed * phase, atol=5 * KERNEL_SPEC.abs_tol)


def test_t_nonpositive_rejected(typical):
    with pytest.raises(ValueError):
        propagate_via_kernel(typical, +1, [0.0], 0.0, KERNEL_SPEC)
    with pytest.raises(ValueError):
        propagate_via_kernel(typical, +1, [0.0], -1e-9, KERNEL_SPEC)


def test_unreachable_tolerance_raises(typical):
    spec = QuadratureSpec(abs_tol=1e-15)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        propagate_via_kernel(typical, +1, [1e-5], 2e-9, spec)
    assert exc_info.value.error_bound > 1e-15


def test_sample_records_carry_grid(typical):
    z = np.array([-1e-5, 0.0, 1e-5])
    samples = propagate_via_kernel(typical, +1, z, 1e-6, KERNEL_SPEC)
    assert [s.z for s in samples] == list(z)


def _tail_remainder_per_cell(c, zstar, outward, u_end, a, sigma0):
    """Reference: the remainder bound of one tail summed one cell at a time."""
    if u_end <= c:
        return 0.0
    inv = 1.0 / (4.0 * sigma0 * sigma0)
    edges = np.geomspace(c, u_end, 33)
    x = zstar + outward * edges
    total = 0.0
    for k in range(edges.size - 1):
        u0 = edges[k]
        x0, x1 = x[k], x[k + 1]
        x_lo, x_hi = (x0, x1) if x0 <= x1 else (x1, x0)
        x_near = 0.0 if x_lo <= 0.0 <= x_hi else (x_lo if x_lo > 0.0 else x_hi)
        env_max = math.exp(-min(x_near * x_near * inv, 1400.0))
        x_hat = max(abs(x0), abs(x1))
        d1 = 2.0 * x_hat * inv
        d2 = 4.0 * x_hat * x_hat * inv * inv + 2.0 * inv
        d3 = 8.0 * x_hat**3 * inv**3 + 12.0 * x_hat * inv * inv
        u2 = u0 * u0
        u3 = u2 * u0
        term = d3 / u3 + 6.0 * d2 / (u3 * u0) + 15.0 * d1 / (u3 * u2) + 15.0 / (u3 * u3)
        total += env_max * term * (edges[k + 1] - u0)
    return 2.0 * total / (8.0 * a * a * a)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@settings(max_examples=400, deadline=None)
@given(
    sigma0=_log_uniform(-7.0, -3.0),
    a=_log_uniform(0.0, 14.0),
    c_over_sigma0=_log_uniform(-3.0, math.log10(30.0)),
    end_over_c=_log_uniform(-0.5, 3.0),  # below 1: no tail, the bound is 0
    zstar_over_sigma0=st.floats(-30.0, 30.0),  # cells straddle 0 or hit the clamp
    outward=st.sampled_from([-1.0, 1.0]),
)
def test_tail_remainder_matches_per_cell_sum(sigma0, a, c_over_sigma0, end_over_c,
                                             zstar_over_sigma0, outward):
    c = c_over_sigma0 * sigma0
    args = (c, zstar_over_sigma0 * sigma0, outward, end_over_c * c, a, sigma0)
    reference = _tail_remainder_per_cell(*args)
    value = oracle._kernel_tail_remainder(*args)
    assert (value == 0.0) == (reference == 0.0)
    assert value == pytest.approx(reference, rel=1e-13, abs=0.0)

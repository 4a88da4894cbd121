"""Propagator-convolution oracle against the closed-form evolved packets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import beams
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from sgcoherence import (
    ExperimentParams,
    QuadratureConvergenceError,
    QuadratureSpec,
    decoherence_time,
    kinematics,
    packet_amplitude,
    packet_density,
    propagate_via_kernel,
)
from sgcoherence import kernels, oracle

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


def _closed_form_phase_factor(params, z, t):
    """exp(i phase) of the evolved + branch packet, the phase in 50 digits.

    The phase a z^2 + 2 a dz z - f^2 t^3/(24 m hbar) - a (sigma0/sigma(t))^2
    (z - dz)^2, a = m/(2 hbar t), has terms far larger than its value; in 50
    digits they cancel without leaving rounding behind.
    """
    with mp.workdps(50):
        m, hbar, f, s0, t = (mpf(float(x)) for x in
                             (params.mass, params.hbar, params.force, params.sigma0, t))
        a = m / (2 * hbar * t)
        dz = f * t * t / (2 * m)
        ratio2 = 1 / (1 + (hbar * t / (2 * m * s0 * s0)) ** 2)
        cubic = f * f * t**3 / (24 * m * hbar)
        return np.array([
            complex(mp.expj(a * zi * zi + 2 * a * dz * zi - cubic - a * ratio2 * (zi - dz) ** 2))
            for zi in (mpf(float(v)) for v in z)
        ])


def test_phase_constant_to_rounding_for_a_wide_heavy_packet():
    # At 1e4 decay times the kernel's z-independent phase terms reach ~1e10
    # rad; formed per z point, their rounding varied across z by 3.6e-6 rad.
    params = ExperimentParams(mass=7.6e-26, field_gradient=15.0, sigma0=1.6e-7)
    t = 1e4 * decoherence_time(params)
    z = _grid_over_bright_region(params, t, +1, 21)
    samples = propagate_via_kernel(params, +1, z, t, KERNEL_SPEC)
    phases = np.array([s.value for s in samples]) / _closed_form_phase_factor(params, z, t)
    phases /= np.abs(phases)
    mean = phases.mean()
    assert float(np.abs(np.angle(phases / (mean / abs(mean)))).max()) <= 1e-8


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


@pytest.mark.parametrize("z", [math.nan, math.inf])
def test_non_finite_z_rejected(typical, z):
    with pytest.raises(ValueError):
        propagate_via_kernel(typical, +1, [0.0, z], 1e-6, KERNEL_SPEC)


def test_unreachable_tolerance_raises(typical):
    spec = QuadratureSpec(abs_tol=1e-15)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        propagate_via_kernel(typical, +1, [1e-5], 2e-9, spec)
    assert exc_info.value.error_bound > 1e-15


def test_sample_records_carry_grid(typical):
    z = np.array([-1e-5, 0.0, 1e-5])
    samples = propagate_via_kernel(typical, +1, z, 1e-6, KERNEL_SPEC)
    assert [s.z for s in samples] == list(z)


def _reference_amplitude(params, z, t):
    """The evolved + branch packet the convolution returns, in exact arithmetic.

    The closed form of ``_closed_form_phase_factor`` with its modulus
    (2 pi sigma(t)^2)^(-1/4) exp(-(z - dz)^2/(4 sigma(t)^2)) and the Gouy
    phase -arctan(hbar t/(2 m sigma0^2))/2 of free spreading, from the same
    double inputs. It keeps 50 digits after the point of its largest phase
    term, which reaches ~1e44 rad over ``beams()`` within 10 spreading times.
    """
    z = [float(v) for v in z]
    big = params.mass / (2.0 * params.hbar * t) * max(v * v for v in z)
    with mp.workdps(50 + max(0, int(math.log10(big + 1.0)))):
        m, hbar, f, s0, t = (mpf(float(x)) for x in
                             (params.mass, params.hbar, params.force, params.sigma0, t))
        a = m / (2 * hbar * t)
        dz = f * t * t / (2 * m)
        spread = hbar * t / (2 * m * s0 * s0)
        sigma2 = s0 * s0 * (1 + spread**2)
        cubic = f * f * t**3 / (24 * m * hbar)
        amp = (2 * mp.pi * sigma2) ** (-mpf(1) / 4)
        out = []
        for zi in (mpf(v) for v in z):
            d = zi - dz
            phase = a * zi * zi + 2 * a * dz * zi - cubic - a * d * d / (1 + spread**2)
            out.append(complex(amp * mp.exp(-d * d / (4 * sigma2))
                               * mp.expj(phase - mp.atan(spread) / 2)))
    return np.array(out)


def _assert_within_bounds(params, z, t, spec):
    """The reported bounds hold at every point, or the call gives up above abs_tol."""
    try:
        samples, bounds = propagate_via_kernel(params, +1, z, t, spec, full_output=True)
    except QuadratureConvergenceError as exc:
        assert exc.error_bound > spec.abs_tol
        return None
    err = np.abs(np.array([s.value for s in samples]) - _reference_amplitude(params, z, t))
    assert np.all(err <= bounds), float(np.max(err - bounds))
    return bounds


def test_error_within_bound_at_a_wide_heavy_packet():
    # At 1e4 decay times the kernel's phase reaches ~1e10 rad. Formed in
    # doubles its rounding left errors of 6e-5 against bounds of 6e-13.
    params = ExperimentParams(mass=7.6e-26, field_gradient=15.0, sigma0=1.6e-7)
    t = 1e4 * decoherence_time(params)
    z = _grid_over_bright_region(params, t, +1, 21)
    bounds = _assert_within_bounds(params, z, t, KERNEL_SPEC)
    assert bounds is not None and np.all(bounds <= KERNEL_SPEC.abs_tol)


def test_error_within_bound_where_the_amplitude_underflows(typical):
    # ~54.6 widths out the amplitude falls through the subnormal doubles to
    # 0, and the path mass that scales the rounding bound with it.
    t = 1e-6
    k = kinematics(typical, t)
    z = k.delta_z_bar + k.sigma_t * np.linspace(54.5, 54.8, 13)
    _assert_within_bounds(typical, z, t, KERNEL_SPEC)


@settings(max_examples=200, deadline=None)
@given(params=beams(), x=st.floats(0.0, 1.0))
def test_kernel_error_within_reported_bound(params, x):
    # t from one decay time to ten spreading times, in either order.
    tau = decoherence_time(params)
    t = tau * (10.0 * params.spreading_time / tau) ** x
    _assert_within_bounds(params, _grid_over_bright_region(params, t, +1, 7), t, KERNEL_SPEC)


# ---------------------------------------------------------------- one pass per grid


def _grid_pass(params, z, t, spec, monkeypatch):
    """Kernel values and bounds on ``z``, with the inputs of its layout and its pass."""
    seen = {}
    layout, integrate = oracle._uniform_layout, oracle._integrate

    def recording_layout(lo, hi, wavenumber, scale):
        seen["layout"] = (lo, hi, wavenumber, scale)
        seen["edges"], seen["counts"] = out = layout(lo, hi, wavenumber, scale)
        return out

    def recording_integrate(integrand, edges, abs_tol, extra_error=0.0, what="integral",
                            counts=None, args=()):
        seen["pass"] = (integrand, extra_error, args, what)
        return integrate(integrand, edges, abs_tol, extra_error, what, counts, args)

    monkeypatch.setattr(oracle, "_uniform_layout", recording_layout)
    monkeypatch.setattr(oracle, "_integrate", recording_integrate)
    samples, bounds = propagate_via_kernel(params, +1, z, t, spec, full_output=True)
    monkeypatch.undo()
    return np.array([s.value for s in samples]), bounds, seen


def _assert_matches_per_point_reference(seen, values, bounds, abs_tol):
    """Each point alone, on ``_uniform_edges`` and one ``_integrate``, as the grid pass claims."""
    lo, hi, wavenumber, scale = seen["layout"]
    integrand, extra, (zstar, const), what = seen["pass"]
    assert lo.size == values.size  # every point of these grids is sampled
    first = 0
    for i in range(lo.size):
        edges = oracle._uniform_edges(lo[i], hi[i], wavenumber[i], scale)
        assert seen["counts"][i] == edges.size - 1  # the same nodes
        np.testing.assert_array_equal(seen["edges"][first:first + edges.size], edges)
        first += edges.size
        value, bound = oracle._integrate(lambda v, i=i: integrand(v, zstar[i], const[i]),
                                         edges, abs_tol, extra_error=extra[i], what=what(i))
        assert abs(values[i] - value) <= 1e-15 * abs(value), (i, values[i], value)
        assert abs(bounds[i] - bound) <= 1e-15 * bound, (i, bounds[i], bound)


@pytest.mark.parametrize("step", [0, 1, 2, 3])
def test_grid_pass_matches_one_integral_per_point(typical, monkeypatch, step):
    # From the decay time tau to ten spreading times, in three equal
    # logarithmic steps.
    tau = decoherence_time(typical)
    t = tau * (10.0 * typical.spreading_time / tau) ** (step / 3.0)
    z = _grid_over_bright_region(typical, t, +1, 21)
    values, bounds, seen = _grid_pass(typical, z, t, KERNEL_SPEC, monkeypatch)
    _assert_matches_per_point_reference(seen, values, bounds, KERNEL_SPEC.abs_tol)


def test_grid_pass_over_several_chunks(typical, monkeypatch):
    # 613 points of ~720 nodes fill more than one _CHUNK_NODES chunk; each
    # chunk passes the integrand only its own panels' z* and phase factors.
    t = 1e-6
    z = _grid_over_bright_region(typical, t, +1, 613)
    batches = []
    original = kernels.kernel_integrand

    def recording(v, zstar, *rest):
        batches.append((v.shape, np.shape(zstar)))
        return original(v, zstar, *rest)

    monkeypatch.setattr(kernels, "kernel_integrand", recording)
    values, bounds, seen = _grid_pass(typical, z, t, KERNEL_SPEC, monkeypatch)
    assert len(batches) > 1
    assert sum(shape[0] for shape, _ in batches) == seen["counts"].sum()
    for (panels, nodes), column in batches:
        assert panels * nodes <= oracle._CHUNK_NODES and column == (panels, 1)
    _assert_matches_per_point_reference(seen, values, bounds, KERNEL_SPEC.abs_tol)


def test_grid_pass_names_the_point_that_misses_its_tolerance(typical, monkeypatch):
    t = 1e-6
    z = _grid_over_bright_region(typical, t, +1, 9)
    _, _, seen = _grid_pass(typical, z, t, KERNEL_SPEC, monkeypatch)
    target = seen["pass"][2][0][6]  # z* of the seventh point
    original = oracle._gk_panels

    def failing_there(integrand, centers, halfw, *args):
        vals, errs, floors = original(integrand, centers, halfw, *args)
        errs[args[0] == target] = 1.0
        return vals, errs, floors

    monkeypatch.setattr(oracle, "_gk_panels", failing_there)
    with pytest.raises(QuadratureConvergenceError,
                       match=f"kernel convolution at z={z[6]:.6g}: tolerance") as exc_info:
        propagate_via_kernel(typical, +1, z, t, KERNEL_SPEC)
    assert exc_info.value.error_bound >= 1.0


# ---------------------------------------------------------------- the exact phase


def _exp_i_of_fraction(phase):
    """exp(i phase) of a Fraction, split into doubles as the oracle splits an integer ratio."""
    num, den = phase.numerator, phase.denominator
    out = 1.0 + 0.0j
    d = num / den
    while abs(d) > oracle._EPS:
        out *= complex(math.cos(d), math.sin(d))
        n, k = d.as_integer_ratio()
        num, den = num * k - n * den, den * k
        d = num / den
    return out


def _fraction_phase(params, s, t, z):
    """z* and exp(i Phi) formed term by term in normalising Fraction arithmetic."""
    m, hbar, f, t = (Fraction(v) for v in (params.mass, params.hbar, params.force, t))
    a = m / (2 * hbar * t)
    b = s * f * t / (2 * hbar)
    s_dz = s * f * t * t / (2 * m)
    phi_glob = a * s_dz * s_dz + b * s_dz - f * f * t**3 / (24 * m * hbar)
    zstar = Fraction(z) - s_dz
    return float(zstar), _exp_i_of_fraction(phi_glob + 2 * b * zstar)


@settings(max_examples=300, deadline=None)
@given(params=beams(), x=st.floats(0.0, 1.0), s=st.sampled_from([-1, 1]),
       offset=st.floats(-60.0, 60.0), raw=st.floats(-1.0, 1.0), near=st.booleans())
def test_integer_phase_equals_the_fraction_phase_bit_for_bit(params, x, s, offset, raw, near):
    # t from one decay time to ten spreading times; z within 60 widths of
    # the packet or anywhere in a metre.
    tau = decoherence_time(params)
    t = tau * (10.0 * params.spreading_time / tau) ** x
    k = kinematics(params, t)
    z = s * k.delta_z_bar + offset * k.sigma_t if near else raw
    ((num, den), phase), = oracle._exact_phase(params, s, t, [z])
    zstar, factor = _fraction_phase(params, s, t, z)
    assert num / den == zstar
    assert oracle._exp_i(*phase) == factor

"""Propagator-convolution oracle against the closed-form evolved packets."""

import math

import numpy as np
import pytest
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


_TAIL = st.tuples(
    _log_uniform(-3.0, math.log10(30.0)),  # c / sigma0
    _log_uniform(-0.5, 3.0),  # u_end / c; below 1: no tail, the bound is 0
    st.floats(-30.0, 30.0),  # zstar / sigma0: cells straddle 0 or hit the clamp
    st.sampled_from([-1.0, 1.0]),  # outward
)


@settings(max_examples=400, deadline=None)
@given(
    sigma0=_log_uniform(-7.0, -3.0),
    a=_log_uniform(0.0, 14.0),
    tails=st.lists(_TAIL, min_size=1, max_size=6),
)
def test_tail_remainder_matches_per_cell_sum(sigma0, a, tails):
    c, end, zstar, outward = (np.array(v) for v in zip(*tails))
    c = c * sigma0
    args = (c, zstar * sigma0, outward, end * c)
    values = oracle._kernel_tail_remainder(*args, a, sigma0)
    assert values.shape == c.shape
    for i, value in enumerate(values):
        reference = _tail_remainder_per_cell(*(float(v[i]) for v in args), a, sigma0)
        assert (value == 0.0) == (reference == 0.0)
        assert value == pytest.approx(reference, rel=1e-13, abs=0.0)
        assert oracle._kernel_tail_remainder(*(v[i] for v in args), a, sigma0) == value


def _live_window_per_point(zstar, a, sigma0, mod, tol):
    """Reference: the live-window search of one point, one radius at a time."""
    w_edge = oracle._WINDOW_SIGMAS * sigma0
    lo_full, hi_full = -w_edge - zstar, w_edge - zstar
    radius = 8.0 * math.sqrt(math.pi / a)
    best = None
    for _ in range(200):
        lo = max(lo_full, -radius)
        hi = min(hi_full, radius)
        if lo < hi:
            rem = 0.0
            for sign, cut, end in ((1.0, hi, hi_full), (-1.0, -lo, -lo_full)):
                if 0.0 < cut < end:
                    rem += mod * oracle._kernel_tail_remainder(cut, zstar, sign, end, a, sigma0)
            n_panels = oracle._panel_count(hi - lo, 2.0 * a * max(abs(lo), abs(hi)), sigma0)
            if n_panels > oracle._KERNEL_PANEL_BUDGET and best is not None:
                break
            best = (lo, hi, rem)
            if rem <= tol:
                break
        radius *= 1.35
        if radius > (hi_full - lo_full) + abs(zstar) + w_edge:
            if best is None:
                best = (lo_full, hi_full, 0.0)
            break
    return best


@settings(max_examples=200, deadline=None)
@given(
    sigma0=_log_uniform(-7.0, -3.0),
    a_sigma0_sq=_log_uniform(-2.0, 10.0),  # the budget stops the widest searches
    zstar_over_sigma0=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=6),
    abs_tol=_log_uniform(-12.0, -3.0),
)
def test_live_window_search_matches_per_point_search(sigma0, a_sigma0_sq,
                                                     zstar_over_sigma0, abs_tol):
    a = a_sigma0_sq / sigma0**2
    mod = math.sqrt(a / math.pi) * (2.0 * math.pi * sigma0**2) ** -0.25
    zstar = np.array(zstar_over_sigma0) * sigma0
    w_edge = oracle._WINDOW_SIGMAS * sigma0
    lo, hi, k_max, rem, inside = oracle._live_windows(zstar, a, sigma0, mod, abs_tol / 4.0)
    for i, z in enumerate(zstar):
        ref_lo, ref_hi, ref_rem = _live_window_per_point(float(z), a, sigma0, mod, abs_tol / 4.0)
        assert (lo[i], hi[i]) == (ref_lo, ref_hi)
        assert k_max[i] == 2.0 * a * max(abs(ref_lo), abs(ref_hi))
        assert rem[i] == pytest.approx(ref_rem, rel=1e-13, abs=0.0)
        assert tuple(inside[i]) == (0.0 < hi[i] < w_edge - z, 0.0 < -lo[i] < w_edge + z)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_log_uniform(-9.0, 1.0), st.one_of(st.just(0.0), _log_uniform(-2.0, 12.0))),
             min_size=1, max_size=6),
    _log_uniform(-7.0, -3.0),
)
def test_panel_count_on_floats_matches_its_array_pass(span_k, envelope_scale):
    span, k = (np.array(v) for v in zip(*span_k))
    counts = oracle._panel_count(span, k, envelope_scale)
    for i in range(span.size):
        assert oracle._panel_count(float(span[i]), float(k[i]), envelope_scale) == counts[i]

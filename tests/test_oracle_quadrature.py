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
    packet_norm_quadrature,
    propagate_via_kernel,
)
from sgcoherence import oracle


def test_spec_validation():
    QuadratureSpec()
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=float("nan"))
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=float("inf"))


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
    spec = QuadratureSpec(abs_tol=1e-15)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        overlap_quadrature(typical, 2e-9, spec)
    err = exc_info.value
    assert abs(err.estimate - coherence(typical, 2e-9)) < 1e-6
    assert err.error_bound > 1e-15


def _count_gk_panel_calls(monkeypatch):
    calls = []
    original = oracle._gk_panels

    def counting(integrand, centers, halfw):
        calls.append(centers.size)
        return original(integrand, centers, halfw)

    monkeypatch.setattr(oracle, "_gk_panels", counting)
    return calls


def test_tolerance_under_rounding_floor_fails_after_initial_layout(typical, monkeypatch):
    calls = _count_gk_panel_calls(monkeypatch)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        overlap_quadrature(typical, 2e-9, QuadratureSpec(abs_tol=1e-15))
    assert len(calls) == 1
    err = exc_info.value
    assert err.error_bound > 1e-15
    assert abs(err.estimate - coherence(typical, 2e-9)) < 1e-6
    assert "rounding floor" in str(err)


def test_norm_tolerance_under_rounding_floor_fails_after_initial_layout(typical, monkeypatch):
    calls = _count_gk_panel_calls(monkeypatch)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        packet_norm_quadrature(typical, +1, 2e-9, QuadratureSpec(abs_tol=1e-15))
    assert len(calls) == 1
    assert exc_info.value.error_bound > 1e-15
    assert abs(exc_info.value.estimate - 1.0) < 1e-12
    assert "rounding floor" in str(exc_info.value)


def test_kernel_tolerance_under_rounding_bound_fails_before_layout(typical, monkeypatch):
    # The rounding bound of the path integrand is ~2e-10 here, so abs_tol
    # 1e-15 is out of reach before any panel is laid out.
    calls = _count_gk_panel_calls(monkeypatch)
    k = kinematics(typical, 2e-9)
    z = np.linspace(k.delta_z_bar - k.sigma_t, k.delta_z_bar + k.sigma_t, 3)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        propagate_via_kernel(typical, +1, z, 2e-9, QuadratureSpec(abs_tol=1e-15))
    assert calls == []
    assert exc_info.value.estimate == 0.0
    assert 1e-15 < exc_info.value.error_bound < 1e-9
    assert "rounding bound" in str(exc_info.value)


@pytest.mark.parametrize("z", [1e4, 1e10, 1e100])
def test_kernel_far_point_is_a_certified_zero_before_any_panel(typical, monkeypatch, z):
    # z = 10 km lies ~1e9 widths from the packet at 1 us. On the rotated
    # path the linear phase there would need ~4e6 panels, more than
    # _MAX_INITIAL_PANELS, but the path mass, which bounds the value,
    # underflows to 0 there and farther out.
    calls = _count_gk_panel_calls(monkeypatch)
    samples, bounds = propagate_via_kernel(typical, +1, [z], 1e-6, QuadratureSpec(1e-5),
                                           full_output=True)
    assert calls == []
    assert samples[0].value == 0.0
    assert 0.0 < bounds[0] < 1e-300


@pytest.mark.parametrize("z", [1e150, 1e300])
def test_kernel_point_whose_path_exponent_overflows_is_rejected(typical, z):
    with pytest.raises(ValueError, match="overflows"):
        propagate_via_kernel(typical, +1, [0.0, z], 1e-6, QuadratureSpec(1e-5))


def test_kernel_point_whose_displacement_overflows_is_rejected(typical, monkeypatch):
    # At 3e152 s the exact s dz lies past the largest double, and so does
    # z* = z - s dz at z = -1.7e308: the call names that z before any layout.
    calls = _count_gk_panel_calls(monkeypatch)
    with pytest.raises(ValueError, match=r"z\* = z - s dz overflows at z=-1.7e\+308"):
        propagate_via_kernel(typical, +1, [-1.7e308], 3e152, QuadratureSpec(1e-5))
    assert calls == []


def test_layout_over_the_budget_fails_before_any_panel():
    n = oracle._MAX_INITIAL_PANELS
    assert oracle._uniform_edges(0.0, 0.5 * n, 0.0, 1.0).size == n + 1
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        oracle._uniform_edges(0.0, 0.5 * n + 1.0, 0.0, 1.0)
    assert exc_info.value.estimate == 0.0
    assert exc_info.value.error_bound == math.inf
    assert "over the budget" in str(exc_info.value)


def test_validate_overlap_sweep_samples_few_nodes(typical, monkeypatch):
    # validate's sweep: 50 times over [1e-12, 1e-4] s at abs_tol 1e-9. Past
    # the decay the integration-by-parts bound certifies a time unsampled.
    nodes = []
    original = kernels.overlap_integrand

    def counting(z, *args):
        nodes.append(z.size)
        return original(z, *args)

    monkeypatch.setattr(kernels, "overlap_integrand", counting)
    for t in np.geomspace(1e-12, 1e-4, 50):
        overlap_quadrature(typical, float(t), QuadratureSpec(abs_tol=1e-9))
    assert 0 < sum(nodes) < 200_000


def test_bisection_keeps_the_rounding_floor():
    # On a layout that resolves the envelope, the two halves of a panel
    # carry the floor of the whole: no finer layout lowers it, so
    # _integrate's error names it as a limit.
    integrand = lambda z: np.exp(-0.5 * z * z + 3j * z)
    edges = np.linspace(-10.0, 10.0, 41)
    centers = 0.5 * (edges[1:] + edges[:-1])
    halfw = 0.5 * np.diff(edges)
    _, _, floors = oracle._gk_panels(integrand, centers, halfw)
    h = 0.5 * halfw
    _, _, children = oracle._gk_panels(
        integrand, np.concatenate([centers - h, centers + h]), np.concatenate([h, h])
    )
    pairs = children[: centers.size] + children[centers.size:]
    assert abs(children.sum() - floors.sum()) <= 1e-14 * floors.sum()
    np.testing.assert_allclose(pairs, floors, rtol=1e-13)


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


@pytest.mark.parametrize("abs_tol", [1e-9, 1e-12])
def test_adaptive_refines_to_tolerance_and_raises_on_budget(abs_tol, monkeypatch):
    # The layout adapts to the integrand's scales, and one pass on it meets
    # the tolerance; coarse panels raise after that one pass, and a layout
    # the panel budget cannot hold raises before any.
    integrand = lambda z: np.exp(-0.5 * z * z + 3j * z)
    exact = math.sqrt(2.0 * math.pi) * math.exp(-4.5)
    calls = _count_gk_panel_calls(monkeypatch)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        oracle._integrate(integrand, np.linspace(-10.0, 10.0, 5), abs_tol)
    assert len(calls) == 1
    assert exc_info.value.error_bound > abs_tol

    edges = oracle._uniform_edges(-10.0, 10.0, 3.0, 1.0)
    value, bound = oracle._integrate(integrand, edges, abs_tol)
    assert len(calls) == 2
    assert abs(value - exact) <= bound <= abs_tol

    monkeypatch.setattr(oracle, "_MAX_INITIAL_PANELS", edges.size - 2)
    with pytest.raises(QuadratureConvergenceError, match="over the budget"):
        oracle._uniform_edges(-10.0, 10.0, 3.0, 1.0)
    assert len(calls) == 2

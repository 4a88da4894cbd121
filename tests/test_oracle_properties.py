"""Property tests: the overlap and norm oracles' certificates hold across many beams,
and the 1/e root converges in a few passes.

Beams are drawn log-uniform around ``typical_params()``: mass and field
gradient over three decades either side, the initial width over two. Times
are drawn in units of each beam's decay time tau, both over the decay
itself ([0, 5] tau) and far past it (10^[0, 5] tau).
"""

import math
import warnings
from unittest import mock

from conftest import beams, params_with_chi
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgcoherence import (
    QuadratureConvergenceError,
    QuadratureSpec,
    coherence,
    decoherence_time,
    decoherence_time_bisection,
    kinematics,
    oracle,
    overlap_quadrature,
    packet_norm_quadrature,
    total_density_norm_quadrature,
)


_TIMES_IN_TAU = st.one_of(
    st.floats(0.0, 5.0),
    st.floats(0.0, 5.0).map(lambda e: 10.0**e),
)


@settings(max_examples=100, deadline=None)
@given(params=beams(), u=_TIMES_IN_TAU, abs_tol=st.sampled_from([1e-9, 1e-12]))
def test_overlap_error_within_reported_bound(params, u, abs_tol):
    t = u * decoherence_time(params)
    value, bound = overlap_quadrature(
        params, t, QuadratureSpec(abs_tol=abs_tol), full_output=True
    )
    assert abs(value - float(coherence(params, t))) <= bound <= abs_tol


@settings(max_examples=100, deadline=None)
@given(params=beams(), u=_TIMES_IN_TAU, abs_tol=st.sampled_from([1e-9, 1e-12]))
def test_overlap_takes_at_most_one_panel_pass(params, u, abs_tol):
    # The layout resolves the cross wavenumber finely enough that one
    # Gauss-Kronrod pass meets these tolerances; nothing is refined.
    t = u * decoherence_time(params)
    with mock.patch.object(oracle, "_gk_panels", wraps=oracle._gk_panels) as panels:
        overlap_quadrature(params, t, QuadratureSpec(abs_tol=abs_tol))
    assert panels.call_count <= 1


@settings(max_examples=300, deadline=None)
@given(params=beams(), u=_TIMES_IN_TAU, abs_tol=st.sampled_from([1e-9, 1e-12]),
       total=st.booleans())
def test_norm_error_within_reported_bound(params, u, abs_tol, total):
    # Far past the decay a packet can sit up to ~1e5 widths off the origin,
    # where the rounding of the nodes' places outweighs abs_tol 1e-12.
    t = u * decoherence_time(params)
    spec = QuadratureSpec(abs_tol=abs_tol)
    try:
        if total:
            norm, bound = total_density_norm_quadrature(params, t, spec)
        else:
            norm, bound = packet_norm_quadrature(params, +1, t, spec)
    except QuadratureConvergenceError as exc:
        assert exc.error_bound > abs_tol
        return
    assert abs(norm - 1.0) <= bound <= abs_tol


@settings(max_examples=100, deadline=None)
@given(params=beams(), u=_TIMES_IN_TAU)
def test_every_integration_by_parts_order_bounds_the_closed_form(params, u):
    # The oracle's short circuit never reads the closed form; the test does.
    t = u * decoherence_time(params)
    k = kinematics(params, t)
    k_cross = params.force * t / params.hbar * (1.0 + (params.sigma0 / k.sigma_t) ** 2)
    bounds = oracle._ibp_bounds((k.delta_z_bar / k.sigma_t) ** 2, k_cross * k.sigma_t)
    assert len(bounds) == oracle._IBP_MAX_ORDER + 1
    closed = float(coherence(params, t))
    for n, bound in enumerate(bounds):
        assert bound >= closed, (n, bound, closed)


@settings(max_examples=100, deadline=None)
@given(params=beams(), u=_TIMES_IN_TAU, abs_tol=st.sampled_from([1e-9, 1e-12]))
def test_overlap_samples_wherever_the_curve_is_not_negligible(params, u, abs_tol):
    t = u * decoherence_time(params)
    with mock.patch.object(oracle, "_gk_panels", wraps=oracle._gk_panels) as panels:
        try:
            overlap_quadrature(params, t, QuadratureSpec(abs_tol=abs_tol))
        except QuadratureConvergenceError:
            return  # gave up rather than certify
    if float(coherence(params, t)) > abs_tol / 8.0:
        assert panels.call_count >= 1


@settings(max_examples=100, deadline=None)
@given(params=beams())
def test_bisection_matches_closed_form_decay_time(params):
    closed = decoherence_time(params)
    rooted = decoherence_time_bisection(params, tol_rel=1e-10)
    assert math.isclose(rooted, closed, rel_tol=1e-6)


@settings(max_examples=100, deadline=None)
@given(params=beams())
@example(params=params_with_chi(1e12))
@example(params=params_with_chi(1e-12))
def test_root_takes_at_most_eight_passes_and_warns_nothing(params):
    # One ladder chunk brackets the root, and 64-section passes take the
    # bracket to 1e-10; no rung or point overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(oracle, "coherence", wraps=oracle.coherence) as calls:
            root = decoherence_time_bisection(params, tol_rel=1e-10)
    sizes = [call.args[1].size for call in calls.call_args_list]
    assert sizes == [oracle._LADDER_CHUNK] + [63] * (len(sizes) - 1)
    assert len(sizes) <= 9
    assert math.isclose(root, decoherence_time(params), rel_tol=1e-6)

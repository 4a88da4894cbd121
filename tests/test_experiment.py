"""Reference scenario, series and profile builders."""

import math

import numpy as np
import pytest
from conftest import beams
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcoherence import (
    TimeSeries,
    coherence,
    coherence_series,
    decoherence_time,
    default_profile_window,
    density_profile,
    kinematics,
    typical_params,
)


def test_typical_parameter_values():
    p = typical_params()
    assert p.mass == 1.8e-25
    assert p.field_gradient == 1e3
    assert p.sigma0 == 1e-5
    assert p.magnetic_moment == 9.2740100783e-24
    assert p.alpha == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert p.beta == p.alpha


def test_series_first_row_at_t0(typical):
    s = coherence_series(typical, 0.0, 1e-9, 2)
    assert s.times[0] == 0.0
    assert s.coherence[0] == 1.0
    assert s.entropy_paper[0] == 0.0
    assert s.sep_position[0] == 0.0
    assert s.sep_momentum[0] == 0.0


def test_series_grid_and_invariants(typical):
    tau = decoherence_time(typical)
    s = coherence_series(typical, 0.0, 5 * tau, 201)
    assert s.times.size == 201
    assert np.all(np.diff(s.times) > 0)
    assert np.all(np.diff(s.coherence) <= 1e-15)
    assert np.all(np.diff(s.entropy_paper) >= -1e-15)
    np.testing.assert_array_equal(s.entropy_paper, 1.0 - s.coherence**2)


@settings(max_examples=100, deadline=None)
@given(params=beams(), spacing=st.sampled_from(["linear", "log"]))
def test_series_entropy_column_is_one_minus_coherence_squared_over_beams(params, spacing):
    # The identity the series builder relies on, checked against a separate
    # closed-form coherence call from 1e-3 tau to 10 tau.
    tau = decoherence_time(params)
    s = coherence_series(params, 1e-3 * tau, 10.0 * tau, 97, spacing)
    c = np.asarray(coherence(params, s.times))
    np.testing.assert_array_equal(s.coherence, c)
    np.testing.assert_array_equal(s.entropy_paper, 1.0 - c * c)


def test_series_brackets_decay_time(typical):
    tau = decoherence_time(typical)
    s = coherence_series(typical, 0.0, 5e-9, 101)
    below = s.times[s.coherence < 1.0 / math.e]
    above = s.times[s.coherence > 1.0 / math.e]
    assert above.max() <= tau <= below.min()
    # adjacent samples bracket tau
    i = int(np.searchsorted(s.times, tau))
    assert s.coherence[i - 1] > 1.0 / math.e > s.coherence[i]


def test_series_log_spacing(typical):
    s = coherence_series(typical, 1e-12, 1e-6, 50, spacing="log")
    ratios = s.times[1:] / s.times[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


def test_series_purity_column_half_of_paper_at_bell(typical):
    s = coherence_series(typical, 0.0, 5e-9, 64)
    np.testing.assert_allclose(s.entropy_purity, s.entropy_paper / 2.0, atol=5e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t_min=-1.0, t_max=1.0, n=10),
        dict(t_min=1.0, t_max=1.0, n=10),
        dict(t_min=2.0, t_max=1.0, n=10),
        dict(t_min=0.0, t_max=1.0, n=1),
        dict(t_min=0.0, t_max=1.0, n=10, spacing="log"),
        dict(t_min=0.0, t_max=1.0, n=10, spacing="cubic"),
        dict(t_min=0.0, t_max=math.inf, n=10),
        dict(t_min=math.nan, t_max=1.0, n=10),
        dict(t_min=0.0, t_max=math.nan, n=10),
    ],
)
def test_series_invalid_grids(typical, kwargs):
    with pytest.raises(ValueError):
        coherence_series(typical, **kwargs)


def test_timeseries_invariants_enforced():
    t = np.array([0.0, 1.0])
    good = np.array([1.0, 0.5])
    with pytest.raises(ValueError):
        TimeSeries(times=t, coherence=np.array([0.5, 1.0]),
                   entropy_paper=np.array([0.75, 0.0]),
                   entropy_purity=np.zeros(2), sep_position=np.zeros(2),
                   sep_momentum=np.zeros(2))
    with pytest.raises(ValueError):
        TimeSeries(times=np.array([1.0, 0.0]), coherence=good,
                   entropy_paper=1 - good**2, entropy_purity=np.zeros(2),
                   sep_position=np.zeros(2), sep_momentum=np.zeros(2))


def test_profile_branches_coincide_at_t0(typical):
    lo, hi = default_profile_window(typical, 0.0)
    prof = density_profile(typical, 0.0, lo, hi, 501)
    np.testing.assert_array_equal(prof.density_plus, prof.density_minus)


def test_profile_overlapping_peaks_at_2ns(typical):
    k = kinematics(typical, 2e-9)
    assert 2 * k.delta_z_bar / k.sigma_t < 1e-7  # visually a single peak
    lo, hi = default_profile_window(typical, 2e-9)
    prof = density_profile(typical, 2e-9, lo, hi, 1001)
    peak = prof.density_total.max()
    assert np.abs(prof.density_plus - prof.density_minus).max() < 1e-5 * peak


def test_profile_separation_onset_at_10us(typical):
    t = 1e-5
    k = kinematics(typical, t)
    assert 0.2 <= 2 * k.delta_z_bar / k.sigma_t <= 2.0
    lo, hi = default_profile_window(typical, t)
    prof = density_profile(typical, t, lo, hi, 2001)
    step = prof.z[1] - prof.z[0]
    assert abs(prof.z[np.argmax(prof.density_plus)] - k.delta_z_bar) <= step
    assert abs(prof.z[np.argmax(prof.density_minus)] + k.delta_z_bar) <= step


def test_profile_total_is_weighted_sum(typical):
    lo, hi = default_profile_window(typical, 1e-5)
    prof = density_profile(typical, 1e-5, lo, hi, 301)
    np.testing.assert_allclose(
        prof.density_total,
        0.5 * prof.density_plus + 0.5 * prof.density_minus,
        rtol=1e-14,
    )


def test_profile_mass_unity(typical):
    for t in (0.0, 2e-9, 1e-5):
        lo, hi = default_profile_window(typical, t)
        prof = density_profile(typical, t, lo, hi, 1001)
        mass = float(np.trapezoid(prof.density_total, prof.z))
        assert abs(mass - 1.0) < 1e-6


def test_profile_invalid_grids(typical):
    with pytest.raises(ValueError):
        density_profile(typical, 1e-9, 1.0, -1.0, 100)
    with pytest.raises(ValueError):
        density_profile(typical, 1e-9, -1.0, 1.0, 1)
    for z_min, z_max in ((-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (-1.0, math.nan)):
        with pytest.raises(ValueError):
            density_profile(typical, 1e-9, z_min, z_max, 100)


def test_default_window(typical):
    lo, hi = default_profile_window(typical, 0.0)
    assert lo == -6 * typical.sigma0
    assert hi == 6 * typical.sigma0
    t = 1e-5
    k = kinematics(typical, t)
    lo, hi = default_profile_window(typical, t)
    assert lo < -k.delta_z_bar and hi > k.delta_z_bar
    # tail mass outside the window, Gaussian bound per branch
    tail = math.erfc(6.0 / math.sqrt(2.0))
    assert tail < 1e-8

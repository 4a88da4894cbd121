"""Kinematics against hand values and a 50-digit mpmath recomputation."""

import math

import numpy as np
import pytest
from mpmath import mp, mpf, sqrt as mp_sqrt

from sgcoherence import ExperimentParams, coherence, kinematics, overlap_quadrature, packet_width

# Frozen reference values, 50-digit mpmath evaluation of the defining
# formulas at the typical parameters (mu = Bohr magneton, t = 2 ns).
DP_2NS = 1.85480201566e-29
DZ_2NS = 1.0304455642555556e-13
SIGMA_2NS = 1.0e-5
SIGMA_10US = 1.0000000004290593e-5


def test_all_vanish_at_t0(typical):
    k = kinematics(typical, 0.0)
    assert k.delta_p == 0.0
    assert k.delta_z == 0.0
    assert k.delta_z_bar == 0.0
    assert k.sigma_t == typical.sigma0


def test_unit_parameters_direct_substitution():
    # m = 1 kg, f = 1 N, sigma = 1 m, t = 2 s: dp = 2, dz = 2,
    # dzbar = t dp/m - dz = 4 - 2 = 2.
    p = ExperimentParams(mass=1.0, field_gradient=1.0, sigma0=1.0, magnetic_moment=1.0)
    k = kinematics(p, 2.0)
    assert k.delta_p == pytest.approx(2.0, rel=1e-15)
    assert k.delta_z == pytest.approx(2.0, rel=1e-15)
    assert k.delta_z_bar == pytest.approx(2.0, rel=1e-15)


def test_typical_2ns_frozen_values(typical):
    k = kinematics(typical, 2e-9)
    assert k.delta_p == pytest.approx(DP_2NS, rel=1e-12)
    assert k.delta_z == pytest.approx(DZ_2NS, rel=1e-12)
    assert k.delta_z_bar == pytest.approx(DZ_2NS, rel=1e-12)
    assert k.sigma_t == pytest.approx(SIGMA_2NS, rel=1e-12)
    assert packet_width(typical, 1e-5) == pytest.approx(SIGMA_10US, rel=1e-12)


@pytest.mark.parametrize("t", [1e-12, 2e-9, 7.7e-7, 1e-5, 0.3, 12.0])
def test_against_extended_precision(typical, t):
    mp.dps = 50
    f = mpf(typical.magnetic_moment) * mpf(typical.field_gradient)
    m = mpf(typical.mass)
    sigma = mpf(typical.sigma0)
    hbar = mpf(typical.hbar)
    tt = mpf(t)
    k = kinematics(typical, t)
    assert k.delta_p == pytest.approx(float(f * tt), rel=1e-14)
    assert k.delta_z == pytest.approx(float(f * tt**2 / (2 * m)), rel=1e-14)
    assert k.sigma_t == pytest.approx(
        float(mp_sqrt(sigma**2 + (hbar * tt / (2 * m * sigma)) ** 2)), rel=1e-14
    )


def test_dzbar_equals_dz_over_wide_grid(typical):
    # dzbar is defined as t*dp/m - dz; kinematics stores the equal dz.
    for t in np.geomspace(1e-15, 1e3, 250):
        k = kinematics(typical, float(t))
        defined = float(t) * k.delta_p / typical.mass - k.delta_z
        assert abs(defined - k.delta_z) <= 1e-12 * k.delta_z
        assert k.delta_z_bar == k.delta_z


def test_width_never_below_initial(typical):
    t = np.geomspace(1e-15, 1e3, 200)
    w = packet_width(typical, t)
    assert np.all(w >= typical.sigma0)
    assert np.all(np.diff(w) >= 0.0)


def test_negative_time_rejected(typical):
    with pytest.raises(ValueError):
        kinematics(typical, -1e-9)
    with pytest.raises(ValueError):
        packet_width(typical, -1.0)


@pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [kinematics, packet_width, coherence, overlap_quadrature])
def test_time_guards_reject_bad_times(typical, entry, bad):
    # Each public entry checks its time once: a scalar, and one bad element
    # among good ones (overlap_quadrature takes a scalar time only).
    with pytest.raises(ValueError, match="time must be finite and >= 0"):
        entry(typical, bad)
    if entry is not overlap_quadrature:
        with pytest.raises(ValueError, match="time must be finite and >= 0"):
            entry(typical, np.array([0.0, 1e-9, bad, 2e-9]))

"""Coherence decay, spin density matrix, entropies and separation measures."""

import math

import numpy as np
import pytest
from conftest import beams
from hypothesis import given, settings

from sgcoherence import (
    ExperimentParams,
    coherence,
    coherence_exponents,
    decoherence_time,
    linear_entropy,
    regime_tau_scales,
    separation_momentum_ratio,
    separation_position_approx,
    separation_position_ratio,
    spin_density_matrix,
)

# 50-digit mpmath evaluations at typical parameters.
C_2NS = 0.0020561999830810764
C_1E10 = 0.98465176423218985
SEP_POS_2NS = 1.0304455642555555e-8
SEP_POS_10US = 0.25761139095335832
SEP_MOM_2NS = 3.5176400236760736


def test_coherence_one_at_t0(typical):
    assert float(coherence(typical, 0.0)) == 1.0


def test_frozen_values(typical):
    assert float(coherence(typical, 2e-9)) == pytest.approx(C_2NS, rel=1e-12)
    assert float(coherence(typical, 1e-10)) == pytest.approx(C_1E10, rel=1e-13)


def test_monotone_non_increasing(typical):
    tau = decoherence_time(typical)
    for grid in (np.linspace(0.0, 5 * tau, 400), np.geomspace(1e-12, 1e-4, 400)):
        c = np.asarray(coherence(typical, grid))
        assert np.all(np.diff(c) <= 1e-15)


@settings(max_examples=200, deadline=None)
@given(params=beams())
def test_monotone_non_increasing_over_beams(params):
    # From the decay through 1e5 tau, where C has long underflowed to 0.
    tau = decoherence_time(params)
    grid = np.concatenate([np.linspace(0.0, 5.0 * tau, 400), tau * np.geomspace(5.0, 1e5, 400)])
    c = np.asarray(coherence(params, grid))
    assert np.all(np.diff(c) <= 0.0)


def test_bounds(typical):
    tau = decoherence_time(typical)
    c = np.asarray(coherence(typical, np.linspace(0.0, 5 * tau, 500)))
    assert np.all(c > 0.0)
    assert np.all(c <= 1.0)


@pytest.mark.parametrize("sigma_scale", [1.0, 10.0, 0.1])
def test_scalar_time_matches_array_element(typical, sigma_scale):
    # A float t and an array of times take the same arithmetic, to the bit.
    params = ExperimentParams(
        mass=typical.mass,
        field_gradient=typical.field_gradient,
        sigma0=typical.sigma0 * sigma_scale,
        magnetic_moment=typical.magnetic_moment,
    )
    t = np.linspace(0.0, 5 * decoherence_time(params), 20000)
    on_array = np.asarray(coherence(params, t))
    one_by_one = np.array([coherence(params, float(x)) for x in t])
    assert np.count_nonzero(on_array != one_by_one) == 0


def test_exponents_both_nonnegative_and_growing(typical):
    t = np.geomspace(1e-12, 1e-4, 100)
    term_p, term_z = coherence_exponents(typical, t)
    assert np.all(term_p >= 0) and np.all(term_z >= 0)
    assert np.all(np.diff(term_p) > 0) and np.all(np.diff(term_z) > 0)


def test_momentum_exponent_is_unity_at_tau1(typical):
    # In the momentum-dominated regime the first exponent alone reaches 1
    # at tau1 while the position term stays negligible.
    tau1, _ = regime_tau_scales(typical)
    term_p, term_z = coherence_exponents(typical, tau1)
    assert float(term_p) == pytest.approx(1.0, rel=1e-8)
    assert float(term_z) < 1e-8


@settings(max_examples=100, deadline=None)
@given(params=beams())
def test_entropy_identity_and_asymptotes(params):
    # 0 at t = 0 and 1 once C has underflowed (1e5 tau); E + C^2 = 1 over
    # [0, 5 tau].
    tau = decoherence_time(params)
    assert linear_entropy(params, 0.0, "paper") == 0.0
    assert linear_entropy(params, 1e5 * tau, "paper") == pytest.approx(1.0, abs=1e-15)
    t = np.linspace(0.0, 5.0 * tau, 200)
    c = np.asarray(coherence(params, t))
    e = np.asarray(linear_entropy(params, t, "paper"))
    np.testing.assert_array_equal(e + c * c, np.ones_like(e))


@settings(max_examples=100, deadline=None)
@given(params=beams())
def test_purity_convention_half_of_paper_at_bell(params):
    tau = decoherence_time(params)
    t = np.linspace(0.0, 5.0 * tau, 100)
    e_paper = np.asarray(linear_entropy(params, t, "paper"))
    e_purity = np.asarray(linear_entropy(params, t, "purity"))
    np.testing.assert_allclose(e_purity, e_paper / 2.0, atol=5e-15)


def test_purity_convention_matches_density_matrix_random_amplitudes(typical):
    # The broadcast closed form against the per-time density-matrix route,
    # for t as an array and as a scalar. The times run over [0, 5 tau] and
    # down to 1e-6 tau, where the entropy is a difference of numbers near 1.
    rng = np.random.default_rng(11)
    tau = decoherence_time(typical)
    t = np.concatenate([tau * np.geomspace(1e-6, 1e-2, 20),
                        np.linspace(0.0, 5.0 * tau, 81)])
    for _ in range(20):
        raw = rng.normal(size=4)
        p = typical.with_amplitudes(complex(raw[0], raw[1]), complex(raw[2], raw[3]))
        reference = np.array([1.0 - spin_density_matrix(p, float(ti)).purity for ti in t])
        np.testing.assert_allclose(linear_entropy(p, t, "purity"), reference,
                                   rtol=0.0, atol=1e-15)
        for ti, ref in zip(t, reference):
            scalar = linear_entropy(p, float(ti), "purity")
            assert np.ndim(scalar) == 0
            assert abs(scalar - ref) <= 1e-15


def test_unknown_convention_rejected(typical):
    with pytest.raises(ValueError):
        linear_entropy(typical, 1e-9, convention="von-neumann")


def test_density_matrix_bell_at_t0(typical):
    rho = spin_density_matrix(typical, 0.0)
    assert rho.rho_pp == pytest.approx(0.5, abs=1e-15)
    assert rho.rho_mm == pytest.approx(0.5, abs=1e-15)
    assert rho.rho_pm == pytest.approx(0.5, abs=1e-15)
    # pure projector: rho^2 = rho
    mat = rho.as_matrix()
    np.testing.assert_allclose(mat @ mat, mat, atol=1e-15)


def test_density_matrix_separable_case():
    p = ExperimentParams(mass=1.8e-25, field_gradient=1e3, sigma0=1e-5,
                         alpha=1.0, beta=0.0)
    for t in (0.0, 1e-9, 1e-4):
        rho = spin_density_matrix(p, t)
        np.testing.assert_allclose(
            rho.as_matrix(), np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-15
        )


def test_density_matrix_fully_decohered(typical):
    rho = spin_density_matrix(typical, 1.0)
    assert rho.rho_pm == 0.0
    assert rho.rho_pp == pytest.approx(0.5, abs=1e-15)


def test_density_matrix_invariants_random_amplitudes(typical):
    rng = np.random.default_rng(7)
    for _ in range(100):
        raw = rng.normal(size=4)
        p = typical.with_amplitudes(complex(raw[0], raw[1]), complex(raw[2], raw[3]))
        t = float(rng.uniform(0.0, 5e-9))
        rho = spin_density_matrix(p, t)
        assert abs(rho.trace - 1.0) < 1e-12
        assert rho.rho_mp == rho.rho_pm.conjugate()
        assert rho.determinant() >= -1e-12
        assert rho.purity <= 1.0 + 1e-12


def test_separation_position_frozen_values(typical):
    assert float(separation_position_ratio(typical, 0.0)) == 0.0
    assert float(separation_position_ratio(typical, 2e-9)) == pytest.approx(SEP_POS_2NS, rel=1e-12)
    assert float(separation_position_ratio(typical, 1e-5)) == pytest.approx(SEP_POS_10US, rel=1e-12)
    assert 0.1 <= SEP_POS_10US <= 1.0


def test_separation_position_monotone(typical):
    t = np.geomspace(1e-12, 10.0, 300)
    r = np.asarray(separation_position_ratio(typical, t))
    assert np.all(np.diff(r) > 0.0)


def test_separation_momentum_exactly_linear(typical):
    assert float(separation_momentum_ratio(typical, 0.0)) == 0.0
    assert float(separation_momentum_ratio(typical, 2e-9)) == pytest.approx(SEP_MOM_2NS, rel=1e-13)
    for t in np.geomspace(1e-12, 1.0, 60):
        r1 = float(separation_momentum_ratio(typical, t))
        r2 = float(separation_momentum_ratio(typical, 2.0 * t))
        assert r2 == 2.0 * r1  # doubling t scales the float exactly


def test_short_time_approximation(typical):
    t_spread = typical.spreading_time
    for t in (1e-4 * t_spread, 1e-3 * t_spread, 0.01 * t_spread):
        exact = float(separation_position_ratio(typical, t))
        approx = float(separation_position_approx(typical, t, "short"))
        assert abs(approx - exact) <= 1e-3 * exact


def test_long_time_approximation(typical):
    t_spread = typical.spreading_time
    for t in (100.0 * t_spread, 1e3 * t_spread, 1e4 * t_spread):
        exact = float(separation_position_ratio(typical, t))
        approx = float(separation_position_approx(typical, t, "long"))
        assert abs(approx - exact) <= 1e-3 * exact


def test_approximations_vanish_at_t0(typical):
    assert float(separation_position_approx(typical, 0.0, "short")) == 0.0
    assert float(separation_position_approx(typical, 0.0, "long")) == 0.0
    with pytest.raises(ValueError):
        separation_position_approx(typical, 1.0, "medium")


def test_coherence_formula_matches_reduced_exponent(typical):
    # The full formula collapses algebraically to
    # exp(-2 (f sigma t / hbar)^2 - (f t^2)^2 / (8 m^2 sigma^2)).
    for t in np.geomspace(1e-12, 3e-9, 40):
        f, sigma, hbar, m = (typical.force, typical.sigma0, typical.hbar, typical.mass)
        reduced = math.exp(
            -2.0 * (f * sigma * t / hbar) ** 2 - (f * t * t) ** 2 / (8.0 * m**2 * sigma**2)
        )
        assert float(coherence(typical, float(t))) == pytest.approx(reduced, rel=1e-12)

"""Closed-form decay time, regime classification, bisection agreement."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings

from sgcoherence import (
    ExperimentParams,
    Regime,
    coherence,
    coherence_exponents,
    decoherence_time,
    decoherence_time_bisection,
    oracle,
    regime_report,
    regime_tau_scales,
    separation_position_ratio,
)

from conftest import beams, params_with_chi

TAU_TYPICAL = 8.0406951982265978e-10  # 50-digit mpmath value
CHI_TYPICAL = 1.8024593580339553e17


def test_frozen_typical_value(typical):
    assert decoherence_time(typical) == pytest.approx(TAU_TYPICAL, rel=1e-13)


def test_defining_property(typical):
    tau = decoherence_time(typical)
    assert float(coherence(typical, tau)) == pytest.approx(1.0 / math.e, rel=1e-9)


@pytest.mark.parametrize("chi", [1e-8, 1e-4, 1.0, 1e4, 1e12])
def test_defining_property_across_regimes(chi):
    p = params_with_chi(chi)
    tau = decoherence_time(p)
    assert float(coherence(p, tau)) == pytest.approx(1.0 / math.e, rel=1e-9)


def test_bisection_agrees(typical):
    # One ladder call, then at most eight 64-section passes.
    tau = decoherence_time(typical)
    with mock.patch.object(oracle, "coherence", wraps=oracle.coherence) as calls:
        root = decoherence_time_bisection(typical, 1e-10)
    assert abs(tau - root) / root < 1e-6
    assert calls.call_count <= 9


def test_bisection_sweep():
    base = ExperimentParams(mass=1.8e-25, field_gradient=1e3, sigma0=1e-5)
    for fm in (0.01, 1.0, 100.0):
        for fg in (0.01, 1.0, 100.0):
            for fs in (0.01, 1.0, 100.0):
                p = ExperimentParams(
                    mass=base.mass * fm,
                    field_gradient=base.field_gradient * fg,
                    sigma0=base.sigma0 * fs,
                )
                tau = decoherence_time(p)
                root = decoherence_time_bisection(p, 1e-10)
                assert abs(tau - root) / root < 1e-6


def test_bisection_tolerance_validation(typical):
    with pytest.raises(ValueError):
        decoherence_time_bisection(typical, 0.0)
    with pytest.raises(ValueError):
        decoherence_time_bisection(typical, -1e-9)


def test_bisection_iteration_cap_raises(typical, monkeypatch):
    # 1e-20 is below the spacing of doubles near tau, so the bracket can
    # never get that narrow; the pass cap must say so, after that many
    # 63-point passes and one ladder chunk.
    sizes = []

    def counting(params, t):
        sizes.append(np.size(t))
        return coherence(params, t)

    monkeypatch.setattr(oracle, "coherence", counting)
    cap = oracle._MAX_SECTION_PASSES
    with pytest.raises(RuntimeError, match=f"did not reach tol_rel=1.0e-20 in {cap} passes"):
        decoherence_time_bisection(typical, tol_rel=1e-20)
    assert sizes == [oracle._LADDER_CHUNK] + [63] * cap
    sizes.clear()
    decoherence_time_bisection(typical, tol_rel=1e-10)
    assert sizes == [oracle._LADDER_CHUNK] + [63] * (len(sizes) - 1)
    assert len(sizes) <= 9


def test_momentum_dominated_limit():
    for chi in (1e6, 1e8, 1e12):
        p = params_with_chi(chi)
        tau1, _ = regime_tau_scales(p)
        assert abs(decoherence_time(p) - tau1) / tau1 <= 1e-3


def test_spreading_dominated_limit():
    for chi in (1e-6, 1e-8, 1e-12):
        p = params_with_chi(chi)
        _, tau2 = regime_tau_scales(p)
        assert abs(decoherence_time(p) - tau2) / tau2 <= 1e-3


def test_packets_not_separated_at_decoherence():
    for chi in (1e6, 1e8, 1e-6, 1e-8):
        p = params_with_chi(chi)
        tau = decoherence_time(p)
        assert float(separation_position_ratio(p, tau)) < 0.1


@settings(max_examples=200, deadline=None)
@given(params=beams())
@example(params=params_with_chi(1e12))
@example(params=params_with_chi(1e-12))
def test_coherence_is_lost_before_the_beams_separate(params):
    # The paper's claim: at tau the exponents sum to 1 and the momentum one
    # is positive, so term_position = (dzbar/sigma)^2/2 < 1: the branch
    # centres lie less than sqrt(2) widths apart.
    tau = decoherence_time(params)
    term_momentum, term_position = coherence_exponents(params, tau)
    assert term_momentum + term_position == pytest.approx(1.0, rel=1e-9)
    assert term_momentum > 0.0
    assert float(separation_position_ratio(params, tau)) < math.sqrt(2.0)


def test_report_typical(typical):
    rep = regime_report(typical)
    assert rep.chi == pytest.approx(CHI_TYPICAL, rel=1e-12)
    assert rep.regime is Regime.MOMENTUM_DOMINATED
    assert rep.tau == pytest.approx(TAU_TYPICAL, rel=1e-13)
    assert rep.tau1 == pytest.approx(typical.hbar / (math.sqrt(2) * typical.force * typical.sigma0), rel=1e-15)
    assert rep.tau2 == pytest.approx(
        math.sqrt(2 * math.sqrt(2) * typical.mass * typical.sigma0 / typical.force), rel=1e-15
    )
    assert rep.sep_position_at_tau < 0.1
    assert rep.sep_momentum_at_tau == pytest.approx(math.sqrt(2.0), rel=1e-6)
    assert rep.tau > 0 and rep.tau1 > 0 and rep.tau2 > 0


def test_report_regime_thresholds():
    assert regime_report(params_with_chi(2e3)).regime is Regime.MOMENTUM_DOMINATED
    assert regime_report(params_with_chi(5e2)).regime is Regime.INTERMEDIATE
    assert regime_report(params_with_chi(1.0)).regime is Regime.INTERMEDIATE
    assert regime_report(params_with_chi(2e-3)).regime is Regime.INTERMEDIATE
    assert regime_report(params_with_chi(5e-4)).regime is Regime.SPREADING_DOMINATED


def test_spreading_dominated_report():
    rep = regime_report(params_with_chi(1e-8))
    assert rep.regime is Regime.SPREADING_DOMINATED
    assert rep.tau == pytest.approx(rep.tau2, rel=1e-3)


def test_tau_stable_at_extreme_chi():
    # The cancellation-free form must survive chi where sqrt(1+chi) == sqrt(chi)
    # in double precision.
    p = params_with_chi(1e40)
    tau = decoherence_time(p)
    assert math.isfinite(tau) and tau > 0
    assert float(coherence(p, tau)) == pytest.approx(1.0 / math.e, rel=1e-9)

"""Planted slips in the closed forms that `validate` must catch.

Each test replaces one closed form by a copy with a known slip and asserts
that `sgcoherence validate` exits 1 and names the check that fails.
"""

import numpy as np

from sgcoherence import analytic, cli, kinematics, typical_params


def test_chirp_curvature_slip_fails_the_kernel_phase_at_the_spreading_time(monkeypatch, capsys):
    # The packet's chirp (m/2 hbar t)(spread/sigma(t))^2 = spread/(4 sigma0
    # sigma(t)^2) slipped to spread/(2 sigma0 sigma(t)^2): the slip adds the
    # chirp once more. Far below the spreading time the chirp is under 1e-4
    # rad over a kernel grid; at a tenth of it and at it the slip shows.
    original = analytic.packet_amplitude

    def slipped(params, branch, z, t):
        value = original(params, branch, z, t)
        if t == 0.0:
            return value
        k = kinematics(params, t)
        d = np.asarray(z, dtype=float) - branch * k.delta_z_bar
        spread = params.hbar / (2.0 * params.mass * params.sigma0) * t
        return value * np.exp(1j * spread / (4.0 * params.sigma0 * k.sigma_t**2) * d * d)

    monkeypatch.setattr(analytic, "packet_amplitude", slipped)
    assert cli.main(["validate"]) == 1
    out = capsys.readouterr().out.splitlines()
    t_s = typical_params().spreading_time
    for t in (0.1 * t_s, t_s):
        line = next(x for x in out if x.startswith(f"kernel_phase_constancy_t={t:g} "))
        assert line.endswith(" FAIL")
    failed = {line.split()[0] for line in out if line.endswith(" FAIL")}
    assert failed == {f"kernel_phase_constancy_t={t:g}" for t in (0.1 * t_s, t_s)}


def _failed_checks(capsys):
    return {line.split()[0] for line in capsys.readouterr().out.splitlines()
            if line.endswith(" FAIL")}


def test_halved_position_term_fails_the_decay_time_check(monkeypatch, capsys):
    # term_position = (1/2)(dzbar/sigma)^2 slipped to (1/4)(dzbar/sigma)^2:
    # the bisection roots the slipped C(t), the closed-form tau does not.
    original = analytic.coherence_exponents

    def slipped(params, t):
        term_momentum, term_position = original(params, t)
        return term_momentum, 0.5 * term_position

    monkeypatch.setattr(analytic, "coherence_exponents", slipped)
    assert cli.main(["validate"]) == 1
    assert _failed_checks(capsys) == {"tau_closed_form_vs_bisection"}


def test_tau2_without_its_root_two_fails_both_decay_time_checks(monkeypatch, capsys):
    # tau2 = sqrt(2 sqrt(2) m sigma0/f) slipped to that over sqrt(2).
    original = analytic.regime_tau_scales

    def slipped(params):
        tau1, tau2 = original(params)
        return tau1, tau2 / np.sqrt(2.0)

    monkeypatch.setattr(analytic, "regime_tau_scales", slipped)
    assert cli.main(["validate"]) == 1
    assert _failed_checks(capsys) == {"overlap_at_tau_vs_1_over_e",
                                      "tau_closed_form_vs_bisection"}


def test_halved_momentum_kick_fails_every_kernel_phase_check(monkeypatch, capsys):
    # The packet's linear phase s (f t/hbar) d slipped to s (f t/2 hbar) d:
    # the kernel's packet carries the full kick at every time.
    original = analytic.packet_amplitude

    def slipped(params, branch, z, t):
        value = original(params, branch, z, t)
        d = np.asarray(z, dtype=float) - branch * kinematics(params, t).delta_z_bar
        return value * np.exp(-0.5j * branch * params.force * t / params.hbar * d)

    monkeypatch.setattr(analytic, "packet_amplitude", slipped)
    assert cli.main(["validate"]) == 1
    t_s = typical_params().spreading_time
    assert _failed_checks(capsys) == {
        f"kernel_phase_constancy_t={t:g}" for t in (2e-9, 1e-6, 1e-5, 0.1 * t_s, t_s)
    }

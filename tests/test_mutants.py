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

"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS line once its criterion holds (visible with
pytest -rA or -s); a failed assertion marks the criterion failed.
"""

import math
import time

import numpy as np
import pytest

import sgcoherence as sg
from sgcoherence.cli import main

from conftest import params_with_chi


def _random_params(rng):
    # one decade in each direction around the typical values
    base = sg.typical_params()
    return sg.ExperimentParams(
        mass=base.mass * 10.0 ** rng.uniform(-1, 1),
        field_gradient=base.field_gradient * 10.0 ** rng.uniform(-1, 1),
        sigma0=base.sigma0 * 10.0 ** rng.uniform(-1, 1),
        magnetic_moment=base.magnetic_moment,
    )


def test_criterion_1_overlap_oracle_equivalence(typical):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250808)
    param_sets = [typical] + [_random_params(rng) for _ in range(8)]
    times = np.geomspace(1e-12, 1e-4, 50)
    worst_abs = 0.0
    worst_rel = 0.0
    for params in param_sets:
        for t in times:
            value, bound = sg.overlap_quadrature(params, float(t), full_output=True)
            closed = float(sg.coherence(params, float(t)))
            assert abs(value - closed) <= bound <= 1e-9
            diff = abs(abs(value) - closed)
            worst_abs = max(worst_abs, diff)
            if closed >= 1e-3:
                worst_rel = max(worst_rel, diff / closed)
    elapsed = time.perf_counter() - t0
    assert worst_abs <= 1e-6
    assert worst_rel <= 1e-6
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 coherence oracle equivalence: PASS "
          f"(max err {worst_abs:.2e}, {elapsed:.1f} s)")


def test_criterion_2_tau_oracle_equivalence(typical):
    t0 = time.perf_counter()
    worst = 0.0
    for fm in (0.01, 1.0, 100.0):
        for fg in (0.01, 1.0, 100.0):
            for fs in (0.01, 1.0, 100.0):
                p = sg.ExperimentParams(
                    mass=typical.mass * fm,
                    field_gradient=typical.field_gradient * fg,
                    sigma0=typical.sigma0 * fs,
                )
                closed = sg.decoherence_time(p)
                root = sg.decoherence_time_bisection(p, tol_rel=1e-10)
                worst = max(worst, abs(closed - root) / root)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 10.0
    print(f"ACCEPTANCE 2 decay-time oracle equivalence: PASS "
          f"(max rel err {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_3_regime_limits():
    for chi in (1e6, 1e8):
        p = params_with_chi(chi)
        tau1, _ = sg.regime_tau_scales(p)
        assert abs(sg.decoherence_time(p) - tau1) / tau1 <= 1e-3
    for chi in (1e-6, 1e-8):
        p = params_with_chi(chi)
        _, tau2 = sg.regime_tau_scales(p)
        assert abs(sg.decoherence_time(p) - tau2) / tau2 <= 1e-3
    print("ACCEPTANCE 3 regime-limit decay times: PASS")


def test_criterion_4_reference_scenario(typical):
    t0 = time.perf_counter()
    report = sg.regime_report(typical)
    assert report.regime is sg.Regime.MOMENTUM_DOMINATED
    assert 0.5e-9 <= report.tau <= 1.5e-9
    assert abs(report.tau - sg.decoherence_time_bisection(typical, 1e-9)) / report.tau < 1e-6
    assert float(sg.coherence(typical, 2e-9)) < 0.05
    assert float(sg.separation_position_ratio(typical, 2e-9)) < 1e-2
    assert float(sg.separation_position_ratio(typical, 1e-5)) >= 0.1
    assert report.sep_position_at_tau < 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 4 reference scenario: PASS ({elapsed:.2f} s)")


def test_criterion_5_kernel_propagation(typical):
    t0 = time.perf_counter()
    spec = sg.QuadratureSpec(abs_tol=1e-5)
    for t in (2e-9, 1e-6, 1e-5):
        k = sg.kinematics(typical, t)
        span = k.sigma_t * math.sqrt(2.0 * math.log(1e3))
        z = np.linspace(k.delta_z_bar - span, k.delta_z_bar + span, 41)
        samples = sg.propagate_via_kernel(typical, +1, z, t, spec)
        values = np.array([s.value for s in samples])
        density = np.asarray(sg.packet_density(typical, +1, z, t))
        assert float(np.max(np.abs(np.abs(values) ** 2 - density) / density)) <= 1e-4
        phases = values / np.asarray(sg.packet_amplitude(typical, +1, z, t))
        phases /= np.abs(phases)
        mean = phases.mean()
        mean /= abs(mean)
        assert float(np.abs(np.angle(phases / mean)).max()) <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 5 kernel propagation: PASS ({elapsed:.1f} s)")


def test_criterion_6_identity_suite(typical):
    tau = sg.decoherence_time(typical)
    grid = np.linspace(0.0, 5 * tau, 1000)
    c = np.asarray(sg.coherence(typical, grid))
    e = np.asarray(sg.linear_entropy(typical, grid, "paper"))
    assert float(np.max(np.abs(e + c * c - 1.0))) <= 1e-15

    rng = np.random.default_rng(42)
    for _ in range(100):
        raw = rng.normal(size=4)
        p = typical.with_amplitudes(complex(raw[0], raw[1]), complex(raw[2], raw[3]))
        t = float(rng.uniform(0.0, 5 * tau))
        rho = sg.spin_density_matrix(p, t)
        assert abs(rho.trace - 1.0) <= 1e-12
        assert rho.rho_mp == rho.rho_pm.conjugate()
        assert rho.determinant() >= -1e-12

    purity_gap = np.asarray(sg.linear_entropy(typical, grid[:100], "purity"))
    paper_gap = np.asarray(sg.linear_entropy(typical, grid[:100], "paper"))
    assert float(np.max(np.abs(purity_gap - paper_gap / 2.0))) <= 5e-15

    for t in np.geomspace(1e-12, 1.0, 200):
        k = sg.kinematics(typical, float(t))
        assert abs(k.delta_z_bar - k.delta_z) <= 1e-12 * k.delta_z
    print("ACCEPTANCE 6 identity suite: PASS")


def test_criterion_7_normalization(typical):
    worst = 0.0
    for t in (0.0, 2e-9, 1e-6, 1e-5, 1e-4):
        for branch in (+1, -1):
            norm, _ = sg.packet_norm_quadrature(typical, branch, t)
            worst = max(worst, abs(norm - 1.0))
        total, _ = sg.total_density_norm_quadrature(typical, t)
        worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-6
    print(f"ACCEPTANCE 7 normalization: PASS (max deviation {worst:.2e})")


def test_criterion_8_asymptotics(typical):
    t_spread = typical.spreading_time
    for t in np.geomspace(1e-4 * t_spread, 0.01 * t_spread, 12):
        exact = float(sg.separation_position_ratio(typical, float(t)))
        approx = float(sg.separation_position_approx(typical, float(t), "short"))
        assert abs(approx - exact) <= 1e-3 * exact
    for t in np.geomspace(100.0 * t_spread, 1e6 * t_spread, 12):
        exact = float(sg.separation_position_ratio(typical, float(t)))
        approx = float(sg.separation_position_approx(typical, float(t), "long"))
        assert abs(approx - exact) <= 1e-3 * exact
    for t in np.geomspace(1e-12, 1.0, 50):
        r1 = float(sg.separation_momentum_ratio(typical, float(t)))
        r2 = float(sg.separation_momentum_ratio(typical, 2.0 * float(t)))
        assert abs(r2 - 2.0 * r1) <= 1e-15 * r2
    print("ACCEPTANCE 8 asymptotics: PASS")


def test_criterion_9_cli_contract(tmp_path, capsys):
    # report: schema and exit 0
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    for token in ("chi", "regime", "tau1", "tau2", "sep_position_at_tau"):
        assert token in out

    # series: schema, first row, byte-identical reruns
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["series", "-o", str(a)]) == 0
    assert main(["series", "-o", str(b)]) == 0
    content = a.read_text(encoding="ascii").split("\n")
    assert content[0] == "t_s,coherence,entropy_paper,entropy_purity,sep_position,sep_momentum"
    assert len(content) == 203  # header + 201 rows + trailing newline
    assert a.read_bytes() == b.read_bytes()

    # profile: schema and determinism
    pa, pb = tmp_path / "pa.csv", tmp_path / "pb.csv"
    assert main(["profile", "--at-time", "1e-5", "-o", str(pa)]) == 0
    assert main(["profile", "--at-time", "1e-5", "-o", str(pb)]) == 0
    assert pa.read_text(encoding="ascii").split("\n")[0] == (
        "z_m,density_plus,density_minus,density_total"
    )
    assert pa.read_bytes() == pb.read_bytes()

    # exit-code matrix: 2 invalid input, 3 unwritable output, 1 failed checks
    assert main(["report", "--gradient", "0"]) == 2
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["series", "-o", str(blocker / "x.csv")]) == 3
    capsys.readouterr()
    assert main(["validate", "--abs-tol", "1e-15"]) == 1
    assert "FAIL" in capsys.readouterr().out

    # validate passes end-to-end on defaults
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    print("ACCEPTANCE 9 CLI contract: PASS")

"""Command-line contract: schemas, exit codes, determinism, round trips."""

import numpy as np

from sgcoherence.cli import main

HEADER_SERIES = "t_s,coherence,entropy_paper,entropy_purity,sep_position,sep_momentum"
HEADER_PROFILE = "z_m,density_plus,density_minus,density_total"


def _read_csv(path):
    lines = path.read_text(encoding="ascii").split("\n")
    assert lines[-1] == ""  # newline-terminated
    header, rows = lines[0], lines[1:-1]
    data = np.array([[float(x) for x in row.split(",")] for row in rows])
    return header, data


def test_report_schema(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    for token in ("chi", "regime", "tau", "tau1", "tau2",
                  "sep_position_at_tau", "sep_momentum_at_tau"):
        assert token in out
    assert "MomentumDominated" in out


def test_report_entropy_convention(capsys):
    assert main(["report", "--entropy-convention", "purity"]) == 0
    out = capsys.readouterr().out
    assert "linear_entropy_at_tau[purity]" in out


def test_report_rejects_nonpositive_gradient(capsys):
    assert main(["report", "--gradient", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    assert main(["report", "--frobnicate", "1"]) == 2


def test_series_default_grid(tmp_path):
    out = tmp_path / "series.csv"
    assert main(["series", "-o", str(out)]) == 0
    header, data = _read_csv(out)
    assert header == HEADER_SERIES
    assert data.shape == (201, 6)
    assert data[0, 0] == 0.0
    assert data[0, 1] == 1.0
    assert data[0, 2] == 0.0


def test_series_column_identity_on_reparse(tmp_path):
    out = tmp_path / "series.csv"
    assert main(["series", "-o", str(out), "--samples", "64"]) == 0
    _, data = _read_csv(out)
    t, c, e_paper = data[:, 0], data[:, 1], data[:, 2]
    np.testing.assert_allclose(e_paper, 1.0 - c * c, atol=2e-12)
    assert np.all(np.diff(t) > 0)
    assert np.all(np.diff(c) <= 1e-12)


def test_series_values_roundtrip_to_12_digits(tmp_path, typical):
    from sgcoherence import coherence

    out = tmp_path / "series.csv"
    assert main(["series", "-o", str(out), "--t-min", "0", "--t-max", "4e-9",
                 "--samples", "9"]) == 0
    _, data = _read_csv(out)
    expected = np.asarray(coherence(typical, data[:, 0]))
    np.testing.assert_allclose(data[:, 1], expected, rtol=1e-12)


def test_series_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["--t-min", "1e-12", "--t-max", "1e-5", "--samples", "40", "--spacing", "log"]
    assert main(["series", "-o", str(a)] + argv) == 0
    assert main(["series", "-o", str(b)] + argv) == 0
    assert a.read_bytes() == b.read_bytes()


def test_series_invalid_grid(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["series", "-o", str(out), "--t-min", "0", "--spacing", "log"]) == 2
    assert main(["series", "-o", str(out), "--t-min", "2", "--t-max", "1"]) == 2
    assert main(["series", "-o", str(out), "--samples", "1"]) == 2
    assert main(["series", "-o", str(out), "--t-max", "inf"]) == 2
    assert not out.exists()


def test_series_unwritable_path(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "nested.csv"
    assert main(["series", "-o", str(out)]) == 3
    assert "error" in capsys.readouterr().err


def test_profile_at_t0_columns_identical(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["profile", "--at-time", "0", "-o", str(out)]) == 0
    header, data = _read_csv(out)
    assert header == HEADER_PROFILE
    assert data.shape[0] == 1001
    np.testing.assert_array_equal(data[:, 1], data[:, 2])


def test_profile_overlapping_peaks_at_2ns(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["profile", "--at-time", "2e-9", "-o", str(out)]) == 0
    _, data = _read_csv(out)
    peak = data[:, 3].max()
    assert np.abs(data[:, 1] - data[:, 2]).max() < 1e-5 * peak
    # mirrored branches on the symmetric default window
    np.testing.assert_allclose(data[:, 1], data[::-1, 2], rtol=1e-9)


def test_profile_peak_locations_at_10us(tmp_path, typical):
    from sgcoherence import kinematics

    out = tmp_path / "p.csv"
    assert main(["profile", "--at-time", "1e-5", "-o", str(out)]) == 0
    _, data = _read_csv(out)
    k = kinematics(typical, 1e-5)
    z = data[:, 0]
    step = z[1] - z[0]
    assert abs(z[np.argmax(data[:, 1])] - k.delta_z_bar) <= step
    assert abs(z[np.argmax(data[:, 2])] + k.delta_z_bar) <= step


def test_profile_requires_at_time(tmp_path):
    assert main(["profile", "-o", str(tmp_path / "p.csv")]) == 2


def test_profile_rejects_negative_time(tmp_path):
    assert main(["profile", "--at-time", "-1e-9", "-o", str(tmp_path / "p.csv")]) == 2


def test_profile_rejects_non_finite_window(tmp_path):
    out = tmp_path / "p.csv"
    for flag, value in (("--z-max", "inf"), ("--z-min", "-inf"), ("--z-min", "nan")):
        assert main(["profile", "--at-time", "1e-6", flag, value, "-o", str(out)]) == 2
    assert not out.exists()


def test_profile_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["profile", "--at-time", "1e-5", "-o", str(a)]) == 0
    assert main(["profile", "--at-time", "1e-5", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_custom_amplitudes_and_window(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["profile", "--at-time", "1e-5", "--alpha", "1,0", "--beta", "0,0",
                 "--z-min", "-5e-5", "--z-max", "5e-5", "--samples", "101",
                 "-o", str(out)]) == 0
    _, data = _read_csv(out)
    np.testing.assert_allclose(data[:, 3], data[:, 1], rtol=1e-12)


def test_degenerate_amplitudes_rejected(tmp_path):
    assert main(["report", "--alpha", "0,0", "--beta", "0,0"]) == 2


def test_malformed_complex_pair_rejected():
    assert main(["report", "--alpha", "nope"]) == 2


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# experiment defaults\nsigma = 2e-5\ngradient = 500\n")
    assert main(["report", "--config", str(config)]) == 0
    out_file_only = capsys.readouterr().out
    assert main(["report", "--config", str(config), "--sigma", "1e-5"]) == 0
    out_flag_wins = capsys.readouterr().out
    assert main(["report", "--sigma", "1e-5", "--gradient", "500"]) == 0
    out_reference = capsys.readouterr().out
    assert out_file_only != out_flag_wins
    assert out_flag_wins == out_reference


def test_config_file_missing(tmp_path, capsys):
    assert main(["report", "--config", str(tmp_path / "absent.cfg")]) == 3


def test_validate_defaults_pass(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 8
    assert "FAIL" not in out
    for token in ("overlap_vs_closed_form", "tau_closed_form_vs_bisection",
                  "kernel_density_match", "norm_unity", "err=", "bound="):
        assert token in out


def test_validate_rejects_non_finite_quadrature_settings(capsys):
    for flag, value in (("--min-points-per-oscillation", "inf"),
                        ("--window-sigmas", "inf"), ("--window-sigmas", "nan")):
        assert main(["validate", flag, value]) == 2
        assert "must be finite" in capsys.readouterr().err


def test_validate_forced_failure(capsys):
    assert main(["validate", "--abs-tol", "1e-15", "--max-subdivisions", "8"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_validate_kernel_failure_fails_both_kernel_checks(capsys):
    # A kernel convolution that cannot converge fails its density and its
    # phase check alike, so every check keeps one line.
    assert main(["validate", "--abs-tol", "1e-40", "--max-subdivisions", "0"]) == 1
    out = capsys.readouterr().out
    for t in ("2e-09", "1e-06", "1e-05"):
        for name in (f"kernel_density_match_t={t}", f"kernel_phase_constancy_t={t}"):
            lines = [line for line in out.splitlines() if line.startswith(name + " ")]
            assert len(lines) == 1 and lines[0].endswith(" FAIL")
    assert out.count("overlap_imaginary_part") == 1

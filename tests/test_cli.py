"""Command-line contract: schemas, exit codes, determinism, round trips."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgcoherence import cli, default_profile_window, density_profile, typical_params
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


def test_config_key_without_flag_exits_2(tmp_path, capsys):
    # The window, resolution and subdivision budget are fixed: keys naming
    # them are rejected like any unknown flag.
    for key in ("max-subdivisions", "window-sigmas", "min-points-per-oscillation"):
        config = tmp_path / f"{key}.cfg"
        config.write_text(f"{key} = 8\n")
        assert main(["validate", "--config", str(config)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_validate_defaults_pass(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 8
    assert "FAIL" not in out
    for token in ("overlap_vs_closed_form", "tau_closed_form_vs_bisection",
                  "kernel_density_match", "norm_unity", "err=", "bound="):
        assert token in out


def test_validate_rejects_non_finite_quadrature_settings(capsys):
    for value in ("inf", "nan"):
        assert main(["validate", "--abs-tol", value]) == 2
        assert "must be positive and finite" in capsys.readouterr().err


def test_validate_forced_failure(capsys):
    assert main(["validate", "--abs-tol", "1e-15"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_validate_kernel_failure_fails_both_kernel_checks(capsys):
    # A kernel convolution that cannot converge fails its density and its
    # phase check alike, so every check keeps one line.
    assert main(["validate", "--abs-tol", "1e-40"]) == 1
    out = capsys.readouterr().out
    t_s = typical_params().spreading_time
    for t in ("2e-09", "1e-06", "1e-05", f"{0.1 * t_s:g}", f"{t_s:g}"):
        for name in (f"kernel_density_match_t={t}", f"kernel_phase_constancy_t={t}"):
            lines = [line for line in out.splitlines() if line.startswith(name + " ")]
            assert len(lines) == 1 and lines[0].endswith(" FAIL")
    assert out.count("overlap_imaginary_part") == 1


def _reference_csv(header, columns):
    """The per-value writer ``_write_csv`` replaced, kept as the reference."""
    lines = [header + "\n"]
    for row in zip(*columns):
        lines.append(",".join("{:.12e}".format(v) for v in row) + "\n")
    return "".join(lines).encode("ascii")


def _written_csv(tmp_path, header, columns):
    out = tmp_path / "w.csv"
    cli._write_csv(str(out), header, columns)
    return out.read_bytes()


_EDGE_VALUES = [
    0.0, -0.0, np.exp(-800.0),  # underflows to zero
    5e-324, -5e-324, 2.2250738585072009e-308,  # subnormals
    np.inf, -np.inf, np.nan,
    np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny,
    # exact ties at the 13th significant digit, and their neighbours
    10000000000005.0, 10000000000015.0, 99999999999995.0, 5000000000002.5,
    2.0**-20, -(2.0**-20),
    np.nextafter(10000000000005.0, np.inf), np.nextafter(10000000000005.0, 0.0),
    1.0, -1.0, np.pi, 1e300, 1e-300,
]


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 10000])
def test_write_csv_matches_per_value_format(tmp_path, rows):
    rng = np.random.default_rng(rows)
    edge = np.resize(np.array(_EDGE_VALUES), rows)
    columns = [
        edge,
        rng.permutation(edge),
        rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows),
        np.exp(-rng.uniform(0.0, 800.0, rows)),  # underflows past ~745
    ]
    header = "a,b,c,d"
    assert _written_csv(tmp_path, header, columns) == _reference_csv(header, columns)


def test_write_csv_matches_per_value_format_near_ties(tmp_path):
    # Doubles nearest a tie in the 13th significant digit, at every decade
    # from 1e-300 to 1e300 (across both ends of the NumPy fast path), and
    # nearest the ties 10**k (1 - 5e-14) that round up to the next decade;
    # each with its two neighbouring doubles.
    rng = np.random.default_rng(23)
    ties = [f"{m}5e{k - 13}" for k in range(-300, 301)
            for m in rng.integers(10**12, 10**13, 4)]
    decade_ties = [f"9.99999999999995e{k - 1}" for k in range(-300, 301)]
    powers = [f"1e{k}" for k in range(-307, 309)]
    nearest = np.array([float(v) for v in ties + decade_ties + powers])
    values = np.concatenate([
        nearest, np.nextafter(nearest, -np.inf), np.nextafter(nearest, np.inf),
        # Rendered as 1.000000000000e+00 and 1.000000000000e-289 by a move up
        # a decade without the tie test, or down only below 1e12 - 1/2.
        [0.99999999999995, 9.9999999999995e-290],
    ])
    columns = [values, -values[::-1], rng.permutation(values)]
    header = "a,b,c"
    assert _written_csv(tmp_path, header, columns) == _reference_csv(header, columns)


def test_write_csv_matches_per_value_format_on_zero_heavy_profile(tmp_path):
    # At 1 ms both branch densities are exact zeros over 99% of the default
    # window; the values left run from ~4e4 down into the subnormals.
    params = typical_params()
    lo, hi = default_profile_window(params, 1e-3)
    profile = density_profile(params, 1e-3, lo, hi, 20000)
    assert np.mean(profile.density_minus == 0.0) > 0.9
    columns = [profile.z, profile.density_plus, profile.density_minus,
               profile.density_total]
    expected = _reference_csv(HEADER_PROFILE, columns)
    assert _written_csv(tmp_path, HEADER_PROFILE, columns) == expected


# Half the draws cross a block boundary; plain integers(0, 9000) mostly stays small.
_ROWS = st.integers(0, 9000) | st.integers(4000, 9000)
_TABLES = st.tuples(_ROWS, st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.float64, shape,
                         elements=st.floats(allow_nan=True, allow_infinity=True,
                                            allow_subnormal=True))
)


@settings(max_examples=40, deadline=None)
@given(table=_TABLES)
def test_write_csv_matches_per_value_format_property(tmp_path_factory, table):
    tmp_path = tmp_path_factory.mktemp("csv")
    columns = list(table.T)
    header = ",".join(f"c{i}" for i in range(len(columns)))
    assert _written_csv(tmp_path, header, columns) == _reference_csv(header, columns)


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    short = tmp_path / "short.csv"
    assert main(["series", "--samples", "7", "-o", str(short)]) == 0
    assert _read_csv(short)[1].shape == (7, 6)
    assert main(["series", "--frobnicate", "-o", str(short)]) == 2
    config = tmp_path / "run.cfg"
    config.write_text("samples = 9\nsigma = 2e-5\n")
    configured = tmp_path / "configured.csv"
    assert main(["series", "--config", str(config), "-o", str(configured)]) == 0
    assert _read_csv(configured)[1].shape == (9, 6)

    default = tmp_path / "default.csv"
    assert main(["series", "-o", str(default)]) == 0
    first_in_process = tmp_path / "first.csv"
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys; from sgcoherence.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, "series", "-o", str(first_in_process)],
                   env=env, check=True, timeout=120)
    assert _read_csv(default)[1].shape == (201, 6)
    assert default.read_bytes() == first_in_process.read_bytes()

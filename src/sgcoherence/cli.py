"""Command-line interface.

Four subcommands:

``report``    print the regime/decay-time summary for a parameter set.
``series``    write the coherence/entanglement time series as CSV.
``profile``   write branch/total position densities at one time as CSV.
``validate``  run the numerical cross-check suite and report pass/fail.

Exit codes: 0 success, 1 validation failure, 2 invalid input, 3 I/O
failure. CSV output uses '.' decimals, ',' separators, LF line endings and
13 significant digits, so identical invocations are byte-identical. Each
value is the bytes of ``"%.12e" % v``, rendered in NumPy a block of rows at
a time: ``_decimal_parts`` proves the rounding exact for zeros and values of
magnitude 1e-290 to 1e290 away from a tie; the rest, ~1% of values, are
formatted by ``%`` itself.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import analytic, experiment, oracle
from .params import ExperimentParams

#: Rows formatted per block. The working arrays take ~130 bytes a value;
#: 1024 rows formats ~5% faster, but adds ~0.5 MB more to a process's peak
#: memory over a few thousand curve CSVs.
_CSV_BLOCK_ROWS = 512

# The NumPy rendering of "%.12e" (see ``_csv_rows``). Its fast path takes
# zeros and |x| in [_FAST_MIN, _FAST_MAX], whose decimal exponents e, after
# one move of a decade, lie in [-_MAX_EXP, _MAX_EXP].
_FAST_MIN, _FAST_MAX = 1e-290, 1e290
_MAX_EXP = 291

#: A scaled value this close to a half-integer may round either way.
_TIE_MARGIN = 2.0 ** -8


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables of the CSV formatter, built on first use (~0.5 ms), so
    that importing the CLI, ``report`` and ``validate`` do not pay for them.

    Indexed by e + _MAX_EXP: 10**(12 - e) correctly rounded (Python's
    ``float`` of the decimal), and the four bytes of the exponent sign and
    three digits of e. Then the ASCII digits of 0..9999, zero-padded, one
    ``V4`` item each.
    """
    e = np.arange(-_MAX_EXP, _MAX_EXP + 1)
    scale = np.array([float(f"1e{12 - k}") for k in e.tolist()])
    exponent = np.empty((e.size, 4), np.uint8)
    exponent[:, 0] = np.where(e < 0, ord("-"), ord("+"))
    exponent[:, 1:] = np.abs(e)[:, None] // [100, 10, 1] % 10 + ord("0")
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
    return (scale, exponent.view("V4").ravel(),
            np.ascontiguousarray(digits).view("V4").ravel())


#: One value's bytes: sign, d.dddddddddddd, e, exponent sign and three
#: digits, separator. ``_csv_rows`` drops an unused sign or hundreds digit.
_RECORD = np.dtype({
    "names": ["sign", "lead", "point", "d1", "d2", "d3", "e", "exp", "sep"],
    "formats": ["u1", "u1", "u1", "V4", "V4", "V4", "u1", "V4", "u1"],
    "offsets": [0, 1, 2, 3, 7, 11, 15, 16, 20],
})


def _complex_pair(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except Exception as exc:
        raise argparse.ArgumentTypeError(
            f"expected 're,im' pair, got {text!r}"
        ) from exc


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    typical = experiment.typical_params()
    group = parser.add_argument_group("experiment parameters")
    group.add_argument("--mass", type=float, default=typical.mass, help="particle mass, kg")
    group.add_argument("--gradient", type=float, default=typical.field_gradient,
                       help="field gradient dB/dz, T/m")
    group.add_argument("--moment", type=float, default=typical.magnetic_moment,
                       help="magnetic moment, J/T (default: Bohr magneton)")
    group.add_argument("--sigma", type=float, default=typical.sigma0,
                       help="initial packet width, m")
    group.add_argument("--alpha", type=_complex_pair, default=typical.alpha, metavar="RE,IM",
                       help="spin-up amplitude (normalized on load)")
    group.add_argument("--beta", type=_complex_pair, default=typical.beta, metavar="RE,IM",
                       help="spin-down amplitude (normalized on load)")
    parser.add_argument("--config", metavar="FILE",
                        help="key=value defaults file; flags override it")


def _add_quadrature_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("quadrature overrides")
    group.add_argument("--abs-tol", type=float, default=None,
                       help="absolute tolerance for every quadrature check")


# argparse's stock matcher rejects negative numbers in scientific notation
# ("--z-min -5e-5"); widen it.
_NEGATIVE_NUMBER = re.compile(r"^-\d+\.?\d*([eE][-+]?\d+)?$|^-\.\d+([eE][-+]?\d+)?$")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.

    It depends only on constants, and parsing does not change it.
    """
    parser = argparse.ArgumentParser(
        prog="sgcoherence",
        description="Spin-position entanglement dynamics of a Stern-Gerlach beam",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_report = sub.add_parser("report", help="regime and decay-time summary")
    _add_param_flags(p_report)
    p_report.add_argument("--entropy-convention", choices=("paper", "purity"),
                          default="paper")

    p_series = sub.add_parser("series", help="coherence/entanglement time series CSV")
    _add_param_flags(p_series)
    p_series.add_argument("--t-min", type=float, default=0.0)
    p_series.add_argument("--t-max", type=float, default=None,
                          help="default: five decay times")
    p_series.add_argument("--samples", type=int, default=experiment.DEFAULT_SERIES_POINTS)
    p_series.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p_series.add_argument("-o", "--output", default="series.csv")

    p_profile = sub.add_parser("profile", help="position density profile CSV")
    _add_param_flags(p_profile)
    p_profile.add_argument("--at-time", type=float, required=True, help="sample time, s")
    p_profile.add_argument("--z-min", type=float, default=None)
    p_profile.add_argument("--z-max", type=float, default=None)
    p_profile.add_argument("--samples", type=int, default=experiment.DEFAULT_PROFILE_POINTS)
    p_profile.add_argument("-o", "--output", default="profile.csv")

    p_val = sub.add_parser("validate", help="run the numerical cross-check suite")
    _add_param_flags(p_val)
    _add_quadrature_flags(p_val)

    for sub_parser in (p_report, p_series, p_profile, p_val):
        sub_parser._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Splice key=value lines of a --config file into the argument list.

    The file entries are inserted right after the subcommand, so flags
    given on the command line come later and win (argparse keeps the last
    occurrence). Keys use the long flag names, with '-' or '_'.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return argv
    injected: list[str] = []
    with open(known.config, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            injected.extend([flag, value])
    if not argv:
        return injected
    return [argv[0], *injected, *argv[1:]]


def _params_from_args(args: argparse.Namespace) -> ExperimentParams:
    return ExperimentParams(
        mass=args.mass,
        field_gradient=args.gradient,
        sigma0=args.sigma,
        magnetic_moment=args.moment,
        alpha=args.alpha,
        beta=args.beta,
    )


def _decimal_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``"%.12e"``'s 13-digit mantissa and decimal exponent of each value of x.

    Returns ``(q, e, slow)``: |x| rounds to ``q * 10**(e - 12)``, with q a
    13-digit integer (0 and e = 0 for a zero), wherever ``slow`` is False.
    ``slow`` marks the values this cannot decide: those near a rounding tie
    and every nonzero |x| outside [1e-290, 1e290], inf and nan.
    """
    scale = _format_tables()[0]
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0  # zeros print q = 0, e = 0; the rest are slow
    # np.log10 is good to a few ulps, so e misses the decade by at most one,
    # and one move down (y < 1e12) or up (m = 1e13) corrects it.
    #
    # Why rint(y) is the correctly rounded mantissa. Let t = |x| 10**(12 - e)
    # be exact and y = fl(|x| fl(10**(12 - e))). Two roundings, each within
    # u = 2**-53, give |y - t| <= (2u + u**2) t < 2.3e-3 for t < 1e13 + 1.
    # So rint(y) is the integer nearest t unless a half-integer lies between
    # y and t, which puts y within 2.3e-3 of it: the test
    # |y - rint(y)| >= 1/2 - 2**-8 flags every such y, and the exact ties
    # that "%" breaks by the binary value. It runs before the move up, which
    # is itself the rounding of t past 1e13 - 1/2, and again after it. Where
    # y and t straddle 1e12, either decade prints 1.000000000000e(e).
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * scale[e + _MAX_EXP]
    down = np.flatnonzero(y < 1e12)
    e[down] -= 1
    y[down] = a[down] * scale[e[down] + _MAX_EXP]
    m = np.rint(y)
    slow = np.abs(y - m) >= 0.5 - _TIE_MARGIN
    up = np.flatnonzero(m >= 1e13)
    e[up] += 1
    y_up = a[up] * scale[e[up] + _MAX_EXP]
    m[up] = np.rint(y_up)
    slow[up] |= np.abs(y_up - m[up]) >= 0.5 - _TIE_MARGIN
    slow |= ~fast & (x != 0.0)
    return (m * fast).astype(np.int64), e, slow


def _csv_rows(block: np.ndarray) -> bytes:
    """CSV lines of a 2-D block, each value the bytes of ``"%.12e" % v``.

    ``_decimal_parts`` gives each value's digits, which go through 4-digit
    lookup tables into a 21-byte record per value; the values it cannot
    decide are formatted by ``%`` itself.
    """
    exponent, digits = _format_tables()[1:]
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    q, e, slow = _decimal_parts(x)
    hi = q // 10**8  # the leading 5 digits
    lo = q - hi * 10**8
    lead = hi // 10**4
    mid = lo // 10**4
    rec = np.empty(n, _RECORD)
    rec["sign"] = ord("-")
    rec["lead"] = lead + ord("0")
    rec["point"] = ord(".")
    rec["d1"] = digits[hi - lead * 10**4]
    rec["d2"] = digits[mid]
    rec["d3"] = digits[lo - mid * 10**4]
    rec["e"] = ord("e")
    rec["exp"] = exponent[e + _MAX_EXP]
    sep = rec["sep"].reshape(rows, cols)
    sep[:, :-1] = ord(",")
    sep[:, -1] = ord("\n")

    keep = np.ones((n, _RECORD.itemsize), bool)
    keep[:, 0] = np.signbit(x)
    keep[:, 17] = (e <= -100) | (e >= 100)  # the exponent's hundreds digit
    raw = rec.view(np.uint8).reshape(n, _RECORD.itemsize)
    fallback = np.flatnonzero(slow)
    if fallback.size:
        # "%.12e" takes at most 20 characters; "%-20.12e" pads it with spaces.
        text = ("%-20.12e" * fallback.size % tuple(x[fallback].tolist())).encode("ascii")
        chars = np.frombuffer(text, np.uint8).reshape(fallback.size, 20)
        raw[fallback, :20] = chars
        keep[fallback, :20] = chars != ord(" ")
    return raw[keep].tobytes()


def _write_csv(path: str, header: str, columns: list[np.ndarray]) -> None:
    """Write equal-length columns as CSV, each value as ``%.12e``.

    The bytes are those of a per-value ``format(v, ".12e")``. ``_csv_rows``
    formats a block of rows at a time in NumPy: for zeros and
    1e-290 <= |x| <= 1e290 it rounds the scaled value ``y`` to 13 digits
    with ``rint``, exact because ``y`` is within 2.3e-3 of the true scaled
    value. A ``y`` within 2**-8 of a half-integer, and every other value
    (nonzero magnitudes under 1e-290, subnormals among them, or over
    1e290, inf and nan), ~1% of values, is formatted by ``%``.
    """
    table = np.column_stack(columns)
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii") + b"\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            handle.write(_csv_rows(table[start:start + _CSV_BLOCK_ROWS]))


def _run_report(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    report = analytic.regime_report(params)
    entropy_at_tau = float(
        analytic.linear_entropy(params, report.tau, convention=args.entropy_convention)
    )
    lines = [
        ("chi", f"{report.chi:.6e}", "dimensionless"),
        ("regime", report.regime.value, ""),
        ("tau", f"{report.tau:.9e}", "s"),
        ("tau1", f"{report.tau1:.9e}", "s"),
        ("tau2", f"{report.tau2:.9e}", "s"),
        ("sep_position_at_tau", f"{report.sep_position_at_tau:.6e}", "dimensionless"),
        ("sep_momentum_at_tau", f"{report.sep_momentum_at_tau:.6e}", "dimensionless"),
        (f"linear_entropy_at_tau[{args.entropy_convention}]", f"{entropy_at_tau:.6e}", ""),
    ]
    for name, value, unit in lines:
        suffix = f" {unit}" if unit else ""
        print(f"{name:<34s} = {value}{suffix}")
    return 0


def _run_series(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    t_max = args.t_max
    if t_max is None:
        t_max = 5.0 * analytic.decoherence_time(params)
    series = experiment.coherence_series(params, args.t_min, t_max,
                                         args.samples, args.spacing)
    _write_csv(
        args.output,
        "t_s,coherence,entropy_paper,entropy_purity,sep_position,sep_momentum",
        [series.times, series.coherence, series.entropy_paper,
         series.entropy_purity, series.sep_position, series.sep_momentum],
    )
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    if args.at_time < 0.0:
        raise ValueError("--at-time must be >= 0")
    z_min, z_max = args.z_min, args.z_max
    if z_min is None or z_max is None:
        lo, hi = experiment.default_profile_window(params, args.at_time)
        z_min = lo if z_min is None else z_min
        z_max = hi if z_max is None else z_max
    profile = experiment.density_profile(params, args.at_time, z_min, z_max, args.samples)
    _write_csv(
        args.output,
        "z_m,density_plus,density_minus,density_total",
        [profile.z, profile.density_plus, profile.density_minus, profile.density_total],
    )
    return 0


def _check(name: str, err: float, bound: float, lines: list[str]) -> bool:
    ok = err <= bound
    lines.append(f"{name:<36s} err={err:.3e} bound={bound:.1e} {'PASS' if ok else 'FAIL'}")
    return ok


def _check_failed(name: str, reason: str, lines: list[str]) -> bool:
    lines.append(f"{name:<36s} {reason} FAIL")
    return False


def _run_validate(args: argparse.Namespace) -> int:
    params = _params_from_args(args)

    def spec(default_tol: float) -> oracle.QuadratureSpec:
        return oracle.QuadratureSpec(args.abs_tol if args.abs_tol is not None else default_tol)

    lines: list[str] = []
    all_ok = True

    # Closed-form coherence against the overlap integral.
    try:
        times = np.geomspace(1e-12, 1e-4, 50)
        max_err = 0.0
        max_imag = 0.0
        for t in times:
            value = oracle.overlap_quadrature(params, float(t), spec(1e-9))
            max_err = max(max_err, abs(float(analytic.coherence(params, float(t))) - abs(value)))
            max_imag = max(max_imag, abs(value.imag))
        all_ok &= _check("overlap_vs_closed_form", max_err, 1e-6, lines)
        all_ok &= _check("overlap_imaginary_part", max_imag, 1e-8, lines)
    except oracle.QuadratureConvergenceError as exc:
        all_ok = _check_failed("overlap_vs_closed_form", str(exc), lines)
        _check_failed("overlap_imaginary_part", str(exc), lines)

    # Overlap magnitude at the closed-form decay time.
    try:
        tau = analytic.decoherence_time(params)
        value = oracle.overlap_quadrature(params, tau, spec(1e-9))
        all_ok &= _check("overlap_at_tau_vs_1_over_e",
                         abs(abs(value) - 1.0 / math.e), 1e-6, lines)
    except oracle.QuadratureConvergenceError as exc:
        all_ok = _check_failed("overlap_at_tau_vs_1_over_e", str(exc), lines)

    # Closed-form decay time against bisection over a parameter sweep.
    max_rel = 0.0
    for fm in (0.01, 1.0, 100.0):
        for fg in (0.01, 1.0, 100.0):
            for fs in (0.01, 1.0, 100.0):
                swept = ExperimentParams(
                    mass=params.mass * fm,
                    field_gradient=params.field_gradient * fg,
                    sigma0=params.sigma0 * fs,
                    magnetic_moment=params.magnetic_moment,
                )
                closed = analytic.decoherence_time(swept)
                rooted = oracle.decoherence_time_bisection(swept, tol_rel=1e-10)
                max_rel = max(max_rel, abs(closed - rooted) / rooted)
    all_ok &= _check("tau_closed_form_vs_bisection", max_rel, 1e-6, lines)

    # Kernel propagation against the evolved packets, at three fixed times
    # and at a tenth of and at the spreading time 2 m sigma0^2/hbar, where
    # the packet's width and chirp have grown by order one.
    t_s = params.spreading_time
    for t in (2e-9, 1e-6, 1e-5, 0.1 * t_s, t_s):
        name_d = f"kernel_density_match_t={t:g}"
        name_p = f"kernel_phase_constancy_t={t:g}"
        try:
            k = analytic.kinematics(params, t)
            center = k.delta_z_bar
            span = k.sigma_t * math.sqrt(2.0 * math.log(1e3))
            z_grid = np.linspace(center - span, center + span, 21)
            samples = oracle.propagate_via_kernel(params, +1, z_grid, t, spec(1e-5))
            values = np.array([s.value for s in samples])
            density = np.asarray(analytic.packet_density(params, +1, z_grid, t))
            rel = np.abs(np.abs(values) ** 2 - density) / density
            all_ok &= _check(name_d, float(rel.max()), 1e-4, lines)
            # A certified 0 has no phase to compare.
            zeros = np.count_nonzero(values == 0.0)
            if zeros:
                which = "all" if zeros == values.size else f"{zeros} of {values.size}"
                all_ok = _check_failed(name_p, f"{which} kernel values are certified zero",
                                       lines)
                continue
            closed = np.asarray(analytic.packet_amplitude(params, +1, z_grid, t))
            phases = values / closed
            phases /= np.abs(phases)
            mean_phase = phases.mean()
            mean_phase /= abs(mean_phase)
            spread = float(np.abs(np.angle(phases / mean_phase)).max())
            all_ok &= _check(name_p, spread, 1e-3, lines)
        except oracle.QuadratureConvergenceError as exc:
            all_ok = _check_failed(name_d, str(exc), lines)
            _check_failed(name_p, str(exc), lines)

    # Normalization of the evolved packets and of the spin-traced density.
    try:
        max_norm_err = 0.0
        for t in (0.0, 2e-9, 1e-6, 1e-5, 1e-4):
            norm, _ = oracle.packet_norm_quadrature(params, +1, t, spec(1e-9))
            max_norm_err = max(max_norm_err, abs(norm - 1.0))
            total, _ = oracle.total_density_norm_quadrature(params, t, spec(1e-9))
            max_norm_err = max(max_norm_err, abs(total - 1.0))
        all_ok &= _check("norm_unity", max_norm_err, 1e-6, lines)
    except oracle.QuadratureConvergenceError as exc:
        all_ok = _check_failed("norm_unity", str(exc), lines)

    for line in lines:
        print(line)
    print("validate:", "all checks passed" if all_ok else "some checks FAILED")
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.subcommand == "report":
            return _run_report(args)
        if args.subcommand == "series":
            return _run_series(args)
        if args.subcommand == "profile":
            return _run_profile(args)
        if args.subcommand == "validate":
            return _run_validate(args)
        raise ValueError(f"unknown subcommand {args.subcommand!r}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

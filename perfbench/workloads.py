"""Seeded workloads: input streams, the timed operations and their output checks.

Each workload is an endless stream of *units*, lists of operations that a
run executes back to back as one closed-loop client. Beam parameters are
drawn log-uniform within one decade of ``typical_params()`` on either side,
the range of the acceptance suite.

Operation costs span two orders of magnitude across that range, and
depend on several inputs at once, so plain random draws would make runs
with different seeds differ more by their inputs than by the code. Each
workload therefore draws the quantiles of the inputs that set an
operation's cost from a Halton sequence, each coordinate shifted mod 1 by
a seeded uniform draw: every prefix of it, and so every run wherever its
time budget cuts it, covers the joint range evenly, while each value is
still uniform. The other inputs are independent uniform draws.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass, field
from itertools import count, islice
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np
from mpmath import mp, mpf

import sgcoherence as sg
import sgcoherence.cli
import sgcoherence.oracle

#: Physical constants and the beam of ``typical_params()``, restated so the
#: generated inputs do not depend on the code being measured.
HBAR = 1.054571817e-34
BOHR_MAGNETON = 9.2740100783e-24
TYPICAL_BEAM = (1.8e-25, 1e3, 1e-5)  # mass kg, gradient T/m, sigma0 m

SERIES_HEADER = "t_s,coherence,entropy_paper,entropy_purity,sep_position,sep_momentum"
PROFILE_HEADER = "z_m,density_plus,density_minus,density_total"

#: Data rows compared with the closed forms per CSV, besides first and last.
SAMPLED_ROWS = 8

#: Operations a timed run makes at least, so that ten lie beyond p90.
MIN_OPS = 100

#: Tolerance of a CSV value against its closed form: the 13 printed digits
#: leave 5e-13, the rest covers last-bit differences of vectorised math.
CSV_RTOL = 5e-12


@dataclass(frozen=True)
class Beam:
    """Beam parameters of one generated input."""

    mass: float
    gradient: float
    sigma0: float

    @classmethod
    def from_decades(cls, decades) -> "Beam":
        """Beam at ``typical * 10**decades``, parameter by parameter."""
        return cls(*(float(x * 10.0 ** float(d)) for x, d in zip(TYPICAL_BEAM, decades)))

    def params(self) -> sg.ExperimentParams:
        return sg.ExperimentParams(mass=self.mass, field_gradient=self.gradient,
                                   sigma0=self.sigma0)

    def argv(self) -> list[str]:
        return ["--mass", repr(self.mass), "--gradient", repr(self.gradient),
                "--sigma", repr(self.sigma0)]

    def decay_time(self) -> float:
        """1/e coherence time, the time scale inputs are laid out on."""
        f, m, s = BOHR_MAGNETON * self.gradient, self.mass, self.sigma0
        g = (f / HBAR) * (m / HBAR) * s**3
        chi = 8.0 * g * g
        tau2 = math.sqrt(2.0 * math.sqrt(2.0) * m * s / f)
        return tau2 / math.sqrt(math.sqrt(1.0 + chi) + math.sqrt(chi))


@dataclass
class Op:
    """One operation, with every input it passes to the program."""

    kind: str  # series | profile | overlap | bisection | kernel
    beam: Beam
    t: float = 0.0
    rows: int = 0
    abs_tol: float = 0.0
    z: tuple = ()

    def argv(self, csv_path: str) -> list[str]:
        argv = [self.kind, *self.beam.argv(), "--samples", str(self.rows), "-o", csv_path]
        if self.kind == "profile":
            argv += ["--at-time", repr(self.t)]
        return argv


def _radical_inverse(i: int, base: int) -> float:
    q, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        q += digit * scale
        scale /= base
    return q


def _halton(rng: np.random.Generator, bases: tuple):
    """Endless points in [0, 1)^d: the Halton sequence in ``bases``, each
    coordinate shifted mod 1 by a seeded uniform draw."""
    shifts = rng.random(len(bases))
    for i in count():
        yield tuple((_radical_inverse(i, b) + shift) % 1.0 for b, shift in zip(bases, shifts))


def _log_between(lo: float, hi: float, q: float) -> float:
    return float(lo * (hi / lo) ** q)


def _beam_at(q_mass: float, q_gradient: float, q_sigma: float) -> Beam:
    """Beam with each parameter decade at the given quantile of [-1, 1]."""
    return Beam.from_decades((2.0 * q_mass - 1.0, 2.0 * q_gradient - 1.0, 2.0 * q_sigma - 1.0))


def curves_units(seed):
    """`series` and `profile` CLI calls, alternating; cost set by the row count."""
    rng = np.random.default_rng(seed)
    for (series_q,), (profile_q,) in zip(_halton(rng, (2,)), _halton(rng, (2,))):
        for kind, q in (("series", series_q), ("profile", profile_q)):
            beam = Beam.from_decades(rng.uniform(-1.0, 1.0, 3))
            t = 0.0
            if kind == "profile":
                t = beam.decay_time() * 10.0 ** rng.uniform(0.0, 4.0)
            rows = int(round(_log_between(201, 20000, q)))
            yield [Op(kind, beam, t=t, rows=rows)]


def _sweep_units(seed, abs_tol: float, lo: float, hi: float, n_times: int):
    """Per beam: overlap quadratures at ``n_times`` multiples of its decay
    time, log-spaced over [lo, hi] with the grid shifted by a fraction of
    its step, then the bisection root solve; cost set by all three beam
    parameters, sigma0 the most, and by the times.

    Shifting the grid from beam to beam keeps the latency distribution free
    of the steps one fixed time grid leaves, which would make its quantiles
    jump.
    """
    rng = np.random.default_rng(seed)
    step = math.log10(hi / lo) / n_times
    grid = math.log10(lo) + step * np.arange(n_times)
    for q_sigma, q_mass, q_gradient, q_shift in _halton(rng, (2, 3, 5, 7)):
        beam = _beam_at(q_mass, q_gradient, q_sigma)
        times = beam.decay_time() * 10.0 ** (grid + q_shift * step)
        unit = [Op("overlap", beam, t=float(t), abs_tol=abs_tol) for t in times]
        unit.append(Op("bisection", beam))
        yield unit


def overlap_sweep_units(seed):
    """`validate`'s sweep: 50 times spanning [1e-12, 1e-4] s at the typical
    beam, i.e. 1e-3 to 1e5 decay times, at the default abs_tol."""
    return _sweep_units(seed, 1e-9, 1e-3, 1e5, 50)


def overlap_tight_units(seed):
    """30 times from 1e-3 to 3e3 decay times at abs_tol 1e-12, where the
    adaptive refinement does most of the work; later times cost seconds."""
    return _sweep_units(seed, 1e-12, 1e-3, 3e3, 30)


def kernel_op(beam: Beam, t: float, n: int) -> Op:
    """Kernel propagation on ``n`` points holding the packet above 1e-3 of its peak."""
    force = BOHR_MAGNETON * beam.gradient
    center = force * t * t / (2.0 * beam.mass)
    width = math.hypot(beam.sigma0, HBAR * t / (2.0 * beam.mass * beam.sigma0))
    span = width * math.sqrt(2.0 * math.log(1e3))
    z = np.linspace(center - span, center + span, n)
    return Op("kernel", beam, t=t, abs_tol=1e-5, z=tuple(float(v) for v in z))


def kernel_grid_units(seed):
    """Kernel propagation on 11-21 points at t in [1, 1e4] decay times, as
    `validate` runs it; cost set by the beam, the time and the point count."""
    rng = np.random.default_rng(seed)
    for q_sigma, q_mass, q_gradient, q_time, q_points in _halton(rng, (2, 3, 5, 7, 11)):
        beam = _beam_at(q_mass, q_gradient, q_sigma)
        t = beam.decay_time() * 10.0 ** (4.0 * q_time)
        yield [kernel_op(beam, t, 11 + int(11.0 * q_points))]


WORKLOADS = {
    "curves": curves_units,
    "overlap-sweep": overlap_sweep_units,
    "overlap-tight": overlap_tight_units,
    "kernel-grid": kernel_grid_units,
}

#: Units of the fixed operation list a traced run executes.
TRACE_UNITS = {"curves": 16, "overlap-sweep": 4, "overlap-tight": 4, "kernel-grid": 32}


def first_units(workload: str, seed, n_units: int) -> list[list[Op]]:
    return list(islice(WORKLOADS[workload](seed), n_units))


def plain_layers() -> SimpleNamespace:
    """The entry modules the benchmark calls, unwrapped."""
    return SimpleNamespace(cli=sgcoherence.cli, oracle=sgcoherence.oracle)


def prepare(op: Op, layers, csv_path: str):
    """Build the inputs of ``op`` and return the call to time."""
    if op.kind in ("series", "profile"):
        argv = op.argv(csv_path)
        return lambda: layers.cli.main(argv)
    params = op.beam.params()
    if op.kind == "bisection":
        return lambda: layers.oracle.decoherence_time_bisection(params, tol_rel=1e-10)
    spec = sg.QuadratureSpec(abs_tol=op.abs_tol)
    if op.kind == "overlap":
        return lambda: layers.oracle.overlap_quadrature(params, op.t, spec, full_output=True)
    z = np.asarray(op.z)
    return lambda: layers.oracle.propagate_via_kernel(params, +1, z, op.t, spec)


# ---------------------------------------------------------------- checks


class _CheckFailed(Exception):
    pass


def _close(value: float, ref: float, atol: float = 1e-300) -> bool:
    return abs(value - ref) <= CSV_RTOL * abs(ref) + atol


def _read_csv(op: Op, csv_path: str, header: str, golden: str | None):
    data = Path(csv_path).read_bytes()
    if golden is not None and hashlib.sha256(data).hexdigest() != golden:
        raise _CheckFailed("CSV bytes differ from the recorded output")
    lines = data.decode("ascii").split("\n")
    if lines[0] != header or lines[-1] != "":
        raise _CheckFailed("bad header or missing final newline")
    rows = lines[1:-1]
    if len(rows) != op.rows:
        raise _CheckFailed(f"{len(rows)} rows, expected {op.rows}")
    return rows


def _sample(rng: np.random.Generator, n: int) -> list[int]:
    return sorted({0, n - 1, *rng.integers(0, n, SAMPLED_ROWS).tolist()})


def _check_series(op, csv_path, golden, rng):
    rows = _read_csv(op, csv_path, SERIES_HEADER, golden)
    params = op.beam.params()
    times = np.linspace(0.0, 5.0 * sg.decoherence_time(params), op.rows)
    for i in _sample(rng, op.rows):
        t = float(times[i])
        c = float(sg.coherence(params, t))
        expected = (
            t, c, 1.0 - c * c,
            1.0 - sg.spin_density_matrix(params, t).purity,
            float(sg.separation_position_ratio(params, t)),
            float(sg.separation_momentum_ratio(params, t)),
        )
        got = [float(v) for v in rows[i].split(",")]
        # Entropies near t = 0 are differences of numbers close to 1.
        if len(got) != 6 or not all(_close(g, e, 1e-15) for g, e in zip(got, expected)):
            raise _CheckFailed(f"series row {i} {got} != closed forms {expected}")


def _check_profile(op, csv_path, golden, rng):
    rows = _read_csv(op, csv_path, PROFILE_HEADER, golden)
    params = op.beam.params()
    lo, hi = sg.default_profile_window(params, op.t)
    z = np.linspace(lo, hi, op.rows)
    for i in _sample(rng, op.rows):
        expected = (
            float(z[i]),
            float(sg.packet_density(params, +1, z[i], op.t)),
            float(sg.packet_density(params, -1, z[i], op.t)),
            float(sg.total_position_density(params, z[i], op.t)),
        )
        got = [float(v) for v in rows[i].split(",")]
        if len(got) != 4 or not all(_close(g, e) for g, e in zip(got, expected)):
            raise _CheckFailed(f"profile row {i} {got} != closed forms {expected}")


def _check_overlap(op, result):
    value, bound = result
    c = float(sg.coherence(op.beam.params(), op.t))
    if not abs(value - c) <= bound:
        raise _CheckFailed(f"|value - C| = {abs(value - c):.3e} exceeds the bound {bound:.3e}")
    if not bound <= op.abs_tol:
        raise _CheckFailed(f"bound {bound:.3e} exceeds abs_tol {op.abs_tol:.1e}")
    if not abs(abs(value) - c) <= 1e-6:
        raise _CheckFailed(f"||value| - C| = {abs(abs(value) - c):.3e} exceeds 1e-6")


def _check_bisection(op, root):
    closed = sg.decoherence_time(op.beam.params())
    if not abs(closed - root) <= 1e-6 * root:
        raise _CheckFailed(f"bisection root {root!r} vs closed form {closed!r}")


def _closed_form_phase(params, z, t: float) -> np.ndarray:
    """exp(i phase) of the evolved + branch packet, phase in 50-digit arithmetic.

    The phase is that of ``analytic.packet_amplitude`` at the same double
    inputs. Its terms reach ~1e13 rad for wide, heavy packets and cancel to
    a few rad, so summed in double precision they keep up to 2e-3 rad of
    rounding, more than the 1e-3 rad the check allows.
    """
    with mp.workdps(50):
        m, hbar, f, s0, t = (mpf(float(x)) for x in
                             (params.mass, params.hbar, params.force, params.sigma0, t))
        a = m / (2 * hbar * t)
        dz = f * t * t / (2 * m)
        ratio2 = 1 / (1 + (hbar * t / (2 * m * s0 * s0)) ** 2)  # (sigma0 / sigma(t))^2
        cubic = -(f * f * t**3) / (24 * m * hbar)
        out = []
        for zi in z:
            zi = mpf(float(zi))
            phase = a * zi * zi + 2 * a * dz * zi + cubic - a * ratio2 * (zi - dz) ** 2
            out.append(complex(mp.expj(phase)))
    return np.array(out)


def _check_kernel(op, samples):
    """`validate`'s checks: density to 1e-4 relative, phase constant to 1e-3 rad.

    The reference phase is the closed form's, evaluated exactly enough
    that its own rounding does not count against the operation.
    """
    params = op.beam.params()
    z = np.asarray(op.z)
    values = np.array([s.value for s in samples])
    density = np.asarray(sg.packet_density(params, +1, z, op.t))
    rel = float(np.max(np.abs(np.abs(values) ** 2 - density) / density))
    if not rel <= 1e-4:
        raise _CheckFailed(f"density error {rel:.3e} exceeds 1e-4")
    phases = values / _closed_form_phase(params, z, op.t)
    phases /= np.abs(phases)
    mean = phases.mean()
    spread = float(np.abs(np.angle(phases / (mean / abs(mean)))).max())
    if not spread <= 1e-3:
        raise _CheckFailed(f"phase spread {spread:.3e} rad exceeds 1e-3")


def check(op: Op, result, csv_path: str, golden: str | None, rng) -> str | None:
    """Failure reason for the output of ``op``, or None when it is right."""
    try:
        if op.kind in ("series", "profile"):
            if result != 0:
                return f"exit code {result}"
            (_check_series if op.kind == "series" else _check_profile)(op, csv_path, golden, rng)
        elif op.kind == "overlap":
            _check_overlap(op, result)
        elif op.kind == "bisection":
            _check_bisection(op, result)
        else:
            _check_kernel(op, result)
    except _CheckFailed as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------- runner


@dataclass
class Record:
    """What one pass over a workload did."""

    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (index, kind, reason)
    rows: int = 0  # CSV data rows written

    @property
    def busy_s(self) -> float:
        return float(sum(self.latencies))

    def add(self, other: "Record") -> None:
        self.latencies += other.latencies
        self.failures += other.failures
        self.rows += other.rows


def execute(units, layers, csv_path: str, seed, seconds: float | None = None,
            golden=(), recorder=None, first_index: int = 0) -> Record:
    """Run ``units`` closed-loop and check every output between operations.

    With ``seconds`` set, stops at the first unit boundary once the timed
    operations have taken that long and number at least ``MIN_OPS``;
    otherwise runs every unit given. ``golden`` holds the sha256 of the CSV
    written by operation ``i``, counted from ``first_index`` for the first
    operation of ``units``. A span ``recorder`` is active only during the
    timed calls.
    """
    record = Record()
    check_rng = np.random.default_rng([int(seed), 7])
    index = first_index
    for unit in units:
        for op in unit:
            call = prepare(op, layers, csv_path)
            reason = None
            if recorder is not None:
                recorder.active = True
            start = perf_counter()
            try:
                result = call()
            except sg.QuadratureConvergenceError as exc:
                reason = f"QuadratureConvergenceError: {exc}"
            except Exception:  # the run goes on; the failure is counted and shown
                reason = traceback.format_exc(limit=3)
            record.latencies.append(perf_counter() - start)
            if recorder is not None:
                recorder.active = False
            if reason is None:
                reason = check(op, result, csv_path,
                               golden[index] if index < len(golden) else None, check_rng)
            if reason is not None:
                record.failures.append((index, op.kind, reason))
            record.rows += op.rows
            index += 1
        if (seconds is not None and record.busy_s >= seconds
                and len(record.latencies) >= MIN_OPS):
            break
    return record

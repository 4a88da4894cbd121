"""Independent numerical cross-checks for the closed-form dynamics.

Three oracles live here, none of which reuses the closed forms it is meant
to validate:

``overlap_quadrature``
    Gauss-Kronrod integration of the pointwise product of the two branch
    wavefunctions, checking the coherence formula.

``propagate_via_kernel``
    Direct convolution of the constant-force propagator with the *initial*
    packet, checking the evolved-packet closed form from first principles.

``decoherence_time_bisection``
    Root solve of C(t) = 1/e, checking the closed-form decay time: a
    doubling ladder brackets the root, and 64-section passes, each one
    ``coherence`` call on 63 points, narrow the bracket, at most
    ``_MAX_SECTION_PASSES`` of them.

The integrands oscillate. Every oracle lays out one kind of panels,
uniform ones that sample the fastest local oscillation in their window at
least ``_POINTS_PER_OSCILLATION`` times, and integrates them in one
Gauss-Kronrod pass; nothing is refined, and a bound over the tolerance
raises at once. A pass takes one row of edges, or many rows with one
panel count, and sums each row apart: the kernel convolution shifts one
template to every point of a z grid and integrates them all in one pass,
and the overlap and norm oracles are its one-row case. Regions that
provably contribute less than the tolerance (Gaussian tails) are replaced
by explicit bounds that are added to the reported error instead of being
silently dropped; one integration-by-parts bound certifies a negligible
overlap, and the path mass a negligible kernel value, unsampled. The
kernel convolution runs along a rotated contour on which its chirp
cancels, so it integrates a Gaussian whatever the time, and it bounds the
rounding of the integrand it evaluates. The only setting is the absolute
tolerance of ``QuadratureSpec``; the window and the resolution are the
constants below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .analytic import coherence, kinematics, packet_amplitude, regime_tau_scales
from .params import ExperimentParams, verify_branch

__all__ = [
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "KernelSample",
    "overlap_quadrature",
    "propagate_via_kernel",
    "decoherence_time_bisection",
    "packet_norm_quadrature",
    "total_density_norm_quadrature",
]

# 15-point Kronrod nodes with the embedded 7-point Gauss rule (ascending).
_XGK = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)
_WG15 = np.zeros(15)
_WG15[1::2] = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

#: Highest integration-by-parts order of the fast-phase overlap bound.
_IBP_MAX_ORDER = 8

#: Hard ceiling on the panel count of a single integral.
_MAX_INITIAL_PANELS = 2**21

#: Nodes evaluated per integrand call while batching panels.
_CHUNK_NODES = 393216

#: Half-width of every integration window, in envelope widths. A Gaussian
#: envelope exp(-z^2/(2 sigma^2)) keeps ~4e-33 of its mass beyond it, far
#: under any layout's rounding floor; the kernel convolution adds that
#: fraction of its path mass to its bound.
_WINDOW_SIGMAS = 12.0

#: Fewest samples per local oscillation of an integrand's phase in the
#: panel layout (a 15-node panel spans at most 15/40 of a period).
_POINTS_PER_OSCILLATION = 40.0

#: Rungs of the root bracket's doubling ladder: evaluated per ``coherence``
#: call, and in all before it gives up.
_LADDER_CHUNK = 16
_LADDER_RUNGS = 208

#: Passes of the 1/e root's 64-section before it gives up; each shrinks the
#: bracket 64-fold, so 9 reach the spacing of doubles from a doubling bracket.
_MAX_SECTION_PASSES = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """The tolerance shared by the quadrature oracles.

    ``abs_tol`` is an absolute tolerance in the units of the integral
    (dimensionless for overlaps, m^(-1/2) for propagated amplitudes).
    """

    abs_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError("abs_tol must be positive and finite")


class QuadratureConvergenceError(RuntimeError):
    """Tolerance not reached; carries the best estimate (0 before any panel) and its bound."""

    def __init__(self, message: str, estimate: complex = 0j, error_bound: float = math.inf):
        super().__init__(
            f"{message} (best estimate {estimate!r}, error bound {error_bound:.3e})"
        )
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class KernelSample:
    """Kernel-propagated wavefunction value at one grid point."""

    z: float
    value: complex


def _gk_panels(integrand, centers: np.ndarray, halfw: np.ndarray, *args: np.ndarray):
    """Gauss-Kronrod 15(7) values, error estimates and floors for a batch of panels.

    Returns ``(values, errors, floors)``. Each error is QUADPACK's qk15
    estimate, and at least the panel's floor: QUADPACK's rounding floor
    ``50 eps resabs h``, with ``resabs h`` the Kronrod integral of ``|f|``
    over the panel. Summed over panels the floors approximate
    ``50 eps int |f|``, which a finer layout that resolves ``|f|`` leaves
    unchanged, so no layout brings the total error under it.

    The panels go through ``integrand`` in chunks of at most
    ``_CHUNK_NODES`` nodes: it gets the nodes as rows of 15, one per panel,
    followed by the chunk's rows of each per-panel array in ``args`` as
    columns, so that nothing the integrand broadcasts outgrows a chunk. It
    returns a new array, which the reductions then overwrite.
    """
    n = centers.size
    vals = np.empty(n, dtype=complex)
    errs = np.empty(n, dtype=float)
    floors = np.empty(n, dtype=float)
    per_chunk = max(1, _CHUNK_NODES // 15)
    for start in range(0, n, per_chunk):
        sl = slice(start, min(n, start + per_chunk))
        c = centers[sl, None]
        h = halfw[sl, None]
        f = integrand(c + h * _XGK[None, :], *(p[sl, None] for p in args))
        resk = f @ _WGK
        resg = f @ _WG15
        fabs = np.abs(f)
        resabs = fabs @ _WGK
        f -= 0.5 * resk[:, None]  # reuse f and fabs: no new temporaries
        resasc = np.abs(f, out=fabs) @ _WGK
        err = np.abs(resk - resg)
        # qk15's scaled error where resasc and err are both non-zero, else err;
        # the placeholder 1 keeps the unused ratios finite.
        live = resasc != 0.0
        ratio = 200.0 * err / np.where(live, resasc, 1.0)
        scaled = np.where(live & (err != 0.0),
                          resasc * np.minimum(1.0, ratio ** 1.5), err)
        h1 = halfw[sl]
        floor = 50.0 * _EPS * resabs
        errs[sl] = np.maximum(scaled, floor) * h1
        floors[sl] = floor * h1
        vals[sl] = resk * h1
    return vals, errs, floors


def _integrate(integrand, edges: np.ndarray, abs_tol: float, extra_error=0.0,
               what="integral", args=()):
    """One Gauss-Kronrod 15(7) pass over the panels of one or more integrals.

    ``edges`` holds one integral's panel edges, or one row of them per
    integral, every row with the same count. ``args`` are per-integral
    arrays that reach ``integrand`` with its panels' rows (see
    ``_gk_panels``), and ``extra_error`` bounds, per integral, everything
    outside the panels (truncated tails, rounding); it is part of the
    reported error. Every panel goes through one ``_gk_panels`` pass, and
    each integral adds its panels' values, errors and floors in order
    (``np.add.reduceat``): over n panels that sum rounds by at most
    ``(n - 1) eps/2`` times the sum of ``|values|``, under the panels'
    floor while n <= 101. Returns ``(values, error_bounds)``, arrays over
    the rows, or the value and the bound of the one integral of 1-D
    ``edges``.

    The layouts of ``_uniform_edges`` are fine enough that, over the beams
    the property tests draw, one pass meets every tolerance above the
    rounding floor; when the bound of an integral still exceeds
    ``abs_tol`` the call raises ``QuadratureConvergenceError`` for the
    first such integral, named by ``what`` (a string, or a function of the
    integral's index), with its estimate, its bound and the parts of it
    that no finer layout lowers: ``extra_error`` and the panels' rounding
    floor (see ``_gk_panels``).
    """
    n = edges.shape[-1] - 1
    left, right = edges[..., :-1].ravel(), edges[..., 1:].ravel()
    starts = np.arange(0, left.size, n)
    vals, errs, floors = _gk_panels(integrand, 0.5 * (right + left), 0.5 * (right - left),
                                    *(np.repeat(arg, n) for arg in args))
    values = np.add.reduceat(vals, starts)
    errors = np.add.reduceat(errs, starts) + extra_error
    failed = np.flatnonzero(errors > abs_tol)
    if failed.size:
        i = int(failed[0])
        raise QuadratureConvergenceError(
            f"{what if isinstance(what, str) else what(i)}: tolerance {abs_tol:.3e} not "
            f"reached; the truncation bounds are "
            f"{np.broadcast_to(extra_error, errors.shape)[i]:.3e} and the panels' "
            f"rounding floor {np.add.reduceat(floors, starts)[i]:.3e}",
            estimate=complex(values[i]),
            error_bound=float(errors[i]),
        )
    if edges.ndim == 1:
        return complex(values[0]), float(errors[0])
    return values, errors


def _uniform_edges(lo: float, hi: float, wavenumber: float,
                   envelope_scale: float) -> np.ndarray:
    """Uniform panels resolving the envelope and local wavenumbers up to ``wavenumber``.

    A panel is at most half the envelope scale wide and spans at most
    15/_POINTS_PER_OSCILLATION of the shortest period; there are at least 4.
    """
    # A wavenumber under 1/envelope_scale never sets the width: raising it
    # there changes no count and keeps the division finite. Builtins: a
    # NumPy ufunc costs a microsecond or more per scalar.
    k = max(wavenumber, 1.0 / envelope_scale)
    width = min(0.5 * envelope_scale, 15.0 * 2.0 * math.pi / (_POINTS_PER_OSCILLATION * k))
    n = max(4, math.ceil((hi - lo) / width))
    if n > _MAX_INITIAL_PANELS:
        raise QuadratureConvergenceError(
            f"oscillation-resolving layout needs {n} panels, over the budget")
    return np.linspace(lo, hi, n + 1)


def _ibp_bounds(sep2: float, k_sigma: float) -> list[float]:
    """``M sqrt(n!)/(k_c sigma)^n`` for n = 0 .. _IBP_MAX_ORDER, M = exp(-sep2/2).

    Rounded up (M by its exponent's condition number, each factor after by
    a few ulps) and never below the smallest normal double.
    """
    x = min(0.5 * sep2, 700.0)
    term = math.exp(-x) * (1.0 + 8.0 * _EPS * (1.0 + x))
    bounds = [max(term, _TINY)]
    factor = (1.0 + 8.0 * _EPS) / k_sigma if k_sigma > 0.0 else math.inf
    for n in range(1, _IBP_MAX_ORDER + 1):
        term *= math.sqrt(n) * factor
        bounds.append(max(term, _TINY))
    return bounds


def overlap_quadrature(params: ExperimentParams, t: float,
                       spec: QuadratureSpec | None = None,
                       full_output: bool = False):
    """Numerical branch overlap integral of phi_+ against conj(phi_-).

    The product is exactly ``E(z) exp(i k_c z)`` up to a constant phase, with
    ``E = peak exp(-z^2/(2 sigma^2))`` of mass M, sigma = sigma(t) and the cross
    wavenumber ``k_c = (dp/hbar)(1 + (sigma0/sigma)^2)``. So, sampling nothing:

    - n integrations by parts leave no boundary terms: |I| <= k_c^-n int |E^(n)|;
    - E^(n) = peak sigma^-n He_n(z/sigma) exp(-z^2/(2 sigma^2));
    - Cauchy-Schwarz, int He_n^2 e^(-x^2/2) = sqrt(2 pi) n!: int |E^(n)| <= M sqrt(n!)/sigma^n.

    Where B = min M sqrt(n!)/(k_c sigma)^n over n <= ``_IBP_MAX_ORDER`` is at
    most abs_tol/8 the result is 0 with bound B. Else panels over the window
    ``|z| <= dzbar + W sigma``, ``W = _WINDOW_SIGMAS``, resolve k_c with at least
    ``_POINTS_PER_OSCILLATION`` samples; Gaussian tails past a live window
    join the bound.

    Returns the complex overlap (with ``full_output=True``, the tuple
    ``(value, error_bound)``).
    """
    spec = spec or QuadratureSpec()
    t = float(t)
    k = kinematics(params, t)  # raises ValueError unless t is finite and >= 0
    sigma_t, dzbar = k.sigma_t, k.delta_z_bar
    k_cross = (params.force * t / params.hbar) * (1.0 + (params.sigma0 / sigma_t) ** 2)
    tol_tail = spec.abs_tol / 8.0

    sep2 = (dzbar / sigma_t) ** 2
    bound = min(_ibp_bounds(sep2, k_cross * sigma_t))
    if bound <= tol_tail:
        return (0.0 + 0.0j, bound) if full_output else 0.0 + 0.0j
    peak = math.exp(-min(0.5 * sep2, 700.0)) / (math.sqrt(2.0 * math.pi) * sigma_t)

    # Live window: where the Gaussian envelope still matters. A cut at or
    # past the window leaves only the mass beyond it, which _WINDOW_SIGMAS
    # puts under the rounding floor. The cut steps s = 1, 1.25, ... below
    # W + dzbar/sigma, np.arange's values in builtin floats, which cost less
    # per operation than NumPy scalars.
    window = dzbar + _WINDOW_SIGMAS * sigma_t
    z_live = window
    tail_bound = 0.0
    mass2 = 2.0 * peak * sigma_t**2
    for j in range(math.ceil((_WINDOW_SIGMAS + dzbar / sigma_t - 1.0) / 0.25)):
        s = 1.0 + 0.25 * j
        cand = mass2 / (s * sigma_t) * math.exp(-0.5 * s * s)
        if cand <= tol_tail:
            z_live = min(s * sigma_t, window)
            tail_bound = cand if z_live < window else 0.0
            break

    edges = _uniform_edges(-z_live, z_live, k_cross, sigma_t)
    amp = (2.0 * math.pi * sigma_t**2) ** -0.25
    amp2, inv4s2 = amp * amp, 1.0 / (4.0 * sigma_t**2)
    integrand = lambda z: kernels.overlap_integrand(z, amp2, inv4s2, dzbar, k_cross)
    value, err = _integrate(integrand, edges, spec.abs_tol,
                            extra_error=tail_bound, what="overlap quadrature")
    return (value, err) if full_output else value


def _exp_i(num: int, den: int) -> complex:
    """exp(i num/den) of an exact phase, as a product over the doubles it splits into.

    Each double is the one nearest to what is left of the phase (an integer
    quotient rounds correctly), and libm's cos and sin reduce it mod 2 pi
    exactly, so every factor is good to an ulp however large the phase. The
    split stops once the rest is at most eps rad; a finite double phase
    takes at most 21 factors. A phase past the largest double raises
    ``OverflowError``.
    """
    out = 1.0 + 0.0j
    d = num / den
    while abs(d) > _EPS:
        out *= complex(math.cos(d), math.sin(d))
        n, k = d.as_integer_ratio()  # d = n/k exactly
        num, den = num * k - n * den, den * k
        d = num / den
    return out


def _exact_phase_terms(params: ExperimentParams, s: int, t: float):
    """``phi_glob``, ``2 b`` and ``s dz`` of ``propagate_via_kernel``, exactly.

    Each is a ``(numerator, denominator)`` pair of integers over one
    denominator, formed from the integer ratios of the double inputs with
    no gcd: ``phi_glob = a dz^2 + s b dz - f^2 t^3/(24 m hbar)`` is
    ``f^2 t^3/(3 m hbar)``, ``2 b = s f t/hbar`` and ``s dz = s f t^2/(2 m)``.
    """
    (mn, md), (hn, hd), (fn, fd), (tn, td) = (
        float(v).as_integer_ratio() for v in (params.mass, params.hbar, params.force, t))
    phi_glob = (fn * fn * tn**3 * md * hd, 3 * fd * fd * td**3 * mn * hn)
    two_b = (s * fn * tn * hd, fd * td * hn)
    s_dz = (s * fn * tn * tn * md, 2 * fd * td * td * mn)
    return phi_glob, two_b, s_dz


def _exact_phase(params: ExperimentParams, s: int, t: float, z: list[float]):
    """``z* = z - s dz`` and ``Phi = phi_glob + 2 b z*`` at each z, exactly.

    Returns one ``((z*_num, z*_den), (Phi_num, Phi_den))`` pair of integer
    ratios per z, each term over the denominators of
    ``_exact_phase_terms`` and of z, multiplied out with no gcd.
    """
    (phi_n, phi_d), (b_n, b_d), (dz_n, dz_d) = _exact_phase_terms(params, s, t)
    phi_num, b_num, phi_den = phi_n * b_d, b_n * phi_d, phi_d * b_d
    out = []
    for zn, zd in map(float.as_integer_ratio, z):
        num, den = zn * dz_d - dz_n * zd, zd * dz_d
        out.append(((num, den), (phi_num * den + b_num * num, phi_den * den)))
    return out


def propagate_via_kernel(params: ExperimentParams, branch: int, z_grid,
                         t: float, spec: QuadratureSpec | None = None,
                         full_output: bool = False):
    """Evolve the initial packet by convolving it with the branch propagator.

    With ``a = m/(2 hbar t)``, ``b = s f t/(2 hbar)``, ``dz = f t^2/(2 m)`` and
    ``c = 1/(4 sigma0^2)``, the propagator phase ``a (z - z')^2 + b (z + z')
    - f^2 t^3/(24 m hbar)`` is stationary at ``z' = z* = z - s dz``; about it,
    at ``z' = z* + u``, it is exactly ``a u^2 + Phi(z)`` with
    ``Phi = a dz^2 + s b dz - f^2 t^3/(24 m hbar) + 2 b z*``. So

        psi(z) = mod exp(i (Phi - pi/4)) int exp(i a u^2 - c (z* + u)^2) du,

    ``mod = sqrt(a/pi) (2 pi sigma0^2)^(-1/4)``, and the integrand is entire.

    The path. ``u = e^{i theta} v`` with ``tan 2 theta = 4 a sigma0^2 = a/c``,
    ``0 < theta < pi/4``. On an arc ``|u| = r, 0 <= arg u <= theta`` the real
    part of the exponent is at most ``-r^2 min_phi (a sin 2 phi + c cos 2 phi)
    + 2 c |z*| r``, and the minimum is positive, so the arcs vanish as r
    grows and, by Cauchy, the path integral equals the real-line one. On the
    path ``a cos 2 theta = c sin 2 theta`` cancels the chirp exactly; the
    exponent is ``-q v^2 - 2 c z* e^{i theta} v - c z*^2`` with
    ``q = a sin 2 theta + c cos 2 theta = sqrt(a^2 + c^2)``: a Gaussian of
    width ``s_v = (2 q)^(-1/2)`` about ``v0 = -c z* cos(theta)/q`` times the
    linear phase of wavenumber ``2 c |z*| sin theta``, whatever t. As
    ``tan theta <= 2 a/c``, its peak ``exp(q v0^2 - c z*^2)`` is at most 1.
    Uniform panels cover ``v0 +- W s_v``, ``W = _WINDOW_SIGMAS``; the
    Gaussian tails beyond carry ``exp(-W^2/2) sqrt(2/pi)/W`` of the path
    mass ``int |g| = mod sqrt(pi/q) exp(q v0^2 - c z*^2)``.

    The phase. ``Phi`` reaches 1e10 rad and far more, so it is formed
    exactly, as a ratio of integers built from the double inputs
    (``_exact_phase_terms``), and ``z*`` with it (then rounded once);
    ``exp(i Phi)`` comes from ``_exp_i``. A ``z*`` past the largest double
    raises ``ValueError`` naming its z before anything else is formed.

    The grid. Every point shares ``theta``, ``s_v`` and the window width,
    so one template, ``_uniform_edges`` on ``[-W s_v, W s_v]`` at the
    largest wavenumber among the points that need sampling, serves them
    all: each point integrates over ``v0 + e_j``, the template's edges
    shifted by its own ``v0``, in one ``_integrate`` pass, and its ``z*``
    and constant phase factor reach the integrand with its panels' rows,
    chunk by chunk.

    The rounding bound ``R = K eps (P + Q + 1) int |g|``, ``P = c z*^2``,
    ``Q = W^2/2``. On the window ``a |v|^2 <= 2 (P + Q)``,
    ``c (|z*| + |v|)^2 <= 6 P + 4 Q`` and ``|v| |g'/g| <= 4 (P + Q)``. In
    units of eps/2, a node's value carries:

    - the exponent: ``a``, ``c`` and ``z*`` enter with 2, 2 and 1
      roundings, ``e^{i theta} v``, the scalings and the sum with 1 per
      component, the two complex squares with 2.25 each: ``8.25 a |v|^2 +
      12.25 c (|z*| + |v|)^2``, at most ``eps (45 P + 33 Q)``;
      ``e^{i theta}``'s own rounding moves the path, not the integral;
    - the node's place, times ``|g'/g|``. A point's edges are
      ``v0 + e_j``, each rounded once, and neighbouring panels share
      theirs bit for bit, so the panels tile the window exactly and the
      edges' own roundings move only its two ends, by half an ulp, where
      ``|g|`` has fallen to ``exp(-W^2/2)`` of its peak. The rule then
      places node ``c + h x`` on a panel ``[e0, e1]`` with
      ``c = (e0 + e1)/2`` (1 rounding), ``h x`` (1) and the sum (1), and
      the rounding of ``h = (e1 - e0)/2`` moves the panel's ends by
      ``|x|`` times it (1): each at most ``|v|`` over the window,
      ``4 |v| |g'/g|``, at most ``eps (8 P + 8 Q)``;
    - the complex exp (4), ``mod`` (6), ``e^{-i pi/4}`` (3), the panel's
      half-width (1), the three products into the integrand (7), the
      dropped rest of ``Phi`` (2) and 4 for each of the n <= 21 factors of
      ``exp(i Phi)``: ``23 + 4 n``, at most ``54 eps``.

    Weighted by the rule, that is ``eps (53 P + 41 Q + 54) int |g|``, under
    ``R`` with ``K = 64`` term by term; the rule's own sums lie under
    QUADPACK's floor ``50 eps int |g|`` (see ``_gk_panels``). So does the
    in-order sum of a point's n panels, ``(n - 1) eps/2 int |g|``, for the
    48 or 49 most grids take. Every point takes the count of the grid's
    largest wavenumber k; a point's peak is at most
    ``exp(-1.5 (k s_v)^2)``, so a point that is sampled has
    ``k s_v < 23``, and the template at most ~240 panels, whose sum's
    ``120 eps int |g|`` lies within the slack of ``R``, at least
    ``(64 - 41) Q eps int |g|``. ``R``, the tails and a floor for values
    that underflow join the reported error, and when ``R`` alone reaches
    abs_tol at any point the call raises before any layout.
    A point where the path mass, ``R`` and the tails together are at most
    abs_tol/8 is 0 with that bound, unsampled (``|psi| <= int |g|``); a
    ``P`` that overflows raises ``ValueError``.

    The result equals the closed-form evolved packet up to one global
    (z-independent) phase per time; that is what the validation checks
    assert. Returns a list of ``KernelSample`` (with ``full_output=True``,
    ``(samples, error_bounds)``).
    """
    spec = spec or QuadratureSpec()
    s = verify_branch(branch)
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("kernel propagation requires t > 0")
    z_grid = np.atleast_1d(np.asarray(z_grid, dtype=float))
    if not np.all(np.isfinite(z_grid)):
        raise ValueError("kernel propagation requires finite z")

    exact = _exact_phase(params, s, t, z_grid.tolist())
    zstar = np.empty(z_grid.size)
    for i, ((num, den), _) in enumerate(exact):
        try:
            zstar[i] = num / den
        except OverflowError:
            raise ValueError(f"kernel propagation: z* = z - s dz overflows at "
                             f"z={z_grid[i]:.6g}") from None

    sigma0 = params.sigma0
    c = 1.0 / (4.0 * sigma0 * sigma0)
    m, hbar = params.mass, params.hbar
    a = m / (2.0 * hbar * t)
    mod = math.sqrt(m / (2.0 * math.pi * hbar * t)) * (2.0 * math.pi * sigma0**2) ** -0.25

    theta = 0.5 * math.atan2(a, c)
    rot = complex(math.cos(theta), math.sin(theta))
    q = math.hypot(a, c)
    s_v = 1.0 / math.sqrt(2.0 * q)
    v0 = (-c * math.cos(theta) / q) * zstar
    with np.errstate(over="ignore"):
        p = c * zstar * zstar
    if not np.all(np.isfinite(p)):
        bad = float(z_grid[~np.isfinite(p)][0])
        raise ValueError(f"kernel propagation: c z*^2 overflows at z={bad:.6g}")
    # The path mass's exponent q v0^2 - p is -x with x = p (1 - c cos^2(theta)/q)
    # = p a^2 (2 q + c)/(2 q^2 (q + c)), in [0, p]: no inf - inf, no cancellation.
    x = p * (a * a * (2.0 * q + c) / (2.0 * q * q * (q + c)))
    mass = mod * math.sqrt(math.pi / q) * np.exp(-x)
    rounding = 64.0 * _EPS * (p + 0.5 * _WINDOW_SIGMAS**2 + 1.0) * mass  # K = 64, as derived
    if z_grid.size and rounding.max() >= spec.abs_tol:
        raise QuadratureConvergenceError(
            f"kernel convolution: tolerance {spec.abs_tol:.3e} is under the rounding "
            f"bound {rounding.max():.3e}", error_bound=float(rounding.max()))
    half = _WINDOW_SIGMAS * s_v
    # Values under the smallest normal double keep no relative precision:
    # each is off by at most (mod + 1) _TINY, over a window 2 half wide.
    tails = mass * (math.exp(-0.5 * _WINDOW_SIGMAS**2) * math.sqrt(2.0 / math.pi)
                    / _WINDOW_SIGMAS) + ((mod + 1.0) * 2.0 * half + 1.0) * _TINY
    wavenumber = (2.0 * c * math.sin(theta)) * np.abs(zstar)
    prefactor = mod * cmath.exp(-0.25j * math.pi) * rot  # rot: du = e^{i theta} dv
    # |psi| <= int |g| = mass, rounded up by exp's condition number x.
    zero_bound = mass * (1.0 + 8.0 * _EPS * (1.0 + x)) + rounding + tails

    values = np.zeros(z_grid.size, dtype=complex)
    bounds = zero_bound.copy()
    live = np.flatnonzero(zero_bound > spec.abs_tol / 8.0)
    if live.size:
        const = np.array([prefactor * _exp_i(*exact[i][1]) for i in live.tolist()])
        template = _uniform_edges(-half, half, wavenumber[live].max(), s_v)
        integrand = lambda v, zs, k: kernels.kernel_integrand(v, zs, c, a, rot, k)
        values[live], bounds[live] = _integrate(
            integrand, v0[live, None] + template, spec.abs_tol,
            extra_error=rounding[live] + tails[live],
            what=lambda j: f"kernel convolution at z={z_grid[live[j]]:.6g}",
            args=(zstar[live], const))
    samples = [KernelSample(z=z, value=v)
               for z, v in zip(z_grid.tolist(), values.tolist())]

    return (samples, bounds) if full_output else samples


def decoherence_time_bisection(params: ExperimentParams, tol_rel: float = 1e-12) -> float:
    """Root of C(t) = 1/e by a doubling ladder plus 64-section.

    C is monotone non-increasing with C(0) = 1, so the root is unique. The
    bracket comes from the ladder ``t0 2^j``, ``t0`` one hundredth of the
    smaller limiting time scale, evaluated ``_LADDER_CHUNK`` rungs per
    ``coherence`` call: it is the first rung where C <= 1/e and the rung
    before (or 0). The ladder stops at the first chunk that crosses, so no
    far rung is evaluated, and raises ``RuntimeError`` if none has crossed
    by rung ``_LADDER_RUNGS``. Each pass then evaluates C at the 63 interior
    points of 64 equal parts of the bracket in one call and keeps the part
    where C first falls to 1/e, until the bracket is at most ``tol_rel``
    times its upper end; the root is its midpoint. Six passes take a
    doubling bracket to 1e-10. Raises ``RuntimeError`` after
    ``_MAX_SECTION_PASSES`` passes, as a ``tol_rel`` under the spacing of
    doubles near the root does.
    """
    if not (tol_rel > 0.0 and math.isfinite(tol_rel)):
        raise ValueError("tol_rel must be positive and finite")
    target = 1.0 / math.e
    tau1, tau2 = regime_tau_scales(params)
    t0 = min(tau1, tau2) / 100.0
    for j in range(0, _LADDER_RUNGS, _LADDER_CHUNK):
        rungs = t0 * 2.0 ** np.arange(j, j + _LADDER_CHUNK)
        crossed = np.flatnonzero(coherence(params, rungs) <= target)
        if crossed.size:
            k = j + int(crossed[0])
            t_lo, t_hi = (t0 * 2.0 ** (k - 1) if k else 0.0), t0 * 2.0**k
            break
    else:
        raise RuntimeError("failed to bracket the coherence 1/e crossing")
    passes = 0
    while (t_hi - t_lo) > tol_rel * t_hi:
        if passes >= _MAX_SECTION_PASSES:
            raise RuntimeError(f"64-section did not reach tol_rel={tol_rel:.1e} "
                               f"in {_MAX_SECTION_PASSES} passes")
        grid = np.linspace(t_lo, t_hi, 65)
        # The bracket keeps C(t_lo) > 1/e >= C(t_hi): its new upper end is the
        # first interior point where C has fallen to 1/e, or t_hi.
        above = coherence(params, grid[1:-1]) > target
        k = 63 if above.all() else int(above.argmin())
        t_lo, t_hi = float(grid[k]), float(grid[k + 1])
        passes += 1
    return 0.5 * (t_lo + t_hi)


def packet_norm_quadrature(params: ExperimentParams, branch: int, t: float,
                           spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Quadrature of |phi_s(z, t)|^2 over the packet window; should be 1.

    Returns ``(norm, error_bound)``. The integrand is the squared modulus
    of the closed-form amplitude, so this checks its normalization without
    assuming the Gaussian density formula.
    """
    spec = spec or QuadratureSpec()
    s = verify_branch(branch)
    t = float(t)
    k = kinematics(params, t)
    center = s * k.delta_z_bar
    halfwidth = _WINDOW_SIGMAS * k.sigma_t
    edges = _uniform_edges(center - halfwidth, center + halfwidth, 0.0, k.sigma_t)
    integrand = lambda z: np.abs(packet_amplitude(params, s, z, t)) ** 2 + 0.0j
    # Rounding moves a node's offset z - s dzbar up to 7.5 eps Z from its
    # place, Z = |center| + halfwidth: linspace's endpoints, difference,
    # step, product and sum 5, the node's centre, half-width, product and
    # sum 2, the subtraction 0.5 (dzbar's own roundings move the packet and
    # its window alike). Times the rule's sum of |rho'|, ~ int |rho'| = 2
    # peak = 0.8/sigma, taken as 1/sigma for the rule's own error: 7.5 eps
    # Z/sigma, rounded up to 8.
    extra = 8.0 * _EPS * (abs(center) + halfwidth) / k.sigma_t
    value, err = _integrate(integrand, edges, spec.abs_tol, extra_error=extra,
                            what="packet norm")
    return float(value.real), err


def total_density_norm_quadrature(params: ExperimentParams, t: float,
                                  spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Quadrature of the spin-traced position density; should be 1.

    The density is ``|alpha|^2 |phi_+|^2 + |beta|^2 |phi_-|^2``, so its
    integral is the weighted sum of the two branch norms of
    ``packet_norm_quadrature``, and its bound the weighted sum of theirs
    plus the rounding of the sum. Returns ``(norm, error_bound)``, and
    raises ``QuadratureConvergenceError`` when that bound exceeds abs_tol.
    """
    spec = spec or QuadratureSpec()
    w_plus, w_minus = abs(params.alpha) ** 2, abs(params.beta) ** 2
    n_plus, e_plus = packet_norm_quadrature(params, +1, t, spec)
    n_minus, e_minus = packet_norm_quadrature(params, -1, t, spec)
    value = w_plus * n_plus + w_minus * n_minus
    # The two products and their sum round by eps/2 each, so the value is
    # within (eps + eps^2/4) S of the exact weighted sum, S = w+ |N+| + w- |N-|;
    # 2 eps S also covers the rounding of the bound's own few operations.
    err = (w_plus * e_plus + w_minus * e_minus
           + 2.0 * _EPS * (w_plus * abs(n_plus) + w_minus * abs(n_minus)))
    if err > spec.abs_tol:
        raise QuadratureConvergenceError(
            f"total density norm: tolerance {spec.abs_tol:.3e} not reached",
            estimate=complex(value), error_bound=err)
    return value, err

"""Independent numerical cross-checks for the closed-form dynamics.

Three oracles live here, none of which reuses the closed forms it is meant
to validate:

``overlap_quadrature``
    Adaptive Gauss-Kronrod integration of the pointwise product of the two
    branch wavefunctions, checking the coherence formula.

``propagate_via_kernel``
    Direct convolution of the constant-force propagator with the *initial*
    packet, checking the evolved-packet closed form from first principles.

``decoherence_time_bisection``
    Bracketing/bisection root solve of C(t) = 1/e, checking the closed-form
    decay time.

The integrands oscillate; panels are laid out so every local oscillation
is sampled at least ``_POINTS_PER_OSCILLATION`` times, and regions that
provably contribute less than the tolerance (Gaussian tails, fast-phase
tails far from the stationary point) are replaced by explicit bounds that
are added to the reported error instead of being silently dropped; one
integration-by-parts bound certifies a negligible overlap unsampled. The
only setting is the absolute tolerance of ``QuadratureSpec``; the window,
the resolution and the subdivision budget are the constants below.
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

#: Hard ceiling on the initial panel count of a single integral.
_MAX_INITIAL_PANELS = 2**21

#: Panel budget used when choosing the live window of a kernel convolution.
_KERNEL_PANEL_BUDGET = 2**19

#: Nodes evaluated per integrand call while batching panels.
_CHUNK_NODES = 393216

#: Half-width of every integration window, in packet widths. A density or
#: overlap envelope exp(-z^2/(2 sigma^2)) keeps ~4e-33 of its mass beyond it,
#: far under any layout's rounding floor; the kernel convolution integrates
#: an amplitude and adds an explicit bound for what lies beyond.
_WINDOW_SIGMAS = 12.0

#: Fewest samples per local oscillation of an integrand's phase in the
#: initial panel layout (a 15-node panel spans at most 15/20 of a period).
_POINTS_PER_OSCILLATION = 20.0

#: Most panel splits one adaptive integral may make after its initial layout.
_MAX_SUBDIVISIONS = 2**20


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


def _gk_panels(integrand, centers: np.ndarray, halfw: np.ndarray):
    """Gauss-Kronrod 15(7) values, error estimates and floors for a batch of panels.

    Returns ``(values, errors, floors)``. The floor of a panel is QUADPACK's
    rounding floor ``50 eps resabs h``, with ``resabs h`` the Kronrod
    integral of ``|f|`` over the panel; each error is at least its floor.
    Summed over panels the floors approximate ``50 eps int |f|``, which
    bisecting panels of a layout that resolves ``|f|`` leaves unchanged, so
    no refinement brings the total error under it.
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
        f = integrand((c + h * _XGK[None, :]).ravel()).reshape(-1, 15)
        resk = f @ _WGK
        resg = f @ _WG15
        fabs = np.abs(f)
        resabs = fabs @ _WGK
        resasc = np.abs(f - 0.5 * resk[:, None]) @ _WGK
        err = np.abs(resk - resg)
        mask = (resasc != 0.0) & (err != 0.0)
        scaled = np.empty_like(err)
        scaled[mask] = resasc[mask] * np.minimum(
            1.0, (200.0 * err[mask] / resasc[mask]) ** 1.5
        )
        scaled[~mask] = err[~mask]
        h1 = halfw[sl]
        floor = 50.0 * _EPS * resabs
        errs[sl] = np.maximum(scaled, floor) * h1
        floors[sl] = floor * h1
        vals[sl] = resk * h1
    return vals, errs, floors


def _adaptive(integrand, edges: np.ndarray, abs_tol: float, max_subdivisions: int,
              extra_error: float = 0.0, what: str = "integral"):
    """Adaptive Gauss-Kronrod integration over a fixed panel skeleton.

    ``extra_error`` is a bound on everything outside the panels (truncated
    tails); it is part of the reported error and of the convergence target.

    Refinement runs in passes. Each pass sorts the panels by error and
    bisects, in one batch, the fewest worst panels whose removal would
    leave at most ``abs_tol - extra_error`` on the rest: the panels that
    splitting one at a time, worst first, would reach if the children had
    no error. Every panel is still a qk15 panel with QUADPACK's error
    heuristic, and ``max_subdivisions`` (the oracles pass
    ``_MAX_SUBDIVISIONS``) caps the total number of splits: a pass splits
    at most what is left of it. Returns ``(value, error_bound, splits)``.

    The tolerance is given up on at once, right after the initial layout,
    when ``extra_error`` plus the panels' rounding floor (see
    ``_gk_panels``) already reaches ``abs_tol``: no subdivision can lower
    either. Both that and a spent budget raise
    ``QuadratureConvergenceError`` carrying the best estimate and its bound.
    """
    if edges.size > _MAX_INITIAL_PANELS + 1:
        raise QuadratureConvergenceError(
            f"{what}: initial panel count {edges.size - 1} exceeds the resolution budget")
    centers = 0.5 * (edges[1:] + edges[:-1])
    halfw = 0.5 * np.diff(edges)
    vals, errs, floors = _gk_panels(integrand, centers, halfw)
    total_err = float(errs.sum()) + extra_error

    # Only the panel part of the error above its rounding floor is
    # reducible by subdividing.
    panel_target = abs_tol - extra_error
    floor = float(floors.sum())
    if total_err > abs_tol and floor >= panel_target:
        raise QuadratureConvergenceError(
            f"{what}: tolerance {abs_tol:.3e} is under the truncation bounds "
            f"{extra_error:.3e} plus the panels' rounding floor {floor:.3e}",
            estimate=complex(vals.sum()),
            error_bound=total_err,
        )

    splits = 0
    while total_err > abs_tol:
        order = np.argsort(errs)
        n_keep = int(np.searchsorted(np.cumsum(errs[order]), panel_target, side="right"))
        # At least one: the running sum and errs.sum() may round apart.
        n_split = min(max(errs.size - n_keep, 1), max_subdivisions - splits)
        if n_split <= 0:
            raise QuadratureConvergenceError(
                f"{what}: tolerance {abs_tol:.3e} not reached after {splits} subdivisions",
                estimate=complex(vals.sum()),
                error_bound=total_err,
            )
        keep, worst = order[:-n_split], order[-n_split:]
        h_child = 0.5 * halfw[worst]
        child_c = np.concatenate([centers[worst] - h_child, centers[worst] + h_child])
        child_h = np.concatenate([h_child, h_child])
        child_v, child_e, _ = _gk_panels(integrand, child_c, child_h)
        centers = np.concatenate([centers[keep], child_c])
        halfw = np.concatenate([halfw[keep], child_h])
        vals = np.concatenate([vals[keep], child_v])
        errs = np.concatenate([errs[keep], child_e])
        splits += n_split
        total_err = float(errs.sum()) + extra_error

    return complex(vals.sum()), total_err, splits


def _uniform_edges(lo: float, hi: float, wavenumber: float,
                   envelope_scale: float) -> np.ndarray:
    """Uniform panels resolving a constant-wavenumber phase and the envelope."""
    span = hi - lo
    width = 0.5 * envelope_scale
    if wavenumber > 0.0:
        width = min(width, 15.0 * 2.0 * math.pi / (_POINTS_PER_OSCILLATION * wavenumber))
    n = max(4, int(math.ceil(span / width)))
    if n > _MAX_INITIAL_PANELS:
        raise QuadratureConvergenceError(
            f"oscillation-resolving layout needs {n} panels, over the budget")
    return np.linspace(lo, hi, n + 1)


def _chirp_edges(lo: float, hi: float, a: float,
                 envelope_scale: float) -> np.ndarray:
    """Panels for the phase a*u^2 on [lo, hi], equally spaced in phase.

    Panel phase increments of 15*pi/_POINTS_PER_OSCILLATION keep at least
    that many samples per local oscillation even at the fast edge of each
    panel; a uniform grid at half the envelope scale is merged in so slowly
    oscillating stretches still resolve the Gaussian.
    """
    dphi = 15.0 * math.pi / _POINTS_PER_OSCILLATION
    pieces = [np.array([lo, hi])]
    # Right side 0..hi and mirrored left side 0..-lo, in |u| coordinates.
    for sign, extent in ((1.0, hi), (-1.0, -lo)):
        if extent <= 0.0:
            continue
        j_max = int(math.ceil(a * extent * extent / dphi))
        if j_max > _MAX_INITIAL_PANELS:
            raise QuadratureConvergenceError(
                f"oscillation-resolving layout needs {j_max} panels, over the budget")
        js = np.arange(1, j_max + 1, dtype=float)
        u = np.sqrt(js * dphi / a)
        u = u[u < extent]
        pieces.append(sign * u)
    n_env = max(2, int(math.ceil((hi - lo) / (0.5 * envelope_scale))))
    n_env = min(n_env, 4096)
    pieces.append(np.linspace(lo, hi, n_env + 1))
    edges = np.unique(np.concatenate(pieces))
    return edges[(edges >= lo) & (edges <= hi)]


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
    # puts under the rounding floor.
    window = dzbar + _WINDOW_SIGMAS * sigma_t
    z_live = window
    tail_bound = 0.0
    for s in np.arange(1.0, _WINDOW_SIGMAS + dzbar / sigma_t, 0.25):
        cand = 2.0 * peak * sigma_t**2 / (s * sigma_t) * math.exp(-0.5 * s * s)
        if cand <= tol_tail:
            z_live = min(s * sigma_t, window)
            tail_bound = cand if z_live < window else 0.0
            break

    edges = _uniform_edges(-z_live, z_live, k_cross, sigma_t)
    amp = (2.0 * math.pi * sigma_t**2) ** -0.25
    amp2, inv4s2 = amp * amp, 1.0 / (4.0 * sigma_t**2)
    integrand = lambda z: kernels.overlap_integrand(z, amp2, inv4s2, dzbar, k_cross)
    value, err, _ = _adaptive(integrand, edges, spec.abs_tol, _MAX_SUBDIVISIONS,
                              extra_error=tail_bound, what="overlap quadrature")
    return (value, err) if full_output else value


def _kernel_tail_correction(c: float, env_c: float, denv_out: float,
                            d2env_c: float, a: float):
    """Boundary terms of the integration-by-parts series past a cut at |u| = c.

    For one side tail  T = int_c^inf g(u) exp(i a u^2) du  with outward
    envelope g (g(c) = env_c, outward slope denv_out, curvature d2env_c),
    three integrations by parts give

        T = exp(i a c^2)/(2 i a c) * [ -g(c) + L1(c) - L2(c) ] + remainder

        L1 = (g'/c - g/c^2) / (2 i a)
        L2 = -(g''/c^2 - 3 g'/c^3 + 3 g/c^4) / (4 a^2)

    Returns the bracketed correction (to add to the integral) for this side.
    """
    phase = cmath.exp(1j * a * c * c) / (2j * a * c)
    c2 = c * c
    l1 = (denv_out / c - env_c / c2) / (2j * a)
    l2 = -(d2env_c / c2 - 3.0 * denv_out / (c2 * c) + 3.0 * env_c / (c2 * c2)) / (
        4.0 * a * a
    )
    return phase * (-env_c + l1 - l2)


def _kernel_tail_remainder(c: float, zstar: float, outward: float, u_end: float,
                           a: float, sigma0: float) -> float:
    """Bound on the dropped remainder of the tail series for one side.

    The remainder after three integrations by parts is  int |L3| du  over
    |u| in [c, u_end] with

        |L3| <= (|g'''|/u^3 + 6|g''|/u^4 + 15|g'|/u^5 + 15 g/u^6) / (8 a^3)

    and the unit-peak envelope g(u) = exp(-(zstar + outward*u)^2/(4 s^2)).
    Bounded by an upper Riemann sum on a geometric grid: per cell the
    envelope and its derivative factors take their maximum and 1/u its
    value at the near end. A factor-two margin is applied.
    """
    if u_end <= c:
        return 0.0
    inv = 1.0 / (4.0 * sigma0 * sigma0)
    edges = np.geomspace(c, u_end, 33)
    x = zstar + outward * edges
    x0, x1 = x[:-1], x[1:]
    x_near = np.clip(0.0, np.minimum(x0, x1), np.maximum(x0, x1))
    env_max = np.exp(-np.minimum(x_near * x_near * inv, 1400.0))
    x_hat = np.maximum(np.abs(x0), np.abs(x1))
    d1 = 2.0 * x_hat * inv                                  # |g'|/g
    d2 = 4.0 * x_hat * x_hat * inv * inv + 2.0 * inv        # |g''|/g
    d3 = 8.0 * x_hat**3 * inv**3 + 12.0 * x_hat * inv * inv  # |g'''|/g
    u0 = edges[:-1]
    u2 = u0 * u0
    u3 = u2 * u0
    term = d3 / u3 + 6.0 * d2 / (u3 * u0) + 15.0 * d1 / (u3 * u2) + 15.0 / (u3 * u3)
    return 2.0 * float(np.sum(env_max * term * np.diff(edges))) / (8.0 * a * a * a)


def _interior_cuts(lo: float, hi: float, lo_full: float, hi_full: float):
    """The live window's cuts that fall inside the full window, one per side.

    Yields ``(sign, cut, end)``: the outward direction in u, and the
    distances |u| from the stationary point to the cut and to the window
    edge on that side.
    """
    for sign, cut, end in ((1.0, hi, hi_full), (-1.0, -lo, -lo_full)):
        if 0.0 < cut < end:
            yield sign, cut, end


def propagate_via_kernel(params: ExperimentParams, branch: int, z_grid,
                         t: float, spec: QuadratureSpec | None = None,
                         full_output: bool = False):
    """Evolve the initial packet by convolving it with the branch propagator.

    For each output position the convolution integral is taken over the
    initial-packet window ``|z'| <= W sigma0`` with ``W = _WINDOW_SIGMAS``.
    In the offset ``u`` from the phase's stationary point the integrand is
    exactly
    ``const * exp(-(z* + u)^2/(4 sigma0^2)) * exp(i a u^2)``; panels near
    the stationary point are integrated by oscillation-resolving
    quadrature while the fast outer stretches are summed analytically by
    an integration-by-parts series whose remainder bound joins the
    reported error.

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

    sigma0 = params.sigma0
    inv4s02 = 1.0 / (4.0 * sigma0 * sigma0)
    hbar = params.hbar
    m = params.mass
    f = params.force
    a = m / (2.0 * hbar * t)
    b_lin = s * f * t / (2.0 * hbar)
    delta_z = f * t * t / (2.0 * m)
    mod = math.sqrt(m / (2.0 * math.pi * hbar * t)) * (2.0 * math.pi * sigma0**2) ** -0.25
    cubic = (f * t / hbar) * (f * t * t) / (24.0 * m)

    w_edge = _WINDOW_SIGMAS * sigma0
    # Initial packet mass beyond the window, plain absolute bound.
    beyond_window = mod * (4.0 * sigma0 / _WINDOW_SIGMAS) * math.exp(
        -0.25 * _WINDOW_SIGMAS**2
    )
    tol_tails = spec.abs_tol / 4.0
    if z_grid.size and beyond_window >= spec.abs_tol:
        raise QuadratureConvergenceError(
            f"kernel convolution: tolerance {spec.abs_tol:.3e} is under the bound "
            f"{beyond_window:.3e} on the initial packet beyond the window")

    samples: list[KernelSample] = []
    bounds = np.empty(z_grid.size)
    for i, z in enumerate(z_grid):
        zstar = z - s * delta_z
        # Kernel phase a(z-z')^2 + b(z+z') rewritten about its stationary
        # point z' = zstar: the z'-dependence reduces to a u^2, the rest is
        # this constant.
        phi0 = a * (z - zstar) ** 2 + b_lin * (zstar + z)
        const = mod * cmath.exp(1j * (phi0 - cubic - 0.25 * math.pi))

        lo_full, hi_full = -w_edge - zstar, w_edge - zstar

        # Grow the live radius until the tail-series remainder is small
        # enough or the panel budget is exhausted.
        dphi = 15.0 * math.pi / _POINTS_PER_OSCILLATION
        radius = 8.0 * math.sqrt(math.pi / a)
        best = None
        for _ in range(200):
            lo = max(lo_full, -radius)
            hi = min(hi_full, radius)
            if lo < hi:
                rem = 0.0
                for sign, cut, end in _interior_cuts(lo, hi, lo_full, hi_full):
                    rem += mod * _kernel_tail_remainder(cut, zstar, sign, end, a, sigma0)
                n_panels = a * (hi * hi + lo * lo) / dphi + (hi - lo) / (0.5 * sigma0)
                if n_panels > _KERNEL_PANEL_BUDGET and best is not None:
                    break
                best = (lo, hi, rem)
                if rem <= tol_tails:
                    break
            radius *= 1.35
            if radius > (hi_full - lo_full) + abs(zstar) + w_edge:
                if best is None:
                    best = (lo_full, hi_full, 0.0)
                break
        lo, hi, rem = best

        # Explicit boundary corrections at interior cuts.
        corr = 0.0 + 0.0j
        for sign, cut, _ in _interior_cuts(lo, hi, lo_full, hi_full):
            x_c = zstar + sign * cut
            env_c = math.exp(-x_c * x_c * inv4s02)
            denv = -2.0 * sign * x_c * inv4s02 * env_c  # outward derivative
            d2env = (4.0 * x_c * x_c * inv4s02 * inv4s02 - 2.0 * inv4s02) * env_c
            corr += const * _kernel_tail_correction(cut, env_c, denv, d2env, a)

        extra = rem + beyond_window
        edges = _chirp_edges(lo, hi, a, sigma0)
        integrand = lambda u: kernels.kernel_integrand(u, zstar, inv4s02, a, const)
        value, err, _ = _adaptive(
            integrand, edges, spec.abs_tol, _MAX_SUBDIVISIONS,
            extra_error=extra, what=f"kernel convolution at z={z:.6g}",
        )
        samples.append(KernelSample(z=float(z), value=value + corr))
        bounds[i] = err

    return (samples, bounds) if full_output else samples


def decoherence_time_bisection(params: ExperimentParams, tol_rel: float = 1e-12,
                               full_output: bool = False):
    """Root of C(t) = 1/e by doubling bracket search plus bisection.

    C is monotone non-increasing with C(0) = 1, so the root is unique; the
    bracket starts at one hundredth of the smaller limiting time scale and
    doubles until the coherence drops below 1/e, then bisects until the
    bracket is narrower than ``tol_rel`` relative to the root. Raises
    ``RuntimeError`` when bracketing and bisection together take more than
    200 iterations, as a ``tol_rel`` near machine precision does.
    """
    if not (tol_rel > 0.0 and math.isfinite(tol_rel)):
        raise ValueError("tol_rel must be positive and finite")
    target = 1.0 / math.e
    tau1, tau2 = regime_tau_scales(params)
    t_hi = min(tau1, tau2) / 100.0
    t_lo = 0.0
    iterations = 0
    while float(coherence(params, t_hi)) > target:
        t_lo = t_hi
        t_hi *= 2.0
        iterations += 1
        if iterations > 200:
            raise RuntimeError("failed to bracket the coherence 1/e crossing")
    while (t_hi - t_lo) > tol_rel * t_hi:
        if iterations >= 200:
            raise RuntimeError(
                f"bisection did not reach tol_rel={tol_rel:.1e} in 200 iterations"
            )
        mid = 0.5 * (t_lo + t_hi)
        if float(coherence(params, mid)) > target:
            t_lo = mid
        else:
            t_hi = mid
        iterations += 1
    root = 0.5 * (t_lo + t_hi)
    return (root, iterations) if full_output else root


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
    value, err, _ = _adaptive(integrand, edges, spec.abs_tol, _MAX_SUBDIVISIONS,
                              what="packet norm")
    return float(value.real), err


def total_density_norm_quadrature(params: ExperimentParams, t: float,
                                  spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Quadrature of the spin-traced position density; should be 1."""
    spec = spec or QuadratureSpec()
    t = float(t)
    k = kinematics(params, t)
    halfwidth = k.delta_z_bar + _WINDOW_SIGMAS * k.sigma_t
    edges = _uniform_edges(-halfwidth, halfwidth, 0.0, k.sigma_t)
    w_plus = abs(params.alpha) ** 2
    w_minus = abs(params.beta) ** 2

    def integrand(z):
        d_plus = np.abs(packet_amplitude(params, +1, z, t)) ** 2
        d_minus = np.abs(packet_amplitude(params, -1, z, t)) ** 2
        return w_plus * d_plus + w_minus * d_minus + 0.0j

    value, err, _ = _adaptive(integrand, edges, spec.abs_tol, _MAX_SUBDIVISIONS,
                              what="total density norm")
    return float(value.real), err

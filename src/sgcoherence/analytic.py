"""Closed-form dynamics of the entangling beam splitter.

Everything here follows from the branch Hamiltonians
``H_s = p^2/2m - s f z`` (s = +1 or -1) acting on an initial Gaussian
packet of width ``sigma0``:

* classical kinematics ``dp(t) = f t``, ``dz(t) = f t^2 / 2m``,
  ``dzbar(t) = t dp/m - dz`` and the spreading width
  ``sigma(t) = sqrt(sigma0^2 + (hbar t / 2 m sigma0)^2)``;
* the evolved branch packets, Gaussians of width sigma(t) riding the
  classical trajectories ``+-dzbar(t)``;
* the normalized branch overlap C(t) (spin coherence), its exact 1/e
  decay time, the limiting time scales of the momentum-separation and
  packet-spreading regimes, and the packet-separation measures;
* the reduced spin density matrix and the linear-entropy entanglement
  measures built from C(t).

All functions are pure; position and time arguments broadcast like NumPy
ufuncs unless stated otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import ExperimentParams, verify_branch

__all__ = [
    "KinematicState",
    "SpinDensityMatrix",
    "Regime",
    "CoherenceReport",
    "kinematics",
    "packet_width",
    "packet_amplitude",
    "packet_density",
    "total_position_density",
    "coherence",
    "coherence_exponents",
    "spin_density_matrix",
    "linear_entropy",
    "decoherence_time",
    "regime_tau_scales",
    "regime_report",
    "separation_position_ratio",
    "separation_position_approx",
    "separation_momentum_ratio",
]

#: chi above this is classified as momentum dominated, below 1/this as
#: spreading dominated. Keeps the limiting tau formulas accurate to ~0.03%.
REGIME_CHI_THRESHOLD = 1e3


class Regime(Enum):
    """Which term of the coherence exponent dominates the 1/e decay."""

    MOMENTUM_DOMINATED = "MomentumDominated"
    SPREADING_DOMINATED = "SpreadingDominated"
    INTERMEDIATE = "Intermediate"


@dataclass(frozen=True)
class KinematicState:
    """Classical branch kinematics at a single time (SI units)."""

    t: float
    delta_p: float
    delta_z: float
    delta_z_bar: float
    sigma_t: float


@dataclass(frozen=True)
class SpinDensityMatrix:
    """Reduced 2x2 spin density operator after tracing out position.

    ``rho_mp`` is not stored: the operator is Hermitian, so it is the
    conjugate of ``rho_pm``.
    """

    rho_pp: float
    rho_mm: float
    rho_pm: complex

    @property
    def rho_mp(self) -> complex:
        return self.rho_pm.conjugate()

    @property
    def trace(self) -> float:
        return self.rho_pp + self.rho_mm

    @property
    def purity(self) -> float:
        """Tr(rho^2)."""
        return self.rho_pp**2 + self.rho_mm**2 + 2.0 * abs(self.rho_pm) ** 2

    def determinant(self) -> float:
        return self.rho_pp * self.rho_mm - abs(self.rho_pm) ** 2

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [[self.rho_pp, self.rho_pm], [self.rho_mp, self.rho_mm]],
            dtype=complex,
        )


@dataclass(frozen=True)
class CoherenceReport:
    """Decoherence time, regime classification and separation measures."""

    chi: float
    regime: Regime
    tau: float
    tau1: float
    tau2: float
    sep_position_at_tau: float
    sep_momentum_at_tau: float


def _check_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or not np.all(np.isfinite(t)):
        raise ValueError("time must be finite and >= 0")
    return t


def packet_width(params: ExperimentParams, t) -> np.ndarray | float:
    """Spreading width sigma(t) = sqrt(sigma0^2 + (hbar t / 2 m sigma0)^2)."""
    t = _check_time(t)
    spread = params.hbar / (2.0 * params.mass * params.sigma0) * t
    return np.hypot(params.sigma0, spread)[()]


def kinematics(params: ExperimentParams, t: float) -> KinematicState:
    """Classical kinematic quantities of the upper branch at time ``t``.

    ``delta_z_bar`` is defined as ``t*delta_p/m - delta_z``, which equals
    ``delta_z = f t^2 / 2m`` exactly; it is stored as ``delta_z``.
    """
    t = float(_check_time(t))
    f = params.force
    delta_z = f * t * t / (2.0 * params.mass)
    return KinematicState(
        t=t,
        delta_p=f * t,
        delta_z=delta_z,
        delta_z_bar=delta_z,
        sigma_t=float(packet_width(params, t)),
    )


def packet_amplitude(params: ExperimentParams, branch: int, z, t: float):
    """Evolved branch wavefunction phi_s(z, t), units m^(-1/2).

    For t > 0, with ``d = z - s dzbar`` the offset from the packet centre::

        phi_s = (2 pi sigma(t)^2)^(-1/4)
                * exp(-d^2 / (4 sigma(t)^2))
                * exp(i [ f^2 t^3 / (3 m hbar) + s (f t / hbar) d
                          + (m / 2 hbar t) (spread / sigma(t))^2 d^2 ])

    with ``spread = hbar t / (2 m sigma0)``. This is the phase
    ``a z^2 + 2 a s dz z - f^2 t^3/(24 m hbar) - a (sigma0/sigma(t))^2 d^2``
    (``a = m / (2 hbar t)``) expanded about the centre, where its terms of
    up to ~1e13 rad no longer cancel. The z-independent part multiplies
    separately, so its rounding stays a global phase. The global
    time-dependent phase of the exact propagated state is omitted (it
    cancels in every observable produced here). t = 0 returns the initial
    packet, avoiding the 1/t phase factors.
    """
    s = verify_branch(branch)
    t = float(_check_time(t))
    z = np.asarray(z, dtype=float)
    sigma0 = params.sigma0
    if t == 0.0:
        amp = (2.0 * math.pi * sigma0**2) ** -0.25
        return (amp * np.exp(-(z * z) / (4.0 * sigma0**2)) + 0.0j)[()]

    k = kinematics(params, t)
    sigma_t = k.sigma_t
    ft_hbar = params.force * t / params.hbar
    spread = params.hbar / (2.0 * params.mass * sigma0) * t
    curvature = spread / (4.0 * sigma0 * sigma_t * sigma_t)  # (m/2 hbar t)(spread/sigma_t)^2
    centre_phase = ft_hbar * (params.force * t * t) / (3.0 * params.mass)

    d = z - s * k.delta_z_bar
    amp = (2.0 * math.pi * sigma_t**2) ** -0.25 * cmath.exp(1j * centre_phase)
    envelope = np.exp(-(d * d) / (4.0 * sigma_t**2))
    phase = s * ft_hbar * d + curvature * d * d
    return (amp * envelope * np.exp(1j * phase))[()]


def packet_density(params: ExperimentParams, branch: int, z, t: float):
    """Branch position density: a Gaussian of mean s*dzbar(t), std sigma(t).

    Computed from the Gaussian law directly rather than as
    |packet_amplitude|^2, so the two routes check each other.
    """
    s = verify_branch(branch)
    t = float(_check_time(t))
    z = np.asarray(z, dtype=float)
    k = kinematics(params, t)
    dz_rel = z - s * k.delta_z_bar
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * k.sigma_t)
    return (norm * np.exp(-(dz_rel * dz_rel) / (2.0 * k.sigma_t**2)))[()]


def total_position_density(params: ExperimentParams, z, t: float):
    """Position density of the beam after tracing out spin.

    The spin states attached to the two branches stay orthogonal, so the
    reduced position operator is diagonal and no interference cross-term
    survives: the density is the weighted sum of the branch densities.
    """
    w_plus = abs(params.alpha) ** 2
    w_minus = abs(params.beta) ** 2
    return (
        w_plus * packet_density(params, +1, z, t)
        + w_minus * packet_density(params, -1, z, t)
    )


def coherence_exponents(params: ExperimentParams, t):
    """The two decay exponents of the branch overlap, as (momentum, position).

    C(t) = exp(-term_momentum - term_position) with

        term_momentum = (1/2) [ (1/2) (dp / (hbar/2 sigma0))
                                (sigma0/sigma(t) + sigma(t)/sigma0) ]^2
        term_position = (1/2) (dzbar(t) / sigma(t))^2

    The first measures the branch separation in momentum space in units of
    the momentum spread, the second the separation in position in units of
    the spatial spread.
    """
    t = _check_time(t)
    f = params.force
    sigma0 = params.sigma0
    sigma_t = np.asarray(packet_width(params, t))
    # (1/2) dp/(hbar/2 sigma0) = f sigma0 t / hbar, grouped dimensionless
    half_dp_ratio = (f * sigma0 / params.hbar) * t
    width_ratio = sigma0 / sigma_t
    # Squared by multiplication: NumPy's ``**2`` multiplies on arrays but
    # calls libm pow on the scalar a float ``t`` becomes, which rounds
    # differently, so a scalar call would disagree with the array element.
    momentum_ratio = half_dp_ratio * (width_ratio + 1.0 / width_ratio)
    term_momentum = 0.5 * (momentum_ratio * momentum_ratio)
    dzbar = f * t * t / (2.0 * params.mass)
    position_ratio = dzbar / sigma_t
    term_position = 0.5 * (position_ratio * position_ratio)
    return term_momentum[()], term_position[()]


def coherence(params: ExperimentParams, t):
    """Normalized branch overlap C(t) = |<phi_-|phi_+>| / 1, in (0, 1].

    Monotone non-increasing, C(0) = 1. Underflows to 0.0 once the exponent
    exceeds ~745 (double-precision floor).
    """
    term_momentum, term_position = coherence_exponents(params, t)
    return np.exp(-(term_momentum + term_position))[()]


def spin_density_matrix(params: ExperimentParams, t: float) -> SpinDensityMatrix:
    """Reduced spin density matrix at time t.

    Diagonal entries are the fixed spin populations |alpha|^2, |beta|^2;
    the off-diagonal element is alpha conj(beta) C(t) with the real,
    positive overlap C(t).
    """
    c = float(coherence(params, t))
    return SpinDensityMatrix(
        rho_pp=abs(params.alpha) ** 2,
        rho_mm=abs(params.beta) ** 2,
        rho_pm=params.alpha * params.beta.conjugate() * c,
    )


def linear_entropy(params: ExperimentParams, t, convention: str = "paper"):
    """Linear-entropy entanglement of the spin-position state.

    convention="paper"
        1 - C(t)^2, the normalized measure that reaches 1 at full
        decoherence (and ignores the spin weights).
    convention="purity"
        1 - Tr(rho_spin^2) = 1 - (|alpha|^4 + |beta|^4 + 2 |alpha beta* C(t)|^2),
        the textbook subsystem purity deficit of ``spin_density_matrix``,
        broadcast over ``t``; tops out at 1/2 for a qubit. Equals half the
        paper value when alpha = beta = 1/sqrt(2).
    """
    if convention == "paper":
        c = coherence(params, t)
        return 1.0 - c * c
    if convention == "purity":
        rho_pp = abs(params.alpha) ** 2
        rho_mm = abs(params.beta) ** 2
        rho_pm = params.alpha * params.beta.conjugate() * coherence(params, t)
        # hypot and float_power call libm hypot and pow, as the complex
        # ``abs`` and float ``**`` of SpinDensityMatrix.purity do, so both
        # routes round alike; NumPy's complex ``abs`` and ``**2`` round
        # differently in the last bit.
        cross = np.float_power(np.hypot(rho_pm.real, rho_pm.imag), 2.0)
        purity = rho_pp**2 + rho_mm**2 + 2.0 * cross
        return (1.0 - purity)[()]
    raise ValueError(f"unknown linear-entropy convention {convention!r}")


def _chi(params: ExperimentParams) -> float:
    """Regime parameter chi = 8 f^2 m^2 sigma0^6 / hbar^4, grouped stably."""
    g = (params.force / params.hbar) * (params.mass / params.hbar) * params.sigma0**3
    return 8.0 * g * g


def regime_tau_scales(params: ExperimentParams) -> tuple[float, float]:
    """Limiting decay times (tau1, tau2).

    tau1 = hbar / (sqrt(2) f sigma0) is exact when momentum separation
    alone drives the decay (chi >> 1); tau2 = sqrt(2 sqrt(2) m sigma0 / f)
    when packet spreading matters (chi << 1).
    """
    f = params.force
    tau1 = params.hbar / (math.sqrt(2.0) * f * params.sigma0)
    tau2 = math.sqrt(2.0 * math.sqrt(2.0) * params.mass * params.sigma0 / f)
    return tau1, tau2


def decoherence_time(params: ExperimentParams) -> float:
    """Exact time at which the branch overlap C(t) has fallen to 1/e.

    Closed form: with chi = 8 f^2 m^2 sigma0^6 / hbar^4,

        tau = sqrt(2 sqrt(2) m sigma0 / f)
              * [ sqrt(1 + chi) - sqrt(chi) ]^(1/2)

    evaluated in the cancellation-free form
    tau2 / sqrt(sqrt(1 + chi) + sqrt(chi)).
    """
    chi = _chi(params)
    _, tau2 = regime_tau_scales(params)
    return tau2 / math.sqrt(math.sqrt(1.0 + chi) + math.sqrt(chi))


def separation_position_ratio(params: ExperimentParams, t):
    """Packet-center separation in units of the spread: dzbar(t) / sigma(t)."""
    t = _check_time(t)
    dzbar = params.force * t * t / (2.0 * params.mass)
    return (dzbar / np.asarray(packet_width(params, t)))[()]


def separation_position_approx(params: ExperimentParams, t, regime: str):
    """Asymptotic forms of the position-separation ratio.

    regime="short" (sigma(t) ~ sigma0):  f t^2 / (2 m sigma0), quadratic.
    regime="long"  (sigma(t) >> sigma0): f sigma0 t / hbar, linear.
    """
    t = _check_time(t)
    if regime == "short":
        return (params.force * t * t / (2.0 * params.mass * params.sigma0))[()]
    if regime == "long":
        return (params.force * params.sigma0 / params.hbar * t)[()]
    raise ValueError(f"unknown separation regime {regime!r}")


def separation_momentum_ratio(params: ExperimentParams, t):
    """Branch separation in momentum space: dp(t) / (hbar / 2 sigma0).

    Exactly 2 f sigma0 t / hbar, linear in t for all times.
    """
    t = _check_time(t)
    return (2.0 * params.force * params.sigma0 / params.hbar * t)[()]


def regime_report(params: ExperimentParams) -> CoherenceReport:
    """Classify the decoherence regime and collect the decay-time summary."""
    chi = _chi(params)
    tau1, tau2 = regime_tau_scales(params)
    tau = decoherence_time(params)
    if chi > REGIME_CHI_THRESHOLD:
        regime = Regime.MOMENTUM_DOMINATED
    elif chi < 1.0 / REGIME_CHI_THRESHOLD:
        regime = Regime.SPREADING_DOMINATED
    else:
        regime = Regime.INTERMEDIATE
    return CoherenceReport(
        chi=chi,
        regime=regime,
        tau=tau,
        tau1=tau1,
        tau2=tau2,
        sep_position_at_tau=float(separation_position_ratio(params, tau)),
        sep_momentum_at_tau=float(separation_momentum_ratio(params, tau)),
    )

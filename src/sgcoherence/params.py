"""Experiment parameters for a one-dimensional Stern-Gerlach beam model.

A spin-1/2 particle in the initial product state
``(alpha |+> + beta |->) (x) |phi>`` crosses a field gradient that exerts
the force ``+f`` on the spin-up spatial branch and ``-f`` on the spin-down
one, with ``f = magnetic_moment * field_gradient``. The initial spatial
packet is a minimum-uncertainty Gaussian of width ``sigma0`` centered at
the origin.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

from .constants import BOHR_MAGNETON, HBAR

#: Tolerance on |alpha|^2 + |beta|^2 - 1 accepted in strict mode.
NORM_TOL = 1e-12

_INV_SQRT2 = math.sqrt(0.5)  # correctly rounded 1/sqrt(2)


@dataclass(frozen=True)
class ExperimentParams:
    """Immutable physical inputs of the beam experiment (SI units).

    Parameters
    ----------
    mass : float
        Particle mass, kg.
    field_gradient : float
        Field gradient dB/dz along the beam-splitting axis, T/m.
    sigma0 : float
        Initial Gaussian packet width, m.
    magnetic_moment : float
        Magnetic moment mu, J/T. Defaults to the Bohr magneton.
    alpha, beta : complex
        Spin-up / spin-down amplitudes. Normalized on construction unless
        ``strict=True``, in which case an unnormalized pair is rejected.
    hbar : float
        Reduced Planck constant. Fixed; exposed as a field so formulas can
        read it off the record.
    """

    mass: float
    field_gradient: float
    sigma0: float
    magnetic_moment: float = BOHR_MAGNETON
    alpha: complex = complex(_INV_SQRT2, 0.0)
    beta: complex = complex(_INV_SQRT2, 0.0)
    hbar: float = HBAR
    strict: InitVar[bool] = False

    def __post_init__(self, strict: bool) -> None:
        for name in ("mass", "magnetic_moment", "field_gradient", "sigma0", "hbar"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite real, got {value!r}")
        alpha = complex(self.alpha)
        beta = complex(self.beta)
        norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
        if not math.isfinite(norm_sq) or norm_sq == 0.0:
            raise ValueError("spin amplitudes must have a finite nonzero norm")
        if strict:
            if abs(norm_sq - 1.0) > NORM_TOL:
                raise ValueError(
                    f"|alpha|^2 + |beta|^2 = {norm_sq!r} is not 1 within {NORM_TOL}"
                )
        elif abs(norm_sq - 1.0) > 1e-15:
            scale = 1.0 / math.sqrt(norm_sq)
            alpha *= scale
            beta *= scale
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def force(self) -> float:
        """Magnitude of the branch force f = mu * dB/dz, N."""
        return self.magnetic_moment * self.field_gradient

    @property
    def spreading_time(self) -> float:
        """Free-spreading time scale 2 m sigma0^2 / hbar, s."""
        return 2.0 * self.mass * self.sigma0**2 / self.hbar

    def with_amplitudes(self, alpha: complex, beta: complex) -> "ExperimentParams":
        """Copy of the parameter record with new (normalized) spin amplitudes."""
        return ExperimentParams(
            mass=self.mass,
            field_gradient=self.field_gradient,
            sigma0=self.sigma0,
            magnetic_moment=self.magnetic_moment,
            alpha=alpha,
            beta=beta,
            hbar=self.hbar,
        )


def verify_branch(branch: int) -> int:
    """Validate a spin-branch label, returning it as +1 or -1."""
    s = int(branch)
    if s not in (1, -1) or s != branch:
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    return s

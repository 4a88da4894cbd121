"""Reference scenario and sampled curves ready for CSV emission.

``typical_params`` is the standard beam configuration (a copper-mass atom
carrying one Bohr magneton through a kilotesla-per-meter gradient with a
10 um packet); the series/profile builders sample the closed forms over
grids and package them with their structural invariants checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .params import ExperimentParams

__all__ = [
    "TimeSeries",
    "Profile",
    "typical_params",
    "coherence_series",
    "density_profile",
    "default_profile_window",
]

#: Grid points used by the CLI profile command when not overridden.
DEFAULT_PROFILE_POINTS = 1001

#: Samples used by the CLI series command when not overridden.
DEFAULT_SERIES_POINTS = 201


@dataclass(frozen=True)
class TimeSeries:
    """Sampled coherence/entanglement history plus separation measures."""

    times: np.ndarray
    coherence: np.ndarray
    entropy_paper: np.ndarray
    entropy_purity: np.ndarray
    sep_position: np.ndarray
    sep_momentum: np.ndarray

    def __post_init__(self) -> None:
        n = self.times.size
        for name in ("coherence", "entropy_paper", "entropy_purity",
                     "sep_position", "sep_momentum"):
            if getattr(self, name).size != n:
                raise ValueError(f"column {name} length mismatch")
        if n >= 2 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if np.any(np.diff(self.coherence) > 1e-15):
            raise ValueError("coherence must be non-increasing")


@dataclass(frozen=True)
class Profile:
    """Branch and total position densities sampled on a z grid."""

    t: float
    z: np.ndarray
    density_plus: np.ndarray
    density_minus: np.ndarray
    density_total: np.ndarray

    def __post_init__(self) -> None:
        n = self.z.size
        for name in ("density_plus", "density_minus", "density_total"):
            col = getattr(self, name)
            if col.size != n:
                raise ValueError(f"column {name} length mismatch")
            if np.any(col < 0.0):
                raise ValueError(f"column {name} must be non-negative")


def typical_params() -> ExperimentParams:
    """Beam parameters of the standard experiment.

    Copper atom mass 1.8e-25 kg, field gradient 1e3 T/m, initial width
    1e-5 m, one Bohr magneton, equal spin amplitudes.
    """
    return ExperimentParams(
        mass=1.8e-25,
        field_gradient=1e3,
        sigma0=1e-5,
    )


def _time_grid(t_min: float, t_max: float, n: int, spacing: str) -> np.ndarray:
    if not (n >= 2):
        raise ValueError("need at least two samples")
    if not (0.0 <= t_min < t_max < math.inf):
        raise ValueError("need 0 <= t_min < t_max, both finite")
    if spacing == "linear":
        return np.linspace(t_min, t_max, n)
    if spacing == "log":
        if t_min <= 0.0:
            raise ValueError("log spacing requires t_min > 0")
        return np.geomspace(t_min, t_max, n)
    raise ValueError(f"unknown spacing {spacing!r}")


def coherence_series(params: ExperimentParams, t_min: float, t_max: float,
                     n: int, spacing: str = "linear") -> TimeSeries:
    """Evaluate the coherence, entropies and separation ratios over a grid."""
    times = _time_grid(t_min, t_max, n, spacing)
    c = np.asarray(analytic.coherence(params, times), dtype=float)
    entropy_paper = 1.0 - c * c
    entropy_purity = np.asarray(
        analytic.linear_entropy(params, times, convention="purity"), dtype=float
    )
    return TimeSeries(
        times=times,
        coherence=c,
        entropy_paper=entropy_paper,
        entropy_purity=entropy_purity,
        sep_position=np.asarray(analytic.separation_position_ratio(params, times), dtype=float),
        sep_momentum=np.asarray(analytic.separation_momentum_ratio(params, times), dtype=float),
    )


def default_profile_window(params: ExperimentParams, t: float) -> tuple[float, float]:
    """Symmetric window holding both packets to negligible tail mass.

    Covers the packet centers plus six spreading widths on each side; the
    mass left outside is below 1e-8.
    """
    k = analytic.kinematics(params, t)
    half = k.delta_z_bar + 6.0 * k.sigma_t
    return -half, half


def density_profile(params: ExperimentParams, t: float, z_min: float,
                    z_max: float, n: int) -> Profile:
    """Sample both branch densities and the spin-traced total on [z_min, z_max]."""
    if not (n >= 2):
        raise ValueError("need at least two grid points")
    if not (-math.inf < z_min < z_max < math.inf):
        raise ValueError("need z_min < z_max, both finite")
    z = np.linspace(z_min, z_max, n)
    density_plus = np.asarray(analytic.packet_density(params, +1, z, t), dtype=float)
    density_minus = np.asarray(analytic.packet_density(params, -1, z, t), dtype=float)
    total = abs(params.alpha) ** 2 * density_plus + abs(params.beta) ** 2 * density_minus
    return Profile(
        t=float(t),
        z=z,
        density_plus=density_plus,
        density_minus=density_minus,
        density_total=total,
    )

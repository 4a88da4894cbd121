"""Spin-position entanglement dynamics of a Stern-Gerlach beam.

Closed-form wavepacket evolution, spin-coherence decay, decoherence time,
packet-separation measures and linear-entropy entanglement for a spin-1/2
particle crossing a field gradient, together with independent numerical
oracles (oscillatory quadrature, propagator convolution, bisection) that
cross-check every closed form.
"""

from .analytic import (
    CoherenceReport,
    KinematicState,
    Regime,
    SpinDensityMatrix,
    coherence,
    coherence_exponents,
    decoherence_time,
    kinematics,
    linear_entropy,
    packet_amplitude,
    packet_density,
    packet_width,
    regime_report,
    regime_tau_scales,
    separation_momentum_ratio,
    separation_position_approx,
    separation_position_ratio,
    spin_density_matrix,
    total_position_density,
)
from .constants import BOHR_MAGNETON, HBAR
from .experiment import (
    Profile,
    TimeSeries,
    coherence_series,
    default_profile_window,
    density_profile,
    typical_params,
)
from .oracle import (
    KernelSample,
    QuadratureConvergenceError,
    QuadratureSpec,
    decoherence_time_bisection,
    overlap_quadrature,
    packet_norm_quadrature,
    propagate_via_kernel,
    total_density_norm_quadrature,
)
from .params import ExperimentParams

__version__ = "0.1.0"

__all__ = [
    "BOHR_MAGNETON",
    "CoherenceReport",
    "ExperimentParams",
    "HBAR",
    "KernelSample",
    "KinematicState",
    "Profile",
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "Regime",
    "SpinDensityMatrix",
    "TimeSeries",
    "__version__",
    "coherence",
    "coherence_exponents",
    "coherence_series",
    "decoherence_time",
    "decoherence_time_bisection",
    "default_profile_window",
    "density_profile",
    "kinematics",
    "linear_entropy",
    "overlap_quadrature",
    "packet_amplitude",
    "packet_density",
    "packet_norm_quadrature",
    "packet_width",
    "propagate_via_kernel",
    "regime_report",
    "regime_tau_scales",
    "separation_momentum_ratio",
    "separation_position_approx",
    "separation_position_ratio",
    "spin_density_matrix",
    "total_density_norm_quadrature",
    "total_position_density",
    "typical_params",
]

"""The hot quadrature integrands, in NumPy.

The inputs are precomputed scalars so the per-point work is a couple of
exponentials.
"""

from __future__ import annotations

import numpy as np


def overlap_integrand(
    z: np.ndarray,
    amp: float,
    inv4s2: float,
    center: float,
    a: float,
    two_a_dz: float,
    ratio2: float,
) -> np.ndarray:
    """phi_+(z) * conj(phi_-(z)) evaluated pointwise.

    ``amp`` is the common envelope normalization (2 pi sigma(t)^2)^(-1/4),
    ``center`` the branch displacement dzbar(t), ``a = m/(2 hbar t)``,
    ``two_a_dz = f t / (2 hbar)`` and ``ratio2 = (sigma0/sigma(t))^2``.
    Pass a = two_a_dz = 0 for t = 0.

    The quadratic and cubic phase terms of the two factors are identical
    and are cancelled in exact arithmetic here; forming them separately
    would leave catastrophic rounding noise at small t, where a*z^2 can
    reach 1e12 radians. What survives is the linear cross phase
    ``(2 two_a_dz + 4 a ratio2 center) z``.
    """
    z = np.asarray(z, dtype=float)
    d_plus = z - center
    d_minus = z + center
    envelope = (amp * amp) * np.exp(-(d_plus * d_plus + d_minus * d_minus) * inv4s2)
    k_cross = 2.0 * two_a_dz + 4.0 * a * ratio2 * center
    return envelope * np.exp(1j * (k_cross * z))


def kernel_integrand(
    u: np.ndarray,
    zstar: float,
    inv4s02: float,
    a: float,
    const: complex,
) -> np.ndarray:
    """Free-fall propagator times the initial packet, in stationary coordinates.

    ``u`` is the offset from the stationary point ``zstar`` of the kernel
    phase, where the full phase reduces exactly to ``a u^2`` plus a constant
    already folded into ``const`` together with the kernel prefactor.
    """
    u = np.asarray(u, dtype=float)
    x = zstar + u
    envelope = np.exp(-(x * x) * inv4s02)
    return const * envelope * np.exp(1j * (a * u * u))

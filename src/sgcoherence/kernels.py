"""The hot quadrature integrands, in NumPy.

The inputs are precomputed scalars so the per-point work is a couple of
exponentials.
"""

from __future__ import annotations

import numpy as np


def overlap_integrand(
    z: np.ndarray,
    amp2: float,
    inv4s2: float,
    center: float,
    k_cross: float,
) -> np.ndarray:
    """phi_+(z) * conj(phi_-(z)) evaluated pointwise.

    ``amp2`` is the squared envelope normalization (2 pi sigma(t)^2)^(-1/2),
    ``inv4s2 = 1/(4 sigma(t)^2)``, ``center`` the branch displacement
    dzbar(t) and ``k_cross = (f t/hbar)(1 + (sigma0/sigma(t))^2)`` the
    cross wavenumber, so center = k_cross = 0 at t = 0.

    The quadratic and cubic phase terms of the two factors are identical
    and are cancelled in exact arithmetic here; forming them separately
    would leave catastrophic rounding noise at small t, where a*z^2
    (a = m/(2 hbar t)) can reach 1e12 radians. What survives is the
    linear cross phase ``k_cross z``.
    """
    z = np.asarray(z, dtype=float)
    d_plus = z - center
    d_minus = z + center
    envelope = amp2 * np.exp(-(d_plus * d_plus + d_minus * d_minus) * inv4s2)
    return envelope * np.exp(1j * (k_cross * z))


def kernel_integrand(
    v: np.ndarray,
    zstar: float,
    inv4s02: float,
    a: float,
    rot: complex,
    const: complex,
) -> np.ndarray:
    """Free-fall propagator times the initial packet, on the rotated path ``u = rot v``.

    ``u`` is the offset from the stationary point ``zstar`` of the kernel
    phase, where the full phase reduces exactly to ``a u^2`` plus a constant
    already folded into ``const``, together with the kernel prefactor and the
    path's Jacobian ``rot``. The exponent is summed before its one
    exponential: on the path its real part is at most 0, while
    ``exp(-(zstar + u)^2/(4 sigma0^2))`` alone can overflow.
    """
    u = rot * np.asarray(v, dtype=float)
    x = zstar + u
    return const * np.exp(1j * a * (u * u) - inv4s02 * (x * x))

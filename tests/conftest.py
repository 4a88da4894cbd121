import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sgcoherence import ExperimentParams, typical_params  # noqa: E402


@pytest.fixture(scope="session")
def typical() -> ExperimentParams:
    return typical_params()


def params_with_chi(chi_target: float, base: ExperimentParams | None = None) -> ExperimentParams:
    """Parameter set whose regime parameter chi equals ``chi_target``.

    Solves chi = 8 (f m sigma^3 / hbar^2)^2 for sigma at the base mass and
    force.
    """
    base = base or typical_params()
    f = base.force
    g = (chi_target / 8.0) ** 0.5  # f m sigma^3 / hbar^2
    sigma = (g * base.hbar**2 / (f * base.mass)) ** (1.0 / 3.0)
    return ExperimentParams(
        mass=base.mass,
        field_gradient=base.field_gradient,
        sigma0=sigma,
        magnetic_moment=base.magnetic_moment,
    )


@st.composite
def beams(draw) -> ExperimentParams:
    """Beams log-uniform around ``typical_params()``: mass and field gradient
    over three decades either side, the initial width over two."""
    base = typical_params()
    decades = lambda span: 10.0 ** draw(st.floats(-span, span))
    return ExperimentParams(
        mass=base.mass * decades(3.0),
        field_gradient=base.field_gradient * decades(3.0),
        sigma0=base.sigma0 * decades(2.0),
        magnetic_moment=base.magnetic_moment,
    )

"""The closed-form solitary wave.

The mixed-dispersion profile equation admits an explicit sech^(4/alpha)
solution at one special frequency omega0(alpha).  This module evaluates that
wave and its amplitude, width and frequency.  Its closed-form transforms and
the closed-form d'' of the pure fourth-order model are test oracles and live
with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import RealProfile, SpectralGrid


@dataclass(frozen=True)
class ExplicitWaveParams:
    """Amplitude, inverse width, and frequency of the explicit wave."""

    alpha: float
    a0: float
    b0: float
    omega0: float


def explicit_params(alpha: float) -> ExplicitWaveParams:
    """Parameters (a0, b0, omega0) of the explicit sech^(4/alpha) wave."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    a = float(alpha)
    try:  # a**3 raises from about 5.6e102 on, 2 a**4 is inf from about 9.7e76
        square = 2 * (a**2 + 4 * a + 8) ** 2
        cubic = 3 * a**3 + 22 * a**2 + 48 * a + 32
    except OverflowError:
        square = math.inf
    if not math.isfinite(square):
        raise ParameterError(f"alpha={alpha:g} is too large: the explicit wave's"
                             " polynomials in alpha overflow")
    a0 = (cubic / square) ** (1 / a)
    b0 = a / (2 * math.sqrt(a**2 + 4 * a + 8))
    omega0 = 4 * (a**2 + 4 * a + 4) / (a**4 + 8 * a**3 + 32 * a**2 + 64 * a + 64)
    return ExplicitWaveParams(alpha=a, a0=a0, b0=b0, omega0=omega0)


def _sech_power(y: np.ndarray, power: float) -> np.ndarray:
    # sech(y)**power through logs; avoids cosh overflow at large |y|
    return np.exp(power * (math.log(2.0) - np.logaddexp(y, -y)))


def phi_exact(alpha: float, grid: SpectralGrid) -> RealProfile:
    """Explicit solitary profile a0 * sech^(4/alpha)(b0 x) at omega0(alpha)."""
    p = explicit_params(alpha)
    return RealProfile(grid, p.a0 * _sech_power(p.b0 * grid.nodes, 4.0 / p.alpha))

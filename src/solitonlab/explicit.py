"""Closed-form solitary waves, the transform of phi^alpha, and closed d'' formulas.

The mixed-dispersion profile equation admits an explicit sech^(4/alpha)
solution at one special frequency omega0(alpha).  This module evaluates that
wave, its amplitude/width parameters, the closed-form Fourier transform of
its power phi^alpha, the classical second-order NLS sech solution, and the
closed-form stability quantities for the two comparison models (second-order
NLS and pure fourth-order NLS).  The Gamma-function transform of the wave
itself is a test oracle and lives with the tests.
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
    a0 = ((3 * a**3 + 22 * a**2 + 48 * a + 32) / (2 * (a**2 + 4 * a + 8) ** 2)) ** (1 / a)
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


def phi_pow_alpha_hat_exact(alpha: float, xi) -> np.ndarray:
    """Closed form of the transform of phi**alpha (a sech^4 profile).

    The removable singularity at xi = 0 is evaluated by its analytic limit
    xi / sinh(pi xi / (4 b0)) -> 4 b0 / pi.
    """
    p = explicit_params(alpha)
    xi = np.asarray(xi, dtype=float)
    arg = np.pi * xi / (4.0 * p.b0)
    small = np.abs(xi) < 1e-8
    ratio = np.where(small, 4.0 * p.b0 / np.pi, xi / np.sinh(np.where(small, 1.0, arg)))
    poly = 0.25 + (p.alpha**2 + 4 * p.alpha + 8) / (4 * p.alpha**2) * xi**2
    out = p.a0**p.alpha / (3 * p.b0**2) * poly * (np.pi / np.cosh(arg)) * ratio
    return out


def nls_sech_solution(alpha: float, omega: float, grid: SpectralGrid) -> RealProfile:
    """Sech-profile solitary wave of the classical second-order NLS."""
    if not alpha > 0 or not omega > 0:
        raise ParameterError("alpha and omega must be positive")
    amp = (omega * (alpha + 2) / 2.0) ** (1.0 / alpha)
    y = alpha * math.sqrt(omega) * grid.nodes / 2.0
    return RealProfile(grid, amp * _sech_power(y, 2.0 / alpha))


def d2_closed_nls(alpha: float, omega: float, mass: float) -> float:
    """Closed-form d''(omega) for the classical NLS; sign of (4 - alpha)."""
    if not (alpha > 0 and omega > 0 and mass > 0):
        raise ParameterError("alpha, omega, mass must be positive")
    return (1.0 / (2.0 * omega)) * ((4.0 - alpha) / (2.0 * alpha)) * mass


def d2_closed_pure4nls(alpha: float, omega: float, mass: float) -> float:
    """Closed-form d''(omega) for the pure fourth-order NLS; sign of (8 - alpha)."""
    if not (alpha > 0 and omega > 0 and mass > 0):
        raise ParameterError("alpha, omega, mass must be positive")
    return (1.0 / (2.0 * omega)) * ((8.0 - alpha) / (2.0 * alpha)) * mass


"""Closed forms and direct formulas of the model, kept as test oracles.

The package computes none of these: the solver carries its own residual and
stabilizing factor, and the threshold searches take d'' from the chi form.
The tests compare the package against them.
"""

import numpy as np

from solitonlab.errors import ParameterError
from solitonlab.explicit import explicit_params
from solitonlab.petviashvili import half_symbol, half_weights, nonlinearity, power


class DomainError(ValueError):
    """A closed-form expression was evaluated outside its usable range."""


def forward(grid, values):
    """Continuum-consistent Fourier coefficients dx sum_j f(x_j) exp(-i xi_k x_j),
    aligned with ``grid.wavenumbers``: the coefficient at xi = 0 approximates
    the integral of f.  The phase (-1)^k accounts for the x = -L origin of
    the nodes."""
    n = grid.n_points
    k = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
    return grid.dx * np.where(k % 2 == 0, 1.0, -1.0) * np.fft.fft(values)


def pairing_weights(grid, omega, beta):
    """w with sum(w |rfft(v)|^2) = int v (d^4 - beta d^2 + omega) v."""
    return grid.dx * half_weights(grid.n_points) * half_symbol(grid, omega, beta)


def residual(profile, alpha, omega, beta=1.0):
    """Sup-norm of phi'''' - beta phi'' + omega phi - |phi|^alpha phi."""
    g, v = profile.grid, profile.values
    linear = np.fft.irfft(half_symbol(g, omega, beta) * np.fft.rfft(v), g.n_points)
    return float(np.max(np.abs(linear - nonlinearity(v, alpha))))


def constrained_functional(profile, alpha, omega, beta=1.0):
    """Quadratic part B_omega(u) = (1/2) int u (d^4 - beta d^2 + omega) u and the
    nonlinear constraint tau = int |u|^(alpha+2).

    For the explicit wave at omega0 the identity B = tau / 2 holds.
    """
    coeffs = np.fft.rfft(profile.values)
    b_value = 0.5 * float(np.sum(pairing_weights(profile.grid, omega, beta) * np.abs(coeffs) ** 2))
    tau = float(profile.grid.quadrature(power(profile.values, alpha + 2)))
    return b_value, tau


def phi_pow_alpha_hat_exact(alpha, xi):
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


def d2_closed_pure4nls(alpha, omega, mass):
    """Closed-form d''(omega) for the pure fourth-order NLS; sign of (8 - alpha).

    At beta = 0 the waves scale as phi_omega(x) = omega^(1/alpha) psi(omega^(1/4) x),
    so the mass (1/2) int phi^2 is C omega^p with p = 2/alpha - 1/4, and
    d'' = p mass / omega.
    """
    if not (alpha > 0 and omega > 0 and mass > 0):
        raise ParameterError("alpha, omega, mass must be positive")
    return (1.0 / (2.0 * omega)) * ((8.0 - alpha) / (2.0 * alpha)) * mass

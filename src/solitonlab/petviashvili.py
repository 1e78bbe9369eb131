"""The model, written down once, and the stabilized fixed-point iteration for it.

The profile equation is phi'''' - beta phi'' + omega phi = |phi|^alpha phi on
the periodic grid, its time-dependent form is i u_t + beta u_xx - u_xxxx +
|u|^alpha u = 0, and its constrained functional is B_omega / tau.  This module
is their one home: ``symbol`` (xi^4 + beta xi^2 + omega), ``power`` (|u|^p)
and ``half_weights`` (the Parseval weights of an rfft half spectrum) build the
nonlinearity, the quadratic form and the residual here, and everything that
``spectra`` and ``evolve`` use of the model.

The solver iterates in Fourier space with the stabilizing factor M_n raised
to the exponent nu = (alpha+2)/(alpha+1).  phi is real, so the loop runs on
rfft half spectra and carries the spectrum and the nonlinearity of each
iterate into the next iteration: 3 real transforms and 1 nonlinearity pass
per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DivergenceError, ParameterError
from .grid import RealProfile, SpectralGrid

IMAG_RESIDUE_TOL = 1e-13
# convergence: sup-norm step, |1 - M_n| and sup-norm spectral residual
TOL_ERROR = 1e-12
TOL_STAB = 1e-12
TOL_RES = 1e-10


@dataclass
class SolverConfig:
    """Iteration controls.

    ``initial_guess`` is a :class:`RealProfile` on the solve's grid to
    continue from, or None for the Gaussian (2 omega)^(1/alpha) exp(-x^2).
    ``dispersion_beta`` is the coefficient of ``-d^2/dx^2``: 1 for the
    mixed-dispersion equation, 0 for the pure fourth-order one.
    """

    max_iter: int = 2000
    initial_guess: RealProfile | None = None
    dispersion_beta: float = 1.0

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.dispersion_beta < 0:
            raise ParameterError("dispersion_beta must be >= 0")


@dataclass
class SolverDiagnostics:
    iterations: int
    error_history: np.ndarray
    stab_history: np.ndarray
    res_history: np.ndarray
    converged: bool


def symbol(xi: np.ndarray, omega: float, beta: float) -> np.ndarray:
    """xi^4 + beta xi^2 + omega, the Fourier symbol of d^4 - beta d^2 + omega."""
    return xi**4 + beta * xi**2 + omega


def power(u: np.ndarray, p: float) -> np.ndarray:
    """|u|^p of a real or complex array."""
    return np.abs(u) ** p


def half_weights(n: int) -> np.ndarray:
    """w with sum(w |rfft(v)|^2) = sum(v^2) for n points, by Parseval: an interior
    mode also stands for its conjugate, the mean and Nyquist modes do not."""
    weights = np.full(n // 2 + 1, 2.0 / n)
    weights[[0, -1]] = 1.0 / n
    return weights


def nonlinearity(values: np.ndarray, alpha: float) -> np.ndarray:
    """|phi|^alpha phi, valid for non-integer alpha and sign-changing phi."""
    return np.sign(values) * power(values, alpha + 1)


def half_symbol(grid: SpectralGrid, omega: float, beta: float) -> np.ndarray:
    """The symbol on the rfft half spectrum."""
    return symbol(grid.wavenumbers[: grid.n_points // 2 + 1], omega, beta)


def pairing_weights(grid: SpectralGrid, omega: float, beta: float) -> np.ndarray:
    """w with sum(w |rfft(v)|^2) = int v (d^4 - beta d^2 + omega) v."""
    return grid.dx * half_weights(grid.n_points) * half_symbol(grid, omega, beta)


def check_omega_width(omega: float, grid: SpectralGrid) -> None:
    """Refuse a wave too wide for the domain (small-omega tails ~ exp(-sqrt(omega) |x|))."""
    if np.sqrt(omega) * grid.half_width < 10.0:
        raise ParameterError(
            f"omega={omega:g} gives a soliton too wide for half_width={grid.half_width:g}"
        )


def constrained_functional(
    profile: RealProfile, alpha: float, omega: float, beta: float = 1.0
) -> tuple[float, float]:
    """Quadratic part B_omega(u) = (1/2) int u (d^4 - beta d^2 + omega) u and the
    nonlinear constraint tau = int |u|^(alpha+2).

    For the explicit wave at omega0 the identity B = tau / 2 holds.
    """
    coeffs = np.fft.rfft(profile.values)
    b_value = 0.5 * float(np.sum(pairing_weights(profile.grid, omega, beta) * np.abs(coeffs) ** 2))
    tau = float(profile.grid.quadrature(power(profile.values, alpha + 2)))
    return b_value, tau


def stabilizing_factor(
    profile: RealProfile, alpha: float, omega: float, beta: float = 1.0
) -> float:
    """Ratio 2B / tau of the linear quadratic form to the nonlinear pairing; 1 at a solution."""
    b_value, tau = constrained_functional(profile, alpha, omega, beta)
    if tau == 0.0:
        raise DegenerateInputError("nonlinear pairing vanishes for this profile")
    return 2.0 * b_value / tau


def residual(profile: RealProfile, alpha: float, omega: float, beta: float = 1.0) -> float:
    """Sup-norm of phi'''' - beta phi'' + omega phi - |phi|^alpha phi."""
    g, v = profile.grid, profile.values
    linear = np.fft.irfft(half_symbol(g, omega, beta) * np.fft.rfft(v), g.n_points)
    return float(np.max(np.abs(linear - nonlinearity(v, alpha))))


def _initial_guess(alpha: float, omega: float, grid: SpectralGrid, config: SolverConfig):
    guess = config.initial_guess
    if guess is None:
        return (2.0 * omega) ** (1.0 / alpha) * np.exp(-(grid.nodes**2))
    if (guess.grid.n_points, guess.grid.half_width) != (grid.n_points, grid.half_width):
        raise ParameterError("provided initial profile lives on a different grid")
    return guess.values.copy()


def _recenter(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    # translation invariance: place the peak of |phi| at x = 0
    peak = int(np.argmax(np.abs(values)))
    return np.roll(values, grid.n_points // 2 - peak)


def petviashvili_solve(
    alpha: float,
    omega: float,
    grid: SpectralGrid | None = None,
    config: SolverConfig | None = None,
):
    """Run the stabilized iteration; returns (profile, diagnostics).

    Non-convergence within ``max_iter`` is reported through
    ``diagnostics.converged`` rather than an exception; non-finite iterates
    raise :class:`DivergenceError`.
    """
    if not alpha > 0 or not omega > 0:
        raise ParameterError("alpha and omega must be positive")
    if grid is None:
        grid = SpectralGrid()
    if config is None:
        config = SolverConfig()
    beta = config.dispersion_beta
    nu = (alpha + 2.0) / (alpha + 1.0)

    check_omega_width(omega, grid)
    denom = half_symbol(grid, omega, beta)
    weights = pairing_weights(grid, omega, beta)
    dx, n = grid.dx, grid.n_points

    phi = _initial_guess(alpha, omega, grid, config)
    phi_hat = np.fft.rfft(phi)
    nl = nonlinearity(phi, alpha)
    nl_hat = np.fft.rfft(nl)
    errors, stabs, residuals = [], [], []
    converged = False

    for _ in range(config.max_iter):
        numerator = float(np.sum(weights * np.abs(phi_hat) ** 2))
        denominator = dx * float(np.sum(nl * phi))
        if denominator == 0.0:
            raise DegenerateInputError("nonlinear pairing vanished during iteration")
        m_n = numerator / denominator
        new_hat = m_n**nu * nl_hat / denom
        phi_new = np.fft.irfft(new_hat, n)
        # irfft drops Im of the mean and Nyquist modes, which no real iterate has
        scale = max(float(np.max(np.abs(phi_new))), 1.0)
        if (abs(new_hat[0].imag) + abs(new_hat[-1].imag)) / n > IMAG_RESIDUE_TOL * scale:
            raise DivergenceError("iterate acquired a non-negligible imaginary part")
        if not np.all(np.isfinite(phi_new)):
            raise DivergenceError("iteration produced non-finite values")

        error = float(np.max(np.abs(phi_new - phi)))
        # residual of the spectral iterate: denom * new_hat is exact in
        # coefficient space, avoiding the xi^4 noise amplification of a
        # fresh physical-space transform
        nl = nonlinearity(phi_new, alpha)
        nl_hat = np.fft.rfft(nl)
        res = float(np.max(np.abs(np.fft.irfft(denom * new_hat - nl_hat, n))))
        errors.append(error)
        stabs.append(abs(1.0 - m_n))
        residuals.append(res)
        phi, phi_hat = phi_new, new_hat
        if error <= TOL_ERROR and abs(1.0 - m_n) <= TOL_STAB and res <= TOL_RES:
            converged = True
            break

    phi = _recenter(phi, grid)
    diagnostics = SolverDiagnostics(
        iterations=len(errors),
        error_history=np.asarray(errors),
        stab_history=np.asarray(stabs),
        res_history=np.asarray(residuals),
        converged=converged,
    )
    return RealProfile(grid, phi), diagnostics

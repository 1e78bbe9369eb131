"""Stabilized fixed-point iteration for the solitary-wave profile equation.

Solves phi'''' - beta phi'' + omega phi = |phi|^alpha phi on the periodic
grid by iterating in Fourier space with the stabilizing factor M_n raised to
the exponent nu, which defaults to (alpha+2)/(alpha+1).

phi is real, so the loop runs on rfft half spectra and carries the spectrum
and the nonlinearity of each iterate into the next iteration: 3 real
transforms and 1 nonlinearity pass per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DivergenceError, ParameterError
from .explicit import phi_exact
from .grid import RealProfile, SpectralGrid

IMAG_RESIDUE_TOL = 1e-13


@dataclass
class SolverConfig:
    """Iteration controls.

    ``initial_guess`` is one of the strings ``"gaussian"`` (default,
    amplitude ``(2 omega)^(1/alpha)`` unless ``guess_amplitude`` is set) or
    ``"exact-sech"`` (the explicit closed-form wave), or a
    :class:`RealProfile` to continue from.  ``dispersion_beta`` is the
    coefficient of ``-d^2/dx^2``: 1 for the mixed-dispersion equation, 0 for
    the pure fourth-order one.
    """

    nu: float | None = None
    tol_error: float = 1e-12
    tol_stab: float = 1e-12
    tol_res: float = 1e-10
    max_iter: int = 2000
    initial_guess: str | RealProfile = "gaussian"
    guess_amplitude: float | None = None
    guess_width: float = 1.0
    dispersion_beta: float = 1.0

    def __post_init__(self) -> None:
        if self.nu is not None and not self.nu > 0:
            raise ParameterError(f"nu must be positive, got {self.nu}")
        for name in ("tol_error", "tol_stab", "tol_res"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive")
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


def nonlinearity(values: np.ndarray, alpha: float) -> np.ndarray:
    """|phi|^alpha phi, valid for non-integer alpha and sign-changing phi."""
    return np.sign(values) * np.abs(values) ** (alpha + 1)


def half_symbol(grid: SpectralGrid, omega: float, beta: float) -> np.ndarray:
    """xi^4 + beta xi^2 + omega on the rfft half spectrum."""
    xi = grid.wavenumbers[: grid.n_points // 2 + 1]
    return xi**4 + beta * xi**2 + omega


def pairing_weights(grid: SpectralGrid, omega: float, beta: float) -> np.ndarray:
    """w with sum(w |rfft(v)|^2) = int v (d^4 - beta d^2 + omega) v, by Parseval: an
    interior mode also stands for its conjugate, the mean and Nyquist modes do not."""
    weights = np.full(grid.n_points // 2 + 1, 2.0 * grid.dx / grid.n_points)
    weights[[0, -1]] *= 0.5
    return weights * half_symbol(grid, omega, beta)


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
    tau = float(profile.grid.quadrature(np.abs(profile.values) ** (alpha + 2)))
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
    g = profile.grid
    linear = g.apply_symbol(profile.values, lambda xi: xi**4 + beta * xi**2 + omega)
    return float(np.max(np.abs(linear - nonlinearity(profile.values, alpha))))


def _initial_guess(alpha: float, omega: float, grid: SpectralGrid, config: SolverConfig):
    guess = config.initial_guess
    if isinstance(guess, RealProfile):
        if guess.grid.n_points != grid.n_points:
            raise ParameterError("provided initial profile lives on a different grid")
        return guess.values.copy()
    if guess == "gaussian":
        amplitude = config.guess_amplitude
        if amplitude is None:
            amplitude = (2.0 * omega) ** (1.0 / alpha)
        return amplitude * np.exp(-((grid.nodes / config.guess_width) ** 2))
    if guess == "exact-sech":
        return phi_exact(alpha, grid).values.copy()
    raise ParameterError(f"unknown initial guess {guess!r}")


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
    nu = config.nu if config.nu is not None else (alpha + 2.0) / (alpha + 1.0)

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
        if (
            error <= config.tol_error
            and abs(1.0 - m_n) <= config.tol_stab
            and res <= config.tol_res
        ):
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

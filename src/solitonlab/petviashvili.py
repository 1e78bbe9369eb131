"""The model, written down once, and the stabilized fixed-point iteration for it.

The profile equation is phi'''' - beta phi'' + omega phi = |phi|^alpha phi on
the periodic grid, its time-dependent form is i u_t + beta u_xx - u_xxxx +
|u|^alpha u = 0, and its constrained functional is B_omega / tau.  This module
is their one home: ``symbol`` (xi^4 + beta xi^2 + omega), ``power`` (|u|^p),
``power_from_square`` (|u|^p from |u|^2, for the integrator's in-place step)
and ``half_weights`` (the Parseval weights of an rfft half spectrum) build the
nonlinearity, the quadratic form and the residual here, and everything that
``spectra`` and ``evolve`` use of the model.

The solver's map is the stabilized (Petviashvili) step c -> g(c) = M^nu
N(c) / (xi^4 + beta xi^2 + omega) on rfft half spectra c, with the
stabilizing factor M raised to the exponent nu = (alpha+2)/(alpha+1).  The
loop Anderson-mixes it with depth ANDERSON_DEPTH = 5: at each iterate it
measures M, the spectral residual and g, and takes the combination of the
last images g that least-squares minimizes the combined residual f = g - c
over the float view of the half spectrum.  The first iteration, and every
iterate with |1 - M| > MIX_STAB, takes the plain step and restarts the
history: far from a solution the mixing's linear model wanders, and its
large coefficients amplify rounding in the odd (translation) direction,
which a warm-started branch then carries along.  The residual needs no
transform of its own: the x-space image of denom * c is M^nu N after a plain
step and the same combination of the last images M^nu N after a mixed one, so
the loop carries it with c.  Each iteration costs 2 real transforms and 1
nonlinearity pass, and a solve 2 more.  The diagnostics record, per
iteration, the sup-norm step of the mixed iterate (``error``), |1 - M| and the
sup-norm residual, the last two at the iterate the step starts from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgelss

from .errors import DegenerateInputError, DivergenceError, ParameterError
from .grid import RealProfile, SpectralGrid

IMAG_RESIDUE_TOL = 1e-13
# convergence: sup-norm step, |1 - M_n| and sup-norm spectral residual
TOL_ERROR = 1e-12
TOL_STAB = 1e-12
TOL_RES = 1e-10
# Anderson mixing: history depth, the relative singular-value cutoff of the
# least-squares solve (LAPACK's SVD-based dgelss) on its Gram matrix, and the
# |1 - M_n| above which the loop takes the plain step instead
ANDERSON_DEPTH = 5
RANK_CUTOFF = 1e-12
MIX_STAB = 0.5


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


def power_from_square(square: np.ndarray, p: float, work: np.ndarray) -> np.ndarray:
    """|u|^p from square = |u|^2, with no square root and no new array.

    p = 2 returns square itself; p = 4, 6, 8 take repeated products into
    work; any other p raises square to p/2 in place.  Returns square or work.
    """
    half = p / 2.0
    if half == 1:
        return square
    if half in (2, 3, 4):
        np.multiply(square, square, out=work)
        for _ in range(int(half) - 2):
            work *= square
        return work
    return np.power(square, half, out=square)


def half_weights(n: int) -> np.ndarray:
    """w with sum(w |rfft(v)|^2) = sum(v^2) for n points, by Parseval: an interior
    mode also stands for its conjugate, the mean and Nyquist modes do not."""
    weights = np.full(n // 2 + 1, 2.0 / n)
    weights[[0, -1]] = 1.0 / n
    return weights


def nonlinearity(values: np.ndarray, alpha: float) -> np.ndarray:
    """|phi|^alpha phi, valid for non-integer alpha and sign-changing phi."""
    return values * power(values, alpha)


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
    """Run the Anderson-mixed stabilized iteration; returns (profile, diagnostics).

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
    # g = M^nu N_hat / denom over the float view: numpy divides a complex by
    # a real as this reciprocal multiply, bit for bit, at twice the cost
    inv_denom = np.repeat(1.0 / denom, 2)
    weights = pairing_weights(grid, omega, beta)
    dx, n = grid.dx, grid.n_points

    phi = _initial_guess(alpha, omega, grid, config)
    coeffs = np.fft.rfft(phi)
    # lin is the x-space image of denom * coeffs: transformed once from the
    # spectral iterate, where denom * coeffs is exact (a fresh transform of
    # phi would amplify its rounding by xi^4), then carried along with coeffs
    lin = np.fft.irfft(denom * coeffs, n)
    # Anderson history in the float view of the half spectrum: differences of
    # successive residuals f = g - c and images g, with their Gram matrix;
    # and the differences of the images' x-space linear parts M^nu N
    delta_f = np.zeros((ANDERSON_DEPTH, 2 * coeffs.size))
    delta_g = np.zeros_like(delta_f)
    delta_lin = np.zeros((ANDERSON_DEPTH, n))
    gram = np.zeros((ANDERSON_DEPTH, ANDERSON_DEPTH))
    history = 0  # iterates since the last plain step
    errors, stabs, residuals = [], [], []
    converged = False

    for _ in range(config.max_iter):
        nl = nonlinearity(phi, alpha)
        nl_hat = np.fft.rfft(nl)
        numerator = float(np.sum(weights * np.abs(coeffs) ** 2))
        denominator = dx * float(np.sum(nl * phi))
        if denominator == 0.0:
            raise DegenerateInputError("nonlinear pairing vanished during iteration")
        m_n = numerator / denominator
        res = float(np.max(np.abs(lin - nl)))
        gain = m_n**nu
        g = gain * nl_hat.view(float)
        g *= inv_denom
        image = g.view(complex)
        lin_image = gain * nl  # the x-space image of denom * image
        f = g - coeffs.view(float)
        if abs(1.0 - m_n) > MIX_STAB:
            history = 0
        if history > 0:
            slot = (history - 1) % ANDERSON_DEPTH
            np.subtract(f, f_prev, out=delta_f[slot])
            np.subtract(g, g_prev, out=delta_g[slot])
            np.subtract(lin_image, lin_prev, out=delta_lin[slot])
            used = min(history, ANDERSON_DEPTH)
            gram[slot, :used] = gram[:used, slot] = delta_f[:used] @ delta_f[slot]
            rhs = delta_f[:used] @ f
            # LAPACK does not return on non-finite input
            if not (np.isfinite(gram[slot, :used]).all() and np.isfinite(rhs).all()):
                raise DivergenceError("iteration produced non-finite values")
            gamma = dgelss(gram[:used, :used], rhs, cond=RANK_CUTOFF)[1]
            image = (g - gamma @ delta_g[:used]).view(complex)
            lin = lin_image - gamma @ delta_lin[:used]
        else:
            lin = lin_image
        f_prev, g_prev, lin_prev = f, g, lin_image
        history += 1
        phi_new = np.fft.irfft(image, n)
        # irfft drops Im of the mean and Nyquist modes, which no real iterate
        # has; the scale max(max|phi_new|, 1) is needed only past the tolerance
        residue = (abs(image[0].imag) + abs(image[-1].imag)) / n
        if residue > IMAG_RESIDUE_TOL and residue > IMAG_RESIDUE_TOL * max(
                float(np.max(np.abs(phi_new))), 1.0):
            raise DivergenceError("iterate acquired a non-negligible imaginary part")
        # phi is finite, so the step is finite exactly when phi_new is
        error = float(np.max(np.abs(phi_new - phi)))
        if not math.isfinite(error):
            raise DivergenceError("iteration produced non-finite values")
        errors.append(error)
        stabs.append(abs(1.0 - m_n))
        residuals.append(res)
        phi, coeffs = phi_new, image
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

"""The model, written down once, and the stabilized fixed-point iteration for it.

The profile equation is phi'''' - beta phi'' + omega phi = |phi|^alpha phi on
the periodic grid, and its time-dependent form is i u_t + beta u_xx - u_xxxx +
|u|^alpha u = 0.  This module is their one home: ``symbol`` (xi^4 + beta xi^2
+ omega), ``power`` (|u|^p), ``power_from_square`` (|u|^p from |u|^2, for the
integrator's in-place step) and ``half_weights`` (the Parseval weights of an
rfft half spectrum) build the solver's nonlinearity, quadratic form and
residual here, and everything that ``spectra`` and ``evolve`` use of the
model.  ``dispersion``, the one table of xi^4 + beta xi^2, keeps it on the full
spectrum per grid and beta, read-only: ``half_symbol`` reads its rfft half and
the split step all of it.  It holds the last 32, each with its key grid about
24 bytes per point (200 kB at N = 8192).

The solver's map is the stabilized (Petviashvili) step c -> g(c) = M^nu
N(c) / (xi^4 + beta xi^2 + omega) on rfft half spectra c, with the
stabilizing factor M = int phi (d^4 - beta d^2 + omega) phi / int |phi|^alpha
phi^2 (1 at a solution) raised to the exponent nu = (alpha+2)/(alpha+1).  The
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
nonlinearity pass, and a solve 2 more.  A start on a coarser grid enters as
its zero-padded rfft, exactly: a transform of its interpolant's samples would
add rounding that xi^4 amplifies into the first residual.  The diagnostics
record, per iteration, the sup-norm step of the mixed iterate (``error``),
|1 - M| and the sup-norm residual, the last two at the iterate the step
starts from.

``petviashvili_solve``, the package's one solve, is a nested iteration on
that loop (``_iterate``): it solves on the coarsest grid that resolves the
start (``grid.coarsest_grid``) and polishes on the requested one.

The loop's Anderson history (``_anderson_workspace``) is an lru_cache on
the grid size n and the solving thread's ident, which keeps the last
KEPT_WORKSPACES = 2: a thread that solves alone, as every command, the
benchmark and each ``region`` worker do, keeps one nested solve's coarse and
requested grids.  Each takes 120 n + 360 bytes, at most 1.5 MB at N = 8192 (a
coarse grid has at most N / 2 points).  A solve reuses it as the last one
left it instead of allocating new arrays, whose release made the allocator
trim its heap and fault fresh pages into the next solve; the loop writes
every row and entry before it reads it, so no value changes.  Two live
threads never share a workspace; threads that solve in turn allocate anew.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgelss

from .errors import DegenerateInputError, DivergenceError, ParameterError
from .grid import RealProfile, SpectralGrid, coarsest_grid, read_only, zero_pad

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
# grid sizes whose Anderson workspace each thread keeps between solves
KEPT_WORKSPACES = 2


@dataclass
class SolverConfig:
    """Solve controls.

    ``max_iter`` bounds each stage of a solve, the coarse and the requested grid's.
    ``initial_guess`` is None for the Gaussian (2 omega)^(1/alpha) exp(-x^2),
    or a :class:`RealProfile` to continue from, on the solve's grid or on one
    of its half-width f times coarser, read there as its interpolant: its
    rfft zero-padded, the Nyquist term halved (it stands for 2 modes), times f
    (``grid.zero_pad``).
    ``dispersion_beta`` is the coefficient of ``-d^2/dx^2``: 1 for the
    mixed-dispersion equation, 0 for the pure fourth-order one.
    """

    max_iter: int = 2000
    initial_guess: RealProfile | None = None
    dispersion_beta: float = 1.0

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0 <= self.dispersion_beta < np.inf:
            raise ParameterError(
                f"dispersion_beta must be finite and >= 0, got {self.dispersion_beta}")


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


@functools.lru_cache(maxsize=32)
def dispersion(grid: SpectralGrid, beta: float) -> np.ndarray:
    """xi^4 + beta xi^2 on the grid's full spectrum, read-only."""
    return read_only(symbol(grid.wavenumbers, 0.0, beta))


def half_symbol(grid: SpectralGrid, omega: float, beta: float) -> np.ndarray:
    """The symbol on the rfft half spectrum, a new array each call.  It is
    ``symbol`` bit for bit: that adds omega last too, and adding 0.0 first
    changes no value that omega > 0 is added to."""
    return dispersion(grid, beta)[: grid.n_points // 2 + 1] + omega


def check_alpha_omega(alpha: float, omega: float) -> None:
    """Refuse an alpha or omega that is not positive and finite."""
    if not (0 < alpha < np.inf and 0 < omega < np.inf):
        raise ParameterError(f"alpha and omega must be positive and finite, got {alpha}, {omega}")


def check_omega_width(omega: float, grid: SpectralGrid) -> None:
    """Refuse a wave too wide for the domain (small-omega tails ~ exp(-sqrt(omega) |x|))."""
    if np.sqrt(omega) * grid.half_width < 10.0:
        raise ParameterError(
            f"omega={omega:g} gives a soliton too wide for half_width={grid.half_width:g}"
        )


def _gaussian(grid: SpectralGrid) -> np.ndarray:
    """exp(-x^2) at grid's nodes: the cold start, up to its amplitude."""
    return np.exp(-(grid.nodes**2))


def _initial_guess(alpha: float, omega: float, grid: SpectralGrid, config: SolverConfig):
    """The first iterate and its rfft half spectrum (see ``SolverConfig``)."""
    guess = config.initial_guess
    if guess is None:
        phi = (2.0 * omega) ** (1.0 / alpha) * _gaussian(grid)
    elif guess.grid.half_width != grid.half_width or guess.grid.n_points > grid.n_points:
        raise ParameterError("provided initial profile lives on a different grid")
    elif guess.grid.n_points == grid.n_points:
        phi = guess.values
    else:
        coeffs = zero_pad(np.fft.rfft(guess.values), grid.n_points)
        return np.fft.irfft(coeffs, grid.n_points), coeffs
    return phi, np.fft.rfft(phi)


def _recenter(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    # translation invariance: place the peak of |phi| at x = 0
    peak = int(np.argmax(np.abs(values)))
    return np.roll(values, grid.n_points // 2 - peak)


@functools.lru_cache(maxsize=32)
def _cold_coarse_grid(grid: SpectralGrid) -> SpectralGrid | None:
    """``_coarse_grid`` of the cold seed, a multiple of ``_gaussian``, on grid."""
    return _coarse_grid(RealProfile(grid, _gaussian(grid)), grid)


def _coarse_grid(seed: RealProfile | None, grid: SpectralGrid) -> SpectralGrid | None:
    """The coarsest grid that resolves the seed (``grid.coarsest_grid``); None
    where that is grid itself, or where the seed lives on another grid (the
    solve reads a coarser one as its interpolant).  The cold seed's is kept
    per grid (``_cold_coarse_grid``).
    """
    if seed is None:
        return _cold_coarse_grid(grid)
    if seed.grid != grid:
        return None
    coarse = coarsest_grid(seed.values, grid)
    return None if coarse is grid else coarse


@functools.lru_cache(maxsize=KEPT_WORKSPACES)
def _anderson_workspace(n: int, thread: int):
    """(delta_f, delta_g, delta_lin, gram) for a solve on n points by the
    thread of ident ``thread``, kept for the last KEPT_WORKSPACES (n, thread).
    Their contents are left over from that thread's last solve on n points;
    ``_iterate`` writes every row and entry before it reads it."""
    delta_f = np.empty((ANDERSON_DEPTH, 2 * (n // 2 + 1)))
    return (delta_f, np.empty_like(delta_f), np.empty((ANDERSON_DEPTH, n)),
            np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH)))


def _joined(coarse: SolverDiagnostics, fine: SolverDiagnostics) -> SolverDiagnostics:
    """One history through both stages; the requested grid's verdict."""
    return SolverDiagnostics(
        iterations=coarse.iterations + fine.iterations,
        error_history=np.concatenate([coarse.error_history, fine.error_history]),
        stab_history=np.concatenate([coarse.stab_history, fine.stab_history]),
        res_history=np.concatenate([coarse.res_history, fine.res_history]),
        converged=fine.converged,
    )


def petviashvili_solve(alpha: float, omega: float, grid: SpectralGrid,
                       config: SolverConfig | None = None):
    """The wave at (alpha, omega) on grid from ``config.initial_guess`` (the
    seed; None is the cold start), as a nested iteration; returns (profile,
    diagnostics).

    Where the seed's spectrum allows (``_coarse_grid``), it is first solved
    on a coarse grid of the same half-width from the seed's samples there,
    and the requested grid's solve starts from the coarse wave itself, read
    as its exact interpolant; from the seed where the coarse solve raises
    :class:`DivergenceError` or :class:`DegenerateInputError` or does not
    converge, and then the coarse history is dropped.  ``max_iter`` bounds
    each stage.  The diagnostics run through the kept coarse history, then
    the requested grid's, whose verdict and exceptions are the solve's: a
    solve that does not converge says so there and raises nothing.
    """
    if config is None:
        config = SolverConfig()
    seed = config.initial_guess
    coarse = _coarse_grid(seed, grid)
    start, coarse_diag = seed, None  # the requested grid's start, and its history so far
    if coarse is not None:
        # the seed's values at the shared nodes (None, cold, stays None)
        guess = None if seed is None else RealProfile(
            coarse, seed.values[:: grid.n_points // coarse.n_points])
        try:
            profile, diag = _iterate(
                alpha, omega, coarse, dataclasses.replace(config, initial_guess=guess))
            if diag.converged:
                start, coarse_diag = profile, diag
        except (DivergenceError, DegenerateInputError):
            pass
    profile, diag = _iterate(
        alpha, omega, grid, dataclasses.replace(config, initial_guess=start))
    return profile, diag if coarse_diag is None else _joined(coarse_diag, diag)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite iterate raises instead
def _iterate(alpha: float, omega: float, grid: SpectralGrid, config: SolverConfig):
    """Run the Anderson-mixed stabilized iteration on grid alone; returns
    (profile, diagnostics).  Non-finite iterates and an overflowing
    stabilizing factor raise :class:`DivergenceError`, with no numpy warning.
    """
    check_alpha_omega(alpha, omega)
    beta = config.dispersion_beta
    nu = (alpha + 2.0) / (alpha + 1.0)

    check_omega_width(omega, grid)
    denom = half_symbol(grid, omega, beta)
    # g = M^nu N_hat / denom over the float view: numpy divides a complex by
    # a real as this reciprocal multiply, bit for bit, at twice the cost
    inv_denom = np.repeat(1.0 / denom, 2)
    # w with sum(w |coeffs|^2) = int phi (d^4 - beta d^2 + omega) phi
    weights = grid.dx * half_weights(grid.n_points) * denom
    dx, n = grid.dx, grid.n_points

    phi, coeffs = _initial_guess(alpha, omega, grid, config)
    # lin is the x-space image of denom * coeffs: transformed once from the
    # spectral iterate, where denom * coeffs is exact (a fresh transform of
    # phi would amplify its rounding by xi^4), then carried along with coeffs
    lin = np.fft.irfft(denom * coeffs, n)
    # Anderson history in the float view of the half spectrum: differences of
    # successive residuals f = g - c and images g, with their Gram matrix;
    # and the differences of the images' x-space linear parts M^nu N.  Every
    # row and entry the mixing reads is written first, so the thread's kept
    # workspace is reused as it is left, never zeroed
    delta_f, delta_g, delta_lin, gram = _anderson_workspace(n, threading.get_ident())
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
        try:
            gain = m_n**nu
        except OverflowError:
            raise DivergenceError("iteration produced non-finite values") from None
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
        # image is a real combination of rfft spectra, whose mean and Nyquist
        # modes are exactly real, so irfft drops nothing there
        phi_new = np.fft.irfft(image, n)
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

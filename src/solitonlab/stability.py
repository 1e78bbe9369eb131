"""Branch continuation in omega, the d''(omega) stability map and its thresholds.

d''(omega) is (1/2) d/domega of the squared L2 mass along the solitary
branch.  Differentiating the profile equation in omega gives
L- d_omega(phi) = -phi, so d'' = int phi d_omega(phi) = -<chi, phi> with
L- chi = phi: one even-sector MINRES solve at the wave
(``spectra.negative_direction_scalar``), exact up to discretization.  This
chi form decides every region cell and both thresholds, whose roots Brent's
method finds: alpha0, where d''(omega0(alpha)) changes sign, at the
closed-form wave with no nonlinear solve; omega_c, where d''(omega) changes
sign at fixed alpha, inside a bracket that the coarse branch's forward
differences give.  The forward difference of the trapezoid-rule mass along a
branch (``d_second``) stays as the independent estimate that ``dmap`` writes
and the cross-checks compare with; at a single omega it is the difference of
the two-point branch to omega + h.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketError,
    BranchError,
    DegenerateInputError,
    DivergenceError,
    InsufficientDataError,
    ParameterError,
)
from .explicit import explicit_params, phi_exact
from .grid import RealProfile, SpectralGrid
from .petviashvili import SolverConfig, check_omega_width, petviashvili_solve
from .spectra import negative_direction_scalar


@dataclass
class SolitaryBranch:
    """Ordered family of solitary waves along increasing omega."""

    omegas: np.ndarray
    profiles: list
    masses: np.ndarray
    converged_flags: np.ndarray


@dataclass
class StabilityMap:
    """Sign of d'' on an (alpha, omega) lattice.

    Entries: +1 / -1 for a resolved sign, 0 for |d''| below the noise
    threshold, NaN for failed solves.
    """

    alpha_grid: np.ndarray
    omega_grid: np.ndarray
    sign_matrix: np.ndarray


# the coarse-grid predictor of each branch point may drop the rfft modes of
# its seed below COARSE_CUT of their peak, down to COARSE_MIN_POINTS points
COARSE_CUT = 1e-15
COARSE_MIN_POINTS = 64


def _mass(profile: RealProfile) -> float:
    return float(profile.grid.quadrature(profile.values**2))


def _secant_seed(converged: list, omega: float) -> RealProfile:
    """The secant through the last two converged (omega, profile) pairs, at
    omega; the last profile alone where there is one or both share an omega."""
    w1, p1 = converged[-1]
    if len(converged) < 2 or converged[0][0] == w1:
        return p1
    w0, p0 = converged[0]
    t = (omega - w1) / (w1 - w0)
    return RealProfile(p1.grid, p1.values + t * (p1.values - p0.values))


def _coarse_grid(seed: RealProfile | None, grid: SpectralGrid) -> SpectralGrid | None:
    """The coarsest grid of grid's half-width, of at least COARSE_MIN_POINTS
    points, that drops only rfft modes of the seed below COARSE_CUT of their
    peak; None where not one halving does, or where the seed lives on
    another grid (which the solve refuses).  A real grid keeps only the
    cosine of its Nyquist mode, so that mode counts as dropped.  The cold
    seed is a multiple of exp(-x^2).
    """
    if seed is None:
        values = np.exp(-(grid.nodes**2))
    elif (seed.grid.n_points, seed.grid.half_width) != (grid.n_points, grid.half_width):
        return None
    else:
        values = seed.values
    spectrum = np.abs(np.fft.rfft(values))
    last = int(np.flatnonzero(spectrum >= COARSE_CUT * spectrum.max())[-1])
    n_points = max(COARSE_MIN_POINTS, 1 << (2 * last).bit_length())  # n_points / 2 > last
    return SpectralGrid(n_points, grid.half_width) if n_points < grid.n_points else None


def _transfer(profile: RealProfile | None, grid: SpectralGrid) -> RealProfile | None:
    """The profile on another grid of its half-width, f times coarser or
    finer (f a power of two).  On the coarser grid it is the values at every
    f-th node, where the nodes coincide; on the finer grid, the
    trigonometric interpolant: the rfft zero-padded, its Nyquist term
    halved, since on the finer grid that mode stands for itself and its
    conjugate.  None, the cold start, stays None: the Gaussian on the coarse
    grid is the fine one's samples.
    """
    if profile is None:
        return None
    n, m = profile.grid.n_points, grid.n_points
    if m < n:
        return RealProfile(grid, profile.values[:: n // m])
    coeffs = np.zeros(m // 2 + 1, dtype=complex)
    coeffs[: n // 2 + 1] = np.fft.rfft(profile.values)
    coeffs[n // 2] *= 0.5
    return RealProfile(grid, np.fft.irfft(coeffs, m) * (m // n))


def _sweep(alpha: float, omegas, grid: SpectralGrid | None, config: SolverConfig | None):
    """Warm-started Petviashvili solves along omegas, one per item drawn.

    Yields (profile, converged) per omega; profile is None where the solve
    diverged or degenerated.  The first solve starts from ``config``, the
    next from the last converged profile, and every later one from the
    secant through the last two; a failure restarts that sequence.

    Each point is a nested iteration.  Where the seed's spectrum allows
    (``_coarse_grid``), it is first solved on a coarse grid of the same
    half-width from the seed's samples there, and the requested grid's
    solve starts from the coarse wave's interpolant; where the coarse solve
    fails, it starts from the seed.  The requested grid's solve gives the
    point's profile and verdict.
    """
    if grid is None:
        grid = SpectralGrid()
    if config is None:
        config = SolverConfig()
    converged_points = []  # the last one or two consecutive converged (omega, profile)
    for omega in map(float, omegas):
        seed = _secant_seed(converged_points, omega) if converged_points else config.initial_guess
        coarse = _coarse_grid(seed, grid)
        start = seed  # of the requested grid's solve
        for stage in (grid,) if coarse is None else (coarse, grid):
            guess = start if stage is grid else _transfer(seed, stage)
            try:
                profile, diag = petviashvili_solve(
                    alpha, omega, stage, dataclasses.replace(config, initial_guess=guess))
                converged = diag.converged
            except (DivergenceError, DegenerateInputError):
                profile, converged = None, False
            if converged and stage is coarse:
                start = _transfer(profile, grid)
        yield profile, converged
        converged_points = [*converged_points[-1:], (omega, profile)] if converged else []


def continue_branch(
    alpha: float,
    omega_start: float,
    omega_end: float,
    n_steps: int,
    grid: SpectralGrid | None = None,
    config: SolverConfig | None = None,
) -> SolitaryBranch:
    """Warm-started Petviashvili sweep over [omega_start, omega_end].

    A failure on the first point raises :class:`BranchError`; a mid-branch
    failure (not converged, diverged or degenerate) truncates the branch at
    the failed point, which is flagged not-converged.
    """
    if not (0 < omega_start < omega_end):
        raise ParameterError("need 0 < omega_start < omega_end")
    if n_steps < 2:
        raise ParameterError("n_steps must be >= 2")

    omegas = np.linspace(omega_start, omega_end, n_steps)
    profiles, masses, flags = [], [], []
    for profile, converged in _sweep(alpha, omegas, grid, config):
        if not profiles and not converged:
            state = "diverged or degenerated" if profile is None else "did not converge"
            raise BranchError(f"first branch point {state} at omega={omega_start:g}")
        profiles.append(profile)
        masses.append(np.nan if profile is None else _mass(profile))
        flags.append(converged)
        if not converged:
            break
    return SolitaryBranch(omegas=omegas[:len(profiles)], profiles=profiles,
                          masses=np.asarray(masses), converged_flags=np.asarray(flags, dtype=bool))


def _forward_d2(omegas: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """d'' of each consecutive pair, attributed to the left point; NaN where
    either mass is NaN (a failed solve)."""
    return 0.5 * np.diff(masses) / np.diff(omegas)


def d_second(branch: SolitaryBranch) -> np.ndarray:
    """Forward-difference d'' samples, attributed to the left endpoint.

    Returns an array of (omega, d2) rows, one per consecutive pair of
    converged branch points.
    """
    d2 = _forward_d2(branch.omegas, np.where(branch.converged_flags, branch.masses, np.nan))
    ok = ~np.isnan(d2)
    if not ok.any():
        raise InsufficientDataError("need at least 2 consecutive converged points")
    return np.column_stack([branch.omegas[:-1][ok], d2[ok]])


def classify_sign(d2, mass, omega):
    """Sign of d'' (+1, -1, or 0 inside a scale-aware dead band around zero),
    elementwise; NaN stays NaN."""
    threshold = 1e-6 * mass / omega
    return np.where(np.abs(d2) < threshold, 0.0, np.sign(d2))


def sample_signs(branch: SolitaryBranch, samples: np.ndarray) -> np.ndarray:
    """classify_sign of each d_second sample, against the mass at its omega."""
    omegas, d2 = samples.T
    return classify_sign(d2, branch.masses[np.searchsorted(branch.omegas, omegas)], omegas)


def _chi_d2(profile: RealProfile, alpha: float, omega: float, beta: float) -> float:
    """d'' = -<chi, phi> at a solved wave, where L- chi = phi."""
    return -negative_direction_scalar(profile, alpha, omega, beta)


def _brent(f, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    """Root of f in [a, b], given fa = f(a) and fb = f(b) of opposite signs,
    to within tol, by Brent's method: inverse quadratic interpolation or a
    secant step where it stays well inside the bracket and shrinks it fast
    enough, bisection otherwise."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if fb * fc > 0:  # keep the root between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the best estimate so far
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0:
            return float(b)
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0 else (-p, q)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)


def find_omega_c(
    alpha: float,
    omega_range: tuple[float, float],
    grid: SpectralGrid | None = None,
    config: SolverConfig | None = None,
    tol_omega: float = 1e-10,
    n_coarse: int = 16,
):
    """Frequency where d'' changes sign; None if the coarse branch shows no change.

    The first change of the forward-difference signs along an n_coarse-point
    branch brackets the root between branch points; Brent's method then
    finds the root of the chi form of d'' there, each solve seeded from the
    last.  The chi form at the branch's own profiles gives the bracket's
    ends.  The forward differences are attributed to their left point, so
    the root may lie one interval further right, where the bracket then
    moves.
    """
    lo, hi = omega_range
    if config is None:
        config = SolverConfig()
    branch = continue_branch(alpha, lo, hi, n_coarse, grid, config)
    samples = d_second(branch)
    signs = sample_signs(branch, samples)
    changes = np.flatnonzero(signs[:-1] * signs[1:] < 0)  # resolved signs that differ
    if changes.size == 0:
        return None
    i = int(np.searchsorted(branch.omegas, samples[changes[0], 0]))
    omegas, profiles = branch.omegas, branch.profiles
    beta = config.dispersion_beta
    fa = _chi_d2(profiles[i], alpha, omegas[i], beta)
    fb = _chi_d2(profiles[i + 1], alpha, omegas[i + 1], beta)
    if fa * fb > 0:
        i, fa = i + 1, fb
        fb = _chi_d2(profiles[i + 1], alpha, omegas[i + 1], beta)
        if fa * fb > 0:
            raise BracketError(f"d'' does not change sign over [{omegas[i - 1]:g},"
                               f" {omegas[i + 1]:g}] (values {fa:.3e}, {fb:.3e})")
    seed = profiles[i]

    def d2(omega):  # each solve seeds from the last, the first from the bracket's left end
        nonlocal seed
        warm = dataclasses.replace(config, initial_guess=seed)
        ((seed, converged),) = _sweep(alpha, [omega], grid, warm)
        if not converged:
            raise BranchError(f"solve at omega={omega:g} did not converge")
        return _chi_d2(seed, alpha, omega, beta)

    return _brent(d2, omegas[i], omegas[i + 1], fa, fb, tol_omega)


def find_alpha0(
    alpha_bracket: tuple[float, float],
    grid: SpectralGrid | None = None,
    tol_alpha: float = 1e-10,
) -> float:
    """Root of d''(omega0(alpha)) over the bracket, by Brent's method on the
    chi form at the closed-form wave, which is the solution at omega0."""
    if grid is None:
        grid = SpectralGrid()

    def d2(alpha):
        omega0 = explicit_params(alpha).omega0
        check_omega_width(omega0, grid)
        return _chi_d2(phi_exact(alpha, grid), alpha, omega0, 1.0)

    lo, hi = alpha_bracket
    g_lo, g_hi = d2(lo), d2(hi)
    if not (g_lo > 0 > g_hi):
        raise BracketError(
            f"d''(omega0) does not change sign over [{lo}, {hi}]"
            f" (values {g_lo:.3e}, {g_hi:.3e})"
        )
    return _brent(d2, lo, hi, g_lo, g_hi, tol_alpha)


def _scan_row(args):
    """Signs of one alpha row, each cell from the chi form at its own wave."""
    alpha, omegas, n_points, half_width, config = args
    grid = SpectralGrid(n_points, half_width)
    d2, masses = np.full((2, omegas.size), np.nan)
    for j, (profile, converged) in enumerate(_sweep(alpha, omegas, grid, config)):
        if converged:
            d2[j] = _chi_d2(profile, alpha, omegas[j], config.dispersion_beta)
            masses[j] = _mass(profile)
    return classify_sign(d2, masses, omegas)


def region_scan(
    alpha_grid,
    omega_grid,
    grid: SpectralGrid | None = None,
    config: SolverConfig | None = None,
    jobs: int = 1,
) -> StabilityMap:
    """Sign of d'' on the (alpha, omega) lattice, each cell from its own
    wave; a cell whose solve fails becomes NaN."""
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    omega_grid = np.asarray(omega_grid, dtype=float)
    if alpha_grid.size == 0 or omega_grid.size == 0:
        raise ParameterError("need a nonempty alpha_grid and omega_grid")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    if np.any(omega_grid <= 0):
        raise ParameterError("omega values must be positive")
    if grid is None:
        grid = SpectralGrid()
    if config is None:
        config = SolverConfig()
    check_omega_width(float(omega_grid.min()), grid)  # before any cell is solved
    tasks = [
        (float(a), omega_grid, grid.n_points, grid.half_width, config)
        for a in alpha_grid
    ]
    workers = min(jobs, len(tasks))  # the pool starts every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_row, tasks))
    else:
        rows = [_scan_row(t) for t in tasks]
    return StabilityMap(
        alpha_grid=alpha_grid,
        omega_grid=omega_grid,
        sign_matrix=np.vstack(rows),
    )

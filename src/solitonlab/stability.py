"""Branch continuation in omega and the numerical d''(omega) stability map.

d''(omega) = (1/2) d/domega of the squared L2 mass along the solitary
branch, discretized with the trapezoid rule for the mass and a forward
difference in omega.  Threshold detection locates omega_c (sign change in
omega for fixed alpha) and alpha0 (sign change of d'' at omega0(alpha)).
"""

from __future__ import annotations

import dataclasses
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
from .explicit import explicit_params
from .grid import RealProfile, SpectralGrid
from .petviashvili import SolverConfig, check_omega_width, petviashvili_solve

# forward-difference step for pointwise d'' evaluations
DEFAULT_OMEGA_DELTA = 2e-3


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


def _mass(profile: RealProfile) -> float:
    return float(profile.grid.quadrature(profile.values**2))


def _sweep(alpha: float, omegas, grid: SpectralGrid | None, config: SolverConfig | None):
    """Warm-started Petviashvili solves along omegas, one per item drawn.

    Yields (profile, converged) per omega; profile is None where the solve
    diverged or degenerated.  Each solve seeds from the last converged
    profile; the first solve after a failure restarts cold.
    """
    if config is None:
        config = SolverConfig()
    seed_config = config
    for omega in omegas:
        try:
            profile, diag = petviashvili_solve(alpha, float(omega), grid, seed_config)
            converged = diag.converged
        except (DivergenceError, DegenerateInputError):
            profile, converged = None, False
        yield profile, converged
        seed_config = dataclasses.replace(config, initial_guess=profile) if converged else config


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
    if grid is None:
        grid = SpectralGrid()

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


def d_second_at(
    alpha: float,
    omega: float,
    grid: SpectralGrid | None = None,
    config: SolverConfig | None = None,
    delta: float = DEFAULT_OMEGA_DELTA,
):
    """Forward-difference d'' at omega, from a two-point sweep to omega + delta.

    Returns (d2, mass, profile) with the wave at omega; a failed solve raises
    :class:`BranchError` before the next is tried.
    """
    omegas = np.array([omega, omega + delta])
    profiles = []
    for w, (profile, converged) in zip(omegas, _sweep(alpha, omegas, grid, config)):
        if not converged:
            raise BranchError(f"solve at omega={w:g} did not converge")
        profiles.append(profile)
    masses = np.array([_mass(p) for p in profiles])
    return float(_forward_d2(omegas, masses)[0]), float(masses[0]), profiles[0]


def _bisect(keep_left, a: float, b: float, tol: float) -> float:
    """Final midpoint of the bisection of [a, b] down to width tol; keep_left(mid)
    is true where mid has the left end's sign, so the root lies right of mid."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        if keep_left(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def find_omega_c(
    alpha: float,
    omega_range: tuple[float, float],
    grid: SpectralGrid | None = None,
    config: SolverConfig | None = None,
    tol_omega: float = 1e-3,
    n_coarse: int = 16,
):
    """Bisect for the frequency where d'' changes sign; None if no change."""
    lo, hi = omega_range
    if config is None:
        config = SolverConfig()
    branch = continue_branch(alpha, lo, hi, n_coarse, grid, config)
    samples = d_second(branch)
    signs = sample_signs(branch, samples)
    changes = np.flatnonzero(signs[:-1] * signs[1:] < 0)  # resolved signs that differ
    if changes.size == 0:
        return None
    i = changes[0]
    seed = branch.profiles[int(np.searchsorted(branch.omegas, samples[i, 0]))]

    def keep_left(mid):  # each solve seeds from the last, the first from the bracket's left end
        nonlocal seed
        warm = dataclasses.replace(config, initial_guess=seed)
        d2, mass, seed = d_second_at(alpha, mid, grid, warm)
        return classify_sign(d2, mass, mid) == signs[i]

    return _bisect(keep_left, samples[i, 0], samples[i + 1, 0], tol_omega)


def d_second_at_omega0(alpha: float, grid: SpectralGrid | None = None) -> float:
    """d'' evaluated on the branch at the explicit-solution frequency."""
    return d_second_at(alpha, explicit_params(alpha).omega0, grid)[0]


def find_alpha0(
    alpha_bracket: tuple[float, float],
    grid: SpectralGrid | None = None,
    tol_alpha: float = 0.05,
) -> float:
    """Root of d''(omega0(alpha)) over the bracket, by bisection."""
    lo, hi = alpha_bracket
    g_lo = d_second_at_omega0(lo, grid)
    g_hi = d_second_at_omega0(hi, grid)
    if not (g_lo > 0 > g_hi):
        raise BracketError(
            f"d''(omega0) does not change sign over [{lo}, {hi}]"
            f" (values {g_lo:.3e}, {g_hi:.3e})"
        )
    return _bisect(lambda mid: d_second_at_omega0(mid, grid) > 0, lo, hi, tol_alpha)


def _scan_row(args):
    alpha, extended, n_points, half_width, config = args
    grid = SpectralGrid(n_points, half_width)
    masses = np.array([
        _mass(profile) if converged else np.nan
        for profile, converged in _sweep(alpha, extended, grid, config)
    ])
    return classify_sign(_forward_d2(extended, masses), masses[:-1], extended[:-1])


def region_scan(
    alpha_grid,
    omega_grid,
    grid: SpectralGrid | None = None,
    config: SolverConfig | None = None,
    jobs: int = 1,
) -> StabilityMap:
    """Sign of d'' on the (alpha, omega) lattice; failed cells become NaN."""
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    omega_grid = np.asarray(omega_grid, dtype=float)
    if alpha_grid.size == 0 or omega_grid.size < 2:
        raise ParameterError("need a nonempty alpha_grid and at least 2 omega values")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    # one extra point past the end so every cell has a forward difference
    extended = np.append(omega_grid, omega_grid[-1] + (omega_grid[-1] - omega_grid[-2]))
    if np.any(extended <= 0):
        raise ParameterError("omega values must be positive")
    if grid is None:
        grid = SpectralGrid()
    check_omega_width(float(extended.min()), grid)  # before any cell is solved
    tasks = [
        (float(a), extended, grid.n_points, grid.half_width, config)
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

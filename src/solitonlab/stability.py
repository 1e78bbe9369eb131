"""Branch continuation in omega, the d''(omega) stability map and its thresholds.

d''(omega) is (1/2) d/domega of the squared L2 mass along the solitary
branch.  Differentiating the profile equation in omega gives
L- d_omega(phi) = -phi, so d'' = int phi d_omega(phi) = -<chi, phi> with
L- chi = phi: one even-sector MINRES solve at the wave
(``spectra.negative_direction_scalar``), exact up to discretization, run on
the coarsest grid that resolves the wave's potential and certified on the
wave's own grid.  This chi form decides every region cell and both
thresholds, whose roots Brent's method finds: alpha0, where d''(omega0(alpha))
changes sign, at the closed-form wave with no nonlinear solve; omega_c, where
d''(omega) changes sign at fixed alpha, between the ends of the omega range
(lo, hi) it is given, as the root of the scale-free d'' omega / M(phi) (what
``classify_sign`` compares with its dead band) in s = hi log(omega), far less
steep and lopsided there than d'' is in omega.  The forward difference of the
trapezoid-rule mass along a branch (``d_second``) stays as the independent
estimate that the cross-checks compare with: it returns the very rows that
``dmap`` writes, (omega, d'', sign), and at a single omega it is the
difference of the two-point branch to omega + h.

Each branch point, region cell and ``find_omega_c`` point is the nested
iteration ``petviashvili_solve``.  ``region_scan`` runs its alpha rows in up
to ``jobs`` processes, the calling one included.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BranchError, DegenerateInputError, DivergenceError, ParameterError
from .explicit import explicit_params, phi_exact
from .grid import RealProfile, SpectralGrid, lattice
from .petviashvili import SolverConfig, check_omega_width, petviashvili_solve
from .spectra import negative_direction_scalar


@dataclass
class SolitaryBranch:
    """Ordered family of solitary waves along increasing omega: each point's
    trapezoid-rule mass (NaN where its solve raised) and verdict."""

    omegas: np.ndarray
    masses: np.ndarray
    converged_flags: np.ndarray


@dataclass
class StabilityMap:
    """Sign of d'' on an (alpha, omega) lattice.

    Entries: +1 / -1 for a resolved sign, 0 for |d''| below the noise
    threshold, NaN for failed solves.
    """

    sign_matrix: np.ndarray


# the width of both threshold searches' final Brent bracket: in alpha for
# find_alpha0, in hi log(omega) for find_omega_c, where it is TOL_ROOT omega /
# hi <= TOL_ROOT in omega; their roots carry MINRES's 1e-12 stop, and a change
# of the chi solve's grid or rounding moves them by up to about 5e-11
TOL_ROOT = 1e-10


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


def _sweep(alpha: float, omegas, grid: SpectralGrid | None, config: SolverConfig | None):
    """Warm-started solves (``petviashvili_solve``) along omegas, one per
    item drawn.

    Yields (profile, converged) per omega; profile is None where the solve
    diverged or degenerated.  The first solve starts from ``config``, the
    next from the last converged profile, and every later one from the
    secant through the last two; a failure restarts that sequence.
    """
    if config is None:
        config = SolverConfig()
    converged_points = []  # the last one or two consecutive converged (omega, profile)
    for omega in map(float, omegas):
        seed = _secant_seed(converged_points, omega) if converged_points else config.initial_guess
        try:
            profile, diag = petviashvili_solve(
                alpha, omega, grid, dataclasses.replace(config, initial_guess=seed))
            converged = diag.converged
        except (DivergenceError, DegenerateInputError):
            profile, converged = None, False
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
    if not (0 < omega_start < omega_end < np.inf):
        raise ParameterError("need 0 < omega_start < omega_end < inf")
    if n_steps < 2:
        raise ParameterError("n_steps must be >= 2")

    omegas = lattice(omega_start, omega_end, n_steps, "n_steps")
    masses, flags = [], []
    for profile, converged in _sweep(alpha, omegas, grid, config):
        if not flags and not converged:
            state = "diverged or degenerated" if profile is None else "did not converge"
            raise BranchError(f"first branch point {state} at omega={omega_start:g}")
        masses.append(np.nan if profile is None else _mass(profile))
        flags.append(converged)
        if not converged:
            break
    return SolitaryBranch(omegas=omegas[:len(flags)], masses=np.asarray(masses),
                          converged_flags=np.asarray(flags, dtype=bool))


def d_second(branch: SolitaryBranch) -> np.ndarray:
    """The (omega, d'', sign) rows of ``dmap``, one per consecutive pair of
    converged branch points: d'' is half the forward difference of the
    masses int phi^2, placed at the pair's left point and classified against
    its mass.

    Raises :class:`BranchError` where the branch has no such pair.
    """
    masses = np.where(branch.converged_flags, branch.masses, np.nan)
    d2 = 0.5 * np.diff(masses) / np.diff(branch.omegas)  # NaN past a failed point
    ok = ~np.isnan(d2)
    if not ok.any():
        raise BranchError(f"branch truncated at omega={branch.omegas[-1]:g}:"
                          " need at least 2 consecutive converged points")
    omegas, d2 = branch.omegas[:-1][ok], d2[ok]
    return np.column_stack([omegas, d2, classify_sign(d2, masses[:-1][ok], omegas)])


def classify_sign(d2, mass, omega):
    """Sign of d'' (+1, -1, or 0 inside a scale-aware dead band around zero),
    elementwise; NaN stays NaN."""
    threshold = 1e-6 * mass / omega
    return np.where(np.abs(d2) < threshold, 0.0, np.sign(d2))


def _brent(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f in [a, b], given fa = f(a) and fb = f(b) of opposite signs,
    to within TOL_ROOT, by Brent's method: inverse quadratic interpolation or a
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
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * TOL_ROOT
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
):
    """Frequency in omega_range = (lo, hi) where d'' changes sign, by Brent's
    method on the chi form's d'' omega / M(phi) in s = hi log(omega), between
    the ends of the range, each solve seeded from the one before it, the
    first from ``config``; None where d'' has one sign at both ends.  Where
    the range holds more than one crossing, Brent returns one of them; d''
    crosses once for alpha in (4, 8).  A solve that does not
    converge raises :class:`BranchError`."""
    lo, hi = omega_range
    if not (0 < lo < hi < np.inf):
        raise ParameterError("need 0 < omega_start < omega_end < inf")
    if config is None:
        config = SolverConfig()
    seed = config.initial_guess

    def d2(omega):  # d'' omega / M(phi)
        nonlocal seed
        warm = dataclasses.replace(config, initial_guess=seed)
        ((seed, converged),) = _sweep(alpha, [omega], grid, warm)
        if not converged:
            raise BranchError(f"solve at omega={omega:g} did not converge")
        chi_phi = negative_direction_scalar(seed, alpha, omega, config.dispersion_beta)
        return -chi_phi * omega / _mass(seed)

    f_lo, f_hi = d2(lo), d2(hi)
    if f_lo * f_hi > 0:
        return None
    s = _brent(lambda s: d2(math.exp(s / hi)), hi * math.log(lo), hi * math.log(hi), f_lo, f_hi)
    return math.exp(s / hi)


def find_alpha0(alpha_bracket: tuple[float, float], grid: SpectralGrid | None = None) -> float:
    """Root of d''(omega0(alpha)) over the bracket, by Brent's method on the
    chi form at the closed-form wave, which is the solution at omega0.  A
    bracket over which d'' does not go from + to - raises
    :class:`ParameterError`."""
    if grid is None:
        grid = SpectralGrid()

    def d2(alpha):
        omega0 = explicit_params(alpha).omega0
        check_omega_width(omega0, grid)
        return -negative_direction_scalar(phi_exact(alpha, grid), alpha, omega0, 1.0)

    lo, hi = alpha_bracket
    g_lo, g_hi = d2(lo), d2(hi)
    if not (g_lo > 0 > g_hi):
        raise ParameterError(
            f"d''(omega0) does not change sign over [{lo}, {hi}]"
            f" (values {g_lo:.3e}, {g_hi:.3e})"
        )
    return _brent(d2, lo, hi, g_lo, g_hi)


def _scan_row(args):
    """Signs of one alpha row, each cell from the chi form at its own wave."""
    alpha, omegas, n_points, half_width, config = args
    grid = SpectralGrid(n_points, half_width)
    d2, masses = np.full((2, omegas.size), np.nan)
    for j, (profile, converged) in enumerate(_sweep(alpha, omegas, grid, config)):
        if converged:
            d2[j] = -negative_direction_scalar(profile, alpha, omegas[j], config.dispersion_beta)
            masses[j] = _mass(profile)
    return classify_sign(d2, masses, omegas)


def _scan_rows(tasks) -> list:
    """_scan_row of each task, in order: one worker's stripe of the lattice."""
    return [_scan_row(t) for t in tasks]


def region_scan(
    alpha_grid,
    omega_grid,
    grid: SpectralGrid | None = None,
    config: SolverConfig | None = None,
    jobs: int = 1,
) -> StabilityMap:
    """Sign of d'' on the (alpha, omega) lattice, each cell from its own
    wave; a cell whose solve fails becomes NaN.  The rows run in
    w = min(jobs, rows) processes, the calling one included: process i scans
    rows i, i + w, ..."""
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
    # the parent is one of the workers: it scans stripe 0 while a pool of
    # workers - 1 processes scans the others (the pool starts them all at once)
    workers = min(jobs, len(tasks))
    stripes = [tasks[i::workers] for i in range(workers)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers - 1) as pool:
            pooled = pool.map(_scan_rows, stripes[1:])
            scanned = [_scan_rows(stripes[0]), *pooled]
    else:
        scanned = [_scan_rows(stripes[0])]
    rows = [None] * len(tasks)
    for i, stripe in enumerate(scanned):
        rows[i::workers] = stripe
    return StabilityMap(sign_matrix=np.vstack(rows))

"""The plain complex-FFT Petviashvili loop, kept as a test oracle.

This is the solver loop as it stood before it moved to rfft half spectra and
to Anderson mixing: every iteration takes the plain stabilized step, with the
full complex FFT of the profile and of its nonlinearity, inverts the new
iterate, and transforms the nonlinearity of the new iterate again for the
residual, i.e. 5 complex FFTs and 2 nonlinearity passes.  The production
solver must reach the same verdict and, when it converges, the same profile
to 1e-12 in no more iterations.
"""

import numpy as np

from solitonlab.errors import DegenerateInputError, DivergenceError, ParameterError
from solitonlab.grid import RealProfile, SpectralGrid
from solitonlab.petviashvili import (
    TOL_ERROR,
    TOL_RES,
    TOL_STAB,
    SolverConfig,
    SolverDiagnostics,
    _initial_guess,
    _recenter,
    nonlinearity,
)

IMAG_RESIDUE_TOL = 1e-13


def reference_solve(alpha, omega, grid=None, config=None):
    """Run the complex-FFT stabilized iteration; returns (profile, diagnostics)."""
    if not alpha > 0 or not omega > 0:
        raise ParameterError("alpha and omega must be positive")
    if grid is None:
        grid = SpectralGrid(8192, 200.0)
    if config is None:
        config = SolverConfig()
    beta = config.dispersion_beta
    nu = (alpha + 2.0) / (alpha + 1.0)

    xi = grid.wavenumbers
    denom = xi**4 + beta * xi**2 + omega
    dx, n = grid.dx, grid.n_points

    phi = _initial_guess(alpha, omega, grid, config)[0]
    errors, stabs, residuals = [], [], []
    converged = False

    for _ in range(config.max_iter):
        phi_hat = np.fft.fft(phi)
        nl = nonlinearity(phi, alpha)
        nl_hat = np.fft.fft(nl)
        numerator = dx / n * float(np.sum(denom * np.abs(phi_hat) ** 2))
        denominator = dx * float(np.sum(nl * phi))
        if denominator == 0.0:
            raise DegenerateInputError("nonlinear pairing vanished during iteration")
        m_n = numerator / denominator
        new_hat = m_n**nu * nl_hat / denom
        phi_new_c = np.fft.ifft(new_hat)
        scale = max(float(np.max(np.abs(phi_new_c.real))), 1.0)
        if float(np.max(np.abs(phi_new_c.imag))) > IMAG_RESIDUE_TOL * scale:
            raise DivergenceError("iterate acquired a non-negligible imaginary part")
        phi_new = phi_new_c.real
        if not np.all(np.isfinite(phi_new)):
            raise DivergenceError("iteration produced non-finite values")

        error = float(np.max(np.abs(phi_new - phi)))
        # residual of the spectral iterate: denom * new_hat is exact in
        # coefficient space, avoiding the xi^4 noise amplification of a
        # fresh physical-space transform
        nl_new_hat = np.fft.fft(nonlinearity(phi_new, alpha))
        res = float(np.max(np.abs(np.fft.ifft(denom * new_hat - nl_new_hat))))
        errors.append(error)
        stabs.append(abs(1.0 - m_n))
        residuals.append(res)
        phi = phi_new
        if (
            error <= TOL_ERROR
            and abs(1.0 - m_n) <= TOL_STAB
            and res <= TOL_RES
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

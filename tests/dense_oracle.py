"""Dense small-N oracles for the matrix-free linearized operators.

The operators are built here the direct way, as an N x N circulant for the
Fourier multiplier plus a diagonal potential, and diagonalized with a dense
``eigh``.  This costs O(N^2) memory and O(N^3) time, so it is only for the
tests, at N <= 2048.
"""

import numpy as np
import scipy.linalg

from solitonlab.errors import ParameterError
from solitonlab.spectra import EigenReport, _Sector

MAX_N = 2048


def multiplier_matrix(grid, symbol):
    """Dense matrix of a Fourier multiplier (circulant for a periodic grid)."""
    if grid.n_points > MAX_N:
        raise ParameterError(f"dense oracle limited to N <= {MAX_N}")
    values = np.asarray(symbol(grid.wavenumbers), dtype=float)
    column = np.fft.ifft(values).real
    return scipy.linalg.circulant(column)


def dense_operator(profile, alpha, omega, which="Lminus", beta=1.0):
    """Dense symmetric Lminus or Lplus at the given profile."""
    matrix = multiplier_matrix(profile.grid, lambda xi: xi**4 + beta * xi**2 + omega)
    factor = alpha + 1.0 if which == "Lminus" else 1.0
    matrix[np.diag_indices_from(matrix)] -= factor * np.abs(profile.values) ** alpha
    return 0.5 * (matrix + matrix.T)


def dense_report(matrix, tol_zero=None, n_small=8):
    """Eigenvalue counts of a bare dense symmetric matrix by ``eigh``.

    Computes the ``n_small`` smallest eigenpairs and doubles the window until
    the largest clears ``tol_zero``, as ``spectra.eigen_report`` does.  A bare
    matrix carries no omega to scale a default from, so ``tol_zero`` is
    required.
    """
    if tol_zero is None:
        raise ParameterError("tol_zero is required for a bare matrix")
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    k = min(n_small, n)
    while True:
        vals, vecs = scipy.linalg.eigh(matrix, subset_by_index=(0, k - 1))
        if vals[-1] > tol_zero or k == n:
            break
        k = min(2 * k, n)
    return EigenReport(
        eigenvalues=vals,
        eigenvectors=vecs,
        n_negative=int(np.sum(vals < -tol_zero)),
        n_zero=int(np.sum(np.abs(vals) <= tol_zero)),
    )


def restrict_even_sector(matrix):
    """Project a dense operator onto even functions (removes odd zero modes)."""
    n = matrix.shape[0]
    half = n // 2
    basis = np.zeros((n, half + 1))
    basis[0, 0] = 1.0
    basis[half, half] = 1.0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(1, half):
        basis[j, j] = inv_sqrt2
        basis[n - j, j] = inv_sqrt2
    reduced = basis.T @ matrix @ basis
    return 0.5 * (reduced + reduced.T)


def operator_matrix(op):
    """The N x N matrix of a matrix-free operator, one ``apply`` per column."""
    n = op.potential.size
    if n > MAX_N:
        raise ParameterError(f"dense oracle limited to N <= {MAX_N}")
    return np.column_stack([op.apply(e) for e in np.eye(n)])


def full_sector_eigenvalues(op, count):
    """The ``count`` smallest eigenvalues of both parity sectors of ``op``,
    each sector's full matrix built one ``_Sector.apply`` per column and
    diagonalized by ``eigh``.  They are returned as Rayleigh quotients of
    eigh's eigenvectors: eigh's own values carry eps |A|, about 1e-11 at
    dx = 0.2, the quotients do not."""
    if op.potential.size > MAX_N:
        raise ParameterError(f"dense oracle limited to N <= {MAX_N}")
    dense = []
    for sign in (1, -1):
        sector = _Sector(op, sign)
        full = np.column_stack([sector.apply(e) for e in np.eye(sector.symbol.size)])
        full = 0.5 * (full + full.T)
        vecs = scipy.linalg.eigh(full, subset_by_index=(0, count - 1))[1]
        dense.append(np.einsum("ij,ij->j", vecs, full @ vecs))
    return np.sort(np.concatenate(dense))[:count]

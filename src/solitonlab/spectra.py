"""Matrix-free linearized operators and eigenvalue counting.

The two diagonal blocks of the linearization at a solitary wave are

    Lminus = d^4/dx^4 - beta d^2/dx^2 + omega - (alpha+1) |phi|^alpha
    Lplus  = d^4/dx^4 - beta d^2/dx^2 + omega -           |phi|^alpha

applied with real FFTs as (Fourier multiplier) + (diagonal potential).  The
low spectrum comes from shift-invert Lanczos in the even and odd sectors, so
the odd kernel phi' is split off by symmetry.  Counts of negative and zero
eigenvalues certify the spectral propositions; the PF(2) check certifies
log-concavity of the transformed nonlinearity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .errors import DeflationSolveError, DomainError, ParameterError
from .grid import RealProfile
from .petviashvili import half_symbol, half_weights, power


@dataclass(frozen=True, eq=False)
class LinearizedOperator:
    """Lminus or Lplus: an rfft half-spectrum symbol plus a potential."""

    symbol: np.ndarray
    potential: np.ndarray
    which: str
    omega: float

    def apply(self, v: np.ndarray) -> np.ndarray:
        n = self.potential.size
        return np.fft.irfft(self.symbol * np.fft.rfft(v), n) + self.potential * v


@dataclass(frozen=True)
class EigenReport:
    """Low-lying spectrum of a linearized operator.

    ``eigenvalues``/``eigenvectors`` hold the computed smallest part of the
    spectrum (enough to contain everything below ``tol_zero``).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    n_negative: int
    n_zero: int
    tol_zero: float

    @property
    def smallest_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[:6]


def build_operator(
    profile: RealProfile,
    alpha: float,
    omega: float,
    which: str = "Lminus",
    beta: float = 1.0,
) -> LinearizedOperator:
    """Lminus or Lplus at the given solitary-wave profile."""
    if which not in ("Lminus", "Lplus"):
        raise ParameterError(f"which must be 'Lminus' or 'Lplus', got {which!r}")
    factor = alpha + 1.0 if which == "Lminus" else 1.0
    potential = -factor * power(profile.values, alpha)
    return LinearizedOperator(half_symbol(profile.grid, omega, beta), potential, which, omega)


class _Sector:
    """One parity sector of an operator, in orthonormal Fourier coordinates.

    Even vectors have real rfft coefficients, odd vectors imaginary ones
    without the mean and Nyquist terms; scaled for Parseval, these are
    coordinates in which the symbol is diagonal.  Taking them projects v onto
    (v + v(-x))/2 or (v - v(-x))/2, where v(-x) is np.roll(v[::-1], 1).
    """

    def __init__(self, op: LinearizedOperator, sign: int) -> None:
        self.op, self.n = op, op.potential.size
        self.keep, self.unit = (slice(None), 1.0) if sign > 0 else (slice(1, -1), 1j)
        self.weight, self.symbol = np.sqrt(half_weights(self.n))[self.keep], op.symbol[self.keep]
        m = self.symbol.size
        self.linear = scipy.sparse.linalg.LinearOperator((m, m), matvec=self.apply, dtype=float)

    def coords(self, v: np.ndarray) -> np.ndarray:
        return (np.fft.rfft(v)[self.keep] / self.unit).real * self.weight

    def values(self, y: np.ndarray) -> np.ndarray:
        coeffs = np.zeros(self.n // 2 + 1, dtype=complex)
        coeffs[self.keep] = self.unit * y / self.weight
        return np.fft.irfft(coeffs, self.n)

    def apply(self, y: np.ndarray) -> np.ndarray:
        return self.symbol * y + self.coords(self.op.potential * self.values(y))

    def solve(self, rhs: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """(L - shift)^-1 rhs by MINRES, preconditioned by (symbol - shift)^-1."""
        pre = scipy.sparse.linalg.LinearOperator(
            self.linear.shape, matvec=lambda y: y / (self.symbol - shift), dtype=float)
        y, info = scipy.sparse.linalg.minres(
            self.linear, rhs, M=pre, shift=shift, rtol=1e-12, maxiter=10 * rhs.size)
        if info != 0:
            raise DeflationSolveError(f"MINRES did not converge (info={info})")
        return y

    def lowest(self, k: int, shift: float):
        """The k lowest eigenpairs above ``shift``, by shift-invert Lanczos."""
        m = self.symbol.size
        k = min(k, m - 1)
        # fixed broadband start vector, so repeated runs give identical output
        start = self.coords(np.cos(np.sqrt(2.0) * np.arange(self.n) ** 2))
        inverse = scipy.sparse.linalg.LinearOperator(
            (m, m), matvec=lambda y: self.solve(y, shift), dtype=float)
        vals, vecs = scipy.sparse.linalg.eigsh(
            self.linear, k, sigma=shift, which="LM", OPinv=inverse, v0=start,
            ncv=min(max(24, 2 * k + 1), m), tol=1e-10)
        return vals, np.column_stack([self.values(y) for y in vecs.T])


def default_tol_zero(omega: float) -> float:
    return 1e-6 * (omega + 1.0)


def eigen_report(
    op: LinearizedOperator, tol_zero: float | None = None, n_small: int = 8
) -> EigenReport:
    """Count negative and (numerically) zero eigenvalues.

    Computes the ``n_small`` smallest eigenpairs of each parity sector, keeps
    the smallest ``n_small`` of both, and doubles the window until the largest
    kept eigenvalue clears ``tol_zero``, so the counts are complete.  The
    shift sits 0.1 below the Weyl bound min(symbol) + min(potential, 0), so
    L - shift and symbol - shift are positive definite.  Raises
    :class:`DeflationSolveError` if a returned pair misses its residual bound.
    """
    if op.potential.size < 8:
        raise ParameterError("the sector eigensolver needs at least 8 grid points")
    if tol_zero is None:
        tol_zero = default_tol_zero(op.omega)
    shift = op.symbol.min() + min(op.potential.min(), 0.0) - 0.1
    k = n_small
    while True:
        pairs = [_Sector(op, sign).lowest(k, shift) for sign in (1, -1)]
        vals, vecs = (np.concatenate(parts, axis=-1) for parts in zip(*pairs))
        order = np.argsort(vals)[:k]
        vals, vecs = vals[order], vecs[:, order]
        if vals[-1] > tol_zero or k >= op.potential.size // 2:
            break
        k *= 2
    scale = np.abs(op.symbol).max() + np.abs(op.potential).max()
    residual = max(np.linalg.norm(op.apply(v) - lam * v) for lam, v in zip(vals, vecs.T))
    if residual > 1e-12 * scale:
        raise DeflationSolveError(f"eigenpair residual too large ({residual:.2e})")
    return EigenReport(vals, vecs, n_negative=int(np.sum(vals < -tol_zero)),
                       n_zero=int(np.sum(np.abs(vals) <= tol_zero)), tol_zero=float(tol_zero))


def composite_counts(report_minus: EigenReport, report_plus: EigenReport):
    """Counts for the diagonal composite operator diag(Lminus, Lplus)."""
    return (report_minus.n_negative + report_plus.n_negative,
            report_minus.n_zero + report_plus.n_zero)


def ground_state_positivity(report: EigenReport) -> bool:
    """True iff the most negative eigenvalue's eigenfunction is single-signed."""
    if report.n_negative < 1:
        raise ParameterError("report has no negative eigenvalue")
    vec = report.eigenvectors[:, 0]
    vec = vec / np.max(np.abs(vec))
    band = 1e-8
    return bool(vec.min() >= -band or vec.max() <= band)


def check_pf2_logconcavity(samples: np.ndarray) -> bool:
    """Discrete log-concavity of positive samples on a uniform xi-grid.

    True iff the second difference of log(samples) is negative at every
    interior node, excluding the node adjacent to the maximum (xi = 0) where
    equality can occur to rounding.
    """
    samples = np.asarray(samples, dtype=float)
    if np.any(samples <= 0):
        raise DomainError("PF(2) check requires strictly positive samples")
    log_s = np.log(samples)
    second = log_s[:-2] - 2.0 * log_s[1:-1] + log_s[2:]
    center = int(np.argmax(samples))
    interior = np.arange(1, samples.size - 1)
    keep = np.abs(interior - center) > 1
    return bool(np.all(second[keep] < 0))


def negative_direction_scalar(
    profile: RealProfile, alpha: float, omega: float, beta: float = 1.0
) -> float:
    """Inner product <chi, phi> where Lminus chi = phi.

    The kernel of Lminus is spanned by phi' (odd), so for an even profile the
    system is solved in the even sector, where Lminus is invertible, by the
    preconditioned MINRES of :func:`eigen_report`.  The sign of the result
    is opposite to the sign of d''(omega).
    """
    op = build_operator(profile, alpha, omega, "Lminus", beta)
    phi = profile.values
    even = _Sector(op, 1)
    chi = even.values(even.solve(even.coords(phi)))
    rel_res = np.linalg.norm(op.apply(chi) - phi) / np.linalg.norm(phi)
    if rel_res > 1e-6:
        raise DeflationSolveError(f"deflated solve residual too large ({rel_res:.2e})")
    return float(profile.grid.quadrature(chi * phi))

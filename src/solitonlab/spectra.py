"""Matrix-free linearized operators and eigenvalue counting.

The two diagonal blocks of the linearization at a solitary wave are

    Lminus = d^4/dx^4 - beta d^2/dx^2 + omega - (alpha+1) |phi|^alpha
    Lplus  = d^4/dx^4 - beta d^2/dx^2 + omega -           |phi|^alpha

applied with real FFTs as (Fourier multiplier) + (diagonal potential).  In
the even and odd sectors, so that the odd kernel phi' is split off by
symmetry, the low spectrum comes from one dense eigensolve of the sector
compressed to the Fourier modes whose coupling entries reach its residual
target, certified by each pair's residual on the full sector (more modes are
taken only if that certificate fails); the chi solve L- chi = phi behind
d'' uses preconditioned MINRES in the even sector, on the coarsest grid that
resolves the potential, and is certified by its residual on the profile's
grid, where <chi, phi> is taken.  Counts of negative and
zero eigenvalues, zero meaning within ZERO_BAND (omega + 1), certify the
spectral propositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DeflationSolveError, ParameterError
from .grid import RealProfile, coarsest_grid, zero_pad
from .petviashvili import half_symbol, half_weights, power

# every kept eigenpair of a compressed sector has a residual of at most
# SECTOR_RESIDUAL on the full sector
SECTOR_RESIDUAL = 1e-10
# the compression starts past the last mode whose coupling entry |p_hat| / n
# is above COUPLING_FRACTION * SECTOR_RESIDUAL.  Measured on the waves at
# omega0 (alpha 1, 2, 4) and on alpha 1.5-3.5, omega 0.1-0.3: the 1e-10
# residual needs entries down to 9.5e-16 (alpha 1, Lminus), and rfft rounds
# them to about 3e-18 at N = 8192
COUPLING_FRACTION = 1e-6
# eigen_report counts the eigenvalues within ZERO_BAND (omega + 1) of 0 as
# zero, from a window of at least WINDOW of the lowest
ZERO_BAND = 1e-6
WINDOW = 8


@dataclass(frozen=True, eq=False)
class LinearizedOperator:
    """Lminus or Lplus: an rfft half-spectrum symbol plus a potential."""

    symbol: np.ndarray
    potential: np.ndarray
    omega: float

    def apply(self, v: np.ndarray) -> np.ndarray:
        n = self.potential.size
        return np.fft.irfft(self.symbol * np.fft.rfft(v), n) + self.potential * v


@dataclass(frozen=True)
class EigenReport:
    """Low-lying spectrum of a linearized operator.

    ``eigenvalues``/``eigenvectors`` hold the computed smallest part of the
    spectrum (enough to contain everything below the zero band).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    n_negative: int
    n_zero: int


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
    return LinearizedOperator(half_symbol(profile.grid, omega, beta), potential, omega)


class _Sector:
    """One parity sector of an operator, in orthonormal Fourier coordinates.

    Even vectors have real rfft coefficients, odd vectors imaginary ones
    without the mean and Nyquist terms; scaled for Parseval, these are
    coordinates in which the symbol is diagonal.  Taking them projects v onto
    (v + v(-x))/2 or (v - v(-x))/2, where v(-x) is np.roll(v[::-1], 1).
    """

    def __init__(self, op: LinearizedOperator, sign: int) -> None:
        self.op, self.n, self.sign = op, op.potential.size, sign
        self.keep, self.unit = (slice(None), 1.0) if sign > 0 else (slice(1, -1), 1j)
        self.weight, self.symbol = np.sqrt(half_weights(self.n))[self.keep], op.symbol[self.keep]

    def coords(self, v: np.ndarray) -> np.ndarray:
        return (np.fft.rfft(v)[self.keep] / self.unit).real * self.weight

    def spectrum(self, y: np.ndarray) -> np.ndarray:
        coeffs = np.zeros(self.n // 2 + 1, dtype=complex)
        coeffs[self.keep] = self.unit * y / self.weight
        return coeffs

    def values(self, y: np.ndarray) -> np.ndarray:
        return np.fft.irfft(self.spectrum(y), self.n)

    def apply(self, y: np.ndarray) -> np.ndarray:
        return self.symbol * y + self.coords(self.op.potential * self.values(y))

    def compressed(self, p_hat: np.ndarray, m_c: int) -> np.ndarray:
        """The sector on its first m_c modes k_i (i, or i + 1 if odd), from
        p_hat = rfft(potential).real: s_i delta_ij plus
        w_i w_j (p_hat(k_i - k_j) +- p_hat(k_i + k_j)) / 2, built in one array."""
        p_hat = np.concatenate([p_hat, p_hat[-2::-1]])  # p_hat(n - k) = p_hat(k)
        low = 0 if self.sign > 0 else 2  # k_0 + k_0
        toeplitz = sliding_window_view(p_hat[np.abs(np.arange(1 - m_c, m_c))], m_c)[::-1]
        hankel = sliding_window_view(p_hat[low:low + 2 * m_c - 1], m_c)
        matrix = toeplitz + hankel if self.sign > 0 else toeplitz - hankel
        matrix *= 0.5 * self.weight[:m_c]
        matrix *= self.weight[:m_c, None]
        matrix[np.diag_indices(m_c)] += self.symbol[:m_c]
        return matrix

    def lowest(self, k: int):
        """The k lowest eigenpairs, by a dense eigensolve of the sector on its
        first m_c Fourier modes (a Rayleigh-Ritz compression).

        m_c is read off the compressed matrix: the Toeplitz entry coupling two
        modes d apart is w_i w_j p_hat(d) / 2 = p_hat(d) / n, the same on every
        grid, and m_c starts past the last d where it exceeds
        COUPLING_FRACTION * SECTOR_RESIDUAL (at least 2k modes, at most the
        sector).  That is one eigensolve wherever p_hat decays; a potential
        that is not smooth (a profile that changes sign) starts at the full
        sector.  The start is only an estimate: m_c grows by a quarter until
        every kept pair has a sector residual of at most SECTOR_RESIDUAL and
        no discarded mode has a Weyl bound, symbol + min(potential, 0), below
        the largest kept eigenvalue.
        """
        m = self.symbol.size
        k = min(k, m)
        p_hat = np.fft.rfft(self.op.potential).real
        coupled = np.abs(p_hat) > COUPLING_FRACTION * SECTOR_RESIDUAL * self.n
        floor = min(self.op.potential.min(), 0.0)
        m_c = min(m, max(2 * k, np.flatnonzero(coupled).max(initial=0) + 1))
        while True:
            # the symmetric matrix's .T is Fortran-ordered: LAPACK overwrites it, no copy
            vals, vecs = scipy.linalg.eigh(self.compressed(p_hat, m_c).T, overwrite_a=True,
                                           subset_by_index=(0, k - 1))
            vecs = np.vstack([vecs, np.zeros((m - m_c, k))])
            products = np.column_stack([self.apply(y) for y in vecs.T])
            # Rayleigh quotients on the full sector: eigh's values carry eps |A| of the compression
            vals = np.einsum("ij,ij->j", vecs, products)
            residual = np.linalg.norm(products - vals * vecs, axis=0).max()
            if m_c == m or (residual <= SECTOR_RESIDUAL
                            and self.symbol[m_c:].min() + floor > vals.max()):
                return vals, np.column_stack([self.values(y) for y in vecs.T])
            m_c = min(m, m_c + max(1, m_c // 4))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """L^-1 rhs by MINRES (Paige & Saunders 1975), preconditioned by
        1/symbol, with the recurrences and stop tests of scipy's ``minres``:
        |r| <= 1e-12 |A| |x| or |A r| <= 1e-12 |A| |r|.  Its products by
        1/beta and 1/gamma are kept, so the iterates round as scipy's do.
        A symbol that is not positive is no preconditioner: ParameterError."""
        if not self.symbol.min() > 0.0:
            raise ParameterError(f"MINRES needs a positive symbol, its minimum is "
                                 f"{self.symbol.min():.3g} (omega < beta^2/4?)")
        x, w, w2 = (np.zeros_like(rhs) for _ in range(3))
        r1 = r2 = rhs
        y = rhs / self.symbol
        beta = beta1 = math.sqrt(rhs @ y)
        if beta1 == 0.0:
            return x
        oldb = dbar = epsln = tnorm2 = sn = 0.0
        phibar, cs = beta1, -1.0
        for _ in range(10 * rhs.size):
            v = (1.0 / beta) * y
            y = self.apply(v)
            if oldb:
                y = y - (beta / oldb) * r1
            alfa = v @ y
            y = y - (alfa / beta) * r2
            r1, r2 = r2, y
            y = r2 / self.symbol
            oldb, beta = beta, math.sqrt(r2 @ y)
            tnorm2 += alfa**2 + oldb**2 + beta**2
            # apply the previous rotation, then compute the next one
            oldeps, delta, gbar = epsln, cs * dbar + sn * alfa, sn * dbar - cs * alfa
            epsln, dbar = sn * beta, -cs * beta
            root = math.hypot(gbar, dbar)
            gamma = max(math.hypot(gbar, beta), np.finfo(float).eps)
            cs, sn = gbar / gamma, beta / gamma
            phi, phibar = cs * phibar, sn * phibar
            w1, w2 = w2, w
            w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
            x = x + phi * w
            anorm = math.sqrt(tnorm2)
            if phibar <= 1e-12 * anorm * np.linalg.norm(x) or root <= 1e-12 * anorm:
                return x
        raise DeflationSolveError(f"MINRES did not converge in {10 * rhs.size} iterations")


def eigen_report(op: LinearizedOperator) -> EigenReport:
    """Count negative and (numerically) zero eigenvalues.

    Computes the WINDOW smallest eigenpairs of each parity sector (a dense
    eigensolve of the sector on its resolved Fourier modes, see
    ``_Sector.lowest``), keeps the smallest WINDOW of both, and doubles the
    window until the largest kept eigenvalue clears the zero band
    ZERO_BAND (omega + 1), so the counts are complete.  Raises
    :class:`DeflationSolveError` if a returned pair misses its residual bound
    on the full operator.
    """
    if op.potential.size < 8:
        raise ParameterError("the sector eigensolver needs at least 8 grid points")
    tol_zero = ZERO_BAND * (op.omega + 1.0)
    k = WINDOW
    while True:
        pairs = [_Sector(op, sign).lowest(k) for sign in (1, -1)]
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
                       n_zero=int(np.sum(np.abs(vals) <= tol_zero)))


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


def negative_direction_scalar(
    profile: RealProfile, alpha: float, omega: float, beta: float = 1.0
) -> float:
    """Inner product <chi, phi> where Lminus chi = phi.

    The kernel of Lminus is spanned by phi' (odd), so for an even profile the
    system is solved in the even sector, where Lminus is invertible, by
    preconditioned MINRES (``_Sector.solve``).  The solve runs on the
    coarsest grid of the profile's half-width that resolves the potential
    (``grid.coarsest_grid``), whose band is wider than the profile's, from
    the potential's and the profile's samples at the shared nodes; chi is
    its exact zero-padded prolongation (``grid.zero_pad``).  Where the
    potential's spectrum has an algebraic tail (|phi|^alpha of a wave that
    changes sign, or at alpha < 1) that grid is the profile's own, and the
    solve is the full-grid one.  The relative residual of Lminus chi - phi
    on the profile's grid must be at most 1e-6, or DeflationSolveError, and
    the product is taken there.  The sign of the result is opposite to the
    sign of d''(omega).
    """
    op = build_operator(profile, alpha, omega, "Lminus", beta)
    phi, n = profile.values, profile.grid.n_points
    m = coarsest_grid(op.potential, profile.grid).n_points
    # Lminus at the shared nodes; its symbol is the first m / 2 + 1 of the fine one's
    even = _Sector(LinearizedOperator(op.symbol[: m // 2 + 1], op.potential[:: n // m], omega), 1)
    y = even.solve(even.coords(phi[:: n // m]))
    chi = np.fft.irfft(zero_pad(even.spectrum(y), n), n)
    rel_res = np.linalg.norm(op.apply(chi) - phi) / np.linalg.norm(phi)
    if rel_res > 1e-6:
        raise DeflationSolveError(f"deflated solve residual too large ({rel_res:.2e})")
    return float(profile.grid.quadrature(chi * phi))

"""Uniform periodic spectral grid with FFT transforms, quadrature, and norms.

The transform convention is continuum-consistent: coefficients are
``dx * sum_j f(x_j) exp(-i xi_k x_j)`` so that the coefficient at ``xi = 0``
approximates the integral of ``f`` over the domain.  Wavenumbers are stored
in standard FFT order (``0, ..., n/2-1, -n/2, ..., -1`` times ``pi / L``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError

DEFAULT_HALF_WIDTH = 200.0
DEFAULT_N_POINTS = 8192


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Periodic grid on ``[-L, L)`` with ``n_points`` equispaced nodes.

    Parameters
    ----------
    n_points : int
        Number of nodes, must be a power of two.
    half_width : float
        Domain half-width ``L``.
    """

    n_points: int = DEFAULT_N_POINTS
    half_width: float = DEFAULT_HALF_WIDTH

    def __post_init__(self) -> None:
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise ParameterError(f"n_points must be a power of two, got {n}")
        if not 0 < self.half_width < np.inf:
            raise ParameterError(f"half_width must be positive and finite, got {self.half_width}")
        L = float(self.half_width)
        dx = 2.0 * L / n
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "nodes", -L + dx * np.arange(n))
        xi = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
        object.__setattr__(self, "wavenumbers", xi)
        object.__setattr__(self, "h2_weight", 1.0 + xi**2 + xi**4)
        # phase (-1)^k accounts for the x = -L origin of the node set
        k = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
        object.__setattr__(self, "_phase", np.where(k % 2 == 0, 1.0, -1.0))

    def _check(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape != (self.n_points,):
            raise ShapeError(
                f"expected array of shape ({self.n_points},), got {values.shape}"
            )
        return values

    # -- transforms ---------------------------------------------------------

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Discrete Fourier coefficients aligned with `wavenumbers`."""
        values = self._check(values)
        return self.dx * self._phase * np.fft.fft(values)

    def inverse(self, coefficients: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`."""
        coefficients = self._check(coefficients)
        return np.fft.ifft(coefficients * self._phase) / self.dx

    def apply_symbol(self, values: np.ndarray, symbol) -> np.ndarray:
        """Apply a Fourier multiplier ``symbol(xi)`` to sampled values.

        The even-order derivative symbols are ``xi**2`` for ``-d^2/dx^2`` and
        ``xi**4`` for ``d^4/dx^4``.  Real input with a real symbol returns a
        real array.
        """
        values = self._check(values)
        mult = np.asarray(symbol(self.wavenumbers))
        if not np.all(np.isfinite(mult)):
            raise ParameterError("symbol is not finite on all grid wavenumbers")
        out = np.fft.ifft(mult * np.fft.fft(values))
        if np.isrealobj(values) and np.isrealobj(mult):
            return out.real
        return out

    # -- quadrature and norms ----------------------------------------------

    def quadrature(self, values: np.ndarray):
        """Trapezoid rule on the periodic grid (= rectangle rule)."""
        return self.dx * self._check(values).sum()

    def norm(self, values: np.ndarray, kind: str = "L2", p: float | None = None) -> float:
        values = self._check(values)
        if kind == "L2":
            return float(np.sqrt(self.dx * np.sum(np.abs(values) ** 2)))
        if kind == "Linf":
            return float(np.max(np.abs(values)))
        if kind == "Lp":
            if p is None or p < 1:
                raise ParameterError(f"Lp norm requires p >= 1, got {p}")
            return float((self.dx * np.sum(np.abs(values) ** p)) ** (1.0 / p))
        if kind == "H2":
            coeffs = np.fft.fft(values)
            return float(
                np.sqrt(self.dx / self.n_points * np.sum(self.h2_weight * np.abs(coeffs) ** 2))
            )
        raise ParameterError(f"unknown norm kind {kind!r}")


@dataclass(frozen=True)
class RealProfile:
    """Real solitary-wave profile sampled on a spectral grid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ShapeError(
                f"profile length {values.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("profile contains non-finite values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ComplexField:
    """Complex PDE state sampled on a spectral grid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n_points,):
            raise ShapeError(
                f"field length {values.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("field contains non-finite values")
        object.__setattr__(self, "values", values)

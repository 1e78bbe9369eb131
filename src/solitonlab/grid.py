"""Uniform periodic spectral grid: nodes, wavenumbers, Fourier multipliers,
quadrature, the Parseval sum and the H2 norm; and the two maps between grids
of one half-width that the nested iterations use, ``coarsest_grid`` (the
coarsest grid that resolves a sampled function) and ``zero_pad`` (the exact
prolongation of a half spectrum to a finer grid).

Wavenumbers are stored in standard FFT order (``0, ..., n/2-1, -n/2, ..., -1``
times ``pi / L``).  Grids of one shape are one grid: they compare and hash by
``(n_points, half_width)``, pickle as that shape (a process rebuilds its nodes
and wavenumbers), and every table kept per grid is keyed on the grid.  A grid
has no default: every caller names its own, and the CLI's flags hold the
program's.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError

# coarsest_grid may drop the rfft modes of a function below COARSE_CUT of
# their peak, down to COARSE_MIN_POINTS points
COARSE_CUT = 1e-15
COARSE_MIN_POINTS = 64


def lattice(start: float, stop: float, num: int, name: str) -> np.ndarray:
    """np.linspace(start, stop, num), refusing num < 1 and counts numpy cannot
    allocate (from 2**60 floats on it raises ValueError or IndexError)."""
    with contextlib.suppress(MemoryError):
        if 1 <= num < 2**60:
            return np.linspace(start, stop, num)
    raise ParameterError(f"{name} must be >= 1 and fit in memory, got {num}")


def read_only(table: np.ndarray) -> np.ndarray:
    """table, made read-only: a table kept per grid is shared by its readers."""
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic grid on ``[-L, L)`` with ``n_points`` equispaced nodes, equal
    (hash too) to every grid of its shape, and pickled as that shape; a
    half-width 200 is that of 200.0.

    Parameters
    ----------
    n_points : int
        Number of nodes, must be a power of two.
    half_width : float
        Domain half-width ``L``.
    """

    n_points: int
    half_width: float

    def __post_init__(self) -> None:
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise ParameterError(f"n_points must be a power of two, got {n}")
        if not 0 < self.half_width < np.inf:
            raise ParameterError(f"half_width must be positive and finite, got {self.half_width}")
        L = float(self.half_width)
        dx = 2.0 * L / n
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "nodes", -L + dx * lattice(0, n - 1, n, "n_points"))
        xi = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
        object.__setattr__(self, "wavenumbers", xi)

    def __reduce__(self):
        return SpectralGrid, (self.n_points, self.half_width)

    @cached_property
    def h2_weight(self) -> np.ndarray:
        """1 + xi^2 + xi^4, on first use (xi**4 is slow on negative xi)."""
        xi = self.wavenumbers
        return 1.0 + xi**2 + xi**4

    def _check(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape != (self.n_points,):
            raise ParameterError(
                f"expected array of shape ({self.n_points},), got {values.shape}"
            )
        return values

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

    def quadrature(self, values: np.ndarray):
        """Trapezoid rule on the periodic grid (= rectangle rule)."""
        return self.dx * self._check(values).sum()

    def parseval(self, weight: np.ndarray, coeffs: np.ndarray) -> float:
        """dx / n sum(weight |coeffs|^2) over a full spectrum coeffs = fft(v): the
        integral of conj(v) weight(D) v, by Parseval; h2_weight gives |v|_H2^2."""
        return self.dx / self.n_points * float(np.sum(weight * np.abs(coeffs) ** 2))

    def norm(self, values: np.ndarray, kind: str) -> float:
        """The H2 norm, by Parseval with the weight 1 + xi^2 + xi^4; the only kind."""
        if kind != "H2":
            raise ParameterError(f"unknown norm kind {kind!r}")
        return float(np.sqrt(self.parseval(self.h2_weight, np.fft.fft(self._check(values)))))


def coarsest_grid(values: np.ndarray, grid: SpectralGrid) -> SpectralGrid:
    """The coarsest grid of grid's half-width, of at least COARSE_MIN_POINTS
    points, that drops only rfft modes of values (sampled on grid) below
    COARSE_CUT of their peak; grid itself where not one halving does.  A real
    grid keeps only the cosine of its Nyquist mode, so that mode counts as
    dropped."""
    spectrum = np.abs(np.fft.rfft(values))
    last = int(np.flatnonzero(spectrum >= COARSE_CUT * spectrum.max())[-1])
    n_points = max(COARSE_MIN_POINTS, 1 << (2 * last).bit_length())  # n_points / 2 > last
    return SpectralGrid(n_points, grid.half_width) if n_points < grid.n_points else grid


def zero_pad(coeffs: np.ndarray, n_points: int) -> np.ndarray:
    """The rfft half spectrum on n_points points of the interpolant whose half
    spectrum on n = 2 (coeffs.size - 1) <= n_points points of the same
    half-width is coeffs: zero-padded, the Nyquist term halved (it stands for
    2 modes of the finer grid), times n_points / n; coeffs itself where
    n == n_points."""
    n = 2 * (coeffs.size - 1)
    if n == n_points:
        return coeffs
    coeffs = (n_points // n) * np.pad(coeffs, (0, (n_points - n) // 2))
    coeffs[n // 2] *= 0.5
    return coeffs


@dataclass(frozen=True)
class RealProfile:
    """Real solitary-wave profile sampled on a spectral grid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ParameterError(
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
            raise ParameterError(
                f"field length {values.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("field contains non-finite values")
        object.__setattr__(self, "values", values)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """np.fft.fft(values), taken on first use and kept: values are not written."""
        return np.fft.fft(self.values)

    @cached_property
    def h2_norm_sq(self) -> float:
        """The squared H2 norm, by Parseval on the cached spectrum."""
        return self.grid.parseval(self.grid.h2_weight, self.spectrum)

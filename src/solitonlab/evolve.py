"""Strang split-step Fourier integrator, its checkpoint loop, the perturbed-wave
driver (``perturbed_run``), conservation audit, orbital distance.

One step is a half nonlinear phase rotation, a full linear multiplier
exp(-i (xi^4 + beta xi^2) dt) in Fourier space, and another half rotation.  The
linear substep is unitary and the nonlinear substep preserves |u| pointwise,
so both invariants are conserved up to rounding; energy drift measures the
genuine splitting error.

The linear substep runs Bailey's four-step FFT (J. Supercomputing 4, 1990) on
the field's n1 x n2 view: batched transforms of its columns and rows, joined by
twiddle factors.  Its tables are built once per grid, beta and dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BlowUpDetected, ParameterError
from .grid import ComplexField, RealProfile, SpectralGrid
from .petviashvili import power, power_from_square, symbol

TINY_ANGLE = 2.0**-27  # the largest phase angle that needs no cos or sin


@dataclass
class Trajectory:
    """Each observer's series (``series[name]``) at the checkpoint ``times``;
    a blow-up ends both at the last finite checkpoint."""

    times: np.ndarray
    series: dict
    blow_up_time: float | None = None

    def drift(self, name: str) -> float:
        """Relative drift max |Q - Q0| / |Q0| of one observed quantity."""
        q = self.series[name]
        return float(np.max(np.abs(q - q[0])) / abs(q[0]))


@dataclass
class ConservationAudit:
    times: np.ndarray
    energies: np.ndarray
    masses: np.ndarray
    relative_drifts: tuple  # (energy drift, mass drift), both max |Q-Q0|/|Q0|


@lru_cache(maxsize=1)
def _symbol(grid: SpectralGrid, beta: float) -> np.ndarray:
    """xi^4 + beta xi^2 on the grid's full spectrum, read-only; energy and the
    propagator read it."""
    return _read_only(symbol(grid.wavenumbers, 0.0, beta))


@lru_cache(maxsize=1)
def _step_tables(grid: SpectralGrid, beta: float, dt: float) -> tuple:
    """(propagator, twiddles, conjugate twiddles) of the four-step linear
    substep on the (n1, n2) view of a field, n1 = 2**(log2(n) // 2).

    Entry (k1, k2) of the spectrum in that layout is wavenumber k1 + n1 k2, so
    the propagator exp(-i symbol dt) / n is permuted to it; the 1/n is the
    inverse transform's.  The twiddle at (k1, j2) is exp(-2 pi i k1 j2 / n).
    """
    n = grid.n_points
    n1 = 1 << ((n.bit_length() - 1) // 2)
    n2 = n // n1
    propagator = (np.exp(-1j * _symbol(grid, beta) * dt) / n).reshape(n2, n1).T.copy()
    twiddles = np.exp(-2j * np.pi / n * np.outer(np.arange(n1), np.arange(n2)))
    return tuple(map(_read_only, (propagator, twiddles, twiddles.conj())))


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _linear_substep(u: np.ndarray, tables: tuple, scratch: np.ndarray) -> None:
    """u <- ifft(exp(-i symbol dt) fft(u)) in place, by four batched transforms of
    u's (n1, n2) view; scratch is an (n1, n2) complex array.  The spectrum stays
    in the view's (k1, k2) order, so no transpose is needed."""
    propagator, twiddles, conjugate_twiddles = tables
    view = u.reshape(scratch.shape)
    np.fft.fft(view, axis=0, out=scratch)
    np.multiply(scratch, twiddles, out=scratch)
    np.fft.fft(scratch, axis=1, out=scratch)
    np.multiply(scratch, propagator, out=scratch)
    np.fft.ifft(scratch, axis=1, out=scratch, norm="forward")
    np.multiply(scratch, conjugate_twiddles, out=scratch)
    np.fft.ifft(scratch, axis=0, out=view, norm="forward")


def advance(field: ComplexField, alpha: float, dt: float, n_steps: int, beta: float = 1.0,
            t0: float = 0.0) -> ComplexField:
    """Advance n_steps Strang steps from time t0, adjacent half nonlinear
    substeps fused; raises BlowUpDetected.

    The steps work in place on one copy of the field and four scratch arrays;
    the linear substep is ``_linear_substep`` on tables built once per grid,
    beta and dt.
    """
    if not dt > 0:
        raise ParameterError("dt must be positive")
    if n_steps < 0:
        raise ParameterError(f"n_steps must be >= 0, got {n_steps}")
    if n_steps == 0:
        return field
    n = field.grid.n_points
    tables = _step_tables(field.grid, beta, dt)
    u = field.values.astype(complex)  # a copy: the caller's field is not written
    square, work = np.empty(n), np.empty(n)
    rotation = np.empty(n, dtype=complex)
    scratch = np.empty(tables[1].shape, dtype=complex)

    def rotate(theta):
        """u *= exp(i theta |u|^alpha)."""
        parts = rotation.view(float)  # re^2 and im^2, until the rotation is formed
        np.multiply(u.view(float), u.view(float), out=parts)
        np.add(rotation.real, rotation.imag, out=square)
        angle = power_from_square(square, alpha, work)
        angle *= theta
        # cos(x) = 1 and sin(x) = x to the last bit for 0 <= x <= 2**-27, so
        # cos and sin run only from the first to the last other angle
        rotation.real, rotation.imag = 1.0, angle
        resolvable = np.flatnonzero(~(angle <= TINY_ANGLE))
        if resolvable.size:
            window = slice(resolvable[0], resolvable[-1] + 1)
            np.cos(angle[window], out=rotation.real[window])
            np.sin(angle[window], out=rotation.imag[window])
        np.multiply(u, rotation, out=u)

    rotate(0.5 * dt)
    for k in range(1, n_steps):
        _linear_substep(u, tables, scratch)
        if not _all_finite(u):
            raise BlowUpDetected(t0 + k * dt)
        rotate(dt)
    _linear_substep(u, tables, scratch)
    rotate(0.5 * dt)
    if not _all_finite(u):
        raise BlowUpDetected(t0 + n_steps * dt)
    return ComplexField(field.grid, u)


def _all_finite(u: np.ndarray) -> bool:
    """np.all(np.isfinite(u)), settled by one sum when it holds: a non-finite
    element makes the sum non-finite, but the sum can also overflow while
    every element is finite."""
    return bool(np.isfinite(np.sum(u)) or np.all(np.isfinite(u)))


def energy(field: ComplexField, alpha: float, beta: float = 1.0) -> float:
    """E = (1/2) int |u_xx|^2 + beta |u_x|^2 - (2/(alpha+2)) |u|^(alpha+2)."""
    g = field.grid
    coeffs = np.fft.fft(field.values)
    quadratic = g.dx / g.n_points * float(np.sum(_symbol(g, beta) * np.abs(coeffs) ** 2))
    nonlinear = float(g.quadrature(power(field.values, alpha + 2)).real)
    return 0.5 * quadratic - nonlinear / (alpha + 2.0)


def mass(field: ComplexField) -> float:
    """F = (1/2) int |u|^2."""
    g = field.grid
    return 0.5 * float(g.quadrature(np.abs(field.values) ** 2).real)


def check_field(field: ComplexField, alpha: float, beta: float = 1.0) -> None:
    """Refuse an initial field whose energy or mass is not finite, or whose
    mass is not positive: the relative drifts are taken against them."""
    with np.errstate(all="ignore"):
        energy0, mass0 = energy(field, alpha, beta), mass(field)
    if not (np.isfinite(energy0) and 0 < mass0 < np.inf):
        raise ParameterError(f"the initial field has energy {energy0:g} and mass {mass0:g};"
                             " both must be finite and the mass positive")


def check_run(dt: float, t_final: float, n_samples: int) -> None:
    """Refuse a dt or t_final that is not finite, dt <= 0, t_final < 0, n_samples < 1
    and a step count of 2**53 or more, which float checkpoints do not hold exactly."""
    if not (0 < dt < np.inf and 0 <= t_final < np.inf and n_samples >= 1):
        raise ParameterError("need a finite dt > 0, a finite t_final >= 0 and n_samples >= 1,"
                             f" got {dt:g}, {t_final:g}, {n_samples}")
    if not np.round(t_final / dt) < 2**53:
        raise ParameterError(f"t_final / dt = {t_final / dt:g} steps; need fewer than 2**53")


def run(field: ComplexField, alpha: float, dt: float, t_final: float, n_samples: int,
        observers: dict, beta: float = 1.0) -> Trajectory:
    """Advance field from t = 0 to t_final, sampling every observer at the
    start and at n_samples evenly spaced checkpoints (whole steps, duplicates
    dropped).

    ``observers`` maps a name to a function of the field.  Blow-up truncates
    the trajectory instead of raising.
    """
    check_run(dt, t_final, n_samples)
    total_steps = int(round(t_final / dt))
    n_samples = min(n_samples, total_steps)  # whole steps: more checkpoints add none
    checkpoints = np.unique(np.round(np.linspace(0, total_steps, n_samples + 1)).astype(int))
    time = 0.0
    times = [time]
    series = {name: [observe(field)] for name, observe in observers.items()}
    blow_up_time = None
    for prev, nxt in zip(checkpoints[:-1], checkpoints[1:]):
        n_steps = int(nxt - prev)
        try:
            field = advance(field, alpha, dt, n_steps, beta, t0=time)
        except BlowUpDetected as exc:
            blow_up_time = exc.time
            break
        time = time + n_steps * dt
        times.append(time)
        for name, observe in observers.items():
            series[name].append(observe(field))
    series = {name: np.asarray(values) for name, values in series.items()}
    return Trajectory(np.asarray(times), series, blow_up_time)


def perturbed_run(profile: RealProfile, alpha: float, delta: float, dt: float, t_final: float,
                  n_samples: int, beta: float = 1.0) -> Trajectory:
    """Evolve u0 = (1 + delta) phi, observing its energy, mass and orbital
    distance to phi (whose transform and H2 norm are built once); refuses an
    unusable u0 (``check_field``)."""
    with np.errstate(all="ignore"):
        u0 = ComplexField(profile.grid, (1.0 + delta) * profile.values.astype(complex))
    check_field(u0, alpha, beta)
    reference = orbit_reference(profile)
    return run(u0, alpha, dt, t_final, n_samples, {
        "energy": lambda u: energy(u, alpha, beta),
        "mass": mass,
        "orbital_distance": lambda u: orbital_distance(u, reference),
    }, beta)


def conservation_audit(
    field: ComplexField, alpha: float, dt: float, t_final: float, n_samples: int = 40,
    beta: float = 1.0,
) -> ConservationAudit:
    """Evolve to t_final recording E and F at n_samples checkpoints; raises BlowUpDetected."""
    check_field(field, alpha, beta)
    traj = run(field, alpha, dt, t_final, n_samples,
               {"energy": lambda u: energy(u, alpha, beta), "mass": mass}, beta)
    if traj.blow_up_time is not None:
        raise BlowUpDetected(traj.blow_up_time)
    return ConservationAudit(
        times=traj.times,
        energies=traj.series["energy"],
        masses=traj.series["mass"],
        relative_drifts=(traj.drift("energy"), traj.drift("mass")),
    )


@dataclass(frozen=True, eq=False)
class OrbitReference:
    """What ``orbital_distance`` reads of its reference wave: the conjugate of
    its transform and its squared H2 norm, built once per run by
    ``orbit_reference``."""

    conj_hat: np.ndarray
    norm_sq: float


def orbit_reference(profile: RealProfile) -> OrbitReference:
    g = profile.grid
    phi_hat = np.fft.fft(profile.values.astype(complex))
    norm_sq = g.dx / g.n_points * float(np.sum(g.h2_weight * np.abs(phi_hat) ** 2))
    return OrbitReference(np.conj(phi_hat), norm_sq)


def orbital_distance(field: ComplexField, reference: RealProfile | OrbitReference) -> float:
    """H2 distance to the orbit of the reference under rotation/translation;
    the reference is a profile or its prebuilt ``orbit_reference``, with the
    same result to the bit.

    The rotation minimizer is closed-form for each translation (phase of the
    complex H2 pairing); the translation search runs over whole grid cells
    via a single cross-correlation FFT.

    The distance is computed as sqrt(|u|^2 + |phi|^2 - 2 max pairing) in H2,
    whose terms cancel, so it has a precision floor of about
    sqrt(machine epsilon) * |phi|_H2: some 4e-8 for the alpha = 2 wave.
    Smaller distances, such as that of an unperturbed wave after evolution,
    are not resolved.
    """
    if isinstance(reference, RealProfile):
        reference = orbit_reference(reference)
    g = field.grid
    u_hat = np.fft.fft(field.values)
    norm_u_sq = g.dx / g.n_points * float(np.sum(g.h2_weight * np.abs(u_hat) ** 2))
    pairing = g.dx * np.fft.ifft(g.h2_weight * u_hat * reference.conj_hat)
    best = float(np.max(np.abs(pairing)))
    dist_sq = max(norm_u_sq + reference.norm_sq - 2.0 * best, 0.0)
    return float(np.sqrt(dist_sq))

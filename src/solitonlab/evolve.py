"""Strang split-step Fourier integrator, its checkpoint loop, the perturbed-wave
driver (``perturbed_run``), conservation audit, orbital distance.

One step is a half nonlinear phase rotation, a full linear multiplier
exp(-i (xi^4 + beta xi^2) dt) in Fourier space, and another half rotation.  The
linear substep is unitary and the nonlinear substep preserves |u| pointwise,
so both invariants are conserved up to rounding; energy drift measures the
genuine splitting error.

Both substeps keep a field even, u(x) = u(-x), and every wave the program
evolves starts even.  An even field steps on the free lines of its n1 x n2 view
by Bailey's four-step FFT (J. Supercomputing 4, 1990): the view has n2/2 + 1
free columns (column n2 - j2 is column j2 reversed) and its spectrum n1/2 + 1
free rows, so four batched transforms run on about half the points, two gathers
fill in the rest, and the rotation and finiteness check read the free columns
only (Swarztrauber, Math. Comp. 47, 1986).  ``advance`` takes that path where
the field's odd part is at most EVEN_CUT = 2**-48 of the field, and evolves the
field's even part; solved waves read 1-7e-16 of their peak, exact waves 0, and
the output of 1000 steps at most 1.4e-16 (N = 1024 and 8192, alpha 2 and 6), so
each checkpoint takes the path again.  Any other field (a boosted or moved
wave, which no program evolution makes) steps by the 1-D transform pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BlowUpDetected, ParameterError
from .grid import ComplexField, RealProfile, SpectralGrid, lattice
from .petviashvili import power, power_from_square, symbol

TINY_ANGLE = 2.0**-27  # the largest phase angle that needs no cos or sin
EVEN_CUT = 2.0**-48  # the largest odd part, relative to the field, of a field that steps as even


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
    """xi^4 + beta xi^2 on the grid's full spectrum, read-only; energy and both
    propagators read it."""
    return _read_only(symbol(grid.wavenumbers, 0.0, beta))


@lru_cache(maxsize=1)
def _propagator(grid: SpectralGrid, beta: float, dt: float) -> np.ndarray:
    """exp(-i symbol dt) on the grid's full spectrum, read-only: the linear
    substep of a field that is not even."""
    return _read_only(np.exp(-1j * _symbol(grid, beta) * dt))


@lru_cache(maxsize=1)
def _half_step_tables(grid: SpectralGrid, beta: float, dt: float) -> tuple:
    """(propagator, gather 1, phases 1, gather 2, phases 2) of the linear
    substep of an even field on the h2 = n2/2 + 1 free columns of its view.

    Evenness makes column n2 - j2 of the view column j2 reversed in j1, and
    row n1 - k1 of the spectrum row k1 reversed.  Gather 1 takes the (h1, n2)
    rows k1 <= n1/2 of the twiddled stage-1 spectrum from the (n1, h2) one,
    column c > n2/2 from row -k1, column n2 - c; phases 1 at (k1, c) is the
    twiddle exp(-2 pi i k1 s / n) with s the signed column c or c - n2, which
    is the conjugate twiddle where it absorbs the reversal.  Gather 2 and
    phases 2 undo this after stage 2: row r of the (n1, h2) result is row r or,
    past n1/2, row n1 - r of the (h1, n2) one, column n2 - j2 mod n2, times the
    conjugate twiddle exp(2 pi i s j2 / n) of the signed row s.  The propagator
    is exp(-i symbol dt) / n at mode k = k1 + n1 k2 on rows k1 <= n1/2, read at
    the one of k and n - k not above n/2: xi**4 rounds differently at -xi, so
    only this makes it exactly even, as the gathers take it to be.
    """
    n = grid.n_points
    n1, n2 = _view_shape(n)
    h1, h2 = n1 // 2 + 1, n2 // 2 + 1
    k1, c = np.arange(h1)[:, None], np.arange(n2)
    modes = k1 + n1 * c
    propagator = np.exp(-1j * _symbol(grid, beta)[np.minimum(modes, n - modes)] * dt) / n
    gather_1 = np.where(c < h2, k1 * h2 + c, (-k1 % n1) * h2 + n2 - c)
    phases_1 = np.exp(-2j * np.pi / n * k1 * np.where(c < h2, c, c - n2))
    r, j2 = np.arange(n1)[:, None], np.arange(h2)
    gather_2 = np.where(r < h1, r * n2 + j2, (n1 - r) * n2 + (n2 - j2) % n2)
    phases_2 = np.exp(2j * np.pi / n * np.where(r < h1, r, r - n1) * j2)
    return tuple(map(_read_only, (propagator, gather_1, phases_1, gather_2, phases_2)))


def _view_shape(n: int) -> tuple:
    """(n1, n2) of the four-step view of n points, n1 = 2**(log2(n) // 2)."""
    n1 = 1 << ((n.bit_length() - 1) // 2)
    return n1, n // n1


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _linear_substep(u: np.ndarray, propagator: np.ndarray, scratch: np.ndarray) -> None:
    """u <- ifft(propagator fft(u)) in place; scratch is an n-length complex array."""
    np.fft.fft(u, out=scratch)
    np.multiply(scratch, propagator, out=scratch)
    np.fft.ifft(scratch, out=u)


def _half_substep(u: np.ndarray, tables: tuple, scratch: tuple) -> None:
    """The linear substep of an even field by the four-step FFT on its view's
    (n1, h2) free columns u, in place: stage 1 on those columns, stage 2 on the
    (h1, n2) rows k1 <= n1/2, the rest by the gathers of ``_half_step_tables``;
    scratch is an (n1, h2) and an (h1, n2) complex array."""
    propagator, gather_1, phases_1, gather_2, phases_2 = tables
    columns, rows = scratch
    view = u.reshape(columns.shape)
    np.fft.fft(view, axis=0, out=columns)
    np.take(columns, gather_1, out=rows, mode="clip")
    np.multiply(rows, phases_1, out=rows)
    np.fft.fft(rows, axis=1, out=rows)
    np.multiply(rows, propagator, out=rows)
    np.fft.ifft(rows, axis=1, out=rows, norm="forward")
    np.take(rows, gather_2, out=columns, mode="clip")
    np.multiply(columns, phases_2, out=columns)
    np.fft.ifft(columns, axis=0, out=view, norm="forward")


def _even_half(u: np.ndarray, shape: tuple) -> np.ndarray | None:
    """The free columns of the view of u's even part (u + u(-x)) / 2, flat, or
    None where u's odd part exceeds EVEN_CUT: max |u - u(-x)| > EVEN_CUT max |u|,
    both over real and imaginary parts.  Node j sits at x = -L + j dx, so u(-x)
    at node j is u at node -j mod n."""
    reflected = np.roll(u[::-1], 1)
    with np.errstate(over="ignore"):
        odd = _largest_part(u - reflected)
    if not odd <= EVEN_CUT * _largest_part(u):
        return None
    free = np.s_[:, : shape[1] // 2 + 1]
    return (0.5 * u.reshape(shape)[free] + 0.5 * reflected.reshape(shape)[free]).ravel()


def _largest_part(values: np.ndarray) -> float:
    """The largest |real part| or |imaginary part| of a contiguous complex
    array, with no new array."""
    parts = values.view(float)
    return max(parts.max(), -parts.min())


def _unfold(half: np.ndarray, shape: tuple) -> np.ndarray:
    """The even field whose view's free columns are half: column n2 - j2 is
    column j2 reversed in j1."""
    n1, n2 = shape
    columns = half.reshape(n1, n2 // 2 + 1)
    view = np.empty(shape, dtype=complex)
    view[:, : n2 // 2 + 1] = columns
    view[:, n2 // 2 + 1 :] = columns[::-1, n2 // 2 - 1 : 0 : -1]
    return view.ravel()


def advance(field: ComplexField, alpha: float, dt: float, n_steps: int, beta: float = 1.0,
            t0: float = 0.0) -> ComplexField:
    """Advance n_steps Strang steps from time t0, adjacent half nonlinear
    substeps fused; raises BlowUpDetected.

    A field whose odd part is at rounding level (``_even_half``) steps as its
    even part on the free columns of its view, by ``_half_substep``; any other
    field steps whole, by the 1-D pair of ``_linear_substep``.  Either way the
    steps work in place on one copy of the field and a scratch array or two,
    on tables built once per grid, beta and dt.
    """
    if not dt > 0:
        raise ParameterError("dt must be positive")
    if n_steps < 0:
        raise ParameterError(f"n_steps must be >= 0, got {n_steps}")
    if n_steps == 0:
        return field
    shape = _view_shape(field.grid.n_points)
    u = field.values.astype(complex)  # a copy: the caller's field is not written
    half = _even_half(u, shape)
    if half is None:
        tables, substep = _propagator(field.grid, beta, dt), _linear_substep
        scratch = np.empty_like(tables)
    else:
        u, tables, substep = half, _half_step_tables(field.grid, beta, dt), _half_substep
        scratch = (np.empty_like(tables[4]), np.empty_like(tables[0]))  # (n1, h2), (h1, n2)
    square, work = np.empty(u.size), np.empty(u.size)
    rotation = np.empty(u.size, dtype=complex)

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
        substep(u, tables, scratch)
        if not _all_finite(u):
            raise BlowUpDetected(t0 + k * dt)
        rotate(dt)
    substep(u, tables, scratch)
    rotate(0.5 * dt)
    if not _all_finite(u):
        raise BlowUpDetected(t0 + n_steps * dt)
    return ComplexField(field.grid, u if half is None else _unfold(u, shape))


def _all_finite(u: np.ndarray) -> bool:
    """np.all(np.isfinite(u)), settled by one sum when it holds: a non-finite
    element makes the sum non-finite, but the sum can also overflow while
    every element is finite."""
    return bool(np.isfinite(np.sum(u)) or np.all(np.isfinite(u)))


def energy(field: ComplexField, alpha: float, beta: float = 1.0) -> float:
    """E = (1/2) int |u_xx|^2 + beta |u_x|^2 - (2/(alpha+2)) |u|^(alpha+2)."""
    g = field.grid
    quadratic = g.parseval(_symbol(g, beta), field.spectrum)
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


def check_run(dt: float, t_final: float, n_samples: int) -> np.ndarray:
    """The checkpoints' whole step counts, n_samples + 1 evenly spaced from 0 to
    t_final / dt, duplicates dropped.  Refuses a dt or t_final that is not finite,
    dt <= 0, t_final < 0, n_samples < 1, 2**53 steps or more (float checkpoints do
    not hold them exactly) and more checkpoints than fit in memory."""
    if not (0 < dt < np.inf and 0 <= t_final < np.inf and n_samples >= 1):
        raise ParameterError("need a finite dt > 0, a finite t_final >= 0 and n_samples >= 1,"
                             f" got {dt:g}, {t_final:g}, {n_samples}")
    if not np.round(t_final / dt) < 2**53:
        raise ParameterError(f"t_final / dt = {t_final / dt:g} steps; need fewer than 2**53")
    total_steps = int(round(t_final / dt))  # more checkpoints than whole steps add none
    steps = lattice(0, total_steps, min(n_samples, total_steps) + 1, "n_samples + 1")
    steps = np.round(steps).astype(int)  # sorted, so a duplicate follows its twin
    return steps[np.diff(steps, prepend=-1) > 0]


def run(field: ComplexField, alpha: float, dt: float, t_final: float, n_samples: int,
        observers: dict, beta: float = 1.0) -> Trajectory:
    """Advance field from t = 0 to t_final, sampling every observer at the
    start and at the checkpoints of ``check_run``.

    ``observers`` maps a name to a function of the field.  Blow-up truncates
    the trajectory instead of raising.
    """
    checkpoints = check_run(dt, t_final, n_samples)
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
    distance to phi, a ComplexField whose transform and H2 norm are taken once;
    refuses an unusable u0 (``check_field``)."""
    with np.errstate(all="ignore"):
        u0 = ComplexField(profile.grid, (1.0 + delta) * profile.values.astype(complex))
    check_field(u0, alpha, beta)
    reference = ComplexField(profile.grid, profile.values)
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


def orbital_distance(field: ComplexField, reference: ComplexField) -> float:
    """H2 distance to the orbit of the reference wave under rotation/translation;
    both fields' transforms and H2 norms are their cached ones.

    The rotation minimizer is closed-form for each translation (phase of the
    complex H2 pairing); the translation search runs over whole grid cells
    via a single cross-correlation FFT.

    The distance is computed as sqrt(|u|^2 + |phi|^2 - 2 max pairing) in H2,
    whose terms cancel, so it has a precision floor of about
    sqrt(machine epsilon) * |phi|_H2: some 4e-8 for the alpha = 2 wave.
    Smaller distances, such as that of an unperturbed wave after evolution,
    are not resolved.
    """
    g = field.grid
    pairing = g.dx * np.fft.ifft(g.h2_weight * field.spectrum * np.conj(reference.spectrum))
    best = float(np.max(np.abs(pairing)))
    dist_sq = max(field.h2_norm_sq + reference.h2_norm_sq - 2.0 * best, 0.0)
    return float(np.sqrt(dist_sq))

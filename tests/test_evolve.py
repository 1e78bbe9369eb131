"""Tests for the split-step integrator, conservation, and orbital distance."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from model_oracle import constrained_functional
from reference_evolve import reference_advance
from solitonlab import evolve
from solitonlab.errors import BlowUpDetected, ParameterError
from solitonlab.evolve import (
    ConservationAudit,
    advance,
    check_run,
    conservation_audit,
    energy,
    mass,
    orbital_distance,
    perturbed_run,
    run,
)
from solitonlab.explicit import explicit_params, phi_exact
from solitonlab.grid import ComplexField, RealProfile, SpectralGrid, lattice
from solitonlab.petviashvili import SolverConfig, petviashvili_solve, power, symbol

OMEGA0_2 = 4.0 / 25.0


@pytest.fixture(scope="module")
def standing_wave(grid_mid):
    phi = phi_exact(2.0, grid_mid)
    return phi, ComplexField(grid_mid, phi.values.astype(complex))


def test_advance_and_run_refuse_zero_dt(standing_wave):
    _, field = standing_wave
    with pytest.raises(ParameterError):
        advance(field, 2.0, 0.0, 1)
    with pytest.raises(ParameterError):
        run(field, 2.0, 0.0, 1.0, 4, {"mass": mass})


def test_zero_field_stays_zero(grid_mid):
    zero = ComplexField(grid_mid, np.zeros(grid_mid.n_points, dtype=complex))
    out = advance(zero, 2.0, 1e-2, 10)
    assert np.max(np.abs(out.values)) == 0.0
    traj = run(zero, 2.0, 1e-2, 0.1, 1, {"mass": mass})
    assert traj.times == pytest.approx([0.0, 0.1])


def test_step_advances_bookkeeping(standing_wave):
    _, field = standing_wave
    traj = run(field, 2.0, 1e-3, 1e-3, 1, {"mass": mass})
    assert traj.times == pytest.approx([0.0, 1e-3])


def test_standing_wave_phase_rotation(standing_wave):
    # exact solution u(t) = exp(i omega0 t) phi
    phi, field = standing_wave
    out = advance(field, 2.0, 1e-3, 1000)
    expected = np.exp(1j * OMEGA0_2 * 1.0) * phi.values
    assert np.max(np.abs(out.values - expected)) <= 1e-6


def test_second_order_convergence(standing_wave):
    phi, field = standing_wave
    errors = []
    for dt in (2e-3, 1e-3):
        out = advance(field, 2.0, dt, int(round(1.0 / dt)))
        expected = np.exp(1j * OMEGA0_2) * phi.values
        errors.append(np.max(np.abs(out.values - expected)))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 6.0])
def test_advance_matches_allocating_reference(grid_small, alpha, beta):
    # a perturbed, boosted explicit wave, which is not even and steps by the
    # reference's own transform pair: a 1-ulp change of it moves the reference
    # itself by about 6e-15 after 1000 steps, and the fused rotation's
    # rounding reads 4.6-6.7e-15 (N = 1024 and 8192)
    for grid in (grid_small, SpectralGrid()):
        values = 1.01 * phi_exact(alpha, grid).values * np.exp(0.2j * grid.nodes)
        field = ComplexField(grid, values)
        out = advance(field, alpha, 1e-3, 1000, beta).values
        expected = reference_advance(field, alpha, 1e-3, 1000, beta).values
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))


def _odd_part(values):
    """max |u - u(-x)| / max |u|, both over real and imaginary parts."""
    odd = (values - np.roll(values[::-1], 1)).view(float)
    return float(np.max(np.abs(odd)) / np.max(np.abs(values.view(float))))


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("alpha", [2.0, 6.0])
def test_advance_of_even_waves_matches_allocating_reference(grid_small, alpha, beta):
    # solved waves have odd parts of 1-7e-16 and exact waves of 0, so both
    # step on the half view; after 1000 steps the distance to the reference
    # read 1.1-1.3e-13 at N = 1024 and 1.9-2.3e-13 at N = 8192, and the odd
    # part of the output at most 1.4e-16
    omega = explicit_params(alpha).omega0
    for grid in (grid_small, SpectralGrid()):
        solved, diag = petviashvili_solve(alpha, omega, grid, SolverConfig(dispersion_beta=beta))
        assert diag.converged
        for wave in (solved, phi_exact(alpha, grid)):
            field = ComplexField(grid, 1.01 * wave.values + 0j)
            assert _odd_part(field.values) <= evolve.EVEN_CUT
            out = advance(field, alpha, 1e-3, 1000, beta).values
            expected = reference_advance(field, alpha, 1e-3, 1000, beta).values
            assert np.max(np.abs(out - expected)) <= 4e-13 * np.max(np.abs(expected))
            assert _odd_part(out) <= evolve.EVEN_CUT / 8


@pytest.mark.parametrize("scale, even", [(0.5, True), (2.0, False)])
def test_the_even_cut_selects_the_path(grid_small, scale, even):
    # an odd part of half the cut steps as the field's even part, whose free
    # columns unfold to it bit for bit; twice the cut steps whole
    x = grid_small.nodes
    odd = x * np.exp(-x**2)
    u = np.exp(-x**2) + 0.5j + scale * evolve.EVEN_CUT / (2 * np.max(np.abs(odd))) * odd
    assert _odd_part(u) == pytest.approx(scale * evolve.EVEN_CUT, rel=1e-3)
    shape = evolve._view_shape(grid_small.n_points)
    half = evolve._even_half(u, shape)
    if even:
        np.testing.assert_array_equal(evolve._unfold(half, shape),
                                      0.5 * u + 0.5 * np.roll(u[::-1], 1))
    else:
        assert half is None


@pytest.mark.parametrize("shape", ["boosted", "odd-noise"])
def test_non_even_fields_step_on_the_whole_view_bit_for_bit(grid_small, monkeypatch, shape):
    # the boosted wave above, and an even wave plus odd noise of 1e-12, far
    # above the cut: the same bytes as with every field stepped whole
    x = grid_small.nodes
    wave = 1.01 * phi_exact(2.0, grid_small).values
    if shape == "boosted":
        values = wave * np.exp(0.2j * x)
    else:
        values = wave + 1e-12 * np.sin(np.pi * x / grid_small.half_width) + 0j
    field = ComplexField(grid_small, values)
    assert _odd_part(field.values) > evolve.EVEN_CUT
    outcomes = []
    for cut in (evolve.EVEN_CUT, -np.inf):  # no field's odd part is <= -inf
        monkeypatch.setattr(evolve, "EVEN_CUT", cut)
        outcomes.append(advance(field, 2.0, 1e-3, 200).values.tobytes())
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("log2n", range(1, 14))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(dt=st.floats(1e-4, 1.0), beta=st.floats(0.0, 4.0), half_width=st.floats(1.0, 400.0),
       seed=st.integers(0, 2**32 - 1))
def test_half_substep_is_the_1d_propagator_on_even_fields(log2n, dt, beta, half_width, seed):
    # n1 = 1 (n = 2) and n1 = 2 (n = 4, 8) included.  xi**4 rounds differently
    # at -xi, so the 1-D propagator is even only to an ulp of its phase, which
    # is far from rounding where xi^4 dt is large; the half path reads the
    # propagator of the modes 0..n/2 at their mirror images too, and so does
    # the oracle
    grid = SpectralGrid(2**log2n, half_width)
    n = grid.n_points
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u = 0.5 * u + 0.5 * np.roll(u[::-1], 1)  # u(x) = u(-x) exactly
    modes = np.arange(n)
    lin = np.exp(-1j * symbol(grid.wavenumbers, 0.0, beta) * dt)[np.minimum(modes, n - modes)]
    expected = np.fft.ifft(lin * np.fft.fft(u))
    shape = n1, n2 = evolve._view_shape(n)
    half = evolve._even_half(u, shape)
    evolve._half_substep(half, evolve._half_step_tables(grid, beta, dt),
                         (np.empty((n1, n2 // 2 + 1), dtype=complex),
                          np.empty((n1 // 2 + 1, n2), dtype=complex)))
    out = evolve._unfold(half, shape)
    assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))


def _record_transforms(monkeypatch):
    """(name, shape, axis) of every np.fft.fft and np.fft.ifft call."""
    calls = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)

        def recorded(a, *args, _name=name, _transform=transform, **kwargs):
            calls.append((_name, np.shape(a), kwargs.get("axis")))
            return _transform(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)
    return calls


@pytest.mark.parametrize("n, shape", [(2, (1, 2)), (8, (2, 4)), (1024, (32, 32)),
                                      (8192, (64, 128))])
def test_one_step_is_four_transforms_of_the_n1_by_n2_view(monkeypatch, n, shape):
    # an even field steps on the (n1, n2/2 + 1) free columns of its (n1, n2)
    # view and the (n1/2 + 1, n2) rows of its spectrum; the same Gaussian
    # moved by one node is not even (for n >= 4; every field on 2 points is)
    # and steps by one fft and one ifft of length n
    n1, n2 = shape
    half_step = [("fft", (n1, n2 // 2 + 1), 0), ("fft", (n1 // 2 + 1, n2), 1),
                 ("ifft", (n1 // 2 + 1, n2), 1), ("ifft", (n1, n2 // 2 + 1), 0)]
    whole_step = [("fft", (n,), None), ("ifft", (n,), None)] if n > 2 else half_step
    grid = SpectralGrid(n, 100.0)
    even = np.exp(-grid.nodes**2) + 0j
    calls = _record_transforms(monkeypatch)
    for values, step in ((even, half_step), (np.roll(even, 1), whole_step)):
        field = ComplexField(grid, values)
        calls.clear()
        advance(field, 2.0, 1e-3, 1)
        assert calls == step
        calls.clear()
        advance(field, 2.0, 1e-3, 3)
        assert calls == 3 * step


def test_a_run_builds_its_tables_once(monkeypatch, wave_2):
    # the symbol for energy and propagator, and the half path's propagator,
    # gathers and phases: once for 20 checkpoints, not once per checkpoint;
    # the wave is even, so the whole field's propagator is never built
    builds = []
    monkeypatch.setattr(evolve, "symbol", lambda *args: builds.append(args) or symbol(*args))
    evolve._symbol.cache_clear()
    evolve._propagator.cache_clear()
    evolve._half_step_tables.cache_clear()
    result = perturbed_run(wave_2, 2.0, 0.01, 1e-3, 0.2, 20)
    assert result.times.size == 21
    assert len(builds) == 1
    assert evolve._half_step_tables.cache_info().misses == 1
    assert evolve._half_step_tables.cache_info().hits == 19
    assert evolve._propagator.cache_info().misses == 0


def test_a_checkpoint_transforms_the_field_once(monkeypatch, wave_2):
    # energy and orbital distance read the field's one cached spectrum: one
    # forward fft of length n per checkpoint (the start's taken as
    # check_field reads u0's energy) and one of the reference, where each
    # checkpoint took 2; the series are those of a transform per observer
    n = wave_2.grid.n_points
    calls = _record_transforms(monkeypatch)
    traj = perturbed_run(wave_2, 2.0, 0.01, 1e-3, 0.02, 4)
    assert traj.times.size == 5
    assert calls.count(("fft", (n,), None)) == traj.times.size + 1
    oracle = run(ComplexField(wave_2.grid, 1.01 * wave_2.values + 0j), 2.0, 1e-3, 0.02, 4, {
        "energy": lambda u: _inline_energy(u, 2.0, 1.0),
        "orbital_distance": lambda u: _distance_per_call(u, wave_2),
    })
    for name in ("energy", "orbital_distance"):
        assert traj.series[name].tobytes() == oracle.series[name].tobytes()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(alpha=st.floats(1.5, 7.0), omega=st.floats(0.01, 1.0), beta=st.sampled_from([0.0, 1.0]))
def test_evolutions_of_solved_waves_take_the_half_path(grid_small, alpha, omega, beta):
    # omega >= 0.01 keeps the wave inside the width guard on [-100, 100); every
    # checkpoint of a perturbed solved wave is even to rounding, so no step
    # transforms the whole field
    profile, diag = petviashvili_solve(alpha, omega, grid_small, SolverConfig(dispersion_beta=beta))
    assume(diag.converged)
    evolve._propagator.cache_clear()
    perturbed_run(profile, alpha, 0.01, 1e-3, 1.0, 10, beta)
    assert evolve._propagator.cache_info().misses == 0


@pytest.mark.parametrize("n_steps", [-1, -5])
def test_advance_refuses_a_negative_step_count(standing_wave, n_steps):
    _, field = standing_wave
    before = field.values.copy()
    with pytest.raises(ParameterError, match="n_steps"):
        advance(field, 2.0, 1e-3, n_steps)
    np.testing.assert_array_equal(field.values, before)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, evolve.TINY_ANGLE), min_size=1, max_size=64))
def test_tiny_angles_need_no_cos_or_sin(angles):
    # the rotation's shortcut: into a strided output, as the step writes it
    angle = np.array(angles)
    rotation = np.empty(angle.size, dtype=complex)
    np.cos(angle, out=rotation.real)
    np.sin(angle, out=rotation.imag)
    assert rotation.real.tolist() == [1.0] * angle.size
    assert rotation.imag.tolist() == angle.tolist()


def _windowed_and_full(field, alpha, dt, n_steps, beta, monkeypatch):
    """(outcome with the cos/sin window, outcome with cos/sin everywhere),
    each the field's bytes or the blow-up time."""
    outcomes = []
    for tiny in (evolve.TINY_ANGLE, -np.inf):  # no angle is <= -inf
        monkeypatch.setattr(evolve, "TINY_ANGLE", tiny)
        with np.errstate(all="ignore"):
            try:
                outcomes.append(advance(field, alpha, dt, n_steps, beta).values.tobytes())
            except BlowUpDetected as exc:
                outcomes.append(exc.time)
    return outcomes


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (2.0, 1.0), (6.0, 1.0), (3.0, 0.0)])
def test_cos_sin_window_is_bit_identical(grid_small, monkeypatch, alpha, beta):
    # two waves far apart and a noise floor: small angles inside the window
    # and on both sides of it; the field steps whole and its even part on
    # the half view
    rng = np.random.default_rng(7)
    x = grid_small.nodes
    values = (phi_exact(2.0, grid_small).values * (1.0 + 0.5j)
              + np.roll(phi_exact(2.0, grid_small).values, 300)
              + 1e-12 * rng.standard_normal(x.size) * np.exp(0.3j * x))
    for u in (values, 0.5 * values + 0.5 * np.roll(values[::-1], 1)):
        field = ComplexField(grid_small, u)
        windowed, full = _windowed_and_full(field, alpha, 1e-3, 200, beta, monkeypatch)
        assert windowed == full


@pytest.mark.parametrize("big", [1e155, 1e200])
@pytest.mark.parametrize("alpha", [2.0, 6.0])
def test_cos_sin_window_keeps_non_finite_propagation(grid_small, monkeypatch, alpha, big):
    # an entry far from the wave whose |u|^2 or |u|^alpha overflows gives an
    # infinite angle; the run blows up at the same time as with cos and sin
    # everywhere
    values = phi_exact(2.0, grid_small).values.astype(complex)
    values[3] = big
    field = ComplexField(grid_small, values)
    windowed, full = _windowed_and_full(field, alpha, 1e-3, 5, 1.0, monkeypatch)
    assert isinstance(windowed, float) and windowed == full


def test_advance_leaves_the_input_field_alone(standing_wave):
    _, field = standing_wave
    before = field.values.copy()
    out = advance(field, 6.0, 1e-3, 10)
    np.testing.assert_array_equal(field.values, before)
    assert not np.shares_memory(out.values, field.values)


def _blow_up_times(field, alpha, n_steps):
    """The blow-up time (or None) of advance and of reference_advance."""
    times = []
    for integrate in (advance, reference_advance):
        with np.errstate(all="ignore"):
            try:
                integrate(field, alpha, 2.4, n_steps, t0=0.25)
                times.append(None)
            except BlowUpDetected as exc:
                times.append(exc.time)
    return times


@pytest.mark.parametrize("n_steps", [1, 2, 5])
@pytest.mark.parametrize("alpha", [2.0, 3.0, 6.0])
def test_blow_up_time_matches_reference(grid_small, alpha, n_steps):
    # |u|^alpha = 1e308 on a constant field, which every substep keeps
    # constant: dt |u|^alpha overflows in the first full rotation (after
    # step 1) but not in the half rotations, so a run of 2 or more steps turns
    # non-finite in its second step and a 1-step run never does.  A constant
    # field is even, so it steps on the half view
    field = ComplexField(grid_small, np.full(grid_small.n_points, 1e308 ** (1 / alpha) + 0j))
    times = _blow_up_times(field, alpha, n_steps)
    assert times[0] == times[1] == (None if n_steps == 1 else 0.25 + 2 * 2.4)


@pytest.mark.parametrize("n_steps", [1, 2, 5])
@pytest.mark.parametrize("alpha", [2.0, 3.0, 6.0])
def test_blow_up_time_of_a_non_even_field_matches_reference(grid_small, alpha, n_steps):
    # the same overflow on the plane wave i**j of mode n/4, which is not even
    # and steps on the whole view: its entries are c, i c, -c and -i c, so
    # the half rotation does not make the modulus uneven, and each substep
    # keeps it constant
    values = 1e308 ** (1 / alpha) * np.resize([1, 1j, -1, -1j], grid_small.n_points)
    field = ComplexField(grid_small, values)
    assert _odd_part(field.values) > evolve.EVEN_CUT
    times = _blow_up_times(field, alpha, n_steps)
    assert times[0] == times[1] == (None if n_steps == 1 else 0.25 + 2 * 2.4)


def test_overflowing_sum_of_finite_field_is_finite():
    # the per-step check sums first; a sum of 8192 entries of 1e305 overflows
    # while every entry is finite, which the element-wise rule accepts
    u = np.full(8192, 1e305 + 1e305j)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(u))
        assert evolve._all_finite(u)
        u[4321] = np.nan
        assert not evolve._all_finite(u)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [1e305 + 0j, -1e305 + 0j, 1e308j, 0j]), min_size=1, max_size=64))
def test_finiteness_check_is_the_elementwise_rule(entries):
    u = np.array(entries, dtype=complex)
    with np.errstate(all="ignore"):
        assert evolve._all_finite(u) == bool(np.all(np.isfinite(u)))


def test_energy_and_mass_of_standing_wave(grid_mid, standing_wave):
    phi, field = standing_wave
    p = explicit_params(2.0)
    expected_mass = 0.5 * p.a0**2 * 4.0 / (3.0 * p.b0)
    assert mass(field) == pytest.approx(expected_mass, rel=1e-8)
    assert np.isfinite(energy(field, 2.0))


def test_conservation_audit(standing_wave):
    _, field = standing_wave
    audit = conservation_audit(field, 2.0, 1e-3, 5.0, n_samples=10)
    assert isinstance(audit, ConservationAudit)
    assert audit.times.size == audit.energies.size == audit.masses.size
    drift_e, drift_f = audit.relative_drifts
    assert drift_e <= 1e-7
    assert drift_f <= 1e-10


def test_conservation_audit_zero_duration(standing_wave):
    # no step to take: the audit holds the initial sample alone
    _, field = standing_wave
    audit = conservation_audit(field, 2.0, 1e-3, 0.0, n_samples=4)
    np.testing.assert_array_equal(audit.times, [0.0])
    assert audit.relative_drifts == (0.0, 0.0)


def test_conservation_audit_refuses_zero_field(grid_mid):
    # the drifts are relative to the initial mass, which is 0
    zero = ComplexField(grid_mid, np.zeros(grid_mid.n_points, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="mass 0"):
            conservation_audit(zero, 2.0, 1e-3, 0.01, n_samples=2)


def test_stability_experiment_refuses_zero_wave(grid_mid):
    zero = RealProfile(grid_mid, np.zeros(grid_mid.n_points))
    with pytest.raises(ParameterError, match="initial field"):
        perturbed_run(zero, 2.0, 0.0, 1e-3, 1.0, 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dt=st.floats(1e-3, 1.0), t_final=st.floats(0.0, 40.0), n_samples=st.integers(1, 50000))
@example(dt=1e-3, t_final=0.0, n_samples=1)
@example(dt=1e-3, t_final=0.0, n_samples=100)
@example(dt=1e-3, t_final=2.0, n_samples=2000)  # one checkpoint per step
@example(dt=1e-3, t_final=2.0, n_samples=4001)
@example(dt=0.3, t_final=1.0, n_samples=7)  # 3 steps, 7 samples
@example(dt=1e-3, t_final=2.0, n_samples=1999)
def test_check_run_is_the_sorted_distinct_rounded_lattice(dt, t_final, n_samples):
    # the oracle has no cap at the step count: past it the rounded lattice
    # repeats whole steps, which np.unique drops
    steps = check_run(dt, t_final, n_samples)
    oracle = np.unique(np.round(lattice(0, round(t_final / dt), n_samples + 1, "")).astype(int))
    assert steps.dtype == oracle.dtype
    np.testing.assert_array_equal(steps, oracle)


@pytest.mark.parametrize("t_final, n_samples", [(-1.0, 4), (1.0, 0), (1.0, -2), (np.inf, 4)])
def test_run_refuses_bad_lengths(standing_wave, t_final, n_samples):
    _, field = standing_wave
    with pytest.raises(ParameterError):
        run(field, 2.0, 1e-3, t_final, n_samples, {"mass": mass})


def test_orbital_distance_identity(grid_mid, standing_wave):
    phi, field = standing_wave
    assert orbital_distance(field, ComplexField(phi.grid, phi.values)) <= 1e-12


def test_orbital_distance_orbit_invariance(grid_mid, standing_wave):
    phi, _ = standing_wave
    moved = np.exp(1j * np.pi / 3.0) * np.roll(phi.values.astype(complex), 5)
    dist = orbital_distance(ComplexField(grid_mid, moved), ComplexField(phi.grid, phi.values))
    assert dist <= 1e-10


def test_orbital_distance_transformation_invariance(grid_mid, standing_wave, rng):
    phi, _ = standing_wave
    u = (phi.values + 0.05 * rng.standard_normal(grid_mid.n_points)).astype(complex)
    reference = ComplexField(phi.grid, phi.values)
    base = orbital_distance(ComplexField(grid_mid, u), reference)
    theta = float(rng.uniform(0, 2 * np.pi))
    shifted = np.exp(1j * theta) * np.roll(u, 123)
    moved = orbital_distance(ComplexField(grid_mid, shifted), reference)
    assert abs(moved - base) <= 1e-10


def test_orbital_distance_amplitude_scaling(grid_mid, standing_wave):
    phi, _ = standing_wave
    u = ComplexField(grid_mid, 1.01 * phi.values.astype(complex))
    expected = 0.01 * grid_mid.norm(phi.values, "H2")
    reference = ComplexField(phi.grid, phi.values)
    assert orbital_distance(u, reference) == pytest.approx(expected, rel=1e-6)


def _distance_per_call(field, reference):
    """The orbital distance with the reference's transform and H2 norm taken
    on every call."""
    g = field.grid
    u_hat = np.fft.fft(field.values)
    phi_hat = np.fft.fft(reference.values.astype(complex))
    norm_u_sq = g.dx / g.n_points * float(np.sum(g.h2_weight * np.abs(u_hat) ** 2))
    norm_phi_sq = g.dx / g.n_points * float(np.sum(g.h2_weight * np.abs(phi_hat) ** 2))
    pairing = g.dx * np.fft.ifft(g.h2_weight * u_hat * np.conj(phi_hat))
    return float(np.sqrt(max(norm_u_sq + norm_phi_sq - 2.0 * float(np.max(np.abs(pairing))),
                             0.0)))


def test_prebuilt_orbit_reference_is_bit_for_bit(grid_mid, standing_wave, rng):
    # perturbed_run builds the reference once; every checkpoint's distance is
    # the one recomputed from the profile, to the bit
    phi, _ = standing_wave
    reference = ComplexField(phi.grid, phi.values)
    for scale in (1.0, 1.01, 0.5):
        u = scale * np.roll(phi.values, 7) + 0.01 * rng.standard_normal(grid_mid.n_points)
        field = ComplexField(grid_mid, u * np.exp(0.3j))
        expected = _distance_per_call(field, phi)
        assert orbital_distance(field, reference) == expected
    traj = perturbed_run(phi, 2.0, 0.01, 1e-3, 0.02, 4)
    oracle = run(ComplexField(grid_mid, 1.01 * phi.values.astype(complex)), 2.0, 1e-3, 0.02, 4,
                 {"orbital_distance": lambda u: _distance_per_call(u, phi)})
    np.testing.assert_array_equal(traj.series["orbital_distance"],
                                  oracle.series["orbital_distance"])


@pytest.fixture(scope="module")
def wave_2(grid_mid):
    profile, diag = petviashvili_solve(2.0, OMEGA0_2, grid_mid)
    assert diag.converged
    return profile


def test_stability_experiment_unperturbed(wave_2):
    result = perturbed_run(wave_2, 2.0, 0.0, 1e-3, 1.0, 4)
    assert result.blow_up_time is None
    assert np.max(result.series["orbital_distance"]) <= 1e-6


def test_stability_experiment_stable_bounded(grid_mid, wave_2):
    result = perturbed_run(wave_2, 2.0, 0.01, 1e-3, 5.0, 10)
    assert result.blow_up_time is None
    phi = phi_exact(2.0, grid_mid)
    bound = 5 * 0.01 * grid_mid.norm(phi.values, "H2")
    assert np.max(result.series["orbital_distance"]) <= bound


def test_blow_up_signal_carries_time():
    exc = BlowUpDetected(3.25)
    assert exc.time == 3.25


def test_stability_experiment_truncates_at_blow_up(wave_2, blow_up_on_third_interval):
    # 5 checkpoints of 200 steps; the 3rd interval blows up at t = 0.5
    result = perturbed_run(wave_2, 2.0, 0.01, 1e-3, 1.0, 5)
    np.testing.assert_allclose(result.times, [0.0, 0.2, 0.4])
    assert result.series["orbital_distance"].size == 3
    assert result.blow_up_time == pytest.approx(0.5)


def test_conservation_audit_raises_blow_up(standing_wave, blow_up_on_third_interval):
    _, field = standing_wave
    with pytest.raises(BlowUpDetected) as info:
        conservation_audit(field, 2.0, 1e-3, 1.0, n_samples=5)
    assert info.value.time == pytest.approx(0.5)
    assert len(blow_up_on_third_interval) == 3


def test_beta_zero_wave_stays_on_its_orbit():
    # the beta = 0 standing wave must be evolved with the beta = 0 propagator
    grid = SpectralGrid(n_points=1024, half_width=100.0)
    profile, diag = petviashvili_solve(2.0, 0.16, grid, SolverConfig(dispersion_beta=0.0))
    assert diag.converged
    result = perturbed_run(profile, 2.0, 0.0, 1e-3, 5.0, 5, beta=0.0)
    assert result.blow_up_time is None
    assert np.max(result.series["orbital_distance"]) <= 1e-6


def test_conservation_audit_honours_beta():
    grid = SpectralGrid(n_points=1024, half_width=100.0)
    profile, _ = petviashvili_solve(2.0, 0.16, grid, SolverConfig(dispersion_beta=0.0))
    field = ComplexField(grid, profile.values.astype(complex))
    audit = conservation_audit(field, 2.0, 1e-3, 2.0, n_samples=4, beta=0.0)
    drift_e, drift_f = audit.relative_drifts
    assert drift_e <= 1e-7
    assert drift_f <= 1e-10


def test_energy_uses_beta(standing_wave):
    # E(beta) - E(0) = (beta/2) int |u_x|^2
    _, field = standing_wave
    grid = field.grid
    ux = grid.apply_symbol(field.values, lambda xi: 1j * xi)
    gradient = float(grid.quadrature(np.abs(ux) ** 2).real)
    assert energy(field, 2.0, 0.5) - energy(field, 2.0, 0.0) == pytest.approx(
        0.25 * gradient, rel=1e-10)
    assert energy(field, 2.0) == energy(field, 2.0, 1.0)


def _inline_energy(field, alpha, beta):
    """The energy with its symbol built on every call, as it was before the
    symbol was cached."""
    g = field.grid
    coeffs = np.fft.fft(field.values)
    quadratic = g.dx / g.n_points * float(
        np.sum(symbol(g.wavenumbers, 0.0, beta) * np.abs(coeffs) ** 2))
    nonlinear = float(g.quadrature(power(field.values, alpha + 2)).real)
    return 0.5 * quadratic - nonlinear / (alpha + 2.0)


def test_energy_on_the_cached_symbol_is_bit_identical(grid_small, grid_mid):
    # betas and grids interleaved, so the cache misses and hits
    fields = [ComplexField(g, phi_exact(2.0, g).values * np.exp(0.3j * g.nodes))
              for g in (grid_small, grid_mid)]
    for beta in (1.0, 1.0, 0.0, 0.5, 1.0, 0.0):
        for field in fields + fields[:1]:
            assert energy(field, 2.0, beta) == _inline_energy(field, 2.0, beta)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("shape", ["explicit", "sign-changing"])
def test_energy_matches_constrained_functional(grid_mid, beta, shape):
    # E = B_0 - tau/(alpha+2): the complex-fft and the rfft quadratic forms agree
    g = grid_mid
    if shape == "explicit":
        values = phi_exact(2.0, g).values
    else:
        values = np.exp(-g.nodes**2) * np.cos(g.nodes)
    b_value, tau = constrained_functional(RealProfile(g, values), 2.0, 0.0, beta)
    e = energy(ComplexField(g, values.astype(complex)), 2.0, beta)
    assert e == pytest.approx(b_value - tau / 4.0, rel=1e-12)

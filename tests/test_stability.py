"""Tests for branch continuation, d''(omega), and threshold detection."""

import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab import petviashvili, stability
from solitonlab.errors import (
    BracketError,
    BranchError,
    DegenerateInputError,
    DivergenceError,
    InsufficientDataError,
    ParameterError,
)
from solitonlab.explicit import explicit_params, phi_exact
from solitonlab.grid import RealProfile, SpectralGrid
from solitonlab.petviashvili import SolverConfig, petviashvili_solve
from solitonlab.spectra import negative_direction_scalar
from solitonlab.stability import (
    SolitaryBranch,
    classify_sign,
    continue_branch,
    d_second,
    find_alpha0,
    find_omega_c,
    region_scan,
)


@pytest.fixture(scope="module")
def branch_grid():
    return SpectralGrid(n_points=2048, half_width=100.0)


@pytest.fixture(scope="module")
def branch_alpha2(branch_grid):
    return continue_branch(2.0, 0.02, 0.25, 12, branch_grid)


def _d2_at(alpha, omega, grid, h=2e-3):
    """Forward-difference d'' at omega: the two-point branch to omega + h."""
    return d_second(continue_branch(alpha, omega, omega + h, 2, grid))[0, 1]


def test_continue_branch_validation(branch_grid):
    with pytest.raises(ParameterError):
        continue_branch(2.0, 0.25, 0.02, 12, branch_grid)
    with pytest.raises(ParameterError):
        continue_branch(2.0, 0.02, 0.25, 1, branch_grid)


def test_width_guard():
    narrow = SpectralGrid(n_points=512, half_width=50.0)
    with pytest.raises(ParameterError):
        continue_branch(2.0, 0.002, 0.25, 12, narrow)
    # every solve refuses the wave, not only a branch's first point
    with pytest.raises(ParameterError, match="too wide"):
        petviashvili_solve(2.0, 0.002, narrow)
    # omega0(4) = 0.094 on a domain of half-width 20
    with pytest.raises(ParameterError, match="too wide"):
        find_alpha0((4.0, 5.5), SpectralGrid(n_points=512, half_width=20.0))


def test_region_scan_checks_lattice_before_work(branch_grid, monkeypatch):
    calls = []
    monkeypatch.setattr(stability, "petviashvili_solve",
                        lambda *args, **kwargs: calls.append(args))
    # a too-wide cell in mid-row
    with pytest.raises(ParameterError, match="too wide"):
        region_scan([2.0, 5.5], [0.05, 1e-4, 0.06], branch_grid)
    with pytest.raises(ParameterError, match="positive"):
        region_scan([2.0], [0.2, 0.0], branch_grid)
    assert calls == []


def test_branch_alpha2_all_converged(branch_alpha2):
    assert branch_alpha2.converged_flags.all()
    assert np.all(np.isfinite(branch_alpha2.masses))
    assert np.all(branch_alpha2.masses > 0)
    assert branch_alpha2.omegas.size == 12


def test_branch_point_matches_exact_wave(branch_grid):
    # sweep through omega0(2) = 0.16 exactly and compare with the closed form
    branch = continue_branch(2.0, 0.10, 0.16, 4, branch_grid)
    exact = phi_exact(2.0, branch_grid)
    assert branch.omegas[-1] == pytest.approx(0.16, abs=1e-15)
    diff = np.max(np.abs(branch.profiles[-1].values - exact.values))
    assert diff <= 1e-8


def test_d_second_positive_for_alpha2(branch_alpha2):
    samples = d_second(branch_alpha2)
    assert samples.shape[0] == branch_alpha2.omegas.size - 1
    assert np.all(samples[:, 1] > 0)


def test_d_second_sign_change_alpha5(branch_grid):
    branch = continue_branch(5.0, 0.02, 0.25, 16, branch_grid)
    signs = np.sign(d_second(branch)[:, 1])
    changes = np.sum(np.diff(signs) != 0)
    assert changes == 1
    assert signs[0] < 0 < signs[-1]


def test_d_second_negative_for_alpha55(branch_grid):
    branch = continue_branch(5.5, 0.02, 0.25, 12, branch_grid)
    assert np.all(d_second(branch)[:, 1] < 0)


def test_d_second_needs_two_points(branch_grid):
    empty = SolitaryBranch(
        omegas=np.array([0.1, 0.12]),
        profiles=[None, None],
        masses=np.array([np.nan, np.nan]),
        converged_flags=np.array([False, False]),
    )
    with pytest.raises(InsufficientDataError):
        d_second(empty)


def test_classify_sign_dead_band():
    assert classify_sign(5.0, 1.0, 0.1) == 1
    assert classify_sign(-5.0, 1.0, 0.1) == -1
    assert classify_sign(1e-9, 1.0, 0.1) == 0
    # elementwise on arrays, and a failed cell (NaN) stays NaN
    signs = classify_sign(np.array([5.0, -5.0, 1e-9, np.nan]), np.array([1.0, 1.0, 1.0, np.nan]),
                          np.array([0.1, 0.1, 0.1, 0.1]))
    np.testing.assert_array_equal(signs, [1.0, -1.0, 0.0, np.nan])
    assert not np.signbit(signs[2])  # the dead band is +0, which the CSVs print as 0


def test_d_second_step_size_robustness(branch_grid):
    d2_coarse = _d2_at(2.0, 0.1, branch_grid, h=4e-3)
    d2_fine = _d2_at(2.0, 0.1, branch_grid, h=2e-3)
    assert abs(d2_coarse - d2_fine) <= 0.1 * abs(d2_fine)


@pytest.mark.parametrize("f, a, b, root", [
    (lambda x: x**3 - 2.0, 0.0, 3.0, 2.0 ** (1 / 3)),
    (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
    (lambda x: math.expm1(40.0 * (x - 0.3)), -1.0, 1.0, 0.3),  # steep and lopsided
    (lambda x: x - 0.25, 0.25, 1.0, 0.25),  # root at an end
], ids=["cubic", "cos", "steep", "end"])
def test_brent_finds_closed_form_roots(f, a, b, root):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    found = stability._brent(counted, a, b, f(a), f(b), 1e-12)
    assert found == pytest.approx(root, abs=1e-12)
    assert all(min(a, b) <= x <= max(a, b) for x in calls)
    assert len(calls) <= 20  # bisection to 1e-12 takes 40


def test_find_omega_c_alpha5(branch_grid):
    omega_c = find_omega_c(5.0, (0.02, 0.25), branch_grid)
    assert omega_c is not None
    assert 0.02 < omega_c < 0.25


def _recording_sweeps(monkeypatch):
    """Record every _sweep call as (omegas, initial guess, profiles yielded)."""
    sweeps, sweep = [], stability._sweep

    def recording(alpha, omegas, grid, config):
        record = (list(omegas), config.initial_guess, [])
        sweeps.append(record)
        for profile, converged in sweep(alpha, omegas, grid, config):
            record[2].append(profile)
            yield profile, converged

    monkeypatch.setattr(stability, "_sweep", recording)
    return sweeps


def test_find_omega_c_seeds_from_bracket_left_end(branch_grid, monkeypatch):
    sweeps = _recording_sweeps(monkeypatch)
    omega_c = find_omega_c(5.0, (0.02, 0.25), branch_grid)
    (omegas, _, profiles), *solves = sweeps
    assert len(omegas) == 16 and len(solves) >= 2
    # the first interior solve seeds from the bracket's left end, the branch
    # point just below it; each later one from the solve before it
    (first_mid,), first_seed, _ = solves[0]
    k = next(i for i, p in enumerate(profiles) if p is first_seed)
    assert omegas[k] < first_mid < omegas[k + 1]
    for (_, _, (before,)), (_, seed, _) in zip(solves, solves[1:]):
        assert seed is before
    assert omega_c == pytest.approx(0.1118831293, abs=1e-8)


def test_find_omega_c_moves_bracket_past_left_attribution(branch_grid, monkeypatch):
    # branch points 1.525e-2 apart with one at 0.1115, just left of omega_c: the
    # forward differences change sign between the samples left of and at that
    # point, but the chi form is negative at both ends of the left interval
    sweeps = _recording_sweeps(monkeypatch)
    omega_c = find_omega_c(5.0, (0.02, 0.02 + 15 * 0.01525), branch_grid)
    (omegas, _, _), *solves = sweeps
    assert omegas[6] == pytest.approx(0.1115, abs=1e-15)
    assert all(omegas[6] < mid < omegas[7] for (mid,), _, _ in solves)
    assert omega_c == pytest.approx(0.1118831293, abs=1e-8)


def test_find_omega_c_without_chi_sign_change_is_bracket_error(branch_grid, monkeypatch):
    monkeypatch.setattr(stability, "_chi_d2", lambda *args: 1.0)
    with pytest.raises(BracketError):
        find_omega_c(5.0, (0.02, 0.25), branch_grid)


def test_find_omega_c_none_for_alpha2(branch_grid):
    assert find_omega_c(2.0, (0.02, 0.25), branch_grid, n_coarse=8) is None


def test_d_second_at_omega0_signs(branch_grid):
    assert _d2_at(2.0, explicit_params(2.0).omega0, branch_grid) > 0
    assert _d2_at(5.5, explicit_params(5.5).omega0, branch_grid) < 0


def test_find_alpha0_bracket_error(branch_grid):
    with pytest.raises(BracketError):
        find_alpha0((2.0, 3.0), branch_grid, tol_alpha=0.5)


def test_find_alpha0_localizes_root(branch_grid):
    # within its tolerance of the root, which the default tolerance resolves
    alpha0 = find_alpha0((4.0, 5.5), branch_grid, tol_alpha=0.2)
    assert abs(alpha0 - 4.791042420) <= 0.2
    assert type(alpha0) is float
    assert find_alpha0((4.0, 5.5), branch_grid) == pytest.approx(4.791042420, abs=1e-8)


def _mass_d2(alpha, omega, grid, h, seed, beta=1.0):
    """Central-difference oracle 0.5 (M(omega + h) - M(omega - h)) / 2h of the
    squared L2 mass M, from two solves seeded from ``seed``."""
    config = SolverConfig(initial_guess=seed, dispersion_beta=beta)
    masses = []
    for w in (omega - h, omega + h):
        profile, diag = petviashvili_solve(alpha, w, grid, config)
        assert diag.converged
        masses.append(stability._mass(profile))
    return 0.5 * (masses[1] - masses[0]) / (2.0 * h)


def _bisect_root(f, a, b, tol):
    fa = f(a)
    assert fa * f(b) < 0
    while b - a > tol:
        mid = 0.5 * (a + b)
        if math.copysign(1.0, f(mid)) == math.copysign(1.0, fa):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _assert_matches_central_difference(root, d2_at_step, bracket):
    """The bisected roots of the central difference at steps h and h/2 approach
    root at O(h^2), and their Richardson extrapolation agrees with it."""
    coarse, fine = (_bisect_root(lambda x: d2_at_step(x, h), *bracket, 1e-11)
                    for h in (5e-4, 2.5e-4))
    assert abs(coarse - root) == pytest.approx(4.0 * abs(fine - root), rel=0.05)
    assert abs(fine - root) <= 1e-5
    assert (4.0 * fine - coarse) / 3.0 == pytest.approx(root, abs=1e-8)


@pytest.mark.parametrize("n_points", [4096, 8192])
def test_find_alpha0_matches_central_difference(n_points, monkeypatch):
    grid = SpectralGrid(n_points, 200.0)

    def no_solve(*args, **kwargs):
        raise AssertionError("find_alpha0 solved a wave")

    with monkeypatch.context() as patch:
        patch.setattr(stability, "petviashvili_solve", no_solve)
        alpha0 = find_alpha0((4.0, 5.5), grid)
    assert alpha0 == pytest.approx(4.791042420, abs=1e-8)

    def d2(alpha, h):
        return _mass_d2(alpha, explicit_params(alpha).omega0, grid, h, phi_exact(alpha, grid))

    _assert_matches_central_difference(alpha0, d2, (4.7, 4.9))


@pytest.mark.parametrize("n_points, half_width", [(2048, 100.0), (8192, 200.0)])
def test_find_omega_c_matches_central_difference(n_points, half_width):
    grid = SpectralGrid(n_points, half_width)
    omega_c = find_omega_c(5.0, (0.02, 0.25), grid)
    assert omega_c == pytest.approx(0.1118831293, abs=1e-8)
    seed, _ = petviashvili_solve(5.0, omega_c, grid)
    _assert_matches_central_difference(
        omega_c, lambda omega, h: _mass_d2(5.0, omega, grid, h, seed), (0.105, 0.12))


@settings(max_examples=10, deadline=None)
@given(alpha=st.floats(0.5, 4.0), omega=st.floats(0.05, 1.0), beta=st.sampled_from([0.0, 1.0]))
def test_chi_form_is_the_central_difference_limit(branch_grid, alpha, omega, beta):
    # alpha <= 4 is stable at every omega for beta = 1 and 0 (d'' > 0)
    profile, diag = petviashvili_solve(alpha, omega, branch_grid,
                                       SolverConfig(dispersion_beta=beta))
    assert diag.converged
    d2 = -negative_direction_scalar(profile, alpha, omega, beta)
    assert d2 > 0
    h = 0.01 * omega
    errors = [_mass_d2(alpha, omega, branch_grid, step, profile, beta) - d2
              for step in (h, h / 2)]
    assert abs(errors[0]) <= 1e-4 * d2
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)


def test_d_second_at_is_a_two_point_branch_difference(branch_grid):
    # linspace(a, b, 2) is exactly [a, b], so the pointwise d'' is the forward
    # difference of the trapezoid-rule masses at omega and omega + h
    h = 2e-3
    branch = continue_branch(2.0, 0.1, 0.1 + h, 2, branch_grid)
    assert branch.omegas.tolist() == [0.1, 0.1 + h]
    m0, m1 = branch.masses
    assert d_second(branch)[0, 1] == 0.5 * (m1 - m0) / ((0.1 + h) - 0.1)


def test_region_scan_small_lattice(branch_grid):
    result = region_scan([2.0, 5.5], [0.05, 0.10, 0.15], branch_grid)
    assert result.sign_matrix.shape == (2, 3)
    assert np.all(result.sign_matrix[0] == 1)
    assert np.all(result.sign_matrix[1] == -1)


def test_region_scan_parallel_matches_serial(branch_grid):
    serial = region_scan([2.0, 5.5], [0.08, 0.12], branch_grid, jobs=1)
    parallel = region_scan([2.0, 5.5], [0.08, 0.12], branch_grid, jobs=2)
    np.testing.assert_array_equal(serial.sign_matrix, parallel.sign_matrix)


def test_region_scan_pool_has_at_most_one_worker_per_row(branch_grid, monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(stability, "ProcessPoolExecutor", SerialPool)
    pooled = region_scan([2.0, 5.5], [0.08, 0.12], branch_grid, jobs=8)
    assert sizes == [2]
    region_scan([2.0], [0.08, 0.12], branch_grid, jobs=8)  # one row runs in-process
    assert sizes == [2]
    serial = region_scan([2.0, 5.5], [0.08, 0.12], branch_grid)
    np.testing.assert_array_equal(pooled.sign_matrix, serial.sign_matrix)


def test_region_scan_validation(branch_grid):
    with pytest.raises(ParameterError):
        region_scan([], [0.1], branch_grid)
    for jobs in (0, -4):
        with pytest.raises(ParameterError, match="jobs"):
            region_scan([2.0], [0.1, 0.12], branch_grid, jobs=jobs)
    with pytest.raises(ParameterError):
        region_scan([2.0], [-0.1], branch_grid)
    with pytest.raises(ParameterError):
        region_scan([2.0], [], branch_grid)


def test_region_scan_degenerate_cell_becomes_nan(branch_grid, monkeypatch):
    solve = stability.petviashvili_solve

    def failing(alpha, omega, *args, **kwargs):
        if omega == 0.10:
            raise DegenerateInputError("nonlinear pairing vanishes for this profile")
        return solve(alpha, omega, *args, **kwargs)

    monkeypatch.setattr(stability, "petviashvili_solve", failing)
    result = region_scan([2.0], [0.05, 0.10, 0.15, 0.20], branch_grid)
    # only the failed cell is NaN; the row goes on past it
    np.testing.assert_array_equal(result.sign_matrix[0], [1.0, np.nan, 1.0, 1.0])


def test_region_row_matches_branch_signs(branch_grid):
    # each cell's sign is that of -<chi, phi> at its own wave, which the
    # region's sweep solves as the branch over the same omegas does
    omegas = np.linspace(1 / 16, 1 / 4, 13)
    branch = continue_branch(5.0, omegas[0], omegas[-1], omegas.size, branch_grid)
    assert branch.converged_flags.all()
    d2 = [-negative_direction_scalar(p, 5.0, w) for p, w in zip(branch.profiles, omegas)]
    signs = classify_sign(np.array(d2), branch.masses, omegas)
    row = region_scan([5.0], omegas, branch_grid).sign_matrix[0]
    np.testing.assert_array_equal(row, signs)
    # the sign changes at omega_c = 0.1118831293 (-, then +)
    np.testing.assert_array_equal(row, np.where(omegas < 0.1118831293, -1.0, 1.0))


def test_region_scan_decreasing_lattice(branch_grid):
    result = region_scan([2.0, 5.5], [0.20, 0.15, 0.10], branch_grid)
    assert np.all(result.sign_matrix[0] == 1)
    assert np.all(result.sign_matrix[1] == -1)


Solve = collections.namedtuple("Solve", "omega grid guess profile")


def _recording_solves(monkeypatch, bad_omega=None):
    """Record every solve in stability as a Solve (profile None where it
    raised); the solver raises DegenerateInputError at bad_omega."""
    solve, calls = stability.petviashvili_solve, []

    def recording(alpha, omega, grid=None, config=None):
        calls.append(Solve(omega, grid, config.initial_guess, None))
        if omega == bad_omega:
            raise DegenerateInputError("nonlinear pairing vanishes for this profile")
        profile, diag = solve(alpha, omega, grid, config)
        calls[-1] = calls[-1]._replace(profile=profile)
        return profile, diag

    monkeypatch.setattr(stability, "petviashvili_solve", recording)
    return calls


def _interpolant(profile, grid):
    """The trigonometric interpolant of profile at grid's nodes, from its full
    complex spectrum zero-padded in the middle, its Nyquist term split
    between the two modes it stands for."""
    n, m = profile.grid.n_points, grid.n_points
    coeffs = np.fft.fft(profile.values)
    padded = np.zeros(m, dtype=complex)
    padded[: n // 2] = coeffs[: n // 2]
    padded[m - n // 2 + 1:] = coeffs[n // 2 + 1:]
    padded[n // 2] = padded[m - n // 2] = 0.5 * coeffs[n // 2]
    return np.fft.ifft(padded).real * (m / n)


def _assert_nested(calls, seeds, grid):
    """Each point made two solves: one on a coarser grid of grid's half-width,
    whose nodes are every f-th of grid's, from the seed's values there (None,
    the cold start, stays None); then one on grid, from the coarse wave's
    interpolant, or from the seed itself where the coarse solve raised."""
    assert len(calls) == 2 * len(seeds)
    for coarse, fine, seed in zip(calls[::2], calls[1::2], seeds):
        assert coarse.omega == fine.omega
        f = grid.n_points // coarse.grid.n_points
        assert f > 1 and coarse.grid.half_width == grid.half_width
        np.testing.assert_array_equal(coarse.grid.nodes, grid.nodes[::f])
        assert (fine.grid.n_points, fine.grid.half_width) == (grid.n_points, grid.half_width)
        if seed is None:
            assert coarse.guess is None
        else:
            np.testing.assert_array_equal(coarse.guess.values, seed[::f])
        if coarse.profile is not None:
            expected = _interpolant(coarse.profile, grid)
            np.testing.assert_allclose(fine.guess.values, expected, rtol=0,
                                       atol=1e-14 * np.abs(expected).max())
        elif seed is None:
            assert fine.guess is None
        else:
            np.testing.assert_array_equal(fine.guess.values, seed)


def test_d_second_at_failed_first_point_solves_once(branch_grid, monkeypatch):
    calls = _recording_solves(monkeypatch, 0.1)
    with pytest.raises(BranchError):
        _d2_at(2.0, 0.1, branch_grid)
    # the first point's two stages, both cold, and no solve at omega + h
    _assert_nested(calls, [None], branch_grid)


def test_branch_truncates_at_degenerate_point(branch_grid, monkeypatch):
    omegas = np.linspace(0.05, 0.25, 6)
    calls = _recording_solves(monkeypatch, omegas[2])
    branch = continue_branch(2.0, 0.05, 0.25, 6, branch_grid)
    np.testing.assert_array_equal(branch.converged_flags, [True, True, False])
    assert branch.profiles[2] is None
    assert np.isnan(branch.masses[2])
    # the branch stops solving at the failed point
    assert [call.omega for call in calls] == list(np.repeat(omegas[:3], 2))
    _assert_nested(calls, [None, branch.profiles[0].values,
                           _secant(omegas[:2], branch.profiles[:2], omegas[2])], branch_grid)


def test_branch_degenerate_first_point_is_branch_error(branch_grid, monkeypatch):
    calls = _recording_solves(monkeypatch, 0.05)
    with pytest.raises(BranchError):
        continue_branch(2.0, 0.05, 0.25, 6, branch_grid)
    _assert_nested(calls, [None], branch_grid)


def test_region_scan_restarts_cold_after_failure(branch_grid, monkeypatch):
    calls = _recording_solves(monkeypatch, 0.10)
    region_scan([2.0], [0.05, 0.10, 0.15, 0.20], branch_grid)
    # 0.05 cold, 0.10 warm and failing, 0.15 cold, 0.20 warm
    fine = calls[1::2]
    _assert_nested(calls, [None, fine[0].profile.values, None, fine[2].profile.values],
                   branch_grid)


def _secant(omegas, profiles, omega):
    (w0, w1), (p0, p1) = omegas, (p.values for p in profiles)
    return p1 + (omega - w1) / (w1 - w0) * (p1 - p0)


def test_sweep_seeds_cold_then_warm_then_secant(branch_grid, monkeypatch):
    # a failure restarts the sequence: cold, plain-warm, then the secant
    omegas = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
    calls = _recording_solves(monkeypatch, 0.15)
    profiles = [p for p, _ in stability._sweep(2.0, omegas, branch_grid, None)]
    assert profiles[2] is None and all(p is not None for i, p in enumerate(profiles) if i != 2)
    assert [call.profile for call in calls[1::2]] == profiles
    _assert_nested(calls, [None, profiles[0].values, _secant(omegas[:2], profiles[:2], omegas[2]),
                           None, profiles[3].values, _secant(omegas[3:5], profiles[3:5], omegas[5])],
                   branch_grid)


def test_sweep_secant_keeps_a_given_first_guess(branch_grid, monkeypatch):
    # the config's own guess starts the sweep; it is not a converged point
    start = phi_exact(2.0, branch_grid)
    calls = _recording_solves(monkeypatch)
    profiles = [p for p, _ in stability._sweep(2.0, [0.17, 0.18, 0.19], branch_grid,
                                               SolverConfig(initial_guess=start))]
    _assert_nested(calls, [start.values, profiles[0].values,
                           _secant([0.17, 0.18], profiles[:2], 0.19)], branch_grid)


def test_sweep_repeated_omega_seeds_the_last_profile(branch_grid, monkeypatch):
    # region --omega-min 0.1 --omega-max 0.1 --omega-steps 3: no secant
    # through two points at one omega, so no NaN seed
    result = region_scan([2.0], np.linspace(0.1, 0.1, 3), branch_grid)
    np.testing.assert_array_equal(result.sign_matrix, [[1.0, 1.0, 1.0]])
    calls = _recording_solves(monkeypatch)
    profiles = [p for p, _ in stability._sweep(2.0, [0.1, 0.1, 0.1], branch_grid, None)]
    _assert_nested(calls, [None, profiles[0].values, profiles[1].values], branch_grid)


def test_sweep_falls_back_to_the_seed_after_a_failed_coarse_solve(branch_grid, monkeypatch):
    # a coarse solve that raises or does not converge costs the point nothing:
    # the requested grid's solve starts from the seed, as with no coarse stage
    solve, calls = stability.petviashvili_solve, []

    def coarse_fails(alpha, omega, grid=None, config=None):
        calls.append(Solve(omega, grid, config.initial_guess, None))
        if grid.n_points < branch_grid.n_points:
            if omega == 0.10:
                raise DivergenceError("iteration produced non-finite values")
            profile, diag = solve(alpha, omega, grid, dataclasses.replace(config, max_iter=1))
            return profile, diag
        return solve(alpha, omega, grid, config)

    monkeypatch.setattr(stability, "petviashvili_solve", coarse_fails)
    nested = [p for p, _ in stability._sweep(2.0, [0.05, 0.10], branch_grid, None)]
    assert [call.grid.n_points < branch_grid.n_points for call in calls] == [True, False] * 2
    assert calls[1].guess is None and calls[3].guess is nested[0]
    monkeypatch.setattr(stability, "_coarse_grid", lambda seed, grid: None)
    plain = [p for p, _ in stability._sweep(2.0, [0.05, 0.10], branch_grid, None)]
    for a, b in zip(nested, plain):
        np.testing.assert_array_equal(a.values, b.values)


def test_coarse_grid_of_the_cold_seed(branch_grid):
    # exp(-x^2) is below 1e-15 of its peak past xi = 12 (mode 382 on L = 100),
    # so 1024 points keep it and 512 would not
    coarse = stability._coarse_grid(None, branch_grid)
    assert (coarse.n_points, coarse.half_width) == (1024, 100.0)
    assert stability._coarse_grid(None, SpectralGrid(1024, 100.0)) is None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    widths=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=3),
    amplitude=st.floats(1e-3, 1e3),
    shift=st.floats(-10.0, 10.0),
    grid=st.sampled_from([(1024, 100.0), (2048, 100.0), (8192, 200.0), (128, 10.0)]),
)
def test_coarse_grid_drops_no_mode_above_the_cut(widths, amplitude, shift, grid):
    # the coarse grid drops (its Nyquist mode included) only modes below
    # COARSE_CUT of the seed's peak, and halving it once more would not
    grid = SpectralGrid(*grid)
    x = grid.nodes - shift
    values = amplitude * sum(np.exp(-((x / w) ** 2)) * np.cos(x / w) for w in widths)
    seed = RealProfile(grid, values)
    spectrum = np.abs(np.fft.rfft(values))
    cut = stability.COARSE_CUT * spectrum.max()
    coarse = stability._coarse_grid(seed, grid)
    n = grid.n_points if coarse is None else coarse.n_points
    assert np.all(spectrum[n // 2:] < cut) or coarse is None
    assert n == stability.COARSE_MIN_POINTS or np.any(spectrum[n // 4:] >= cut)
    if coarse is not None:
        assert coarse.half_width == grid.half_width and n < grid.n_points


def test_sign_changing_wave_gets_no_coarse_stage(branch_grid, monkeypatch):
    # at beta = 0 the wave changes sign, and |phi|^alpha phi with alpha = 1.5
    # has an algebraic Fourier tail, so the wave's spectrum never falls
    # below the cut and its branch solves on the requested grid alone
    config = SolverConfig(dispersion_beta=0.0)
    wave, diag = petviashvili_solve(1.5, 0.2, branch_grid, config)
    assert diag.converged and wave.values.min() < -1e-3 * wave.values.max()
    spectrum = np.abs(np.fft.rfft(wave.values))
    assert spectrum[branch_grid.n_points // 4:].max() >= stability.COARSE_CUT * spectrum.max()
    assert stability._coarse_grid(wave, branch_grid) is None
    calls = _recording_solves(monkeypatch)
    list(stability._sweep(1.5, [0.21, 0.22], branch_grid,
                          dataclasses.replace(config, initial_guess=wave)))
    assert [call.grid for call in calls] == [branch_grid, branch_grid]


def test_wrong_grid_seed_is_refused_as_before(branch_grid):
    # a given guess on another grid gets no coarse stage; the solve refuses it
    other = phi_exact(2.0, SpectralGrid(1024, 100.0))
    assert stability._coarse_grid(other, branch_grid) is None
    with pytest.raises(ParameterError, match="different grid"):
        list(stability._sweep(2.0, [0.16], branch_grid, SolverConfig(initial_guess=other)))


@pytest.mark.parametrize("n_coarse, n_fine", [(64, 1024), (256, 2048), (1024, 8192)])
def test_transfer_samples_and_interpolates(n_coarse, n_fine):
    # sampling is exact at the shared nodes; the interpolant reproduces a
    # trigonometric polynomial of the coarse grid, Nyquist term included,
    # and samples back to the coarse values
    fine, coarse = SpectralGrid(n_fine, 50.0), SpectralGrid(n_coarse, 50.0)
    k = np.pi / 50.0
    def poly(x):
        return 1.0 + np.cos(3 * k * x) - 0.5 * np.sin(7 * k * x) + 0.25 * np.cos(n_coarse / 2 * k * x)
    restricted = stability._transfer(RealProfile(fine, poly(fine.nodes)), coarse)
    np.testing.assert_array_equal(restricted.values, poly(fine.nodes)[:: n_fine // n_coarse])
    prolonged = stability._transfer(RealProfile(coarse, poly(coarse.nodes)), fine)
    np.testing.assert_allclose(prolonged.values, poly(fine.nodes), rtol=0, atol=1e-13)
    np.testing.assert_allclose(prolonged.values[:: n_fine // n_coarse], poly(coarse.nodes),
                               rtol=0, atol=1e-13)
    assert stability._transfer(None, coarse) is None


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    alpha=st.floats(0.5, 6.0),
    beta=st.sampled_from([0.0, 1.0]),
    grid=st.sampled_from([(1024, 100.0), (2048, 100.0), (8192, 200.0)]),
    omega=st.floats(0.05, 0.3),
)
def test_nested_sweep_matches_sweep_without_coarse_stage(alpha, beta, grid, omega):
    # the oracle is the same sweep with no coarse stage: identical flags and
    # d'' signs, and masses that agree to 1e-13 beyond what the stop rule
    # leaves open.  |1 - M| <= TOL_STAB bounds each solve's amplitude error by
    # TOL_STAB / alpha, so its mass error by 2 TOL_STAB / alpha, per side
    grid = SpectralGrid(*grid)
    config = SolverConfig(dispersion_beta=beta)
    nested = continue_branch(alpha, omega, 1.5 * omega, 5, grid, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "_coarse_grid", lambda seed, grid: None)
        plain = continue_branch(alpha, omega, 1.5 * omega, 5, grid, config)
    np.testing.assert_array_equal(nested.converged_flags, plain.converged_flags)
    np.testing.assert_array_equal(np.sign(d_second(nested)[:, 1]), np.sign(d_second(plain)[:, 1]))
    np.testing.assert_allclose(nested.masses, plain.masses, atol=0,
                               rtol=1e-13 + 4 * petviashvili.TOL_STAB / alpha)


def test_branch_polishes_each_point_in_at_most_two_iterations(monkeypatch):
    # the 24-point alpha = 3.2 branch of the CLI defaults: every point is
    # solved on a coarse grid, then in at most 2 iterations on the requested one
    grid = SpectralGrid(8192, 200.0)
    solve, iterations = stability.petviashvili_solve, []

    def recording(alpha, omega, stage=None, config=None):
        profile, diag = solve(alpha, omega, stage, config)
        iterations.append((stage.n_points, diag.iterations))
        return profile, diag

    monkeypatch.setattr(stability, "petviashvili_solve", recording)
    branch = continue_branch(3.2, 0.02, 0.25, 24, grid)
    assert branch.converged_flags.all() and branch.omegas.size == 24
    coarse, fine = iterations[::2], iterations[1::2]
    assert len(fine) == 24 and all(n == 8192 for n, _ in fine)
    assert all(n < 8192 for n, _ in coarse)
    assert max(count for _, count in fine) <= 2


def test_pure_fourth_order_signs(branch_grid):
    config = SolverConfig(dispersion_beta=0.0)
    pos = continue_branch(4.0, 0.05, 0.25, 8, branch_grid, config)
    assert np.all(d_second(pos)[:, 1] > 0)
    neg = continue_branch(10.0, 0.05, 0.25, 8, branch_grid, config)
    assert np.all(d_second(neg)[:, 1] < 0)

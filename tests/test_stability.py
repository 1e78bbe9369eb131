"""Tests for branch continuation, d''(omega), and threshold detection."""

import numpy as np
import pytest

from solitonlab import stability
from solitonlab.errors import (
    BracketError,
    BranchError,
    DegenerateInputError,
    InsufficientDataError,
    ParameterError,
)
from solitonlab.explicit import phi_exact
from solitonlab.grid import RealProfile, SpectralGrid
from solitonlab.petviashvili import SolverConfig, petviashvili_solve
from solitonlab.stability import (
    SolitaryBranch,
    classify_sign,
    continue_branch,
    d_second,
    d_second_at,
    d_second_at_omega0,
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
    with pytest.raises(ParameterError, match="too wide"):
        d_second_at(2.0, 0.002, narrow)


def test_region_scan_checks_lattice_before_work(branch_grid, monkeypatch):
    calls = []
    monkeypatch.setattr(stability, "petviashvili_solve",
                        lambda *args, **kwargs: calls.append(args))
    # a too-wide cell in mid-row
    with pytest.raises(ParameterError, match="too wide"):
        region_scan([2.0, 5.5], [0.05, 1e-4, 0.06], branch_grid)
    # the forward-difference point past a decreasing lattice is omega = 0
    with pytest.raises(ParameterError, match="positive"):
        region_scan([2.0], [0.2, 0.1], branch_grid)
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
    d2_coarse, _, _ = d_second_at(2.0, 0.1, branch_grid, delta=4e-3)
    d2_fine, _, _ = d_second_at(2.0, 0.1, branch_grid, delta=2e-3)
    assert abs(d2_coarse - d2_fine) <= 0.1 * abs(d2_fine)


def test_find_omega_c_alpha5(branch_grid):
    omega_c = find_omega_c(5.0, (0.02, 0.25), branch_grid)
    assert omega_c is not None
    assert 0.02 < omega_c < 0.25


def test_find_omega_c_seeds_from_bracket_left_end(branch_grid, monkeypatch):
    branches, seeds = [], []
    build, evaluate = stability.continue_branch, stability.d_second_at

    def recording_branch(*args, **kwargs):
        branches.append(build(*args, **kwargs))
        return branches[-1]

    def recording_d2(alpha, omega, grid, config, *args, **kwargs):
        seeds.append((omega, config.initial_guess))
        return evaluate(alpha, omega, grid, config, *args, **kwargs)

    monkeypatch.setattr(stability, "continue_branch", recording_branch)
    monkeypatch.setattr(stability, "d_second_at", recording_d2)
    omega_c = find_omega_c(5.0, (0.02, 0.25), branch_grid)
    (branch,) = branches
    first_mid, first_seed = seeds[0]
    k = next(i for i, p in enumerate(branch.profiles) if p is first_seed)
    assert branch.omegas[k] < first_mid < branch.omegas[k + 1]
    # the value that seeding from the branch's first point gave
    assert omega_c == pytest.approx(0.1105625, abs=1e-12)


def test_find_omega_c_none_for_alpha2(branch_grid):
    assert find_omega_c(2.0, (0.02, 0.25), branch_grid, n_coarse=8) is None


def test_d_second_at_omega0_signs(branch_grid):
    assert d_second_at_omega0(2.0, branch_grid) > 0
    assert d_second_at_omega0(5.5, branch_grid) < 0


def test_find_alpha0_bracket_error(branch_grid):
    with pytest.raises(BracketError):
        find_alpha0((2.0, 3.0), branch_grid, tol_alpha=0.5)


def test_find_alpha0_localizes_root(branch_grid):
    alpha0 = find_alpha0((4.0, 5.5), branch_grid, tol_alpha=0.2)
    assert 4.5 <= alpha0 <= 5.1
    # the bisection's final midpoints, bit for bit
    assert alpha0 == 4.84375
    assert find_alpha0((4.0, 5.5), branch_grid) == 4.7734375


def test_d_second_at_failed_first_point_solves_once(branch_grid, monkeypatch):
    calls = _degenerate_at(monkeypatch, 0.1)
    with pytest.raises(BranchError):
        d_second_at(2.0, 0.1, branch_grid)
    assert [omega for omega, _ in calls] == [0.1]


def test_d_second_at_is_a_two_point_branch_difference(branch_grid):
    d2, mass, profile = d_second_at(2.0, 0.1, branch_grid)
    branch = continue_branch(2.0, 0.1, 0.1 + stability.DEFAULT_OMEGA_DELTA, 2, branch_grid)
    assert type(d2) is float
    assert d2 == d_second(branch)[0, 1]
    assert mass == branch.masses[0]
    np.testing.assert_array_equal(profile.values, branch.profiles[0].values)


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
        region_scan([2.0], [0.1], branch_grid)


def test_region_scan_degenerate_cell_becomes_nan(branch_grid, monkeypatch):
    solve = stability.petviashvili_solve

    def failing(alpha, omega, *args, **kwargs):
        if omega == 0.10:
            raise DegenerateInputError("nonlinear pairing vanishes for this profile")
        return solve(alpha, omega, *args, **kwargs)

    monkeypatch.setattr(stability, "petviashvili_solve", failing)
    result = region_scan([2.0], [0.05, 0.10, 0.15, 0.20], branch_grid)
    # the failed cell and its left neighbour, which needs it for a forward
    # difference, are NaN; the row goes on past them
    row = result.sign_matrix[0]
    assert np.all(np.isnan(row[:2]))
    np.testing.assert_array_equal(row[2:], [1.0, 1.0])


def test_region_row_matches_branch_signs(branch_grid):
    # dyadic omegas: the region's extra point past the end is the branch's last point exactly
    omegas = np.linspace(1 / 16, 1 / 4, 13)
    branch = continue_branch(5.0, omegas[0], omegas[-1], omegas.size, branch_grid)
    assert branch.converged_flags.all()
    samples = d_second(branch)
    signs = stability.sample_signs(branch, samples)
    assert set(signs) == {-1.0, 1.0}  # across the sign change at omega_c
    row = region_scan([5.0], omegas[:-1], branch_grid).sign_matrix[0]
    np.testing.assert_array_equal(row, signs)


def test_region_scan_decreasing_lattice(branch_grid):
    result = region_scan([2.0, 5.5], [0.20, 0.15, 0.10], branch_grid)
    assert np.all(result.sign_matrix[0] == 1)
    assert np.all(result.sign_matrix[1] == -1)


def _degenerate_at(monkeypatch, bad_omega):
    """Make the solver raise DegenerateInputError at bad_omega; returns the
    (omega, initial guess) of every solve."""
    solve = stability.petviashvili_solve
    calls = []

    def failing(alpha, omega, grid=None, config=None):
        calls.append((omega, config.initial_guess))
        if omega == bad_omega:
            raise DegenerateInputError("nonlinear pairing vanishes for this profile")
        return solve(alpha, omega, grid, config)

    monkeypatch.setattr(stability, "petviashvili_solve", failing)
    return calls


def test_branch_truncates_at_degenerate_point(branch_grid, monkeypatch):
    omegas = np.linspace(0.05, 0.25, 6)
    calls = _degenerate_at(monkeypatch, omegas[2])
    branch = continue_branch(2.0, 0.05, 0.25, 6, branch_grid)
    np.testing.assert_array_equal(branch.converged_flags, [True, True, False])
    assert branch.profiles[2] is None
    assert np.isnan(branch.masses[2])
    # the branch stops solving at the failed point
    assert [omega for omega, _ in calls] == list(omegas[:3])


def test_branch_degenerate_first_point_is_branch_error(branch_grid, monkeypatch):
    _degenerate_at(monkeypatch, 0.05)
    with pytest.raises(BranchError):
        continue_branch(2.0, 0.05, 0.25, 6, branch_grid)


def test_region_scan_restarts_cold_after_failure(branch_grid, monkeypatch):
    calls = _degenerate_at(monkeypatch, 0.10)
    region_scan([2.0], [0.05, 0.10, 0.15, 0.20], branch_grid)
    warm = [isinstance(guess, RealProfile) for _, guess in calls]
    # 0.05 cold, 0.10 warm and failing, 0.15 cold, 0.20 and 0.25 warm
    assert warm == [False, True, False, True, True]


def test_pure_fourth_order_signs(branch_grid):
    config = SolverConfig(dispersion_beta=0.0)
    pos = continue_branch(4.0, 0.05, 0.25, 8, branch_grid, config)
    assert np.all(d_second(pos)[:, 1] > 0)
    neg = continue_branch(10.0, 0.05, 0.25, 8, branch_grid, config)
    assert np.all(d_second(neg)[:, 1] < 0)

"""Tests for branch continuation, d''(omega), and threshold detection."""

import collections
import dataclasses
import math
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from model_oracle import d2_closed_pure4nls
from solitonlab import petviashvili, stability
from solitonlab.errors import (
    BranchError,
    DegenerateInputError,
    DivergenceError,
    ParameterError,
)
from solitonlab.explicit import explicit_params, phi_exact
from solitonlab.grid import COARSE_CUT, COARSE_MIN_POINTS, RealProfile, SpectralGrid
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


def test_branch_point_matches_exact_wave(branch_grid, monkeypatch):
    # sweep through omega0(2) = 0.16 exactly and compare with the closed form
    calls = _recording_solves(monkeypatch)
    branch = continue_branch(2.0, 0.10, 0.16, 4, branch_grid)
    exact = phi_exact(2.0, branch_grid)
    assert branch.omegas[-1] == pytest.approx(0.16, abs=1e-15)
    assert calls[-1].omega == branch.omegas[-1] and calls[-1].grid is branch_grid
    diff = np.max(np.abs(calls[-1].profile.values - exact.values))
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
        masses=np.array([np.nan, np.nan]),
        converged_flags=np.array([False, False]),
    )
    with pytest.raises(BranchError, match=r"^branch truncated at omega=0\.12: need at least 2"):
        d_second(empty)
    # no two converged points in a row
    gapped = SolitaryBranch(np.array([0.1, 0.12, 0.14]), np.array([1.0, 2.0, 3.0]),
                            np.array([True, False, True]))
    with pytest.raises(BranchError, match="consecutive converged"):
        d_second(gapped)


def _three_step_rows(branch):
    """dmap's rows as three steps wrote them: the masses of failed points
    masked, their forward difference at the left point, and each sample's
    sign against the mass that searchsorted finds at its omega."""
    masked = np.where(branch.converged_flags, branch.masses, np.nan)
    d2 = 0.5 * np.diff(masked) / np.diff(branch.omegas)
    ok = ~np.isnan(d2)
    omegas, d2 = branch.omegas[:-1][ok], d2[ok]
    signs = classify_sign(d2, branch.masses[np.searchsorted(branch.omegas, omegas)], omegas)
    return np.column_stack([omegas, d2, signs])


def _assert_same_bits(rows, oracle):
    assert rows.shape == oracle.shape and rows.dtype == oracle.dtype
    assert rows.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("alpha, beta, bad_index", [
    (2.0, 1.0, None), (5.0, 1.0, None), (4.0, 0.0, None),  # complete; + then -, + and - signs
    (5.0, 1.0, 4), (2.0, 1.0, 2),  # truncated at a degenerate solve
])
def test_d_second_rows_match_the_three_steps_on_solved_branches(branch_grid, monkeypatch,
                                                                alpha, beta, bad_index):
    omegas = np.linspace(0.05, 0.25, 9)
    bad = None if bad_index is None else omegas[bad_index]
    _recording_solves(monkeypatch, bad)
    branch = continue_branch(alpha, 0.05, 0.25, 9, branch_grid, SolverConfig(dispersion_beta=beta))
    assert branch.omegas.size == (9 if bad is None else bad_index + 1)
    rows = d_second(branch)
    assert rows.shape == (branch.omegas.size - 1 - (bad is not None), 3)
    _assert_same_bits(rows, _three_step_rows(branch))
    if alpha == 5.0 and bad is None:
        assert set(rows[:, 2]) == {-1.0, 1.0}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    flags=st.lists(st.booleans(), min_size=2, max_size=12),
    masses=st.lists(st.floats(0.1, 10.0), min_size=12, max_size=12),
    gaps=st.lists(st.floats(1e-7, 1.0), min_size=12, max_size=12),
    flat=st.booleans(),
)
@example(flags=[True, True, False, True, True], masses=[1.0] * 12, gaps=[0.05] * 12, flat=False)
# d'' = 4.5 is outside the dead band 1e-6 M / omega of the left point (M = 1
# at omega = 1e-6) and inside the right point's (M = 10): the sign is +1
@example(flags=[True, True], masses=[1.0, 10.0] + [1.0] * 10, gaps=[1e-6] + [1.0] * 11,
         flat=False)
def test_d_second_rows_match_the_three_steps_on_gapped_branches(flags, masses, gaps, flat):
    # hand-built branches whose flags have gaps (continue_branch stops at its
    # first failure); a flat mass puts d'' in the dead band, sign 0.  A failed
    # point keeps a finite mass here, which the masking must still drop
    n = len(flags)
    masses = np.full(n, masses[0]) if flat else np.asarray(masses[:n])
    branch = SolitaryBranch(np.cumsum(gaps[:n]), masses, np.asarray(flags))
    if not any(a and b for a, b in zip(flags, flags[1:])):
        with pytest.raises(BranchError):
            d_second(branch)
        return
    _assert_same_bits(d_second(branch), _three_step_rows(branch))


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
def test_brent_finds_closed_form_roots(monkeypatch, f, a, b, root):
    monkeypatch.setattr(stability, "TOL_ROOT", 1e-12)
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    found = stability._brent(counted, a, b, f(a), f(b))
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


def test_find_omega_c_seeds_each_solve_from_the_last(branch_grid, monkeypatch):
    # [lo] first from the configured guess, then [hi] from lo's wave, then
    # Brent's solves inside the range, each from the solve before it
    sweeps = _recording_sweeps(monkeypatch)
    lo, hi = 0.02, 0.25
    guess = phi_exact(5.0, branch_grid)
    omega_c = find_omega_c(5.0, (lo, hi), branch_grid, SolverConfig(initial_guess=guess))
    (first, first_seed, _), (second, _, _), *brent = sweeps
    assert (first, second) == ([lo], [hi]) and first_seed is guess and brent
    for (_, _, (before,)), (_, seed, _) in zip(sweeps, sweeps[1:]):
        assert seed is before
    assert all(lo < omega < hi for (omega,), _, _ in brent)
    assert omega_c == pytest.approx(0.1118831293, abs=1e-8)


@pytest.mark.parametrize("omega_range", [(0.02, 0.25), (0.02, 0.02 + 15 * 0.01525), (0.05, 2.0)],
                         ids=["default", "root-near-a-coarse-point", "wide"])
def test_find_omega_c_root_does_not_depend_on_the_range(branch_grid, omega_range):
    # the second range's 16-point lattice has a point at 0.1115, just left of
    # omega_c
    assert find_omega_c(5.0, omega_range, branch_grid) == pytest.approx(0.1118831293, abs=1e-8)


def test_find_omega_c_without_chi_sign_change_is_none(branch_grid, monkeypatch):
    monkeypatch.setattr(stability, "negative_direction_scalar", lambda *args: -1.0)
    sweeps = _recording_sweeps(monkeypatch)
    assert find_omega_c(5.0, (0.02, 0.25), branch_grid) is None
    assert [omegas for omegas, _, _ in sweeps] == [[0.02], [0.25]]


def test_find_omega_c_none_for_alpha2(branch_grid, monkeypatch):
    # d'' > 0 at alpha 2 and < 0 at alpha 6 over the whole range: the ends decide
    sweeps = _recording_sweeps(monkeypatch)
    for alpha in (2.0, 6.0):
        sweeps.clear()
        assert find_omega_c(alpha, (0.02, 0.25), branch_grid) is None
        assert len(sweeps) == 2


@pytest.mark.parametrize("omega_range", [(0.25, 0.02), (0.0, 0.25), (-0.1, 0.25),
                                         (0.02, math.inf), (math.nan, 0.25)],
                         ids=["reversed", "zero", "negative", "infinite", "nan"])
def test_find_omega_c_refuses_a_bad_range_before_any_solve(branch_grid, monkeypatch,
                                                           omega_range):
    def no_solve(*args, **kwargs):
        raise AssertionError("find_omega_c solved a wave")

    monkeypatch.setattr(stability, "petviashvili_solve", no_solve)
    with pytest.raises(ParameterError, match="need 0 < omega_start < omega_end < inf"):
        find_omega_c(5.0, omega_range, branch_grid)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_find_omega_c_scales_with_beta_squared(beta):
    # phi_beta(x) = beta^(2/alpha) psi(sqrt(beta) x), with psi the beta = 1 wave
    # at omega / beta^2: on the half-width L / sqrt(beta) the discrete problems
    # are the same, so omega_c(alpha; beta) = beta^2 omega_c(alpha; 1) to within
    # the root's tolerance
    reference = find_omega_c(5.0, (0.05, 0.25), SpectralGrid(2048, 100.0))
    scaled = find_omega_c(5.0, (beta**2 * 0.05, beta**2 * 0.25),
                          SpectralGrid(2048, 100.0 / math.sqrt(beta)),
                          SolverConfig(dispersion_beta=beta))
    assert abs(scaled / beta**2 - reference) <= stability.TOL_ROOT


@pytest.mark.parametrize("alpha, omega_range, root, digits", [
    (4.9, (0.02, 0.25), None, None),
    (5.0, (0.02, 0.25), 0.1118831293, 10),
    (5.1, (0.02, 0.25), None, None),
    (6.0, (0.1, 2.0), 0.6069, 4),
    (7.0, (1.0, 10.0), 4.0799, 4),
    (5.0, (0.05, 2.0), 0.1118831293, 10),
], ids=["4.9", "5", "5.1", "6", "7", "5-wide"])
def test_find_omega_c_takes_at_most_8_chi_forms(branch_grid, monkeypatch, alpha, omega_range,
                                                 root, digits):
    # Brent runs on the scale-free d'' omega / M in s = hi log(omega), where
    # it is far less steep and lopsided than d'' in omega (10-14 chi forms
    # there); each root matches the direction-6 table to the digits it gives
    omegas, chi = [], stability.negative_direction_scalar

    def counted(profile, alpha, omega, beta):
        omegas.append(omega)
        return chi(profile, alpha, omega, beta)

    monkeypatch.setattr(stability, "negative_direction_scalar", counted)
    omega_c = find_omega_c(alpha, omega_range, branch_grid)
    assert len(omegas) <= 8
    assert omega_range[0] < omega_c < omega_range[1]
    if root is not None:
        assert abs(omega_c - root) <= 0.5 * 10.0**-digits


@settings(max_examples=6, deadline=None, derandomize=True)
@given(case=st.sampled_from([(5.0, (0.02, 0.25)), (7.0, (1.0, 10.0))]), t=st.floats(0.0, 1.0))
@example(case=(5.0, (0.02, 0.25)), t=0.0)
@example(case=(7.0, (1.0, 10.0)), t=1.0)
def test_find_omega_c_finds_a_closed_form_root(branch_grid, case, t):
    # with the chi form omega_star - omega, the scaled d'' (omega - omega_star)
    # omega / M changes sign at omega_star exactly, while the real solves
    # still give each M; (1, 10) is where s = hi log(omega) stretches omega
    # most, and t = 0 and 1 put the root at an end of the range
    alpha, (lo, hi) = case
    omega_star = lo + t * (hi - lo)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "negative_direction_scalar",
                      lambda profile, alpha, omega, beta: omega_star - omega)
        omega_c = find_omega_c(alpha, (lo, hi), branch_grid)
    assert abs(omega_c - omega_star) <= stability.TOL_ROOT


def test_d_second_at_omega0_signs(branch_grid):
    assert _d2_at(2.0, explicit_params(2.0).omega0, branch_grid) > 0
    assert _d2_at(5.5, explicit_params(5.5).omega0, branch_grid) < 0


def test_find_alpha0_bracket_error(branch_grid):
    with pytest.raises(ParameterError,
                       match=r"^d''\(omega0\) does not change sign over \[2\.0, 3\.0\] \(values "):
        find_alpha0((2.0, 3.0), branch_grid)


def test_find_alpha0_refuses_a_bracket_end_whose_wave_overflows(branch_grid):
    with pytest.raises(ParameterError, match=r"^alpha=1e\+200 is too large"):
        find_alpha0((4.0, 1e200), branch_grid)


def test_find_alpha0_localizes_root(branch_grid):
    alpha0 = find_alpha0((4.0, 5.5), branch_grid)
    assert type(alpha0) is float
    assert alpha0 == pytest.approx(4.791042420, abs=1e-8)


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


@settings(max_examples=10, deadline=None, derandomize=True)
@given(alpha=st.floats(0.5, 4.0), omega=st.floats(0.05, 1.0), beta=st.sampled_from([0.0, 1.0]))
# at beta = 0 the mass is C omega^p, p = 2/alpha - 1/4, and the central
# difference's h^2 term, proportional to p (p - 1) (p - 2), vanishes at alpha
# 8/9 and 8/5: there its error shows no h^2 rate, but Richardson still agrees
@example(alpha=0.914, omega=0.0927, beta=0.0)
@example(alpha=0.891, omega=1.0, beta=0.0)
@example(alpha=1.6, omega=0.3, beta=0.0)
def test_chi_form_is_the_central_difference_limit(branch_grid, alpha, omega, beta):
    # alpha <= 4 is stable at every omega for beta = 1 and 0 (d'' > 0)
    profile, diag = petviashvili_solve(alpha, omega, branch_grid,
                                       SolverConfig(dispersion_beta=beta))
    assert diag.converged
    d2 = -negative_direction_scalar(profile, alpha, omega, beta)
    assert d2 > 0
    h = 0.01 * omega
    coarse, fine = (_mass_d2(alpha, omega, branch_grid, step, profile, beta)
                    for step in (h, h / 2))
    assert abs(coarse - d2) <= 1e-4 * d2
    assert abs((4.0 * fine - coarse) / 3.0 - d2) <= 1e-6 * d2


@settings(max_examples=12, deadline=None, derandomize=True)
@given(alpha=st.floats(0.5, 4.0), omega=st.floats(0.05, 1.0))
def test_chi_form_matches_the_pure_fourth_order_scaling_law(branch_grid, alpha, omega):
    # beta = 0: phi_omega(x) = omega^(1/alpha) psi(omega^(1/4) x) gives
    # d'' = (8 - alpha) int phi^2 / (8 alpha omega)
    profile, diag = petviashvili_solve(alpha, omega, branch_grid,
                                       SolverConfig(dispersion_beta=0.0))
    assert diag.converged
    d2 = -negative_direction_scalar(profile, alpha, omega, 0.0)
    expected = d2_closed_pure4nls(alpha, omega, 0.5 * stability._mass(profile))
    assert d2 == pytest.approx(expected, rel=1e-5)


def test_d_second_at_is_a_two_point_branch_difference(branch_grid):
    # linspace(a, b, 2) is exactly [a, b], so the pointwise d'' is the forward
    # difference of the trapezoid-rule masses at omega and omega + h
    h = 2e-3
    branch = continue_branch(2.0, 0.1, 0.1 + h, 2, branch_grid)
    assert branch.omegas.tolist() == [0.1, 0.1 + h]
    m0, m1 = branch.masses
    assert d_second(branch)[0, 1] == 0.5 * (m1 - m0) / ((0.1 + h) - 0.1)


def test_headline_roots_are_grid_independent():
    # N = 2048 and 8192, L = 100 and 200: the roots agree to the searches'
    # 1e-10 tolerance plus rounding; the chi solve picks its own grid on each
    alphas, omegas = [], []
    for n in (2048, 8192):
        for half_width in (100.0, 200.0):
            grid = SpectralGrid(n, half_width)
            alphas.append(find_alpha0((4.0, 5.5), grid))
            omegas.append(find_omega_c(5.0, (0.02, 0.25), grid))
    for roots in (alphas, omegas):
        assert max(roots) - min(roots) <= stability.TOL_ROOT + 8 * np.finfo(float).eps * max(roots)
    assert 4.6 < alphas[0] < 5.0 and 0.1 < omegas[0] < 0.12


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
    # the calling process is one of the workers: two rows at --jobs 8 take a
    # pool of 1 process, and three rows at --jobs 2 split into the stripes
    # (rows 0 and 2 here, row 1 in the pool), which come back in lattice order
    # (eight usable CPUs, so that only jobs and rows bound the pool here)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    sizes, stripes = [], []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            stripes.append([[task[0] for task in stripe] for stripe in tasks])
            return map(fn, tasks)

    monkeypatch.setattr(stability, "ProcessPoolExecutor", SerialPool)
    pooled = region_scan([2.0, 5.5], [0.08, 0.12], branch_grid, jobs=8)
    assert sizes == [1] and stripes == [[[5.5]]]
    region_scan([2.0], [0.08, 0.12], branch_grid, jobs=8)  # one row runs in-process
    assert sizes == [1]
    serial = region_scan([2.0, 5.5], [0.08, 0.12], branch_grid)
    np.testing.assert_array_equal(pooled.sign_matrix, serial.sign_matrix)
    striped = region_scan([2.0, 5.5, 3.0], [0.08, 0.12], branch_grid, jobs=2)
    assert sizes == [1, 1] and stripes[-1] == [[5.5]]
    np.testing.assert_array_equal(striped.sign_matrix, [[1, 1], [-1, -1], [1, 1]])


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_region_scan_pool_has_at_most_one_process_per_usable_cpu(branch_grid, monkeypatch, cpus):
    # the pool starts all its workers at once, so --jobs 500 on a 2-CPU host
    # must not fork 499 processes: w = min(jobs, rows, usable CPUs), the
    # calling process included.  The pool is a spy that starts no process,
    # and each row's scan a stand-in that solves nothing
    sizes = []

    class SpyPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(stability, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(stability, "_scan_rows",
                        lambda tasks: [np.full(t[1].size, t[0]) for t in tasks])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(10, 10 + cpus)),
                        raising=False)
    alphas = np.arange(1.0, 7.0)
    for jobs in (1, 2, 3, 5, 500):
        sizes.clear()
        result = region_scan(alphas, [0.08, 0.12], branch_grid, jobs=jobs)
        workers = min(jobs, alphas.size, cpus)
        assert sizes == ([workers - 1] if workers > 1 else [])
        np.testing.assert_array_equal(result.sign_matrix, np.repeat(alphas, 2).reshape(-1, 2))
    # where the platform names no usable CPUs, os.cpu_count() bounds the pool
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, workers in ((cpus, cpus), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        sizes.clear()
        region_scan(alphas, [0.08, 0.12], branch_grid, jobs=500)
        assert sizes == ([workers - 1] if workers > 1 else [])


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


class _InProcessPool:
    """A ProcessPoolExecutor that starts no process: it records its size and
    the tasks it is handed, and runs them here, each stripe through a pickle
    round trip as a pool worker receives it."""

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, stripes):
        stripes = list(stripes)
        self.tasks.extend(task for stripe in stripes for task in stripe)
        return map(fn, [pickle.loads(pickle.dumps(stripe)) for stripe in stripes])


def _in_process_pool(monkeypatch):
    """_InProcessPool in stability's place on eight usable CPUs (so that jobs
    and rows alone bound the pool), with fresh records of sizes and tasks."""
    class Pool(_InProcessPool):
        sizes, tasks = [], []

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(stability, "ProcessPoolExecutor", Pool)
    return Pool


def test_region_scan_hands_its_pool_the_callers_grid(branch_grid, monkeypatch):
    # a task holds the grid itself, not its shape; a worker receives it
    # pickled as its shape and scans the same row as the calling process
    pool = _in_process_pool(monkeypatch)
    result = region_scan([2.0, 5.5], [0.08, 0.12], branch_grid, jobs=2)
    assert pool.sizes == [1] and [task[0] for task in pool.tasks] == [5.5]
    assert all(task[2] is branch_grid for task in pool.tasks)
    np.testing.assert_array_equal(result.sign_matrix, [[1, 1], [-1, -1]])


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("alphas, omegas, cell", [
    ([2.0, 3.0], [0.1, 0.2, np.nan], (2.0, np.nan)),
    ([2.0, 3.0], [0.1, np.inf, 0.2], (2.0, np.inf)),
    ([2.0, np.nan, 3.0], [0.1, 0.2], (np.nan, 0.1)),
    ([2.0, 3.0, np.inf], [0.1, 0.2], (np.inf, 0.1)),
    ([0.0, 2.0], [0.1, 0.2], (0.0, 0.1)),
    ([2.0, 0.0], [0.1, 0.2, np.nan], (2.0, np.nan)),
])
def test_region_scan_refuses_a_bad_cell_before_it_solves_any(branch_grid, monkeypatch,
                                                             alphas, omegas, cell, jobs):
    # NaN and inf omegas pass the positivity and width checks, and a bad
    # alpha would meet its solve's check only at its row's first cell, maybe
    # in a pool worker after other rows ran: the first bad cell in row-major
    # order raises the solve's own error before any cell is solved or any
    # process started
    with pytest.raises(ParameterError) as solve_error:
        petviashvili._iterate(*cell, branch_grid, SolverConfig())
    solved, iterate = [], petviashvili._iterate
    monkeypatch.setattr(petviashvili, "_iterate",
                        lambda *args: solved.append(args) or iterate(*args))
    pool = _in_process_pool(monkeypatch)
    with pytest.raises(ParameterError) as scan_error:
        region_scan(alphas, omegas, branch_grid, jobs=jobs)
    assert str(scan_error.value) == str(solve_error.value)
    assert str(solve_error.value).endswith(f"got {cell[0]}, {cell[1]}")
    assert solved == [] and pool.sizes == []
    # an omega that is not positive keeps its own message
    with pytest.raises(ParameterError, match="^omega values must be positive$"):
        region_scan(alphas, [*omegas, -1.0], branch_grid, jobs=jobs)
    assert solved == [] and pool.sizes == []


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


def test_region_row_matches_branch_signs(branch_grid, monkeypatch):
    # each cell's sign is that of -<chi, phi> at its own wave, which the
    # region's sweep solves as the branch over the same omegas does
    omegas = np.linspace(1 / 16, 1 / 4, 13)
    calls = _recording_solves(monkeypatch)
    branch = continue_branch(5.0, omegas[0], omegas[-1], omegas.size, branch_grid)
    assert branch.converged_flags.all()
    profiles = [call.profile for call in calls if call.grid is branch_grid]
    assert len(profiles) == omegas.size
    d2 = [-negative_direction_scalar(p, 5.0, w) for p, w in zip(profiles, omegas)]
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
    """Record every kernel solve, one per stage, as a Solve (profile None
    where it raised); the kernel raises DegenerateInputError at bad_omega."""
    solve, calls = petviashvili._iterate, []

    def recording(alpha, omega, grid=None, config=None):
        calls.append(Solve(omega, grid, config.initial_guess, None))
        if omega == bad_omega:
            raise DegenerateInputError("nonlinear pairing vanishes for this profile")
        profile, diag = solve(alpha, omega, grid, config)
        calls[-1] = calls[-1]._replace(profile=profile)
        return profile, diag

    monkeypatch.setattr(petviashvili, "_iterate", recording)
    return calls


def _assert_nested(calls, seeds, grid):
    """Each point made two solves: one on a coarser grid of grid's half-width,
    whose nodes are every f-th of grid's, from the seed's values there (None,
    the cold start, stays None); then one on grid, from the coarse wave
    itself (which the solver reads as its interpolant), or from the seed
    where the coarse solve raised."""
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
            assert fine.guess is coarse.profile
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
    profiles = [call.profile for call in calls[1::2]]
    assert profiles[2] is None
    assert np.isnan(branch.masses[2])
    # the branch stops solving at the failed point
    assert [call.omega for call in calls] == list(np.repeat(omegas[:3], 2))
    _assert_nested(calls, [None, profiles[0].values,
                           _secant(omegas[:2], profiles[:2], omegas[2])], branch_grid)


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
    solve, calls = petviashvili._iterate, []

    def coarse_fails(alpha, omega, grid=None, config=None):
        calls.append(Solve(omega, grid, config.initial_guess, None))
        if grid.n_points < branch_grid.n_points:
            if omega == 0.10:
                raise DivergenceError("iteration produced non-finite values")
            profile, diag = solve(alpha, omega, grid, dataclasses.replace(config, max_iter=1))
            return profile, diag
        return solve(alpha, omega, grid, config)

    monkeypatch.setattr(petviashvili, "_iterate", coarse_fails)
    nested = [p for p, _ in stability._sweep(2.0, [0.05, 0.10], branch_grid, None)]
    assert [call.grid.n_points < branch_grid.n_points for call in calls] == [True, False] * 2
    assert calls[1].guess is None and calls[3].guess is nested[0]
    monkeypatch.setattr(petviashvili, "_coarse_grid", lambda seed, grid: None)
    plain = [p for p, _ in stability._sweep(2.0, [0.05, 0.10], branch_grid, None)]
    for a, b in zip(nested, plain):
        np.testing.assert_array_equal(a.values, b.values)


def test_coarse_grid_of_the_cold_seed(branch_grid):
    # exp(-x^2) is below 1e-15 of its peak past xi = 12 (mode 382 on L = 100),
    # so 1024 points keep it and 512 would not
    coarse = petviashvili._coarse_grid(None, branch_grid)
    assert (coarse.n_points, coarse.half_width) == (1024, 100.0)
    assert petviashvili._coarse_grid(None, SpectralGrid(1024, 100.0)) is None


def test_cold_coarse_grid_is_taken_once_per_grid_shape(monkeypatch):
    # it is kept per grid, and two grids of one shape are equal: they take
    # the rfft of exp(-x^2) once and get the same coarse grid
    petviashvili._cold_coarse_grid.cache_clear()
    transforms, rfft = [], np.fft.rfft

    def counted(values, *args, **kwargs):
        transforms.append(values.size)
        return rfft(values, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    first, second = (petviashvili._coarse_grid(None, SpectralGrid(2048, 100.0)) for _ in range(2))
    assert transforms == [2048] and first is second
    assert (first.n_points, first.half_width) == (1024, 100.0)


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
    cut = COARSE_CUT * spectrum.max()
    coarse = petviashvili._coarse_grid(seed, grid)
    n = grid.n_points if coarse is None else coarse.n_points
    assert np.all(spectrum[n // 2:] < cut) or coarse is None
    assert n == COARSE_MIN_POINTS or np.any(spectrum[n // 4:] >= cut)
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
    assert spectrum[branch_grid.n_points // 4:].max() >= COARSE_CUT * spectrum.max()
    assert petviashvili._coarse_grid(wave, branch_grid) is None
    calls = _recording_solves(monkeypatch)
    list(stability._sweep(1.5, [0.21, 0.22], branch_grid,
                          dataclasses.replace(config, initial_guess=wave)))
    assert [call.grid for call in calls] == [branch_grid, branch_grid]


def test_seed_on_another_grid_is_read_or_refused(branch_grid, monkeypatch):
    # a given guess on another grid gets no coarse stage.  The solve reads one
    # on a coarser grid of the same half-width as its interpolant, here the
    # closed-form wave's samples on the finer grid to rounding, and refuses
    # one on a finer grid or on a wider domain
    coarse = phi_exact(2.0, SpectralGrid(1024, 100.0))
    assert petviashvili._coarse_grid(coarse, branch_grid) is None
    calls = _recording_solves(monkeypatch)
    ((read, converged),) = stability._sweep(2.0, [0.16], branch_grid,
                                            SolverConfig(initial_guess=coarse))
    assert converged and [(c.grid, c.guess) for c in calls] == [(branch_grid, coarse)]
    ((fine, _),) = stability._sweep(2.0, [0.16], branch_grid,
                                    SolverConfig(initial_guess=phi_exact(2.0, branch_grid)))
    assert np.max(np.abs(read.values - fine.values)) <= 1e-12
    for other in (SpectralGrid(4096, 100.0), SpectralGrid(2048, 200.0), SpectralGrid(1024, 200.0)):
        assert petviashvili._coarse_grid(phi_exact(2.0, other), branch_grid) is None
        with pytest.raises(ParameterError, match="different grid"):
            list(stability._sweep(2.0, [0.16], branch_grid,
                                  SolverConfig(initial_guess=phi_exact(2.0, other))))


@pytest.mark.parametrize("n_coarse, n_fine", [(64, 1024), (256, 2048), (1024, 8192)])
def test_transfer_samples_and_interpolates(n_coarse, n_fine):
    # the solver reads a coarse seed as its trigonometric interpolant, which
    # reproduces a trigonometric polynomial of the coarse grid, Nyquist term
    # included, and samples back to the coarse values.  The sweep's
    # restriction to the coarse grid, exact sampling at the shared nodes, is
    # checked on every point of the sweeps above (_assert_nested)
    fine, coarse = SpectralGrid(n_fine, 50.0), SpectralGrid(n_coarse, 50.0)
    k = np.pi / 50.0
    def poly(x):
        return 1.0 + np.cos(3 * k * x) - 0.5 * np.sin(7 * k * x) + 0.25 * np.cos(n_coarse / 2 * k * x)
    seed = SolverConfig(initial_guess=RealProfile(coarse, poly(coarse.nodes)))
    prolonged, _ = petviashvili._initial_guess(1.0, 1.0, fine, seed)
    np.testing.assert_allclose(prolonged, poly(fine.nodes), rtol=0, atol=1e-13)
    np.testing.assert_allclose(prolonged[:: n_fine // n_coarse], poly(coarse.nodes),
                               rtol=0, atol=1e-13)


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
        patch.setattr(petviashvili, "_coarse_grid", lambda seed, grid: None)
        plain = continue_branch(alpha, omega, 1.5 * omega, 5, grid, config)
    np.testing.assert_array_equal(nested.converged_flags, plain.converged_flags)
    np.testing.assert_array_equal(np.sign(d_second(nested)[:, 1]), np.sign(d_second(plain)[:, 1]))
    np.testing.assert_allclose(nested.masses, plain.masses, atol=0,
                               rtol=1e-13 + 4 * petviashvili.TOL_STAB / alpha)


def test_branch_polishes_each_point_in_one_iteration(monkeypatch):
    # the branch runs of the CLI defaults (N = 8192, L = 200): 24 points from
    # omega 0.02 to 0.25 at alpha 3.2, 5 and 6 with beta = 1, and 8 points
    # from 0.05 at alpha 4 with beta = 0.  Every point is solved on a coarse
    # grid, then polished on the requested one in exactly 1 iteration, whose
    # recorded residual is within the tolerance
    grid = SpectralGrid(8192, 200.0)
    solve, solves = petviashvili._iterate, []

    def recording(alpha, omega, stage=None, config=None):
        profile, diag = solve(alpha, omega, stage, config)
        solves.append((stage.n_points, diag))
        return profile, diag

    monkeypatch.setattr(petviashvili, "_iterate", recording)
    for alpha, beta, omega_start, steps in ((3.2, 1.0, 0.02, 24), (5.0, 1.0, 0.02, 24),
                                            (6.0, 1.0, 0.02, 24), (4.0, 0.0, 0.05, 8)):
        solves.clear()
        branch = continue_branch(alpha, omega_start, 0.25, steps, grid,
                                 SolverConfig(dispersion_beta=beta))
        assert branch.converged_flags.all() and branch.omegas.size == steps
        coarse, fine = solves[::2], solves[1::2]
        assert len(fine) == steps and all(n == 8192 for n, _ in fine)
        assert all(n < 8192 for n, _ in coarse)
        assert all(diag.iterations == 1 for _, diag in fine)
        assert all(diag.res_history.max() <= petviashvili.TOL_RES for _, diag in fine)


def test_pure_fourth_order_signs(branch_grid):
    config = SolverConfig(dispersion_beta=0.0)
    pos = continue_branch(4.0, 0.05, 0.25, 8, branch_grid, config)
    assert np.all(d_second(pos)[:, 1] > 0)
    neg = continue_branch(10.0, 0.05, 0.25, 8, branch_grid, config)
    assert np.all(d_second(neg)[:, 1] < 0)


def test_concurrent_branches_match_sequential_ones(branch_grid, monkeypatch):
    # each thread solves with its own kept Anderson workspace: three branches
    # on one grid shape at once, switching threads every 10 us, give the
    # sequential masses and profiles bit for bit
    solve, profiles = stability.petviashvili_solve, collections.defaultdict(list)

    def recording(*args):
        profile, diag = solve(*args)
        profiles[threading.get_ident()].append(profile.values.tobytes())
        return profile, diag

    monkeypatch.setattr(stability, "petviashvili_solve", recording)
    alphas = (3.2, 5.0, 6.0)

    def run(alpha, start=None):
        if start is not None:
            start.wait(timeout=60)
        branch = continue_branch(alpha, 0.02, 0.25, 24, branch_grid)
        return branch.masses.tobytes(), profiles.pop(threading.get_ident())

    sequential = [run(alpha) for alpha in alphas]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start, results = threading.Barrier(len(alphas)), {}
        threads = [threading.Thread(target=lambda a=a: results.update({a: run(a, start)}))
                   for a in alphas]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results.get(a) for a in alphas] == sequential


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt is Linux's")
def test_second_branch_takes_few_page_faults():
    # a 24-point branch at N = 8192 reuses the solver's Anderson workspaces;
    # allocating them per solve (983 kB at N = 8192) took 3,200-3,400 minor
    # page faults on the second branch of a process, reuse 0-170
    resource = pytest.importorskip("resource")
    script = """if True:
        import resource
        from solitonlab.grid import SpectralGrid
        from solitonlab.stability import continue_branch
        grid = SpectralGrid(8192, 200.0)
        for alpha in (3.2, 5.0):
            continue_branch(alpha, 0.02, 0.25, 24, grid)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            continue_branch(alpha, 0.02, 0.25, 24, grid)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    if resource.getrusage(resource.RUSAGE_SELF).ru_minflt == 0:
        pytest.skip("this kernel does not count minor page faults")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(stability.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    faults = [int(line) for line in run.stdout.split()]
    assert len(faults) == 2 and max(faults) < 1000, faults

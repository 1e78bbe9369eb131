"""Tests for the stabilized fixed-point solver and its diagnostics."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_oracle import pairing_weights, residual
from reference_petviashvili import reference_solve
from solitonlab import petviashvili, stability
from solitonlab.errors import DegenerateInputError, DivergenceError, ParameterError
from solitonlab.explicit import explicit_params, phi_exact
from solitonlab.grid import RealProfile, SpectralGrid
from solitonlab.petviashvili import (
    SolverConfig,
    _iterate,
    half_symbol,
    nonlinearity,
    petviashvili_solve,
    power,
    power_from_square,
    symbol,
)

OMEGA0_2 = 4.0 / 25.0


def test_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(max_iter=0)
    for beta in (-0.5, np.nan, np.inf):
        with pytest.raises(ParameterError):
            SolverConfig(dispersion_beta=beta)


def test_nonlinearity_handles_signs():
    v = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_allclose(nonlinearity(v, 2.0), v**3, rtol=1e-14)
    out = nonlinearity(np.array([-1.5]), 0.5)
    assert out[0] == pytest.approx(-(1.5 ** 1.5), rel=1e-14)


def _stabilizing_gap(profile, alpha, omega):
    """|1 - M| for the solver's stabilizing factor M at the profile it starts from."""
    config = SolverConfig(max_iter=1, initial_guess=profile)
    return _iterate(alpha, omega, profile.grid, config)[1].stab_history[0]


def test_stabilizing_factor_at_exact_wave(grid_mid):
    assert _stabilizing_gap(phi_exact(2.0, grid_mid), 2.0, OMEGA0_2) <= 1e-8


def test_stabilizing_factor_scaling(grid_mid):
    # M is quadratic over a power alpha + 2 of the profile: M(2 phi) = M(phi) / 4
    doubled = RealProfile(grid_mid, 2.0 * phi_exact(2.0, grid_mid).values)
    assert _stabilizing_gap(doubled, 2.0, OMEGA0_2) == pytest.approx(0.75, abs=1e-8)


def test_stabilizing_factor_gaussian_oracle(grid_mid):
    g = grid_mid
    values = np.exp(-g.nodes**2)
    # direct quadrature of both pairings using spectral derivatives
    num = g.dx * np.sum(
        g.apply_symbol(values, lambda xi: xi**4 + xi**2 + 0.16) * values)
    den = g.dx * np.sum(values**4)
    expected = num / den
    assert _stabilizing_gap(RealProfile(g, values), 2.0, 0.16) == pytest.approx(
        abs(1.0 - expected), rel=1e-10)
    assert expected != pytest.approx(1.0, rel=0.1)


def test_residual_of_exact_wave(grid_mid):
    phi = phi_exact(2.0, grid_mid)
    assert residual(phi, 2.0, OMEGA0_2) <= 1e-8


def test_residual_of_zero_profile(grid_small):
    zero = RealProfile(grid_small, np.zeros(grid_small.n_points))
    assert residual(zero, 2.0, 0.16) == 0.0


def test_residual_linear_in_omega_shift(grid_mid):
    phi = phi_exact(2.0, grid_mid)
    shifted = residual(phi, 2.0, OMEGA0_2 + 0.1)
    peak = np.max(np.abs(phi.values))
    assert shifted == pytest.approx(0.1 * peak, abs=1e-8)


def test_solve_reproduces_exact_wave(grid_mid, solve_cache):
    profile, diag = solve_cache(2.0, OMEGA0_2, grid_mid)
    assert diag.converged
    exact = phi_exact(2.0, grid_mid)
    assert np.max(np.abs(profile.values - exact.values)) <= 1e-9


def test_solve_diagnostics_consistency(grid_mid, solve_cache):
    profile, diag = solve_cache(2.0, OMEGA0_2, grid_mid)
    assert diag.error_history.size == diag.iterations
    assert diag.stab_history.size == diag.iterations
    assert diag.res_history.size == diag.iterations
    assert diag.error_history[-1] <= 1e-12
    assert diag.stab_history[-1] <= 1e-12
    assert diag.res_history[-1] <= 1e-10


def test_solve_validation(grid_small):
    for alpha, omega in ((-1.0, 0.16), (2.0, 0.0), (np.nan, 0.16), (np.inf, 0.16),
                         (2.0, np.nan), (2.0, np.inf)):
        with pytest.raises(ParameterError):
            petviashvili_solve(alpha, omega, grid_small)


def test_fixed_point_property(grid_mid, solve_cache):
    profile, _ = solve_cache(2.0, OMEGA0_2, grid_mid)
    config = SolverConfig(max_iter=1, initial_guess=profile)
    again, _ = _iterate(2.0, OMEGA0_2, grid_mid, config)
    assert np.max(np.abs(again.values - profile.values)) <= 10 * 1e-12


def test_translation_covariance(grid_mid, solve_cache):
    reference, _ = solve_cache(2.0, OMEGA0_2, grid_mid)
    shifted_guess = RealProfile(
        grid_mid, np.roll(np.exp(-grid_mid.nodes**2), 50))
    config = SolverConfig(initial_guess=shifted_guess)
    profile, diag = petviashvili_solve(2.0, OMEGA0_2, grid_mid, config)
    assert diag.converged
    # both results are recentered by peak, so they must coincide
    assert np.max(np.abs(profile.values - reference.values)) <= 1e-8


def test_low_frequency_profiles_positive_and_even(grid_mid, solve_cache):
    for alpha in (1.0, 2.0, 3.0, 4.0):
        profile, diag = solve_cache(alpha, 0.2, grid_mid)
        assert diag.converged
        v = profile.values
        assert v.min() > -1e-10
        center = grid_mid.n_points // 2
        even_err = np.max(np.abs(v[center + 1:] - v[1:center][::-1]))
        assert even_err <= 1e-8


def test_sign_changing_tails_above_threshold(grid_mid, solve_cache):
    profile, diag = solve_cache(3.0, 1.0, grid_mid)
    assert diag.converged
    assert profile.values.min() < 0


def test_exact_sech_initial_guess(grid_mid):
    config = SolverConfig(initial_guess=phi_exact(2.0, grid_mid))
    profile, diag = _iterate(2.0, OMEGA0_2, grid_mid, config)
    assert diag.converged
    assert diag.iterations <= 5


def test_non_convergence_is_reported_not_raised(grid_mid):
    config = SolverConfig(max_iter=3)
    _, diag = petviashvili_solve(2.0, OMEGA0_2, grid_mid, config)
    assert not diag.converged
    assert diag.iterations == 3


def test_initial_guess_on_wrong_grid(grid_small, grid_mid):
    # a guess on a coarser grid of the same half-width is read as its
    # interpolant; exp(-x^2) is band-limited to rounding on both grids, so
    # the solve matches the one from its samples on the solve's own grid
    coarse = RealProfile(grid_small, np.exp(-grid_small.nodes**2))
    same = RealProfile(grid_mid, np.exp(-grid_mid.nodes**2))
    read, diag = _iterate(2.0, 0.16, grid_mid, SolverConfig(initial_guess=coarse))
    direct, direct_diag = _iterate(2.0, 0.16, grid_mid, SolverConfig(initial_guess=same))
    assert diag.converged and direct_diag.converged
    assert np.max(np.abs(read.values - direct.values)) <= 1e-12
    # a finer grid, the same number of nodes on a wider domain, and a
    # coarser grid on a wider domain are refused
    for other in (SpectralGrid(2 * grid_mid.n_points, grid_mid.half_width),
                  SpectralGrid(grid_mid.n_points, 2.0 * grid_mid.half_width),
                  SpectralGrid(grid_small.n_points, 2.0 * grid_mid.half_width)):
        guess = RealProfile(other, np.exp(-other.nodes**2))
        with pytest.raises(ParameterError, match="different grid"):
            _iterate(2.0, 0.16, grid_mid, SolverConfig(initial_guess=guess))


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([4, 64, 256, 1024]),
    f=st.sampled_from([2, 4, 8]),
    half_width=st.floats(1.0, 300.0),
    decay=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_coarse_seed_is_its_zero_padded_half_spectrum(n, f, half_width, decay, seed):
    # a random profile band-limited to the coarse grid (real mean and Nyquist
    # terms, modes decaying like exp(-decay k)): the solver's first iterate
    # has the zero-padded rfft, Nyquist term halved, times f, as its half
    # spectrum, is the full-spectrum interpolant and samples back to the
    # coarse values
    coarse, fine = SpectralGrid(n, half_width), SpectralGrid(f * n, half_width)
    rng = np.random.default_rng(seed)
    modes = np.arange(n // 2 + 1)
    spectrum = (rng.standard_normal(modes.size) + 1j * rng.standard_normal(modes.size))
    spectrum *= np.exp(-decay * modes)
    spectrum[[0, -1]] = spectrum[[0, -1]].real
    values = np.fft.irfft(spectrum, n)
    values /= np.abs(values).max()
    phi, coeffs = petviashvili._initial_guess(
        1.0, 1.0, fine, SolverConfig(initial_guess=RealProfile(coarse, values)))
    expected = np.zeros(f * n // 2 + 1, dtype=complex)
    expected[: n // 2 + 1] = np.fft.rfft(values)
    expected[n // 2] *= 0.5
    np.testing.assert_array_equal(coeffs, f * expected)
    np.testing.assert_array_equal(phi, np.fft.irfft(coeffs, f * n))
    np.testing.assert_allclose(phi[::f], values, rtol=0, atol=1e-13)
    np.testing.assert_allclose(phi, _interpolant(RealProfile(coarse, values), fine),
                               rtol=0, atol=1e-13)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    alpha=st.floats(0.7, 6.0),
    omega=st.floats(0.05, 0.3),
    beta=st.sampled_from([0.0, 1.0]),
    f=st.sampled_from([2, 4]),
)
def test_solve_from_coarse_seed_matches_solve_from_its_interpolant(alpha, omega, beta, f):
    # the coarse wave as a seed, and its explicit interpolant on the solve's
    # grid: the same verdict and the same profile to 1e-13
    fine, coarse = SpectralGrid(2048, 100.0), SpectralGrid(2048 // f, 100.0)
    config = SolverConfig(dispersion_beta=beta)
    wave, diag = _iterate(alpha, omega, coarse, config)
    assert diag.converged
    from_seed = _iterate(alpha, omega, fine, SolverConfig(
        initial_guess=wave, dispersion_beta=beta))
    from_interpolant = _iterate(alpha, omega, fine, SolverConfig(
        initial_guess=RealProfile(fine, _interpolant(wave, fine)), dispersion_beta=beta))
    assert from_seed[1].converged == from_interpolant[1].converged
    assert np.max(np.abs(from_seed[0].values - from_interpolant[0].values)) <= 1e-13


def test_pure_fourth_order_solve(grid_mid):
    config = SolverConfig(dispersion_beta=0.0)
    profile, diag = petviashvili_solve(4.0, 0.1, grid_mid, config)
    assert diag.converged
    assert residual(profile, 4.0, 0.1, beta=0.0) <= 1e-8


def test_alpha4_reproduces_exact_wave(grid_mid, solve_cache):
    omega0 = explicit_params(4.0).omega0
    profile, diag = solve_cache(4.0, omega0, grid_mid)
    assert diag.converged
    exact = phi_exact(4.0, grid_mid)
    assert np.max(np.abs(profile.values - exact.values)) <= 1e-9


def _omega0(alpha):
    return explicit_params(alpha).omega0


def _assert_agrees_with_oracle(solved, reference):
    """Same verdict; a converged solve gives the oracle's profile to 1e-12 in
    no more iterations."""
    (profile, diag), (ref_profile, ref_diag) = solved, reference
    assert diag.converged == ref_diag.converged
    if diag.converged:
        assert np.max(np.abs(profile.values - ref_profile.values)) <= 1e-12
        assert diag.iterations <= ref_diag.iterations


@pytest.mark.parametrize(
    "alpha, omega, options",
    [
        (1.0, _omega0(1.0), {}),
        (2.0, _omega0(2.0), {}),
        (4.0, _omega0(4.0), {}),
        (3.2, 0.1, {}),
        (6.0, 0.3, {}),  # sign-changing tails
        (3.0, 1.0, {}),  # criterion 11's sign-changing wave
        (4.0, 0.1, {"dispersion_beta": 0.0}),
        (2.0, _omega0(2.0), {"initial_guess": "exact-sech"}),
        (2.0, 0.17, {"initial_guess": "warm"}),
        (2.0, _omega0(2.0), {"max_iter": 3}),
    ],
    ids=["alpha1", "alpha2", "alpha4", "alpha3.2", "alpha6-tails", "alpha3-omega1",
         "beta0", "exact-sech", "warm", "max-iter-3"],
)
def test_solve_matches_complex_fft_oracle(grid_mid, alpha, omega, options):
    if "initial_guess" in options:
        # the explicit wave: exact at omega0, a warm start elsewhere
        options = {"initial_guess": phi_exact(alpha, grid_mid)}
    config = SolverConfig(**options)
    solved = _iterate(alpha, omega, grid_mid, config)
    reference = reference_solve(alpha, omega, grid_mid, config)
    _assert_agrees_with_oracle(solved, reference)
    assert solved[1].converged == ("max_iter" not in options)
    if "max_iter" in options:
        assert solved[1].iterations == reference[1].iterations == 3


def test_warm_branch_matches_complex_fft_oracle(grid_mid):
    # 24 warm-started points at alpha = 3.2, each side seeded by its own last profile
    profile = ref_profile = None
    for omega in np.linspace(0.02, 0.25, 24):
        solved = _iterate(3.2, omega, grid_mid, SolverConfig(initial_guess=profile))
        reference = reference_solve(3.2, omega, grid_mid,
                                    SolverConfig(initial_guess=ref_profile))
        _assert_agrees_with_oracle(solved, reference)
        assert solved[1].converged
        profile, ref_profile = solved[0], reference[0]


def test_warm_branch_stays_even(grid_mid):
    # alpha = 1 from the Gaussian at small omega is the slowest cold start; a
    # mixing step far from the solution would leave an odd (translation)
    # part that every warm start after it carries and grows
    profile = None
    center = grid_mid.n_points // 2
    for omega in np.linspace(0.02, 0.25, 24):
        profile, diag = _iterate(1.0, omega, grid_mid,
                                           SolverConfig(initial_guess=profile))
        assert diag.converged
        v = profile.values
        assert np.max(np.abs(v[center + 1:] - v[1:center][::-1])) <= 1e-13


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([2, 4, 16, 64, 256, 1024]),
    half_width=st.floats(1.0, 300.0),
    omega=st.floats(1e-3, 2.0),
    beta=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_half_spectrum_pairing_is_parseval(n, half_width, omega, beta, seed):
    grid = SpectralGrid(n_points=n, half_width=half_width)
    v = np.random.default_rng(seed).standard_normal(n)
    xi = grid.wavenumbers
    terms = grid.dx / n * (xi**4 + beta * xi**2 + omega) * np.abs(np.fft.fft(v)) ** 2
    half = np.sum(pairing_weights(grid, omega, beta) * np.abs(np.fft.rfft(v)) ** 2)
    assert half == pytest.approx(terms.sum(), rel=0, abs=1e-12 * np.abs(terms).sum())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([2, 4, 64, 1024, 8192]),
    half_width=st.floats(1.0, 300.0),
    beta=st.sampled_from([0.0, 1.0]),
    omega=st.floats(1e-3, 20.0),
)
def test_half_symbol_is_the_symbol_bit_for_bit(n, half_width, beta, omega):
    # its omega-free part is kept per grid shape, read-only, and shared by
    # every grid of that shape; each call returns a new array
    grid = SpectralGrid(n_points=n, half_width=half_width)
    expected = symbol(grid.wavenumbers[: n // 2 + 1], omega, beta).tobytes()
    first = half_symbol(grid, omega, beta)
    assert first.tobytes() == expected
    first += 1.0
    assert half_symbol(SpectralGrid(n_points=n, half_width=half_width), omega, beta).tobytes() \
        == expected
    assert not petviashvili._dispersion(n, half_width, beta).flags.writeable


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    p=st.one_of(st.sampled_from([1.0, 2.0, 3.0, 4.0, 6.0, 8.0]), st.floats(0.1, 10.0)),
    n=st.integers(1, 64),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_power_from_square_matches_power(p, n, scale, seed):
    # the products and the half power from |u|^2 agree with |u|^p from np.abs to rounding
    rng = np.random.default_rng(seed)
    u = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    u[rng.random(n) < 0.1] = 0.0
    square, work = (u * u.conj()).real, np.empty(n)
    np.testing.assert_allclose(power_from_square(square, p, work), power(u, p),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 1.0), (3.2, 1.0), (5.0, 1.0),
                                         (6.0, 1.0), (4.0, 0.0), (10.0, 0.0)])
def test_every_inverted_half_spectrum_has_real_mean_and_nyquist_modes(monkeypatch, alpha, beta):
    # irfft drops the imaginary parts of the mean and Nyquist modes, which a
    # real iterate does not have; the solver builds each spectrum it inverts
    # as a real combination of rfft spectra, which are exactly real there.
    # A branch makes cold, coarse-seeded, warm and secant-seeded solves, and
    # a cold solve at N = 8192 runs many plain and mixed iterations
    grid, config = SpectralGrid(8192, 200.0), SolverConfig(dispersion_beta=beta)
    irfft, ends = np.fft.irfft, []

    def spy(coeffs, *args, **kwargs):
        ends.append((coeffs[0].imag, coeffs[-1].imag))
        return irfft(coeffs, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", spy)
    branch = stability.continue_branch(alpha, 0.05, 0.25, 5, grid, config)
    _, diag = petviashvili_solve(alpha, 0.2, grid, config)
    assert branch.converged_flags.all() and diag.converged
    assert len(ends) > 5 * 4 + diag.iterations
    assert all(mean == 0.0 and nyquist == 0.0 for mean, nyquist in ends)


def test_vanishing_pairing_is_degenerate(grid_small):
    zero = RealProfile(grid_small, np.zeros(grid_small.n_points))
    with pytest.raises(DegenerateInputError):
        _iterate(2.0, OMEGA0_2, grid_small, SolverConfig(initial_guess=zero))


def test_non_finite_history_is_divergence(grid_small, monkeypatch):
    # a NaN from the nonlinearity on the 4th iteration gives a NaN M_n, which
    # no |1 - M_n| test turns into a plain step, so it reaches the mixing; it
    # must raise there, since LAPACK may not return on NaN input
    calls = []
    solve = petviashvili.dgelss

    def nan_on_fourth_call(values, alpha):
        calls.append(alpha)
        out = values * power(values, alpha)
        if len(calls) == 4:
            out[0] = np.nan
        return out

    def finite_only(a, b, **kwargs):
        assert np.isfinite(a).all() and np.isfinite(b).all()
        return solve(a, b, **kwargs)

    monkeypatch.setattr(petviashvili, "nonlinearity", nan_on_fourth_call)
    monkeypatch.setattr(petviashvili, "dgelss", finite_only)
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError, match="non-finite"):
        _iterate(2.0, OMEGA0_2, grid_small, SolverConfig())
    assert len(calls) == 4


def _count_transforms(monkeypatch):
    """Count every np.fft.rfft and np.fft.irfft call."""
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        transform = getattr(np.fft, name)

        def counted(*args, _name=name, _transform=transform, **kwargs):
            counts[_name] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.mark.parametrize("start, max_iter", [("cold", 2000), ("warm", 2000), ("cold", 3),
                                             ("coarse", 2000)])
def test_two_transforms_per_iteration(grid_mid, grid_small, monkeypatch, start, max_iter):
    # one rfft of the start and one irfft of its linear part per solve; one
    # rfft of the nonlinearity and one irfft of the new iterate per iteration.
    # A start on a coarser grid is an rfft there and an irfft of its
    # zero-padded spectrum, which is the iterate's own
    guess = {"cold": None, "warm": phi_exact(2.0, grid_mid),
             "coarse": phi_exact(2.0, grid_small)}[start]
    config = SolverConfig(max_iter=max_iter, initial_guess=guess)
    counts = _count_transforms(monkeypatch)
    _, diag = _iterate(2.0, 0.17, grid_mid, config)
    assert diag.iterations >= 3
    assert counts == {"rfft": diag.iterations + 1,
                      "irfft": diag.iterations + 1 + (start == "coarse")}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    alpha=st.floats(0.5, 6.0),
    omega=st.floats(0.05, 3.0),
    beta=st.sampled_from([0.0, 1.0]),
    warm=st.booleans(),
)
def test_carried_residual_matches_spectral_residual(alpha, omega, beta, warm):
    # each recorded residual is max |irfft(denom c_k - rfft(N(phi_k)))| at the
    # spectral iterate c_k with phi_k = irfft(c_k), recomputed here from c_k.
    # A fresh rfft(phi_k) in place of c_k is no oracle: its rounding, amplified
    # by xi^4, reaches 50 times this tolerance at small alpha and large omega.
    grid = SpectralGrid(n_points=1024, half_width=100.0)
    config = SolverConfig(max_iter=200, dispersion_beta=beta)
    if warm:  # from the wave at a 10% larger omega
        seed, _ = _iterate(alpha, 1.1 * omega, grid, config)
        config = SolverConfig(max_iter=200, initial_guess=seed, dispersion_beta=beta)
    spectral, iterates = {}, []
    irfft, nonlinearity_ = np.fft.irfft, petviashvili.nonlinearity

    def recording_irfft(coeffs, *args, **kwargs):
        out = irfft(coeffs, *args, **kwargs)
        spectral[id(out)] = (out, coeffs.copy())
        return out

    def recording_nonlinearity(values, a):
        coeffs = spectral[id(values)][1] if id(values) in spectral else np.fft.rfft(values)
        iterates.append((values.copy(), coeffs))
        return nonlinearity_(values, a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "irfft", recording_irfft)
        mp.setattr(petviashvili, "nonlinearity", recording_nonlinearity)
        _, diag = _iterate(alpha, omega, grid, config)
    denom = petviashvili.half_symbol(grid, omega, beta)
    expected = np.array([
        np.max(np.abs(irfft(denom * coeffs - np.fft.rfft(nonlinearity(phi, alpha)), grid.n_points)))
        for phi, coeffs in iterates
    ])
    assert expected.size == diag.iterations
    np.testing.assert_allclose(diag.res_history, expected, rtol=1e-14, atol=1e-12)


def _recorded_stages(monkeypatch):
    """Every ``_iterate`` stage's profile and diagnostics, as bytes."""
    stages, iterate = [], petviashvili._iterate

    def recording(*args):
        profile, diag = iterate(*args)
        stages.append((profile.values.tobytes(), diag.iterations, diag.converged,
                       diag.error_history.tobytes(), diag.stab_history.tobytes(),
                       diag.res_history.tobytes()))
        return profile, diag

    monkeypatch.setattr(petviashvili, "_iterate", recording)
    return stages


def _workspaces(monkeypatch, kind):
    """Hand every solve a ``fresh`` Anderson workspace (new arrays, as if none
    were kept), a ``poisoned`` one (the kept arrays, every entry NaN) or the
    ``kept`` one as it was left."""
    take = petviashvili._anderson_workspace

    def fresh(n):
        petviashvili._workspaces.by_size = {}
        return take(n)

    def poisoned(n):
        space = take(n)
        for array in space:
            array.fill(np.nan)
        return space

    monkeypatch.setattr(petviashvili, "_anderson_workspace",
                        {"fresh": fresh, "poisoned": poisoned, "kept": take}[kind])


@pytest.mark.parametrize("start", ["cold", "warm", "coarse", "branch"])
def test_kept_workspace_changes_no_bit(grid_mid, grid_small, monkeypatch, start):
    # every row and entry the mixing reads is written first in the same
    # solve: a workspace full of NaN, or of the last solve's history, gives
    # the same profiles and diagnostics, bit for bit, as new arrays
    def run():
        if start == "branch":
            return stability.continue_branch(3.2, 0.02, 0.25, 24, grid_mid).masses.tobytes()
        guess = {"cold": None, "warm": petviashvili_solve(2.0, 0.17, grid_mid)[0],
                 "coarse": phi_exact(2.0, grid_small)}[start]
        petviashvili_solve(2.0, 0.16, grid_mid, SolverConfig(initial_guess=guess))

    results = {}
    for kind in ("fresh", "poisoned", "kept"):
        with monkeypatch.context() as patch:
            _workspaces(patch, kind)
            stages = _recorded_stages(patch)
            results[kind] = (run(), stages)
    assert results["poisoned"] == results["fresh"] == results["kept"]
    stages = results["fresh"][1]
    # the mixing ran, and every stage converged
    assert sum(1 for s in stages if s[1] > 2) >= 1 and all(s[2] for s in stages)


def test_workspace_is_kept_per_thread_for_the_last_two_sizes(monkeypatch):
    monkeypatch.setattr(petviashvili, "_workspaces", threading.local())
    take = petviashvili._anderson_workspace
    first = take(1024)
    assert [a.shape for a in first] == [(5, 1026), (5, 1026), (5, 1024), (5, 5)]
    assert take(1024) is first
    second = take(2048)
    assert take(1024) is first  # used last, so 2048 goes first
    take(4096)
    assert list(petviashvili._workspaces.by_size) == [1024, 4096]
    assert take(2048) is not second
    assert list(petviashvili._workspaces.by_size) == [4096, 2048]
    other = []
    thread = threading.Thread(target=lambda: other.append(take(2048)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert other[0] is not take(2048)

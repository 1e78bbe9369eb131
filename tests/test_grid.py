"""Tests for the spectral grid: transforms, symbols, quadrature, norms."""

import numpy as np
import pytest

from gamma_oracle import phi_hat_exact
from solitonlab.errors import ParameterError, ShapeError
from solitonlab.explicit import explicit_params, phi_exact
from solitonlab.grid import ComplexField, RealProfile, SpectralGrid


def test_grid_geometry(grid_small):
    g = grid_small
    assert g.nodes.size == g.n_points
    steps = np.diff(g.nodes)
    np.testing.assert_allclose(steps, g.dx, rtol=1e-14)
    assert np.all(steps > 0)
    assert g.dx * g.n_points == pytest.approx(2 * g.half_width, rel=1e-15)


def test_wavenumbers_contain_zero_and_pairs(grid_small):
    xi = grid_small.wavenumbers
    assert 0.0 in xi
    positive = np.sort(xi[xi > 0])
    negative = np.sort(-xi[xi < 0])
    # every positive mode has a negative partner; the unpaired Nyquist mode
    # is stored on the negative side
    assert negative.size == positive.size + 1
    np.testing.assert_allclose(positive, negative[:-1], rtol=1e-14)


def test_grid_validation():
    with pytest.raises(ParameterError):
        SpectralGrid(n_points=1000, half_width=100.0)
    with pytest.raises(ParameterError):
        SpectralGrid(n_points=1024, half_width=-1.0)
    with pytest.raises(ParameterError):
        SpectralGrid(n_points=1, half_width=100.0)
    for half_width in (np.inf, np.nan):
        with pytest.raises(ParameterError):
            SpectralGrid(n_points=1024, half_width=half_width)


def test_forward_of_constant_is_dc_mode(grid_small):
    g = grid_small
    coeffs = g.forward(np.ones(g.n_points))
    dc = coeffs[g.wavenumbers == 0.0]
    assert abs(dc[0] - 2 * g.half_width) < 1e-10
    rest = coeffs[g.wavenumbers != 0.0]
    assert np.max(np.abs(rest)) < 1e-10


def test_round_trip_identity(grid_small, rng):
    g = grid_small
    f = rng.standard_normal(g.n_points) + 1j * rng.standard_normal(g.n_points)
    back = g.inverse(g.forward(f))
    assert np.max(np.abs(back - f)) / np.max(np.abs(f)) < 1e-13


def test_forward_matches_gamma_formula(grid_mid):
    # FFT of the explicit wave against the closed form, one fitted constant
    g = grid_mid
    phi = phi_exact(2.0, g)
    coeffs = g.forward(phi.values).real
    sel = np.abs(g.wavenumbers) <= 2.0
    predicted = phi_hat_exact(2.0, g.wavenumbers[sel])
    c = coeffs[g.wavenumbers == 0.0][0] / phi_hat_exact(2.0, 0.0)
    rel = np.abs(coeffs[sel] - c * predicted) / np.abs(coeffs[sel])
    assert np.max(rel) < 1e-6


def test_apply_symbol_identity(grid_small, rng):
    g = grid_small
    f = rng.standard_normal(g.n_points)
    np.testing.assert_allclose(g.apply_symbol(f, lambda xi: np.ones_like(xi)), f,
                               atol=1e-12)


def test_apply_symbol_second_derivative(grid_small):
    g = grid_small
    k = np.pi / g.half_width * 3
    f = np.sin(k * g.nodes)
    out = g.apply_symbol(f, lambda xi: xi**2)
    np.testing.assert_allclose(out, k**2 * f, rtol=1e-12, atol=1e-12)


def test_apply_symbol_rejects_bad_symbol(grid_small):
    with np.errstate(divide="ignore"), pytest.raises(ParameterError):
        grid_small.apply_symbol(np.ones(grid_small.n_points), lambda xi: 1.0 / xi)


def test_quadrature_constant(grid_small):
    g = grid_small
    assert g.quadrature(np.ones(g.n_points)) == pytest.approx(2 * g.half_width,
                                                              rel=1e-15)


def test_quadrature_sech4_closed_form(grid_mid):
    # int a0^2 sech^4(b0 x) dx = a0^2 * 4 / (3 b0) for alpha = 2
    g = grid_mid
    p = explicit_params(2.0)
    value = g.quadrature(phi_exact(2.0, g).values ** 2)
    assert value == pytest.approx(p.a0**2 * 4.0 / (3.0 * p.b0), rel=1e-8)


def test_quadrature_odd_function(grid_small):
    g = grid_small
    f = g.nodes * np.exp(-g.nodes**2)
    assert abs(g.quadrature(f)) < 1e-12


def test_quadrature_translation_invariance(grid_small, rng):
    g = grid_small
    f = rng.standard_normal(g.n_points)
    assert g.quadrature(np.roll(f, 17)) == pytest.approx(g.quadrature(f),
                                                         rel=1e-12, abs=1e-12)


def test_norms_of_zero(grid_small):
    z = np.zeros(grid_small.n_points)
    for kind in ("L2", "Linf", "H2"):
        assert grid_small.norm(z, kind) == 0.0
    assert grid_small.norm(z, "Lp", p=3.0) == 0.0


def test_linf_of_explicit_wave(grid_mid):
    p = explicit_params(2.0)
    phi = phi_exact(2.0, grid_mid)
    assert grid_mid.norm(phi.values, "Linf") == pytest.approx(p.a0, abs=1e-12)


def test_l2_norm_matches_quadrature(grid_mid):
    phi = phi_exact(2.0, grid_mid).values
    assert grid_mid.norm(phi, "L2") ** 2 == pytest.approx(
        grid_mid.quadrature(phi**2), rel=1e-12)


def test_lp_norm_requires_valid_p(grid_small):
    with pytest.raises(ParameterError):
        grid_small.norm(np.ones(grid_small.n_points), "Lp", p=0.5)
    with pytest.raises(ParameterError):
        grid_small.norm(np.ones(grid_small.n_points), "bogus")


def test_parseval(grid_small, rng):
    g = grid_small
    for _ in range(100):
        f = rng.standard_normal(g.n_points)
        physical = g.norm(f, "L2")
        coeffs = np.fft.fft(f)
        spectral = np.sqrt(g.dx / g.n_points * np.sum(np.abs(coeffs) ** 2))
        assert abs(physical - spectral) / physical < 1e-12


def test_symbol_agrees_with_finite_differences(grid_small):
    # -d2/dx2 via symbol xi^2 versus second-order central differences
    errors = []
    for n in (256, 512, 1024):
        g = SpectralGrid(n_points=n, half_width=100.0)
        f = np.exp(-(g.nodes / 5.0) ** 2)
        spectral = g.apply_symbol(f, lambda xi: xi**2)
        fd = -(np.roll(f, -1) - 2 * f + np.roll(f, 1)) / g.dx**2
        errors.append(np.max(np.abs(spectral - fd)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.8)


def test_shape_errors(grid_small):
    with pytest.raises(ShapeError):
        grid_small.forward(np.ones(7))
    with pytest.raises(ShapeError):
        RealProfile(grid_small, np.ones(7))
    with pytest.raises(ShapeError):
        ComplexField(grid_small, np.ones(7, dtype=complex))


def test_profile_rejects_non_finite(grid_small):
    bad = np.ones(grid_small.n_points)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        RealProfile(grid_small, bad)
    with pytest.raises(ValueError):
        ComplexField(grid_small, bad.astype(complex))

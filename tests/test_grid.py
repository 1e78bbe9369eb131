"""Tests for the spectral grid: symbols, quadrature, the Parseval sum, the H2
norm, and the continuum transform the tests use."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_oracle import phi_hat_exact
from model_oracle import forward
from solitonlab.errors import ParameterError, ShapeError
from solitonlab.explicit import explicit_params, phi_exact
from solitonlab.grid import ComplexField, RealProfile, SpectralGrid, coarsest_grid, zero_pad


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
    coeffs = forward(g, np.ones(g.n_points))
    dc = coeffs[g.wavenumbers == 0.0]
    assert abs(dc[0] - 2 * g.half_width) < 1e-10
    rest = coeffs[g.wavenumbers != 0.0]
    assert np.max(np.abs(rest)) < 1e-10


def test_forward_matches_gamma_formula(grid_mid):
    # FFT of the explicit wave against the closed form, one fitted constant
    g = grid_mid
    phi = phi_exact(2.0, g)
    coeffs = forward(g, phi.values).real
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
    assert grid_small.norm(np.zeros(grid_small.n_points), "H2") == 0.0


def test_norm_refuses_kinds_other_than_h2(grid_small):
    for kind in ("L2", "Linf", "Lp", "bogus"):
        with pytest.raises(ParameterError):
            grid_small.norm(np.ones(grid_small.n_points), kind)


def test_parseval(grid_small, rng):
    # the H2 norm from the spectrum against int f^2 + f'^2 + f''^2 in x-space
    g = grid_small
    for _ in range(100):
        f = rng.standard_normal(g.n_points)
        # complex: the Nyquist mode of f' is imaginary
        fx = g.apply_symbol(f, lambda xi: 1j * xi)
        fxx = g.apply_symbol(f, lambda xi: -(xi**2))
        physical = np.sqrt(g.quadrature(f**2 + np.abs(fx) ** 2 + fxx**2))
        spectral = g.norm(f, "H2")
        assert abs(physical - spectral) / physical < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([2, 512, 1024, 2048, 4096, 8192]),
    half_width=st.floats(1.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_h2_weight_is_built_on_first_use_bit_for_bit(n, half_width, seed):
    # the weight is not built with the grid; once read it is 1 + xi^2 + xi^4
    # to the last bit, and the norm is the one it always gave
    g = SpectralGrid(n, half_width)
    assert "h2_weight" not in vars(g)
    xi = g.wavenumbers
    assert g.h2_weight.tobytes() == (1.0 + xi**2 + xi**4).tobytes()
    assert g.h2_weight is g.h2_weight
    f = np.random.default_rng(seed).standard_normal(n)
    coeffs = np.fft.fft(f)
    expected = float(np.sqrt(g.dx / n * np.sum((1.0 + xi**2 + xi**4) * np.abs(coeffs) ** 2)))
    assert g.norm(f, "H2") == expected


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([2, 512, 1024, 8192]),
    half_width=st.floats(1.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_field_h2_norm_is_the_grids_bit_for_bit(n, half_width, seed):
    # a field's squared H2 norm is the Parseval sum of its cached spectrum,
    # taken on first use and kept, and its root is SpectralGrid.norm
    g = SpectralGrid(n, half_width)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    field = ComplexField(g, values)
    assert "spectrum" not in vars(field) and "h2_norm_sq" not in vars(field)
    coeffs = np.fft.fft(values)
    assert field.h2_norm_sq == g.dx / n * float(np.sum(g.h2_weight * np.abs(coeffs) ** 2))
    assert field.spectrum.tobytes() == coeffs.tobytes()
    assert field.h2_norm_sq is field.h2_norm_sq
    assert float(np.sqrt(field.h2_norm_sq)) == g.norm(values, "H2")


def test_parseval_with_unit_weight_is_the_quadrature_of_the_square(grid_small, rng):
    # dx / n sum |fft(f)|^2 = dx sum |f|^2
    g = grid_small
    f = rng.standard_normal(g.n_points) + 1j * rng.standard_normal(g.n_points)
    expected = g.quadrature(np.abs(f) ** 2)
    assert g.parseval(np.ones(g.n_points), np.fft.fft(f)) == pytest.approx(expected, rel=1e-13)


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
        grid_small.quadrature(np.ones(7))
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


def test_coarsest_grid_is_the_grid_itself_where_no_halving_resolves():
    # the nested iterations test `coarse is grid` to skip their coarse stage
    grid = SpectralGrid(256, 10.0)
    assert coarsest_grid(np.abs(grid.nodes), grid) is grid  # a kink: algebraic tail
    coarse = coarsest_grid(np.exp(-grid.nodes**2), grid)
    assert coarse is not grid and (coarse.n_points, coarse.half_width) == (128, 10.0)


@pytest.mark.parametrize("n_coarse, n_fine", [(64, 64), (64, 1024), (512, 2048)])
def test_zero_pad_samples_back_to_the_coarse_values(n_coarse, n_fine, rng):
    # the prolongation of any coarse samples passes through them; on the
    # same grid it is the spectrum itself
    values = rng.standard_normal(n_coarse)
    coeffs = np.fft.rfft(values)
    padded = zero_pad(coeffs, n_fine)
    assert (padded is coeffs) == (n_coarse == n_fine)
    np.testing.assert_allclose(np.fft.irfft(padded, n_fine)[:: n_fine // n_coarse], values,
                               rtol=0, atol=1e-13)

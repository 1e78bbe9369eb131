"""Tests for the closed-form wave, and for the oracles of its transforms, its
functional and the beta = 0 d'' formula."""

import re
from fractions import Fraction

import numpy as np
import pytest

from gamma_oracle import phi_hat_exact
from model_oracle import (
    DomainError,
    constrained_functional,
    d2_closed_pure4nls,
    forward,
    phi_pow_alpha_hat_exact,
    residual,
)
from solitonlab.errors import ParameterError
from solitonlab.explicit import explicit_params, phi_exact


def omega0_rational(alpha):
    a = Fraction(alpha)
    return 4 * (a**2 + 4 * a + 4) / (a**4 + 8 * a**3 + 32 * a**2 + 64 * a + 64)


def test_omega0_known_values():
    assert omega0_rational(2) == Fraction(4, 25)
    assert omega0_rational(4) == Fraction(9, 100)
    assert explicit_params(2.0).omega0 == pytest.approx(4 / 25, rel=1e-15)
    assert explicit_params(4.0).omega0 == pytest.approx(9 / 100, rel=1e-15)


def test_amplitude_and_width_alpha2():
    p = explicit_params(2.0)
    assert p.a0 == pytest.approx(np.sqrt(3.0 / 10.0), rel=1e-14)
    assert p.b0 == pytest.approx(1.0 / (2.0 * np.sqrt(5.0)), rel=1e-14)


def test_omega0_below_quarter():
    for alpha in np.linspace(0.5, 10.0, 50):
        assert explicit_params(float(alpha)).omega0 < 0.25


def test_params_validation():
    with pytest.raises(ParameterError):
        explicit_params(0.0)
    with pytest.raises(ParameterError):
        explicit_params(-1.0)


@pytest.mark.parametrize("alpha", [9.8e76, 1e78, 1e200, np.inf])
def test_params_refuse_an_alpha_whose_polynomials_overflow(alpha):
    # a**3 raises OverflowError at 1e200; at 1e78 2 (a**2 + 4a + 8)**2 is inf
    # and a0 would come out 0 instead of about 1
    with pytest.raises(ParameterError, match=re.escape(f"alpha={alpha:g}")):
        explicit_params(alpha)


def test_params_of_the_largest_alpha_are_finite():
    p = explicit_params(9.7e76)
    assert (p.a0, p.b0) == (1.0, 0.5) and 0 < p.omega0 < 5e-154


def test_phi_exact_shape_and_symmetry(grid_mid):
    p = explicit_params(2.0)
    phi = phi_exact(2.0, grid_mid).values
    center = grid_mid.n_points // 2
    assert phi[center] == pytest.approx(p.a0, rel=1e-14)
    assert np.all(phi > 0)
    # nodes are symmetric about x=0 except the leftmost one
    np.testing.assert_allclose(phi[center + 1:], phi[1:center][::-1], rtol=1e-12)
    assert phi[0] < 1e-12 and phi[-1] < 1e-12


def test_phi_exact_solves_profile_equation(grid_mid):
    phi = phi_exact(2.0, grid_mid)
    assert residual(phi, 2.0, 4.0 / 25.0) <= 1e-8


def test_phi_hat_positive_and_even():
    xi = np.array([0.0, 1.0, 10.0])
    vals = phi_hat_exact(2.0, xi)
    assert np.all(vals > 0)
    np.testing.assert_allclose(phi_hat_exact(2.0, -xi), vals, rtol=1e-14)


def test_phi_hat_matches_fft(grid_mid):
    for alpha in (1.0, 2.0, 4.0):
        coeffs = forward(grid_mid, phi_exact(alpha, grid_mid).values).real
        sel = np.abs(grid_mid.wavenumbers) <= 2.0
        predicted = phi_hat_exact(alpha, grid_mid.wavenumbers[sel])
        c = coeffs[grid_mid.wavenumbers == 0.0][0] / phi_hat_exact(alpha, 0.0)
        rel = np.abs(coeffs[sel] - c * predicted) / np.abs(coeffs[sel])
        assert np.max(rel) < 1e-6


def test_phi_hat_rejects_non_finite_argument():
    with np.errstate(invalid="ignore"), pytest.raises(DomainError):
        phi_hat_exact(2.0, np.inf)


def test_phi_pow_alpha_hat_limit_and_continuity():
    p = explicit_params(2.0)
    at_zero = phi_pow_alpha_hat_exact(2.0, 0.0)
    assert at_zero == pytest.approx(p.a0**2 / (3.0 * p.b0), rel=1e-12)
    near_zero = phi_pow_alpha_hat_exact(2.0, 1e-7)
    assert near_zero == pytest.approx(float(at_zero), rel=1e-6)


def test_phi_pow_alpha_hat_positive_even():
    xi = np.linspace(-10, 10, 101)
    vals = phi_pow_alpha_hat_exact(3.0, xi)
    assert np.all(vals > 0)
    np.testing.assert_allclose(vals, vals[::-1], rtol=1e-12)


def test_phi_pow_alpha_hat_matches_fft(grid_mid):
    for alpha in (1.0, 2.0, 4.0):
        samples = np.abs(phi_exact(alpha, grid_mid).values) ** alpha
        coeffs = forward(grid_mid, samples).real
        sel = np.abs(grid_mid.wavenumbers) <= 2.0
        predicted = phi_pow_alpha_hat_exact(alpha, grid_mid.wavenumbers[sel])
        c = coeffs[grid_mid.wavenumbers == 0.0][0] / phi_pow_alpha_hat_exact(alpha, 0.0)
        rel = np.abs(coeffs[sel] - c * predicted) / np.abs(coeffs[sel])
        assert np.max(rel) < 1e-6


def test_d2_closed_formulas():
    assert d2_closed_pure4nls(8.0, 1.0, 1.0) == 0.0
    assert d2_closed_pure4nls(4.0, 1.0, 1.0) == pytest.approx(0.25, rel=1e-14)
    assert d2_closed_pure4nls(10.0, 0.3, 2.0) < 0
    with pytest.raises(ParameterError):
        d2_closed_pure4nls(2.0, 1.0, -1.0)


def test_d2_sign_change_locations():
    for alpha in (7.9, 8.1):
        assert np.sign(d2_closed_pure4nls(alpha, 1.0, 1.0)) == np.sign(8.0 - alpha)


def test_constrained_functional_zero(grid_small):
    from solitonlab.grid import RealProfile

    zero = RealProfile(grid_small, np.zeros(grid_small.n_points))
    b, tau = constrained_functional(zero, 2.0, 0.16)
    assert b == 0.0 and tau == 0.0


def test_constrained_functional_identity(grid_mid):
    # at the explicit wave the quadratic part equals half the constraint
    for alpha in (1.0, 2.0, 3.0, 4.0):
        omega0 = explicit_params(alpha).omega0
        phi = phi_exact(alpha, grid_mid)
        b, tau = constrained_functional(phi, alpha, omega0)
        assert b == pytest.approx(tau / 2.0, rel=1e-8)


def test_constrained_functional_scaling(grid_mid):
    from solitonlab.grid import RealProfile

    phi = phi_exact(2.0, grid_mid)
    b1, tau1 = constrained_functional(phi, 2.0, 0.16)
    doubled = RealProfile(grid_mid, 2.0 * phi.values)
    b2, tau2 = constrained_functional(doubled, 2.0, 0.16)
    assert b2 == pytest.approx(4.0 * b1, rel=1e-12)
    assert tau2 == pytest.approx(2.0 ** 4 * tau1, rel=1e-12)


def test_constrained_functional_uses_beta(grid_mid):
    # B(beta) - B(0) = (beta/2) int |u_x|^2; tau does not depend on beta
    phi = phi_exact(2.0, grid_mid)
    ux = grid_mid.apply_symbol(phi.values, lambda xi: 1j * xi)
    gradient = float(grid_mid.quadrature(np.abs(ux) ** 2).real)
    b_half, tau_half = constrained_functional(phi, 2.0, 0.16, 0.5)
    b_zero, tau_zero = constrained_functional(phi, 2.0, 0.16, 0.0)
    assert b_half - b_zero == pytest.approx(0.25 * gradient, rel=1e-10)
    assert tau_half == tau_zero
    assert constrained_functional(phi, 2.0, 0.16) == constrained_functional(phi, 2.0, 0.16, 1.0)

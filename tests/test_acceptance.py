"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

These run on the production grid (half_width 200, 8192 points) and pin the
tolerances of the package's headline claims.  The module takes about 35 s
on a 2-vCPU host: the criterion-10 evolutions about 24 s, the criterion-4
Gamma-function cross-check about 7 s, the criterion-5 spectra about 1.3 s
and everything else under 1 s.  Every test carries the ``acceptance``
marker, so ``pytest -m "not acceptance"`` runs the rest of the suite alone.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf, cos, fsum, sech

from gamma_oracle import phi_hat_exact
from model_oracle import forward, phi_pow_alpha_hat_exact
from solitonlab import evolve
from solitonlab.errors import ParameterError
from solitonlab.evolve import conservation_audit, perturbed_run
from solitonlab.explicit import explicit_params, phi_exact
from solitonlab.grid import ComplexField, SpectralGrid
from solitonlab.petviashvili import SolverConfig, petviashvili_solve
from solitonlab.spectra import (
    build_operator,
    composite_counts,
    eigen_report,
    ground_state_positivity,
    negative_direction_scalar,
)
from solitonlab.stability import (
    continue_branch,
    d_second,
    find_alpha0,
)

pytestmark = pytest.mark.acceptance

ALPHAS = (1.0, 2.0, 4.0)


@pytest.fixture(scope="module")
def acc_grid():
    return SpectralGrid(n_points=8192, half_width=200.0)


@pytest.fixture(scope="module")
def acc_solves(acc_grid):
    """Converged solves at the explicit frequency, with wall times."""
    out = {}
    for alpha in ALPHAS:
        omega0 = explicit_params(alpha).omega0
        start = time.perf_counter()
        profile, diag = petviashvili_solve(alpha, omega0, acc_grid)
        out[alpha] = (profile, diag, time.perf_counter() - start)
    return out


@pytest.fixture
def announce(capsys):
    def _announce(number, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\nCRITERION {number}: {status} - {detail}")
    return _announce


def test_criterion_01_exact_reproduction(acc_grid, acc_solves, announce):
    worst = 0.0
    slowest = 0.0
    ok = True
    for alpha in ALPHAS:
        profile, diag, elapsed = acc_solves[alpha]
        exact = phi_exact(alpha, acc_grid)
        distance = float(np.max(np.abs(profile.values - exact.values)))
        worst = max(worst, distance)
        slowest = max(slowest, elapsed)
        ok = ok and diag.converged and distance <= 1e-9 and elapsed <= 10.0
    announce(1, ok, f"max Linf distance {worst:.2e} (tol 1e-9), "
                    f"max runtime {slowest:.1f}s (limit 10s)")
    assert ok


def test_criterion_02_diagnostics(acc_solves, announce):
    finals = []
    for alpha in ALPHAS:
        _, diag, _ = acc_solves[alpha]
        finals.append((diag.error_history[-1], diag.stab_history[-1],
                       diag.res_history[-1]))
    errs, stabs, ress = map(max, zip(*finals))
    ok = errs <= 1e-12 and stabs <= 1e-12 and ress <= 1e-10
    announce(2, ok, f"final Error {errs:.1e} (tol 1e-12), |1-M| {stabs:.1e} "
                    f"(tol 1e-12), RES {ress:.1e} (tol 1e-10)")
    assert ok


def test_criterion_03_frequency_formulas(announce):
    def omega0(alpha):
        a = Fraction(alpha)
        return 4 * (a**2 + 4 * a + 4) / (a**4 + 8 * a**3 + 32 * a**2 + 64 * a + 64)

    ok = omega0(2) == Fraction(4, 25) and omega0(4) == Fraction(9, 100)
    announce(3, ok, "omega0(2) = 4/25 and omega0(4) = 9/100 in exact rationals")
    assert ok


def _discrete_transform_oracle(alpha, power, xi_values, n=2048, half_width=200.0):
    """dx * sum_j phi(x_j)^power cos(xi x_j) in 40-digit arithmetic.

    In double precision the transform values near xi = 5 fall below the
    rounding noise of the samples themselves (2.8e-20 versus about 1e-17 at
    alpha = 1), so the pointwise comparison is only meaningful with the
    samples and the sum evaluated in extended precision.
    """
    mp.dps = 40
    p = explicit_params(alpha)
    a0, b0 = mpf(repr(p.a0)), mpf(repr(p.b0))
    dx = mpf(2 * half_width) / n
    xs = [-mpf(half_width) + j * dx for j in range(n)]
    phis = [(a0 * sech(b0 * x) ** (mpf(4) / mpf(repr(alpha)))) ** power
            for x in xs]
    out = []
    for xi in xi_values:
        xim = mpf(repr(float(xi)))
        out.append(float(dx * fsum(phis[j] * cos(xim * xs[j]) for j in range(n))))
    return np.asarray(out)


def test_criterion_04_gamma_formula_crosscheck(acc_grid, announce):
    worst = 0.0
    oracle_grid = SpectralGrid(n_points=2048, half_width=200.0)
    xi_sample = oracle_grid.wavenumbers[::8]
    xi_sample = np.sort(xi_sample[(xi_sample >= 0) & (xi_sample <= 5.0)])
    assert xi_sample[0] == 0.0
    for alpha in ALPHAS:
        for power, formula in ((1.0, phi_hat_exact),
                               (alpha, phi_pow_alpha_hat_exact)):
            # double precision FFT where it is above the noise floor
            samples = np.abs(phi_exact(alpha, acc_grid).values) ** power
            coeffs = forward(acc_grid, samples).real
            sel = np.abs(acc_grid.wavenumbers) <= 2.0
            c = coeffs[acc_grid.wavenumbers == 0.0][0] / formula(alpha, 0.0)
            predicted = c * formula(alpha, acc_grid.wavenumbers[sel])
            worst = max(worst, float(np.max(
                np.abs(coeffs[sel] - predicted) / np.abs(coeffs[sel]))))
            # extended precision discrete transform out to xi = 5
            oracle = _discrete_transform_oracle(alpha, power, xi_sample)
            c = oracle[0] / formula(alpha, 0.0)
            predicted = c * formula(alpha, xi_sample)
            worst = max(worst, float(np.max(
                np.abs(oracle - predicted) / np.abs(oracle))))
    ok = worst <= 1e-6
    announce(4, ok, f"max pointwise rel. error {worst:.2e} on |xi| <= 5 "
                    "(tol 1e-6; extended-precision transform beyond xi = 2)")
    assert ok


@pytest.fixture(scope="module")
def spectral_reports():
    """Eigen reports of both operators at 4096 and 8192 points."""
    reports = {}
    for n in (4096, 8192):
        grid = SpectralGrid(n_points=n, half_width=200.0)
        for alpha in ALPHAS:
            omega0 = explicit_params(alpha).omega0
            phi = phi_exact(alpha, grid)
            for which in ("Lminus", "Lplus"):
                op = build_operator(phi, alpha, omega0, which)
                reports[(n, alpha, which)] = eigen_report(op)
                del op
    return reports


def test_criterion_05_spectral_counts(spectral_reports, announce):
    ok = True
    for n in (4096, 8192):
        grid = SpectralGrid(n_points=n, half_width=200.0)
        for alpha in ALPHAS:
            minus = spectral_reports[(n, alpha, "Lminus")]
            plus = spectral_reports[(n, alpha, "Lplus")]
            ok = ok and (minus.n_negative, minus.n_zero) == (1, 1)
            ok = ok and (plus.n_negative, plus.n_zero) == (0, 1)
            ok = ok and composite_counts(minus, plus) == (1, 2)
            phi = phi_exact(alpha, grid).values
            dphi = np.real(grid.apply_symbol(phi, lambda xi: 1j * xi))
            for rep, target in ((minus, dphi), (plus, phi)):
                idx = int(np.argmin(np.abs(rep.eigenvalues)))
                vec = rep.eigenvectors[:, idx]
                corr = abs(vec @ target) / (
                    np.linalg.norm(vec) * np.linalg.norm(target))
                ok = ok and corr >= 0.999999
    announce("5 (counts and kernels)", ok,
             "n/z = (1,1) for L-, (0,1) for L+, (1,2) composite, kernel "
             "correlations >= 0.999999, identical at 4096 and 8192 points")
    assert ok


def test_criterion_05_ground_state_sign(spectral_reports, announce):
    # The negative-eigenvalue eigenfunction of the fourth-order operator has
    # oscillatory tails (undershoot of order 1e-4, stable under grid
    # refinement), so the single-sign test with a 1e-8 band cannot pass.
    # The test is kept faithful to the stated criterion and fails.
    ok = True
    worst = 0.0
    for alpha in ALPHAS:
        rep = spectral_reports[(4096, alpha, "Lminus")]
        ok = ok and ground_state_positivity(rep)
        vec = rep.eigenvectors[:, 0]
        vec = vec / vec[np.argmax(np.abs(vec))]
        worst = min(worst, float(vec.min()))
    announce("5 (ground state single-signed)", ok,
             f"most negative normalized eigenfunction value {worst:.1e} "
             "(band 1e-8); oscillatory tails are a genuine feature of the "
             "discretized operator")
    assert ok


def test_criterion_06_pf2_certification(announce):
    ok = True
    for alpha in ALPHAS:
        xi = np.linspace(-10.0, 10.0, 400)
        second = np.diff(np.log(phi_pow_alpha_hat_exact(alpha, xi)), 2)
        ok = ok and bool(np.all(second < 0))
    announce(6, ok, "second difference of the log-transformed nonlinearity "
                    "< 0 at all interior nodes, 400-point grid on [-10, 10]")
    assert ok


def test_criterion_07_d_second_sign_structure(acc_grid, announce):
    start = time.perf_counter()
    ok = True
    details = []
    for alpha in (2.0, 3.0, 4.0):
        branch = continue_branch(alpha, 0.02, 0.25, 24, acc_grid)
        positive = bool(np.all(d_second(branch)[:, 1] > 0))
        ok = ok and positive
        details.append(f"alpha={alpha:g} all-positive={positive}")
    branch5 = continue_branch(5.0, 0.02, 0.25, 24, acc_grid)
    signs5 = np.sign(d_second(branch5)[:, 1])
    one_change = (np.sum(np.diff(signs5) != 0) == 1
                  and signs5[0] < 0 < signs5[-1])
    ok = ok and one_change
    details.append(f"alpha=5 one neg-to-pos change={one_change}")
    branch55 = continue_branch(5.5, 0.02, 0.25, 24, acc_grid)
    negative = bool(np.all(d_second(branch55)[:, 1] < 0))
    ok = ok and negative
    details.append(f"alpha=5.5 all-negative={negative}")
    alpha0 = find_alpha0((4.0, 5.5), acc_grid, tol_alpha=0.1)
    in_window = 4.6 <= alpha0 <= 5.0
    ok = ok and in_window
    details.append(f"alpha0={alpha0:.2f} in [4.6, 5.0]={in_window}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 600.0
    announce(7, ok, "; ".join(details) + f"; runtime {elapsed:.0f}s (limit 600s)")
    assert ok


def test_criterion_08_cross_validation(acc_grid, announce):
    ok = True
    details = []
    for alpha in (2.0, 4.0, 6.0):
        omega0 = explicit_params(alpha).omega0
        phi = phi_exact(alpha, acc_grid)
        scalar = negative_direction_scalar(phi, alpha, omega0)
        # forward difference over omega0 + 2e-3, independent of the chi form
        d2 = d_second(continue_branch(alpha, omega0, omega0 + 2e-3, 2, acc_grid))[0, 1]
        agree = np.sign(scalar) == -np.sign(d2)
        ok = ok and agree
        if alpha == 2.0:
            ok = ok and scalar < 0
        details.append(f"alpha={alpha:g} <chi,phi>={scalar:.3g} d''={d2:.3g}")
    announce(8, ok, "sign(<chi,phi>) = -sign(d'') at the explicit frequency; "
                    + "; ".join(details))
    assert ok


def test_criterion_09_pure_fourth_order(acc_grid, announce):
    config = SolverConfig(dispersion_beta=0.0)
    pos = continue_branch(4.0, 0.05, 0.25, 8, acc_grid, config)
    all_pos = bool(np.all(d_second(pos)[:, 1] > 0))
    neg = continue_branch(10.0, 0.05, 0.25, 8, acc_grid, config)
    all_neg = bool(np.all(d_second(neg)[:, 1] < 0))
    ok = all_pos and all_neg
    announce(9, ok, f"beta=0 model: d'' > 0 at alpha=4 ({all_pos}), "
                    f"d'' < 0 at alpha=10 ({all_neg})")
    assert ok


def test_criterion_10_evolution(acc_grid, acc_solves, announce):
    # both perturbed runs start from converged standing waves
    evolve._propagator.cache_clear()
    profile, diag, _ = acc_solves[2.0]
    field = ComplexField(acc_grid, profile.values.astype(complex))
    audit = conservation_audit(field, 2.0, 1e-3, 20.0, n_samples=20)
    drift_e, drift_f = audit.relative_drifts
    ok = diag.converged and drift_e <= 1e-7 and drift_f <= 1e-10

    stable = perturbed_run(profile, 2.0, 0.01, 1e-3, 50.0, 50)
    stable_distances = stable.series["orbital_distance"]
    bound = 5 * 0.01 * acc_grid.norm(profile.values, "H2")
    stays_close = stable.blow_up_time is None and float(np.max(stable_distances)) <= bound
    ok = ok and stays_close

    profile_6, diag_6 = petviashvili_solve(6.0, explicit_params(6.0).omega0, acc_grid)
    ok = ok and diag_6.converged
    unstable = perturbed_run(profile_6, 6.0, 0.01, 1e-3, 50.0, 50)
    distances = unstable.series["orbital_distance"]
    growth = float(np.max(distances) / distances[0])
    ok = ok and growth >= 10.0
    announce(10, ok, f"converged waves at alpha=2 ({diag.converged}) and alpha=6 "
                     f"({diag_6.converged}); drift E {drift_e:.1e} (tol 1e-7), F {drift_f:.1e} "
                     f"(tol 1e-10); perturbed alpha=2 max distance "
                     f"{np.max(stable_distances):.3f} <= {bound:.3f}; "
                     f"alpha=6 growth factor {growth:.0f} (>= 10)")
    assert ok
    # every checkpoint of all three runs stepped on the even half path: the
    # whole field's propagator was never built
    assert evolve._propagator.cache_info().misses == 0


def test_criterion_11_sign_changing_tails(acc_grid, announce):
    high, diag_high = petviashvili_solve(3.0, 1.0, acc_grid)
    low, diag_low = petviashvili_solve(3.0, 0.2, acc_grid)
    min_high = float(high.values.min())
    min_low = float(low.values.min())
    ok = (diag_high.converged and diag_low.converged
          and min_high < 0 and min_low > -1e-10)
    announce(11, ok, f"alpha=3: min phi at omega=1 is {min_high:.2e} (< 0), "
                     f"at omega=0.2 is {min_low:.2e} (> -1e-10)")
    assert ok

"""Shared fixtures: small working grids and cached solitary-wave solves."""

import numpy as np
import pytest

from solitonlab import evolve
from solitonlab.errors import BlowUpDetected
from solitonlab.grid import SpectralGrid
from solitonlab.petviashvili import petviashvili_solve


@pytest.fixture(scope="session")
def grid_small():
    return SpectralGrid(n_points=1024, half_width=100.0)


@pytest.fixture(scope="session")
def grid_mid():
    return SpectralGrid(n_points=2048, half_width=100.0)


@pytest.fixture(scope="session")
def solve_cache():
    """Memoized petviashvili_solve keyed by (alpha, omega, grid)."""
    cache = {}

    def solve(alpha, omega, grid, config=None):
        key = (alpha, omega, grid.n_points, grid.half_width,
               None if config is None else id(config))
        if key not in cache:
            cache[key] = petviashvili_solve(alpha, omega, grid, config)
        return cache[key]

    return solve


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def blow_up_on_third_interval(monkeypatch):
    """Make the integrator blow up halfway through its 3rd call.

    Returns the list of the start times of every call made so far.
    """
    integrate = evolve.advance
    starts = []

    def blowing(field, alpha, dt, n_steps, beta=1.0, t0=0.0):
        starts.append(t0)
        if len(starts) == 3:
            raise BlowUpDetected(t0 + 0.5 * n_steps * dt)
        return integrate(field, alpha, dt, n_steps, beta, t0)

    monkeypatch.setattr(evolve, "advance", blowing)
    return starts

"""The benchmark's four workloads: seeded inputs, operation lists, checks.

Each workload is a fixed list of operations driven through solitonlab's
public entry points: ``cli.main(argv)`` for subcommands, library calls
where no subcommand exists.  The seed draws (alpha, omega, delta) inside
stated regimes (``RANGES``); every check's expected result follows from the
regime, never from the drawn value.  Inputs stay off two known defects:
``evolve`` ignores ``--beta`` (so every evolution uses beta = 1) and
``region --omega-steps 1`` crashes.

Importing this module imports solitonlab, so ``src`` must be on sys.path.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy.linalg

from solitonlab import cli, evolve, spectra, stability
from solitonlab.explicit import explicit_params, phi_exact
from solitonlab.grid import ComplexField, SpectralGrid
from solitonlab.petviashvili import petviashvili_solve

WORKLOADS = ("branch", "thresholds", "spectrum", "evolve")

# seed-drawn inputs: name -> (low, high); each range lies inside one regime
RANGES = {
    "branch": {
        "alpha_pos": (3.0, 3.5),      # d'' > 0 on all of [0.02, 0.25]
        "alpha_change": (4.9, 5.1),   # one d'' sign change, - to +
        "alpha_neg": (5.7, 6.3),      # d'' < 0 on all of [0.02, 0.25]
        "alpha_branch": (3.0, 3.5),   # mass increases along the branch
        "alpha_beta0": (3.5, 4.5),    # pure fourth order: sign(d'') = sign(8 - alpha)
    },
    "thresholds": {
        "alpha_omega_c": (4.9, 5.1),  # omega_c inside (0.02, 0.25)
        "solve1_alpha": (1.5, 3.5),
        "solve1_omega": (0.15, 0.35),
        "solve2_alpha": (1.5, 3.5),
        "solve2_omega": (0.15, 0.35),
        "region_alpha": (3.0, 3.5),   # region row of d'' > 0, next to alpha = 6 (d'' < 0)
    },
    "spectrum": {
        "alpha": (1.5, 3.5),          # ground state: n/z = (1,1) for L-, (0,1) for L+
        "omega": (0.1, 0.3),
        "chi_alpha": (2.0, 3.5),      # d'' > 0, so <chi, phi> < 0
        "chi_omega": (0.1, 0.2),
    },
    "evolve": {
        "delta": (0.0, 0.01),         # stable wave alpha = 2, omega = 0.16
    },
}

GRID_N = 8192
HALF_WIDTH = 200.0
OMEGA_MIN, OMEGA_MAX, STEPS = 0.02, 0.25, 24  # the dmap/branch CLI defaults
DT = 1e-3

# acceptance-gate tolerances
LINF_EXACT = 1e-9          # criterion 1
TOL_ERROR, TOL_STAB, TOL_RES = 1e-12, 1e-12, 1e-10  # criterion 2
ALPHA0_WINDOW = (4.6, 5.0)  # criterion 7
ENERGY_DRIFT, MASS_DRIFT = 1e-7, 1e-10  # criterion 10
# physical-space residual recomputed from a written profile; the xi^4 symbol
# amplifies rounding of the 17-digit CSV values to about 2e-9
PROFILE_RESIDUAL = 1e-8
# the unstable wave's orbital distance roughly doubles by t = 3 (1.95 measured);
# the stable wave's stays within 10% of its start
UNSTABLE_GROWTH = 1.5


class CheckError(Exception):
    """An operation's output contradicts what its regime predicts."""


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


@dataclass(frozen=True)
class Op:
    """One operation: ``run(out_dir)`` does the work the user waits for,
    ``check(out_dir, result)`` raises :class:`CheckError` on a wrong output."""

    name: str
    run: Callable[[Path], Any]
    check: Callable[[Path, Any], None]


@dataclass
class Workload:
    name: str
    inputs: dict
    ops: list
    grid_sizes: tuple


def draw(workload: str, seed: int) -> dict:
    """Seeded inputs of a workload, rounded to 4 decimals."""
    rng = random.Random(f"{workload}:{seed}")
    return {k: round(rng.uniform(lo, hi), 4) for k, (lo, hi) in RANGES[workload].items()}


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _csv(path: Path, header: list[str]) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
    _require(first == ",".join(header), f"{path.name}: header {first!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(data.shape[1] == len(header), f"{path.name}: {data.shape[1]} columns")
    _require(np.all(np.isfinite(data)), f"{path.name}: non-finite values")
    return data


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _fmt(x: float) -> str:
    return repr(float(x))


def cli_op(name: str, argv: list[str], check: Callable[[Path, CliResult], None]) -> Op:
    """A subcommand run through ``cli.main``; a nonzero exit code fails it."""

    def run(out: Path) -> CliResult:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([*argv, "--out", str(out)])
        return CliResult(code, buf.getvalue())

    def checked(out: Path, result: CliResult) -> None:
        _require(result.code == 0, f"exit code {result.code}")
        check(out, result)

    return Op(name, run, checked)


# -- checks -------------------------------------------------------------------

def check_dmap(regime: str):
    def check(out: Path, result) -> None:
        data = _csv(out / "d2.csv", ["omega", "d2", "sign"])
        _require(len(data) == STEPS - 1, f"d2.csv has {len(data)} rows")
        d2 = data[:, 1]
        if regime == "positive":
            _require(np.all(d2 > 0), "d'' not positive on the whole branch")
        elif regime == "negative":
            _require(np.all(d2 < 0), "d'' not negative on the whole branch")
        else:
            signs = np.sign(d2)
            changes = int(np.sum(np.diff(signs) != 0))
            _require(changes == 1 and signs[0] < 0 < signs[-1],
                     f"expected one - to + change of d'', got {changes}")
    return check


def check_branch(steps: int):
    def check(out: Path, result) -> None:
        data = _csv(out / "branch.csv", ["omega", "mass", "converged"])
        _require(len(data) == steps, f"branch.csv has {len(data)} rows")
        _require(np.all(data[:, 2] == 1.0), "branch point not converged")
        _require(np.all(np.diff(data[:, 0]) > 0), "omegas not increasing")
        _require(np.all(np.diff(data[:, 1]) > 0), "mass not increasing (d'' > 0 expected)")
    return check


def check_alpha0(out: Path, value) -> None:
    lo, hi = ALPHA0_WINDOW
    _require(value is not None and lo <= value <= hi, f"alpha0 = {value} outside [{lo}, {hi}]")


def check_omega_c(out: Path, value) -> None:
    _require(value is not None and OMEGA_MIN < value < OMEGA_MAX,
             f"omega_c = {value} not inside ({OMEGA_MIN}, {OMEGA_MAX})")


def check_verify(out: Path, result: CliResult) -> None:
    match = re.search(r"Linf_distance=(\S+)", result.stdout)
    _require(match is not None, "no Linf_distance in the output")
    _require(float(match.group(1)) <= LINF_EXACT, f"Linf distance {match.group(1)}")
    hist = _csv(out / "convergence.csv", ["iteration", "error", "stab", "res"])
    _require(np.array_equal(hist[:, 0], np.arange(1, len(hist) + 1)), "iteration column")
    error, stab, res = hist[-1, 1:]
    _require(error <= TOL_ERROR and stab <= TOL_STAB and res <= TOL_RES,
             f"final error {error:.1e}, |1-M| {stab:.1e}, res {res:.1e}")


def check_solve(alpha: float, omega: float):
    def check(out: Path, result) -> None:
        diag = _json(out / "diagnostics.json")
        _require(diag["converged"] is True, "diagnostics: not converged")
        _require(diag["res_history"][-1] <= TOL_RES, "diagnostics: final residual")
        data = _csv(out / "profile.csv", ["x", "phi"])
        _require(data.shape == (GRID_N, 2), f"profile.csv shape {data.shape}")
        grid = SpectralGrid(GRID_N, HALF_WIDTH)
        _require(np.array_equal(data[:, 0], grid.nodes), "x column is not the grid")
        phi = data[:, 1]
        _require(int(np.argmax(phi)) == GRID_N // 2 and phi.max() > 0, "peak not at x = 0")
        mirrored = np.roll(phi[::-1], 1)  # phi(-x) on the periodic grid
        _require(np.max(np.abs(phi - mirrored)) <= 1e-12 * phi.max(), "profile not even")
        linear = grid.apply_symbol(phi, lambda xi: xi**4 + xi**2 + omega)
        res = np.max(np.abs(linear - np.sign(phi) * np.abs(phi) ** (alpha + 1)))
        _require(res <= PROFILE_RESIDUAL, f"profile residual {res:.1e}")
    return check


def check_region(alpha_stable: float, alpha_unstable: float, cells: int):
    def check(out: Path, result) -> None:
        data = _csv(out / "region.csv", ["alpha", "omega", "sign"])
        _require(len(data) == cells, f"region.csv has {len(data)} rows")
        for alpha, expected in ((alpha_stable, 1.0), (alpha_unstable, -1.0)):
            rows = data[np.isclose(data[:, 0], alpha)]
            _require(len(rows) == cells // 2, f"alpha = {alpha}: {len(rows)} rows")
            _require(np.all(rows[:, 2] == expected), f"alpha = {alpha}: sign != {expected:+g}")
    return check


def check_spectrum(out: Path, result) -> None:
    rep = _json(out / "spectrum.json")
    counts = tuple(rep[k] for k in ("n_minus", "z_minus", "n_plus", "z_plus",
                                   "n_composite", "z_composite"))
    _require(counts == (1, 1, 0, 1, 1, 2), f"n/z counts {counts}")
    for key in ("smallest_minus", "smallest_plus"):
        vals = np.asarray(rep[key])
        _require(vals.size > 0 and np.all(np.diff(vals) >= 0), f"{key} not ascending")
    _require(rep["smallest_minus"][0] < 0, "no negative eigenvalue of L-")


def check_chi(sign: int):
    def check(out: Path, value) -> None:
        _require(np.isfinite(value) and np.sign(value) == sign,
                 f"<chi, phi> = {value}, expected sign {sign:+d}")
    return check


def _check_drifts(energy_drift: float, mass_drift: float) -> None:
    _require(energy_drift <= ENERGY_DRIFT, f"energy drift {energy_drift:.1e}")
    _require(mass_drift <= MASS_DRIFT, f"mass drift {mass_drift:.1e}")


def check_evolve(samples: int, stable: bool):
    def check(out: Path, result) -> None:
        audit = _json(out / "audit.json")
        _require(audit["blew_up"] is False, "blew up")
        _check_drifts(audit["energy_drift"], audit["mass_drift"])
        data = _csv(out / "evolution.csv", ["t", "energy", "mass", "orbital_distance"])
        _require(len(data) == samples + 1, f"evolution.csv has {len(data)} rows")
        dist = data[:, 3]
        if stable:
            # criterion 10's bound for the largest drawn delta, 0.01
            grid = SpectralGrid(GRID_N, HALF_WIDTH)
            bound = 5 * 0.01 * grid.norm(phi_exact(2.0, grid).values, "H2")
            _require(dist.max() <= bound, f"distance {dist.max():.3g} > {bound:.3g}")
        else:
            growth = dist[-1] / dist[0]
            _require(growth >= UNSTABLE_GROWTH, f"distance grew only {growth:.2f}x")
    return check


def check_audit(out: Path, value) -> None:
    _check_drifts(value["energy_drift"], value["mass_drift"])
    _require(len(value["energies"]) == value["samples"] + 1, "missing checkpoints")


# -- workloads ----------------------------------------------------------------

def _branch_ops(x: dict) -> list[Op]:
    ops = [
        cli_op(f"dmap-{regime}", ["dmap", "--alpha", _fmt(x[key])], check_dmap(regime))
        for regime, key in (("positive", "alpha_pos"), ("change", "alpha_change"),
                            ("negative", "alpha_neg"))
    ]
    ops.append(cli_op("branch", ["branch", "--alpha", _fmt(x["alpha_branch"])],
                      check_branch(STEPS)))
    # criterion 9's pure fourth-order branch
    ops.append(cli_op(
        "branch-beta0",
        ["branch", "--alpha", _fmt(x["alpha_beta0"]), "--beta", "0",
         "--omega-min", "0.05", "--steps", "8"],
        check_branch(8),
    ))
    return ops


def _threshold_ops(x: dict, grid: SpectralGrid) -> list[Op]:
    ops = [
        Op("find_alpha0", lambda out: stability.find_alpha0((4.0, 5.5), grid), check_alpha0),
        Op("find_omega_c",
           lambda out: stability.find_omega_c(x["alpha_omega_c"], (OMEGA_MIN, OMEGA_MAX), grid),
           check_omega_c),
    ]
    ops += [cli_op(f"verify-exact-{a}", ["verify-exact", "--alpha", a], check_verify)
            for a in ("1", "2", "4")]
    for k in ("solve1", "solve2"):
        alpha, omega = x[f"{k}_alpha"], x[f"{k}_omega"]
        ops.append(cli_op(k, ["solve", "--alpha", _fmt(alpha), "--omega", _fmt(omega)],
                          check_solve(alpha, omega)))
    ops.append(cli_op(
        "region",
        ["region", "--alpha-min", _fmt(x["region_alpha"]), "--alpha-max", "6",
         "--alpha-steps", "2", "--omega-min", "0.1", "--omega-max", "0.2",
         "--omega-steps", "4", "--jobs", "2"],
        check_region(x["region_alpha"], 6.0, 8),
    ))
    return ops


def _chi_stable(alpha: float, omega: float, grid: SpectralGrid) -> float:
    profile, diag = petviashvili_solve(alpha, omega, grid)
    if not diag.converged:
        raise CheckError("profile solve did not converge")
    return spectra.negative_direction_scalar(profile, alpha, omega)


def _spectrum_ops(x: dict, grid: SpectralGrid) -> list[Op]:
    ops = []
    for a in (1.0, 2.0, 4.0):
        omega0 = explicit_params(a).omega0
        ops.append(cli_op(f"spectrum-2048-a{a:g}",
                          ["spectrum", "--alpha", _fmt(a), "--omega", _fmt(omega0),
                           "--grid-n", "2048"], check_spectrum))
    ops.append(cli_op("spectrum-4096",
                      ["spectrum", "--alpha", _fmt(x["alpha"]), "--omega", _fmt(x["omega"]),
                       "--grid-n", "4096"], check_spectrum))
    omega6 = explicit_params(6.0).omega0
    ops.append(Op("chi-stable",
                  lambda out: _chi_stable(x["chi_alpha"], x["chi_omega"], grid),
                  check_chi(-1)))
    ops.append(Op("chi-unstable",
                  lambda out: spectra.negative_direction_scalar(phi_exact(6.0, grid), 6.0, omega6),
                  check_chi(+1)))
    return ops


def _audit(grid: SpectralGrid, t_final: float, samples: int) -> dict:
    profile, diag = petviashvili_solve(2.0, 0.16, grid)
    if not diag.converged:
        raise CheckError("profile solve did not converge")
    field = ComplexField(grid, profile.values.astype(complex))
    audit = evolve.conservation_audit(field, 2.0, DT, t_final, n_samples=samples)
    drift_e, drift_f = audit.relative_drifts
    return {"energy_drift": drift_e, "mass_drift": drift_f, "samples": samples,
            "energies": audit.energies.tolist(), "masses": audit.masses.tolist()}


def _evolve_ops(x: dict, grid: SpectralGrid) -> list[Op]:
    # one checkpoint per 100 steps
    stable = ["evolve", "--alpha", "2", "--omega", "0.16", "--delta", _fmt(x["delta"]),
              "--dt", _fmt(DT), "--t-final", "2", "--samples", "20"]
    unstable = ["evolve", "--alpha", "6", "--omega", _fmt(explicit_params(6.0).omega0),
                "--delta", "0.01", "--dt", _fmt(DT), "--t-final", "3", "--samples", "30"]
    return [
        cli_op("evolve-stable", stable, check_evolve(20, stable=True)),
        cli_op("evolve-unstable", unstable, check_evolve(30, stable=False)),
        Op("conservation-audit", lambda out: _audit(grid, 2.0, 20), check_audit),
    ]


def build(name: str, seed: int) -> Workload:
    """Draw the inputs, build the grids and the operation list of a workload."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    x = draw(name, seed)
    grid = SpectralGrid(GRID_N, HALF_WIDTH)
    if name == "branch":
        ops, sizes = _branch_ops(x), (GRID_N,)
    elif name == "thresholds":
        ops, sizes = _threshold_ops(x, grid), (GRID_N,)
    elif name == "spectrum":
        ops, sizes = _spectrum_ops(x, grid), (2048, 4096, GRID_N)
    else:
        ops, sizes = _evolve_ops(x, grid), (GRID_N,)
    return Workload(name, x, ops, sizes)


_REFERENCE_INPUT = np.exp(-np.linspace(-20.0, 20.0, GRID_N) ** 2) + 0j
# bound now, so that the traced run's counting wrappers never see the kernel
_FFT, _IFFT = np.fft.fft, np.fft.ifft


def reference_kernel() -> float:
    """Seconds taken by a fixed, program-independent loop of 100 FFT pairs at
    N = 8192.

    It samples how fast the host runs single-threaded numpy at this moment;
    nothing in solitonlab changes its cost.
    """
    t0 = time.perf_counter()
    for _ in range(100):
        _IFFT(_FFT(_REFERENCE_INPUT))
    return time.perf_counter() - t0


def warm_up(workload: Workload) -> None:
    """Untimed first FFTs at every grid size and a first BLAS eigensolve."""
    for n in workload.grid_sizes:
        np.fft.ifft(np.fft.fft(np.ones(n)))
    m = np.random.default_rng(0).standard_normal((256, 256))
    scipy.linalg.eigh(m + m.T, subset_by_index=(0, 7))

"""Command-line entry point.

Subcommands: solve, verify-exact, spectrum, branch, dmap, region, evolve.
Outputs are deterministic CSV/JSON files written to --out (or the
SOLITONLAB_OUT environment variable).  Exit codes: 0 success, 1 usage error,
2 numerical non-convergence, 3 internal numeric failure.

A process that calls ``main`` more than once pays for its numerics alone: the
parser is built once per process, on the first call, and ``profile.csv``'s
node column is formatted once per grid: grids of one shape are equal, so each
call's fresh grid finds an earlier call's template.  It is kept for the last
PROFILE_SHAPES = 4 grids, at most about 340 kB each at N = 8192 with its key
grid, so under 1.5 MB in all.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import evolve as evolve_mod
from . import spectra, stability
from .errors import (
    BranchError,
    DeflationSolveError,
    DegenerateInputError,
    DivergenceError,
    ParameterError,
)
from .explicit import explicit_params, phi_exact
from .grid import SpectralGrid, lattice
from .petviashvili import SolverConfig, petviashvili_solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_NUMERIC = 3

FLOAT_FMT = "%.17g"
PROFILE_SHAPES = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default; the CLI contract reserves 2 for
    # non-convergence, so flag-level problems are rerouted through code 1
    def error(self, message):
        raise UsageError(message)


def _write(path: Path, *parts: str) -> None:
    """Write the parts to path in turn; an OSError there is a UsageError."""
    try:
        with open(path, "w") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    table = np.column_stack(columns)
    row = ",".join([FLOAT_FMT] * len(columns)) + "\n"
    _write(path, ",".join(header) + "\n", (row * len(table)) % tuple(table.ravel().tolist()))


@functools.lru_cache(maxsize=PROFILE_SHAPES)
def _profile_rows(grid: SpectralGrid) -> str:
    """The rows of profile.csv on grid, the x column formatted and the phi
    column a FLOAT_FMT placeholder: ``_write_csv``'s bytes, once filled in."""
    row = FLOAT_FMT + "," + FLOAT_FMT.replace("%", "%%") + "\n"
    return (row * grid.n_points) % tuple(grid.nodes.tolist())


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True), "\n")


def _diag_payload(diag) -> dict:
    return {
        "iterations": diag.iterations,
        "converged": bool(diag.converged),
        "error_history": [float(v) for v in diag.error_history],
        "stab_history": [float(v) for v in diag.stab_history],
        "res_history": [float(v) for v in diag.res_history],
    }


def cmd_solve(args, grid, config, out) -> int:
    profile, diag = petviashvili_solve(args.alpha, args.omega, grid, config)
    rows = _profile_rows(grid)
    _write(out / "profile.csv", "x,phi\n", rows % tuple(profile.values.tolist()))
    _write_json(out / "diagnostics.json", _diag_payload(diag))
    return EXIT_OK if diag.converged else EXIT_NO_CONVERGENCE


def cmd_verify_exact(args, grid, config, out) -> int:
    if args.beta != 1.0:
        raise UsageError(f"the closed-form wave has beta = 1, got --beta {args.beta:g}")
    omega0 = explicit_params(args.alpha).omega0
    profile, diag = petviashvili_solve(args.alpha, omega0, grid, config)
    exact = phi_exact(args.alpha, grid)
    distance = float(np.max(np.abs(profile.values - exact.values)))
    iters = np.arange(1, diag.iterations + 1, dtype=float)
    _write_csv(
        out / "convergence.csv",
        ["iteration", "error", "stab", "res"],
        [iters, diag.error_history, diag.stab_history, diag.res_history],
    )
    print(f"alpha={args.alpha:g} omega0={omega0:.12g} Linf_distance={distance:.3e}")
    return EXIT_OK if diag.converged and distance <= 1e-9 else EXIT_NO_CONVERGENCE


def _converged_wave(args, grid, config):
    """The wave at (--alpha, --omega); BranchError where its solve does not converge."""
    profile, diag = petviashvili_solve(args.alpha, args.omega, grid, config)
    if not diag.converged:
        raise BranchError(f"solve at omega={args.omega:g} did not converge"
                          f" in {diag.iterations} iterations")
    return profile


def cmd_spectrum(args, grid, config, out) -> int:
    profile = _converged_wave(args, grid, config)
    rep = {}
    for which, key in (("Lminus", "minus"), ("Lplus", "plus")):
        op = spectra.build_operator(profile, args.alpha, args.omega, which, args.beta)
        rep[key] = spectra.eigen_report(op)
    n_comp, z_comp = spectra.composite_counts(rep["minus"], rep["plus"])
    payload = {
        "alpha": args.alpha,
        "omega": args.omega,
        "n_minus": rep["minus"].n_negative,
        "z_minus": rep["minus"].n_zero,
        "n_plus": rep["plus"].n_negative,
        "z_plus": rep["plus"].n_zero,
        "n_composite": n_comp,
        "z_composite": z_comp,
        "ground_state_single_signed": spectra.ground_state_positivity(rep["minus"]),
        "smallest_minus": [float(v) for v in rep["minus"].eigenvalues[:6]],
        "smallest_plus": [float(v) for v in rep["plus"].eigenvalues[:6]],
    }
    _write_json(out / "spectrum.json", payload)
    return EXIT_OK


def cmd_branch(args, grid, config, out) -> int:
    branch = stability.continue_branch(
        args.alpha, args.omega_min, args.omega_max, args.steps, grid, config
    )
    _write_csv(
        out / "branch.csv",
        ["omega", "mass", "converged"],
        [branch.omegas, branch.masses, branch.converged_flags.astype(float)],
    )
    return EXIT_OK if branch.converged_flags.all() else EXIT_NO_CONVERGENCE


def cmd_dmap(args, grid, config, out) -> int:
    branch = stability.continue_branch(
        args.alpha, args.omega_min, args.omega_max, args.steps, grid, config
    )
    _write_csv(out / "d2.csv", ["omega", "d2", "sign"], stability.d_second(branch).T)
    return EXIT_OK if branch.converged_flags.all() else EXIT_NO_CONVERGENCE


def cmd_region(args, grid, config, out) -> int:
    if not np.isfinite([args.alpha_min, args.alpha_max, args.omega_min, args.omega_max]).all():
        raise UsageError("the lattice's ends must be finite")
    alphas = lattice(args.alpha_min, args.alpha_max, args.alpha_steps, "--alpha-steps")
    omegas = lattice(args.omega_min, args.omega_max, args.omega_steps, "--omega-steps")
    result = stability.region_scan(alphas, omegas, grid, config, jobs=args.jobs)
    # alpha-major rows, one per lattice cell
    _write_csv(
        out / "region.csv",
        ["alpha", "omega", "sign"],
        [np.repeat(alphas, omegas.size), np.tile(omegas, alphas.size), result.sign_matrix.ravel()],
    )
    return EXIT_OK


def cmd_evolve(args, grid, config, out) -> int:
    # every input is checked before the wave is solved
    evolve_mod.check_run(args.dt, args.t_final, args.samples)
    if not np.isfinite(args.delta):
        raise UsageError(f"--delta must be finite, got {args.delta:g}")
    profile = _converged_wave(args, grid, config)
    traj = evolve_mod.perturbed_run(profile, args.alpha, args.delta, args.dt, args.t_final,
                                    args.samples, args.beta)
    blew_up = traj.blow_up_time is not None
    if blew_up:
        _write_json(out / "error.json", {"error": "blow-up", "time": traj.blow_up_time})
    _write_csv(out / "evolution.csv", ["t", *traj.series], [traj.times, *traj.series.values()])
    _write_json(out / "audit.json", {
        "energy_drift": traj.drift("energy"), "mass_drift": traj.drift("mass"), "blew_up": blew_up,
    })
    return EXIT_NUMERIC if blew_up else EXIT_OK


def _common(grid_n: int) -> argparse.ArgumentParser:
    """The flags of every subcommand, as a parent parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid-n", type=int, default=grid_n, help="number of grid points")
    common.add_argument("--grid-l", type=float, default=200.0, help="domain half-width")
    common.add_argument("--max-iter", type=int, default=2000,
                        help="iterations of each stage of a wave's solve (coarse, then"
                             " requested grid)")
    common.add_argument("--beta", type=float, default=1.0,
                        help="coefficient of -d2/dx2 (0 selects the pure fourth-order model)")
    common.add_argument("--out", default=None,
                        help="output directory (default: $SOLITONLAB_OUT or .)")
    return common


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and then kept: parse_args
    leaves it as it was."""
    alpha, omega, span = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    alpha.add_argument("--alpha", type=float, required=True)
    omega.add_argument("--omega", type=float, required=True)
    span.add_argument("--omega-min", type=float, default=0.02)
    span.add_argument("--omega-max", type=float, default=0.25)
    common = _common(8192)
    parser = _Parser(prog="solitonlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func)
        return p

    command("solve", cmd_solve, "compute a solitary profile", [alpha, omega, common])
    command("verify-exact", cmd_verify_exact, "compare the solver with the closed-form wave",
            [alpha, common])
    command("spectrum", cmd_spectrum, "eigenvalue counts of the linearized operators",
            [alpha, omega, _common(2048)])
    for name, func, help in (("branch", cmd_branch, "continue the solitary branch in omega"),
                             ("dmap", cmd_dmap, "d''(omega) along a branch")):
        p = command(name, func, help, [alpha, span, common])
        p.add_argument("--steps", type=int, default=24)

    p = command("region", cmd_region, "sign of d'' on an (alpha, omega) lattice", [span, common])
    p.add_argument("--alpha-min", type=float, default=1.0)
    p.add_argument("--alpha-max", type=float, default=7.0)
    p.add_argument("--alpha-steps", type=int, default=25)
    p.add_argument("--omega-steps", type=int, default=24)
    p.add_argument("--jobs", type=int, default=1,
                   help="processes that scan the alpha rows, this one included"
                        " (at most one per row and one per usable CPU)")

    p = command("evolve", cmd_evolve, "split-step evolution of a perturbed wave",
                [alpha, omega, common])
    p.add_argument("--delta", type=float, default=0.0, help="relative amplitude perturbation")
    p.add_argument("--t-final", type=float, default=20.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--samples", type=int, default=100)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        grid = SpectralGrid(n_points=args.grid_n, half_width=args.grid_l)
        config = SolverConfig(max_iter=args.max_iter, dispersion_beta=args.beta)
        out = Path(args.out or os.environ.get("SOLITONLAB_OUT") or ".")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create output directory {out}: {exc.strerror}") from exc
        return args.func(args, grid, config, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParameterError, DegenerateInputError) as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BranchError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (DivergenceError, DeflationSolveError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

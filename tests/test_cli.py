"""End-to-end tests of the command-line interface and its exit codes."""

import argparse
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab import cli, evolve, stability
from solitonlab.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from solitonlab.errors import DegenerateInputError, ParameterError
from solitonlab.explicit import explicit_params

FAST = ["--grid-n", "1024", "--grid-l", "100"]


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


@pytest.fixture
def solves(monkeypatch):
    """The (alpha, omega) of every wave the CLI solves."""
    calls = []
    solve = cli.petviashvili_solve

    def spy(alpha, omega, *args, **kwargs):
        calls.append((alpha, omega))
        return solve(alpha, omega, *args, **kwargs)

    monkeypatch.setattr(cli, "petviashvili_solve", spy)
    return calls


REQUIRED = "required"
COMMON = {"--grid-n": (int, 8192), "--grid-l": (float, 200.0), "--max-iter": (int, 2000),
          "--beta": (float, 1.0), "--out": (None, None)}
ALPHA, OMEGA = {"--alpha": (float, REQUIRED)}, {"--omega": (float, REQUIRED)}
SPAN = {"--omega-min": (float, 0.02), "--omega-max": (float, 0.25)}
# every subcommand's options as (type, default)
PARSER = {
    "solve": {**ALPHA, **OMEGA, **COMMON},
    "verify-exact": {**ALPHA, **COMMON},
    "spectrum": {**ALPHA, **OMEGA, **COMMON, "--grid-n": (int, 2048)},
    "branch": {**ALPHA, **SPAN, "--steps": (int, 24), **COMMON},
    "dmap": {**ALPHA, **SPAN, "--steps": (int, 24), **COMMON},
    "region": {"--alpha-min": (float, 1.0), "--alpha-max": (float, 7.0),
               "--alpha-steps": (int, 25), **SPAN, "--omega-steps": (int, 24),
               "--jobs": (int, 1), **COMMON},
    "evolve": {**ALPHA, **OMEGA, "--delta": (float, 0.0), "--t-final": (float, 20.0),
               "--dt": (float, 1e-3), "--samples": (int, 100), **COMMON},
}


def test_parser_options_and_defaults():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {a.option_strings[-1]: (a.type, REQUIRED if a.required else a.default)
               for a in sub._actions if a.option_strings and a.dest != "help"}
        for name, sub in commands.choices.items()
    }
    assert found == PARSER


def test_solve_writes_profile(tmp_path):
    code = main(["solve", "--alpha", "2", "--omega", "0.16",
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_OK
    data = read_csv(tmp_path / "profile.csv")
    assert data["x"].size == 1024
    assert np.max(data["phi"]) == pytest.approx(np.sqrt(0.3), abs=1e-4)
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["converged"] is True
    assert len(diag["error_history"]) == diag["iterations"]
    assert "seed" not in diag


def test_solve_negative_omega_is_usage_error(tmp_path):
    code = main(["solve", "--alpha", "2", "--omega", "-1",
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_USAGE


def test_unknown_flag_is_usage_error(tmp_path):
    # --seed is gone: nothing in solitonlab is random
    for flag in (["--bogus", "1"], ["--seed", "0"]):
        assert main(["solve", "--alpha", "2", "--omega", "0.16",
                     "--out", str(tmp_path)] + FAST + flag) == EXIT_USAGE
    assert not any(tmp_path.iterdir())


def test_missing_command_is_usage_error():
    assert main([]) == EXIT_USAGE


def test_solve_sign_changing_tails(tmp_path):
    code = main(["solve", "--alpha", "3", "--omega", "1",
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_OK
    data = read_csv(tmp_path / "profile.csv")
    assert np.min(data["phi"]) < 0


def test_solve_non_convergence_exit_code(tmp_path):
    code = main(["solve", "--alpha", "2", "--omega", "0.16",
                 "--max-iter", "3", "--out", str(tmp_path)] + FAST)
    assert code == EXIT_NO_CONVERGENCE
    # diagnostics are still written for inspection
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["converged"] is False


@pytest.mark.parametrize("command", [["spectrum"], ["evolve", "--t-final", "0.01"]],
                         ids=["spectrum", "evolve"])
def test_wave_non_convergence_is_one_line_and_no_file(tmp_path, capsys, command):
    # spectrum and evolve need the wave itself: they stop at its solve
    code = main([*command, "--alpha", "2", "--omega", "0.16", "--max-iter", "3",
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err == "non-convergence: solve at omega=0.16 did not converge in 3 iterations\n"
    assert list(tmp_path.iterdir()) == []


def test_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["solve", "--alpha", "2", "--omega", "0.16",
                     "--out", str(out)] + FAST) == EXIT_OK
    assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()


def _per_row_csv(path, header, columns):
    """The CSV writer as a loop over rows, one join per row."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(cli.FLOAT_FMT % v for v in row) + "\n")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n_columns=st.integers(1, 4), n_rows=st.integers(0, 40), data=st.data())
def test_csv_writer_matches_per_row_writer(tmp_path_factory, n_columns, n_rows, data):
    # any float, NaN (a failed region cell) and infinities included
    values = st.floats(allow_nan=True, allow_infinity=True, width=64) | st.sampled_from(
        [np.nan, -0.0, 5e-324, 0.1, 1.0, -1.0])
    columns = [np.array(data.draw(st.lists(values, min_size=n_rows, max_size=n_rows)), dtype=float)
               for _ in range(n_columns)]
    header = [f"c{i}" for i in range(n_columns)]
    out = tmp_path_factory.mktemp("csv")
    cli._write_csv(out / "table.csv", header, columns)
    _per_row_csv(out / "rows.csv", header, columns)
    assert (out / "table.csv").read_bytes() == (out / "rows.csv").read_bytes()


def test_verify_exact(tmp_path, capsys):
    code = main(["verify-exact", "--alpha", "2", "--grid-n", "2048",
                 "--grid-l", "100", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "convergence.csv").exists()
    captured = capsys.readouterr()
    assert "Linf_distance" in captured.out


def test_verify_exact_refuses_beta_other_than_one(tmp_path, capsys, solves):
    # the closed-form wave solves the beta = 1 equation only
    code = main(["verify-exact", "--alpha", "2", "--beta", "0.5",
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)
    assert solves == []
    assert not any(tmp_path.iterdir())


def test_spectrum(tmp_path):
    code = main(["spectrum", "--alpha", "2", "--omega", "0.16",
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["n_minus"] == 1
    assert payload["z_minus"] == 1
    assert payload["n_plus"] == 0
    assert payload["z_plus"] == 1
    assert payload["n_composite"] == 1
    assert payload["z_composite"] == 2


def test_branch_and_dmap(tmp_path):
    code = main(["branch", "--alpha", "2", "--omega-min", "0.05",
                 "--omega-max", "0.2", "--steps", "6",
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_OK
    branch = read_csv(tmp_path / "branch.csv")
    assert branch["omega"].size == 6
    assert np.all(branch["converged"] == 1.0)

    code = main(["dmap", "--alpha", "2", "--omega-min", "0.05",
                 "--omega-max", "0.2", "--steps", "6",
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_OK
    dmap = read_csv(tmp_path / "d2.csv")
    assert np.all(dmap["sign"] == 1.0)


def test_region(tmp_path):
    code = main(["region", "--alpha-min", "2", "--alpha-max", "5.5",
                 "--alpha-steps", "2", "--omega-min", "0.08",
                 "--omega-max", "0.16", "--omega-steps", "3",
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_OK
    region = read_csv(tmp_path / "region.csv")
    assert region["alpha"].size == 6
    assert np.all(region["sign"][region["alpha"] == 2.0] == 1.0)
    assert np.all(region["sign"][region["alpha"] == 5.5] == -1.0)
    # alpha-major: one block of omegas per alpha
    np.testing.assert_array_equal(region["alpha"], np.repeat([2.0, 5.5], 3))
    np.testing.assert_array_equal(region["omega"], np.tile(np.linspace(0.08, 0.16, 3), 2))


def test_evolve(tmp_path):
    code = main(["evolve", "--alpha", "2", "--omega", "0.16",
                 "--delta", "0.01", "--t-final", "2", "--dt", "1e-3",
                 "--samples", "4", "--out", str(tmp_path)] + FAST)
    assert code == EXIT_OK
    data = read_csv(tmp_path / "evolution.csv")
    assert data["t"].size == 5
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert audit["energy_drift"] <= 1e-7
    assert audit["mass_drift"] <= 1e-10
    assert audit["blew_up"] is False


@pytest.mark.parametrize("alpha, omega, delta, t_final, samples", [
    ("2", "0.16", "0", "2", "20"),
    ("2", "0.16", "0.01", "2", "20"),
    ("6", repr(explicit_params(6.0).omega0), "0.01", "3", "30"),
])
def test_evolve_steps_on_the_half_path(tmp_path, alpha, omega, delta, t_final, samples):
    # the benchmark's evolutions on the default grid: every checkpoint starts
    # from an even field, so the whole field's propagator is never built
    evolve._propagator.cache_clear()
    code = main(["evolve", "--alpha", alpha, "--omega", omega, "--delta", delta,
                 "--t-final", t_final, "--dt", "1e-3", "--samples", samples,
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert evolve._propagator.cache_info().misses == 0


def test_evolve_blow_up(tmp_path, blow_up_on_third_interval):
    # 5 checkpoints of 200 steps; the 3rd interval blows up at t = 0.5
    code = main(["evolve", "--alpha", "2", "--omega", "0.16", "--t-final", "1",
                 "--samples", "5", "--out", str(tmp_path)] + FAST)
    assert code == EXIT_NUMERIC
    error = json.loads((tmp_path / "error.json").read_text())
    assert error["error"] == "blow-up"
    assert error["time"] == pytest.approx(0.5)
    data = read_csv(tmp_path / "evolution.csv")
    np.testing.assert_allclose(data["t"], [0.0, 0.2, 0.4])
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert audit["blew_up"] is True
    assert audit["energy_drift"] <= 1e-7


def test_out_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("SOLITONLAB_OUT", str(tmp_path / "envdir"))
    code = main(["solve", "--alpha", "2", "--omega", "0.16"] + FAST)
    assert code == EXIT_OK
    assert (tmp_path / "envdir" / "profile.csv").exists()


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("half_width", ["inf", "nan", "-1"])
def test_unusable_grid_is_usage_error(tmp_path, capsys, half_width):
    code = main(["solve", "--alpha", "2", "--omega", "0.16", "--grid-n", "1024",
                 "--grid-l", half_width, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("dt", ["0", "-1e-3"])
def test_evolve_nonpositive_dt_is_usage_error(tmp_path, capsys, solves, dt):
    code = main(["evolve", "--alpha", "2", "--omega", "0.16", "--dt", dt,
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)
    assert solves == []  # refused before the wave is solved


@pytest.mark.parametrize(
    "flags", [["--t-final", "-1"], ["--samples", "0"], ["--samples", "-2"],
              ["--t-final", "inf"], ["--delta", "nan"], ["--dt", "inf"],
              # t_final / dt steps: 1e300 overflows int64, 5e-324 makes it inf
              ["--dt", "1e-300", "--t-final", "1"], ["--dt", "5e-324", "--t-final", "1"]],
    ids=["negative-t-final", "zero-samples", "negative-samples", "inf-t-final", "nan-delta",
         "inf-dt", "tiny-dt", "subnormal-dt"])
def test_evolve_bad_length_is_usage_error(tmp_path, capsys, solves, flags):
    code = main(["evolve", "--alpha", "2", "--omega", "0.16", *flags,
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)
    assert not (tmp_path / "evolution.csv").exists()
    assert solves == []  # refused before the wave is solved


@pytest.mark.parametrize("samples", [str(10**20), str(2**63)], ids=["1e20", "2^63"])
def test_evolve_more_samples_than_steps_checkpoints_every_step(tmp_path, samples):
    # checkpoints are whole steps, so past the 2 steps to t = 0.002 a larger
    # count adds none, and numpy is not asked for that many
    written = []
    for count in ("2", samples):
        out = tmp_path / count
        code = main(["evolve", "--alpha", "2", "--omega", "0.16", "--t-final", "0.002",
                     "--samples", count, "--out", str(out)] + FAST)
        assert code == EXIT_OK
        written.append((out / "evolution.csv").read_bytes())
    assert written[0] == written[1]


def test_evolve_more_checkpoints_than_memory_holds_is_usage_error(tmp_path, capsys, solves):
    # 1e15 whole steps and as many checkpoints, whose 8e15 bytes numpy cannot
    # allocate: refused before the wave is solved
    code = main(["evolve", "--alpha", "2", "--omega", "0.16", "--t-final", "1e6", "--dt", "1e-9",
                 "--samples", str(10**15), "--out", str(tmp_path)] + FAST)
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)
    assert not (tmp_path / "evolution.csv").exists()
    assert solves == []


@pytest.mark.parametrize(
    "flags", [["--alpha", "6", "--omega", "0.5", "--delta", "3e51", "--grid-n", "2048",
               "--grid-l", "100"],
              ["--alpha", "2", "--omega", "0.16", "--delta", "1e160", *FAST],
              ["--alpha", "2", "--omega", "0.16", "--delta", "-1", *FAST]],
    ids=["energy-overflow", "mass-overflow", "zero-field"])
def test_evolve_unusable_initial_field_is_usage_error(tmp_path, capsys, flags):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["evolve", *flags, "--t-final", "0.01", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)
    assert not (tmp_path / "evolution.csv").exists()
    assert not (tmp_path / "audit.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_region_nonpositive_jobs_is_usage_error(tmp_path, capsys, jobs):
    code = main(["region", "--alpha-steps", "2", "--omega-steps", "2", "--jobs", jobs,
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)
    assert not (tmp_path / "region.csv").exists()


@pytest.mark.parametrize("flag, steps", [("--omega-steps", "-1"), ("--alpha-steps", "-2"),
                                         ("--omega-steps", "0")])
def test_region_nonpositive_steps_is_usage_error(tmp_path, capsys, flag, steps):
    # the later flag wins
    code = main(["region", "--alpha-steps", "2", "--omega-steps", "2", flag, steps,
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)
    assert not (tmp_path / "region.csv").exists()


def test_unusable_out_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["solve", "--alpha", "2", "--omega", "0.16", "--out", str(blocker / "sub")] + FAST)
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)


def test_dmap_with_one_converged_point_is_non_convergence(tmp_path, capsys, monkeypatch):
    # the same exit code as branch on the same inputs; each point's last
    # solve, on the requested grid, gives its verdict
    solve, calls = stability.petviashvili_solve, []

    def second_fails(alpha, omega, grid=None, config=None):
        profile, diag = solve(alpha, omega, grid, config)
        if grid.n_points == int(FAST[1]):
            calls.append(omega)
            diag.converged = len(calls) != 2
        return profile, diag

    monkeypatch.setattr(stability, "petviashvili_solve", second_fails)
    for command in ("branch", "dmap"):
        calls.clear()
        code = main([command, "--alpha", "2", "--omega-min", "0.05", "--omega-max", "0.2",
                     "--steps", "6", "--out", str(tmp_path)] + FAST)
        assert code == EXIT_NO_CONVERGENCE
        assert len(calls) == 2
    assert _one_line_error(capsys)
    assert not (tmp_path / "d2.csv").exists()


def test_region_single_omega_lattice(tmp_path):
    # each cell has its own d'', so one omega is a lattice; its cells agree
    # with the matching cells of a two-omega lattice
    signs = []
    for steps in ("1", "2"):
        out = tmp_path / steps
        code = main(["region", "--alpha-min", "2", "--alpha-max", "5.5", "--alpha-steps", "2",
                     "--omega-min", "0.08", "--omega-max", "0.16", "--omega-steps", steps,
                     "--out", str(out)] + FAST)
        assert code == EXIT_OK
        region = read_csv(out / "region.csv")
        at_min = region["omega"] == 0.08
        np.testing.assert_array_equal(region["alpha"][at_min], [2.0, 5.5])
        signs.append(region["sign"][at_min])
    assert region["alpha"].size == 4
    np.testing.assert_array_equal(signs[0], [1.0, -1.0])
    np.testing.assert_array_equal(signs[0], signs[1])


@pytest.mark.parametrize("error", [DegenerateInputError, ParameterError])
def test_value_errors_are_usage_errors(tmp_path, capsys, monkeypatch, error):
    def raising(*args, **kwargs):
        raise error("bad input")

    monkeypatch.setattr(cli, "petviashvili_solve", raising)
    code = main(["solve", "--alpha", "2", "--omega", "0.16",
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)


@pytest.mark.parametrize("command", [
    # sqrt(omega) * L = 1 on the L = 100 domain: the wave is as wide as the domain
    ["solve", "--alpha", "2", "--omega", "1e-4"],
    ["verify-exact", "--alpha", "2", "--grid-l", "20"],
    ["spectrum", "--alpha", "2", "--omega", "1e-4"],
    ["evolve", "--alpha", "2", "--omega", "1e-4", "--t-final", "0.01"],
    ["branch", "--alpha", "2", "--omega-min", "1e-4", "--steps", "4"],
    ["dmap", "--alpha", "2", "--omega-min", "1e-4", "--steps", "4"],
    ["region", "--alpha-steps", "2", "--omega-min", "1e-4", "--omega-steps", "2"],
], ids=lambda command: command[0])
def test_too_wide_wave_is_usage_error(tmp_path, capsys, command):
    code = main(command[:1] + ["--out", str(tmp_path)] + FAST + command[1:])
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)
    assert not any(tmp_path.iterdir())


def test_evolve_honours_beta(tmp_path):
    # the beta = 0 wave stays on its orbit only under the beta = 0 propagator
    code = main(["evolve", "--alpha", "2", "--omega", "0.16", "--beta", "0",
                 "--t-final", "5", "--samples", "5", "--out", str(tmp_path)] + FAST)
    assert code == EXIT_OK
    data = read_csv(tmp_path / "evolution.csv")
    assert np.max(data["orbital_distance"]) <= 1e-6


VALID = {
    "solve": ["--alpha", "2", "--omega", "0.16"],
    "verify-exact": ["--alpha", "2"],
    "spectrum": ["--alpha", "2", "--omega", "0.16"],
    "branch": ["--alpha", "2", "--steps", "4"],
    "dmap": ["--alpha", "2", "--steps", "4"],
    "region": ["--alpha-steps", "2", "--omega-steps", "2"],
    "evolve": ["--alpha", "2", "--omega", "0.16", "--t-final", "0.01"],
}


def _with(argv, flag, value):
    """argv with flag set to value, replaced where it is given and appended otherwise."""
    if flag not in argv:
        return [*argv, flag, value]
    i = argv.index(flag) + 1
    return [*argv[:i], value, *argv[i + 1:]]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in VALID for flag in PARSER[command]
    if flag in ("--beta", "--alpha", "--omega", "--alpha-min", "--alpha-max",
                "--omega-min", "--omega-max")])
def test_non_finite_parameter_is_usage_error(tmp_path, capsys, command, flag, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second line
        code = main([command, "--out", str(tmp_path)] + FAST + _with(VALID[command], flag, value))
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("steps", [str(10**20), str(2**63), str(2**59), str(2**62)],
                         ids=["1e20", "2^63", "2^59", "2^62"])
@pytest.mark.parametrize("command, flag", [("branch", "--steps"), ("dmap", "--steps"),
                                           ("region", "--alpha-steps"),
                                           ("region", "--omega-steps"),
                                           *((command, "--grid-n") for command in VALID)])
def test_huge_step_count_is_usage_error(tmp_path, capsys, command, flag, steps):
    # counts from 2**60 on are refused by their size, 10**20 is no power of two
    # for --grid-n, and numpy cannot allocate 2**59 floats (4.6e18 bytes), so
    # none of them allocates anything
    code = main([command, "--out", str(tmp_path)] + FAST + _with(VALID[command], flag, steps))
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)
    assert not any(tmp_path.iterdir())


# the solves at omega = 1e300 diverge: their stabilizing factor overflows
OVERFLOWING = ["--omega-min", "0.1", "--omega-max", "1e300"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_region_overflowing_solve_leaves_only_its_cell_nan(tmp_path, capsys, jobs):
    code = main(["region", "--alpha-min", "2", "--alpha-max", "3", "--alpha-steps", "2",
                 "--omega-steps", "2", *OVERFLOWING, "--jobs", jobs, "--out", str(tmp_path)]
                + FAST)
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    region = read_csv(tmp_path / "region.csv")
    np.testing.assert_array_equal(region["sign"][region["omega"] == 0.1], [1.0, 1.0])
    assert np.isnan(region["sign"][region["omega"] == 1e300]).all()


def test_branch_truncates_at_an_overflowing_solve(tmp_path, capsys):
    code = main(["branch", "--alpha", "2", "--steps", "3", *OVERFLOWING,
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == ""
    branch = read_csv(tmp_path / "branch.csv")
    np.testing.assert_array_equal(branch["omega"], [0.1, 5e299])
    np.testing.assert_array_equal(branch["converged"], [1.0, 0.0])
    assert branch["mass"][0] > 0 and np.isnan(branch["mass"][1])


def test_dmap_truncates_at_an_overflowing_solve(tmp_path, capsys):
    code = main(["dmap", "--alpha", "2", "--steps", "3", *OVERFLOWING,
                 "--out", str(tmp_path)] + FAST)
    assert code == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "branch truncated at omega=5e+299" in err
    assert not (tmp_path / "d2.csv").exists()


@pytest.mark.parametrize("command", [
    ["solve", "--alpha", "2", "--omega", "1e300"],
    ["solve", "--alpha", "1e300", "--omega", "0.16"],
    ["spectrum", "--alpha", "2", "--omega", "1e300"],
], ids=["solve-omega", "solve-alpha", "spectrum-omega"])
def test_overflowing_solve_is_one_line_numeric_failure(tmp_path, capsys, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second line
        code = main(command[:1] + ["--out", str(tmp_path)] + FAST + command[1:])
    assert code == EXIT_NUMERIC
    assert _one_line_error(capsys)
    assert not any(tmp_path.iterdir())

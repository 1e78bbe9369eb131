"""Each workload's checks accept the real output and reject a corrupted one.

The operations run for real (the cheapest one or two of each workload), so
this also shows that the checks read what the program writes today.
"""

import json

import numpy as np
import pytest

import workloads
from workloads import CheckError, WORKLOADS


def _op(workload, name, seed=0):
    ops = {op.name: op for op in workloads.build(workload, seed).ops}
    return ops[name]


def _run(op, tmp_path):
    out = tmp_path / op.name
    out.mkdir()
    result = op.run(out)
    op.check(out, result)  # the untouched output passes
    return out, result


def _edit_csv(path, row, col, func):
    header, *rows = path.read_text().splitlines()
    cells = rows[row].split(",")
    cells[col] = repr(func(float(cells[col])))
    rows[row] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n")


def _edit_json(path, **changes):
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_only_on_the_seed_and_stay_in_range(workload):
    a, b, c = (workloads.draw(workload, s) for s in (7, 7, 8))
    assert a == b and a != c
    for key, (lo, hi) in workloads.RANGES[workload].items():
        assert lo <= a[key] <= hi


def test_branch_check_rejects_a_corrupted_branch(tmp_path):
    op = _op("branch", "branch-beta0")
    out, result = _run(op, tmp_path)
    _edit_csv(out / "branch.csv", 3, 1, lambda m: m * 0.5)  # mass no longer increasing
    with pytest.raises(CheckError):
        op.check(out, result)


@pytest.mark.parametrize("regime, flip_row", [("positive", 5), ("negative", 5), ("change", 0)])
def test_dmap_check_rejects_a_flipped_sign(tmp_path, regime, flip_row):
    omegas = np.linspace(0.02, 0.25, 24)[:-1]
    d2 = {"positive": np.ones(23), "negative": -np.ones(23),
          "change": np.where(omegas < 0.1, -1.0, 1.0)}[regime]
    rows = "".join(f"{w!r},{v!r},{v!r}\n" for w, v in zip(omegas.tolist(), d2.tolist()))
    (tmp_path / "d2.csv").write_text("omega,d2,sign\n" + rows)
    check = workloads.check_dmap(regime)
    check(tmp_path, None)
    _edit_csv(tmp_path / "d2.csv", flip_row, 1, lambda v: -v)
    with pytest.raises(CheckError):
        check(tmp_path, None)


def test_thresholds_checks_reject_corrupted_outputs(tmp_path):
    op = _op("thresholds", "verify-exact-2")
    out, result = _run(op, tmp_path)
    bad = workloads.CliResult(0, result.stdout.replace("Linf_distance=", "Linf_distance=1e-3 "))
    with pytest.raises(CheckError):
        op.check(out, bad)
    with pytest.raises(CheckError):
        op.check(out, workloads.CliResult(2, result.stdout))
    _edit_csv(out / "convergence.csv", -1, 3, lambda r: 1e-6)  # final residual
    with pytest.raises(CheckError):
        op.check(out, result)

    op = _op("thresholds", "solve1")
    out, result = _run(op, tmp_path)
    _edit_csv(out / "profile.csv", 4096, 1, lambda v: v * (1 + 1e-6))
    with pytest.raises(CheckError):
        op.check(out, result)

    with pytest.raises(CheckError):
        workloads.check_alpha0(tmp_path, 4.5)
    with pytest.raises(CheckError):
        workloads.check_omega_c(tmp_path, None)


def test_spectrum_checks_reject_corrupted_outputs(tmp_path):
    op = _op("spectrum", "spectrum-2048-a2")
    out, result = _run(op, tmp_path)
    _edit_json(out / "spectrum.json", n_minus=2)
    with pytest.raises(CheckError):
        op.check(out, result)

    op = _op("spectrum", "chi-stable")
    out, value = _run(op, tmp_path)
    assert value < 0
    with pytest.raises(CheckError):
        op.check(out, -value)


def test_evolve_checks_reject_corrupted_outputs(tmp_path):
    op = _op("evolve", "evolve-stable")
    out, result = _run(op, tmp_path)
    _edit_json(out / "audit.json", energy_drift=1e-5)
    with pytest.raises(CheckError):
        op.check(out, result)
    _edit_json(out / "audit.json", energy_drift=0.0)
    op.check(out, result)
    _edit_csv(out / "evolution.csv", 10, 3, lambda d: 10.0)
    with pytest.raises(CheckError):
        op.check(out, result)

    audit = _op("evolve", "conservation-audit")
    out, value = _run(audit, tmp_path)
    with pytest.raises(CheckError):
        audit.check(out, dict(value, mass_drift=1e-8))

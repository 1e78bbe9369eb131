import json
from pathlib import Path

import pytest

import run
import summary
import workloads
from tracing import LAYER_METRICS

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, "50"), (39, "50"), (40, "75"), (99, "75"),
    (100, "90"), (199, "90"), (200, "95"), (999, "95"), (1000, "99"),
    (9999, "99"), (10000, "99.9"),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert summary.tail_percentile(n) == expected


def test_describe_reports_count_quartiles_and_tail():
    d = summary.describe(range(1, 41))
    assert (d["n"], d["median"], d["tail_p"]) == (40, 20.5, "75")
    assert d["q1"] < d["median"] < d["q3"] and d["median"] < d["tail"]
    assert sum(v > d["tail"] for v in range(1, 41)) >= 10
    one = summary.describe([2.5])
    assert (one["q1"], one["median"], one["q3"]) == (2.5, 2.5, 2.5)
    assert "tail" not in one


def test_host_scaling_divides_by_the_mean_reference_sample():
    r = summary.REFERENCE_S
    quiet = {"wall_s": 3.0, "ref_s": [r, r, r]}
    slow = {"wall_s": 5.0, "ref_s": [r, 3 * r, 2 * r]}  # the host at half speed
    assert summary.scaled_pass(quiet, "wall_s") == pytest.approx(3.0)
    assert summary.scaled_pass(slow, "wall_s") == pytest.approx(2.5)
    assert summary.pass_median([quiet, slow, quiet], "wall_s") == pytest.approx(3.0)
    assert summary.host_scaled(1.5, [2 * r]) == pytest.approx(0.75)


@pytest.mark.parametrize("name, ok", [
    ("wall_s", True), ("petviashvili.iters_per_solve_p50", True), ("fft.s", True),
    ("9lives", True), ("a" * 64, True), ("a" * 65, False), ("_x", False),
    (".x", False), ("has space", False), ("per/step", False), ("", False),
])
def test_metric_name_pattern(name, ok):
    assert summary.valid_name(name) is ok


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert all(summary.valid_name(n) for n in names)
    assert len(set(names)) == len(names)
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(summary.valid_unit(u) for u in units)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

import numpy as np
import pytest
import scipy.sparse.linalg

import solitonlab.cli
import solitonlab.stability
import tracing
from solitonlab.grid import SpectralGrid
from solitonlab.petviashvili import SolverConfig, petviashvili_solve
from tracing import Span, Tracer


def test_union_length_merges_overlaps_and_skips_empty():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (2, 3)]) == 2.0
    assert tracing.union_length([(0, 2), (1, 3), (3, 4)]) == 4.0
    assert tracing.union_length([(5, 5), (4, 3)]) == 0.0


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),   # overlaps a: together they cover [1, 5]
        Span("c", 9.0, 12.0, 0, 0),  # only [9, 10] lies inside the root
        Span("a.x", 1.5, 2.5, 1, 0),  # a grandchild of root
        Span("other", 20.0, 21.0, None, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0, 1.0])


def test_tracer_nests_spans_and_attributes_counters_to_the_innermost():
    tracer = Tracer()
    tracer.begin_pass(3)
    tracer.count("fft_calls")  # no span open
    outer = tracer.open("cli.main")
    inner = tracer.open("petviashvili.petviashvili_solve")
    tracer.count("fft_calls", 5)
    tracer.close(inner)
    tracer.count("fft_calls", 2)
    tracer.close(outer)
    assert inner.parent == 0 and outer.parent is None
    assert (inner.trace, outer.trace) == (3, 3)
    assert inner.attrs["fft_calls"] == 5 and outer.attrs["fft_calls"] == 2
    assert tracer.loose[3] == {"fft_calls": 1}
    with pytest.raises(RuntimeError):
        a = tracer.open("a")
        tracer.open("b")
        tracer.close(a)


def test_pass_metrics_on_synthetic_spans():
    tracer = Tracer()
    tracer.spans = [
        Span("stability.find_alpha0", 0.0, 10.0, None, 0),
        Span("stability.d_second_at", 0.0, 4.0, 0, 0),
        Span("petviashvili.petviashvili_solve", 0.0, 1.0, 1, 0,
             {"iterations": 20, "converged": 1, "warm": 0, "fft_calls": 100}),
        Span("petviashvili.petviashvili_solve", 1.0, 4.0, 1, 0,
             {"iterations": 30, "converged": 1, "warm": 1, "fft_calls": 150}),
        Span("petviashvili.petviashvili_solve", 12.0, 13.0, None, 0,
             {"iterations": 10, "converged": 0, "warm": 1}),
        Span("evolve.advance", 20.0, 22.0, None, 1, {"steps": 1000, "fft_calls": 2000}),
    ]
    tracer.loose[0] = {"fft_calls": 3, "cli_bytes_written": 42}
    m = tracing.pass_metrics(tracer, tracing.self_times(tracer.spans), 0, wall_s=16.0)
    assert set(m) == {n for n, _ in tracing.LAYER_METRICS} - {"trace.overhead"}
    assert m["petviashvili.calls"] == 3
    assert m["petviashvili.iterations"] == 60
    assert m["petviashvili.iters_per_solve_p50"] == 20
    assert m["petviashvili.ms_per_iter"] == pytest.approx(1e3 * 5.0 / 60)
    assert m["petviashvili.converged_ratio"] == pytest.approx(2 / 3)
    assert m["petviashvili.warm_share"] == pytest.approx(2 / 3)
    assert m["petviashvili.fft_calls"] == 250
    assert m["stability.self_s"] == pytest.approx(6.0)  # 10 - 4 and 4 - 4
    assert m["stability.solves_per_d2"] == 2
    assert m["stability.bisection_evals"] == 1
    assert m["fft.calls"] == 253  # the other pass's spans are not counted
    assert m["cli.bytes_written"] == 42
    assert m["evolve.steps"] == 0 and m["evolve.us_per_step"] == 0
    assert m["trace.attributed_share"] == pytest.approx(11.0 / 16.0)


def test_install_wraps_every_binding_and_restore_undoes_it():
    original = petviashvili_solve
    grid = SpectralGrid(256, 40.0)
    untraced = original(2.0, 0.16, grid)[0].values
    tracer = Tracer()
    patches = tracing.install(tracer)
    try:
        assert solitonlab.cli.petviashvili_solve is not original
        assert solitonlab.stability.petviashvili_solve is solitonlab.cli.petviashvili_solve
        traced = solitonlab.stability.petviashvili_solve(2.0, 0.16, grid)[0].values
        warm = SolverConfig(initial_guess=solitonlab.stability.petviashvili_solve(
            2.0, 0.16, grid)[0])
        solitonlab.stability.petviashvili_solve(2.0, 0.17, grid, warm)
    finally:
        patches.restore()
    assert solitonlab.cli.petviashvili_solve is original
    assert solitonlab.stability.petviashvili_solve is original
    assert np.array_equal(traced, untraced)
    solves = [s for s in tracer.spans if s.name == "petviashvili.petviashvili_solve"]
    assert [s.attrs["warm"] for s in solves] == [0, 0, 1]
    assert all(s.attrs["fft_calls"] >= s.attrs["iterations"] > 0 for s in solves)


def test_minres_wrapper_counts_steps_and_keeps_the_callers_callback():
    tracer = Tracer()
    seen = []
    wrapped = tracing._minres_wrapper(tracer, scipy.sparse.linalg.minres)
    a = np.diag(np.arange(1.0, 21.0))
    x, info = wrapped(a, np.ones(20), rtol=1e-12, callback=seen.append)
    assert info == 0 and np.allclose(a @ x, 1.0)
    assert tracer.loose[0]["krylov_steps"] == len(seen) > 0

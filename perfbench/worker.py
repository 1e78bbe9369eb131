"""One workload in a fresh process: set up, then timed passes.

Started by run.py from the repository root.  It imports solitonlab from
``src/``, builds the workload, warms up, prints ``READY`` (the end of
set-up) and ``REF <seconds>`` (the reference kernel's time right after), and
with ``--setup-only`` exits there.  Otherwise it repeats the
workload's operation list in passes for about ``--seconds`` seconds and
writes a JSON result to ``--result``.  With ``--trace 1`` it alternates
untraced and traced passes, so the tracing overhead is measured in the same
process.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# a pass may start if it is predicted to end within this share past --seconds
SLACK = 0.1
# two passes at least: the median of one pass hides a slow first pass, and a
# traced run needs an untraced pass to compare with
MIN_PASSES = 2
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_now() -> float:
    # process_time has finer resolution than the clock ticks of os.times;
    # children (the region pool) are counted once they have been waited for
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _result_bytes(result) -> bytes:
    if dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    return json.dumps(result, sort_keys=True, default=repr).encode()


def _digest_op(out: Path, result) -> tuple[str, int]:
    """Digest of an operation's output files and returned value, and the
    number of bytes it wrote."""
    h = hashlib.sha256()
    written = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        written += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(data)
    h.update(b"\0result\0" + _result_bytes(result))
    return h.hexdigest(), written


def run_pass(workload, out_root: Path, tracer=None) -> dict:
    """Run every operation once; time the operations, then check them.

    The reference kernel is timed before the first operation and right
    after each one, which samples the host's speed through the pass.
    """
    from workloads import CliResult, reference_kernel

    ops, wall, cpu = [], 0.0, 0.0
    ref = [reference_kernel()]
    pass_hash = hashlib.sha256()
    for k, op in enumerate(workload.ops):
        out = out_root / f"{k:02d}-{op.name}"
        out.mkdir(parents=True)
        error = result = None
        t0, c0 = time.perf_counter(), _cpu_now()
        try:
            result = op.run(out)
        except Exception:  # an operation that raises counts as failed; the run goes on
            error = traceback.format_exc(limit=-3)
        op_wall, op_cpu = time.perf_counter() - t0, _cpu_now() - c0
        ref.append(reference_kernel())
        wall += op_wall
        cpu += op_cpu
        if error is None:
            try:
                op.check(out, result)
            except Exception as exc:  # a missing or unreadable file fails the check too
                error = f"check failed: {type(exc).__name__}: {exc}"
        digest, written = _digest_op(out, result)
        pass_hash.update(digest.encode())
        if tracer is not None and isinstance(result, CliResult):
            tracer.count("cli_bytes_written", written)
        if error is not None:
            print(f"perfbench: {workload.name}/{op.name} failed: {error}", file=sys.stderr)
        ops.append({"name": op.name, "wall_s": op_wall, "cpu_s": op_cpu,
                    "ok": error is None, "error": error, "digest": digest})
    shutil.rmtree(out_root)
    return {"wall_s": wall, "cpu_s": cpu, "ref_s": ref, "digest": pass_hash.hexdigest(),
            "ops": ops}


def measure(workload, seconds: float, trace: bool, work: Path) -> tuple[list, dict, list]:
    """Timed passes; returns (passes, per-layer metrics, spans)."""
    import summary
    import tracing

    tracer = tracing.Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        traced = trace and k % 2 == 1
        t0 = time.perf_counter()
        patches = None
        if traced:
            tracer.begin_pass(k)
            patches = tracing.install(tracer)
        try:
            p = run_pass(workload, work / f"pass-{k:03d}", tracer if traced else None)
        finally:
            if patches is not None:
                patches.restore()
        p["traced"] = traced
        passes.append(p)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - t0) > seconds * (1 + SLACK):
            break

    if not trace:
        return passes, {}, []
    selfs = tracing.self_times(tracer.spans)
    per_pass = [tracing.pass_metrics(tracer, selfs, k, p["wall_s"])
                for k, p in enumerate(passes) if p["traced"]]
    layer = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced_wall = summary.pass_median([p for p in passes if p["traced"]], "wall_s")
    plain_wall = summary.pass_median([p for p in passes if not p["traced"]], "wall_s")
    layer["trace.overhead"] = traced_wall / plain_wall - 1.0
    return passes, layer, tracer.dump()


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", type=Path, help="scratch directory for outputs")
    parser.add_argument("--result", type=Path, help="where to write the JSON result")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "solitonlab" / "__init__.py").is_file():
        print("perfbench: src/solitonlab not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    import solitonlab

    if Path(solitonlab.__file__).resolve().parent != (src / "solitonlab").resolve():
        print(f"perfbench: imported solitonlab from {solitonlab.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed)
    workloads.warm_up(workload)
    print("READY", flush=True)
    # host speed right after set-up, to scale the set-up time with
    ref = statistics.median(workloads.reference_kernel() for _ in range(3))
    print(f"REF {ref!r}", flush=True)
    if args.setup_only:
        return 0
    # run.py reads only READY and REF from stdout; anything printed later goes to stderr
    sys.stdout = sys.stderr

    passes, layer, spans = measure(workload, args.seconds, bool(args.trace), args.work)
    self_usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "passes": passes,
        "peak_rss_mb": max(self_usage, child_usage) / 1024.0,  # ru_maxrss is in KiB
        "layer": layer,
        "inputs": workload.inputs,
        "ops": [op.name for op in workload.ops],
        "environment": environment(),
        "spans": spans,
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""solitonlab benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload branch --seed 1 --seconds 25 --trace 0

Run it from the repository root.  Set-up is timed in fresh worker processes
(``worker.py``) several times; the last of them then runs the workload in
timed passes.  The output is a human-readable summary, one ``record`` line
describing the run, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (END_TO_END), with
``--trace 1`` the per-layer ones (tracing.LAYER_METRICS).  ``setup_s``,
``wall_s`` and ``cpu_s`` report medians of host-scaled times (see
summary.REFERENCE_S); the lines before the JSON also give the median and
quartiles of the plain times.  Records and spans are kept under
``.perfbench_work/records``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import summary
from tracing import LAYER_METRICS

WORKLOADS = ("branch", "thresholds", "spectrum", "evolve")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0  # the whole run, set-ups included
WORK_DIR = ".perfbench_work"


class BenchError(Exception):
    pass


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _stop(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's process group and reap the worker."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    proc.stdout.close()


def _read_line(proc: subprocess.Popen, deadline: float) -> bytes:
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
    return proc.stdout.readline() if ready else b""


def _worker(args, extra: list[str], deadline: float):
    """Start a worker; return (process, seconds from spawn to READY, seconds
    the reference kernel took right after)."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        line = _read_line(proc, deadline)
        setup = time.monotonic() - t0
        ref = _read_line(proc, deadline).split() if line.strip() == b"READY" else []
    except BaseException:
        _stop(proc)
        raise
    if len(ref) != 2 or ref[0] != b"REF":
        _stop(proc)
        raise BenchError(f"worker did not set up (exit code {proc.returncode})")
    return proc, setup, float(ref[1])


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit")
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exit code {proc.returncode}")


def _line(name: str, unit: str, d: dict) -> str:
    tail = (f"p{d['tail_p']}={d['tail']:.6g}" if "tail" in d
            else "tail=n/a (fewer than 20 samples)")
    return (f"  {name:<12} value={d['value']:.6g} n={d['n']:<3d} median={d['median']:.6g} "
            f"q1={d['q1']:.6g} q3={d['q3']:.6g} {tail} [{unit}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    deadline = time.monotonic() + TIME_LIMIT_S
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = root / WORK_DIR / name
    records = root / WORK_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    result_path = records / f"{name}.result.json"
    load_start = _loadavg()

    try:
        setups, setup_refs = [], []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup, ref = _worker(args, ["--setup-only"], deadline)
            _finish(proc, deadline)
            setups.append(setup)
            setup_refs.append(ref)
        proc, setup, ref = _worker(args, ["--work", str(work), "--result", str(result_path)],
                                   deadline)
        setups.append(setup)
        setup_refs.append(ref)
        _finish(proc, deadline)
        result = json.loads(result_path.read_text())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_end = _loadavg()

    passes = result["passes"]
    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    digests = sorted({p["digest"] for p in passes})
    correct = failed == 0 and len(digests) == 1
    plain = [p for p in passes if not p["traced"]]
    e2e = {
        "setup_s": summary.describe(setups),
        "wall_s": summary.describe(p["wall_s"] for p in plain),
        "cpu_s": summary.describe(p["cpu_s"] for p in plain),
        "peak_rss_mb": summary.describe([result["peak_rss_mb"]]),
    }
    # the value each metric reports: medians of host-scaled times (see
    # summary.REFERENCE_S) and the peak memory
    e2e["setup_s"]["value"] = statistics.median(
        summary.host_scaled(t, [r]) for t, r in zip(setups, setup_refs))
    for metric in ("wall_s", "cpu_s"):
        e2e[metric]["value"] = summary.pass_median(plain, metric)
    e2e["peak_rss_mb"]["value"] = result["peak_rss_mb"]

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ({len(plain)} untraced) ops/pass={len(result['ops'])}")
    for metric, unit in END_TO_END:
        print(_line(metric, unit, e2e[metric]))
    print(f"  {'fail_ratio':<12} {failed / attempted:.6g} "
          f"({failed} failed / {attempted} attempted)")
    if len(digests) != 1:
        print(f"  output digests differ between passes: {digests}")
    if args.trace:
        for metric, unit in LAYER_METRICS:
            print(f"  {metric:<34} {result['layer'][metric]:.6g} [{unit}]")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(root),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": load_end,
        **result["environment"],
        "inputs": result["inputs"], "ops": result["ops"],
        "attempted": attempted, "failed": failed, "output_digest": digests,
    }
    print("record " + json.dumps(record, sort_keys=True))
    (records / f"{name}.json").write_text(json.dumps(
        {"record": record, "end_to_end": e2e, "layer": result["layer"],
         "setup_samples": setups, "setup_ref_s": setup_refs, "passes": passes},
        indent=1, sort_keys=True))
    if args.trace:
        (records / f"{name}.spans.json").write_text(json.dumps(result["spans"]))
    result_path.unlink()

    if args.trace:
        metrics = {m: {"value": float(result["layer"][m]), "unit": u} for m, u in LAYER_METRICS}
    else:
        metrics = {m: {"value": e2e[m]["value"], "unit": u} for m, u in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

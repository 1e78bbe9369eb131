"""Order statistics and name rules shared by the benchmark's reports."""

from __future__ import annotations

import re
import statistics
from fractions import Fraction

# names of metrics and workloads, and units, as BENCHMARK.json allows them
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

# Host-scaled timings.  On a shared host other tenants' load slows the whole
# core (by up to 1.8x, for stretches of many seconds), which moves a plain
# median by a third between runs of the same code.  Every timed pass and
# set-up is therefore also divided by the time of workloads.reference_kernel,
# a fixed FFT loop sampled during it, and reported in seconds on a host where
# that kernel takes REFERENCE_S (about its time on an uncontended core of a
# 2-vCPU x86-64 VM).  Nothing the program does changes the kernel's cost.
REFERENCE_S = 0.02

# percentiles a timing's tail may be reported at, highest first
TAIL_CANDIDATES = ("99.9", "99", "95", "90", "75", "50")
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def tail_percentile(n: int) -> str | None:
    """Highest candidate percentile with at least ten of n samples beyond it.

    Returns the percentile as a string ("90", "99.9"), or None when even the
    median has fewer than ten samples above it (n < 20).
    """
    for p in TAIL_CANDIDATES:
        if n * (1 - Fraction(p) / 100) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p: str) -> float:
    """Linear-interpolation percentile of the samples (p given as a string)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = float(Fraction(p) / 100) * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def host_scaled(seconds: float, reference) -> float:
    """A time taken while the reference kernel took ``reference`` seconds (one
    sample or several), rescaled to a host on which it takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.fmean(reference)


def scaled_pass(p: dict, key: str) -> float:
    """A pass's ``key`` time, rescaled by the mean of the reference samples
    taken through the pass."""
    return host_scaled(p[key], p["ref_s"])


def pass_median(passes, key: str) -> float:
    """Median over passes of the host-scaled pass time."""
    return statistics.median(scaled_pass(p, key) for p in passes)


def describe(values) -> dict:
    """Sample count, median, quartiles and tail percentile of a timing."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("no samples")
    median = statistics.median(data)
    if len(data) >= 2:
        q1, _, q3 = statistics.quantiles(data, n=4)
    else:
        q1 = q3 = median
    out = {"n": len(data), "median": median, "q1": q1, "q3": q3}
    tail = tail_percentile(len(data))
    if tail is not None:
        out["tail_p"] = tail
        out["tail"] = percentile(data, tail)
    return out

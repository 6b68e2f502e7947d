"""Helpers shared by the benchmark runner, its child processes and its
self-tests: the percentile rule, the capacity interpolation, child
process control and the ``repro`` import path.

Nothing here imports ``repro``; the client side of the benchmark stays
independent of the code it measures.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def use_repro_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    Raises ``SystemExit`` with a message when the checkout has no
    ``src/repro``: the benchmark measures that tree and nothing else.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples
    (the epsilon keeps ``99.9 / 100 * 10000`` from rounding up)."""
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least :data:`MIN_BEYOND` samples
    beyond it, or ``None`` when even the median has fewer."""
    best = None
    for q in PERCENTILE_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it, so a tail is never reported from too few samples.
    """
    n = len(samples)
    if n == 0 or beyond(n, q) < MIN_BEYOND:
        raise ValueError(f"p{q:g} needs {MIN_BEYOND} samples beyond it; have {n} in all")
    ordered = sorted(samples)
    return ordered[_rank(n, q) - 1]


def describe_tail(samples: Sequence[float]) -> str:
    """``p50 … / p<tail> … (n=…)`` by the percentile rule, for reports."""
    n = len(samples)
    q = tail_percentile(n)
    if q is None:
        return f"n={n} (too few for a percentile)"
    return f"p50 {percentile(samples, 50.0):.3f} / p{q:g} {percentile(samples, q):.3f} (n={n})"


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def interpolate_capacity(
    steps: Sequence[Tuple[float, float, bool]], limit_ms: float
) -> float:
    """Highest offered rate meeting the latency limit, interpolated.

    ``steps`` are ``(rate, p99_ms, ok)`` for each step of the ladder,
    where ``ok`` already folds in the other two conditions (no failed
    submission, no growing client lateness).  A step passes when it is
    ``ok`` and its p99 is within ``limit_ms``.  Between the last passing
    step and the first failing one the rate is interpolated linearly on
    p99 when p99 broke the limit, and taken as the passing rate when
    another condition failed.  When the first step fails, its rate is
    scaled by ``limit / p99`` (0 when p99 was within the limit, as then
    submissions failed); when no step fails, the highest rate is a
    lower bound and is returned as is.
    """
    if not steps:
        raise ValueError("no steps")
    ordered = sorted(steps)
    prev = None
    for rate, p99, ok in ordered:
        if ok and p99 <= limit_ms:
            prev = (rate, p99)
            continue
        if prev is None:
            return rate * limit_ms / p99 if p99 > limit_ms else 0.0
        p_rate, p_p99 = prev
        if p99 <= limit_ms:
            return p_rate
        return p_rate + (rate - p_rate) * (limit_ms - p_p99) / (p99 - p_p99)
    return ordered[-1][0]


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def spawn(script: str, *args: str) -> subprocess.Popen:
    """Start ``perfbench/<script>`` under this interpreter, from the root."""
    return subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
    )


def finish(proc: subprocess.Popen, timeout: float) -> bool:
    """Wait up to ``timeout`` s for ``proc``; kill it when it is still
    running.  Returns ``True`` when it had to be killed."""
    try:
        proc.wait(timeout=timeout)
        return False
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return True


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}

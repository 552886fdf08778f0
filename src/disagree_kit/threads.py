"""Thread budget of the block CG solver.

``DISAGREE_THREADS`` caps it; unset or empty, the budget is the CPU
count, at most 8.
"""

from __future__ import annotations

import os

from .errors import UsageError


def worker_count() -> int:
    """Threads a parallel section may use, read from ``DISAGREE_THREADS``."""
    raw = os.environ.get("DISAGREE_THREADS", "").strip()
    if not raw:
        return min(8, os.cpu_count() or 1)
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise UsageError(
            f"DISAGREE_THREADS must be a positive integer, got {raw!r}")
    return count

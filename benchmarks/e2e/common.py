"""Paths, statistics and request keys shared by the end-to-end benchmark."""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Result files and traces land here (listed in the root .gitignore).
OUT = HERE / "out"
GOLDEN = HERE / "golden" / "references.json"


def use_checkout_source() -> None:
    """Put this checkout's ``src`` first on ``sys.path``.

    The benchmark measures the code of the checkout it sits in, never an
    installed copy, so a tree without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: {SRC / 'repro'} not found; run the benchmark from a "
            f"full checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def request_key(verb: str, request: dict) -> str:
    """Stable identity of one (verb, DesignRequest dict) pair."""
    blob = json.dumps([verb, request], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (*p* in 0..1) of unsorted *values*."""
    ordered = sorted(values)
    rank = max(1, round(p * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3

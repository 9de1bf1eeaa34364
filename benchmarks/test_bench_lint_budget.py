"""repro-lint stays inside its wall-clock budget over ``src/``.

A full project index plus every rule over the whole source tree must
finish in under ten seconds.  That is a wall-clock claim, so it lives
in the ``perf`` suite rather than tier-1; zero findings over ``src/``
is a tier-1 gate (``tests/analysis/test_repo_clean.py``).
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.analysis import analyze_paths

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.perf
def test_index_plus_rules_under_ten_seconds():
    start = time.perf_counter()
    analyze_paths([SRC])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"full src analysis took {elapsed:.1f}s"

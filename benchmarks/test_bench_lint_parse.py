"""The repro-lint parse pool beats serial parsing on a multi-core host.

``repro.analysis.engine.parse_files(jobs > 1)`` parses the source tree
in worker processes.  Parity with the serial path is a tier-1 test
(``tests/analysis/test_project.py``); whether the pool is also faster
is a wall-clock claim, so it lives in the ``perf`` suite.  The gate is
the median ratio of alternating serial/parallel pairs over all of
``src/``; single-core hosts skip it, because a pool proves nothing
there.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import pytest

from repro.analysis.engine import parse_files

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.perf
@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="speedup is only measurable with >1 core")
def test_parallel_is_faster_on_multicore():
    paths = [SRC]
    # Warm the page cache and the import state of both paths.
    parse_files(paths, jobs=1)
    parse_files(paths, jobs=os.cpu_count())
    # One serial/parallel pair is at the mercy of whatever else the
    # host runs in that second; the median of alternating pairs is
    # not.
    ratios = []
    for _ in range(5):
        start = time.perf_counter()
        parse_files(paths, jobs=1)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        parse_files(paths, jobs=os.cpu_count())
        parallel_s = time.perf_counter() - start
        ratios.append(parallel_s / serial_s)
    # Pool startup costs real time; demand better than break-even,
    # not a perfect scaling curve.
    assert statistics.median(ratios) < 1.1, ratios

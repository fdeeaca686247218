"""Acceptance gate: every criterion of the fixed checklist at its pinned
tolerance, one printed pass/fail line each.  Run with -s (or -v) to see the
lines; the suite fails if any criterion fails."""

import time
import tracemalloc

import pytest

from hbq import acceptance


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(number):
    t0 = time.monotonic()
    result = acceptance.run_criterion(number)
    tag = "PASS" if result.passed else "FAIL"
    print()
    print(f"[{tag}] criterion {number}: {result.description} "
          f"({time.monotonic() - t0:.2f}s)")
    for detail in result.details[:8]:
        print(f"    {detail}")
    assert result.passed, f"criterion {number} failed: {result.details}"


def test_catalan_literal():
    # criterion 8's mod-4 limit 2 sum (-1)^n chi4(n) n^(-2) = -2G
    mpmath = pytest.importorskip("mpmath")
    assert acceptance._CATALAN == float(mpmath.catalan)


def test_criterion_8_memory():
    # the q -> 1 series are summed from a few dozen terms per residue class;
    # direct summation took arrays of up to 8.1M terms, about 300 MB
    tracemalloc.start()
    try:
        assert acceptance.criterion_8().passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak

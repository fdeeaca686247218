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


def test_criterion_2_fails_on_a_moved_dedekind_sum(monkeypatch):
    # criterion 2 checks the q-Dedekind sums against Apostol's exact s_p:
    # moving the order-3 sum at q = 1 by 2e-6, twice its 1e-6, fails it
    real = acceptance.q_dedekind_sum

    def moved(p, h, k, q, **kwargs):
        return real(p, h, k, q, **kwargs) + (2e-6 if p == 3 else 0.0)

    monkeypatch.setattr(acceptance, "q_dedekind_sum", moved)
    result = acceptance.criterion_2()
    assert not result.passed
    assert result.details[0] == "worst |q=1 value - exact| = 2.000e-06"
    assert result.details[1:] == [f"dedekind-p3({h},{k}) diff 2.000e-06"
                                  for h, k in acceptance._RECOVERY_PAIRS]

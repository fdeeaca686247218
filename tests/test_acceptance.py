"""Acceptance gate: every criterion of the fixed checklist at its pinned
tolerance, one printed pass/fail line each.  Run with -s (or -v) to see the
lines; the suite fails if any criterion fails."""

import dataclasses
import time
import tracemalloc
import types
from fractions import Fraction

import pytest

from hbq import (DirichletCharacter, DomainError, _kernels, acceptance, mellin,
                 qzeta)


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


def test_criterion_7_fails_on_a_wrong_euler_entry(monkeypatch):
    # E_4 = 5 moved to 6: the Euler table misses its defining product
    # (e^t + 1) sum E_n t^n/n! = 2, and nothing else of criterion 7 reads it
    real = acceptance.number_table

    def wrong(kind, n_max):
        table = real(kind, n_max)
        if kind is not acceptance.NumberKind.EULER:
            return table
        entries = list(table.entries)
        entries[4] += 1
        return dataclasses.replace(table, entries=tuple(entries))

    monkeypatch.setattr(acceptance, "number_table", wrong)
    result = acceptance.criterion_7()
    assert not result.passed
    assert result.details[1:] == ["Euler table fails its defining product"]


def test_criterion_9_fails_on_a_character_value_off_by_1e_9(monkeypatch):
    # chi(2) of the quartic character mod 5 moved from i to i + 1e-9: both
    # the multiplicativity (chi(4) = chi(2)^2 is off by 2e-9) and the
    # orthogonality of that character miss their 1e-12
    real = acceptance.characters_mod

    def off(f):
        chars = real(f)
        if f != 5:
            return chars
        chi = DirichletCharacter(f, chars[1].exponents)  # a fresh table
        vals = list(chi.table)
        vals[2] += 1e-9
        chi.__dict__["table"] = tuple(vals)
        return (chars[0], chi) + chars[2:]

    monkeypatch.setattr(acceptance, "characters_mod", off)
    result = acceptance.criterion_9()
    assert not result.passed
    assert result.details[1:] == ["chi mod 5 multiplicativity err 2.00e-09",
                                  "orthogonality fails: chi 5:1"]
    assert real(5)[1].table[2] == 1j  # the cached character is untouched


def test_criterion_10_fails_when_the_refined_value_moves_by_the_residual(
        monkeypatch):
    # the refined schedule's extrapolated value moved by the base schedule's
    # residual estimate: the move is not below the residual, so every
    # recovery sum fails
    real = acceptance.oscillatory_sum

    def moved(v, h, k, q, reg):
        out = real(v, h, k, q, reg=reg)
        if reg == acceptance.DEFAULT_SCHEDULE:
            return out
        base = real(v, h, k, q, reg=acceptance.DEFAULT_SCHEDULE)
        return dataclasses.replace(
            out, extrapolated=base.extrapolated + base.residual)

    monkeypatch.setattr(acceptance, "oscillatory_sum", moved)
    result = acceptance.criterion_10()
    cases = acceptance._admissible(acceptance._RECOVERY_PAIRS)
    assert not result.passed and len(result.details) == 1 + len(cases)
    for line, (v, h, k) in zip(result.details[1:], cases):
        moved_by, residual = line.split(": moved ")[1].split(" >= residual ")
        assert line.startswith(f"{v}({h},{k}): ") and moved_by == residual


def test_one_variable_decomposition_refuses_a_shift():
    # a shift is an axis of the two-variable grid only; dropping it would
    # check something other than was asked
    with pytest.raises(DomainError, match="one-variable decomposition takes no x"):
        acceptance.decomposition_checks(False, x=0.25)


def test_criterion_1_fails_on_a_moved_series_value(monkeypatch):
    # the series S(1, 2) moved by 2e-9, twice criterion 1's 1e-9
    real = acceptance.classical_trig_series

    def moved(v, h, k, **kwargs):
        return real(v, h, k, **kwargs) + (2e-9 if (v, h, k) == ("S", 1, 2) else 0.0)

    monkeypatch.setattr(acceptance, "classical_trig_series", moved)
    result = acceptance.criterion_1()
    assert not result.passed
    assert result.details == ["432 cases, worst |series - exact| = 2.000e-09",
                              "S(1,2) diff 2.000e-09"]


def test_criterion_1_fails_past_its_time_limit(monkeypatch):
    # the clock jumps 6 s across the sweep, past its 5 s
    clock = iter([0.0, 6.0]).__next__
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(monotonic=clock))
    result = acceptance.criterion_1()
    assert not result.passed
    assert result.details[1:] == ["sweep took 6.00s > 5s"]


def test_criterion_3_fails_on_a_moved_round_trip(monkeypatch):
    # the shifted transform at s = 2, q = 1/2 moved by 2e-8 of its value,
    # twice the round trip's 1e-8 max(1, |rhs|), |rhs| = 3.75
    real = mellin.mellin_transform

    def moved(kind, s, q, x=None, **kwargs):
        out = real(kind, s, q, x=x, **kwargs)
        if x is None or complex(s) != 2 or str(q) != "1/2":
            return out
        return dataclasses.replace(out, value=out.value * (1 + 2e-8))

    monkeypatch.setattr(mellin, "mellin_transform", moved)
    result = acceptance.criterion_3()
    assert not result.passed and len(result.details) == 2
    label, diff = result.details[1].split(": ")
    assert label == "hurwitz s=2 q=1/2"
    assert float(diff) == pytest.approx(2e-8 * 3.7483111565667206, rel=1e-4)


@pytest.mark.parametrize("number, x", [(4, None), (5, 0.25)])
def test_criteria_4_and_5_fail_on_a_moved_left_side(monkeypatch, number, x):
    # the twisted series of the left side at chi = 3:1, s = 2, q = 1/2 moved
    # by 2e-10 before its [2] = 3/2: 3e-10 against the tol 1e-10
    real = qzeta._alt_series

    def moved(s, q, xv, chi, tol, **kwargs):
        out = real(s, q, xv, chi, tol, **kwargs)
        if chi is None or chi.label != "3:1" or complex(s) != 2 \
                or str(q) != "1/2" or xv != x:
            return out
        return dataclasses.replace(out, value=out.value + 2e-10)

    monkeypatch.setattr(qzeta, "_alt_series", moved)
    result = acceptance.run_criterion(number)
    assert not result.passed
    assert result.details == [
        "worst diff 3.000e-10",
        "chi=3:1 s=2 q=1/2" + ("" if x is None else f" x={x}") + ": 3.000e-10"]


def test_criterion_6_fails_on_a_shifted_double_sum(monkeypatch):
    # the damped double sum of identity 21 (the one with all weights m)
    # shifted by 1e-3 at every offset, which the extrapolation keeps: ten
    # times the tol 1e-4
    real = _kernels.damped_pair_sum

    def shifted(s, eps, logq, alt, chi, odd_weights, *counts):
        return (real(s, eps, logq, alt, chi, odd_weights, *counts)
                + (0.0 if odd_weights else 1e-3))

    monkeypatch.setattr(_kernels, "damped_pair_sum", shifted)
    result = acceptance.criterion_6()
    assert not result.passed and len(result.details) == 6
    label, diff = result.details[5].split(": ")
    assert label == "id 21" and diff.endswith(" > 1.0e-04")
    assert float(diff.split()[0]) == pytest.approx(1e-3, rel=1e-3)


def test_criterion_8_fails_on_a_moved_plain_series(monkeypatch):
    # the plain series at 1 - q = 1e-5 moved by 1e-3: its distance to the
    # limit grows past the one at 1 - q = 1e-4
    real = qzeta.q_alt_zeta

    def moved(s, q, *args, **kwargs):
        out = real(s, q, *args, **kwargs)
        if q.value != Fraction(99999, 100000):
            return out
        return dataclasses.replace(out, value=out.value + 1e-3)

    monkeypatch.setattr(qzeta, "q_alt_zeta", moved)
    result = acceptance.criterion_8()
    assert not result.passed
    assert "monotone=False" in result.details[0]
    assert result.details[2:] == ["plain: no monotone approach to within 1e-3"]

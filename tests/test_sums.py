import math
from fractions import Fraction

import pytest

from hbq import (DomainError, dedekind_sum, hardy_berndt_sum, number_table,
                 parity_condition, sawtooth)
from hbq.sums import HARDY_VARIANTS


def test_anchor_values():
    assert hardy_berndt_sum("S", 1, 2) == 1
    assert hardy_berndt_sum("S", 2, 3) == 2
    assert hardy_berndt_sum("s3", 1, 3) == Fraction(1, 3)
    assert hardy_berndt_sum("s4", 1, 3) == 2
    assert dedekind_sum(1, 1) == 0
    assert dedekind_sum(1, 2) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)


def _brute(variant, h, k):
    # independent re-evaluation straight from the definitions
    saw = lambda x: sawtooth(x)
    total = Fraction(0)
    top = k - 1 if variant in ("S", "s4", "dedekind") else k
    for j in range(1, top + 1):
        fl = (h * j) // k
        term = {
            "S": Fraction((-1) ** (j + 1 + fl)),
            "s1": (-1) ** fl * saw(Fraction(j, k)),
            "s2": (-1) ** j * saw(Fraction(j, k)) * saw(Fraction(h * j, k)),
            "s3": (-1) ** j * saw(Fraction(h * j, k)),
            "s4": Fraction((-1) ** fl),
            "s5": (-1) ** (j + fl) * saw(Fraction(j, k)),
            "dedekind": saw(Fraction(j, k)) * saw(Fraction(h * j, k)),
        }[variant]
        total += term
    return total


def test_against_brute_force():
    assert hardy_berndt_sum("s1", 2, 3) == _brute("s1", 2, 3) == Fraction(-1, 3)
    for k in range(1, 13):
        for h in range(-2 * k, 2 * k + 1):
            if math.gcd(h, k) != 1:
                continue
            assert dedekind_sum(h, k) == _brute("dedekind", h, k)
            if h < 1:
                continue
            for v in HARDY_VARIANTS:
                assert hardy_berndt_sum(v, h, k) == _brute(v, h, k)


def test_property_against_brute_force_and_reciprocity():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(1, 400), st.integers(-800, 800),
                      st.sampled_from(HARDY_VARIANTS))
    def check(k, h, variant):
        hypothesis.assume(math.gcd(h, k) == 1)
        assert dedekind_sum(h, k) == _brute("dedekind", h, k)
        if h >= 1:
            assert hardy_berndt_sum(variant, h, k) == _brute(variant, h, k)
            # Dedekind reciprocity for coprime h, k >= 1
            assert 12 * h * k * (dedekind_sum(h, k) + dedekind_sum(k, h)) \
                == h * h + k * k + 1 - 3 * h * k

    check()


def _brute_order_p(h, k, p):
    # Apostol's s_p straight from its definition, B_p({x}) from the table
    b = number_table("bernoulli", p)
    total = Fraction(0)
    for j in range(1, k):
        x = Fraction(h * j % k, k)
        total += Fraction(j, k) * sum(math.comb(p, i) * b[i] * x ** (p - i)
                                      for i in range(p + 1))
    return total


def test_order_p_against_definition():
    for p in (1, 3, 5, 7, 9):
        for k in range(1, 12):
            for h in range(-k, 2 * k + 1):
                if math.gcd(h, k) == 1:
                    assert dedekind_sum(h, k, p) == _brute_order_p(h, k, p)
    assert dedekind_sum(2, 7, 3) == Fraction(-6, 343)
    for p in (0, 2, -1):
        with pytest.raises(DomainError, match="odd positive"):
            dedekind_sum(1, 3, p)


def test_property_apostol_reciprocity():
    # (p+1)(h k^p s_p(h,k) + k h^p s_p(k,h)) = sum_j C(p+1,j) (-1)^j
    # B_j B_(p+1-j) h^j k^(p+1-j) + p B_(p+1) for coprime h, k >= 1
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    b = number_table("bernoulli", 16)

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.integers(1, 60), st.integers(1, 60),
                      st.sampled_from((1, 3, 5, 7, 9, 11, 13, 15)))
    def check(h, k, p):
        hypothesis.assume(math.gcd(h, k) == 1)
        lhs = (p + 1) * (h * k ** p * dedekind_sum(h, k, p)
                         + k * h ** p * dedekind_sum(k, h, p))
        rhs = sum(math.comb(p + 1, j) * (-1) ** j * b[j] * b[p + 1 - j]
                  * h ** j * k ** (p + 1 - j) for j in range(p + 2)) + p * b[p + 1]
        assert lhs == rhs

    check()


def test_periodicity_h_plus_2k():
    for k in range(1, 13):
        for h in range(1, k + 1):
            if math.gcd(h, k) != 1:
                continue
            for v in HARDY_VARIANTS:
                assert hardy_berndt_sum(v, h, k) == hardy_berndt_sum(v, h + 2 * k, k)


def test_exactness_shapes():
    for k in range(1, 13):
        for h in range(1, 2 * k + 1):
            if math.gcd(h, k) != 1:
                continue
            assert hardy_berndt_sum("S", h, k).denominator == 1
            assert hardy_berndt_sum("s4", h, k).denominator == 1
            for v in ("s1", "s3", "s5"):
                assert (2 * k) % hardy_berndt_sum(v, h, k).denominator == 0
            # two-sawtooth products: denominator divides 4k^2
            assert (4 * k * k) % hardy_berndt_sum("s2", h, k).denominator == 0
            assert (4 * k * k) % dedekind_sum(h, k).denominator == 0


def test_parity_conditions():
    assert parity_condition("S", 1, 2).holds
    assert not parity_condition("s5", 2, 3).holds
    assert parity_condition("s3", 1, 3).holds
    pc = parity_condition("s1", 2, 3)
    assert pc.holds and pc.description == "h even and k odd"


def test_parity_condition_rejects_unknown_variant():
    with pytest.raises(DomainError, match="unknown variant 'x'"):
        parity_condition("x", 1, 2)


def test_rejects_non_coprime():
    with pytest.raises(DomainError):
        hardy_berndt_sum("S", 2, 4)
    with pytest.raises(DomainError):
        dedekind_sum(3, 6)
    with pytest.raises(DomainError):
        hardy_berndt_sum("S", 0, 3)
    with pytest.raises(DomainError):
        parity_condition("S", 2, 4)

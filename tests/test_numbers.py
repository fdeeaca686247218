import math
from fractions import Fraction

import pytest

from hbq import (DomainError, QParam, SeriesValue, number_table,
                 q_euler_number, q_genocchi_number)
from hbq.numbers import NumberKind, bernoulli_polynomial


def test_table_anchors():
    g = number_table("genocchi", 6)
    assert list(g.entries) == [0, 1, -1, 0, 1, 0, -3]
    e = number_table("euler", 3)
    assert list(e.entries) == [1, Fraction(-1, 2), 0, Fraction(1, 4)]
    b = number_table("bernoulli", 4)
    assert list(b.entries) == [1, Fraction(-1, 2), Fraction(1, 6), 0,
                               Fraction(-1, 30)]


def _egf_multiply(a, b, n_max):
    # exact Cauchy product of two EGFs given by coefficient lists
    out = []
    for n in range(n_max + 1):
        out.append(sum(math.comb(n, k) * a[k] * b[n - k] for k in range(n + 1)))
    return out


def test_tables_against_defining_products():
    n_max = 30
    exp_coeffs = [Fraction(1)] * (n_max + 1)  # e^t
    e = number_table(NumberKind.EULER, n_max).entries
    g = number_table(NumberKind.GENOCCHI, n_max).entries
    b = number_table(NumberKind.BERNOULLI, n_max).entries
    # (e^t + 1) * sum E_n t^n/n! == 2
    prod = _egf_multiply(exp_coeffs, e, n_max)
    for n in range(n_max + 1):
        assert prod[n] + e[n] == (2 if n == 0 else 0)
    # (e^t + 1) * sum G_n t^n/n! == 2t
    prod = _egf_multiply(exp_coeffs, g, n_max)
    for n in range(n_max + 1):
        assert prod[n] + g[n] == (2 if n == 1 else 0)
    # (e^t - 1) * sum B_n t^n/n! == t
    prod = _egf_multiply(exp_coeffs, b, n_max)
    for n in range(n_max + 1):
        assert prod[n] - b[n] == (1 if n == 1 else 0)


def test_genocchi_bernoulli_bridge():
    n_max = 30
    g = number_table(NumberKind.GENOCCHI, n_max)
    b = number_table(NumberKind.BERNOULLI, n_max)
    for n in range(n_max + 1):
        assert g[n] == 2 * (1 - Fraction(2) ** n) * b[n]
        assert g[n].denominator == 1
        if n >= 3 and n % 2 == 1:
            assert g[n] == 0


def test_q_euler_closed_form_values():
    assert q_euler_number(0, QParam.real(Fraction(1, 2))) == 1
    assert q_euler_number(0, QParam.real(Fraction(1, 3))) == 1
    assert q_euler_number(1, QParam.real(Fraction(1, 2))) == Fraction(-2, 5)


def test_q_euler_vs_coefficient_extraction():
    # multiply the two defining EGF factors symbolically and read t^m/m!
    for qv in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 5)):
        two = 1 + qv
        m_max = 8
        a = [two / (1 - qv) ** j for j in range(m_max + 1)]        # [2] e^(t/(1-q))
        b = [Fraction((-1) ** n) / ((1 + qv ** (n + 1)) * (1 - qv) ** n)
             for n in range(m_max + 1)]
        for m in range(m_max + 1):
            coeff = sum(math.comb(m, k) * a[m - k] * b[k] for k in range(m + 1))
            assert q_euler_number(m, QParam.real(qv)) == coeff


def test_q_euler_rejects_limit1():
    with pytest.raises(DomainError):
        q_euler_number(2, QParam.one())


def test_q_genocchi_small_orders():
    q = QParam.real(Fraction(1, 2))
    assert q_genocchi_number(0, q) == 0
    assert q_genocchi_number(1, q) == 1
    assert q_genocchi_number(1, QParam.real(Fraction(2, 7))) == 1


def test_q_genocchi_vs_partial_sum_oracle():
    # brute: [2] m sum_n (-1)^n q^n [n]^(m-1) with explicit geometric majorant
    for qv, m in ((Fraction(1, 2), 2), (Fraction(1, 2), 3), (Fraction(1, 3), 4)):
        qf = float(qv)
        acc = 0.0
        n = 0
        while True:
            n += 1
            acc += (-1) ** n * qf ** n * ((1 - qf ** n) / (1 - qf)) ** (m - 1)
            tail = qf ** (n + 1) / (1 - qf) ** m
            if tail < 1e-13:
                break
        oracle = (1 + qf) * m * acc
        got = q_genocchi_number(m, QParam.real(qv))
        assert isinstance(got, Fraction)  # exact rational path
        assert abs(float(got) - oracle) < 1e-12


def test_q_genocchi_recovers_classical_limit():
    g = number_table(NumberKind.GENOCCHI, 6)
    for m in range(2, 7):
        dists = []
        for k in range(2, 6):
            qv = 1 - Fraction(1, 10 ** k)
            val = q_genocchi_number(m, QParam.real(qv))
            dists.append(abs(float(val - g[m])))
        assert all(a > b or a == b == 0 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-3


def test_q_genocchi_complex_disk_series():
    qc = 0.3 + 0.2j
    sv = q_genocchi_number(2, QParam.complex_disk(qc), tol=1e-10)
    assert isinstance(sv, SeriesValue)
    assert sv.tail_bound <= 1e-10
    brute = (1 + qc) * 2 * sum((-1) ** n * qc ** n * (1 - qc ** n) / (1 - qc)
                               for n in range(1, 200))
    assert abs(sv.value - brute) < 1e-10 + sv.tail_bound
    # q = 0 has no log q for the engine; every term of the series is 0
    assert q_genocchi_number(3, QParam.complex_disk(0)).value == 0


def test_bernoulli_polynomial_identities():
    # B_p(x + 1) - B_p(x) = p x^(p-1), B_p(1 - x) = (-1)^p B_p(x) and
    # B_p(0) = B_p, exactly, for p <= 20
    bern = number_table("bernoulli", 20)
    for p in range(21):
        assert bernoulli_polynomial(p, Fraction(0)) == bern[p]
        for x in (Fraction(0), Fraction(1, 3), Fraction(-5, 7), Fraction(9, 4)):
            assert bernoulli_polynomial(p, x + 1) - bernoulli_polynomial(p, x) \
                == (p * x ** (p - 1) if p else 0)
            assert bernoulli_polynomial(p, 1 - x) \
                == (-1) ** p * bernoulli_polynomial(p, x)

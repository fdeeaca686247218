"""The float kernels against small direct sums, on the branches the engine
tests reach least: complex log q, complex s in the damped double sum, and a
complex argument t of the generating series; the blocked q-series sum
against one array, bit for bit; and the CRVZ loop against closed forms."""

import cmath
import math

import numpy as np
import pytest

from hbq import _kernels, characters_mod

CHI5 = characters_mod(5)[1].table  # a complex character: values 1, i, -i, -1


def test_qzeta_partial_sum_complex_logq():
    q = cmath.rect(0.6, 2.2)
    logq = cmath.log(q)
    s, x = complex(2.5, -3.0), 1.7
    # alpha = s - 1 for the q-series family, 1 for cck and q-Genocchi
    for alpha in (s - 1, 1.0):
        terms = []
        for n in range(2, 25):
            qn = q ** n
            base = (1 - qn) / (1 - q) + x * qn
            terms.append((-1) ** n * CHI5[n % 5] * cmath.exp(n * logq * alpha)
                         * cmath.exp(-s * cmath.log(base)))
        body, first_omitted = _kernels.qzeta_partial_sum(logq, s, x, CHI5, True,
                                                         2, 24, alpha)
        assert abs(body - sum(terms[:-1])) < 1e-13 * max(1.0, abs(body))
        assert abs(first_omitted - abs(terms[-1])) < 1e-13 * abs(terms[-1])


def _one_array(logq, s, x, chi, alt, n0, n1, alpha):
    # the kernel as one array pass: its expressions and one np.add.reduce
    omq = -(math.expm1(logq) if isinstance(logq, float) else np.expm1(logq))
    period = _kernels._sign_chi_period(chi, alt)
    n = np.arange(n0, n1 + 1, dtype=np.float64)
    nl = n * logq
    coef = period[np.arange(n0, n1 + 1) % len(period)]
    base = np.expm1(nl) / -omq
    if x:
        base = base + x * np.exp(nl)
    terms = coef * np.exp(nl * alpha) * np.exp(-s * np.log(base))
    return complex(np.add.reduce(terms[:-1])), abs(complex(terms[-1]))


# The blocked sum keeps the bits of one array for two reasons.  numpy sums a
# complex array pairwise, splitting it so that the left part takes
# (count - count % 8) // 2 terms, and the kernel splits its blocks the same
# way.  And numpy evaluates `-s * np.log(base)` in place in the temporary, as
# `np.log(base) * -s`, once that temporary holds 256 KiB (16,384 complex
# terms); a complex product's last bit depends on the order of its operands,
# so each block must hold 16,384 terms wherever the one array does.  Halves
# of _LEAF = 1 << 15 hold at least that; 1 << 13, np.getbufsize(), moved the
# last bit.  For the same reason no ufunc in the kernel writes with out=: an
# explicit in-place product keeps the operand order and loses the match.
@pytest.mark.parametrize("count", [1, _kernels._LEAF, _kernels._LEAF + 1,
                                   2 * _kernels._LEAF + 1, 70_001, 200_003])
def test_qzeta_partial_sum_keeps_the_bits_of_one_array(count):
    s = complex(1.5, 3.0)
    logq_real = math.log1p(-1e-5)
    logq_complex = cmath.log(cmath.rect(1 - 1e-5, 1e-4))
    for logq, x, chi, alt, alpha in ((logq_real, 0.0, (1,), True, s - 1),
                                     (logq_real, 0.0, CHI5, False, 1.0),
                                     (logq_complex, 1.7, (1,), True, s - 1),
                                     (logq_complex, 0.0, CHI5, True, 1.0)):
        args = (logq, s, x, chi, alt, 1, 1 + count, alpha)
        body, first_omitted = _kernels.qzeta_partial_sum(*args)
        assert (body, first_omitted) == _one_array(*args)
        assert body != 0


def test_damped_pair_sum_complex_s():
    s, eps, q = complex(2.0, 1.5), 0.3, 0.5
    logq = math.log(q)
    direct = 0j
    for n in range(1, 7):
        a = (q ** -n - 1) / (1 - q)  # q^(-n) [n]
        c = (-1) ** n * CHI5[n % 5] * q ** -n
        for m in range(1, 9):
            mu = 2 * m - 1
            w = a * mu
            direct += c / mu * ((eps - 1j * w) ** (-s) - (eps + 1j * w) ** (-s))
    got = _kernels.damped_pair_sum(s, eps, logq, True, CHI5, True, 8, 6)
    assert abs(got - direct) < 1e-13 * abs(direct)


def test_gen_series_sum_complex_t():
    t, q = complex(0.7, 2.3), 0.5
    logq = math.log(q)
    direct = 0j
    for n in range(1, 40):
        a = (q ** -n - 1) / (1 - q)
        direct += (-1) ** n * CHI5[n % 5] * q ** -n * cmath.exp(-a * t)
    value, tail, n_used = _kernels.gen_series_sum(t, logq, True, CHI5, 4000,
                                                  1e-14)
    assert tail <= 1e-14 and n_used < 40
    assert abs(value - direct) < 1e-14


def test_crvz_sum_within_its_bound():
    # log 2 = sum (-1)^k / (k+1), moments of dt on [0, 1], and
    # 1 / (1 + t) = sum (-1)^k t^k, moments of the point mass at t
    for n in (1, 5, 12, 20):
        bound = 2 * math.exp(-n * _kernels.CRVZ_LOG_RATE)
        got = _kernels.crvz_sum((1 / (k + 1) for k in range(n)), n)
        assert abs(got - math.log(2)) <= bound + 1e-16
        for t in (0.0, 0.3, 0.999):
            got = _kernels.crvz_sum((t ** k for k in range(n)), n)
            assert abs(got - 1 / (1 + t)) <= bound + 1e-16
    for log_mass, tol in ((0.0, 1e-12), (-30.0, 1e-12), (75.0, 1e-15)):
        n = _kernels.crvz_terms(log_mass, tol)
        assert 3 * math.exp(log_mass - n * _kernels.CRVZ_LOG_RATE) <= tol

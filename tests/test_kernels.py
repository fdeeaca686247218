"""The float kernels against small direct sums, on the branches the engine
tests reach least: complex log q, complex s in the damped double sum, and a
complex argument t of the generating series."""

import cmath
import math

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

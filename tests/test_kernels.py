"""The float kernels against small direct sums, on the branches the engine
tests reach least: complex log q, complex s in the damped double sum, and
complex arguments t of the generating series at one node; the q-series sum
of one block against one array and each term at any position, bit for
bit; the CRVZ loop against closed forms and its tabled weights against the
loop that formed them per call; and the generating series at one real node
against the array kernel."""

import cmath
import math
import random

import numpy as np
import pytest

from hbq import _kernels, characters_mod, mellin

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
    # the kernel's expression over one array; each intermediate is named, so
    # numpy evaluates every operation as written, at any length
    omq = -(math.expm1(logq) if isinstance(logq, float) else np.expm1(logq))
    period = _kernels._sign_chi_period(chi, alt)
    n = np.arange(n0, n1 + 1, dtype=np.float64)
    nl = n * logq
    coef = period[np.arange(n0, n1 + 1) % len(period)]
    em = np.expm1(nl)
    base = em / -omq
    if x:
        qn = np.exp(nl)
        xqn = x * qn
        base = base + xqn
    qpow = np.exp(nl * alpha)
    log_base = np.log(base)
    power = np.exp(-s * log_base)
    coef_q = coef * qpow
    terms = coef_q * power
    return complex(np.add.reduce(terms[:-1])), abs(complex(terms[-1]))


CHI7 = next(c for c in characters_mod(7) if c.order == 6).table  # sixth roots


# A sum of one block (up to _LEAF terms) has the bits of one array; the
# character of order 6 makes the coefficient products round.
@pytest.mark.parametrize("count", [1, 2, 9, 1000, 16_382, 16_383])
def test_qzeta_partial_sum_keeps_the_bits_of_one_array(count):
    s = complex(1.5, 3.0)
    logq_real = math.log1p(-1e-5)
    logq_complex = cmath.log(cmath.rect(1 - 1e-5, 1e-4))
    for logq, x, chi, alt, alpha in ((logq_real, 0.0, (1,), True, s - 1),
                                     (logq_real, 0.0, CHI7, False, 1.0),
                                     (logq_real, 0.7, CHI7, True, s - 1),
                                     (logq_complex, 1.7, CHI7, True, s - 1),
                                     (logq_complex, 0.0, CHI5, True, 1.0)):
        args = (logq, s, x, chi, alt, 1, 1 + count, alpha)
        body, first_omitted = _kernels.qzeta_partial_sum(*args)
        assert (body, first_omitted) == _one_array(*args)
        assert body != 0


# A term rounds alike wherever it falls: as the first omitted term of a long
# sum, past one or more blocks, and alone.  A long sum is the sum of its
# blocks, added in order.
@pytest.mark.parametrize("count", [16_383, 32_768, 32_769, 65_537, 70_001,
                                   200_003])
def test_a_term_keeps_its_bits_at_any_position(count):
    logq = cmath.log(cmath.rect(1 - 1e-5, 1e-4))
    leaf = _kernels._LEAF
    rng = random.Random(count)
    for i in range(40):
        s = complex(rng.uniform(1.1, 4.0), rng.uniform(-10.0, 10.0))
        args = (logq, s, 0.0, CHI7, True)
        body, first_omitted = _kernels.qzeta_partial_sum(*args, 1, 1 + count,
                                                         s - 1)
        alone = _kernels.qzeta_partial_sum(*args, 1 + count, 2 + count, s - 1)
        assert first_omitted == abs(alone[0])
        if i < 4 and count >= leaf:
            parts = [_kernels.qzeta_partial_sum(*args, lo, min(lo + leaf, 1 + count),
                                                s - 1)[0]
                     for lo in range(1, 1 + count, leaf)]
            assert body == sum(parts[1:], parts[0])


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


def _damped_m_series_exact(s, eps, q, odd_weights, n_count, mpmath):
    """sum_{n <= n_count} c_n sum_{m >= 1} w_m [(eps - i w)^(-s) -
    (eps + i w)^(-s)] in 30 digits, alternating, chi = CHI5: the m-terms
    are smooth in m and fall like m^(-Re s - 1), which Levin's transform
    sums to full precision."""
    with mpmath.workdps(30):
        s, eps, q = mpmath.mpmathify(s), mpmath.mpf(eps), mpmath.mpf(q)
        rows = [((-1) ** n * mpmath.mpmathify(CHI5[n % 5]) * q ** -n,
                 (q ** -n - 1) / (1 - q)) for n in range(1, n_count + 1)]

        def term(m):
            mu = 2 * m - 1 if odd_weights else m
            return sum(c * ((eps - 1j * a * mu) ** -s - (eps + 1j * a * mu) ** -s)
                       for c, a in rows) / mu

        return complex(mpmath.nsum(term, [1, mpmath.inf], method="levin"))


@pytest.mark.parametrize("odd_weights", [True, False])
@pytest.mark.parametrize("s", [2, complex(2.5, 1), 20, complex(3, 30)])
def test_damped_pair_sum_with_its_tail_is_the_infinite_m_series(s, odd_weights):
    # the m-head, the binomial tail terms j >= 1 and the term j = 0 (which
    # the product identities take over every n from the q-series) add up to
    # the whole m-series at n = 1..3
    mpmath = pytest.importorskip("mpmath")
    s, q, n_count = complex(s), 0.5, 3
    logq = math.log(q)
    m_head, tail = mellin._m_split(s, logq, odd_weights, 0.2, 1e-30)
    j0 = tail[0] * sum(
        (-1) ** n * CHI5[n % 5] * q ** -n
        * cmath.exp(-s * math.log((q ** -n - 1) / (1 - q)))
        for n in range(1, n_count + 1))
    for eps in (0.2, 0.0125):
        got = _kernels.damped_pair_sum(s, eps, logq, True, CHI5, odd_weights,
                                       m_head, n_count, tail[1:]) + j0
        exact = _damped_m_series_exact(s, eps, q, odd_weights, n_count, mpmath)
        assert abs(got - exact) <= 1e-13 * abs(exact), eps


def _gen_series_exact(t, q, alt, chi, n_used, mpmath):
    """The generating series at t in 40 digits, its first n_used terms, the
    sum of their sizes and the largest |q^(-n)[n] t| among them."""
    q, t = mpmath.mpf(q), mpmath.mpc(t)
    full = part = mpmath.mpc(0)
    size = reach = 0
    n = 0
    while True:
        n += 1
        a = (q ** -n - 1) / (1 - q)
        term = (-1 if alt and n % 2 else 1) * mpmath.mpc(chi[n % len(chi)]) \
            * q ** -n * mpmath.exp(-a * t)
        full += term
        if n <= n_used:
            part += term
            size += abs(term)
            reach = max(reach, abs(a * t))
        elif abs(term) < mpmath.mpf(10) ** -45 * (1 + abs(full)):
            return full, part, size, reach


def test_gen_series_sum_within_its_tail_at_many_nodes():
    # one array call per series over real nodes from 1e-12 to 50, and the
    # complex nodes one at a time: each node's tail bounds its truncation,
    # and its value is off the exact partial sum by rounding only,
    # eps (terms + 2 |q^(-n)[n] t|) sum |term|
    mpmath = pytest.importorskip("mpmath")
    real = [10 ** (k / 2) for k in range(-24, 4)] + [50.0]
    phased = [complex(0.7, 2.3), complex(2, -5), complex(0.05, 0.4),
              complex(1e-3, -2e-3)]
    for q in (0.3, 0.5, 0.8):
        for alt, chi in ((True, (1,)), (False, (1,)), (True, CHI5), (False, CHI5)):
            args = (math.log(q), alt, chi, 4000, 1e-12)
            rows = list(zip(real, *_kernels.gen_series_sum(real, *args)))
            rows += [(t, *_kernels.gen_node_sum(t, *args)) for t in phased]
            for t, value, tail, n in rows:
                with mpmath.workdps(40):
                    full, part, size, reach = _gen_series_exact(t, q, alt, chi,
                                                                n, mpmath)
                assert tail <= 1e-12
                assert abs(full - part) <= tail, (q, t)
                assert abs(value - part) <= 2.0 ** -52 * size * (n + 2 * reach)


def test_gen_series_sum_caps_and_underflow():
    logq = math.log(0.5)
    values, tails, counts = _kernels.gen_series_sum(
        [1e-306, 800.0, 1e-6], logq, True, (1,), 5000, 1e-12)
    # t = 1e-306 needs q^(-n) past the float range: capped there, no warning
    assert tails[0] == math.inf and 1000 < counts[0] < 1024
    # the terms at t = 800 underflow: one term, tail 0
    assert (values[1], tails[1], counts[1]) == (0j, 0.0, 1)
    assert tails[2] <= 1e-12
    # at the term cap a node keeps the sum of its first nmax terms
    (value,), (tail,), (n,) = _kernels.gen_series_sum([1e-6], logq, True, (1,),
                                                      5, 1e-12)
    assert (tail, n) == (math.inf, 5)
    direct = sum((-1) ** m * 2.0 ** m * math.exp(-(2.0 ** m - 1) * 2e-6)
                 for m in range(1, 6))
    assert abs(value - direct) < 1e-13


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


def _crvz_per_call(terms, n):
    """`crvz_sum` as it was, with its weights formed on every call."""
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    acc = 0j
    for k, a in zip(range(n), terms):
        c = b - c
        acc += c * a
        b *= 2.0 * (k + n) * (k - n) / ((2.0 * k + 1.0) * (k + 1.0))
    return acc / d


def test_crvz_weights_keep_the_bits_of_the_per_call_loop():
    # real, complex and moment sequences, shorter than n too, n up to the cap
    rng = random.Random("crvz-weights")
    for _ in range(300):
        n = rng.randint(1, _kernels.CRVZ_MAX_TERMS)
        kind = rng.randrange(3)
        if kind == 0:
            seq = [rng.uniform(-1, 1) for _ in range(n)]
        elif kind == 1:
            seq = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        else:
            t = rng.random()
            seq = [t ** k for k in range(rng.randint(1, n))]
        got = _kernels.crvz_sum(iter(seq), n)
        want = _crvz_per_call(iter(seq), n)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_gen_node_sum_matches_the_array_kernel():
    # seeded real nodes, the array kernel's domain, for the four kinds f, F,
    # f_chi and F_chi: the same term counts; tails equal up to the rounding
    # of exp (numpy's and math's differ in the last bit, which q^(-n)[n] t
    # magnifies); values within tol
    rng = random.Random("gen-node")
    chi = characters_mod(5)[1].table
    for _ in range(400):
        q = rng.uniform(0.1, 0.95)
        t = 10 ** rng.uniform(-1, 1.5)
        alt, table = rng.choice(((False, (1,)), (True, (1,)), (False, chi), (True, chi)))
        args = (math.log(q), alt, table, 1_000_000, 1e-12)
        (value,), (tail,), (n,) = _kernels.gen_series_sum([t], *args)
        node = _kernels.gen_node_sum(t, *args)
        assert node[2] == n
        assert math.isclose(node[1], tail, rel_tol=1e-12)
        assert abs(node[0] - value) <= 1e-12


def test_gen_node_sum_caps_and_underflow():
    # the array kernel's caps: past the float range, at nmax, and a node
    # whose terms underflow
    logq = math.log(0.5)
    for t, nmax in ((1e-306, 5000), (800.0, 5000), (1e-6, 5)):
        (value,), (tail,), (n,) = _kernels.gen_series_sum([t], logq, True, (1,),
                                                          nmax, 1e-12)
        assert _kernels.gen_node_sum(t, logq, True, (1,), nmax, 1e-12)[1:] == (tail, n)

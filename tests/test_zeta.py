import cmath
import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from hbq import (ConvergenceError, DomainError, digamma, genocchi_zeta, genocchi_zeta_exact,
                 hurwitz_zeta, lerch_phi, number_table, odd_power_sum,
                 riemann_zeta, zeta_star)
from hbq.zeta import _power_tail, zeta_exact_nonpositive

EULER_GAMMA = 0.5772156649015329


def test_zeta_known_constants():
    assert abs(riemann_zeta(2).value - math.pi ** 2 / 6) < 1e-10
    assert abs(riemann_zeta(4).value - math.pi ** 4 / 90) < 1e-10
    assert abs(riemann_zeta(3).value - 1.2020569031595943) < 1e-12


def test_zeta_negative_integers_exact():
    assert zeta_exact_nonpositive(-1) == Fraction(-1, 12)
    assert zeta_exact_nonpositive(0) == Fraction(-1, 2)
    assert zeta_exact_nonpositive(-2) == 0
    assert riemann_zeta(-1).value == -1.0 / 12.0
    assert riemann_zeta(-1).tail_bound == 0.0


def test_zeta_pole_rejected():
    with pytest.raises(DomainError):
        riemann_zeta(1)


def test_zeta_star_two_routes():
    assert abs(zeta_star(2).value - math.pi ** 2 / 8) < 1e-10
    for s in (2, 3, 4, 2 + 1j, 3 - 2j):
        direct = zeta_star(s, route="direct")
        ident = zeta_star(s, route="identity")
        assert abs(direct.value - ident.value) <= \
            direct.tail_bound + ident.tail_bound + 1e-10


def test_genocchi_zeta_values():
    assert abs(genocchi_zeta(2).value + math.pi ** 2 / 6) < 1e-10
    assert genocchi_zeta(-1).value == -0.5
    # entire at s = 1: -2 log 2
    assert abs(genocchi_zeta(1).value + 2 * math.log(2)) < 1e-12


def test_genocchi_zeta_continuation_sign():
    # under the adopted convention the continuation lands on +G_n/n
    g = number_table("genocchi", 8)
    for n in (2, 4, 6, 8):
        zg = genocchi_zeta_exact(1 - n)
        assert abs(zg) == abs(Fraction(g[n], n))
        assert zg == Fraction(g[n], n)


def test_genocchi_zeta_eta_relation():
    for s in (2, 3, 4, 2 + 1j, 3 - 2j):
        zg = genocchi_zeta(s).value
        zv = riemann_zeta(s).value
        rel = -2 * (1 - 2 ** (1 - complex(s))) * zv
        assert abs(zg - rel) < 1e-10


def test_hurwitz_values():
    for s in (2, 3):
        assert abs(hurwitz_zeta(s, 1).value - riemann_zeta(s).value) < 1e-10
    assert abs(hurwitz_zeta(2, 0.5).value - math.pi ** 2 / 2) < 1e-10
    brute = sum((n + 0.25) ** -3.0 for n in range(200000))
    assert abs(hurwitz_zeta(3, 0.25).value - brute) < 1e-8


def test_hurwitz_forward_difference():
    for a in (0.25, 0.5, 0.75):
        for s in (2, 3):
            lhs = hurwitz_zeta(s, a).value - hurwitz_zeta(s, a + 1).value
            assert abs(lhs - a ** -s) < 1e-10


def test_hurwitz_domain():
    with pytest.raises(DomainError):
        hurwitz_zeta(2, -1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, 0.0)


def test_imaginary_s_limits():
    # the accelerated series caps its term count at 390 and the Hurwitz
    # route takes |Im s| <= 1000; inside the limits the values hold
    with mpmath.workdps(30):
        for s in (complex(2, 300), complex(0.5, -380)):
            sv = riemann_zeta(s)
            assert abs(mpmath.mpc(sv.value) - mpmath.zeta(s)) < 1e-12
        s = complex(1.5, 1000)
        sv = hurwitz_zeta(s, 0.3)
        assert abs(mpmath.mpc(sv.value) - mpmath.zeta(s, 0.3)) < 1e-12
    for call in (lambda: riemann_zeta(complex(2, 500)),
                 lambda: genocchi_zeta(complex(0.5, -450)),
                 lambda: zeta_star(complex(2, 500)),
                 lambda: riemann_zeta(2, 1e-320),
                 lambda: hurwitz_zeta(complex(2, 1000.5), 0.5),
                 lambda: lerch_phi(1, complex(2, 2e3), 0.5)):
        with pytest.raises(DomainError):
            call()


def test_nonpositive_tol_rejected():
    for tol in (0.0, -1e-12):
        for call in (lambda: hurwitz_zeta(2, 0.5, tol),
                     lambda: lerch_phi(0.5, 2, 0.5, tol),
                     lambda: lerch_phi(0, 2, 0.5, tol),
                     lambda: odd_power_sum(0.5, 2, 1, tol),
                     lambda: odd_power_sum(0.5, 2, 2, tol,
                                           route="decomposition")):
            with pytest.raises(DomainError, match="tol must be positive"):
                call()


def test_lerch_values():
    assert lerch_phi(0, 5, 2.0).value == 2.0 ** -5
    assert abs(lerch_phi(1, 2, 0.5).value - hurwitz_zeta(2, 0.5).value) < 1e-10
    brute = sum(0.5 ** m / (m + 1.0) ** 2 for m in range(200))
    assert abs(lerch_phi(0.5, 2, 1).value - brute) < 1e-10


def test_lerch_recurrence():
    for z in (0.3, 0.7):
        for a in (0.5, 1.0):
            for s in (2, 3):
                lhs = lerch_phi(z, s, a).value
                rhs = z * lerch_phi(z, s, a + 1).value + a ** -s
                assert abs(lhs - rhs) < 1e-10


def test_odd_power_sum_routes():
    assert abs(odd_power_sum(1, 2).value - math.pi ** 2 / 8) < 1e-10
    brute = sum(0.5 ** m / (2 * m - 1.0) ** 2 for m in range(1, 200))
    assert abs(odd_power_sum(0.5, 2).value - brute) < 1e-10
    # the residue-class split agrees with the direct route once the leading
    # factor z is in place (the m-from-0 Lerch convention shifts exponents)
    for b in (1, 2, 3):
        direct = odd_power_sum(0.5, 2, b)
        split = odd_power_sum(0.5, 2, b, route="decomposition")
        assert abs(direct.value - split.value) <= \
            direct.tail_bound + split.tail_bound + 1e-12


def test_hurwitz_overflow_is_a_domain_error():
    # a^(-s) past the float range used to escape as an OverflowError from
    # cmath.exp; just inside the range the value still holds
    for s, a in ((1000, 0.1), (1e308, 0.5), (-300, 0.5)):
        with pytest.raises(DomainError, match="overflows the float range"):
            hurwitz_zeta(s, a)
    with mpmath.workdps(30):
        sv = hurwitz_zeta(300, 0.1)
        ref = mpmath.zeta(300, mpmath.mpf(0.1))
        assert abs(sv.value - complex(ref)) <= 1e-14 * float(ref)


def test_unit_circle_rule_comes_before_the_hurwitz_shortcut():
    # z = 1 with Re s <= 1 used to return the Hurwitz continuation of a
    # divergent series, with a tail bound of 4e-26
    for call in (lambda: lerch_phi(1, 0.5, 1),
                 lambda: lerch_phi(-1, 1, 1),
                 lambda: odd_power_sum(1, 0.5, route="decomposition"),
                 lambda: odd_power_sum(1, 0.5)):
        with pytest.raises(DomainError, match="needs Re\\(s\\) > 1"):
            call()


def test_lerch_family_near_and_on_the_unit_circle_fails_fast():
    # the old r < 0.95 gate never opened at 0.95 <= |z| < 1, and |z| = 1
    # ran to the 5e7-term cap (55 s) before giving up
    with mpmath.workdps(30):
        t0 = time.monotonic()
        sv = lerch_phi(0.96, 2, 0.5)
        assert abs(sv.value - complex(mpmath.lerchphi(0.96, 2, 0.5))) <= 1e-12
        z = complex(0.6, -0.78)  # |z| = 0.984
        sv = odd_power_sum(z, 3)
        ref = z * mpmath.mpf(2) ** -3 * mpmath.lerchphi(z, 3, 0.5)
        assert abs(sv.value - complex(ref)) <= 1e-12
        with pytest.raises(ConvergenceError, match="needs more than"):
            lerch_phi(-1, 2, 1)
        with pytest.raises(ConvergenceError, match="needs more than"):
            odd_power_sum(1 - 1e-9, 2)
        assert time.monotonic() - t0 < 2.0


def test_lerch_imaginary_s_limit():
    # past |Im s| = 1e4 the phases Im(s) log(m + a) keep no correct digit
    for call in (lambda: lerch_phi(0.5, complex(2, 1e4 + 1), 1),
                 lambda: lerch_phi(0, complex(2, 1e300), 1),
                 lambda: odd_power_sum(0.5, complex(2, -2e4)),
                 lambda: odd_power_sum(0.5, complex(2, 2e4), 2,
                                       route="decomposition")):
        with pytest.raises(DomainError, match="above the Lerch route's limit"):
            call()
    s, z, a = complex(2, 1e4), complex(0.3, 0.4), 1.5
    with mpmath.workdps(40):
        ref = mpmath.nsum(lambda m: mpmath.mpc(z) ** m * (m + a) ** -mpmath.mpc(s),
                          [0, mpmath.inf])
        assert abs(lerch_phi(z, s, a).value - complex(ref)) <= 1e-12
        ref = mpmath.nsum(lambda m: mpmath.mpc(z) ** m * (2 * m - 1) ** -mpmath.mpc(s),
                          [1, mpmath.inf])
        assert abs(odd_power_sum(z, s).value - complex(ref)) <= 1e-12


def test_digamma():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-10
    assert abs(digamma(0.5) + EULER_GAMMA + 2 * math.log(2)) < 1e-10
    x = 1.0 / 3.0
    assert abs(digamma(x + 1) - digamma(x) - 1 / x) < 1e-10
    for x in (0.05, 0.33, 1.7, 9.5, 42.0):
        assert abs(digamma(x) - float(mpmath.digamma(x))) < 1e-12
    with pytest.raises(DomainError):
        digamma(0.0)


def test_digamma_refuses_a_tol_its_series_cannot_reach():
    # nine asymptotic terms at y >= 12 stop at the omitted B_20 term, about
    # 6.9e-21 at y = 12; tol 1e-30 used to come back as if reached
    for x in (0.5, 1.0, 11.9):
        with pytest.raises(DomainError, match="asymptotic series stops"):
            digamma(x, 1e-30)
    # the psi rows' 1e-18 and the tols the benchmark uses stay reachable
    for tol in (1e-18, 1e-12, 1e-10):
        assert abs(digamma(0.5, tol) - float(mpmath.digamma(0.5))) <= tol + 1e-15
    # at large x the omitted term is far below any tol
    assert abs(digamma(1e6, 1e-30) - float(mpmath.digamma(1e6))) < 1e-14


def _power_series_per_term(zc, sc, tol, m0, step, offset):
    """The Lerch family's series as it was summed: the tail bound tested
    after every term."""
    acc = 0j
    zp = 1.0 + 0j
    for _ in range(m0):
        zp *= zc
    for m in itertools.count(m0):
        acc += zp * cmath.exp(-sc * math.log(step * m + offset))
        tail = _power_tail(abs(zc), sc.real, m, step, offset)
        if tail <= tol:
            return acc, tail, m - m0 + 1
        zp *= zc


def test_power_series_stop_keeps_the_per_term_loop():
    # the stop found before summing gives the bits and term counts of the
    # per-term loop: seeded points with Re s < 0, on |z| = 1 and near it
    rng = random.Random("power-series")
    for i in range(150):
        th = rng.uniform(-math.pi, math.pi)
        if i % 3 == 0:  # |z| = 1, Re s > 1
            z, s = cmath.rect(1.0, th), complex(rng.uniform(3, 6), rng.uniform(-20, 20))
            tol = 10 ** rng.uniform(-8, -6)
        else:  # |z| near 1 with Re s of both signs, or well inside
            r = 1 - 10 ** rng.uniform(-2.5, -1) if i % 3 == 1 else rng.uniform(0, 0.9)
            z, s = cmath.rect(r, th), complex(rng.uniform(-6, 6), rng.uniform(-20, 20))
            tol = 10 ** rng.uniform(-13, -6)
        a = 10 ** rng.uniform(-1, 1)
        got = lerch_phi(z, s, a, tol)
        assert repr((got.value, got.tail_bound, got.terms_used)) == \
            repr(_power_series_per_term(z, s, tol, 0, 1, a))
        if abs(z) < 1:
            got = odd_power_sum(z, s, 1, tol)
            assert repr((got.value, got.tail_bound, got.terms_used)) == \
                repr(_power_series_per_term(z, s, tol, 1, 2, -1))

"""Differential tests: the Mellin quadrature against the q-series it
transforms, and complex-s zeta values, the complex-q series, cck_zeta and
the disk q-Genocchi numbers against mpmath.  Seeded draws from each
documented domain; a few seconds in all."""

import cmath
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

import hbq


def test_mellin_transform_against_series():
    # 1 - q in [0.05, 0.9], s in [1.5, 4], Hurwitz shifts x in [1, 3];
    # the series route runs at 1e-15, far below the quadrature's 1e-11
    rng = random.Random("mellin-differential")
    chis = [chi for m in (3, 4, 5) for chi in hbq.characters_mod(m)]
    for i in range(40):
        q = hbq.QParam.real(
            Fraction(round((1 - rng.uniform(0.05, 0.9)) * 10_000), 10_000))
        s = rng.uniform(1.5, 4)
        target = ("zeta", "hurwitz", "l")[i % 3]
        if target == "zeta":
            sv = hbq.mellin_transform("F", s, q)
            ref = hbq.q_alt_zeta(s, q, 1e-15)
        elif target == "hurwitz":
            x = rng.uniform(1, 3)
            sv = hbq.mellin_transform("F", s, q, x=x)
            ref = hbq.q_alt_zeta_hurwitz(s, x, q, 1e-15)
        else:
            chi = rng.choice(chis)
            sv = hbq.mellin_transform("F_chi", s, q, chi=chi)
            ref = hbq.q_alt_l(s, chi, q, 1e-15)
        err = abs(sv.value - ref.value)
        rounding = 1e-15 * (1 + abs(ref.value))
        point = (target, str(q), s)
        assert err <= hbq.QuadratureConfig().tol, point
        assert err <= sv.tail_bound + ref.tail_bound + rounding, point


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_complex_zeta_against_mpmath(tol):
    # at tol 1e-6 the truncation dominates, so the Gamma-ratio factor of the
    # bound is what is tested; at 1e-12 rounding does, which tail_bound
    # leaves out and which grows with |s| through exp(-s log m)
    rng = random.Random(f"zeta-differential:{tol}")
    with mpmath.workdps(30):
        for _ in range(30):
            s = complex(rng.uniform(0.25, 8), rng.uniform(-25, 25))
            for sv, ref in ((hbq.riemann_zeta(s, tol), mpmath.zeta(s)),
                            (hbq.genocchi_zeta(s, tol), -2 * mpmath.altzeta(s))):
                err = float(abs(mpmath.mpc(sv.value) - ref))
                assert err <= sv.tail_bound + 1e-15 * (1 + abs(s)), s


def _disk_reference(s, q, x, chi):
    """The alternating q-series at 30 digits, term by term, with the disk
    engine's principal branches; n from 0 with a shift x, else from 1."""
    with mpmath.workdps(30):
        s, q = mpmath.mpc(s), mpmath.mpc(q)
        logq = mpmath.log(q)
        decay = abs(mpmath.exp(logq * (s - 1)))
        n = 0 if x is not None else 1
        total = mpmath.mpc(0)
        small = 0
        while small < 8:
            qn = mpmath.exp(n * logq)
            base = (1 - qn) / (1 - q) + (x or 0) * qn
            coef = (-1) ** n * (chi.table[n % chi.modulus] if chi else 1)
            term = coef * mpmath.exp(n * logq * (s - 1) - s * mpmath.log(base))
            total += term
            small = small + 1 if abs(term) < 1e-25 and decay ** n < 1e-25 else 0
            n += 1
        return complex(total)


def test_disk_series_against_mpmath():
    # |q| in [0.05, 0.9], Re s in [1.5, 4], |Im s| <= 20, shift x none or in
    # [1, 3], chi none, mod 3 or mod 5; a draw whose series does not decay,
    # or decays so slowly that the phases of q^(n(s-1)) pass the engine's
    # limit, is turned away and replaced, until 200 are summed
    rng = random.Random("disk-differential")
    chis = [None, *hbq.characters_mod(3), *hbq.characters_mod(5)]
    tol = 1e-12
    accepted = 0
    while accepted < 200:
        q = hbq.QParam.complex_disk(
            cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(-math.pi, math.pi)))
        s = complex(rng.uniform(1.5, 4), rng.uniform(-20, 20))
        x = rng.uniform(1, 3) if rng.random() < 0.5 else None
        chi = rng.choice(chis)
        try:
            if chi is None:
                sv = hbq.q_alt_zeta(s, q, tol) if x is None \
                    else hbq.q_alt_zeta_hurwitz(s, x, q, tol)
            else:
                sv = hbq.q_alt_l(s, chi, q, tol, x=x)
        except hbq.DomainError as exc:
            assert "does not decay" in str(exc) or "phase" in str(exc)
            continue
        accepted += 1
        ref = _disk_reference(s, q.value, x, chi)
        err = abs(sv.value - ref)
        point = (s, q.value, x, chi and chi.label)
        assert err <= tol, point
        assert err <= sv.tail_bound + 1e-14 * (1 + abs(ref)), point


def test_disk_series_where_the_old_loop_divided_by_zero():
    # the per-term disk loop divided by decay ** n, which underflowed to 0
    # here (Re q < 0, |Im s| >= 14) and raised ZeroDivisionError
    for s, qv in ((2 + 15j, -0.5), (2.76 + 19.94j, -0.79 + 0.097j),
                  (3.0 - 18.74j, -0.277 - 0.146j)):
        sv = hbq.q_alt_zeta(s, hbq.QParam.complex_disk(qv))
        assert abs(sv.value - _disk_reference(s, qv, None, None)) <= 1e-12


def _cck_reference(s, q, direct):
    """q(1+q) sum_{n>=1} (-1)^(n+1) q^n [n]^(-s) at 30 digits: mpmath's
    accelerated nsum, or term by term, which large |Im s| needs."""
    with mpmath.workdps(30):
        qm = mpmath.mpf(q.numerator) / q.denominator
        sm = mpmath.mpc(s)
        if not direct:
            total = mpmath.nsum(lambda n: (-1) ** (n + 1) * qm ** n
                                * ((1 - qm ** n) / (1 - qm)) ** -sm, [1, mpmath.inf])
            return complex(qm * (1 + qm) * total)
        total, qn, bracket, n = mpmath.mpc(0), mpmath.mpf(1), mpmath.mpf(0), 0
        while qn > mpmath.mpf(10) ** -26:
            n += 1
            qn *= qm
            bracket = 1 + qm * bracket
            total += (-1) ** (n + 1) * qn * mpmath.exp(-sm * mpmath.log(bracket))
        return complex(qm * (1 + qm) * total)


def test_cck_zeta_against_mpmath():
    # 1 - q log-uniform in [1e-4, 0.9], Re s in [0.25, 4], |Im s| <= 20
    rng = random.Random("cck-differential")
    tol = 1e-12
    for _ in range(30):
        q = 1 - Fraction(round(10 ** rng.uniform(0, 4.05)), 10 ** 4)
        s = complex(rng.uniform(0.25, 4), rng.uniform(-20, 20))
        sv = hbq.cck_zeta(s, hbq.QParam.real(q), tol)
        ref = _cck_reference(s, q, direct=False)
        err = abs(sv.value - ref)
        assert err <= tol, (s, str(q))
        assert err <= sv.tail_bound + 1e-14 * (1 + abs(ref)), (s, str(q))


def test_cck_zeta_at_the_imaginary_limit():
    # |Im s| = 1e4 with 1 - q log-uniform in [0.01, 0.9]: the phases
    # Im(s) log[n] carry the rounding of log q = log(num) - log(den), which
    # tail_bound leaves out; it grows like |Im s| / (1 - q), up to 5e-11 on
    # 40 such points
    rng = random.Random("cck-differential-limit")
    for _ in range(5):
        q = 1 - Fraction(round(10 ** rng.uniform(2, 3.95)), 10 ** 4)
        s = complex(rng.uniform(0.25, 4), rng.choice((-1e4, 1e4)))
        sv = hbq.cck_zeta(s, hbq.QParam.real(q))
        assert abs(sv.value - _cck_reference(s, q, direct=True)) <= 1e-10, (s, str(q))


def test_disk_q_genocchi_against_mpmath():
    # |q| in [0.05, 0.5], m in 2..8, term by term at 30 digits
    rng = random.Random("qgenocchi-disk")
    tol = 1e-12
    for _ in range(40):
        qv = cmath.rect(rng.uniform(0.05, 0.5), rng.uniform(-math.pi, math.pi))
        m = rng.randint(2, 8)
        sv = hbq.q_genocchi_number(m, hbq.QParam.complex_disk(qv), tol)
        with mpmath.workdps(30):
            q = mpmath.mpc(qv)
            total, qn, bracket = mpmath.mpc(0), mpmath.mpc(1), mpmath.mpc(0)
            for n in range(1, 120):
                qn *= q
                bracket = 1 + q * bracket
                total += (-1) ** n * qn * bracket ** (m - 1)
            ref = complex((1 + q) * m * total)
        err = abs(sv.value - ref)
        assert err <= tol, (m, qv)
        assert err <= sv.tail_bound + 1e-14 * (1 + abs(ref)), (m, qv)


def test_disk_q_genocchi_near_one_fails_fast():
    # 7.2e7 terms: the old loop spun to its 1e7-term cap for 13 s
    start = time.perf_counter()
    with pytest.raises(hbq.ConvergenceError, match="above the cap"):
        hbq.q_genocchi_number(3, hbq.QParam.complex_disk(0.999999))
    assert time.perf_counter() - start < 1.0

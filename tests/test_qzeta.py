import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from hbq import (ConvergenceError, DomainError, QParam, cck_zeta, characters_mod, chi_eval,
                 genocchi_zeta, q_alt_l, q_alt_zeta, q_alt_zeta_hurwitz,
                 q_plain_zeta, qzeta, verify_conductor_decomposition)
from hbq.core import QRegime

Q_HALF = QParam.real(Fraction(1, 2))
Q_NEAR_ONE = QParam.real(Fraction(99999, 100000))  # 1 - q = 1e-5


def _direct(monkeypatch, call):
    """call() with the CRVZ route switched off, so the direct sum runs."""
    with monkeypatch.context() as m:
        m.setattr(qzeta, "_crvz", lambda *args: None)
        return call()


def _brute_alt(s, qv, n_max=400, chi=None, x=None):
    # direct partial sums of the defining series, n from 1
    acc = 0j
    for n in range(1, n_max):
        qin = (1.0 / qv) ** n
        br = (1.0 - qv ** n) / (1.0 - qv)
        cv = chi_eval(chi, n) if chi is not None else 1.0
        acc += (-1) ** n * cv * qin / (qin * br + (x or 0.0)) ** s
    return acc


def test_alt_zeta_against_partial_sums():
    # first terms of the defining series at q = 1/2, s = 2:
    # -1/2 + 1/9 - 2/49 + 4/225 - ...
    t1 = -1 * 2 / (2 * 1) ** 2
    assert t1 == -0.5
    assert abs(4 / 36 - 1 / 9) < 1e-15
    sv = q_alt_zeta(2, Q_HALF)
    brute = _brute_alt(2, 0.5)
    assert abs(sv.value - brute) < 1e-12
    assert abs(sv.value - (-0.4176)) < 1e-3
    assert sv.tail_bound <= 1e-12


def test_alt_zeta_genocchi_scale():
    a = q_alt_zeta(2, Q_HALF, genocchi_scale=True).value
    b = 1.5 * q_alt_zeta(2, Q_HALF).value
    assert a == b


def test_alt_zeta_q_to_one_trend():
    for s in (2, 3):
        target = genocchi_zeta(s).value / 2.0  # sum (-1)^n n^(-s)
        dists = []
        for k in (2, 3, 4):
            q = QParam.real(1 - Fraction(1, 10 ** k))
            dists.append(abs(q_alt_zeta(s, q, 1e-10).value - target))
        assert all(a > b for a, b in zip(dists, dists[1:]))


def test_alt_zeta_domain():
    with pytest.raises(DomainError):
        q_alt_zeta(1, Q_HALF)
    with pytest.raises(DomainError):
        q_alt_zeta(2, QParam.one())
    with pytest.raises(DomainError):
        q_alt_zeta(2, Q_HALF, tol=-1)


def test_hurwitz_additive():
    sv = q_alt_zeta_hurwitz(2, 0.5, Q_HALF)
    brute = 0.5 ** -2.0 + _brute_alt(2, 0.5, x=0.5)
    assert abs(sv.value - brute) < 1e-10
    # n = 0 term split: subtracting x^(-s) leaves the n >= 1 remainder
    rem = sv.value - 0.5 ** -2.0
    assert abs(rem - _brute_alt(2, 0.5, x=0.5)) < 1e-10
    # shifts beyond 1 are legal (the conductor decomposition needs them)
    assert q_alt_zeta_hurwitz(2, 1.25, Q_HALF).tail_bound <= 1e-12


def test_hurwitz_bracket_x1_relation():
    # at x = 1 both variants agree and equal -q^(1-s) times the plain series,
    # not the plain series itself
    s = 2
    b = q_alt_zeta_hurwitz(s, 1.0, Q_HALF, variant="bracket").value
    a = q_alt_zeta_hurwitz(s, 1.0, Q_HALF, variant="additive").value
    plain = q_alt_zeta(s, Q_HALF).value
    assert abs(a - b) < 1e-12
    assert abs(a - (-(0.5 ** (1 - s)) * plain)) < 1e-11
    assert abs(a - plain) > 0.1


def test_l_series():
    one = characters_mod(1)[0]
    for s in (2, 3, 2.5):
        for qv in (Fraction(1, 2), Fraction(1, 3), Fraction(7, 10)):
            q = QParam.real(qv)
            lv = q_alt_l(s, one, q)
            zv = q_alt_zeta(s, q)
            assert abs(lv.value - zv.value) <= lv.tail_bound + zv.tail_bound + 1e-15
    chi4 = characters_mod(4)[1]
    got = q_alt_l(2, chi4, Q_HALF)
    brute = _brute_alt(2, 0.5, chi=chi4)
    assert abs(got.value - brute) < 1e-10


def test_l_series_two_variable():
    chi4 = characters_mod(4)[1]
    with_x = q_alt_l(2, chi4, Q_HALF, x=1.0).value
    without = q_alt_l(2, chi4, Q_HALF).value
    # the difference is the n = 0 treatment plus the shifted base; both are
    # finite and reportable, not equal
    assert abs(with_x - without) > 1e-3
    brute = sum((-1) ** n * chi_eval(chi4, n) * (2.0 ** n)
                / ((2.0 ** n) * (1 - 0.5 ** n) / 0.5 + 1.0) ** 2
                for n in range(0, 200))
    assert abs(with_x - brute) < 1e-10


def test_convergence_certificate(monkeypatch):
    # the CRVZ route against the direct route: fewer terms, and the two
    # values within the sum of their bounds
    for s in (2, 3):
        for qv in (Fraction(1, 2), Fraction(4, 5)):
            q = QParam.real(qv)
            crvz = q_alt_zeta(s, q, 1e-10)
            direct = _direct(monkeypatch, lambda: q_alt_zeta(s, q, 1e-10))
            assert crvz.terms_used < direct.terms_used
            assert abs(crvz.value - direct.value) <= crvz.tail_bound + direct.tail_bound


def test_antiperiods():
    # P = 1 for the plain alternating series, the period of chi for an odd
    # modulus (f for mod 3 and 5, 3 for the two characters mod 9 that come
    # from mod 3), 2 for the nonprincipal character mod 4, with or without
    # the sign; none for the plain series and the principal character mod 4
    chi4 = characters_mod(4)
    assert qzeta._antiperiod((1,), True) == (-1,)
    for chi in characters_mod(3) + characters_mod(5) + characters_mod(9):
        coef = qzeta._antiperiod(chi.table, True)
        p = len(coef)
        f = chi.modulus
        assert p == min(d for d in range(1, f + 1)
                        if all(chi.table[n] == chi.table[(n + d) % f] for n in range(f)))
        assert all(abs((-1) ** n * chi_eval(chi, n) - (-1) ** (n // p)
                       * coef[(n - 1) % p]) < 1e-15 for n in range(1, 40))
    assert qzeta._antiperiod(chi4[1].table, True) == (-1, 0)
    assert qzeta._antiperiod(chi4[1].table, False) == (1, 0)
    assert qzeta._antiperiod((1,), False) is None
    assert qzeta._antiperiod(chi4[0].table, True) is None


def test_crvz_against_direct_seeded(monkeypatch):
    # real s, every character mod 1..12, shifts with 1 - x(1-q) > 0, all
    # five families; 1 - q log-uniform in [1e-3, 0.5]
    rng = random.Random("crvz-vs-direct")
    chis = [chi for f in range(1, 13) for chi in characters_mod(f)]
    crvz_runs = 0
    for i in range(160):
        q = QParam.real(1 - Fraction(round(10 ** rng.uniform(0, 2.7)), 1000))
        s = rng.uniform(1.2, 4)
        chi = rng.choice(chis)
        x = rng.uniform(0.05, 3) if rng.random() < 0.5 else None
        call = (lambda: q_alt_zeta(s, q),
                lambda: q_alt_zeta_hurwitz(s, x or 1.0, q),
                lambda: q_alt_l(s, chi, q, x=x),
                lambda: q_plain_zeta(s, q, chi=chi),
                lambda: cck_zeta(s, q))[i % 5]
        got = call()
        ref = _direct(monkeypatch, call)
        crvz_runs += got.terms_used != ref.terms_used
        assert got.tail_bound <= 1e-12
        err = abs(got.value - ref.value)
        assert err <= got.tail_bound + ref.tail_bound + 1e-14 * (1 + abs(ref.value)), (i, s, str(q.value))
    assert crvz_runs >= 100


def _mp_series(qv: Fraction, s, alpha=None, odd_only=False, x=0):
    """sum_{n>=1} (-1)^n q^(n alpha) [n]^(-s), or with odd_only the series
    twisted by the nonprincipal character mod 4, -sum_m (-1)^m g(2m+1), or
    with a shift x the bracket variant sum_{n>=0} (-1)^n q^(n alpha)
    [n+x]^(-s), by mpmath's Richardson-Shanks extrapolation at 30 digits."""
    with mpmath.workdps(30):
        q = mpmath.mpf(qv.numerator) / qv.denominator
        s = mpmath.mpmathify(s)
        a = s - 1 if alpha is None else mpmath.mpmathify(alpha)

        def g(n):
            return q ** (n * a) * ((1 - q ** (n + x)) / (1 - q)) ** -s
        if odd_only:
            return -mpmath.nsum(lambda m: (-1) ** m * g(2 * m + 1), [0, mpmath.inf])
        return mpmath.nsum(lambda n: (-1) ** n * g(n), [0 if x else 1, mpmath.inf])


def test_crvz_near_one_against_mpmath():
    # 1 - q = 1e-5, where the direct sum needed 4 to 8 million terms
    qv = Q_NEAR_ONE.value
    chi4 = characters_mod(4)[1]
    pref = float(qv) * (1 + float(qv))
    cases = []
    for s in (1.5, 2):
        cases += [(q_alt_zeta(s, Q_NEAR_ONE), _mp_series(qv, s)),
                  (q_alt_l(s, chi4, Q_NEAR_ONE), _mp_series(qv, s, odd_only=True)),
                  (cck_zeta(s, Q_NEAR_ONE), -pref * _mp_series(qv, s, alpha=1))]
    cases.append((cck_zeta(complex(1.5, 8), Q_NEAR_ONE),
                  -pref * _mp_series(qv, complex(1.5, 8), alpha=1)))
    for sv, ref in cases:
        assert sv.terms_used < 100
        assert abs(sv.value - complex(ref)) <= sv.tail_bound + 1e-15


def test_complex_s_crvz_against_direct_seeded(monkeypatch):
    # complex s with 0.1 <= |Im s| <= 40, every character mod 1..12, shifts
    # with 1 - x(1-q) > 0, the four q-series families; 1 - q log-uniform in
    # [1e-3, 0.5]; the CRVZ route runs wherever |theta| <= pi/2 and it
    # needs fewer terms
    rng = random.Random("complex-crvz-vs-direct")
    chis = [chi for f in range(1, 13) for chi in characters_mod(f)]
    crvz_runs = 0
    for i in range(120):
        q = QParam.real(1 - Fraction(round(10 ** rng.uniform(0, 2.7)), 1000))
        s = complex(rng.uniform(1.2, 4),
                    rng.choice((-1, 1)) * 10 ** rng.uniform(-1, math.log10(40)))
        chi = rng.choice(chis)
        x = rng.uniform(0.05, 3) if rng.random() < 0.5 else None
        call = (lambda: q_alt_zeta(s, q),
                lambda: q_alt_zeta_hurwitz(s, x or 1.0, q),
                lambda: q_alt_l(s, chi, q, x=x),
                lambda: q_plain_zeta(s, q, chi=chi))[i % 4]
        got = call()
        ref = _direct(monkeypatch, call)
        crvz_runs += got.terms_used != ref.terms_used
        assert got.tail_bound <= 1e-12
        err = abs(got.value - ref.value)
        assert err <= got.tail_bound + ref.tail_bound + 1e-14 * (1 + abs(ref.value)), (i, s, str(q.value))
    assert crvz_runs >= 60


def test_complex_s_crvz_against_mpmath():
    # 1 - q = 1e-5, where the direct sum needs 1.6 to 8.1 million terms;
    # |Im s| = 40 at q = 99/100; two points at q = 1/2 near the edge
    # |theta| = pi/2 of the route
    qv = Q_NEAR_ONE.value
    chi4 = characters_mod(4)[1]
    cases = []
    for s in (complex(1.5, 7), complex(2, -3), complex(3.5, 10)):
        cases += [(q_alt_zeta(s, Q_NEAR_ONE), _mp_series(qv, s)),
                  (q_alt_l(s, chi4, Q_NEAR_ONE), _mp_series(qv, s, odd_only=True))]
    cases.append((q_alt_zeta_hurwitz(complex(1.5, 7), 0.5, Q_NEAR_ONE, variant="bracket"),
                  _mp_series(qv, complex(1.5, 7), x=mpmath.mpf(0.5))))
    for sv, ref in cases:
        assert sv.terms_used < 100
        assert abs(sv.value - complex(ref)) <= sv.tail_bound
    q = QParam.real(Fraction(99, 100))
    for s in (complex(2, 40), complex(1.5, -40)):
        sv = q_alt_zeta(s, q)
        assert sv.terms_used < 400  # the direct sum takes 3,279 and 6,693
        assert abs(sv.value - complex(_mp_series(q.value, s))) <= sv.tail_bound
    log_half = math.log(0.5)
    for s in (complex(1.05, 2.2), complex(1.05, -2.25)):  # theta = -1.525, 1.560
        assert 1.5 < abs(s.imag * log_half) < math.pi / 2
        sv = q_alt_zeta(s, Q_HALF)
        assert sv.terms_used < 200  # the direct sum takes 795
        assert abs(sv.value - complex(_mp_series(Q_HALF.value, s))) <= sv.tail_bound


def test_crvz_ellipse_factor():
    # rho = 1 on [0, 1], so real alpha keeps the plain CRVZ rate; rho grows
    # with |theta| up to 4.62 < 3 + sqrt 8 at pi/2, where the route stops
    assert qzeta._ellipse_log_rho(0.0) == 0.0
    thetas = [k * math.pi / 40 for k in range(1, 21)]
    logs = [qzeta._ellipse_log_rho(th) for th in thetas]
    assert all(0 < a < b for a, b in zip(logs, logs[1:]))
    assert all(qzeta._ellipse_log_rho(-th) == pytest.approx(v, rel=1e-12)
               for th, v in zip(thetas, logs))
    assert math.exp(logs[-1]) == pytest.approx(4.6116, abs=1e-4)
    log_half = math.log(0.5)
    for theta, takes in ((math.pi / 2 - 1e-3, True), (math.pi / 2 + 1e-3, False)):
        alpha = complex(0.5, theta / log_half)
        got = qzeta._crvz(alpha + 1, 0.0, (1,), True, alpha, log_half, 1e-12, 10 ** 6)
        assert (got is not None) == takes


def test_bracket_shift_near_one_against_mpmath():
    # [x] formed as (1 - q^x)/(1 - q) in floats cancels as q nears 1, 9.2e-12
    # off mpmath here; from expm1 of log q it is 4.4e-16 off
    tol = 1e-12
    for s, x in ((2, 0.5), (1.5, 2.5)):
        sv = q_alt_zeta_hurwitz(s, x, Q_NEAR_ONE, tol, variant="bracket")
        ref = _mp_series(Q_NEAR_ONE.value, s, x=mpmath.mpf(x))
        assert abs(sv.value - complex(ref)) <= tol, (s, x)


def test_direct_route_fallbacks(monkeypatch):
    # the plain series and the principal character mod 4 (no antiperiod),
    # at real and complex s, the complex-s q-series whose nodes leave the
    # sector |theta| <= pi/2, and shifts with 1 - x(1-q) < 0 stay on the
    # direct sum, with its term count
    q = QParam.real(Fraction(7, 10))
    for call in (lambda: q_plain_zeta(complex(2, 1), q),
                 lambda: q_alt_l(complex(2, 1), characters_mod(4)[0], q),
                 lambda: q_alt_zeta(complex(2, 5), q),  # theta = -1.78
                 lambda: q_plain_zeta(2, q),
                 lambda: q_alt_l(2, characters_mod(4)[0], q),
                 lambda: q_alt_zeta_hurwitz(2, 3.5, q),
                 lambda: q_alt_zeta_hurwitz(2, 5.0, q)):
        got = call()
        ref = _direct(monkeypatch, call)
        assert got.terms_used == ref.terms_used > 40
        assert got.value == ref.value
    # the complex-s q-series inside the sector now takes the CRVZ route
    got = q_alt_zeta(complex(2, 1), q)
    ref = _direct(monkeypatch, lambda: q_alt_zeta(complex(2, 1), q))
    assert got.terms_used < ref.terms_used
    assert abs(got.value - ref.value) <= got.tail_bound + ref.tail_bound


def _route(monkeypatch, py_terms, call):
    """call() with every direct sum of at most py_terms terms on the short
    route, and the rest on the array kernel."""
    with monkeypatch.context() as m:
        m.setattr(qzeta, "_PY_TERMS", py_terms)
        return call()


def _tol_for(call, n):
    """A tol at which call(tol) sums exactly n terms, by bisection on log tol
    (the term count falls as tol grows)."""
    lo, hi = -300.0, 0.0  # log10 tol: n terms or more at lo, fewer at hi
    for _ in range(80):
        mid = (lo + hi) / 2
        if call(10.0 ** mid).terms_used >= n:
            lo = mid
        else:
            hi = mid
    assert call(10.0 ** lo).terms_used == n
    return 10.0 ** lo


# (q, x, chi): real and disk q, with and without a shift and a character,
# each reaching 64 terms near tol 1e-12
_SHORT_CASES = (
    (QParam.real(Fraction(3, 4)), None, None),
    (QParam.real(Fraction(3, 4)), 0.6, characters_mod(5)[1]),
    (QParam.complex_disk(cmath.rect(0.8, 0.1)), None, characters_mod(4)[1]),
    (QParam.complex_disk(cmath.rect(0.85, 0.2)), 1.3, None),
)


@pytest.mark.parametrize("q, x, chi", _SHORT_CASES)
def test_short_route_at_its_boundary(monkeypatch, q, x, chi):
    # at _PY_TERMS - 1, _PY_TERMS and _PY_TERMS + 1 terms the two routes
    # agree within tol, and the engine takes the short route up to
    # _PY_TERMS terms; the plain series has no antiperiod, so no CRVZ
    s = complex(2.5, 1.5)

    def call(tol):
        return qzeta._alt_series(s, q, x, chi, tol, alternating=False)

    kernel_calls = []
    monkeypatch.setattr(qzeta._kernels, "qzeta_partial_sum",
                        lambda *a, f=qzeta._kernels.qzeta_partial_sum:
                        kernel_calls.append(a) or f(*a))
    for n in (qzeta._PY_TERMS - 1, qzeta._PY_TERMS, qzeta._PY_TERMS + 1):
        tol = _tol_for(call, n)
        kernel_calls.clear()
        got = call(tol)
        assert bool(kernel_calls) == (n > qzeta._PY_TERMS)
        short = _route(monkeypatch, n, lambda: call(tol))
        array = _route(monkeypatch, n - 1, lambda: call(tol))
        assert short.terms_used == array.terms_used == got.terms_used == n
        assert short.tail_bound == array.tail_bound
        assert abs(short.value - array.value) <= tol


def _mp_direct(s, q, x, chi, alternating):
    """sum sign^n chi(n) q^(n(s-1)) ([n] + x q^n)^(-s), n from 0 with a
    shift x, else from 1, at 30 digits, term by term until |q^(n(s-1))| is
    below 1e-40; and the sum of |term|."""
    with mpmath.workdps(30):
        if q.regime is QRegime.REAL_UNIT:
            qm = mpmath.mpf(q.value.numerator) / q.value.denominator
        else:
            qm = mpmath.mpc(complex(q.value))
        s = mpmath.mpmathify(s)
        table = (1,) if chi is None else chi.table
        total, size = mpmath.mpc(0), mpmath.mpf(0)
        n = 0 if x is not None else 1
        while True:
            base = (1 - qm ** n) / (1 - qm) + (x or 0) * qm ** n
            qpow = mpmath.exp(n * (s - 1) * mpmath.log(qm)) if n else 1
            term = (-1 if alternating and n % 2 else 1) * mpmath.mpmathify(
                table[n % len(table)]) * qpow * mpmath.exp(-s * mpmath.log(base))
            total += term
            size += abs(term)
            if n > 2 and abs(qpow) < mpmath.mpf(10) ** -40:
                return complex(total), float(size)
            n += 1


def test_short_route_against_a_30_digit_sum(monkeypatch):
    # seeded real and disk q, shifts and characters, CRVZ off: each value is
    # within its tail bound plus rounding, 8 eps (1 + |s|) sum |term|, of the
    # series summed directly at 30 digits (not mpmath.nsum, whose
    # extrapolation misreads periodic coefficients)
    monkeypatch.setattr(qzeta, "_crvz", lambda *args: None)
    rng = random.Random("short-route")
    checked = 0
    while checked < 60:
        if rng.random() < 0.5:
            q = QParam.real(Fraction(rng.randint(5, 80), 100))
        else:
            q = QParam.complex_disk(cmath.rect(rng.uniform(0.05, 0.7),
                                               rng.uniform(-math.pi, math.pi)))
        s = complex(rng.uniform(1.5, 4), rng.choice((0.0, rng.uniform(-10, 10))))
        x = rng.choice((None, rng.uniform(0.1, 2)))
        chi = rng.choice((None, characters_mod(5)[rng.randrange(4)],
                          characters_mod(4)[1]))
        alternating = rng.random() < 0.5
        try:
            sv = qzeta._alt_series(s, q, x, chi, 1e-12, alternating)
        except DomainError:  # no decay at this (s, q) on the disk
            continue
        if sv.terms_used > qzeta._PY_TERMS:
            continue
        ref, size = _mp_direct(s, q, x, chi, alternating)
        rounding = 8 * 2.0 ** -52 * (1 + abs(s)) * size
        assert abs(sv.value - ref) <= sv.tail_bound + rounding, (s, q, x, chi)
        checked += 1


@pytest.mark.parametrize("short", [True, False])
def test_consistency_check_still_raises(monkeypatch, short):
    # the first omitted term moved above the majorant fails the stop rule's
    # check, on the short route (44 terms) and on the array kernel
    if short:
        terms = qzeta._class_terms

        def moved(*args):
            *head, last = terms(*args)
            return iter(head + [last * 1e6])
        monkeypatch.setattr(qzeta, "_class_terms", moved)
    else:
        monkeypatch.setattr(qzeta, "_PY_TERMS", 0)
        kernel = qzeta._kernels.qzeta_partial_sum
        monkeypatch.setattr(qzeta._kernels, "qzeta_partial_sum",
                            lambda *a: (kernel(*a)[0], kernel(*a)[1] * 1e6))
    with pytest.raises(ConvergenceError, match="consistency check"):
        q_plain_zeta(2, Q_HALF)


def test_complex_disk_regime():
    qc = QParam.complex_disk(0.3 + 0.1j)
    # the one engine serves the plain series on the disk too
    for sign, series in ((-1, q_alt_zeta), (1, q_plain_zeta)):
        sv = series(2, qc, 1e-10)
        brute = sum(sign ** n * (1 / (0.3 + 0.1j)) ** n
                    * ((1 / (0.3 + 0.1j)) ** n * (1 - (0.3 + 0.1j) ** n)
                       / (1 - (0.3 + 0.1j))) ** -2.0
                    for n in range(1, 300))
        assert abs(sv.value - brute) <= sv.tail_bound + 1e-10


def test_complex_q_zero():
    # every term with n >= 1 carries q^(n(s-1)) = 0 when Re s > 1; the
    # Hurwitz shift keeps its n = 0 term x^(-s); for Re s <= 1 the terms
    # do not decay
    zero = QParam.complex_disk(0)
    sv = q_alt_zeta(2, zero)
    assert sv.value == 0 and sv.tail_bound == 0
    assert q_alt_zeta_hurwitz(2, 0.5, zero).value == 4
    assert q_alt_l(2, characters_mod(4)[1], zero).value == 0
    with pytest.raises(DomainError, match="does not decay"):
        q_alt_zeta(0.5, zero)


def test_imaginary_s_and_phase_limits():
    # |Im s| past 1000 (1e4 for cck) used to be certified with no correct
    # digit, e.g. tail_bound 5.7e-14 at Im s = 1e300
    for call in (lambda: q_alt_zeta(complex(2, 1e300), Q_HALF),
                 lambda: q_alt_zeta(complex(2, 1000.5), Q_HALF),
                 lambda: q_alt_zeta(complex(2, 1001), QParam.complex_disk(0.5j)),
                 lambda: cck_zeta(complex(2, 1e300), Q_HALF),
                 lambda: cck_zeta(complex(2, -10001), Q_HALF)):
        with pytest.raises(DomainError, match="route's limit"):
            call()
    # near Re s = 1 the phase n Im(s) log q grows past its limit first
    with pytest.raises(DomainError, match="phase of q"):
        q_alt_zeta(complex(1.05, 900), Q_HALF)
    # inside the limits the values hold
    with mpmath.workdps(40):
        q = mpmath.mpf(1) / 2
        for s in (complex(2, 1000), complex(3.5, -640)):
            sm = mpmath.mpc(s)
            ref = mpmath.nsum(lambda n: (-1) ** n * q ** (n * (sm - 1))
                              * ((1 - q ** n) / (1 - q)) ** -sm, [1, mpmath.inf])
            assert abs(q_alt_zeta(s, Q_HALF).value - complex(ref)) < 1e-12
        s = mpmath.mpc(2, 1e4)
        ref = q * (1 + q) * mpmath.nsum(
            lambda n: (-1) ** (n + 1) * q ** n * ((1 - q ** n) / (1 - q)) ** -s,
            [1, mpmath.inf])
        assert abs(cck_zeta(complex(s), Q_HALF).value - complex(ref)) < 1e-12


def test_term_count_is_checked_before_summing():
    # 1 - q = 1e-7 at Re s = 1.5 needs about 9e8 direct terms, three minutes
    # at 0.2 s a million; the plain series has no antiperiod, so the direct
    # sum is its only route
    q = QParam.real(1 - Fraction(1, 10 ** 7))
    with pytest.raises(ConvergenceError, match="above the cap"):
        q_plain_zeta(complex(1.5, 1), q)
    # the alternating series takes the CRVZ route, at real s (19 terms) and
    # at complex s (22 terms)
    for s in (1.5, complex(1.5, 1)):
        sv = q_alt_zeta(s, q)
        assert sv.terms_used < 100
        assert abs(sv.value - complex(_mp_series(q.value, s))) <= sv.tail_bound


def test_direct_sums_past_the_crvz_cap_stay_small():
    # at 1 - q = 1e-4 both take the direct sum, 764,517 and 382,258 terms;
    # one array of them traced 67 and 34 MB, blocks of 32K terms in buffers
    # made once per call 3.8 MB
    q = QParam.real(1 - Fraction(1, 10 ** 4))
    q_plain_zeta(complex(2, 1), Q_HALF)  # numpy imported outside the trace
    for call, s, terms in ((q_plain_zeta, complex(1.5, 1), 764_517),
                           (cck_zeta, complex(2, 100), 382_258)):
        tracemalloc.start()
        try:
            sv = call(s, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sv.terms_used == terms
        assert peak < 8e6, peak


def test_overflowing_terms_are_domain_errors():
    # x^(-s) used to escape as an OverflowError from cmath.exp; on the disk
    # the base 1 + q = 0.1 of n = 2 puts 0.1^(-400) past the float range
    with pytest.raises(DomainError, match="overflows the float range"):
        q_alt_zeta_hurwitz(2, 1e-300, Q_HALF)
    with pytest.raises(DomainError, match="overflow the float range"):
        q_alt_zeta(400, QParam.complex_disk(-0.9))


def test_cck_zeta():
    sv = cck_zeta(2, Q_HALF)
    brute = 0.5 * 1.5 * sum((-1) ** (n + 1) * 0.5 ** n
                            / ((1 - 0.5 ** n) / 0.5) ** 2
                            for n in range(1, 200))
    assert abs(sv.value - brute) < 1e-12
    # first term is positive for real s, 0 < q < 1
    assert cck_zeta(2, Q_HALF).value.real > 0
    # a genuinely different deformation from the scaled alternating series
    other = q_alt_zeta(2, Q_HALF, genocchi_scale=True).value
    assert abs(sv.value - other) > 0.1


def test_plain_zeta():
    sv = q_plain_zeta(2, Q_HALF)
    brute = sum(0.5 ** (n * (2 - 1)) * ((1 - 0.5 ** n) / 0.5) ** -2.0
                for n in range(1, 200))
    assert abs(sv.value - brute) < 1e-12


def test_decomposition_one_variable():
    chi3 = characters_mod(3)[1]
    out = verify_conductor_decomposition(2, chi3, Q_HALF, 1e-10)
    assert out.passed
    out = verify_conductor_decomposition(3, characters_mod(5)[0],
                                         QParam.real(Fraction(1, 3)), 1e-10)
    assert out.passed
    # f = 1 collapses to an index shift of the plain series
    out = verify_conductor_decomposition(2, characters_mod(1)[0], Q_HALF, 1e-10)
    assert out.passed


def test_decomposition_rejects_even_conductor():
    chi4 = characters_mod(4)[1]
    with pytest.raises(DomainError):
        verify_conductor_decomposition(2, chi4, Q_HALF)
    with pytest.raises(DomainError):
        verify_conductor_decomposition(2, chi4, Q_HALF, x=0.5)


def test_decomposition_two_variable():
    chi3 = characters_mod(3)[1]
    out = verify_conductor_decomposition(2, chi3, Q_HALF, 1e-10, x=0.25)
    assert out.passed
    out = verify_conductor_decomposition(
        2.5, characters_mod(3)[0], QParam.real(Fraction(2, 5)), 1e-8, x=0.5)
    assert out.passed


def test_two_variable_degenerates_to_one_variable():
    # as x -> 0 the shifted left side collapses onto the plain l-series
    # (the n = 0 term carries chi(0) = 0 for f > 1)
    chi3 = characters_mod(3)[1]
    shifted = q_alt_l(2, chi3, Q_HALF, x=1e-8).value
    plain = q_alt_l(2, chi3, Q_HALF).value
    assert abs(shifted - plain) < 1e-6

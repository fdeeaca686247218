from fractions import Fraction

import pytest

from hbq import (ConvergenceError, DomainError, QParam, cck_zeta, characters_mod, chi_eval,
                 genocchi_zeta, q_alt_l, q_alt_zeta, q_alt_zeta_hurwitz,
                 q_plain_zeta, verify_conductor_decomposition)

Q_HALF = QParam.real(Fraction(1, 2))


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


def test_convergence_certificate():
    # doubling the number of terms moves the value by less than the bound
    for s in (2, 3):
        for qv in (Fraction(1, 2), Fraction(4, 5)):
            q = QParam.real(qv)
            base = q_alt_zeta(s, q, 1e-10)
            more = q_alt_zeta(s, q, 1e-10, min_terms=2 * base.terms_used)
            assert abs(base.value - more.value) <= base.tail_bound


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
    import mpmath
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
    # 1 - q = 1e-7 at Re s = 1.5 needs about 9e8 terms, 14 GB of arrays
    with pytest.raises(ConvergenceError, match="above the cap"):
        q_alt_zeta(1.5, QParam.real(1 - Fraction(1, 10 ** 7)))


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

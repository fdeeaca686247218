from fractions import Fraction

import pytest

import hbq
from hbq import DomainError, QParam, QRegime, qbracket, sawtooth


def test_qbracket_examples():
    q = QParam.real(Fraction(1, 2))
    assert qbracket(0, q) == 0
    assert qbracket(1, q) == 1
    assert qbracket(1, QParam.real(Fraction(2, 3))) == 1
    assert qbracket(3, q) == Fraction(7, 4)  # (1 - 1/8) / (1/2)
    assert qbracket(5, QParam.one()) == 5


def test_qbracket_shift_identity_exact():
    # [n + x] = [n] + q^n [x], exactly, over the full grid
    for qv in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        q = QParam.real(qv)
        for n in range(21):
            for x in range(21):
                assert qbracket(n + x, q) == qbracket(n, q) + qv ** n * qbracket(x, q)


def test_qbracket_base_change_identity_exact():
    # [a + m f] = [m : q^f][f] + q^(m f)[a]
    qv = Fraction(1, 2)
    for a in range(1, 9):
        for m in range(1, 9):
            for f in range(1, 9):
                lhs = qbracket(a + m * f, QParam.real(qv))
                rhs = qbracket(m, QParam.real(qv ** f)) * qbracket(f, QParam.real(qv)) \
                    + qv ** (m * f) * qbracket(a, QParam.real(qv))
                assert lhs == rhs


def test_qbracket_continuity_toward_one():
    for n in range(2, 11):
        dists = []
        for k in range(2, 7):
            qv = 1 - Fraction(1, 10 ** k)
            dists.append(abs(qbracket(n, QParam.real(qv)) - n))
        assert all(a > b for a, b in zip(dists, dists[1:]))
    # n = 0, 1 are exact at every q
    for k in range(2, 7):
        q = QParam.real(1 - Fraction(1, 10 ** k))
        assert qbracket(0, q) == 0 and qbracket(1, q) == 1


def test_qbracket_rejects_negative_n():
    with pytest.raises(DomainError):
        qbracket(-1, QParam.real(Fraction(1, 2)))


def test_sawtooth_values():
    assert sawtooth(0) == 0
    assert sawtooth(Fraction(1, 2)) == 0
    assert sawtooth(Fraction(1, 3)) == Fraction(-1, 6)
    assert sawtooth(Fraction(5, 4)) == Fraction(-1, 4)
    assert sawtooth(7) == 0


def test_sawtooth_odd_and_periodic():
    for num in range(-30, 31):
        for den in range(1, 9):
            x = Fraction(num, den)
            assert sawtooth(x + 1) == sawtooth(x)
            if x.denominator > 1:
                assert sawtooth(-x) == -sawtooth(x)


def test_qparam_validation():
    with pytest.raises(DomainError):
        QParam.real(Fraction(3, 2))
    with pytest.raises(DomainError):
        QParam.real(Fraction(0))
    with pytest.raises(DomainError):
        QParam.real(0.5)  # floats rejected
    with pytest.raises(DomainError):
        QParam.complex_disk(1.2 + 0j)
    assert QParam.parse("1").regime is QRegime.LIMIT1
    assert QParam.parse("2/5").value == Fraction(2, 5)


def test_zero_denominator_is_a_domain_error():
    # Fraction("1/0") raises ZeroDivisionError, which the CLI did not catch
    for call in (lambda: hbq.as_fraction("1/0"), lambda: QParam.real("1/0"),
                 lambda: QParam.parse("1/0")):
        with pytest.raises(DomainError, match="zero denominator"):
            call()



_NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: hbq.genocchi_zeta(2, tol=0),
    lambda: hbq.hurwitz_zeta(2, 1, tol=_NAN),
    lambda: hbq.q_alt_zeta(2, QParam.complex_disk(0.3j), tol=0),
    lambda: hbq.q_alt_zeta_hurwitz(2, _NAN, QParam.real(Fraction(1, 2))),
    lambda: hbq.oscillatory_sum("S", 1, 2, QParam.real(Fraction(2, 5)),
                                tol=_NAN),
    lambda: hbq.RegularizationSchedule((_NAN, 0.1)),
], ids=["genocchi-zeta-tol-0", "hurwitz-tol-nan", "disk-q-alt-zeta-tol-0",
        "hurwitz-shift-nan", "oscillatory-tol-nan", "schedule-offset-nan"])
def test_positive_parameters_rejected(call):
    # tolerances, shifts and damping offsets must be > 0, and nan is not
    with pytest.raises(DomainError, match="must be positive"):
        call()


_INF = float("inf")


@pytest.mark.parametrize("call", [
    lambda: hbq.riemann_zeta(_NAN),
    lambda: hbq.digamma(_NAN),
    lambda: hbq.genocchi_zeta(complex(2, _NAN)),
    lambda: hbq.riemann_zeta(-_INF),
    lambda: hbq.hurwitz_zeta(2, _INF),
    lambda: hbq.q_alt_zeta(_NAN, QParam.real(Fraction(1, 2))),
    lambda: hbq.q_alt_zeta_hurwitz(2, _INF, QParam.real(Fraction(1, 2))),
    lambda: hbq.mellin_transform("F", complex(2, _INF),
                                 QParam.real(Fraction(1, 2))),
], ids=["zeta-s-nan", "digamma-nan", "genocchi-zeta-s-nan", "zeta-s-minus-inf",
        "hurwitz-shift-inf", "q-alt-zeta-s-nan", "q-hurwitz-shift-inf",
        "mellin-s-inf"])
def test_nonfinite_arguments_rejected(call):
    # riemann_zeta(nan) and digamma(nan) used to return nan and a = inf died
    # in int(math.ceil(...)); a nan z is test_cli.py::test_nan_z_exit_2
    with pytest.raises(DomainError, match="must be finite"):
        call()


@pytest.mark.parametrize("bound", [_NAN, _INF])
def test_series_value_rejects_nonfinite_bound(bound):
    # `bound < 0` is false for nan, so a nan certificate used to pass
    with pytest.raises(DomainError, match="tail_bound must be finite"):
        hbq.SeriesValue(1.0, bound, 1)

import cmath
import math
from fractions import Fraction

import mpmath
import pytest

from hbq import (ConvergenceError, DomainError, QParam, QuadratureConfig,
                 branch_prefactor, characters_mod, mellin_transform, q_alt_zeta,
                 verify_mellin_roundtrip, verify_product_identity)
from hbq import _kernels
from hbq.zeta import _loggamma

Q_HALF = QParam.real(Fraction(1, 2))


def test_roundtrip_zeta():
    out = verify_mellin_roundtrip("zeta", 2, Q_HALF, tol=1e-8)
    assert out.passed and out.abs_diff < 1e-10


def test_roundtrip_hurwitz():
    out = verify_mellin_roundtrip("hurwitz", 2, Q_HALF, x=0.5, tol=1e-8)
    assert out.passed


def test_roundtrip_l():
    chi4 = characters_mod(4)[1]
    out = verify_mellin_roundtrip("l", 2, Q_HALF, chi=chi4, tol=1e-8)
    assert out.passed


def test_roundtrip_off_grid():
    out = verify_mellin_roundtrip("zeta", 2.5, QParam.real(Fraction(4, 5)),
                                  tol=1e-8)
    assert out.passed


def test_gamma_recurrence():
    # log Gamma is defined up to 2 pi i, so compare Gamma values, relatively
    for s in (2, 3, 2.5, 2 + 1j, 3 - 2j, 0.02 + 25j, 8 - 25j):
        z = complex(s)
        lg = _loggamma(z)
        assert abs(cmath.exp(lg - complex(mpmath.loggamma(z))) - 1) <= 1e-12
        assert abs(cmath.exp(_loggamma(z + 1) - lg) / z - 1) <= 1e-12


def test_prefactor_zero_structure():
    assert branch_prefactor(2) == 0j
    assert branch_prefactor(4) == 0j
    assert branch_prefactor(3) == (-1j) ** 3 * (-2.0)
    z = branch_prefactor(2.5)
    expected = cmath.exp(-2.5 * 0.5j * math.pi) * (cmath.exp(-2.5j * math.pi) - 1)
    assert abs(z - expected) < 1e-14


def test_quadrature_tail_certificate():
    base = mellin_transform("F", 2, Q_HALF)
    cfg = QuadratureConfig(big_t=1.5 * 40.0)
    moved = mellin_transform("F", 2, Q_HALF, cfg=cfg)
    assert abs(base.value - moved.value) <= base.tail_bound + moved.tail_bound


def test_mellin_transform_matches_series_directly():
    sv = mellin_transform("F", 3, Q_HALF)
    series = q_alt_zeta(3, Q_HALF, 1e-12)
    assert abs(sv.value - series.value) <= sv.tail_bound + series.tail_bound


def test_capped_generating_series_is_not_certified():
    # near q = 1 the generating series needs more than its 4000-term cap at
    # small t; the truncated value missed q_alt_zeta by 9.5e-9 while the
    # reported bound was 2.5e-9, so the transform must refuse instead
    q = QParam.real(Fraction(999, 1000))
    with pytest.raises(ConvergenceError):
        mellin_transform("F", 2, q, cfg=QuadratureConfig(tol=1e-8))


@pytest.mark.parametrize("qv", [Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)])
def test_re_s_near_1_is_refused_before_summing(qv, monkeypatch):
    # at s = 1.02 the last node of the substituted piece is t = e^-1400 or
    # so, where q^(-n) would pass the float range (an OverflowError before);
    # the transform refuses before any generating series is summed
    def unreachable(*args):
        raise AssertionError("summed the generating series")

    monkeypatch.setattr(_kernels, "gen_series_sum", unreachable)
    with pytest.raises(ConvergenceError, match="too close to 1"):
        mellin_transform("F", 1.02, QParam.real(qv))


def test_bound_above_tol_is_not_certified():
    # the 8e-15 |value| rounding term alone exceeds tol = 1e-15; the
    # transform used to succeed with tail_bound 3.6e-15
    with pytest.raises(ConvergenceError, match="above tol"):
        mellin_transform("F", 2, Q_HALF, cfg=QuadratureConfig(tol=1e-15))


def test_product_identities_at_even_s():
    chi4 = characters_mod(4)[1]
    for tid in (19, 20, 21, 22, 23):
        chi = chi4 if tid in (22, 23) else None
        out = verify_product_identity(tid, 2, Q_HALF, chi=chi, tol=1e-4)
        assert out.passed, (tid, out.abs_diff)
        assert out.rhs == 0j  # the branch prefactor vanishes at s = 2


def test_product_identity_ratio_off_even_s():
    # away from even s the two sides differ by the systematic normalization
    # factor -e^(i pi s) / [2] under the adopted branch conventions; the
    # verifier reports the observed ratio rather than hiding it
    out = verify_product_identity(19, 2.5, Q_HALF, tol=1e-4)
    assert not out.passed
    ratio = out.params["lhs_rhs_ratio"]
    predicted = -cmath.exp(1j * math.pi * 2.5) / 1.5
    assert abs(ratio - predicted) < 1e-3


def test_product_identity_domain():
    with pytest.raises(DomainError):
        verify_product_identity(18, 2, Q_HALF)
    with pytest.raises(DomainError):
        verify_product_identity(22, 2, Q_HALF)  # missing character

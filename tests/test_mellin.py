import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from hbq import (ConvergenceError, DomainError, QParam, QuadratureConfig,
                 SeriesValue, branch_prefactor, characters_mod, eval_gen,
                 mellin_transform, q_alt_zeta, verify_mellin_roundtrip,
                 verify_product_identity)
from hbq import _kernels, mellin
from hbq.qzeta import _alt_series
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


@pytest.mark.parametrize("target, s, kwargs", [("zeta", 2, {}),
                                              ("hurwitz", 20, {"x": 0.5}),
                                              ("hurwitz", 120, {"x": 0.5})])
def test_roundtrip_compares_relative_and_can_fail(target, s, kwargs,
                                                  monkeypatch):
    # the round trip compares relative to max(1, |rhs|): at s = 20 the
    # shifted rhs is about 2^20 and passes, where an absolute 1e-8 sat
    # below the quadrature's rounding; at s = 120 it passes once the
    # quadrature tol is floored at the transform's rounding of its value;
    # an error of ten scaled tols fails
    tol = 1e-8
    out = verify_mellin_roundtrip(target, s, Q_HALF, tol=tol, **kwargs)
    scale = max(1.0, abs(out.rhs))
    assert out.passed and out.tolerance == tol * scale
    assert (scale > 1e6) == (target == "hurwitz")
    real = mellin.mellin_transform

    def moved(*args, **kw):
        v = real(*args, **kw)
        return SeriesValue(v.value + 10 * tol * scale, v.tail_bound, v.terms_used)

    monkeypatch.setattr(mellin, "mellin_transform", moved)
    out = verify_mellin_roundtrip(target, s, Q_HALF, tol=tol, **kwargs)
    assert not out.passed and out.abs_diff > 9 * tol * scale


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


def test_prefactor_refuses_past_the_float_range():
    # |i^(-s) ((-1)^(-s) - 1)| <= 2 e^(3 pi Im(s) / 2): Im s = 151 passes
    # the float range (once inf or nan), 150 and any negative Im s fit
    with pytest.raises(DomainError, match="overflows the float range"):
        branch_prefactor(complex(3, 151))
    for s in (complex(3, 150), complex(3, -200), complex(2.5, -1e4)):
        assert cmath.isfinite(branch_prefactor(s))


def test_product_identity_refuses_a_right_side_past_the_float_range(monkeypatch):
    # a right side that is not a finite float is refused before any damped
    # sum, rather than compared as a nan difference
    def unreachable(*args):
        raise AssertionError("summed the damped double sum")

    monkeypatch.setattr(_kernels, "damped_pair_sum", unreachable)
    monkeypatch.setattr(mellin, "branch_prefactor", lambda s: complex(math.inf, 0.0))
    with pytest.raises(DomainError) as exc:
        verify_product_identity(21, 3, Q_HALF)
    assert str(exc.value) == "product identity 21's right side is not a finite float"


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


@pytest.mark.parametrize("call, message", [
    (lambda: eval_gen("G", 1.0, Q_HALF), "unknown generating kind 'G'"),
    (lambda: eval_gen("F_chi", 1.0, Q_HALF),
     "kind 'F_chi' needs a Dirichlet character"),
    (lambda: mellin_transform("G", 2, Q_HALF), "unknown generating kind 'G'"),
    (lambda: mellin_transform("f_chi", 2, Q_HALF),
     "kind 'f_chi' needs a Dirichlet character"),
    (lambda: verify_mellin_roundtrip("gamma", 2, Q_HALF),
     "unknown round-trip target 'gamma'"),
    (lambda: verify_mellin_roundtrip("hurwitz", 2, Q_HALF),
     "hurwitz round-trip needs x"),
    (lambda: verify_mellin_roundtrip("l", 2, Q_HALF),
     "kind 'F_chi' needs a Dirichlet character"),
    (lambda: verify_product_identity(22, 2, Q_HALF, chi=None),
     "kind 'F_chi' needs a Dirichlet character"),
])
def test_generating_kind_refusals(call, message, monkeypatch):
    # one rule reads the generating kinds for the series, the transform, the
    # round trip and the product identities: each refuses before summing
    def unreachable(*args, **kwargs):
        raise AssertionError("summed a series")

    monkeypatch.setattr(_kernels, "gen_series_sum", unreachable)
    monkeypatch.setattr(mellin, "_alt_series", unreachable)
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


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


@pytest.mark.parametrize("s", [120, 200, 1e4, 2 + 1000j, 3 + 60j])
def test_large_s_returns_or_refuses_with_its_cause(s):
    # the budget is formed in logs: Re s = 120 at q = 1/2 overflowed
    # T^(Re s) before, and 1/Gamma(s) at large |Im s| overflows a float
    chi4 = characters_mod(4)[1]
    for kind, kwargs in (("F", {}), ("f", {"x": 0.5}), ("F_chi", {"chi": chi4}),
                         ("f_chi", {"chi": chi4, "x": 2.0})):
        try:
            sv = mellin_transform(kind, s, Q_HALF, **kwargs)
        except ConvergenceError as exc:
            assert any(cause in str(exc) for cause in (
                "|Im s| is too large, or x too small", "Re(s) is too large")), exc
        else:
            assert sv.tail_bound <= QuadratureConfig().tol
            assert abs(sv.value) <= 1e-30  # q^(Re s) and x^(-Re s), x = 2
    if s == 120:
        assert abs(mellin_transform("F", s, Q_HALF).value) < 1e-30


def test_domain_sweep_answers_within_its_bound():
    # Re s in [1.5, 60], |Im s| <= 8 on 40% of points, q = p/r in [0.1, 0.9]
    # with r <= 40, shifts x in [1, 2] on 30%, characters mod 3, 4 and 5;
    # at the parent 1/Gamma(s) swelled each piece's tolerance and many of
    # these points raised.  The one refusal left is the rounding of the
    # integrand's mass, Gamma(Re s) / |Gamma(s)| times up to 1/(1 - q^(a-1)),
    # near |Im s| = 8 and Re s = 1.5.
    rng = random.Random("mellin-domain")
    chis = [chi for m in (3, 4, 5) for chi in characters_mod(m)]
    answered = 0
    for _ in range(400):
        kind = rng.choice(("f", "F", "f_chi", "F_chi"))
        r = rng.randint(2, 40)
        q = QParam.real(Fraction(rng.randint(-(-r // 10), 9 * r // 10), r))
        s = complex(rng.uniform(1.5, 60),
                    rng.uniform(-8, 8) if rng.random() < 0.4 else 0.0)
        x = rng.uniform(1, 2) if rng.random() < 0.3 else None
        chi = rng.choice(chis) if kind.endswith("_chi") else None
        try:
            sv = mellin_transform(kind, s, q, x=x, chi=chi)
        except ConvergenceError as exc:
            assert "rounding of the integrand's mass" in str(exc)
            assert abs(s.imag) > 4 and s.real < 3, (kind, s, q)
            continue
        answered += 1
        ref = _alt_series(s, q, x, chi, 1e-15, alternating=kind.startswith("F"))
        assert abs(sv.value - ref.value) <= sv.tail_bound + ref.tail_bound \
            + 1e-14 * (1 + abs(sv.value)), (kind, s, q, x)
    assert answered >= 396

"""Differential tests: the Mellin quadrature against the q-series it
transforms, and complex-s zeta values against mpmath.  Seeded draws from each
documented domain; a few seconds in all."""

import random
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

"""Numerical Mellin transforms of the generating functions and the verifiers
for the definitional round-trips and the five product identities.

The transform (1/Gamma(s)) int_0^inf t^(s-1) g(t) dt is computed by
tanh-sinh quadrature (Takahasi-Mori, Publ. RIMS 9 (1974)): the (0, split]
piece after the substitution t = e^(-v) (which turns the 1/t blow-up of g
into a bounded log-periodic factor), the [split, T] piece directly, and a
certified exponential bound for the (T, inf) tail.  The abscissae and
weights of each level are tabled once, and the level's new nodes go to the
generating-series kernel in one array call.  The quadrature term of
the reported tail bound is an estimate, the level-doubling difference
|I_h - I_2h|, not a bound; the truncation terms are rigorous.  Gamma comes
from the standard-library log-Gamma in ``zeta``, with its relative rounding
folded into the tail bound.

The product-identity integrands inherit the imaginary-axis divergence of the
oscillatory sums, so their left sides are evaluated termwise under an
eps-damping schedule and Richardson-extrapolated; the principal-branch
prefactor i^(-s) ((-1)^(-s) - 1) vanishes at even integer s, where both
sides of each identity are checked against zero.  At other s the two sides
can differ by a systematic normalization factor, which the outcome reports
as a ratio instead of hiding.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .characters import DirichletCharacter, chi_table
from .core import (ConvergenceError, DomainError, QParam, QRegime,
                   SeriesValue, VerificationOutcome, _finite, _logq,
                   _positive, _shift)
from .qsums import RegularizationSchedule, _richardson
from .qzeta import q_alt_l, q_alt_zeta, q_alt_zeta_hurwitz, q_plain_zeta
from .zeta import _loggamma, hurwitz_zeta, riemann_zeta, zeta_star

__all__ = [
    "QuadratureConfig",
    "branch_prefactor",
    "mellin_transform",
    "verify_mellin_roundtrip",
    "verify_product_identity",
]


_SPLIT = 1.0       # the (0, split] / [split, T] boundary of the quadrature
_TS_LEVELS = 10    # last tanh-sinh level: step 2^-10
_GEN_TERMS = 4000  # term cap of the generating series at a node
# the product identities' damped double sum: m-terms before the analytic
# m-tail, and the offsets and Richardson order; the integrand limits are
# smooth in eps, so a deeper tableau than the oscillatory-sum default pays
_PRODUCT_M_TERMS = 2500
_PRODUCT_REG = RegularizationSchedule((0.2, 0.1, 0.05, 0.025, 0.0125), 4)


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-11
    big_t: Optional[float] = None  # (T, inf) truncation point; None = auto

    def __post_init__(self):
        _positive("tol", self.tol)
        if self.big_t is not None and self.big_t <= _SPLIT:
            raise DomainError("T must exceed the split point")


def _tail_bound(a: float, t_big: float, beta: float, amp: float) -> float:
    """Bound for amp * int_T^inf t^(a-1) e^(-beta t) dt, valid once
    beta*T >= 2(a-1); integration by parts gives the factor 2."""
    if beta * t_big < max(2.0 * (a - 1.0), 1.0):
        return math.inf
    return 2.0 * amp * t_big ** (a - 1.0) * math.exp(-beta * t_big) / beta


@functools.lru_cache(maxsize=_TS_LEVELS + 1)
def _ts_level(level: int):
    """The tanh-sinh abscissae y = tanh((pi/2) sinh t) and weights
    (pi/2) cosh t / cosh^2((pi/2) sinh t) on [-1, 1] at the nodes new at
    ``level``: t = 0, +-1, +-2, +-3 at level 0, then t = +-kh for odd k,
    kh <= 3.5, h = 2^-level."""
    if level == 0:
        ts = (0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0)
    else:
        h = 0.5 ** level
        ts = [x for k in range(1, int(3.5 / h) + 1, 2) for x in (k * h, -k * h)]
    ys, ws = [], []
    for t in ts:
        u = 0.5 * math.pi * math.sinh(t)
        ch = math.cosh(u)
        ys.append(math.tanh(u))
        ws.append(0.5 * math.pi * math.cosh(t) / (ch * ch))
    return tuple(ys), tuple(ws)


def _tanh_sinh(f, lo: float, hi: float, tol: float):
    """int_lo^hi f by tanh-sinh quadrature: x = m + c tanh((pi/2) sinh t) on
    the nodes t = kh, |t| <= 3.5, with h halved from 1.  f maps a list of
    abscissae to the list of its values; each level's new nodes go to it in
    one call.  Returns the level-h sum and |I_h - I_2h| once that
    difference is at most tol, from level 3 on.
    """
    c = 0.5 * (hi - lo)
    m = 0.5 * (hi + lo)
    acc = 0j
    for level in range(_TS_LEVELS + 1):
        ys, ws = _ts_level(level)
        acc += sum(v * w for v, w in zip(f([m + c * y for y in ys]), ws))
        est = acc * (c * 0.5 ** level)
        if level >= 3:
            diff = abs(est - prev)
            if diff <= tol:
                return est, diff
        prev = est
    raise ConvergenceError(f"tanh-sinh quadrature missed {tol:.3g} at step "
                           f"2^-{_TS_LEVELS}")


def mellin_transform(kind: str, s, q: QParam,
                     x: Optional[float] = None,
                     chi: Optional[DirichletCharacter] = None,
                     cfg: Optional[QuadratureConfig] = None) -> SeriesValue:
    """(1/Gamma(s)) int_0^inf t^(s-1) g(t) dt for g one of the generating
    functions "f", "F", "f_chi", "F_chi", optionally damped by exp(-t x)
    with the n = 0 term restored (the Hurwitz-shift integrand sums from
    n = 0, so it equals (chi(0) + g(t)) e^(-tx))."""
    if kind not in ("f", "F", "f_chi", "F_chi"):
        raise DomainError(f"unknown generating kind {kind!r}")
    if q.regime is not QRegime.REAL_UNIT:
        raise DomainError("quadrature route needs rational 0 < q < 1")
    s = complex(s)
    _finite("s", s)
    if s.real <= 1:
        raise DomainError("Re(s) > 1 required")
    cfg = cfg or QuadratureConfig()
    needs_chi = kind.endswith("_chi")
    if needs_chi and chi is None:
        raise DomainError(f"kind {kind!r} needs a character")
    chiv = chi_table(chi if needs_chi else None)
    alt = kind.startswith("F")
    qfrac = q.value
    logq = _logq(qfrac)
    xv = 0.0
    n0coef = 0.0
    if x is not None:
        xv = _shift("x", x)
        n0coef = complex(chiv[0]).real

    inner_tol = cfg.tol * 1e-3

    def g(ts: list, inner: float = inner_tol) -> list:
        vals, g_tails, _ = _kernels.gen_series_sum(ts, logq, alt, chiv,
                                                   _GEN_TERMS, inner)
        for t, g_tail in zip(ts, g_tails):
            if g_tail == math.inf:
                raise ConvergenceError(
                    f"generating series at t = {t:.3g} hit its "
                    f"{_GEN_TERMS}-term cap; q is too close to 1 for the "
                    "quadrature route")
        return [(val + n0coef) * math.exp(-t * xv) for t, val in zip(ts, vals)]

    a = s.real
    qinv = math.exp(-logq)

    # truncation point: slowest decay rate of |g|
    beta = xv + (qinv if n0coef == 0.0 else 0.0)
    t_big = cfg.big_t
    if t_big is None:
        t_big = max(_SPLIT * 2.0, (46.0 + 3.0 * a * math.log1p(a)) / beta)
    amp = 2.0 * qinv + abs(n0coef)
    tail = _tail_bound(a, t_big, beta, amp)
    if not tail < cfg.tol:
        raise ConvergenceError("tail bound above tolerance; raise T")

    # (0, split] piece, substituted: int e^(-s v) g(e^(-v)) dv over [v0, V]
    v0 = -math.log(_SPLIT)
    c1 = 1.0 / (-logq) + 2.0 + abs(n0coef)
    v_hi = (math.log(c1 / (cfg.tol * 0.25)) ) / (a - 1.0)
    v_hi = max(v_hi, v0 + 1.0)
    # a node t stops no sooner than q^(-n-1)[n+1] t > log(2 / inner), so at
    # the last node t = e^(-V) the series needs
    # q^(-n-1) > (1 - q) log(2 / inner) e^V; refuse before summing when that
    # lies past the term cap or the float range (V grows as Re s nears 1)
    log_need = v_hi + math.log(-math.expm1(logq) * math.log(2.0 / inner_tol))
    if log_need > min((_GEN_TERMS + 1) * -logq, math.log(sys.float_info.max)):
        raise ConvergenceError(
            f"generating series at t = e^-{v_hi:.4g} needs q^-n above "
            f"e^{log_need:.4g}, past its {_GEN_TERMS}-term cap or the float "
            "range; Re(s) or q is too close to 1 for the quadrature route")

    def f_sub(vs: list) -> list:
        return [cmath.exp(-s * v) * gv
                for v, gv in zip(vs, g([math.exp(-v) for v in vs]))]

    # g is truncated within `inner` at each node.  The substituted piece's
    # weight e^(-a v) integrates to under 1/a; the direct piece's t^(a-1)
    # to under T^a / a, so that piece asks for inner_tol a / T^a.
    dir_tol = inner_tol * a / t_big ** a

    def f_dir(ts: list) -> list:
        return [cmath.exp((s - 1.0) * math.log(t)) * gv
                for t, gv in zip(ts, g(ts, dir_tol))]

    err = tail + c1 * math.exp(-(a - 1.0) * v_hi) / (a - 1.0) \
        + inner_tol * (1.0 + 1.0 / a)
    pieces = 0j
    for fn, lo, hi in ((f_sub, v0, v_hi), (f_dir, _SPLIT, t_big)):
        piece, piece_err = _tanh_sinh(fn, lo, hi, cfg.tol * 0.2)
        pieces += piece
        err += piece_err

    rgamma = cmath.exp(-_loggamma(s))
    value = pieces * rgamma
    err = err * abs(rgamma) + 8e-15 * abs(value)
    if err > cfg.tol:
        raise ConvergenceError(f"quadrature bound {err:.3g} above tol")
    return SeriesValue(value, err, 0)


def verify_mellin_roundtrip(target: str, s, q: QParam,
                            x: Optional[float] = None,
                            chi: Optional[DirichletCharacter] = None,
                            tol: float = 1e-8) -> VerificationOutcome:
    """Quadrature route against series route for the three definitional
    transforms: target "zeta" (plain alternating series), "hurwitz"
    (additive shift x), "l" (character twist)."""
    s = complex(s)
    cfg = QuadratureConfig(tol=min(1e-11, tol * 1e-2))
    if target == "zeta":
        lhs = mellin_transform("F", s, q, cfg=cfg).value
        rhs = q_alt_zeta(s, q, tol * 1e-2).value
    elif target == "hurwitz":
        if x is None:
            raise DomainError("hurwitz round-trip needs x")
        lhs = mellin_transform("F", s, q, x=x, cfg=cfg).value
        rhs = q_alt_zeta_hurwitz(s, x, q, tol * 1e-2).value
    elif target == "l":
        if chi is None:
            raise DomainError("l round-trip needs a character")
        lhs = mellin_transform("F_chi", s, q, chi=chi, cfg=cfg).value
        rhs = q_alt_l(s, chi, q, tol * 1e-2).value
    else:
        raise DomainError(f"unknown round-trip target {target!r}")
    return VerificationOutcome.compare(
        f"mellin-roundtrip-{target}",
        {"s": s, "q": str(q), "x": x, "chi": chi.label if chi else None},
        lhs, rhs, tol)


def branch_prefactor(s) -> complex:
    """i^(-s) ((-1)^(-s) - 1) under the principal logarithm
    (log i = i pi/2, log(-1) = i pi); exactly zero at even integer s."""
    z = complex(s)
    if z.imag == 0 and z.real == int(z.real):
        n = int(z.real)
        if n % 2 == 0:
            return 0j
        return (-1j) ** (n % 4) * (-2.0)
    return cmath.exp(-z * (0.5j * math.pi)) * (cmath.exp(-z * (1j * math.pi)) - 1.0)


_PRODUCT_WIRING = {
    # tid: (alternating inner series, odd (2m-1) weights, twisted)
    19: (True, True, False),
    20: (False, True, False),
    21: (True, False, False),
    22: (True, True, True),
    23: (False, True, True),
}


def verify_product_identity(tid: int, s, q: QParam,
                            chi: Optional[DirichletCharacter] = None,
                            tol: float = 1e-4) -> VerificationOutcome:
    """Damped-extrapolated left side of product identity ``tid`` in 19..23
    against its closed right side.

    Right sides: 19/21 use [2] * (alternating q-zeta), 20 the plain q-zeta,
    22 the scaled twisted series, 23 the plain twisted series; the second
    factor is zeta*(s+1) except for 21 which takes the full zeta(s+1).
    """
    if tid not in _PRODUCT_WIRING:
        raise DomainError("identity id must be one of 19..23")
    alt, odd_w, twisted = _PRODUCT_WIRING[tid]
    if twisted and chi is None:
        raise DomainError(f"identity {tid} needs a character")
    if not twisted:
        chi = None
    if q.regime is not QRegime.REAL_UNIT:
        raise DomainError("product identities need rational 0 < q < 1")
    s = complex(s)
    _finite("s", s)
    if s.real <= 1:
        raise DomainError("Re(s) > 1 required")
    qfrac = q.value
    logq = _logq(qfrac)
    chiv = chi_table(chi)

    inner_tol = tol * 1e-3
    rate = math.exp(logq * (s.real - 1.0))
    n_terms = max(12, int(math.ceil(math.log(inner_tol * (1.0 - rate))
                                    / (logq * (s.real - 1.0)))) + 4)

    # analytic completion of the m-tail: for m > M the damped bracket is
    # 2i sin(pi s/2) w^(-s) to O(eps/w), and the m-sum collapses to a
    # Hurwitz zeta of s+1
    if alt:
        x_series = q_alt_zeta(s, q, inner_tol).value if chi is None \
            else q_alt_l(s, chi, q, inner_tol).value
    else:
        x_series = q_plain_zeta(s, q, inner_tol, chi=chi).value
    if odd_w:
        m_tail_zeta = cmath.exp(-(s + 1.0) * math.log(2.0)) \
            * hurwitz_zeta(s + 1.0, _PRODUCT_M_TERMS + 0.5, 1e-14).value
    else:
        m_tail_zeta = hurwitz_zeta(s + 1.0, _PRODUCT_M_TERMS + 1.0, 1e-14).value
    m_tail = 2j * cmath.sin(math.pi * s / 2.0) * x_series * m_tail_zeta

    per = []
    for eps in _PRODUCT_REG.offsets:
        core = _kernels.damped_pair_sum(s, eps, logq, alt, chiv, odd_w,
                                        _PRODUCT_M_TERMS, n_terms)
        per.append(core + m_tail)
    lhs, resid = _richardson(_PRODUCT_REG.offsets, per, _PRODUCT_REG.order)

    if tid == 21:
        second = riemann_zeta(s + 1.0, inner_tol).value
    else:
        second = zeta_star(s + 1.0, inner_tol).value
    if tid in (19, 21, 22):
        first = (1.0 + float(qfrac)) * x_series
    else:
        first = x_series
    rhs = branch_prefactor(s) * first * second

    params = {"id": tid, "s": s, "q": str(qfrac),
              "chi": chi.label if chi else None,
              "residual": resid}
    if abs(rhs) > 1e-12:
        params["lhs_rhs_ratio"] = lhs / rhs
    return VerificationOutcome.compare(f"product-identity-{tid}", params,
                                       lhs, rhs, tol)

"""Numerical Mellin transforms of the generating functions and the verifiers
for the definitional round-trips and the five product identities.

The transform (1/Gamma(s)) int_0^inf t^(s-1) g(t) dt is one tanh-sinh
integral (Takahasi-Mori, Publ. RIMS 9 (1974)) of exp(-s v - log Gamma(s))
g(e^(-v)) over v in [-log T, V]: t = e^(-v) turns the 1/t blow-up of g
into a bounded log-periodic factor, and the integrand is in the units of
the value.  Its error budget is formed in those units and in logs: the
(T, inf) tail, the (0, e^(-V)) head and the truncation of g at the nodes
are rigorous; the quadrature term |I_h - I_2h| and the rounding (ulps of
the integrand's mass, which 1/|Gamma(s)| swells as |Im s| grows) are
estimates.  Each level's new nodes go to the generating-series kernel in
one array call, with the level's abscissae and weights tabled once.

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
                   SeriesValue, VerificationOutcome, _finite, _fits, _logq,
                   _positive, _shift)
from .qsums import RegularizationSchedule, _gen_kind, _richardson
from .qzeta import _alt_series
from .zeta import _loggamma, hurwitz_zeta, riemann_zeta, zeta_star

__all__ = [
    "QuadratureConfig",
    "branch_prefactor",
    "mellin_transform",
    "verify_mellin_roundtrip",
    "verify_product_identity",
]


_TS_LEVELS = 10    # last tanh-sinh level: step 2^-10
_GEN_TERMS = 4000  # term cap of the generating series at a node
# the shares of tol given to each of the tail, the head and the node
# truncation, to the quadrature estimate, and to the rounding of the mass
_SHARE = 1.0 / 64.0
_QUAD_SHARE = 0.25
_ROUND_SHARE = 0.5
_EPS = sys.float_info.epsilon
_MASS_ULPS = 4  # rounding of the integrand, in ulps of its mass
_LOG_FLOAT_MIN = math.log(sys.float_info.min)
# the product identities' damped double sum: the offsets and Richardson
# order (the integrand limits are smooth in eps, so a deeper tableau than the
# oscillatory-sum default pays), the least number of m-terms summed exactly,
# and the share of the inner tolerance left to the binomial m-tail's cut
_PRODUCT_REG = RegularizationSchedule((0.2, 0.1, 0.05, 0.025, 0.0125), 4)
_PRODUCT_M_MIN = 32
_PRODUCT_TAIL_SHARE = 1e-6


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-11

    def __post_init__(self):
        _positive("tol", self.tol)


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
    c, m = 0.5 * (hi - lo), 0.5 * (hi + lo)
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


def _real_q_s(s, q: QParam, route: str) -> complex:
    """The domain of both routes here: rational 0 < q < 1, Re s > 1."""
    if q.regime is not QRegime.REAL_UNIT:
        raise DomainError(f"{route} rational 0 < q < 1")
    s = complex(s)
    _finite("s", s)
    if s.real <= 1:
        raise DomainError("Re(s) > 1 required")
    return s


def _tail_cut(a: float, lgam_re: float, logq: float, xv: float,
              n0coef: float, log_share: float) -> float:
    """T for a (T, inf) tail of at most e^log_share in the value's units:
    |g(t)| <= amp e^(-beta t) for t >= 1, and int_T^inf t^(a-1)
    e^(-beta t) dt <= 2 T^(a-1) e^(-beta T) / beta once beta T >= 2(a - 1).
    log_tail is concave and falls past t_min, so Newton's steps toward
    log_tail = -1 overshoot once, then fall back: each lands where a
    tangent, which lies above log_tail, meets -1, so log_tail(T) <= -1."""
    qinv = math.exp(-logq)
    beta = xv + (qinv if n0coef == 0.0 else 0.0)
    amp = 2.0 * qinv + abs(n0coef)
    t_min = t_big = max(2.0 * (a - 1.0) / beta, 1.0)

    def log_tail(t):
        return (math.log(2.0 * amp / beta) + (a - 1.0) * math.log(t)
                - beta * t - lgam_re - log_share)

    for _ in range(4):
        t_big = max(t_min, t_big - (log_tail(t_big) + 1.0)
                    / ((a - 1.0) / t_big - beta))
    return t_big


def mellin_transform(kind: str, s, q: QParam,
                     x: Optional[float] = None,
                     chi: Optional[DirichletCharacter] = None,
                     cfg: Optional[QuadratureConfig] = None) -> SeriesValue:
    """(1/Gamma(s)) int_0^inf t^(s-1) g(t) dt for g one of the generating
    functions "f", "F", "f_chi", "F_chi" (read by `_gen_kind`), optionally
    damped by exp(-t x) with the n = 0 term restored (the Hurwitz-shift
    integrand sums from n = 0, so it equals (chi(0) + g(t)) e^(-tx)).  T, V
    and the node tolerance are sized from the error budget before anything
    is summed."""
    alt, chi = _gen_kind(kind, chi)
    s = _real_q_s(s, q, "quadrature route needs")
    cfg = cfg or QuadratureConfig()
    chiv = chi_table(chi)
    logq = _logq(q.value)
    xv = n0coef = 0.0
    if x is not None:
        xv = _shift("x", x)
        n0coef = complex(chiv[0]).real

    a = s.real
    lgam = _loggamma(s)
    log_share = math.log(cfg.tol * _SHARE)
    # the terms of g transform to at most q^(n(a-1)), summing to
    # 1/(e^y - 1), and the n = 0 term to |chi(0)| x^(-a), |chi(0)| = 1;
    # times Gamma(a) / |Gamma(s)| that bounds the integrand's mass
    y = (a - 1.0) * -logq
    log_mass = -y - math.log(-math.expm1(-y)) + _loggamma(a).real - lgam.real
    if n0coef:
        d = -a * math.log(xv) + _loggamma(a).real - lgam.real - log_mass
        log_mass += max(d, 0.0) + math.log1p(math.exp(-abs(d)))
    if not log_mass + math.log(_MASS_ULPS * _EPS / _ROUND_SHARE) \
            <= math.log(cfg.tol):
        raise ConvergenceError(
            f"rounding of the integrand's mass e^{log_mass:.4g} above tol; "
            "|Im s| is too large, or x too small, for the quadrature route")

    t_big = _tail_cut(a, lgam.real, logq, xv, n0coef, log_share)
    # (0, e^-V) head: |t g(t)| <= c1 for t <= 1
    c1 = 1.0 / (-logq) + 2.0 + abs(n0coef)
    v_hi = max(1.0, (math.log(c1 / (a - 1.0)) - lgam.real - log_share)
               / (a - 1.0))
    # g is summed within `inner` at each node, and |exp(-s v - log Gamma)|
    # integrates over [-log T, V] to under T^a / (a |Gamma(s)|).  A node t
    # stops no sooner than q^(-n-1)[n+1] t > log(2 / inner), so the last
    # node t = e^(-V) needs q^(-n-1) > (1 - q) log(2 / inner) e^V: refuse
    # before summing when that n passes the term cap or the float range.
    log_inner = min(0.0, log_share + math.log(a) - a * math.log(t_big)
                    + lgam.real)
    log_need = v_hi + math.log(-math.expm1(logq) * (math.log(2.0) - log_inner))
    if math.ceil(log_need / -logq) - 1 > _kernels._gen_cap(logq, _GEN_TERMS):
        raise ConvergenceError(
            f"generating series at t = e^-{v_hi:.4g} needs q^-n above "
            f"e^{log_need:.4g}, past its {_GEN_TERMS}-term cap or the float "
            "range; Re(s) or q is too close to 1 for the quadrature route")
    if log_inner < _LOG_FLOAT_MIN:
        raise ConvergenceError(f"node tolerance e^{log_inner:.4g} below the "
                               "float range; Re(s) is too large")
    inner = math.exp(log_inner)

    def f(vs: list) -> list:
        ts = [math.exp(-v) for v in vs]
        vals, g_tails, _ = _kernels.gen_series_sum(ts, logq, alt, chiv,
                                                   _GEN_TERMS, inner)
        if math.inf in g_tails:
            raise ConvergenceError(
                f"generating series at t = {ts[g_tails.index(math.inf)]:.3g} "
                f"hit its {_GEN_TERMS}-term cap; q is too close to 1 for the "
                "quadrature route")
        # in one exponent, as exp(-s v) alone overflows at large Re s
        return [cmath.exp(-s * v - lgam - t * xv) * (gv + n0coef)
                for v, t, gv in zip(vs, ts, vals)]

    value, quad = _tanh_sinh(f, -math.log(t_big), v_hi, cfg.tol * _QUAD_SHARE)
    # exp(-s v - log Gamma(s)) rounds relative to the value, by about an ulp
    # of |log Gamma(s)| + |s v| on the nodes that carry it
    err = quad + 3.0 * cfg.tol * _SHARE + _EPS * (
        _MASS_ULPS * math.exp(log_mass)
        + (abs(lgam) + abs(s) * math.log(t_big)) * abs(value))
    if err > cfg.tol:
        raise ConvergenceError(f"quadrature bound {err:.3g} above tol")
    return SeriesValue(value, err, 0)


# round-trip target: (generating kind, shifted by x)
_ROUNDTRIPS = {"zeta": ("F", False), "hurwitz": ("F", True), "l": ("F_chi", False)}


def verify_mellin_roundtrip(target: str, s, q: QParam,
                            x: Optional[float] = None,
                            chi: Optional[DirichletCharacter] = None,
                            tol: float = 1e-8) -> VerificationOutcome:
    """Quadrature route against series route for the definitional
    transforms: target "zeta" (plain alternating series), "hurwitz"
    (additive shift x), "l" (character twist).  The series side is the
    engine `_alt_series` at the reading of the target's generating kind."""
    if target not in _ROUNDTRIPS:
        raise DomainError(f"unknown round-trip target {target!r}")
    kind, shifted = _ROUNDTRIPS[target]
    if shifted and x is None:
        raise DomainError(f"{target} round-trip needs x")
    alternating, chi = _gen_kind(kind, chi)
    x = x if shifted else None
    s = _real_q_s(s, q, "quadrature route needs")
    rhs = _alt_series(s, q, x, chi, tol * 1e-2, alternating=alternating).value
    # both routes round relative to a large value, such as x^(-s): compare
    # relative to max(1, |rhs|) and size the quadrature tol alike, but not
    # below the transform's rounding of its value, an ulp of |log Gamma(s)|
    # + |s| log T, over the share of tol its budget leaves free (T sized at
    # 1e-11, the least tol at which this floor comes into play)
    lgam = _loggamma(s)
    xv, n0coef = (_shift("x", x), complex(chi_table(chi)[0]).real) if shifted \
        else (0.0, 0.0)
    t_big = _tail_cut(s.real, lgam.real, _logq(q.value), xv, n0coef,
                      math.log(1e-11 * _SHARE))
    rounding = _EPS * (abs(lgam) + abs(s) * math.log(t_big)) * abs(rhs) \
        / (1.0 - _QUAD_SHARE - 3.0 * _SHARE - _ROUND_SHARE)
    scale = max(1.0, abs(rhs))
    cfg = QuadratureConfig(tol=min(tol * 1e-2 * scale, max(1e-11, rounding)))
    lhs = mellin_transform(kind, s, q, x=x, chi=chi, cfg=cfg).value
    return VerificationOutcome.compare(
        f"mellin-roundtrip-{target}",
        {"s": s, "q": str(q), "x": x, "chi": chi.label if chi else None},
        lhs, rhs, tol * scale)


def branch_prefactor(s) -> complex:
    """i^(-s) ((-1)^(-s) - 1) under the principal logarithm
    (log i = i pi/2, log(-1) = i pi); exactly zero at even integer s.  Its
    size is at most 2 e^(3 pi Im(s) / 2), which must fit a float."""
    z = complex(s)
    if z.imag == 0 and z.real == int(z.real):
        n = int(z.real)
        if n % 2 == 0:
            return 0j
        return (-1j) ** (n % 4) * (-2.0)
    _fits("i^(-s) ((-1)^(-s) - 1)", 1.5 * math.pi * z.imag + math.log(2.0))
    return cmath.exp(-z * (0.5j * math.pi)) * (cmath.exp(-z * (1j * math.pi)) - 1.0)


_PRODUCT_WIRING = {
    # tid: (generating kind of the inner series, odd (2m-1) weights)
    19: ("F", True),
    20: ("f", True),
    21: ("F", False),
    22: ("F_chi", True),
    23: ("f_chi", True),
}


def _m_split(s: complex, logq: float, odd_w: bool, eps: float, tol: float):
    """M, the m-terms the damped sum takes exactly, and the binomial tail
    d_j = C(-s, j) 2i sin(pi (s+j)/2) Z_j, j = 0..J, of its m > M part,
    Z_j = sum_{m>M} mu_m^(-s-1-j) (a Hurwitz zeta, DLMF 25.11).

    For w = a mu > eps the bracket (eps - i w)^(-s) - (eps + i w)^(-s) is
    sum_j C(-s, j) 2i sin(pi (s+j)/2) eps^j w^(-s-j) (DLMF 4.6), whose
    terms past j = 1 fall by |s+j| / (j+1) r <= (|s|+1)/2 r <= 1/2, where
    r = eps q / mu_(M+1) bounds eps / w over m > M, as a_n >= a_1 = 1/q.
    With |Z_j| <= mu_(M+1)^(-j) M^(-sigma) / sigma, |sin| <= cosh(pi Im s
    / 2) and sum_n |c_n a_n^(-s)| <= rate / (1 - rate), rate =
    q^(sigma-1), the terms j > J add up, over every n, to at most the
    product K of these bounds times 2 |C(-s, J+1)| r^(J+1); J is the least
    with that at most tol."""
    sigma, qv = s.real, math.exp(logq)
    step = 2 if odd_w else 1  # mu_m = step m - step + 1
    log_rate = logq * (sigma - 1.0)
    big_m = max(_PRODUCT_M_MIN,
                math.ceil(((abs(s) + 1.0) * eps * qv - 1.0) / step))
    r = eps * qv / (step * big_m + 1)
    y = 0.5 * math.pi * abs(s.imag)
    log_k = (y + math.log1p(math.exp(-2.0 * y)) + log_rate
             - math.log(-math.expm1(log_rate)) - sigma * math.log(big_m)
             - math.log(sigma))
    budget = math.exp(min(math.log(tol) - log_k, 0.0))
    d, term, j = [], abs(s) * r, 0  # term: |C(-s, j+1)| r^(j+1)
    binom = 1.0  # C(-s, j)
    while True:
        z = hurwitz_zeta(s + 1.0 + j, big_m + 1.0 / step, 1e-14).value
        if odd_w:
            z *= cmath.exp(-(s + 1.0 + j) * math.log(2.0))
        d.append(binom * 2j * cmath.sin(0.5 * math.pi * (s + j)) * z)
        if 2.0 * term <= budget:
            return big_m, d
        binom *= (-s - j) / (j + 1)
        j += 1
        term *= abs(s + j) / (j + 1) * r


def verify_product_identity(tid: int, s, q: QParam,
                            chi: Optional[DirichletCharacter] = None,
                            tol: float = 1e-4) -> VerificationOutcome:
    """Damped-extrapolated left side of product identity ``tid`` in 19..23
    against its closed right side.

    Right sides: the q-series `_alt_series` at the reading of the
    identity's generating kind, times [2] when that kind alternates (19, 21,
    22), times zeta*(s+1) under the odd weights 2m - 1 and the full
    zeta(s+1) under all weights m (21).
    """
    if tid not in _PRODUCT_WIRING:
        raise DomainError("identity id must be one of 19..23")
    kind, odd_w = _PRODUCT_WIRING[tid]
    alt, chi = _gen_kind(kind, chi)
    s = _real_q_s(s, q, "product identities need")
    qfrac = q.value
    logq = _logq(qfrac)
    chiv = chi_table(chi)

    inner_tol = tol * 1e-3
    rate = math.exp(logq * (s.real - 1.0))
    n_terms = max(12, int(math.ceil(math.log(inner_tol * (1.0 - rate))
                                    / (logq * (s.real - 1.0)))) + 4)

    last = _kernels._gen_cap(logq, n_terms) + 1  # the series' last row
    if n_terms > last:
        raise DomainError(
            f"product identity needs {n_terms} n-terms at q = {qfrac}, but "
            f"q^-n [n] leaves the float range (e^{_kernels._LOG_FLOAT_MAX:.4g}) "
            f"past n = {last}")

    # the right side first, to refuse one past the float range unsummed
    x_series = _alt_series(s, q, None, chi, inner_tol, alternating=alt).value
    second = (zeta_star if odd_w else riemann_zeta)(s + 1.0, inner_tol).value
    first = (1.0 + float(qfrac)) * x_series if alt else x_series
    rhs = branch_prefactor(s) * first * second
    if not cmath.isfinite(rhs):
        raise DomainError(f"product identity {tid}'s right side is not a "
                          "finite float")

    # the m-sum: m <= M exactly, and m > M by the binomial series of the
    # bracket, whose term j = 0 over every n is the analytic completion
    # 2i sin(pi s/2) x_series Z_0 and whose terms j = 1..J the kernel adds
    m_head, d = _m_split(s, logq, odd_w, max(_PRODUCT_REG.offsets),
                         inner_tol * _PRODUCT_TAIL_SHARE)
    m_tail = d[0] * x_series
    per = [_kernels.damped_pair_sum(s, eps, logq, alt, chiv, odd_w,
                                    m_head, n_terms, d[1:]) + m_tail
           for eps in _PRODUCT_REG.offsets]
    lhs, resid = _richardson(_PRODUCT_REG.offsets, per, _PRODUCT_REG.order)

    params = {"id": tid, "s": s, "q": str(qfrac),
              "chi": chi.label if chi else None,
              "residual": resid}
    if abs(rhs) > 1e-12:
        params["lhs_rhs_ratio"] = lhs / rhs
    return VerificationOutcome.compare(f"product-identity-{tid}", params,
                                       lhs, rhs, tol)

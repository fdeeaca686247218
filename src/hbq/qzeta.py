"""Alternating q-series of zeta and l type, their Hurwitz variants, and the
conductor-decomposition verifiers.

The basic object is the absolutely convergent series (Re s > 1, 0 < q < 1)

    sum_{n>=1} (-1)^n q^(-n) / (q^(-n)[n])^s
        = sum_{n>=1} (-1)^n q^(n(s-1)) [n]^(-s),

its Hurwitz shift (n from 0, base [n] + x q^n after the same rewriting), and
the character twist.  The rewritten form keeps every intermediate bounded, so
plain float64 accumulation is accurate; tails are controlled by the geometric
majorant q^(n(Re s - 1)).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional

from . import _kernels
from .characters import DirichletCharacter, chi_table
from .core import (ConvergenceError, DomainError, QParam, QRegime,
                   SeriesValue, VerificationOutcome, _finite, _logq,
                   _positive, qbracket)

__all__ = [
    "cck_zeta",
    "q_alt_l",
    "q_alt_zeta",
    "q_alt_zeta_hurwitz",
    "q_plain_zeta",
    "verify_conductor_decomposition",
]

def _alt_series_real(s: complex, qfrac: Fraction, x: float,
                     chi: Optional[DirichletCharacter], tol: float,
                     n0: int, min_terms: int = 0,
                     alternating: bool = True) -> SeriesValue:
    """Engine for the (anti-)alternating family at exact rational 0 < q < 1."""
    s = complex(s)
    _finite("s", s)
    if s.real <= 1:
        raise DomainError("Re(s) > 1 required")
    _positive("tol", tol)
    logq = _logq(qfrac)
    rate = math.exp(logq * (s.real - 1.0))  # q^(Re s - 1) < 1
    n_stop = int(math.ceil((math.log(tol * (1.0 - rate)) - math.log(2.0)) / (logq * (s.real - 1.0)))) + 2
    n_stop = max(n_stop, n0 + 8, min_terms)
    chiv = chi_table(chi)
    head = 0j
    n_lo = n0
    if n0 == 0:
        head = complex(chiv[0]) * cmath.exp(-s * math.log(x))
        n_lo = 1
    body = _kernels.qzeta_partial_sum(logq, s, x, chiv, alternating, n_lo,
                                      n_stop + 1)
    tail = rate ** (n_stop + 1) / (1.0 - rate)
    # belt and suspenders: the first omitted term must sit under the
    # geometric majorant that justified stopping
    check = abs(_kernels.qzeta_partial_sum(logq, s, x, chiv, alternating,
                                           n_stop + 1, n_stop + 2))
    if check > tail * (1.0 + 1e-9) + 1e-300:
        raise ConvergenceError("series stop rule failed its own consistency check")
    return SeriesValue(head + body, tail, n_stop)


def _alt_series_disk(s: complex, qc: complex, x: float,
                     chi: Optional[DirichletCharacter], tol: float,
                     n0: int) -> SeriesValue:
    """Complex |q| < 1 fallback; principal branches throughout."""
    s = complex(s)
    _finite("s", s)
    _positive("tol", tol)
    logq = cmath.log(qc)
    decay = math.exp((logq * (s - 1.0)).real)
    if decay >= 1.0:
        raise DomainError("series does not decay for this (s, q) pair")
    chiv = chi_table(chi)
    val = 0j
    n = n0
    if n0 == 0:
        val += complex(chiv[0]) * cmath.exp(-s * math.log(x))
        n = 1
    omq = 1.0 - qc
    bsup = 0.0
    while True:
        qn = cmath.exp(n * logq)
        base = (1.0 - qn) / omq + x * qn
        term = chiv[n % len(chiv)] * cmath.exp(n * logq * (s - 1.0)) \
            * cmath.exp(-s * cmath.log(base))
        if n % 2 == 1:
            term = -term
        val += term
        envelope = abs(term) / (decay ** n)
        bsup = max(bsup, envelope)
        tail = 2.0 * bsup * decay ** (n + 1) / (1.0 - decay)
        if n >= n0 + 16 and tail <= tol:
            return SeriesValue(val, tail, n)
        n += 1
        if n > 10_000_000:
            raise DomainError("series did not reach tolerance")


def _alt_series(s, q: QParam, x: Optional[float],
                chi: Optional[DirichletCharacter], tol: float,
                n0: int, min_terms: int = 0) -> SeriesValue:
    xv = 0.0
    if x is not None:
        xv = float(x)
        _positive("x", xv)
        _finite("x", xv)
    if q.regime is QRegime.LIMIT1:
        raise DomainError("q = 1 not admissible; use the classical zeta module")
    if q.regime is QRegime.REAL_UNIT:
        return _alt_series_real(complex(s), q.value, xv, chi, tol, n0, min_terms)
    return _alt_series_disk(complex(s), complex(q.value), xv, chi, tol, n0)


def _scaled(sv: SeriesValue, factor: complex) -> SeriesValue:
    return SeriesValue(factor * sv.value, abs(factor) * sv.tail_bound,
                       sv.terms_used)


def q_alt_zeta(s, q: QParam, tol: float = 1e-12, genocchi_scale: bool = False,
               min_terms: int = 0) -> SeriesValue:
    """sum_{n>=1} (-1)^n q^(n(s-1)) [n]^(-s); with genocchi_scale the value is
    multiplied by [2] = 1 + q; rational q sums at least min_terms terms."""
    sv = _alt_series(s, q, None, None, tol, n0=1, min_terms=min_terms)
    return _scaled(sv, 1 + q.as_complex()) if genocchi_scale else sv


def q_plain_zeta(s, q: QParam, tol: float = 1e-12,
                 chi: Optional[DirichletCharacter] = None) -> SeriesValue:
    """Non-alternating analogue sum_{n>=1} chi(n) q^(n(s-1)) [n]^(-s), the
    Mellin image of the plain generating function (and its character twist)."""
    if q.regime is not QRegime.REAL_UNIT:
        raise DomainError("plain q-series implemented for rational 0 < q < 1")
    return _alt_series_real(complex(s), q.value, 0.0, chi, tol, n0=1,
                            alternating=False)


def q_alt_zeta_hurwitz(s, x, q: QParam, tol: float = 1e-12,
                       variant: str = "additive", genocchi_scale: bool = False,
                       min_terms: int = 0) -> SeriesValue:
    """Hurwitz variants (n from 0).

    additive: sum (-1)^n q^(-n) (q^(-n)[n] + x)^(-s)
    bracket:  sum (-1)^n q^(-n(1-s)) [n+x]^(-s), which equals the additive
              variant at [x] exactly (q^(-n)[n+x] = q^(-n)[n] + [x]).

    x may exceed 1: the conductor decomposition evaluates shifts up to
    1 + q^f/[f] by construction.
    """
    xv = float(x)
    _positive("x", xv)
    _finite("x", xv)
    if variant == "bracket":
        if q.regime is not QRegime.REAL_UNIT:
            raise DomainError("bracket variant needs exact rational q")
        qv = float(q.value)
        xv = (1.0 - qv ** xv) / (1.0 - qv)  # [x]
    elif variant != "additive":
        raise DomainError(f"unknown Hurwitz variant {variant!r}")
    sv = _alt_series(s, q, xv, None, tol, n0=0, min_terms=min_terms)
    return _scaled(sv, 1 + q.as_complex()) if genocchi_scale else sv


def q_alt_l(s, chi: DirichletCharacter, q: QParam, tol: float = 1e-12,
            genocchi_scale: bool = False, x: Optional[float] = None,
            min_terms: int = 0) -> SeriesValue:
    """Character twist; with x the two-variable version (n from 0, shifted
    base), without it the plain l-series (n from 1)."""
    if x is None:
        sv = _alt_series(s, q, None, chi, tol, n0=1, min_terms=min_terms)
    else:
        sv = _alt_series(s, q, float(x), chi, tol, n0=0, min_terms=min_terms)
    return _scaled(sv, 1 + q.as_complex()) if genocchi_scale else sv


def cck_zeta(s, q: QParam, tol: float = 1e-12) -> SeriesValue:
    """The comparison q-deformation q(1+q) sum_{n>=1} (-1)^(n+1) q^n [n]^(-s);
    terms decay like q^n, so Re(s) > 0 suffices."""
    if q.regime is not QRegime.REAL_UNIT:
        raise DomainError("cck variant implemented for exact rational 0 < q < 1")
    s = complex(s)
    _finite("s", s)
    if s.real <= 0:
        raise DomainError("Re(s) > 0 required")
    _positive("tol", tol)
    qv = float(q.value)
    pref = qv * (1.0 + qv)
    acc = 0j
    qn = 1.0
    bracket = 0.0
    n = 0
    while True:
        n += 1
        qn *= qv
        bracket = 1.0 + qv * bracket
        acc += (-1) ** (n + 1) * qn * cmath.exp(-s * math.log(bracket))
        tail = pref * qn * qv / (1.0 - qv)
        if tail <= tol and n >= 8:
            return SeriesValue(pref * acc, tail, n)


def verify_conductor_decomposition(s, chi: DirichletCharacter, q: QParam,
                                   tol: float = 1e-10,
                                   x: Optional[float] = None) -> VerificationOutcome:
    """Check the odd-conductor decomposition of the scaled l-series:

        [2] l(s, chi; q) = [2] [f]^(-s) sum_{a=1}^{f} (-1)^a q^(a(s-1)) chi(a)
                               * Hurwitz(s, [a]/[f]; base q^f)

    With x in (0, 1] the two-variable version is checked instead: the shift
    enters each inner Hurwitz argument as ([a] + x q^a)/[f], which exceeds 1
    at a = f, so the Hurwitz evaluator accepts any positive shift.

    The scaling bracket [2] = 1 + q is the ambient one on both sides: with
    the base-q^f bracket the right side is off by (1+q)/(1+q^f), so the
    identity only holds under the ambient reading.  Valid for odd f only
    (the substitution n = a + mf needs (-1)^(mf) = (-1)^m).
    """
    f = chi.modulus
    if f % 2 == 0:
        raise DomainError(
            f"conductor f = {f} is even: the decomposition's proof replaces "
            "(-1)^(a+mf) by (-1)^a (-1)^m, which needs odd f")
    if q.regime is not QRegime.REAL_UNIT:
        raise DomainError("decomposition check needs exact rational q")
    xv = None if x is None else float(x)
    if xv is not None and not 0 < xv <= 1:
        raise DomainError("x must lie in (0, 1]")
    s = complex(s)
    qfrac = q.value
    scale = 1.0 + float(qfrac)
    inner_tol = tol / (40.0 * f)

    lhs = scale * q_alt_l(s, chi, q, inner_tol, x=xv).value

    q_to_f = QParam.real(qfrac ** f)
    bf = qbracket(f, qfrac)
    qf = float(qfrac)
    logq = _logq(qfrac)
    rhs = 0j
    for a in range(1, f + 1):
        # the one-variable shift is rounded once from the exact ratio, the
        # two-variable one is formed in floats; reports pin both roundings
        xa = float(qbracket(a, qfrac) / bf) if xv is None \
            else (float(qbracket(a, qfrac)) + xv * qf ** a) / float(bf)
        inner = _alt_series(s, q_to_f, xa, None, inner_tol, n0=0)
        rhs += (-1) ** a * cmath.exp((s - 1.0) * a * logq) * chi.table[a % f] \
            * inner.value
    rhs *= scale * cmath.exp(-s * math.log(float(bf)))
    params = {"s": s, "q": str(qfrac), "chi": chi.label}
    if xv is not None:
        params["x"] = xv
    return VerificationOutcome.compare(
        "conductor-decomposition" + ("" if xv is None else "-2var"), params,
        lhs, rhs, tol)

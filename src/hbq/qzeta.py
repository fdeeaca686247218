"""Alternating q-series of zeta and l type, their Hurwitz variants, and the
conductor-decomposition verifiers.

The basic object is the series (Re s > 1 for 0 < q < 1)

    sum_{n>=1} (-1)^n q^(-n) / (q^(-n)[n])^s
        = sum_{n>=1} (-1)^n q^(n(s-1)) [n]^(-s),

its Hurwitz shift (n from 0, base [n] + x q^n after the same rewriting), and
the character twist.  One engine sums them all, for exact rational q and for
complex |q| < 1, in one pass of `_kernels.qzeta_partial_sum`; its tails are
controlled by a geometric majorant B decay^n.  With q^n in place of
q^(n(s-1)) it also sums `cck_zeta` and the complex-q q-Genocchi numbers.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

from . import _kernels
from .characters import DirichletCharacter, chi_table
from .core import (ConvergenceError, DomainError, QParam, QRegime,
                   SeriesValue, VerificationOutcome, _finite, _fits,
                   _im_limit, _logq, _positive, _shift, qbracket)

__all__ = [
    "cck_zeta",
    "q_alt_l",
    "q_alt_zeta",
    "q_alt_zeta_hurwitz",
    "q_plain_zeta",
    "verify_conductor_decomposition",
]

_QSERIES_MAX_IM = 1000.0
_MAX_PHASE = 1e5
_CCK_MAX_IM = 1e4
_MAX_TERMS = 10_000_000  # about 1 GB of kernel arrays


def _disk_majorant(s: complex, qc: complex, x: float):
    """(log q, log B, n_min): |term_n| <= B decay^n for n >= n_min on the disk.
    With c = 1/(1-q), [n] + x q^n = c + q^n (x - c); once |q|^n |x - c| <=
    |c|/2 its modulus is in [|c|/2, 3|c|/2] and its argument within pi/6 of
    Arg c, which bounds |base^(-s)| by B."""
    c = 1.0 / (1.0 - qc)
    rc = abs(c)
    log_b = max(-s.real * math.log(rc / 2.0), -s.real * math.log(1.5 * rc)) \
        + abs(s.imag) * (abs(cmath.phase(c)) + math.pi / 6.0)
    n_min = 0 if abs(x - c) <= rc / 2.0 \
        else math.ceil(math.log(rc / (2.0 * abs(x - c))) / math.log(abs(qc)))
    return cmath.log(qc), log_b, n_min


def _alt_series(s, q: QParam, x: Optional[float],
                chi: Optional[DirichletCharacter], tol: float,
                min_terms: int = 0, alternating: bool = True,
                alpha=None) -> SeriesValue:
    """The one engine for sum sign^n chi(n) q^(n alpha) ([n] + x q^n)^(-s),
    n from 0 with a shift x, else from 1.  alpha defaults to s - 1, whose
    domain checks run here; a caller passing alpha checks its own.  The
    regime sets log q and B in |term_n| <= B decay^n (B = 1 for rational q,
    as [n] + x q^n >= 1 and Re s > 0), and B decay^(n+1) / (1 - decay) <= tol
    the term count.  Phase rounding limits |Im s| to 1000 (against mpmath the
    error at tol 1e-12 is 5.5e-13 there at q = 1/2, 1.8e-12 at 3e3; more as
    q nears 1, see the README) and n |Im(alpha log q)| to 1e5 rad: on 25
    disk points with decay near 1 the error stayed under 6.6e-13 below it,
    and was 3e-12 at 6.4e5."""
    xv = 0.0 if x is None else _shift("x", x)
    if q.regime is QRegime.LIMIT1:
        raise DomainError("q = 1 not admissible; use the classical zeta module")
    s = complex(s)
    _finite("s", s)
    power = "q^n"
    if alpha is None:
        if q.regime is QRegime.REAL_UNIT and s.real <= 1:
            raise DomainError("Re(s) > 1 required")
        _positive("tol", tol)
        _im_limit(s, _QSERIES_MAX_IM, "q-series")
        alpha, power = s - 1.0, "q^(n(s-1))"
    logq, log_b, n_min = (_logq(q.value), 0.0, 0) if q.regime is QRegime.REAL_UNIT \
        else _disk_majorant(s, complex(q.value), xv)
    log_qs = logq * alpha
    log_decay = log_qs.real
    if log_decay >= 0:
        raise DomainError("series does not decay for this (s, q) pair")
    rate = math.exp(log_decay)
    n_stop = math.ceil((math.log(tol * (1.0 - rate)) - math.log(2.0) - log_b) / log_decay) + 2
    n_stop = max(n_stop, 8 if x is not None else 9, min_terms, n_min)
    phase = (n_stop + 1) * abs(log_qs.imag)
    if phase > _MAX_PHASE:
        raise DomainError(f"phase of {power} {phase:.3g} above the limit of {_MAX_PHASE:g}")
    if n_stop > _MAX_TERMS:
        raise ConvergenceError(f"series needs {n_stop} terms, above the cap of {_MAX_TERMS}")
    chiv = chi_table(chi)
    head = 0j
    if x is not None:  # the n = 0 term
        _fits("x^(-s)", -s.real * math.log(xv))
        head = complex(chiv[0]) * cmath.exp(-s * math.log(xv))
    body, check = _kernels.qzeta_partial_sum(logq, s, xv, chiv, alternating,
                                             1, n_stop + 1, alpha)
    # B decay^(n+1) as one power of decay, so B itself never overflows
    tail = rate ** (n_stop + 1 + log_b / log_decay) / (1.0 - rate)
    # belt and suspenders: the first omitted term must sit under the majorant
    if check > tail * (1.0 + 1e-9) + 1e-300:
        raise ConvergenceError("series stop rule failed its own consistency check")
    if not cmath.isfinite(body):
        raise DomainError("series terms overflow the float range")
    return SeriesValue(head + body, tail, n_stop)


def q_alt_zeta(s, q: QParam, tol: float = 1e-12, genocchi_scale: bool = False,
               min_terms: int = 0) -> SeriesValue:
    """sum_{n>=1} (-1)^n q^(n(s-1)) [n]^(-s); with genocchi_scale the value is
    multiplied by [2] = 1 + q; at least min_terms terms are summed."""
    sv = _alt_series(s, q, None, None, tol, min_terms)
    return sv.scaled(1 + q.as_complex()) if genocchi_scale else sv


def q_plain_zeta(s, q: QParam, tol: float = 1e-12,
                 chi: Optional[DirichletCharacter] = None) -> SeriesValue:
    """Non-alternating analogue sum_{n>=1} chi(n) q^(n(s-1)) [n]^(-s), the
    Mellin image of the plain generating function (and its character twist)."""
    return _alt_series(s, q, None, chi, tol, alternating=False)


def q_alt_zeta_hurwitz(s, x, q: QParam, tol: float = 1e-12,
                       variant: str = "additive",
                       genocchi_scale: bool = False) -> SeriesValue:
    """Hurwitz variants (n from 0).

    additive: sum (-1)^n q^(-n) (q^(-n)[n] + x)^(-s)
    bracket:  sum (-1)^n q^(-n(1-s)) [n+x]^(-s), which equals the additive
              variant at [x] exactly (q^(-n)[n+x] = q^(-n)[n] + [x]).

    x may exceed 1: the conductor decomposition evaluates shifts up to
    1 + q^f/[f] by construction.
    """
    xv = _shift("x", x)
    if variant == "bracket":
        if q.regime is not QRegime.REAL_UNIT:
            raise DomainError("bracket variant needs exact rational q")
        qv = float(q.value)
        xv = (1.0 - qv ** xv) / (1.0 - qv)  # [x]
    elif variant != "additive":
        raise DomainError(f"unknown Hurwitz variant {variant!r}")
    sv = _alt_series(s, q, xv, None, tol)
    return sv.scaled(1 + q.as_complex()) if genocchi_scale else sv


def q_alt_l(s, chi: DirichletCharacter, q: QParam, tol: float = 1e-12,
            genocchi_scale: bool = False,
            x: Optional[float] = None) -> SeriesValue:
    """Character twist; with x the two-variable version (n from 0, shifted
    base), without it the plain l-series (n from 1)."""
    sv = _alt_series(s, q, x, chi, tol)
    return sv.scaled(1 + q.as_complex()) if genocchi_scale else sv


def cck_zeta(s, q: QParam, tol: float = 1e-12) -> SeriesValue:
    """The comparison q-deformation q(1+q) sum_{n>=1} (-1)^(n+1) q^n [n]^(-s),
    the engine at alpha = 1; terms decay like q^n, so Re(s) > 0 suffices.
    |Im s| <= 1e4, where the rounding of log q leaves errors up to 5.0e-11
    against mpmath (1 - q in [0.01, 0.9]; 5.6e-10 at 1e5)."""
    if q.regime is not QRegime.REAL_UNIT:
        raise DomainError("cck variant implemented for exact rational 0 < q < 1")
    s = complex(s)
    _finite("s", s)
    if s.real <= 0:
        raise DomainError("Re(s) > 0 required")
    _positive("tol", tol)
    _im_limit(s, _CCK_MAX_IM, "cck")
    pref = float(q.value) * (1.0 + float(q.value))
    return _alt_series(s, q, None, None, tol / pref, alpha=1.0).scaled(-pref)


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
        inner = _alt_series(s, q_to_f, xa, None, inner_tol)
        rhs += (-1) ** a * cmath.exp((s - 1.0) * a * logq) * chi.table[a % f] \
            * inner.value
    rhs *= scale * cmath.exp(-s * math.log(float(bf)))
    params = {"s": s, "q": str(qfrac), "chi": chi.label}
    if xv is not None:
        params["x"] = xv
    return VerificationOutcome.compare(
        "conductor-decomposition" + ("" if xv is None else "-2var"), params,
        lhs, rhs, tol)

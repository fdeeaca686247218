"""Alternating q-series of zeta and l type, their Hurwitz variants, and the
conductor-decomposition verifiers.

The basic object is the series (Re s > 1 for 0 < q < 1)

    sum_{n>=1} (-1)^n q^(-n) / (q^(-n)[n])^s
        = sum_{n>=1} (-1)^n q^(n(s-1)) [n]^(-s),

its Hurwitz shift (n from 0, base [n] + x q^n after the same rewriting), and
the character twist.  One engine sums them all, for exact rational q and for
complex |q| < 1.  At rational q it splits the series into antiperiodic
residue classes, each an alternating moment sequence with nodes on a
segment from 0 within a quarter turn of [0, 1], and sums them with the
Cohen-Rodriguez Villegas-Zagier acceleration (`_kernels.crvz_sum`, its
bound widened by a Bernstein ellipse factor off [0, 1]) when that needs
fewer terms; otherwise it sums the terms directly, with tails controlled by
a geometric majorant B decay^n.  One generator (`_class_terms`) forms the
terms of both routes.  The one rule for the direct sum reads only its term
count: at most `_PY_TERMS` terms are added in Python, with `math.fsum`,
and longer sums go to `_kernels.qzeta_partial_sum`, which forms them in
bounded blocks, in buffers made once per call.  With q^n in place of
q^(n(s-1)) it also sums `cck_zeta`, at any s, and the complex-q q-Genocchi
numbers.
"""

from __future__ import annotations

import cmath
import functools
import itertools
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
_MAX_TERMS = 10_000_000  # about 2 s of direct sum at 0.2 s a million terms
# direct sums of at most this many terms are added in Python, longer ones by
# the array kernel: its warm break-even, about 50 terms at real s (37 at
# complex s, where a term costs more), rounded to a power of two
_PY_TERMS = 64


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


@functools.lru_cache(maxsize=None)
def _antiperiod(chi: tuple, alternating: bool):
    """(c_1, ..., c_P) for the smallest antiperiod P of c_n = sign^n chi(n),
    c_(n+P) = -c_n for all n, or None when c has none.  c then has minimal
    period 2P, which divides the period L of sign^n chi(n), so P runs over
    the divisors of L/2."""
    coef = _kernels._coefficients(chi, alternating)
    period = len(coef)
    if period % 2:
        return None
    half = period // 2
    for p in range(1, half + 1):
        if half % p == 0 and all(abs(coef[(n + p) % period] + coef[n]) < 1e-12
                                 for n in range(period)):
            return tuple(coef[r % period] for r in range(1, p + 1))
    return None


def _ellipse_log_rho(theta: float) -> float:
    """log rho of the Bernstein ellipse E_rho (foci -1 and 1) through
    w = 1 - 2 e^(i theta), the image under t -> 1 - 2t of the end of the
    segment from 0 to e^(i theta); rho = |w + sqrt(w^2 - 1)| on the branch
    outside the unit circle, 1 at theta = 0.  E_rho is convex and holds
    [-1, 1], the image of 0, so it holds the image of the whole segment."""
    w = 1.0 - 2.0 * cmath.exp(complex(0.0, theta))
    root = cmath.sqrt(w * w - 1.0)
    return math.log(max(abs(w + root), abs(w - root)))


def _class_terms(r: int, step: int, count: int, s: complex, x: float, alpha,
                 logq):
    """g(r + step m) for m = 0..count-1, g(n) = q^(n alpha) ([n] + x q^n)^(-s),
    the one term generator: `_crvz` sums it accelerated over each residue
    class mod step, the short direct route plainly from r = step = 1.  log q
    is real for 0 < q < 1 and complex on the disk.  [k + step] =
    [k] + q^k [step] adds positive terms at real q, so the bracket keeps its
    digits as q nears 1."""
    if isinstance(logq, float):
        qexp, expm1, log = math.exp, math.expm1, math.log
    else:  # the disk, direct route only: r = step = 1, and [1] = 1 needs no expm1
        qexp, expm1, log = cmath.exp, lambda z: cmath.exp(z) - 1.0, cmath.log
    alpha = complex(alpha)
    if alpha.imag == 0:
        alpha = alpha.real
    exp, power = (math.exp, s.real) if s.imag == 0 and log is math.log \
        else (cmath.exp, s)
    omq = -expm1(logq)
    q_step = qexp(step * logq)
    bracket_step = -expm1(step * logq) / omq  # [step]
    qk, bracket = qexp(r * logq), -expm1(r * logq) / omq
    for k in range(r, r + step * count, step):
        yield exp(k * alpha * logq - power * log(bracket + x * qk))
        bracket += qk * bracket_step
        qk *= q_step


def _crvz(s: complex, x: float, chi: tuple, alternating: bool, alpha,
          logq: float, tol: float, n_direct: int):
    """The CRVZ route for rational q: (value, bound, terms) of
    sum_{n>=1} c_n g(n), g(n) = q^(n alpha) ([n] + x q^n)^(-s), or None where
    it does not apply or needs n_direct terms or more.

    With an antiperiod P, class r = 1..P is c_r sum_m (-1)^m g(r + Pm).  For
    Re alpha > 0 and b = 1 - x(1-q) > 0, g(n) = (1-q)^s sum_k
    C(s+k-1, k) b^k q^(n(alpha+k)), so each class is a moment sequence with
    nodes q^(P(alpha+k)) on the segment from 0 to e^(i theta),
    theta = P Im(alpha) log q, and total variation at most
    (1-q)^(Re s - |s|) q^(r Re alpha) ([r] + x q^r)^(-|s|), which is g(r) at
    real s.  The route takes |theta| <= pi/2, so Re t >= 0 and |1 + t| >= 1
    on the segment, which lies in the Bernstein ellipse E_rho of
    `_ellipse_log_rho` (rho = 1 at real alpha).  N terms per class then
    bound the error by 3 M rho^N (3+sqrt 8)^(-N), M the sum of |c_r| times
    these masses; rho <= 4.62 < 3+sqrt 8 at |theta| = pi/2, and the spare
    factor 3/2 over CRVZ's 2 covers the rounding of rho.  log q is the
    engine's, from `core._logq`, so both routes sum the series at the same
    q."""
    omq = -math.expm1(logq)
    alpha = complex(alpha)
    if alpha.real <= 0 or x * omq >= 1.0:
        return None
    coef = _antiperiod(chi, alternating)
    if coef is None:
        return None
    period = len(coef)
    theta = period * alpha.imag * logq
    if abs(theta) > math.pi / 2:
        return None
    classes = [(r, c) for r, c in enumerate(coef, 1) if c != 0]
    if _kernels.CRVZ_MIN_TERMS * len(classes) >= n_direct:
        return None
    log_rho = _ellipse_log_rho(theta)
    # log M, summed past the float range: the masses may underflow
    log_tv = (s.real - abs(s)) * math.log(omq)
    logs = [math.log(abs(c)) + log_tv + r * alpha.real * logq
            - abs(s) * math.log(-math.expm1(r * logq) / omq + x * math.exp(r * logq))
            for r, c in classes]
    top = max(logs)
    log_mass = top + math.log(sum(math.exp(v - top) for v in logs))
    n = _kernels.crvz_terms(log_mass, tol, log_rho)
    if n > _kernels.CRVZ_MAX_TERMS or n * len(classes) >= n_direct:
        return None
    value = sum(c * _kernels.crvz_sum(_class_terms(r, period, n, s, x, alpha, logq), n)
                for r, c in classes)
    bound = 3.0 * math.exp(log_mass - n * (_kernels.CRVZ_LOG_RATE - log_rho))
    return value, bound, n * len(classes)


def _alt_series(s, q: QParam, x: Optional[float],
                chi: Optional[DirichletCharacter], tol: float,
                alternating: bool = True, alpha=None) -> SeriesValue:
    """The one engine for sum sign^n chi(n) q^(n alpha) ([n] + x q^n)^(-s),
    n from 0 with a shift x, else from 1.  alpha defaults to s - 1, whose
    domain checks run here; a caller passing alpha checks its own.

    Two routes, chosen by term count.  For rational q, Re alpha > 0, a
    shift with 1 - x(1-q) > 0, coefficients with an antiperiod P and
    P |Im(alpha) log q| <= pi/2, the CRVZ route (`_crvz`) sums each residue
    class with the one CRVZ loop; it runs whenever it needs fewer terms than
    the direct route.  That covers the real-s q-series and `cck_zeta` at any
    s, whose nodes lie in [0, 1], and the complex-s q-series, whose nodes
    q^(P(k+s-1)) lie on a segment from 0 within a quarter turn of [0, 1],
    at a rate slowed by the Bernstein ellipse about it.  The direct route
    adds up to `_PY_TERMS` terms in Python and passes longer sums to
    `_kernels.qzeta_partial_sum`; as both routes then sum short series in
    Python, the rule by term count compares like with like.  The regime
    sets log q (`core._logq` for rational q, on both routes) and B in
    |term_n| <= B decay^n (B = 1 for rational q, as [n] + x q^n >= 1 and
    Re s > 0), and B decay^(n+1) / (1 - decay) <= tol the term count, on
    both direct routes; at complex q = 0 the terms n >= 1 vanish if
    Re alpha > 0.  Phase rounding limits |Im s| to
    1000 (at tol 1e-12 the error against mpmath there is up to 5.6e-13 for
    1 - q in [0.05, 0.9]; 1.8e-12 at 3e3, q = 1/2; see the README) and, on
    the direct route, n |Im(alpha log q)| to 1e5 rad: on 25 disk points with
    decay near 1 the error stayed under 6.6e-13 below it, and was 3e-12 at
    6.4e5."""
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
    chiv = chi_table(chi)
    head = 0j
    if x is not None:  # the n = 0 term
        _fits("x^(-s)", -s.real * math.log(xv))
        head = complex(chiv[0]) * cmath.exp(-s * math.log(xv))
    if q.value == 0:  # no log q: q^(n alpha) is 0 for n >= 1 iff Re alpha > 0
        if alpha.real <= 0:
            raise DomainError("series does not decay for this (s, q) pair")
        return SeriesValue(head, 0.0, 1)
    logq, log_b, n_min = (_logq(q.value), 0.0, 0) if q.regime is QRegime.REAL_UNIT \
        else _disk_majorant(s, complex(q.value), xv)
    log_qs = logq * alpha
    log_decay = log_qs.real
    if log_decay >= 0:
        raise DomainError("series does not decay for this (s, q) pair")
    rate = math.exp(log_decay)
    n_stop = math.ceil((math.log(tol * (1.0 - rate)) - math.log(2.0) - log_b) / log_decay) + 2
    n_stop = max(n_stop, 8 if x is not None else 9, n_min)
    if q.regime is QRegime.REAL_UNIT:
        crvz = _crvz(s, xv, chiv, alternating, alpha, logq, tol, n_stop)
        if crvz is not None:
            body, bound, terms = crvz
            return SeriesValue(head + body, bound, terms)
    phase = (n_stop + 1) * abs(log_qs.imag)
    if phase > _MAX_PHASE:
        raise DomainError(f"phase of {power} {phase:.3g} above the limit of {_MAX_PHASE:g}")
    if n_stop > _MAX_TERMS:
        raise ConvergenceError(f"series needs {n_stop} terms, above the cap of {_MAX_TERMS}")
    if n_stop <= _PY_TERMS:
        coef = _kernels._coefficients(chiv, alternating)
        try:
            terms = [c * g for c, g in zip(
                itertools.islice(itertools.cycle(coef), 1, None),
                _class_terms(1, 1, n_stop + 1, s, xv, alpha, logq))]
        except (OverflowError, ValueError):  # math's exp and log raise
            raise DomainError("series terms overflow the float range") from None
        check = abs(terms.pop())
        body = complex(math.fsum([t.real for t in terms]),
                       math.fsum([t.imag for t in terms]))
    else:
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


def q_alt_zeta(s, q: QParam, tol: float = 1e-12,
               genocchi_scale: bool = False) -> SeriesValue:
    """sum_{n>=1} (-1)^n q^(n(s-1)) [n]^(-s); with genocchi_scale the value is
    multiplied by [2] = 1 + q."""
    sv = _alt_series(s, q, None, None, tol)
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
        logq = _logq(q.value)
        xv = math.expm1(xv * logq) / math.expm1(logq)  # [x]
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
    |Im s| <= 1e4, where the rounding of the phases Im(s) log[n] leaves
    errors up to 2.6e-12 against mpmath (40 seeded points, 1 - q in
    [0.01, 0.9]; 6e-11 at 1e5)."""
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

    lhs = scale * _alt_series(s, q, xv, chi, inner_tol).value

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

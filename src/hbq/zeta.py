"""Classical analytic machinery: Riemann zeta, the odd-denominator zeta
zeta*(s), the alternating (Genocchi-type) zeta, Hurwitz zeta, the
Hurwitz-Lerch transcendent, and digamma.

Algorithms: Cohen-Rodriguez Villegas-Zagier acceleration for the alternating
series (Experiment. Math. 9 (2000)), Euler-Maclaurin for Hurwitz zeta,
recurrence shift plus the Bernoulli asymptotic series for digamma and for
the complex log-Gamma (Stirling, DLMF 5.11(ii)).  Values at
nonpositive integers go through exact Bernoulli-number arithmetic.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from ._kernels import CRVZ_LOG_RATE, CRVZ_MAX_TERMS, crvz_sum, crvz_terms
from .core import (ConvergenceError, DomainError, SeriesValue, _finite, _fits,
                   _im_limit, _positive, _shift)
from .numbers import NumberKind, number_table

__all__ = [
    "digamma",
    "genocchi_zeta",
    "genocchi_zeta_exact",
    "hurwitz_zeta",
    "lerch_phi",
    "odd_power_sum",
    "riemann_zeta",
    "zeta_exact_nonpositive",
    "zeta_star",
]

_BERN = number_table(NumberKind.BERNOULLI, 40)
_BERN_FLOAT = tuple(float(b) for b in _BERN)
_HURWITZ_MAX_IM = 1000.0
_EM_COEF = tuple(_BERN_FLOAT[2 * j] / math.factorial(2 * j) for j in range(1, 14))
_LERCH_MAX_IM = 1e4
_DIRECT_MAX_TERMS = 50_000_000


def _is_nonpositive_int(s) -> bool:
    z = complex(s)
    return z.imag == 0 and z.real <= 0 and z.real == int(z.real)


def zeta_exact_nonpositive(s0: int) -> Fraction:
    """zeta at an integer s0 <= 0, exactly: zeta(0) = -1/2 and
    zeta(1-n) = -B_n/n for n >= 2."""
    if s0 > 0:
        raise DomainError("exact route only covers s <= 0")
    if s0 == 0:
        return Fraction(-1, 2)
    n = 1 - s0
    return -_BERN[n] / n if n < len(_BERN) else -number_table(NumberKind.BERNOULLI, n)[n] / n


def _eta_accelerated(s: complex, tol: float):
    """Alternating zeta eta(s) = sum_{m>=1} (-1)^(m-1) m^(-s) for Re s > 0.

    The CRVZ error bound for totally monotone coefficients is
    3 (3+sqrt(8))^(-n); complex s inflates it by Gamma(Re s)/|Gamma(s)|,
    about exp(pi |Im s| / 2).  n is capped at 390, which at the default
    tolerance admits |Im s| up to about 400.
    """
    z = complex(s)
    if z.real <= 0:
        raise DomainError("alternating route needs Re(s) > 0")
    log_tv = 0.0 if z.imag == 0 else math.lgamma(z.real) - _loggamma(z).real
    n = crvz_terms(max(log_tv, 0.0), tol)
    if n > CRVZ_MAX_TERMS:
        raise DomainError(f"s = {z} needs {n} > {CRVZ_MAX_TERMS} terms at tol "
                          f"{tol:.3g}: |Im s| or 1/tol is too large")
    # rounded up past the log-Gamma rounding (under 2.5e-13 relative
    # wherever the factor is finite), since it enters an upper bound
    tv = 1.0 if z.imag == 0 else math.exp(log_tv) * (1.0 + 5e-13)
    eta = crvz_sum(((k + 1) ** (-z) for k in range(n)), n)
    bound = 3.0 * max(tv, 1.0) * math.exp(-n * CRVZ_LOG_RATE)
    return eta, bound, n


def riemann_zeta(s, tol: float = 1e-12) -> SeriesValue:
    """Riemann zeta via the accelerated alternating series for Re(s) > 0
    (s != 1) and exact Bernoulli values at nonpositive integers."""
    _positive("tol", tol)
    _finite("s", s)
    if _is_nonpositive_int(s):
        return SeriesValue(complex(float(zeta_exact_nonpositive(int(complex(s).real)))),
                           0.0, 0)
    z = complex(s)
    if z == 1:
        raise DomainError("zeta has a pole at s = 1")
    eta, bound, n = _eta_accelerated(z, tol / 4)
    denom = 1.0 - 2.0 ** (1.0 - z) if z.imag == 0 else 1.0 - cmath.exp((1.0 - z) * math.log(2.0))
    if abs(denom) < 1e-12:
        raise DomainError("s too close to a zero of 1 - 2^(1-s)")
    return SeriesValue(eta / denom, bound / abs(denom), n)


def zeta_star(s, tol: float = 1e-12, route: str = "identity") -> SeriesValue:
    """Odd-denominator zeta  zeta*(s) = sum_{m>=1} (2m-1)^(-s).

    route="identity" uses (1 - 2^(-s)) zeta(s) (valid for Re s > 0, s != 1);
    route="direct" sums the defining series with an Euler-Maclaurin tail
    (requires Re s > 1).  The two must agree within combined tail bounds.
    """
    z = complex(s)
    if route == "identity":
        return riemann_zeta(z, tol / 2).scaled(
            1.0 - cmath.exp(-z * math.log(2.0)))
    if route == "direct":
        if z.real <= 1:
            raise DomainError("direct route needs Re(s) > 1")
        return hurwitz_zeta(z, 0.5, tol / 2).scaled(
            cmath.exp(-z * math.log(2.0)))
    raise DomainError(f"unknown route {route!r}")


def genocchi_zeta(s, tol: float = 1e-12) -> SeriesValue:
    """Alternating (Genocchi-type) zeta  2 sum_{n>=1} (-1)^n n^(-s) = -2 eta(s).

    Entire in s: the alternating route covers Re(s) > 0 including s = 1, and
    nonpositive integers go through exact Bernoulli arithmetic.
    """
    _positive("tol", tol)
    _finite("s", s)
    if _is_nonpositive_int(s):
        return SeriesValue(complex(float(genocchi_zeta_exact(int(complex(s).real)))),
                           0.0, 0)
    eta, bound, n = _eta_accelerated(complex(s), tol / 2)
    return SeriesValue(-2.0 * eta, 2.0 * bound, n)


def genocchi_zeta_exact(s0: int) -> Fraction:
    """Exact value of the alternating zeta's continuation at integer s0 <= 0:
    -2 (1 - 2^(1-s0)) zeta(s0)."""
    if s0 > 0:
        raise DomainError("exact route only covers s <= 0")
    return -2 * (1 - Fraction(2) ** (1 - s0)) * zeta_exact_nonpositive(s0)


def hurwitz_zeta(s, a, tol: float = 1e-12) -> SeriesValue:
    """Hurwitz zeta zeta(s, a) by Euler-Maclaurin, a > 0, s != 1 and
    |Im s| <= 1000, past which the rounding of its 14 + 1.5 |Im s| terms
    exceeds 1e-12 (against mpmath: 2.3e-13 at |Im s| = 1e3, 7.9e-12 at 1e4)."""
    _positive("tol", tol)
    z = complex(s)
    _finite("s", z)
    af = _shift("a", a)
    if z == 1:
        raise DomainError("pole at s = 1")
    _im_limit(z, _HURWITZ_MAX_IM, "Hurwitz")
    big_n = max(0, int(math.ceil(14 + 1.5 * abs(z.imag) - af)))
    w = af + big_n
    _fits("zeta(s, a)'s largest term", max(-z.real * math.log(af), (1.0 - z.real) * math.log(w)))
    acc = 0j
    for n in range(big_n):
        acc += cmath.exp(-z * math.log(af + n))
    acc += cmath.exp((1.0 - z) * math.log(w)) / (z - 1.0)
    acc += 0.5 * cmath.exp(-z * math.log(w))
    j_max = 12
    rise = z  # the rising factorial (z)_(2j-1) = z (z+1) ... (z+2j-2)
    for j in range(1, j_max + 1):
        acc += _EM_COEF[j - 1] * rise * cmath.exp(-(z + 2 * j - 1) * math.log(w))
        rise *= z + (2 * j - 1)
        rise *= z + 2 * j
    nxt = abs(_EM_COEF[j_max] * rise) * w ** (-(z.real + 2 * j_max + 1))
    bound = nxt * (abs(z + 2 * j_max + 1) / (z.real + 2 * j_max + 1))
    if bound > tol:
        raise DomainError(f"Euler-Maclaurin tail {bound:.2e} above tol; "
                          "increase tol or stay in a tamer region")
    return SeriesValue(acc, bound, big_n + j_max)


def _power_tail(az: float, sr: float, m: int, step: int, offset) -> float:
    """Bound on the terms after m of sum z^m b_m^(-s), b_m = step m + offset,
    or inf until r = |z| (b_(m+1)/b_m)^max(0, -Re s), which falls with m, is
    below 1; on |z| = 1 (Re s > 1, b_m = m + a) the integral tail."""
    u, v = step * m + offset, step * (m + 1) + offset
    if az == 1:
        return u ** (1.0 - sr) / (sr - 1.0)
    r = az * (v / u) ** max(0.0, -sr)
    return (az ** (m + 1)) * v ** (-sr) / (1.0 - r) if r < 1 else math.inf


def _power_series(zc: complex, sc: complex, tol: float, m0: int, step: int,
                  offset) -> SeriesValue:
    """sum_{m>=m0} z^m (step m + offset)^(-s), summed to the first m whose
    `_power_tail` is at most tol; an input whose bound misses tol at the cap
    of 5e7 terms fails before anything is summed.

    That m is found before summing, by galloping and then bisection, as the
    bound falls with m.  On |z| = 1 it is u^(1 - Re s) / (Re s - 1),
    u = step m + offset, which falls for Re s > 1.  For |z| < 1 the ratio
    r = |z| (v/u)^max(0, -Re s), v = u + step, falls with m, so the bound is
    inf up to some m and finite from there on, where one step multiplies it
    by |z| (v'/v)^(-Re s) <= |z| < 1 for Re s >= 0 (v' = v + step), and by
    r' (1 - r) / (1 - r') for Re s < 0, r' the next ratio.  That factor is
    below 1 iff r' (2 - r) < 1, and r' < r < 1 gives
    r' (2 - r) < r (2 - r) = 1 - (1 - r)^2.  The terms are then added in
    the order, and with the operations, of a loop that tests each term."""
    az, sr = abs(zc), sc.real

    def done(m):
        return _power_tail(az, sr, m, step, offset) <= tol

    hi = m0 + _DIRECT_MAX_TERMS
    if not done(hi):
        raise ConvergenceError(f"the series needs more than {_DIRECT_MAX_TERMS} terms")
    lo, gap = m0 - 1, 1  # the stop lies in (lo, hi]
    while lo + gap < hi and not done(lo + gap):
        lo, gap = lo + gap, 2 * gap
    hi = min(hi, lo + gap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if done(mid) else (mid, hi)
    acc = 0j
    zp = 1.0 + 0j
    for _ in range(m0):
        zp *= zc
    for m in range(m0, hi + 1):
        acc += zp * cmath.exp(-sc * math.log(step * m + offset))
        zp *= zc
    return SeriesValue(acc, _power_tail(az, sr, hi, step, offset), hi - m0 + 1)


def lerch_phi(z, s, a, tol: float = 1e-12) -> SeriesValue:
    """Hurwitz-Lerch transcendent Phi(z,s,a) = sum_{m>=0} z^m (m+a)^(-s).

    Summation starts at m = 0, the convention under which Phi(1,s,a)
    reduces to the Hurwitz zeta.  |z| < 1, or |z| = 1 with Re(s) > 1; a > 0.
    For z != 1, |Im s| <= 1e4: against mpmath the error at tol 1e-12 is
    7.1e-13 at |Im s| = 1e4 and 2.9e-12 at 1e5.
    """
    _positive("tol", tol)
    af = _shift("a", a)
    zc = complex(z)
    sc = complex(s)
    _finite("z", zc)
    _finite("s", sc)
    az = abs(zc)
    if az > 1:
        raise DomainError("|z| <= 1 required")
    if az == 1 and sc.real <= 1:
        raise DomainError("|z| = 1 needs Re(s) > 1")
    if zc == 1:
        return hurwitz_zeta(sc, af, tol)
    _im_limit(sc, _LERCH_MAX_IM, "Lerch")
    _fits("a^(-s)", -sc.real * math.log(af))  # the largest term for Re s > 0
    if zc == 0:
        return SeriesValue(cmath.exp(-sc * math.log(af)), 0.0, 1)
    return _power_series(zc, sc, tol, 0, 1, af)


def odd_power_sum(z, s, b: int = 1, tol: float = 1e-12,
                  route: str = "direct") -> SeriesValue:
    """sum_{m>=1} z^m / (2m-1)^s.

    route="direct" sums the series (z = 1 goes through 2^(-s) zeta(s, 1/2)).
    route="decomposition" uses the Lerch split over b residue classes,

        z (2b)^(-s) sum_{j=1}^{b} z^(j-1) Phi(z^b, s, (2j-1)/(2b)),

    with the sum over j restored and the leading z fixed against the direct
    oracle (the m-from-0 Phi convention shifts every exponent down by one).
    For z != 1 both routes take |Im s| <= 1e4, the limit of `lerch_phi`.
    """
    _positive("tol", tol)
    if b < 1:
        raise DomainError("b must be >= 1")
    zc = complex(z)
    sc = complex(s)
    _finite("z", zc)
    _finite("s", sc)
    if zc != 1:
        _im_limit(sc, _LERCH_MAX_IM, "Lerch")
    if route == "decomposition":
        acc = 0j
        bound = 0.0
        terms = 0
        scale = cmath.exp(-sc * math.log(2 * b))
        for j in range(1, b + 1):
            phi = lerch_phi(zc ** b, sc, Fraction(2 * j - 1, 2 * b), tol / (2 * b))
            acc += zc ** (j - 1) * phi.value
            bound += abs(zc) ** (j - 1) * phi.tail_bound
            terms += phi.terms_used
        return SeriesValue(zc * scale * acc, abs(scale) * bound, terms)
    if route != "direct":
        raise DomainError(f"unknown route {route!r}")
    if zc == 1:
        if sc.real <= 1:
            raise DomainError("z = 1 needs Re(s) > 1")
        return hurwitz_zeta(sc, 0.5, tol).scaled(cmath.exp(-sc * math.log(2.0)))
    if abs(zc) >= 1:
        raise DomainError("|z| < 1 required for the direct sum (or z = 1)")
    return _power_series(zc, sc, tol, 1, 2, -1)


def digamma(x: float, tol: float = 1e-12) -> float:
    """psi(x) for x > 0: recurrence shift to x >= 12, then the Bernoulli
    asymptotic series, truncation error below the first omitted term.  Nine
    terms stop at the omitted B_20 term, about 6.9e-21 at x = 12, so a tol
    that term does not reach is a `DomainError`."""
    _finite("x", x)
    if x <= 0:
        raise DomainError("digamma implemented for x > 0")
    _positive("tol", tol)
    shift = 0.0
    y = float(x)
    while y < 12.0:
        shift -= 1.0 / y
        y += 1.0
    acc = math.log(y) - 0.5 / y
    y2 = y * y
    yp = y2
    for j in range(1, 10):
        term = _BERN_FLOAT[2 * j] / (2 * j) / yp
        acc -= term
        yp *= y2
        nxt = abs(_BERN_FLOAT[2 * j + 2]) / (2 * j + 2) / yp
        if nxt < tol:
            break
    else:
        raise DomainError(f"digamma's asymptotic series stops at {nxt:.2g} "
                          f"at x = {x:.6g}, above tol {tol:.3g}")
    return acc + shift


def _loggamma(z: complex) -> complex:
    """log Gamma(z) for Re z > 0, up to a multiple of 2 pi i: recurrence
    shift to |z| >= 15, then the Stirling series in B_2k / (2k(2k-1) z^(2k-1))
    for k < K = 9.  For |arg z| <= pi/2 its remainder is below
    sec^(2K)(arg z / 2) times the k = K term (DLMF 5.11(ii)), here under 1e-18.
    """
    z = complex(z)
    if not z.real > 0:
        raise DomainError("log-Gamma implemented for Re(z) > 0")
    shift = 0j
    while abs(z) < 15.0:
        shift += cmath.log(z)
        z += 1.0
    acc = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    w = 1.0 / z
    w2 = w * w
    for k in range(1, 9):
        acc += _BERN_FLOAT[2 * k] / (2 * k * (2 * k - 1)) * w
        w *= w2
    return acc - shift

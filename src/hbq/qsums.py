"""Generating functions f/F (plain and character-twisted), the damped
oscillatory sums they generate, the q-Hardy-Berndt and q-Dedekind scalings,
and the digamma closed form for the six classical trigonometric series.

Evaluation strategy
-------------------
For 0 < q < 1 the oscillatory sums are formal: the inner terms grow like
q^(-n), so each sum is evaluated on a decreasing schedule of damping offsets
eps (argument i*theta replaced by eps + i*theta) and Richardson-extrapolated
to eps = 0, with a divergence flag when the per-offset values do not
stabilize.  Summing n-first makes each offset value exact up to the damping
cut: for fixed n the m-sums are classical Fourier series (square wave,
sawtooth, Bernoulli polynomial) whose values are computed in exact rational
arithmetic from the exact rational angle q^(-n)[n] h / k.

At q = 1 the damped sums collapse to geometric ratios over one period of
the angle lattice, and the value is their exact Abel limit whenever the
period sum cancels.  The Hardy-Berndt variants are read through the tan/cot
corollary forms (doubled exponent), under which that limit reproduces the
classical finite sums; the q-Dedekind sums use the literal reading.  The
Richardson value of the damped offsets is kept beside it as ``extrapolated``
for the schedule-stability check, and the digamma closed form of the
classical series (`classical_trig_series`) is a separate, independent route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import _kernels
from .characters import DirichletCharacter, chi_table
from .core import (ConvergenceError, DomainError, ParityError, PoleError,
                   QParam, QRegime, SeriesValue, _logq, _positive)
from .numbers import bernoulli_polynomial
from .sums import _TERMS, _hardy_args, _hardy_variant, parity_condition
from .zeta import digamma, hurwitz_zeta

__all__ = [
    "DEFAULT_SCHEDULE",
    "HB_SCALE",
    "RegularizationSchedule",
    "YSumResult",
    "classical_trig_series",
    "dedekind_oscillatory_sum",
    "eval_gen",
    "oscillatory_sum",
    "q_dedekind_sum",
    "q_hardy_berndt_sum",
]

# per-variant wiring: generating kind (F alternates in n), odd (2m-1) vs
# plain m weights, congruence exclusion, theorem scaling constant.  The
# first two are the signs (-1)^j and (-1)^floor(hj/k) of the finite sum,
# bits a and b of `sums._TERMS`, so `sums` alone decides them.
_F_FAMILY = {v: bool(t[1]) for v, t in _TERMS.items()}
_ODD_WEIGHTS = {v: bool(t[2]) for v, t in _TERMS.items()}
_EXCLUDED = {"S": None, "s1": "odd", "s2": "even", "s3": None, "s4": None,
             "s5": "odd"}

HB_SCALE = {
    "S": 4.0 / (math.pi * 1j),
    "s1": -2.0 / (math.pi * 1j),
    "s2": -1.0 / (2.0 * math.pi * 1j),
    "s3": 1.0 / (math.pi * 1j),
    "s4": 4.0 / (math.pi * 1j),
    "s5": 2.0 / (math.pi * 1j),
}


# ----------------------------------------------------------------------
# exact Fourier shapes (arguments carried as rational multiples of pi)
# ----------------------------------------------------------------------

def _sw_coef(u: Fraction) -> Fraction:
    """sum_m sin((2m-1) pi u)/(2m-1) = (pi/4) sgn(sin(pi u)); coefficient
    of pi, 0 on the lattice."""
    v = u % 2
    if v == 0 or v == 1:
        return Fraction(0)
    return Fraction(1, 4) if v < 1 else Fraction(-1, 4)


def _st_coef(u: Fraction) -> Fraction:
    """sum_m sin(m pi u)/m = pi (1 - v)/2 with v = u mod 2; coefficient of
    pi, 0 on the lattice."""
    v = u % 2
    if v == 0:
        return Fraction(0)
    return (1 - v) / 2


def _clausen_coef(u: Fraction, p: int) -> Fraction:
    """sum_m sin(2 pi m u)/m^p for odd p, as the coefficient of pi^p:
    (-1)^((p+1)/2) 2^p B_p({u}) / (2 p!), with the Fourier value 0 on the
    lattice."""
    v = u % 1
    if v == 0:
        return Fraction(0)
    sign = -1 if ((p + 1) // 2) % 2 else 1
    return sign * Fraction(2 ** p) * bernoulli_polynomial(p, v) / (2 * math.factorial(p))


def _hb_shape(variant: str, u: Fraction, k: int) -> Fraction:
    """Exact m-sum of one n-slice for a Hardy-Berndt variant, as the
    coefficient of pi; u is the per-unit angle (radians / pi)."""
    if _ODD_WEIGHTS[variant]:
        coef = _sw_coef(u)
        if _EXCLUDED[variant] == "odd" and k % 2 == 1:
            coef -= Fraction(1, k) * _sw_coef(k * u)
        return coef
    coef = _st_coef(u)
    if _EXCLUDED[variant] == "even":
        d = k // 2 if k % 2 == 0 else k
        coef -= Fraction(1, d) * _st_coef(d * u)
    return coef


# ----------------------------------------------------------------------
# generating functions
# ----------------------------------------------------------------------

def eval_gen(kind: str, t, q: QParam, tol: float = 1e-12,
             chi: Optional[DirichletCharacter] = None) -> SeriesValue:
    """Truncated generating-function value at Re(t) > 0, regime 0 < q < 1:
    sum_{n>=1} sign^n chi(n) q^(-n) exp(-q^(-n)[n] t).

    kind: "f" (plain), "F" (alternating), "f_chi", "F_chi" (twisted); the
    twisted kinds use the same q^(-n)[n] exponent as their siblings.
    """
    if kind not in ("f", "F", "f_chi", "F_chi"):
        raise DomainError(f"unknown generating kind {kind!r}")
    needs_chi = kind.endswith("_chi")
    if needs_chi and chi is None:
        raise DomainError(f"kind {kind!r} needs a Dirichlet character")
    if q.regime is not QRegime.REAL_UNIT:
        raise DomainError("eval_gen needs the exact rational regime 0 < q < 1")
    if complex(t).real <= 0:
        raise DomainError("Re(t) > 0 required; the damped oscillatory path "
                          "handles the imaginary axis")
    _positive("tol", tol)
    value, tail, n = _kernels.gen_series_sum(
        t, _logq(q.value), kind.startswith("F"),
        chi_table(chi if needs_chi else None), 1_000_000, tol)
    if tail == math.inf:
        raise ConvergenceError("generating series did not reach tolerance")
    return SeriesValue(value, tail, n)


# ----------------------------------------------------------------------
# regularization schedule and extrapolation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RegularizationSchedule:
    """Strictly decreasing positive damping offsets plus an extrapolation
    order (Richardson/Neville to eps = 0)."""

    offsets: Tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    order: int = 2

    def __post_init__(self):
        if len(self.offsets) < 1 or not all(e > 0 for e in self.offsets):
            raise DomainError("offsets must be positive")
        if any(a <= b for a, b in zip(self.offsets, self.offsets[1:])):
            raise DomainError("offsets must be strictly decreasing")
        if self.order >= 1 and len(self.offsets) < 2:
            raise DomainError("extrapolation needs at least two offsets")

    def refined(self) -> "RegularizationSchedule":
        """Schedule extended by half the final offset (stability probes)."""
        return RegularizationSchedule(self.offsets + (self.offsets[-1] / 2.0,),
                                      self.order)


DEFAULT_SCHEDULE = RegularizationSchedule()


def _richardson(offsets: Sequence[float], values: Sequence[complex],
                order: int) -> Tuple[complex, float]:
    """Neville extrapolation of (eps_i, V_i) to eps = 0; returns the value and
    the magnitude of the last correction.

    tab[j][i] interpolates the points i-j .. i; the recurrence at eps = 0 is
    (eps_{i-j} tab[j-1][i] - eps_i tab[j-1][i-1]) / (eps_{i-j} - eps_i).
    """
    m = len(values)
    order = max(0, min(order, m - 1))
    tab = [list(values)]
    for j in range(1, order + 1):
        row = [None] * m
        for i in range(j, m):
            hi = offsets[i - j]
            lo = offsets[i]
            row[i] = (hi * tab[j - 1][i] - lo * tab[j - 1][i - 1]) / (hi - lo)
        tab.append(row)
    if order == 0:
        value = values[-1]
        resid = abs(values[-1] - values[-2]) if m > 1 else abs(values[-1])
        return value, max(resid, 1e-18)
    value = tab[order][m - 1]
    resid = abs(value - tab[order - 1][m - 1])
    return value, max(resid, 1e-18)


@dataclass(frozen=True)
class YSumResult:
    """Outcome of a regularized oscillatory sum."""

    value: complex
    per_offset: Tuple[Tuple[float, complex], ...]
    residual: float
    route: str
    diverged: bool
    extrapolated: complex  # Richardson value of per_offset


# ----------------------------------------------------------------------
# q = 1: exact period structure
# ----------------------------------------------------------------------

def _limit1_period(variant_or_p, h: int, k: int,
                   chi: Optional[DirichletCharacter]):
    """Per-n coefficients d_n of the damped series sum_n d_n e^(-n eps) at
    q = 1, as one full period (complex values, exact rational skeleton); the
    Hardy-Berndt variants are read through their corollary forms."""
    chiv = chi_table(chi)
    f = len(chiv)
    if isinstance(variant_or_p, str):
        variant = variant_or_p
        base = 2 * k
        period = math.lcm(base, 2, f)
        d = []
        for r in range(1, period + 1):
            u = Fraction(r * h, k) if _ODD_WEIGHTS[variant] else Fraction(2 * r * h, k)
            coef = _hb_shape(variant, u, k)
            val = float(coef) * math.pi
            if _F_FAMILY[variant]:
                val *= 1.0 if (r % 2 == 1) else -1.0  # (-1)^(n+1)
            d.append(val * chiv[r % f])
        return period, d
    p = variant_or_p
    period = math.lcm(k, f)
    d = []
    for r in range(1, period + 1):
        coef = _clausen_coef(Fraction(r * h, k), p)
        d.append(float(coef) * math.pi ** p * chiv[r % f])
    return period, d


def _abel_period_value(period: int, d) -> Tuple[complex, bool]:
    """Abel limit of 2i sum_n d_n x^n as x -> 1 for period-P coefficients:
    exists iff the period sum vanishes, and then equals -2i sum r d_r / P."""
    total = sum(d)
    scale = max(1.0, max(abs(v) for v in d)) * period
    summable = abs(total) <= 1e-9 * scale
    value = -2j * sum((r + 1) * v for r, v in enumerate(d)) / period
    return value, summable


def _limit1_offset_value(period: int, d, eps: float) -> complex:
    x = math.exp(-eps)
    rx = 0j
    xp = 1.0
    for v in d:
        xp *= x
        rx += v * xp
    return 2j * rx / (1.0 - x ** period)


# ----------------------------------------------------------------------
# 0 < q < 1: literal damped evaluation, n-first
# ----------------------------------------------------------------------

def _literal_offset_value(variant_or_p, h: int, k: int, qfrac: Fraction,
                          chi: Optional[DirichletCharacter], eps: float,
                          tol: float, n_cap: int) -> Tuple[complex, float]:
    """One damping offset of the literal reading, summed n-first with the
    exact rational Fourier shapes.  Returns (value, tail bound)."""
    logq = _logq(qfrac)
    is_hb = isinstance(variant_or_p, str)
    if is_hb:
        variant = variant_or_p
        # shape sup: pi/4 (+ exclusion correction) or pi/2 (+ correction)
        cmax = math.pi * (0.25 + 0.25 / k) if _ODD_WEIGHTS[variant] \
            else math.pi
    else:
        p = variant_or_p
        cmax = math.pi ** p * 4.0 ** p  # crude sup of the Bernoulli shape
    chiv = chi_table(chi)
    inv_q = 1 / qfrac
    a_exact = Fraction(0)
    qinv_pow = Fraction(1)
    acc = 0j
    n = 0
    while True:
        n += 1
        if n > n_cap:
            raise ConvergenceError("literal damped series hit the term cap")
        qinv_pow *= inv_q
        a_exact += qinv_pow  # q^(-n)[n] = sum_{i<=n} q^(-i)
        af = float(a_exact)
        damp = math.exp(-af * eps)
        qinv_f = math.exp(-n * logq)
        if is_hb:
            u = a_exact * h / (2 * k) if _ODD_WEIGHTS[variant] else a_exact * h / k
            coef = float(_hb_shape(variant, u, k)) * math.pi
            sgn = 1.0
            if _F_FAMILY[variant] and n % 2 == 1:
                sgn = -1.0
        else:
            coef = float(_clausen_coef(a_exact * h / k, p)) * math.pi ** p
            sgn = 1.0
        acc += 2j * sgn * chiv[n % len(chiv)] * qinv_f * damp * coef
        nxt_qinv = math.exp(-(n + 1) * logq)
        nxt_major = nxt_qinv * math.exp(-float(a_exact + qinv_pow * inv_q) * eps) * cmax
        cur_major = qinv_f * damp * cmax
        if nxt_major < tol * 0.25 and (cur_major == 0.0 or nxt_major < 0.5 * cur_major):
            return acc, 2.0 * nxt_major


# ----------------------------------------------------------------------
# public oscillatory sums
# ----------------------------------------------------------------------

def _normalize_chi(chi):
    if chi is not None and chi.modulus == 1:
        return None
    return chi


def _validate_pair(h: int, k: int):
    if k < 1:
        raise DomainError("k must be >= 1")
    if h == 0:
        raise DomainError("h must be nonzero")
    if math.gcd(abs(h), k) != 1:
        raise DomainError(f"h and k must be coprime, got ({h}, {k})")


def _damped_sum(shape, h: int, k: int, q: QParam,
                chi: Optional[DirichletCharacter],
                reg: RegularizationSchedule, m_max: int,
                tol: float) -> YSumResult:
    """Shared engine of the oscillatory sums.  ``shape`` is a Hardy-Berndt
    variant name (corollary reading at q = 1) or an odd Dedekind order p
    (literal reading).

    At q = 1 the per-offset values come from one period of coefficients and
    the value is the exact Abel limit when the period sum cancels.  For
    0 < q < 1 each offset is summed n-first and the values are
    Richardson-extrapolated; the residual also covers the truncation bounds.
    """
    if q.regime is QRegime.LIMIT1:
        period, d = _limit1_period(shape, h, k, chi)
        per = tuple((eps, _limit1_offset_value(period, d, eps))
                    for eps in reg.offsets)
        extrap, resid = _richardson(reg.offsets, [v for _, v in per], reg.order)
        abel, summable = _abel_period_value(period, d)
        if not summable:
            return YSumResult(extrap, per, resid, "limit1-richardson", True,
                              extrap)
        return YSumResult(abel, per, resid, "limit1-abel-period", False,
                          extrap)

    if q.regime is not QRegime.REAL_UNIT:
        raise DomainError("oscillatory sums need rational 0 < q < 1 or q = 1")
    per = []
    bounds = []
    for eps in reg.offsets:
        val, bnd = _literal_offset_value(shape, h, k, q.value, chi, eps, tol,
                                         m_max)
        per.append((eps, val))
        bounds.append(bnd)
    extrap, resid = _richardson(reg.offsets, [v for _, v in per], reg.order)
    resid = max(resid, max(bounds))
    return YSumResult(extrap, tuple(per), resid, "abel-richardson",
                      resid > 1e3 * tol, extrap)


def oscillatory_sum(variant, h: int, k: int, q: QParam,
                    chi: Optional[DirichletCharacter] = None,
                    reg: Optional[RegularizationSchedule] = None,
                    m_max: int = 100_000, tol: float = 1e-8) -> YSumResult:
    """Regularized oscillatory sum for a Hardy-Berndt variant (index 0..5 or
    name "S", "s1".."s5").

    Negative h is allowed and negates the value (the two generating-function
    evaluations swap).  For 0 < q < 1 the literal reading is evaluated per
    offset and extrapolated; a divergence flag is raised through ``diverged``
    when the offsets do not stabilize, which is the generic situation for
    q < 1.  At q = 1 the corollary reading applies and the value is the
    exact Abel limit of one period (route ``limit1-abel-period``), or the
    extrapolated value when the period sum does not cancel.
    """
    variant = _hardy_variant(variant)
    _validate_pair(h, k)
    chi = _normalize_chi(chi)
    reg = reg or DEFAULT_SCHEDULE
    _positive("tol", tol)
    return _damped_sum(variant, h, k, q, chi, reg, m_max, tol)


def dedekind_oscillatory_sum(p: int, h: int, k: int, q: QParam,
                             chi: Optional[DirichletCharacter] = None,
                             reg: Optional[RegularizationSchedule] = None,
                             m_max: int = 100_000, tol: float = 1e-8,
                             order: str = "n-first") -> YSumResult:
    """Regularized oscillatory sum with weights m^(-p) and full angles
    2 pi m h / k (the q-Dedekind generating sum); p odd >= 1.

    order="m-first" evaluates each offset by summing the closed inner
    geometric ratios over m residue classes (digamma / Hurwitz grouping) and
    extrapolating; available at q = 1 as the summation-order consistency
    route.
    """
    if p < 1 or p % 2 == 0:
        raise DomainError("p must be an odd integer >= 1")
    _validate_pair(h, k)
    chi = _normalize_chi(chi)
    reg = reg or DEFAULT_SCHEDULE
    _positive("tol", tol)
    if order not in ("n-first", "m-first"):
        raise DomainError("order must be 'n-first' or 'm-first'")
    if order == "n-first":
        return _damped_sum(p, h, k, q, chi, reg, m_max, tol)
    if q.regime is not QRegime.LIMIT1:
        raise DomainError("m-first route implemented at q = 1 only")
    if chi is not None:
        raise DomainError("m-first route implemented character-free")
    per = tuple((eps, _dedekind_m_first_offset(p, h, k, eps))
                for eps in reg.offsets)
    extrap, resid = _richardson(reg.offsets, [v for _, v in per], reg.order)
    return YSumResult(extrap, per, resid, "limit1-m-first-richardson",
                      False, extrap)


def _dedekind_m_first_offset(p: int, h: int, k: int, eps: float) -> complex:
    """m-first value of one offset at q = 1: the inner geometric ratios
    depend only on m mod k, so the m-sum collapses to digamma (p = 1) or
    Hurwitz zeta (odd p >= 3) over residue classes."""
    dvals = []
    for r in range(1, k + 1):
        phi = 2.0 * math.pi * ((r * h) % k) / k
        u = cmath.exp(-eps + 1j * phi)
        v = cmath.exp(-eps - 1j * phi)
        dvals.append(u / (1.0 - u) - v / (1.0 - v))
    if p == 1:
        total = sum(dvals)
        if abs(total) > 1e-9 * max(1.0, max(abs(z) for z in dvals)) * k:
            raise ConvergenceError("m-first residue sum failed to cancel")
        return -sum(dv * digamma(r / k) for r, dv in zip(range(1, k + 1),
                                                         dvals)) / k
    return sum(dv * hurwitz_zeta(p, Fraction(r, k)).value
               for r, dv in zip(range(1, k + 1), dvals)) / k ** p


def q_hardy_berndt_sum(variant: str, h: int, k: int, q: QParam,
                       chi: Optional[DirichletCharacter] = None,
                       reg: Optional[RegularizationSchedule] = None,
                       tol: float = 1e-8,
                       enforce_parity: bool = True,
                       m_max: int = 100_000) -> complex:
    """Theorem-scaled oscillatory sum; at q = 1 this reproduces the exact
    finite Hardy-Berndt sums for admissible (h, k)."""
    variant = _hardy_args(variant, h, k)
    pc = parity_condition(variant, h, k)
    if enforce_parity and not pc.holds:
        raise ParityError(
            f"variant {variant} needs {pc.description}; got (h, k) = "
            f"({h}, {k}).  Pass enforce_parity=False to proceed anyway.")
    res = oscillatory_sum(variant, h, k, q, chi=chi, reg=reg, m_max=m_max,
                          tol=tol)
    return HB_SCALE[variant] * res.value


def q_dedekind_sum(p: int, h: int, k: int, q: QParam,
                   reg: Optional[RegularizationSchedule] = None,
                   tol: float = 1e-8, m_max: int = 100_000) -> complex:
    """p!/(2 pi i)^p times the regularized m^(-p) oscillatory sum, p odd."""
    res = dedekind_oscillatory_sum(p, h, k, q, reg=reg, m_max=m_max, tol=tol)
    return math.factorial(p) / (2j * math.pi) ** p * res.value


# ----------------------------------------------------------------------
# classical trigonometric series (digamma closed form)
# ----------------------------------------------------------------------

def _excluded_residue(variant: str, r: int, k: int) -> bool:
    mode = _EXCLUDED[variant]
    if mode is None:
        return False
    if mode == "odd":
        return k % 2 == 1 and (2 * r - 1) % k == 0
    d = k // 2 if k % 2 == 0 else k
    return r % d == 0


def classical_trig_series(variant: str, h: int, k: int,
                          tol: float = 1e-10) -> float:
    """Closed-form value of the classical conditionally convergent series
    (tan/cot over odd or full integers) for one Hardy-Berndt variant.

    The trig values are periodic over one period of k residues and cancel in
    pairs, so the series reduces to -(1/(2k)) sum_r v_r psi(a_r) (odd
    weights) or -(1/k) sum_r v_r psi(r/k); inputs whose period contains an
    unexcluded pole are rejected with the offending residue.
    """
    variant = _hardy_args(variant, h, k)
    pc = parity_condition(variant, h, k)
    if not pc.holds:
        raise ParityError(f"variant {variant} needs {pc.description}; "
                          f"got (h, k) = ({h}, {k})")
    use_tan = _F_FAMILY[variant]
    odd = _ODD_WEIGHTS[variant]
    vals = []
    for r in range(1, k + 1):
        if _excluded_residue(variant, r, k):
            vals.append(0.0)
            continue
        arg = Fraction(h * (2 * r - 1), 2 * k) if odd else Fraction(h * r, k)
        frac = arg % 1
        if use_tan:
            if frac == Fraction(1, 2):
                raise PoleError(f"tan pole at residue {r} of period {k}",
                                residue=r)
            vals.append(math.tan(math.pi * float(frac))
                        if frac != 0 else 0.0)
        else:
            if frac == 0:
                raise PoleError(f"cot pole at residue {r} of period {k}",
                                residue=r)
            vals.append(0.0 if frac == Fraction(1, 2)
                        else 1.0 / math.tan(math.pi * float(frac)))
    scale = max(1.0, max(abs(v) for v in vals))
    if abs(sum(vals)) > 1e-9 * scale * k:
        raise ConvergenceError("period sum failed to cancel; series diverges")
    psi_tol = tol / (4.0 * k * scale)
    if odd:
        total = -sum(v * digamma((2 * r - 1) / (2 * k), psi_tol)
                     for r, v in zip(range(1, k + 1), vals)) / (2 * k)
    else:
        total = -sum(v * digamma(r / k, psi_tol)
                     for r, v in zip(range(1, k + 1), vals)) / k
    return -HB_SCALE[variant].imag * total

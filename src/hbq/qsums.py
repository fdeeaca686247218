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
cut: for fixed n the m-sum (the n-slice) is a classical Fourier series
(square wave, sawtooth, Bernoulli polynomial), computed exactly at the exact
rational angle q^(-n)[n] h / k by one slice builder (`_slices`) for every
shape and both readings.  The slices are formed once per call and damped per
offset, every offset stopping by the generating series' rule on its
majorant; they grow by the bits of q's denominator a term, so a sum sized
past a fixed cap is refused up front.

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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import _kernels
from .characters import DirichletCharacter, chi_table
from .core import (ConvergenceError, DomainError, ParityError, PoleError,
                   QParam, QRegime, SeriesValue, _logq, _positive, _shift)
from .numbers import _bernoulli_at
from .sums import _TERMS, _hardy_args, _hardy_variant, parity_condition
from .zeta import digamma

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

# largest odd Dedekind order p with p! inside the float range
_P_MAX = 169

# cap on n (n p b)^2 of a literal damped sum (n terms, order p, b bits of q's
# denominator): n exact slices of at most n p b bits, each formed in at most
# quadratic time in its bits; set so the slowest admitted call takes ~10 s
_LITERAL_WORK_MAX = 15 * 10 ** 12

# digamma's truncation tolerance for the psi rows: under half an ulp of
# |psi(x)| >= 0.57 at 0 < x <= 1
_PSI_TOL = 1e-18

HB_SCALE = {v: c / (math.pi * 1j) for v, c in (
    ("S", 4.0), ("s1", -2.0), ("s2", -0.5), ("s3", 1.0), ("s4", 4.0), ("s5", 2.0))}


# ----------------------------------------------------------------------
# exact Fourier shapes at u = n/d (radians / pi, d > 0, not reduced): each
# value is one int/int true division, rounded as float() of the Fraction
# ----------------------------------------------------------------------

def _excluded_step(variant: str, k: int) -> Optional[int]:
    """e whose multiples the weights skip: the odd 2m - 1 of s1 and s5 at
    odd k, the m of s2; None for the other variants."""
    if variant in ("s1", "s5"):
        return k if k % 2 == 1 else None
    return (k // 2 if k % 2 == 0 else k) if variant == "s2" else None


def _hb_shape(variant: str, n: int, d: int, k: int) -> float:
    """Exact m-sum of one n-slice for a Hardy-Berndt variant at u = n/d, as
    the coefficient of pi: the square wave sum_m sin((2m-1) pi u)/(2m-1) =
    (pi/4) sgn(sin(pi u)) for odd weights, else the sawtooth sum_m
    sin(m pi u)/m = pi (1 - v)/2 with v = u mod 2, both 0 on the lattice;
    less 1/e times the same at e u when the weights skip multiples of e."""
    odd = _ODD_WEIGHTS[variant]

    def wave(n):  # times 4 (square wave) or 2d (sawtooth)
        v = n % (2 * d)
        if odd:
            return 0 if v == 0 or v == d else (1 if v < d else -1)
        return 0 if v == 0 else d - v
    den = 4 if odd else 2 * d
    e = _excluded_step(variant, k)
    return wave(n) / den if e is None else (e * wave(n) - wave(e * n)) / (e * den)


def _clausen_coef(p: int):
    """(n, d) -> sum_m sin(2 pi m u)/m^p for odd p as the coefficient of pi^p,
    (-1)^((p+1)/2) 2^p B_p({u}) / (2 p!), 0 on the lattice; B_p({u}) at
    {u} = v/d is one exact integer ratio from the shared Bernoulli row."""
    sign = -1 if ((p + 1) // 2) % 2 else 1
    scale_num, scale_den = sign * 2 ** (p - 1), math.factorial(p)

    def coef(n: int, d: int) -> float:
        v = n % d
        if v == 0:
            return 0.0
        num, den = _bernoulli_at(p, v, d)
        return scale_num * num / (scale_den * den)
    return coef


def _slices(shape, h: int, k: int, chi: Optional[DirichletCharacter],
            corollary: bool):
    """The one slice builder of the oscillatory sums, for a Hardy-Berndt
    variant (p = 1) or an odd Dedekind order p, read through the tan/cot
    corollary forms used at q = 1 (doubled angle, sign (-1)^(n+1) in the F
    family) or literally (sign (-1)^n).  Returns value(n, d), the exact m-sum
    at the angle n/d as float(shape) * pi^p; factor(n) = (sign, chi(n)); the
    sup of |value| for the stop rule; the q = 1 period in n; and p."""
    chiv = chi_table(chi)
    if isinstance(shape, str):
        odd = _ODD_WEIGHTS[shape]
        num, den = h * (1 + corollary), k * (1 + odd)
        p, alternating, period = 1, _F_FAMILY[shape], 2 * k
        sup = math.pi * (0.25 + 0.25 / k) if odd else math.pi
        coef = lambda n, d: _hb_shape(shape, n, d, k)  # noqa: E731
    else:
        p, alternating, period, num, den = shape, False, k, h, k
        sup = math.pi ** p * 4.0 ** p  # crude sup of the Bernoulli shape
        coef = _clausen_coef(p)
    pi_p = math.pi ** p

    def value(n: int, d: int) -> float:
        return coef(n * num, d * den) * pi_p

    def factor(n: int):
        return (-1.0 if alternating and (n + corollary) % 2 else 1.0,
                chiv[n % len(chiv)])
    return value, factor, sup, math.lcm(period, len(chiv)), p


# ----------------------------------------------------------------------
# generating functions
# ----------------------------------------------------------------------

def _gen_kind(kind: str, chi: Optional[DirichletCharacter]):
    """The one rule for the generating kinds "f", "F", "f_chi", "F_chi":
    (alternating, chi or None), the arguments of `qzeta._alt_series` on the
    other side of the Mellin transform.  A twisted kind needs a character;
    the others drop it."""
    if kind not in ("f", "F", "f_chi", "F_chi"):
        raise DomainError(f"unknown generating kind {kind!r}")
    twisted = kind.endswith("_chi")
    if twisted and chi is None:
        raise DomainError(f"kind {kind!r} needs a Dirichlet character")
    return kind.startswith("F"), chi if twisted else None


def eval_gen(kind: str, t, q: QParam, tol: float = 1e-12,
             chi: Optional[DirichletCharacter] = None) -> SeriesValue:
    """Truncated generating-function value at Re(t) > 0, regime 0 < q < 1:
    sum_{n>=1} sign^n chi(n) q^(-n) exp(-q^(-n)[n] t).

    kind: "f" (plain), "F" (alternating), "f_chi", "F_chi" (twisted); the
    twisted kinds use the same q^(-n)[n] exponent as their siblings.
    """
    alternating, chi = _gen_kind(kind, chi)
    if q.regime is not QRegime.REAL_UNIT:
        raise DomainError("eval_gen needs the exact rational regime 0 < q < 1")
    if complex(t).real <= 0:
        raise DomainError("Re(t) > 0 required; the damped oscillatory path "
                          "handles the imaginary axis")
    _positive("tol", tol)
    value, tail, n = _kernels.gen_node_sum(
        t, _logq(q.value), alternating, chi_table(chi), 1_000_000, tol)
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
        if len(self.offsets) < 1:
            raise DomainError("offsets must be positive")
        for e in self.offsets:
            _shift("offsets", e)
        if self.order < 0:
            raise DomainError("order must be >= 0")
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
    value = tab[order][m - 1]
    prev = tab[order - 1][m - 1] if order else (values[-2] if m > 1 else 0)
    return value, max(abs(value - prev), 1e-18)


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

def _abel_period_value(period: int, d) -> Tuple[complex, bool]:
    """Abel limit of 2i sum_n d_n x^n as x -> 1 for period-P coefficients:
    exists iff the period sum vanishes, and then equals -2i sum r d_r / P."""
    scale = max(1.0, max(abs(v) for v in d)) * period
    value = -2j * sum((r + 1) * v for r, v in enumerate(d)) / period
    return value, abs(sum(d)) <= 1e-9 * scale


def _limit1_offset_value(period: int, d, eps: float) -> complex:
    x = math.exp(-eps)
    if x ** period == 1.0:
        raise DomainError(f"offset {eps:g} is too small for the q = 1 period of {period}")
    rx, xp = 0j, 1.0
    for v in d:
        xp *= x
        rx += v * xp
    return 2j * rx / (1.0 - x ** period)


# ----------------------------------------------------------------------
# 0 < q < 1: literal damped evaluation, n-first
# ----------------------------------------------------------------------

def _literal_values(shape, h: int, k: int, qfrac: Fraction,
                    chi: Optional[DirichletCharacter], offsets, tol: float):
    """(value, tail bound) of each literal offset, summed n-first.  The exact
    angles a_n = q^(-n)[n], q^(-n) and the slices are formed once, in one
    list shared by all offsets.  Each offset stops by `_kernels._gen_stops`
    on its majorant sup q^(-n) e^(-a_n eps), sup times the generating
    series' at t = eps, which sizes the smallest offset first."""
    value, factor, sup, _, p = _slices(shape, h, k, chi, False)
    logq = _logq(qfrac)
    qn, qd = qfrac.numerator, qfrac.denominator
    bits = p * qd.bit_length()
    # most slices n, of about n * bits bits, with n (n bits)^2 in the cap
    n_work = int((_LITERAL_WORK_MAX / bits ** 2) ** (1.0 / 3.0))
    n_work += (n_work + 1) ** 3 * bits ** 2 <= _LITERAL_WORK_MAX
    n_work -= n_work ** 3 * bits ** 2 > _LITERAL_WORK_MAX
    # The offsets stop once sup q^(-n) e^(-a_n eps) < tol/4, the sizing once
    # q^(-n) e^(-a_n eps) < tol / (4 sup).  tol / (2 sup) rounds to 0 below
    # about 1e-323 sup (Dedekind p = 169 at tol < 3e-138): 2^-1073, the least
    # tol whose half is not 0, stops the sizing where the majorant underflows,
    # as the offsets stop; unless tol/4 is 0 too, and no offset stops.
    size_tol = max(tol / (2.0 * sup), 2.0 ** -1073) if 0.25 * tol else 0.0
    _, tail, n = _kernels.gen_node_sum(min(offsets), logq, False, (1,), n_work,
                                       size_tol)
    if tail == math.inf and n < n_work:
        raise DomainError("q^(-n)[n] overflows the float range")
    if tail == math.inf:
        raise ConvergenceError(
            f"literal damped series hit the term cap: {n_work + 1} terms of up to "
            f"{(n_work + 1) * bits} bits pass the work cap n (n p b)^2 <= "
            f"{_LITERAL_WORK_MAX:.3g}")

    num, qn_pow, qd_pow = 0, 1, 1  # a_n = num / qn^n
    rows = [None]  # rows[n]: (2i sign chi q^(-n), q^(-n), float a_n, slice)

    def row(n):
        nonlocal num, qn_pow, qd_pow
        while len(rows) <= n:
            m = len(rows)
            qn_pow *= qn
            qd_pow *= qd
            num = num * qn + qd_pow  # a_m = a_(m-1) + q^(-m)
            qinv_f = math.exp(-m * logq)
            sign, c = factor(m)
            rows.append((2j * sign * c * qinv_f, qinv_f, num / qn_pow,
                         value(num, qn_pow)))
        return rows[n]

    out = []
    for eps in offsets:
        acc, n = 0j, 1
        while True:
            weight, qinv_f, af, coef = row(n)
            damp = math.exp(-af * eps)
            acc += weight * damp * coef
            _, nxt_qinv, nxt_af, _ = row(n + 1)
            nxt = nxt_qinv * math.exp(-nxt_af * eps) * sup
            if _kernels._gen_stops(qinv_f * damp * sup, nxt, 0.5 * tol):
                out.append((acc, 2.0 * nxt))
                break
            n += 1
    return out


# ----------------------------------------------------------------------
# public oscillatory sums
# ----------------------------------------------------------------------

def _checked(h: int, k: int, chi, reg, tol):
    """The checks shared by the oscillatory sums; returns the character (a
    character mod 1 is none) and the schedule."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if h == 0:
        raise DomainError("h must be nonzero")
    if math.gcd(abs(h), k) != 1:
        raise DomainError(f"h and k must be coprime, got ({h}, {k})")
    _positive("tol", tol)
    return (None if chi is not None and chi.modulus == 1 else chi), reg or DEFAULT_SCHEDULE


def _damped_sum(shape, h: int, k: int, q: QParam,
                chi: Optional[DirichletCharacter],
                reg: RegularizationSchedule, tol: float) -> YSumResult:
    """Shared engine of the oscillatory sums for a Hardy-Berndt variant name
    or an odd Dedekind order p.  At q = 1 the per-offset values come from one
    period of slices and the value is the exact Abel limit when the period
    sum cancels.  For 0 < q < 1 the literal offsets are Richardson-
    extrapolated; the residual also covers their truncation bounds."""
    if q.regime is QRegime.LIMIT1:
        value, factor, _, period, _ = _slices(shape, h, k, chi, True)
        d = []  # one period of d_n in sum_n d_n e^(-n eps)
        for r in range(1, period + 1):
            sign, c = factor(r)
            d.append(value(r, 1) * sign * c)
        per = tuple((eps, _limit1_offset_value(period, d, eps))
                    for eps in reg.offsets)
        extrap, resid = _richardson(reg.offsets, [v for _, v in per], reg.order)
        abel, summable = _abel_period_value(period, d)
        if not summable:
            return YSumResult(extrap, per, resid, "limit1-richardson", True, extrap)
        return YSumResult(abel, per, resid, "limit1-abel-period", False, extrap)

    if q.regime is not QRegime.REAL_UNIT:
        raise DomainError("oscillatory sums need rational 0 < q < 1 or q = 1")
    vals = _literal_values(shape, h, k, q.value, chi, reg.offsets, tol)
    per = tuple((eps, v) for eps, (v, _) in zip(reg.offsets, vals))
    extrap, resid = _richardson(reg.offsets, [v for v, _ in vals], reg.order)
    resid = max(resid, max(b for _, b in vals))
    return YSumResult(extrap, per, resid, "abel-richardson",
                      resid > 1e3 * tol, extrap)


def oscillatory_sum(variant, h: int, k: int, q: QParam,
                    chi: Optional[DirichletCharacter] = None,
                    reg: Optional[RegularizationSchedule] = None,
                    tol: float = 1e-8) -> YSumResult:
    """Regularized oscillatory sum for a Hardy-Berndt variant (index 0..5 or
    name "S", "s1".."s5").

    Negative h is allowed and negates the value (the two generating-function
    evaluations swap).  For 0 < q < 1 the literal reading is evaluated per
    offset and extrapolated; a divergence flag is raised through ``diverged``
    when the offsets do not stabilize, which is the generic situation for
    q < 1.  A literal sum whose exact work, sized in floats from its term
    count, passes a fixed cap raises ``ConvergenceError`` up front.  At
    q = 1 the corollary reading applies and the value is the exact Abel limit
    of one period (route ``limit1-abel-period``), or the extrapolated value
    when the period sum does not cancel.
    """
    variant = _hardy_variant(variant)
    chi, reg = _checked(h, k, chi, reg, tol)
    return _damped_sum(variant, h, k, q, chi, reg, tol)


def dedekind_oscillatory_sum(p: int, h: int, k: int, q: QParam,
                             chi: Optional[DirichletCharacter] = None,
                             reg: Optional[RegularizationSchedule] = None,
                             tol: float = 1e-8) -> YSumResult:
    """Regularized oscillatory sum with weights m^(-p) and full angles
    2 pi m h / k (the q-Dedekind generating sum); p odd, 1 <= p <= 169 (p!
    must fit a float)."""
    if not (1 <= p <= _P_MAX and p % 2 == 1):
        raise DomainError(f"p must be an odd integer from 1 to {_P_MAX}")
    chi, reg = _checked(h, k, chi, reg, tol)
    return _damped_sum(p, h, k, q, chi, reg, tol)


def q_hardy_berndt_sum(variant: str, h: int, k: int, q: QParam,
                       chi: Optional[DirichletCharacter] = None,
                       reg: Optional[RegularizationSchedule] = None,
                       tol: float = 1e-8,
                       enforce_parity: bool = True) -> complex:
    """Theorem-scaled oscillatory sum; at q = 1 this reproduces the exact
    finite Hardy-Berndt sums for admissible (h, k)."""
    variant = _hardy_args(variant, h, k)
    pc = parity_condition(variant, h, k)
    if enforce_parity and not pc.holds:
        raise ParityError(
            f"variant {variant} needs {pc.description}; got (h, k) = "
            f"({h}, {k}).  Pass enforce_parity=False to proceed anyway.")
    res = oscillatory_sum(variant, h, k, q, chi=chi, reg=reg, tol=tol)
    return HB_SCALE[variant] * res.value


def q_dedekind_sum(p: int, h: int, k: int, q: QParam,
                   reg: Optional[RegularizationSchedule] = None,
                   tol: float = 1e-8) -> complex:
    """p!/(2 pi i)^p times the regularized m^(-p) oscillatory sum, p odd,
    1 <= p <= 169."""
    res = dedekind_oscillatory_sum(p, h, k, q, reg=reg, tol=tol)
    return math.factorial(p) / (2j * math.pi) ** p * res.value


# ----------------------------------------------------------------------
# classical trigonometric series (digamma closed form)
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _psi_row(den: int, odd: bool) -> tuple:
    """psi(j / den) for j = 1, 3, ..., den - 1 (odd) or j = 1, ..., den: the
    row that `classical_trig_series` reads for every h over one denominator.
    Each psi is truncated below its rounding, so a row depends on no
    caller's tolerance and a value has the same bits whether its row was
    cached or not; the cache is bounded, so sweeping k keeps O(k) floats."""
    return tuple(digamma(j / den, _PSI_TOL)
                 for j in range(1, den + 1, 2 if odd else 1))


def classical_trig_series(variant: str, h: int, k: int,
                          tol: float = 1e-10) -> float:
    """Closed-form value of the classical conditionally convergent series
    (tan/cot over odd or full integers) for one Hardy-Berndt variant.

    The trig values are periodic over one period of k residues and cancel in
    pairs, so the series reduces to -(1/(2k)) sum_r v_r psi((2r-1)/2k) (odd
    weights) or -(1/k) sum_r v_r psi(r/k), with psi read from one row per
    denominator (`_psi_row`); inputs whose period contains an unexcluded
    pole are rejected with the offending residue.  The row is at full
    precision, so ``tol`` (checked to be positive) does not change the value.
    """
    variant = _hardy_args(variant, h, k)
    pc = parity_condition(variant, h, k)
    if not pc.holds:
        raise ParityError(f"variant {variant} needs {pc.description}; "
                          f"got (h, k) = ({h}, {k})")
    use_tan = _F_FAMILY[variant]
    odd = _ODD_WEIGHTS[variant]
    e = _excluded_step(variant, k)
    den = 2 * k if odd else k
    vals = []
    for r in range(1, k + 1):
        if e is not None and (2 * r - 1 if odd else r) % e == 0:
            vals.append(0.0)
            continue
        # the angle pi {arg} as the residue num / den of arg = h (2r-1) / 2k
        # or h r / k; int / int rounds once, as float(Fraction) does
        num = h * (2 * r - 1 if odd else r) % den
        if use_tan:
            if 2 * num == den:
                raise PoleError(f"tan pole at residue {r} of period {k}",
                                residue=r)
            vals.append(math.tan(math.pi * (num / den)) if num else 0.0)
        else:
            if num == 0:
                raise PoleError(f"cot pole at residue {r} of period {k}",
                                residue=r)
            vals.append(0.0 if 2 * num == den
                        else 1.0 / math.tan(math.pi * (num / den)))
    scale = max(1.0, max(abs(v) for v in vals))
    if abs(sum(vals)) > 1e-9 * scale * k:
        raise ConvergenceError("period sum failed to cancel; series diverges")
    _positive("tol", tol)
    total = -sum(v * psi for v, psi in zip(vals, _psi_row(den, odd))) / den
    return -HB_SCALE[variant].imag * total

"""Exact-arithmetic foundation: rationals, the sawtooth map, q-brackets, and
the shared result/outcome records used by every numeric module.

Exact values are plain :class:`fractions.Fraction` objects (always normalized,
positive denominator).  The deformation parameter q travels as a
:class:`QParam` carrying a regime tag; the tag decides which evaluation paths
are legal downstream (exact rational arithmetic, the q -> 1 limit, or complex
floating point on the open unit disk).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Any, Mapping, Optional, Union

__all__ = [
    "ConvergenceError",
    "DomainError",
    "ParityError",
    "PoleError",
    "QParam",
    "QRegime",
    "SeriesValue",
    "VerificationOutcome",
    "as_fraction",
    "qbracket",
    "sawtooth",
]


class DomainError(ValueError):
    """Input outside an operation's documented domain."""


class ParityError(DomainError):
    """A sum variant was requested outside its parity hypothesis."""


class PoleError(DomainError):
    """A trigonometric closed form has a pole inside one period."""

    def __init__(self, message: str, residue: Optional[int] = None):
        super().__init__(message)
        self.residue = residue


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to meet the requested tolerance."""


ExactLike = Union[int, Fraction, str]

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _positive(name: str, value) -> None:
    """The one check for a tolerance, shift or offset: ``value > 0``, which
    also turns nan away."""
    if not value > 0:
        raise DomainError(f"{name} must be positive")


def _finite(name: str, value) -> None:
    """The one check for an argument, shift or exponent, real or complex:
    no nan and no infinite part."""
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite")


def _shift(name: str, value) -> float:
    """The one check for a shift or offset: a positive, finite float."""
    v = float(value)
    _positive(name, v)
    _finite(name, v)
    return v


def _im_limit(s: complex, limit: float, route: str) -> None:
    """The one check for a route's |Im s| limit, past which the rounding of
    its phases Im(s) log(...) exceeds the default tol."""
    if abs(s.imag) > limit:
        raise DomainError(f"|Im s| = {abs(s.imag):.6g} above the {route} route's limit of {limit:g}")


def _fits(name: str, log_magnitude: float) -> None:
    """The one overflow check: exp(log_magnitude) must fit a float."""
    if log_magnitude > _LOG_FLOAT_MAX:
        raise DomainError(f"{name} overflows the float range")


def as_fraction(x: ExactLike) -> Fraction:
    """Coerce an int / Fraction / ``"p/q"`` string to an exact Fraction.

    Floats are rejected on purpose: exact inputs must never round-trip
    through binary floating point.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {x!r}") from None
    raise DomainError(f"expected an exact rational, got {type(x).__name__}")


class QRegime(Enum):
    REAL_UNIT = "real-unit"            # exact rational q with 0 < q < 1
    LIMIT1 = "limit1"                  # the continuous q -> 1 extension
    COMPLEX_UNIT_DISK = "complex-disk"  # complex q with |q| < 1


@dataclass(frozen=True)
class QParam:
    """The deformation parameter q together with its domain regime."""

    value: Any
    regime: QRegime

    def __post_init__(self):
        if self.regime is QRegime.REAL_UNIT:
            v = self.value
            if not isinstance(v, Fraction):
                raise DomainError("REAL_UNIT q must be an exact Fraction")
            if not (0 < v < 1):
                raise DomainError(f"REAL_UNIT requires 0 < q < 1, got {v}")
        elif self.regime is QRegime.LIMIT1:
            if self.value != 1:
                raise DomainError("LIMIT1 requires q = 1")
        elif self.regime is QRegime.COMPLEX_UNIT_DISK:
            v = complex(self.value)
            if not abs(v) < 1:
                raise DomainError(f"COMPLEX_UNIT_DISK requires |q| < 1, got {v}")

    # -- constructors -------------------------------------------------
    @classmethod
    def real(cls, x: ExactLike) -> "QParam":
        return cls(as_fraction(x), QRegime.REAL_UNIT)

    @classmethod
    def one(cls) -> "QParam":
        return cls(Fraction(1), QRegime.LIMIT1)

    @classmethod
    def complex_disk(cls, z: complex) -> "QParam":
        return cls(complex(z), QRegime.COMPLEX_UNIT_DISK)

    @classmethod
    def parse(cls, text: str) -> "QParam":
        """Parse CLI syntax: ``"1"`` for the q -> 1 regime, ``"p/r"`` exact."""
        frac = as_fraction(text.strip())
        if frac == 1:
            return cls.one()
        return cls.real(frac)

    # -- views ---------------------------------------------------------
    @property
    def is_one(self) -> bool:
        return self.regime is QRegime.LIMIT1

    def as_complex(self) -> complex:
        return complex(self.value)

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class SeriesValue:
    """Return contract of every infinite-series / quadrature evaluation.

    ``tail_bound`` is a rigorous bound on the truncation error of the value,
    plus the quadrature's error estimate for ``mellin_transform``; it is
    finite, and on success it does not exceed the tolerance that was
    requested.
    """

    value: complex
    tail_bound: float
    terms_used: int

    def __post_init__(self):
        if self.tail_bound < 0:
            raise DomainError("tail_bound must be nonnegative")
        if not math.isfinite(self.tail_bound):
            raise DomainError("tail_bound must be finite")

    def scaled(self, factor: complex) -> "SeriesValue":
        return SeriesValue(factor * self.value, abs(factor) * self.tail_bound,
                           self.terms_used)


@dataclass(frozen=True)
class VerificationOutcome:
    """Both sides of an identity check plus the observed discrepancy."""

    name: str
    params: Mapping[str, Any]
    lhs: complex
    rhs: complex
    abs_diff: float
    tolerance: float
    passed: bool = field(default=False)

    @classmethod
    def compare(cls, name: str, params: Mapping[str, Any], lhs: complex,
                rhs: complex, tolerance: float) -> "VerificationOutcome":
        diff = abs(complex(lhs) - complex(rhs))
        return cls(name=name, params=dict(params), lhs=complex(lhs),
                   rhs=complex(rhs), abs_diff=diff, tolerance=tolerance,
                   passed=diff <= tolerance)


def qbracket(n: int, q: Union[QParam, ExactLike]):
    """q-bracket [n] = (1 - q^n)/(1 - q), with [n] = n in the q -> 1 regime.

    Exact (Fraction) for rational q, complex float on the unit disk.
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError("qbracket is defined for nonnegative integer n")
    if isinstance(q, QParam):
        if q.regime is QRegime.LIMIT1:
            return n
        qv = q.value
    else:
        qv = as_fraction(q)
        if qv == 1:
            return n
    return (1 - qv ** n) / (1 - qv)


def _logq(q: Fraction) -> float:
    """log q for exact rational q, the one place hbq forms it: log1p of the
    exact 1 - q for q > 1/2, where log(num) - log(den) cancels, else that
    difference, which neither rounds q to a float nor underflows."""
    num, den = q.numerator, q.denominator
    if 2 * num > den:
        return math.log1p((num - den) / den)
    return math.log(num) - math.log(den)


def _maybe_int(z: complex):
    """s as a user writes it: 2 for 2+0j, 2.5 for 2.5+0j, else z."""
    if z.imag == 0 and z.real == int(z.real):
        return int(z.real)
    return z if z.imag != 0 else z.real


def sawtooth(x: ExactLike) -> Fraction:
    """((x)) = x - floor(x) - 1/2 for non-integer x, and 0 at integers."""
    xf = as_fraction(x)
    if xf.denominator == 1:
        return Fraction(0)
    return xf - math.floor(xf) - Fraction(1, 2)

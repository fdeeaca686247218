"""Exact evaluation of the classical Dedekind sum and the six finite
Hardy-Berndt sums S, s1..s5.

Every value is an exact rational; S and s4 are integers, the sawtooth-based
variants have denominators dividing 2k (4k^2 for the two-sawtooth products).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import DomainError, sawtooth

__all__ = [
    "HARDY_VARIANTS",
    "ParityCondition",
    "dedekind_sum",
    "hardy_berndt_sum",
    "parity_condition",
]

HARDY_VARIANTS = ("S", "s1", "s2", "s3", "s4", "s5")


@dataclass(frozen=True)
class ParityCondition:
    variant: str
    holds: bool
    description: str


_PARITY = {
    "S": (lambda h, k: (h + k) % 2 == 1, "h + k odd"),
    "s1": (lambda h, k: h % 2 == 0 and k % 2 == 1, "h even and k odd"),
    "s2": (lambda h, k: h % 2 == 1 and k % 2 == 0, "h odd and k even"),
    "s3": (lambda h, k: k % 2 == 1, "k odd"),
    "s4": (lambda h, k: h % 2 == 1, "h odd"),
    "s5": (lambda h, k: h % 2 == 1 and k % 2 == 1, "h and k odd"),
}


def _hardy_variant(variant) -> str:
    """A variant given by name or by its index 0..5 in ``HARDY_VARIANTS``."""
    if isinstance(variant, int) and 0 <= variant < len(HARDY_VARIANTS):
        return HARDY_VARIANTS[variant]
    if variant not in HARDY_VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    return variant


def _hardy_args(variant, h: int, k: int) -> str:
    """The argument rule of the Hardy-Berndt sums: a variant (name or index),
    k >= 1, h >= 1 and gcd(h, k) = 1.  Returns the variant name."""
    variant = _hardy_variant(variant)
    if k < 1:
        raise DomainError("k must be >= 1")
    if h < 1:
        raise DomainError("h must be >= 1")
    if math.gcd(h, k) != 1:
        raise DomainError(f"h and k must be coprime, got ({h}, {k})")
    return variant


def parity_condition(variant: str, h: int, k: int) -> ParityCondition:
    """The hypothesis under which the variant's trigonometric series holds."""
    if math.gcd(h, k) != 1:
        raise DomainError("h and k must be coprime")
    variant = _hardy_variant(variant)
    pred, desc = _PARITY[variant]
    return ParityCondition(variant, pred(h, k), desc)


def hardy_berndt_sum(variant: str, h: int, k: int) -> Fraction:
    """Exact finite Hardy-Berndt sum for one of the variants S, s1..s5.

    Upper limits follow the classical definitions verbatim (k-1 for S and s4,
    k otherwise; the j = k terms vanish for the sawtooth factors anyway).
    """
    v = _hardy_args(variant, h, k)
    total = Fraction(0)
    top = k - 1 if v in ("S", "s4") else k
    for j in range(1, top + 1):
        fl = (h * j) // k
        if v == "S":
            total += (-1) ** (j + 1 + fl)
        elif v == "s1":
            total += (-1) ** fl * sawtooth(Fraction(j, k))
        elif v == "s2":
            total += (-1) ** j * sawtooth(Fraction(j, k)) * sawtooth(Fraction(h * j, k))
        elif v == "s3":
            total += (-1) ** j * sawtooth(Fraction(h * j, k))
        elif v == "s4":
            total += (-1) ** fl
        elif v == "s5":
            total += (-1) ** (j + fl) * sawtooth(Fraction(j, k))
    return total


def dedekind_sum(h: int, k: int) -> Fraction:
    """Classical Dedekind sum s(h,k) = sum_{j=1}^{k-1} ((j/k))((hj/k))."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if math.gcd(h, k) != 1:
        raise DomainError("h and k must be coprime")
    total = Fraction(0)
    for j in range(1, k):
        total += sawtooth(Fraction(j, k)) * sawtooth(Fraction(h * j, k))
    return total

"""Exact evaluation of the six finite Hardy-Berndt sums S, s1..s5 and of
Apostol's Dedekind sums s_p of odd order p.

Each is one sum over j = 1..k-1 added as integers and divided once.  The
Hardy-Berndt terms are a sign times the sawtooth factors ((j/k)) = (2j - k)/(2k)
and ((hj/k)) = (2(hj mod k) - k)/(2k): S and s4 are integers, the one-sawtooth
variants have denominators dividing 2k, s2 4k^2.  The Dedekind terms read
the integer row of B_p that `numbers` keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import DomainError
from .numbers import _bernoulli_row

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


# Per sum, (c, a, b, x, y) for the term (-1)^(c + a j + b floor(hj/k))
# ((j/k))^x ((hj/k))^y.  The j = k terms vanish (the sawtooth is 0 at
# integers; S and s4 stop at k - 1 by definition).
_TERMS = {"S": (1, 1, 1, 0, 0), "s1": (0, 0, 1, 1, 0), "s2": (0, 1, 0, 1, 1),
          "s3": (0, 1, 0, 0, 1), "s4": (0, 0, 1, 0, 0), "s5": (0, 1, 1, 1, 0)}


def _finite_sum(name: str, h: int, k: int) -> Fraction:
    """The sum over j = 1..k-1 as integer numerators over (2k)^(x + y);
    gcd(h, k) = 1 keeps hj off the multiples of k, where ((hj/k)) is 0."""
    c, a, b, x, y = _TERMS[name]
    total = 0
    for j in range(1, k):
        fl, r = divmod(h * j, k)
        term = (2 * j - k) ** x * (2 * r - k) ** y
        total += -term if (c + a * j + b * fl) & 1 else term
    return Fraction(total, (2 * k) ** (x + y))


def hardy_berndt_sum(variant: str, h: int, k: int) -> Fraction:
    """Exact finite Hardy-Berndt sum for one of the variants S, s1..s5."""
    return _finite_sum(_hardy_args(variant, h, k), h, k)


def dedekind_sum(h: int, k: int, p: int = 1) -> Fraction:
    """Apostol's Dedekind sum s_p(h,k) = sum_{j=1}^{k-1} (j/k) Bbar_p(hj/k)
    of odd order p; p = 1 is the classical s(h,k) = sum ((j/k))((hj/k)),
    since the Bbar_p(hj/k) sum to 0.  Each Bbar_p(r/k) = B_p(r/k), r = hj
    mod k in 1..k-1, is an integer over lcd k^p from the row of B_p."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if p < 1 or p % 2 == 0:
        raise DomainError(f"p must be an odd positive integer, got {p}")
    if math.gcd(h, k) != 1:
        raise DomainError("h and k must be coprime")
    ints, lcd = _bernoulli_row(p)
    coefs = [c * k ** i for i, c in enumerate(ints)]  # Horner in r at d = k
    total = 0
    for j in range(1, k):
        r, acc = h * j % k, 0
        for c in coefs:
            acc = acc * r + c
        total += j * acc
    return Fraction(total, lcd * k ** (p + 1))

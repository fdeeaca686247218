"""Exact Bernoulli, Euler and Genocchi numbers, plus their q-deformations.

All table entries are exact rationals produced by the convolution recurrences
of the defining exponential generating functions:

    2/(e^t + 1)  = sum E_n t^n/n!
    2t/(e^t + 1) = sum G_n t^n/n!

Bernoulli numbers use the classical recurrence sum_k C(n+1,k) B_k = 0 and are
the support machinery for zeta values at nonpositive integers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .core import DomainError, QParam, QRegime, _positive, as_fraction

__all__ = [
    "NumberKind",
    "NumberTable",
    "bernoulli_polynomial",
    "number_table",
    "q_euler_number",
    "q_genocchi_number",
]


class NumberKind(Enum):
    BERNOULLI = "bernoulli"
    EULER = "euler"
    GENOCCHI = "genocchi"


@dataclass(frozen=True)
class NumberTable:
    kind: NumberKind
    entries: tuple

    def __getitem__(self, n: int) -> Fraction:
        return self.entries[n]

    def __len__(self):
        return len(self.entries)


def _bernoulli(n_max: int) -> list:
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = Fraction(0)
        for k in range(n):
            s += math.comb(n + 1, k) * b[k]
        b.append(-s / (n + 1))
    return b


def _euler_type(n_max: int, power: int) -> list:
    # (e^t + 1) * sum A_k t^k/k! = 2 t^power  =>
    # A_n = (2 [n = power] - sum_{k<n} C(n,k) A_k) / 2
    a = []
    for n in range(n_max + 1):
        s = Fraction(0)
        for k in range(n):
            s += math.comb(n, k) * a[k]
        a.append(((2 if n == power else 0) - s) / 2)
    return a


_GENERATORS = {
    NumberKind.BERNOULLI: _bernoulli,
    NumberKind.EULER: lambda n_max: _euler_type(n_max, 0),
    NumberKind.GENOCCHI: lambda n_max: _euler_type(n_max, 1),
}


def number_table(kind: Union[NumberKind, str], n_max: int) -> NumberTable:
    """Exact entries 0..n_max of the requested number sequence."""
    if isinstance(kind, str):
        kind = NumberKind(kind.lower())
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    return NumberTable(kind, tuple(_GENERATORS[kind](n_max)))


@functools.lru_cache(maxsize=256)
def _bernoulli_row(p: int) -> tuple:
    """(ints, lcd) with C(p,i) B_i = ints[i] / lcd for i = 0..p, lcd the
    least common denominator: the integer row of B_p(x), built once per p."""
    b = number_table(NumberKind.BERNOULLI, p)
    coefs = [math.comb(p, i) * b[i] for i in range(p + 1)]
    lcd = math.lcm(*(c.denominator for c in coefs))
    return tuple(c.numerator * (lcd // c.denominator) for c in coefs), lcd


def _bernoulli_at(p: int, v: int, d: int) -> tuple:
    """(num, den) with B_p(v/d) = num/den, d > 0, by integer Horner on the
    row: sum_i ints[i] v^(p-i) d^i over lcd d^p."""
    ints, lcd = _bernoulli_row(p)
    acc, dpow = ints[0], 1
    for c in ints[1:]:
        dpow *= d
        acc = acc * v + c * dpow
    return acc, lcd * dpow


def bernoulli_polynomial(p: int, x: Fraction) -> Fraction:
    """B_p(x) = sum_i C(p,i) B_i x^(p-i), exact."""
    xf = as_fraction(x)
    return Fraction(*_bernoulli_at(p, xf.numerator, xf.denominator))


def q_euler_number(m: int, q: QParam):
    """q-Euler number via the finite closed form

        E_{m,q} = [2] (1-q)^(-m) sum_{k=0}^{m} C(m,k) (-1)^k / (1 + q^{k+1})

    Exact Fraction for exact rational q; complex float on the unit disk.
    The q -> 1 regime is rejected (divide by 1 - q); use the classical table.
    """
    if m < 0:
        raise DomainError("m must be nonnegative")
    if q.regime is QRegime.LIMIT1:
        raise DomainError("q = 1 not admissible here; use number_table(EULER)")
    qv = q.value
    two = 1 + qv  # [2]
    acc = 0 if isinstance(qv, complex) else Fraction(0)
    for k in range(m + 1):
        acc += math.comb(m, k) * (-1) ** k / (1 + qv ** (k + 1))
    return two * acc / (1 - qv) ** m


def _q_genocchi_closed(m: int, qv: Fraction) -> Fraction:
    # Binomial-geometric resummation of [2] m sum_n (-1)^n q^n [n]^(m-1);
    # exact, hence immune to the cancellation that kills the float series
    # as q -> 1.
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m - 1, j) * (-1) ** (j + 1) * qv ** (j + 1) / (1 + qv ** (j + 1))
    return (1 + qv) * m * acc / (1 - qv) ** (m - 1)


def q_genocchi_number(m: int, q: QParam, tol: float = 1e-12):
    """q-Genocchi number G_{m,q} = [2] m sum_{n>=0} (-1)^n q^n [n]^(m-1).

    Returns an exact Fraction for m <= 1 and for exact rational q; a
    :class:`SeriesValue` from the truncated series for complex q, sized in
    advance: past 1e7 terms it raises ConvergenceError before summing.
    """
    if m < 0:
        raise DomainError("m must be nonnegative")
    _positive("tol", tol)
    if q.regime is QRegime.LIMIT1:
        raise DomainError("q = 1 not admissible here; use number_table(GENOCCHI)")
    if m == 0:
        return Fraction(0)
    if m == 1:
        # [2] * sum (-1)^n q^n over n>=0 (with [0]^0 = 1) = (1+q)/(1+q)
        return Fraction(1)
    qv = q.value
    if isinstance(qv, Fraction):
        return _q_genocchi_closed(m, qv)
    # complex q: the q-series engine at s = 1 - m and alpha = 1
    from .qzeta import _alt_series

    scale = (1 + qv) * m
    return _alt_series(1 - m, q, None, None, tol / abs(scale),
                       alpha=1.0).scaled(scale)

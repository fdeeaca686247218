"""Dirichlet characters mod f, represented by exponent vectors on the cyclic
factors of (Z/fZ)* obtained from the CRT decomposition.

Each cyclic factor of modulus p^e contributes a generator g of order d; a
character assigns g the root of unity exp(2*pi*i*a/d).  Discrete logs are
precomputed per factor, so evaluation is table lookup plus exact rational
rotation arithmetic; real characters (order <= 2) evaluate to exact +-1 / 0.
Every series reads chi from one period cached on the character (``chi_table``);
``chi_eval`` computes one value: 10-15 us, against 6-9 ms for f = 1000 values.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Tuple

from .core import DomainError

__all__ = [
    "DirichletCharacter",
    "character_from_label",
    "characters_mod",
    "chi_eval",
    "chi_table",
]


def _factorize(n: int):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _primitive_root(p: int, e: int) -> int:
    """Primitive root mod p^e for odd prime p."""
    phi = p - 1
    fac = [f for f, _ in _factorize(phi)]
    g = 2
    while True:
        if all(pow(g, phi // f, p) != 1 for f in fac):
            break
        g += 1
    if e == 1:
        return g
    # g or g + p is primitive mod p^2, and then mod every p^e
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


class _Component:
    """One CRT component of (Z/fZ)*: modulus p^e with its cyclic generators."""

    __slots__ = ("modulus", "orders", "dlog")

    def __init__(self, modulus: int, orders, dlog):
        self.modulus = modulus
        self.orders = tuple(orders)
        self.dlog = dlog  # residue -> exponent tuple


@lru_cache(maxsize=None)
def _components(f: int) -> Tuple[_Component, ...]:
    comps = []
    for p, e in _factorize(f):
        pe = p ** e
        if p == 2:
            if e == 1:
                continue  # (Z/2)* is trivial
            if e == 2:
                table = {1: (0,), 3: (1,)}
                comps.append(_Component(4, (2,), table))
            else:
                # (Z/2^e)* = <-1> x <5>
                d2 = 2 ** (e - 2)
                table = {}
                val = 1
                for b in range(d2):
                    table[val] = (0, b)
                    table[(pe - val) % pe] = (1, b)
                    val = (val * 5) % pe
                comps.append(_Component(pe, (2, d2), table))
        else:
            g = _primitive_root(p, e)
            phi = pe - pe // p
            table = {}
            val = 1
            for j in range(phi):
                table[val] = (j,)
                val = (val * g) % pe
            comps.append(_Component(pe, (phi,), table))
    return tuple(comps)


@dataclass(frozen=True)
class DirichletCharacter:
    """chi mod f, defined by one exponent per cyclic generator of (Z/fZ)*."""

    modulus: int
    exponents: Tuple[int, ...]

    def _parts(self):
        comps = _components(self.modulus)
        orders = [d for c in comps for d in c.orders]
        return comps, orders

    @property
    def order(self) -> int:
        _, orders = self._parts()
        o = 1
        for a, d in zip(self.exponents, orders):
            o = math.lcm(o, d // math.gcd(a, d))
        return o

    @property
    def is_principal(self) -> bool:
        return all(a == 0 for a in self.exponents)

    @property
    def index(self) -> int:
        """Position in the deterministic ordering of characters_mod."""
        _, orders = self._parts()
        idx = 0
        for a, d in zip(self.exponents, orders):
            idx = idx * d + a
        return idx

    @property
    def label(self) -> str:
        return f"{self.modulus}:{self.index}"

    def rotation(self, n: int) -> Optional[Fraction]:
        """chi(n) = exp(2*pi*i*t) with t rational in [0,1); None when chi(n)=0."""
        f = self.modulus
        if math.gcd(n, f) != 1:
            return None
        comps, _ = self._parts()
        t = Fraction(0)
        pos = 0
        for comp in comps:
            exps = comp.dlog[n % comp.modulus]
            for d, ell in zip(comp.orders, exps):
                t += Fraction(self.exponents[pos] * ell, d)
                pos += 1
        return t % 1

    @cached_property
    def table(self) -> Tuple[complex, ...]:
        """One period (chi(0), ..., chi(f-1)), computed on first use."""
        return tuple(chi_eval(self, r) for r in range(self.modulus))

    def __call__(self, n: int) -> complex:
        return chi_eval(self, n)


def chi_eval(chi: DirichletCharacter, n: int) -> complex:
    """chi(n) as a root of unity, 0 off the units; exact for order <= 2."""
    t = chi.rotation(n)
    if t is None:
        return 0j
    if t == 0:
        return complex(1.0)
    if t == Fraction(1, 2):
        return complex(-1.0)
    if t == Fraction(1, 4):
        return 1j
    if t == Fraction(3, 4):
        return -1j
    return cmath.exp(2j * math.pi * float(t))


def chi_table(chi: Optional[DirichletCharacter]) -> tuple:
    """One period of chi's values, read as ``table[n % len(table)]``; (1,)
    without a character."""
    return (1,) if chi is None else chi.table


def characters_mod(f: int) -> Tuple[DirichletCharacter, ...]:
    """All phi(f) characters mod f, principal first, lexicographic on
    exponent vectors (deterministic CLI addressing ``f:index``)."""
    if f < 1:
        raise DomainError("modulus must be >= 1")
    comps = _components(f)
    orders = [d for c in comps for d in c.orders]
    out = []
    for exps in itertools.product(*[range(d) for d in orders]):
        out.append(DirichletCharacter(f, tuple(exps)))
    return tuple(out)


def character_from_label(label: str) -> DirichletCharacter:
    """Parse the CLI addressing string ``"f:index"``."""
    try:
        f_text, idx_text = label.split(":")
        f, idx = int(f_text), int(idx_text)
    except ValueError as exc:
        raise DomainError(f"bad character label {label!r}; expected 'f:index'") from exc
    chars = characters_mod(f)
    if not 0 <= idx < len(chars):
        raise DomainError(f"character index {idx} out of range for modulus {f} "
                          f"(phi = {len(chars)})")
    return chars[idx]

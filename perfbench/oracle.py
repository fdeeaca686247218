"""Reference values for benchmark ops, computed without calling hbq.

Exact sums are re-evaluated from their definitions in integer arithmetic
(the Dedekind sum through the reciprocity law), number tables come from the
Akiyama-Tanigawa algorithm, characters are rebuilt from the CRT convention
the CLI's ``f:index`` labels address, and every floating value is recomputed
in mpmath at ``DPS`` digits.  The real-q series are split into residue
classes; each class is summed directly for a head of terms and then closed by
Euler-Maclaurin, whose integral is an exact Gauss hypergeometric value and
whose derivatives come from power-series arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import mpmath
from mpmath import mp, mpc, mpf

DPS = 30


class OracleError(RuntimeError):
    """The reference could not be computed to the accuracy the check needs."""


# ----------------------------------------------------------------------
# exact finite sums
# ----------------------------------------------------------------------

def _saw2k(a: int, k: int) -> int:
    """2k * ((a/k)) as an integer."""
    r = a % k
    return 0 if r == 0 else 2 * r - k


def hardy_berndt_exact(variant: str, h: int, k: int) -> Fraction:
    """The six Hardy-Berndt sums from their definitions, in integers."""
    top = k - 1 if variant in ("S", "s4") else k
    num = 0
    for j in range(1, top + 1):
        fl = (h * j) // k
        if variant == "S":
            num += 1 if (j + 1 + fl) % 2 == 0 else -1
        elif variant == "s4":
            num += 1 if fl % 2 == 0 else -1
        elif variant == "s1":
            num += _saw2k(j, k) if fl % 2 == 0 else -_saw2k(j, k)
        elif variant == "s3":
            num += _saw2k(h * j, k) if j % 2 == 0 else -_saw2k(h * j, k)
        elif variant == "s5":
            num += _saw2k(j, k) if (j + fl) % 2 == 0 else -_saw2k(j, k)
        elif variant == "s2":
            t = _saw2k(j, k) * _saw2k(h * j, k)
            num += t if j % 2 == 0 else -t
        else:
            raise ValueError(f"unknown variant {variant!r}")
    if variant in ("S", "s4"):
        return Fraction(num)
    if variant == "s2":
        return Fraction(num, 4 * k * k)
    return Fraction(num, 2 * k)


def dedekind_exact(h: int, k: int) -> Fraction:
    """s(h, k) by the reciprocity law
    s(h,k) + s(k,h) = (h/k + k/h + 1/(hk))/12 - 1/4 and s(h mod k, k) = s(h, k)."""
    total = Fraction(0)
    sign = 1
    h %= k
    while k > 1 and h > 0:
        total += sign * (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)
                         - 3) / 12
        h, k = k % h, h
        sign = -sign
    return total


# ----------------------------------------------------------------------
# number tables
# ----------------------------------------------------------------------

def bernoulli_numbers(n_max: int) -> List[Fraction]:
    """B_0..B_n_max with B_1 = -1/2, by the Akiyama-Tanigawa algorithm."""
    out = []
    a = [Fraction(0)] * (n_max + 1)
    for m in range(n_max + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n_max >= 1:
        out[1] = -out[1]
    return out


def number_table_exact(kind: str, n_max: int) -> List[Fraction]:
    """Bernoulli, Euler (of 2/(e^t+1)) or Genocchi (of 2t/(e^t+1)) numbers;
    G_n = 2(1 - 2^n) B_n and E_n = G_(n+1)/(n+1)."""
    b = bernoulli_numbers(n_max + 1)
    if kind == "bernoulli":
        return b[:n_max + 1]
    gen = [2 * (1 - Fraction(2) ** n) * b[n] for n in range(n_max + 2)]
    if kind == "genocchi":
        return gen[:n_max + 1]
    if kind == "euler":
        return [gen[n + 1] / (n + 1) for n in range(n_max + 1)]
    raise ValueError(f"unknown number kind {kind!r}")


# ----------------------------------------------------------------------
# Dirichlet characters under the CLI's f:index addressing
# ----------------------------------------------------------------------

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


def _generator(p: int, e: int) -> int:
    """Smallest primitive root mod p, lifted to p^e when it fails mod p^2."""
    fac = [f for f, _ in _factorize(p - 1)]
    g = 2
    while any(pow(g, (p - 1) // f, p) == 1 for f in fac):
        g += 1
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def character_structure(f: int):
    """[(modulus, orders, dlog)] per CRT factor of (Z/fZ)*."""
    comps = []
    for p, e in _factorize(f):
        pe = p ** e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                comps.append((4, (2,), {1: (0,), 3: (1,)}))
                continue
            d2 = 2 ** (e - 2)
            dlog = {}
            for b in range(d2):
                v = pow(5, b, pe)
                dlog[v] = (0, b)
                dlog[(pe - v) % pe] = (1, b)
            comps.append((pe, (2, d2), dlog))
        else:
            g = _generator(p, e)
            phi = pe - pe // p
            comps.append((pe, (phi,), {pow(g, j, pe): (j,) for j in range(phi)}))
    return comps


def euler_phi(f: int) -> int:
    return sum(1 for n in range(1, f + 1) if math.gcd(n, f) == 1)


class Character:
    """chi mod f for a label f:index, evaluated from the CRT convention."""

    def __init__(self, f: int, index: int):
        self.modulus = f
        self.comps = character_structure(f)
        orders = [d for _, ds, _ in self.comps for d in ds]
        exps = []
        for d in reversed(orders):
            exps.append(index % d)
            index //= d
        if index:
            raise OracleError("character index out of range")
        self.exponents = tuple(reversed(exps))
        self.orders = tuple(orders)

    @property
    def order(self) -> int:
        o = 1
        for a, d in zip(self.exponents, self.orders):
            o = math.lcm(o, d // math.gcd(a, d))
        return o

    def rotation(self, n: int) -> Optional[Fraction]:
        if math.gcd(n, self.modulus) != 1:
            return None
        t = Fraction(0)
        pos = 0
        for pe, ds, dlog in self.comps:
            for d, ell in zip(ds, dlog[n % pe]):
                t += Fraction(self.exponents[pos] * ell, d)
                pos += 1
        return t % 1

    def __call__(self, n: int):
        t = self.rotation(n)
        if t is None:
            return mpc(0)
        return mpmath.expjpi(2 * mpf(t.numerator) / t.denominator)


def parse_label(label: str) -> Character:
    f, idx = label.split(":")
    return Character(int(f), int(idx))


# ----------------------------------------------------------------------
# power series helpers for Euler-Maclaurin derivatives
# ----------------------------------------------------------------------

def _series_log(a: Sequence) -> list:
    b = [mp.log(a[0])]
    for n in range(1, len(a)):
        acc = a[n]
        for k in range(1, n):
            acc -= mpf(k) / n * b[k] * a[n - k]
        b.append(acc / a[0])
    return b


def _series_exp(b: Sequence) -> list:
    e = [mp.exp(b[0])]
    for n in range(1, len(b)):
        acc = 0
        for k in range(1, n + 1):
            acc += k * b[k] * e[n - k]
        e.append(acc / n)
    return e


# ----------------------------------------------------------------------
# q-series
# ----------------------------------------------------------------------

_EM_TERMS = 24  # Euler-Maclaurin correction pairs
_HEAD = 40      # directly summed terms per residue class


def _real_q_series(s, q: Fraction, alpha, coef: Callable[[int], object],
                   period: int, n0: int, x) -> mpc:
    """sum_{n >= n0} coef(n) q^(n alpha) ([n] + x q^n)^(-s), 0 < q < 1 rational,
    coef periodic with the given period."""
    L = mp.log(mpf(q.numerator) / q.denominator)
    omq = 1 - mpf(q.numerator) / q.denominator
    c = 1 - mpf(x) * omq
    s = mpc(s)
    alpha = mpc(alpha)
    log_omq = mp.log(omq)

    def f(u):
        base = (1 - c * mp.exp(L * u)) / omq
        return mp.exp(alpha * L * u - s * mp.log(base))

    total = mpc(0)
    decay = abs(alpha.real * L)
    cutoff = 2.5 * DPS + 10  # e^-cutoff is below 10^-DPS
    if (abs(alpha.imag) + 1) * abs(L) * period > 1:
        # the class terms turn by more than a radian per step, where
        # Euler-Maclaurin converges slowly; the series decays fast enough
        # here to be summed term by term
        n = n0
        while n * decay <= cutoff or n < n0 + period:
            cn = coef(n)
            if cn != 0:
                total += cn * f(n)
            n += 1
        return total
    for r in range(n0, n0 + period):
        cr = coef(r)
        if cr == 0:
            continue
        acc = mpc(0)
        m = 0
        while m < _HEAD:
            acc += f(r + m * period)
            m += 1
        u0 = r + m * period
        if decay * u0 > cutoff:
            total += cr * acc
            continue
        # integral of f from u0 to infinity, y = e^(L u):
        # omq^s / (-L) * Y^alpha / alpha * 2F1(s, alpha; alpha + 1; c Y)
        e0 = mp.exp(L * u0)
        integral = mp.exp(s * log_omq) / (-L) * mp.exp(alpha * L * u0) / alpha \
            * mp.hyp2f1(s, alpha, alpha + 1, c * e0)
        order = 2 * _EM_TERMS
        a = [1 - c * e0] + [-c * e0 * L ** j / mp.factorial(j)
                            for j in range(1, order + 1)]
        b = [-s * v for v in _series_log(a)]
        b[0] += alpha * L * u0 + s * log_omq
        b[1] += alpha * L
        taylor = _series_exp(b)
        tail = integral / period + taylor[0] / 2
        last = 0
        for j in range(1, _EM_TERMS + 1):
            k = 2 * j - 1
            deriv = taylor[k] * mp.factorial(k) * mpf(period) ** k
            last = mp.bernoulli(2 * j) / mp.factorial(2 * j) * deriv
            tail -= last
        if abs(last) > mpf(10) ** (-DPS + 5) * max(1, abs(acc)):
            raise OracleError("Euler-Maclaurin tail did not settle")
        total += cr * (acc + tail)
    return total


def _disk_q_series(s, q: complex, coef: Callable[[int], object], n0: int,
                   x) -> mpc:
    """Complex |q| < 1 with the principal-branch convention of the disk
    engine: q^(n(s-1)) = exp(n (s-1) Log q), base^(-s) = exp(-s Log base)."""
    s = mpc(s)
    qc = mpc(q)
    logq = mp.log(qc)
    omq = 1 - qc
    total = mpc(0)
    n = n0
    rate = abs(qc) ** (s.real - 1)
    eps = mpf(10) ** (-DPS)
    small = 0
    while True:
        qn = mp.exp(n * logq)
        base = (1 - qn) / omq + x * qn
        term = coef(n) * mp.exp(n * logq * (s - 1)) * mp.exp(-s * mp.log(base))
        total += term
        if abs(term) < eps * max(1, abs(total)):
            small += 1
            if small > 40 and rate ** n < eps:
                return total
        else:
            small = 0
        n += 1
        if n > 200_000:
            raise OracleError("disk series oracle did not converge")


def q_series(s, q, *, alt: bool, chi: Optional[Character] = None,
             x=None, alpha=None):
    """sum_{n>=n0} (+-1)^n chi(n) q^(n alpha) ([n] + x q^n)^(-s) with
    n0 = 0 when a shift x is given, else 1; alpha defaults to s - 1."""
    with mp.workdps(DPS):
        f = chi.modulus if chi is not None else 1

        def coef(n):
            v = chi(n) if chi is not None else 1
            return -v if (alt and n % 2 == 1) else v

        n0 = 0 if x is not None else 1
        xv = mpf(0) if x is None else mpf(x)
        if isinstance(q, complex):
            if alpha is not None:
                raise OracleError("disk oracle fixes alpha = s - 1")
            return _disk_q_series(s, q, coef, n0, xv)
        period = math.lcm(2 if alt else 1, f)
        a = mpc(s) - 1 if alpha is None else alpha
        return _real_q_series(s, q, a, coef, period, n0, xv)


def cck_reference(s, q: Fraction):
    """q (1+q) sum_{n>=1} (-1)^(n+1) q^n [n]^(-s)."""
    with mp.workdps(DPS):
        qf = mpf(q.numerator) / q.denominator
        return -qf * (1 + qf) * q_series(s, q, alt=True, alpha=1)


def q_number_series(m: int, q, genocchi: bool):
    """q-Euler [2] sum_{n>=0} (-1)^n q^n [n]^m, or q-Genocchi
    [2] m sum_{n>=0} (-1)^n q^n [n]^(m-1), summed directly."""
    with mp.workdps(DPS + 10):
        if isinstance(q, Fraction):
            qv = mpf(q.numerator) / q.denominator
        else:
            qv = mpc(q)
        p = m - 1 if genocchi else m
        total = mpc(0)
        qn = mpc(1)
        br = mpc(0)
        n = 0
        eps = mpf(10) ** (-DPS - 5)
        while True:
            term = qn * (br ** p if (p > 0 or n > 0) else 1)
            total += -term if n % 2 else term
            if n > 10 and abs(term) < eps * max(1, abs(total)):
                break
            n += 1
            qn *= qv
            br = br * qv + 1
            if n > 2_000_000:
                raise OracleError("q-number oracle did not converge")
        out = (1 + qv) * total
        return out * m if genocchi else out


# ----------------------------------------------------------------------
# classical functions
# ----------------------------------------------------------------------

def lerch_reference(z, s, a):
    """sum_{m>=0} z^m (m + a)^(-s), summed directly (|z| < 1)."""
    with mp.workdps(DPS):
        zc, sc, av = mpc(z), mpc(s), mpf(a)
        total = mpc(0)
        zp = mpc(1)
        m = 0
        eps = mpf(10) ** (-DPS)
        while True:
            term = zp * mp.exp(-sc * mp.log(m + av))
            total += term
            if abs(zp) < eps * max(1, abs(total)):
                return total
            zp *= zc
            m += 1
            if m > 5_000_000:
                raise OracleError("Lerch oracle did not converge")


def odd_power_reference(z, s):
    """sum_{m>=1} z^m (2m - 1)^(-s), summed directly (|z| < 1)."""
    with mp.workdps(DPS):
        zc, sc = mpc(z), mpc(s)
        total = mpc(0)
        zp = mpc(1)
        m = 0
        eps = mpf(10) ** (-DPS)
        while True:
            m += 1
            zp *= zc
            total += zp * mp.exp(-sc * mp.log(2 * m - 1))
            if abs(zp) < eps * max(1, abs(total)):
                return total
            if m > 5_000_000:
                raise OracleError("odd-power oracle did not converge")


def zeta_reference(fn: str, s, a=None):
    with mp.workdps(DPS):
        sc = mpc(s)
        if sc.imag == 0:
            sc = sc.real
        if fn == "riemann":
            return mpc(mp.zeta(sc))
        if fn == "zeta_star":
            return mpc(mp.zeta(sc, mpf(1) / 2) * mp.power(2, -sc))
        if fn == "genocchi":
            return mpc(-2 * mp.altzeta(sc))
        if fn == "hurwitz":
            return mpc(mp.zeta(sc, mpf(a)))
        if fn == "digamma":
            return mpc(mp.digamma(mpf(s.real if isinstance(s, complex) else s)))
        raise ValueError(fn)


def bernoulli_poly_reference(p: int, x: Fraction):
    with mp.workdps(DPS + 20):
        return mp.bernpoly(p, mpf(x.numerator) / x.denominator)


# ----------------------------------------------------------------------
# oscillatory sums: damped offsets and their extrapolation
# ----------------------------------------------------------------------

# variant wiring of the Hardy-Berndt generating sums: alternating (F) family,
# odd (2m-1) weights, excluded residue class of the weights
_F_FAMILY = {"S": True, "s1": False, "s2": True, "s3": True, "s4": False,
             "s5": True}
_ODD_WEIGHTS = {"S": True, "s1": True, "s2": False, "s3": False, "s4": True,
                "s5": True}
_EXCLUDED = {"S": None, "s1": "odd", "s2": "even", "s3": None, "s4": None,
             "s5": "odd"}

HB_SCALE = {"S": 4, "s1": -2, "s2": Fraction(-1, 2), "s3": 1, "s4": 4,
            "s5": 2}  # times 1/(pi i)


def hb_scale(variant: str):
    with mp.workdps(DPS):
        v = HB_SCALE[variant]
        return mpc(mpf(Fraction(v).numerator) / Fraction(v).denominator) \
            / (mp.pi * 1j)


def _sin_sum(u: Fraction):
    """sum_m sin(m pi u)/m, 0 on the lattice u = 0 mod 2."""
    v = u % 2
    if v == 0:
        return mpf(0)
    return mp.clsin(1, mp.pi * mpf(v.numerator) / v.denominator)


def _odd_sin_sum(u: Fraction):
    """sum_m sin((2m-1) pi u)/(2m-1)."""
    return _sin_sum(u) - _sin_sum(2 * u) / 2


def _hb_shape(variant: str, u: Fraction, k: int):
    if _ODD_WEIGHTS[variant]:
        val = _odd_sin_sum(u)
        if _EXCLUDED[variant] == "odd" and k % 2 == 1:
            val -= _odd_sin_sum(k * u) / k
        return val
    val = _sin_sum(u)
    if _EXCLUDED[variant] == "even":
        d = k // 2 if k % 2 == 0 else k
        val -= _sin_sum(d * u) / d
    return val


def _clausen_shape(p: int, u: Fraction):
    """sum_m sin(2 pi m u)/m^p."""
    v = u % 1
    if v == 0:
        return mpf(0)
    return mp.clsin(p, 2 * mp.pi * mpf(v.numerator) / v.denominator)


def damped_offset(variant_or_p, h: int, k: int, q: Fraction, eps: float,
                  chi: Optional[Character] = None):
    """One damping offset of the literal oscillatory sum for 0 < q < 1:
    sum_n 2i sgn_n chi(n) q^(-n) e^(-A_n eps) shape(A_n), A_n = q^(-n)[n]."""
    with mp.workdps(DPS):
        is_hb = isinstance(variant_or_p, str)
        inv_q = 1 / q
        qinv = Fraction(1)
        a_exact = Fraction(0)
        e = mpf(eps)
        acc = mpc(0)
        n = 0
        tiny = mpf(10) ** (-DPS)
        while True:
            n += 1
            qinv *= inv_q
            a_exact += qinv
            mag = mpf(qinv.numerator) / qinv.denominator \
                * mp.exp(-mpf(a_exact.numerator) / a_exact.denominator * e)
            if is_hb:
                v = variant_or_p
                u = a_exact * h / (2 * k) if _ODD_WEIGHTS[v] else a_exact * h / k
                shape = _hb_shape(v, u, k)
                sgn = -1 if (_F_FAMILY[v] and n % 2 == 1) else 1
            else:
                shape = _clausen_shape(variant_or_p, a_exact * h / k)
                sgn = 1
            cv = chi(n) if chi is not None else 1
            acc += 2j * sgn * cv * mag * shape
            if mag < tiny and n > 5:
                return acc
            if n > 100_000:
                raise OracleError("damped offset oracle did not converge")


def neville(offsets: Sequence[float], values: Sequence, order: int):
    """Extrapolation of (eps_i, V_i) to eps = 0 through the last order + 1
    points, and the sum of |Lagrange weights| of those points."""
    with mp.workdps(DPS):
        pts = list(zip(offsets, values))[-(order + 1):]
        total = mpc(0)
        wsum = mpf(0)
        for i, (ei, vi) in enumerate(pts):
            w = mpf(1)
            for j, (ej, _) in enumerate(pts):
                if j != i:
                    w *= mpf(ej) / (mpf(ej) - mpf(ei))
            total += w * vi
            wsum += abs(w)
        return total, wsum

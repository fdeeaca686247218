"""Hot numeric kernels: the float-heavy inner loops (series partial sums, the
one Cohen-Rodriguez Villegas-Zagier loop for alternating series, the damped
double sums of the product-identity checks, generating-function evaluation
inside quadrature and for ``eval_gen``).  The two array kernels import numpy
when called, the only numpy imports in hbq; the direct q-series sum runs in
blocks of at most 32,768 terms with the bits of one array pass.  ``chi`` is
always one period of character values.  Exact-rational code paths stay
elsewhere.
"""

from __future__ import annotations

import cmath
import functools
import math

__all__ = [
    "KERNEL_MODE",
    "crvz_sum",
    "crvz_terms",
    "damped_pair_sum",
    "gen_series_sum",
    "qzeta_partial_sum",
]

KERNEL_MODE = "numpy"  # the one implementation, named for run metadata
CRVZ_LOG_RATE = math.log(3.0 + math.sqrt(8.0))
CRVZ_MIN_TERMS = 12
CRVZ_MAX_TERMS = 390  # keeps n (3+sqrt 8)^n below the float range
# terms per block of the direct q-series sum; its halves hold at least
# 16,384 complex terms (256 KiB), the size from which numpy multiplies
# temporaries in place, as one array of the whole sum does (see
# tests/test_kernels.py)
_LEAF = 1 << 15


def crvz_terms(log_mass: float, tol: float, log_rho: float = 0.0) -> int:
    """The number n of terms `crvz_sum` takes to bring
    3 |mu| rho^n (3+sqrt 8)^(-n) below tol, |mu| = exp(log_mass), with three
    terms to spare and at least CRVZ_MIN_TERMS.  rho = 1 for a measure on
    [0, 1]; a measure off it, inside the Bernstein ellipse E_rho about the
    image of [0, 1], slows the rate by log rho."""
    return max(CRVZ_MIN_TERMS,
               int((log_mass + math.log(3.0) - math.log(tol))
                   / (CRVZ_LOG_RATE - log_rho)) + 3)


def crvz_sum(terms, n):
    """sum_{k>=0} (-1)^k a_k from its first n terms a_0, ..., a_(n-1), by
    Algorithm 1 of Cohen, Rodriguez Villegas and Zagier (Experiment. Math. 9
    (2000)).  When a_k is the k-th moment of a measure mu on [0, 1], the
    error is at most 2 |mu| (3+sqrt 8)^(-n), |mu| its total variation;
    callers bound it by 3 |mu| (3+sqrt 8)^(-n).  The error is the integral
    of T_n(1-2t) / ((1+t) T_n(3)) against mu, so a complex measure on a
    set with Re t >= 0 whose image 1 - 2t lies in the Bernstein ellipse
    E_rho, where |T_n| <= rho^n, gains the factor rho^n."""
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    acc = 0j
    for k, a in zip(range(n), terms):
        c = b - c
        acc += c * a
        b *= 2.0 * (k + n) * (k - n) / ((2.0 * k + 1.0) * (k + 1.0))
    return acc / d


@functools.lru_cache(maxsize=None)
def _sign_chi_period(chi, alt):
    """sign^r chi(r) over one period 2f of both: one read-only array each."""
    import numpy as np

    coef = np.asarray([complex(-1.0 if alt and r % 2 else 1.0, 0.0) * complex(chi[r % len(chi)])
                       for r in range(2 * len(chi))], dtype=np.complex128)
    coef.flags.writeable = False
    return coef


def qzeta_partial_sum(logq, s, x, chi, alt, n0, n1, alpha):
    """sum_{n=n0}^{n1-1} sign^n chi[n mod f] q^(n alpha) ([n] + x q^n)^(-s)
    and |term n1|, the first omitted, with the bits of one array pass.  logq
    is real for 0 < q < 1 and complex for |q| < 1, with principal powers
    q^a = exp(a Log q) and base^(-s) = exp(-s Log base).  x = 0 gives the
    series over [n]^(-s).  Terms past the float range come back as inf or
    nan, without a warning.

    The terms are formed in blocks of at most _LEAF, split as numpy's
    pairwise summation splits one complex array, so the sum keeps its bits
    while the arrays held at once stay O(_LEAF), not O(n1 - n0).
    """
    import numpy as np

    # 1 - q; numpy's real expm1 differs from math's in the last bit
    omq = -(math.expm1(logq) if isinstance(logq, float) else np.expm1(logq))
    period = _sign_chi_period(chi, alt)

    def pairwise(lo, hi):
        """(sum of terms lo..hi-1, term hi)"""
        count = hi - lo
        if count > _LEAF:  # numpy's split: the left part a multiple of 8 reals
            mid = lo + (count - count % 8) // 2
            left = pairwise(lo, mid)[0]
            right, last = pairwise(mid, hi)
            return left + right, last
        n = np.arange(lo, hi + 1, dtype=np.float64)
        nl = n * logq
        coef = period[np.arange(lo, hi + 1) % len(period)]
        with np.errstate(over="ignore", invalid="ignore"):
            base = np.expm1(nl) / -omq  # [n]
            if x:
                base = base + x * np.exp(nl)
            terms = coef * np.exp(nl * alpha) * np.exp(-s * np.log(base))
            return complex(np.add.reduce(terms[:-1])), complex(terms[-1])

    body, first_omitted = pairwise(n0, n1)
    return body, abs(first_omitted)


def damped_pair_sum(s, eps, logq, alt, chi, odd_weights, m_count, n_count):
    """sum_{n,m} c_n w_m [(eps - i w)^(-s) - (eps + i w)^(-s)], w = A_n mu_m,
    c_n = sign^n chi(n) q^(-n), mu_m = 2m-1 (odd_weights) or m, w_m = 1/mu_m.

    For real s the bracket is conjugate-symmetric and collapses to
    2i (eps^2 + w^2)^(-s/2) sin(s atan2(w, eps)), one real power per term.
    """
    import numpy as np

    m = np.arange(1, m_count + 1, dtype=np.float64)
    mu = 2.0 * m - 1.0 if odd_weights else m
    acc = 0j
    omq = -math.expm1(logq)
    real_s = complex(s).imag == 0.0
    sr = complex(s).real
    for n in range(1, n_count + 1):
        a = (math.exp(-n * logq) - 1.0) / omq  # q^{-n} [n]
        c = chi[n % len(chi)] * math.exp(-n * logq)
        if alt and n % 2 == 1:
            c = -c
        w = a * mu
        if real_s:
            bracket = 2j * (eps * eps + w * w) ** (-0.5 * sr) \
                * np.sin(sr * np.arctan2(w, eps))
        else:
            bracket = (eps - 1j * w) ** (-s) - (eps + 1j * w) ** (-s)
        acc += c * np.sum(bracket / mu)
    return complex(acc)


def gen_series_sum(t, logq, alt, chi, nmax, tol):
    """sum_{n>=1} sign^n chi(n) q^(-n) exp(-q^(-n)[n] t) with rigorous tail,
    Re t > 0, ``chi`` one period of character values.

    Returns (value, tail_bound, terms_used); the tail bound is inf when nmax
    terms do not reach tol.
    """
    t = complex(t)
    omq = -math.expm1(logq)
    acc = 0j
    n = 0
    qinv = math.exp(-logq)
    a = (qinv - 1.0) / omq  # q^(-n)[n]
    major = qinv * math.exp(-a * t.real)
    while n < nmax:
        n += 1
        c = chi[n % len(chi)] * major
        if t.imag != 0.0:
            c *= cmath.exp(complex(0.0, -a * t.imag))
        if alt and n % 2 == 1:
            c = -c
        acc += c
        qinv = math.exp(-(n + 1) * logq)
        a = (qinv - 1.0) / omq
        nxt_major = qinv * math.exp(-a * t.real)
        ratio = nxt_major / major if major > 0 else 0.0
        if nxt_major < tol * 0.5 and ratio < 0.5:
            return complex(acc), 2.0 * nxt_major, n
        major = nxt_major
    return complex(acc), math.inf, n

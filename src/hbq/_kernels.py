"""Hot numeric kernels: the float-heavy inner loops (series partial sums, the
damped double sums of the product-identity checks, generating-function
evaluation inside quadrature and for ``eval_gen``).  The two array kernels
import numpy when called, the only numpy imports in hbq.  ``chi`` is always
one period of character values.  Exact-rational code paths stay elsewhere.
"""

from __future__ import annotations

import cmath
import functools
import math

__all__ = [
    "KERNEL_MODE",
    "damped_pair_sum",
    "gen_series_sum",
    "qzeta_partial_sum",
]

KERNEL_MODE = "numpy"  # the one implementation, named for run metadata


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
    and |term n1|, the first omitted, from one array pass.  logq is real for
    0 < q < 1 and complex for |q| < 1, with principal powers q^a = exp(a Log q)
    and base^(-s) = exp(-s Log base).  x = 0 gives the series over [n]^(-s).
    Terms past the float range come back as inf or nan, without a warning.
    """
    import numpy as np

    n = np.arange(n0, n1 + 1, dtype=np.float64)
    nl = n * logq
    # 1 - q; numpy's real expm1 differs from math's in the last bit
    omq = -(math.expm1(logq) if isinstance(logq, float) else np.expm1(logq))
    period = _sign_chi_period(chi, alt)
    coef = period[np.arange(n0, n1 + 1) % len(period)]
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.expm1(nl) / -omq  # [n]
        if x:
            base = base + x * np.exp(nl)
        terms = coef * np.exp(nl * alpha) * np.exp(-s * np.log(base))
        return complex(np.add.reduce(terms[:-1])), abs(complex(terms[-1]))


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

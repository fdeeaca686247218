"""Hot numeric kernels: the float-heavy inner loops (the long direct
q-series sums, the one Cohen-Rodriguez Villegas-Zagier loop for alternating
series, the damped double sums of the product-identity checks, and the
generating series inside quadrature and at the one node of ``eval_gen``).

Arrays serve only the sums whose set-up they repay.  The two array kernels
import numpy when called, the only numpy imports in hbq:
`qzeta_partial_sum` for direct q-series of more than `qzeta._PY_TERMS`
terms, in blocks of at most 32,768 terms in buffers made once per call, and
`gen_series_sum` for the many nodes of a quadrature level, in blocks of
about 16,384 rows times real nodes.  Everything else is a plain loop:
`crvz_sum`, whose weights are tabled once per n; `gen_node_sum`, one real or
complex node; and `damped_pair_sum`, a short m-head per n with the binomial
m-tail from tabled Hurwitz zetas.  ``chi`` is one period of character
values.  Only here: the float cap of the row q^(-n)[n] (`_gen_cap`) and the
stop rule under a majorant (`_gen_stops`, on arrays or on two floats).
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
    "gen_node_sum",
    "gen_series_sum",
    "qzeta_partial_sum",
]

KERNEL_MODE = "numpy"  # the one implementation, named for run metadata
CRVZ_LOG_RATE = math.log(3.0 + math.sqrt(8.0))
CRVZ_MIN_TERMS = 12
CRVZ_MAX_TERMS = 390  # keeps n (3+sqrt 8)^n below the float range
# terms per block of the direct q-series sum: 512 KiB of complex terms
_LEAF = 1 << 15
# rows of n times nodes per block of the generating series, and the rows of
# its first block
_GEN_BLOCK = 1 << 14
_GEN_ROWS = 32
# log of the float range, less a margin for the rounding of q^(-n)[n]
_LOG_FLOAT_MAX = 709.0


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
    d, weights = _crvz_weights(n)
    acc = 0j
    for c, a in zip(weights, terms):
        acc += c * a
    return acc / d


@functools.lru_cache(maxsize=CRVZ_MAX_TERMS + 1)
def _crvz_weights(n: int):
    """d = T_n(3) = (x^n + x^(-n)) / 2, x = 3 + sqrt 8, and the weights
    c_0, ..., c_(n-1) of `crvz_sum`, formed once per n by the float
    operations of the loop they come from."""
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    weights = []
    for k in range(n):
        c = b - c
        weights.append(c)
        b *= 2.0 * (k + n) * (k - n) / ((2.0 * k + 1.0) * (k + 1.0))
    return d, tuple(weights)


@functools.lru_cache(maxsize=None)
def _coefficients(chi: tuple, alt: bool) -> tuple:
    """c_n = sign^n chi(n) for n = 0..L-1, over the period L = lcm(2, f)
    (alternating) or f: the coefficients of every series here."""
    f = len(chi)
    return tuple((-1 if alt and n % 2 else 1) * chi[n % f]
                 for n in range(math.lcm(2 if alt else 1, f)))


@functools.lru_cache(maxsize=None)
def _sign_chi_period(chi, alt):
    """`_coefficients` as one read-only complex array."""
    import numpy as np

    coef = np.asarray(_coefficients(chi, alt), dtype=np.complex128)
    coef.flags.writeable = False
    return coef


def qzeta_partial_sum(logq, s, x, chi, alt, n0, n1, alpha):
    """sum_{n=n0}^{n1-1} sign^n chi[n mod f] q^(n alpha) ([n] + x q^n)^(-s)
    and |term n1|, the first omitted.  logq is real for 0 < q < 1 and
    complex for |q| < 1, with principal powers q^a = exp(a Log q) and
    base^(-s) = exp(-s Log base); x is a real shift, and x = 0 gives the
    series over [n]^(-s).  Terms past the float range come back as inf or
    nan, without a warning.

    The terms are formed in blocks of at most _LEAF, in buffers made once
    per call, and the block sums are added in order, so the arrays held at
    once stay O(_LEAF), not O(n1 - n0).  Each buffer has the dtype that the
    plain one-array expression gives its intermediate, each product keeps
    that expression's operand order, and no binary ufunc that forms a term
    writes over one of its operands (numpy may take another loop for an
    in-place product, one that rounds differently).  So a term's bits do
    not depend on its block or on the length of the sum, and a sum of one
    block has the bits of the plain expression.
    """
    import numpy as np

    # 1 - q; numpy's real expm1 differs from math's in the last bit
    omq = -(math.expm1(logq) if isinstance(logq, float) else np.expm1(logq))
    period = _sign_chi_period(chi, alt)
    size = min(_LEAF, n1 + 1 - n0)
    n = np.arange(n0, n0 + size, dtype=np.float64)
    # nl, em, base, qpow, power, coef_q and terms below; [n] and the base
    # share the dtype of n log q, as 1 - q is real iff log q is
    t_nl = np.result_type(n, logq)
    buffers = [np.empty(size, t) for t in (
        t_nl, t_nl, t_nl, np.result_type(t_nl, alpha), np.result_type(-s, t_nl),
        np.complex128, np.complex128)]
    # the period repeated: the coefficients of the block from lo start at
    # lo mod its length
    coef = np.empty((size // len(period) + 2, len(period)), np.complex128)
    coef[:] = period
    coef = coef.reshape(-1)
    body = complex(-0.0, -0.0)  # adds as 0 would, but keeps a part's -0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(n0, n1 + 1, size):
            m = min(size, n1 + 1 - lo)  # the last block ends at term n1
            nl, em, base, qpow, power, coef_q, terms = (
                buffers if m == size else [b[:m] for b in buffers])
            np.multiply(n[:m], logq, out=nl)
            np.multiply(nl, alpha, out=qpow)
            np.divide(np.expm1(nl, out=em), -omq, out=base)  # [n]
            if x:  # base + x q^n; nl and em are no longer needed
                np.multiply(x, np.exp(nl, out=em), out=nl)
                base = np.add(base, nl, out=em)
            np.multiply(-s, np.log(base, out=base), out=power)
            phase = lo % len(period)
            np.multiply(coef[phase:phase + m], np.exp(qpow, out=qpow), out=coef_q)
            np.multiply(coef_q, np.exp(power, out=power), out=terms)
            body += complex(np.add.reduce(terms[:min(m, n1 - lo)]))
            np.add(n, size, out=n)
    return body, abs(complex(terms[m - 1]))


def damped_pair_sum(s, eps, logq, alt, chi, odd_weights, m_count, n_count,
                    tail=()):
    """sum_{n <= n_count} c_n sum_{m <= m_count} w_m B_n(mu_m) plus the tail
    below, where B_n(mu) = (eps - i w)^(-s) - (eps + i w)^(-s), w = a_n mu,
    a_n = q^(-n)[n], c_n = sign^n chi(n) q^(-n), mu_m = 2m-1 (odd_weights)
    or m, and w_m = 1/mu_m.

    Each term is formed at unit scale: w_m B_n(mu) = a_n^(-s) mu^(-s-1)
    [(t - i)^(-s) - (t + i)^(-s)], t = eps / w, so w itself is never formed.
    For real s the bracket is conjugate-symmetric and collapses to
    2i (1 + t^2)^(-s/2) sin(s atan2(1, t)), one real power per term.

    ``tail`` holds d_j = C(-s, j) 2i sin(pi (s+j)/2) sum_{m > m_count}
    mu_m^(-s-1-j) for j = 1, 2, ...: each n then adds
    c_n a_n^(-s) sum_j d_j (eps / a_n)^j, the terms j >= 1 of the binomial
    series of its m > m_count remainder.  With no tail the sum is the
    truncated double sum.
    """
    real_s = complex(s).imag == 0.0
    sr = complex(s).real
    mu = [2.0 * m - 1.0 if odd_weights else float(m)
          for m in range(1, m_count + 1)]
    inv_mu = [1.0 / v for v in mu]
    if real_s:
        mu_pow = [2.0 * v ** (-sr - 1.0) for v in mu]
        half = -0.5 * sr
    else:
        mu_pow = [v ** (-s - 1.0) for v in mu]
    omq = -math.expm1(logq)
    coef = _coefficients(chi, alt)
    acc = 0j
    for n in range(1, n_count + 1):
        qinv = math.exp(-n * logq)
        a = (qinv - 1.0) / omq  # q^(-n) [n]
        ea = eps / a
        ts = [ea * v for v in inv_mu]
        if real_s:
            head = 1j * sum(p * (1.0 + t * t) ** half
                            * math.sin(sr * math.atan2(1.0, t))
                            for p, t in zip(mu_pow, ts))
            scale = a ** -sr
        else:
            head = sum(p * ((t - 1j) ** -s - (t + 1j) ** -s)
                       for p, t in zip(mu_pow, ts))
            scale = cmath.exp(-s * math.log(a))
        rest = 0j
        for d in reversed(tail):  # Horner in eps / a
            rest = (rest + d) * ea
        acc += coef[n % len(coef)] * qinv * scale * (head + rest)
    return acc


def _gen_cap(logq, nmax):
    """The last n a generating series may reach: nmax, or the last n whose
    next row q^(-n-1)[n+1] < q^(-n-1) / (1 - q) <= e^709 fits a float."""
    return min(nmax, int((_LOG_FLOAT_MAX + math.log(-math.expm1(logq))) / -logq) - 1)


def _gen_stops(cur, nxt, tol):
    """The stop rule of the generating series, on arrays or on two floats
    (with the same booleans): a node stops at the first n whose next majorant
    m_(n+1) = q^(-n-1) exp(-q^(-n-1)[n+1] Re t) (``nxt``) is below tol/2
    and below m_n / 2 (``cur``), or m_n = 0.  The ratio
    m_(j+1) / m_j = q^(-1) exp(-q^(-j-1) Re t) falls with j, so 2 m_(n+1)
    bounds the tail."""
    return (nxt < 0.5 * tol) & ((nxt + nxt < cur) | (cur == 0.0))


def gen_node_sum(t, logq, alt, chi, nmax, tol):
    """`gen_series_sum` at the one node t, also complex (Re t > 0), in a plain
    loop: (value, tail bound, terms used), with its rows, terms and stop rule."""
    t = complex(t)
    omq = -math.expm1(logq)
    cap = _gen_cap(logq, nmax)
    coef = _coefficients(chi, alt)
    value, cur = 0j, None
    for n in range(1, cap + 2) if cap > 0 else ():
        qinv = math.exp(n * -logq)
        a = (qinv - 1.0) / omq
        major = math.exp(-a * t.real) * qinv
        if cur is not None and _gen_stops(cur, major, tol):
            return value, 2.0 * major, n - 1
        if n > cap:
            break
        term = coef[n % len(coef)] * major
        if t.imag:
            term *= cmath.exp(complex(0.0, -a * t.imag))
        value += term
        cur = major
    return value, math.inf, max(cap, 0)


def gen_series_sum(ts, logq, alt, chi, nmax, tol):
    """sum_{n>=1} sign^n chi(n) q^(-n) exp(-q^(-n)[n] t) at each real node
    t > 0 of ``ts``, with a rigorous tail; ``chi`` is one period of
    character values.  Returns three lists: the values, the tail bounds and
    the numbers of terms used.  A complex node goes to `gen_node_sum`.

    A node stops by `_gen_stops`, and a node still running after nmax terms,
    or at the last n with q^(-n)[n] inside the float range (`_gen_cap`),
    has tail bound inf.  `gen_node_sum` sums one node by the same rule.

    The row q^(-n), q^(-n)[n] and the coefficients are formed once per block
    of n and shared by every node still running.  A block spans at most
    _GEN_BLOCK rows times nodes (one row when more nodes run), so the
    temporaries stay bounded; its row count doubles from _GEN_ROWS while
    nodes keep running, which lets one node that needs many terms take
    whole blocks of _GEN_BLOCK rows.
    """
    import numpy as np

    t = np.asarray(ts, dtype=np.float64)
    omq = -math.expm1(logq)
    cap = _gen_cap(logq, nmax)
    coef = _sign_chi_period(chi, alt)
    if not coef.imag.any():
        coef = coef.real
    values = np.zeros(t.size, np.complex128)
    tails = np.full(t.size, math.inf)
    counts = np.full(t.size, max(cap, 0))
    live = np.arange(t.size)
    lo, rows = 1, _GEN_ROWS
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size and lo <= cap:
            hi = min(cap, lo - 1 + max(1, min(rows, _GEN_BLOCK // live.size)))
            n = np.arange(lo, hi + 2, dtype=np.float64)
            qinv = np.exp(n * -logq)
            a = (qinv - 1.0) / omq
            # majors of rows lo..hi+1 (exp(-inf) is 0 where a t overflows)
            major = np.exp(np.multiply.outer(-a, t[live]))
            major *= qinv[:, None]
            cur, nxt = major[:-1], major[1:]
            stop = _gen_stops(cur, nxt, tol)
            terms = coef[np.arange(lo, hi + 1) % len(coef)][:, None] * cur
            done = stop.any(axis=0)
            last = np.where(done, stop.argmax(axis=0), hi - lo)
            used = np.arange(hi + 1 - lo)[:, None] <= last
            values[live] += np.where(used, terms, 0.0).sum(axis=0)
            ended = live[done]
            tails[ended] = 2.0 * nxt[last[done], done.nonzero()[0]]
            counts[ended] = lo + last[done]
            live = live[~done]
            lo, rows = hi + 1, 2 * rows
    return values.tolist(), tails.tolist(), counts.tolist()

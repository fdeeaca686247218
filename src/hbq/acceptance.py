"""The fixed acceptance checklist: ten criteria, each with its pinned
tolerance, runnable from the CLI (``hbq verify all``) and from the test
suite.  Oracles here are deliberately independent of the code paths they
check (defining-property convolutions, direct partial summation, exact
rational arithmetic)."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from .characters import DirichletCharacter, characters_mod
from .core import DomainError, QParam, VerificationOutcome, _maybe_int
from .numbers import NumberKind, number_table
from .qsums import (DEFAULT_SCHEDULE, classical_trig_series,
                    oscillatory_sum, q_dedekind_sum, q_hardy_berndt_sum)
from .sums import (HARDY_VARIANTS, dedekind_sum, hardy_berndt_sum,
                   parity_condition)
from .zeta import genocchi_zeta, genocchi_zeta_exact

__all__ = ["CRITERIA", "CriterionResult", "run_all", "run_criterion"]

_CATALAN = 0.91596559417721902  # G = sum_{n>=0} (-1)^n (2n+1)^(-2)
_Q_HALF = QParam.real(Fraction(1, 2))


@dataclass
class CriterionResult:
    number: int
    description: str
    passed: bool
    details: List[str] = field(default_factory=list)


def _admissible(pairs):
    """(variant, h, k) for each pair and each variant whose parity condition
    holds."""
    return [(v, h, k) for h, k in pairs for v in HARDY_VARIANTS
            if parity_condition(v, h, k).holds]


def _worst(outs: Sequence[VerificationOutcome]) -> float:
    return max([0.0] + [out.abs_diff for out in outs])


# The identity checks behind ``hbq verify``, each returning its outcomes in
# report order; their defaults are the grids of criteria 1 and 3-6, and a
# given value of an axis (s, q, chi or x) replaces that axis.

def _axis(value, default: tuple) -> tuple:
    return default if value is None else (value,)


def _report_order(outs) -> List[VerificationOutcome]:
    return sorted(outs, key=lambda o: sorted(str(v) for v in o.params.values()))


def trig_series_checks(k_max: int = 15,
                       tol: float = 1e-9) -> List[VerificationOutcome]:
    """thm4: the digamma closed form of each trigonometric series against
    the exact finite sum, for every coprime (h, k), k <= k_max, h <= 2k, and
    every variant whose parity condition holds, ordered by variant, k, h."""
    if k_max < 1:
        raise DomainError("k_max must be >= 1: an empty sweep checks nothing")
    pairs = [(h, k) for k in range(1, k_max + 1) for h in range(1, 2 * k + 1)
             if math.gcd(h, k) == 1]
    return [VerificationOutcome.compare(
                "trig-series-vs-exact", {"variant": v, "h": h, "k": k},
                classical_trig_series(v, h, k, tol=tol * 1e-2),
                float(hardy_berndt_sum(v, h, k)), tol)
            for v, h, k in sorted(_admissible(pairs), key=lambda c: c[0])]


def decomposition_checks(two_var: bool, s=None, q: Optional[QParam] = None,
                         chi: Optional[DirichletCharacter] = None,
                         x: Optional[float] = None,
                         tol: float = 1e-10) -> List[VerificationOutcome]:
    """thm5, or thm6 with ``two_var``: the conductor decomposition for each
    character mod 3 and 5 at s in {2, 3}, q in {1/2, 1/3} and, for thm6,
    x in {1/4, 1/2}."""
    from .qzeta import verify_conductor_decomposition

    if x is not None and not two_var:
        raise DomainError("the one-variable decomposition takes no x")
    return _report_order(
        verify_conductor_decomposition(si, c, qi, tol, x=xi)
        for c in _axis(chi, characters_mod(3) + characters_mod(5))
        for si in _axis(s, (2, 3))
        for qi in _axis(q, (_Q_HALF, QParam.real(Fraction(1, 3))))
        for xi in (_axis(x, (0.25, 0.5)) if two_var else (None,)))


def mellin_checks(s=None, q: Optional[QParam] = None,
                  tol: float = 1e-8) -> List[VerificationOutcome]:
    """mellin-defs: quadrature against series for the plain, shifted
    (x = 1/2) and twisted (nonprincipal mod 4) transforms at s in
    {2, 3, 5/2} and q in {3/10, 1/2, 4/5}."""
    from .mellin import verify_mellin_roundtrip

    chi4 = characters_mod(4)[1]
    targets = (("zeta", {}), ("hurwitz", {"x": 0.5}), ("l", {"chi": chi4}))
    return _report_order(
        verify_mellin_roundtrip(target, si, qi, tol=tol, **kwargs)
        for si in _axis(s, (2, 3, 2.5))
        for qi in _axis(q, (QParam.real(Fraction(3, 10)), _Q_HALF,
                            QParam.real(Fraction(4, 5))))
        for target, kwargs in targets)


def product_check(tid: int, s=2, q: QParam = _Q_HALF,
                  chi: Optional[DirichletCharacter] = None,
                  tol: float = 1e-4) -> List[VerificationOutcome]:
    """thm19-thm23: the one outcome of product identity ``tid``; the twisted
    identities 22 and 23 default to the nonprincipal character mod 4."""
    from .mellin import verify_product_identity

    if chi is None and tid in (22, 23):
        chi = characters_mod(4)[1]
    return [verify_product_identity(tid, s, q, chi=chi, tol=tol)]


def _criterion(number: int, description: str, heads: List[str],
               failures: List[str]) -> CriterionResult:
    """A criterion passes iff it has no failure line: its details are the
    summary lines ``heads``, then ``failures``."""
    return CriterionResult(number, description, not failures,
                           heads + failures)


def _outcomes_criterion(number: int, description: str,
                        checks: Callable[[], List[VerificationOutcome]],
                        head: str, label: Callable[[VerificationOutcome], str],
                        limit: Optional[tuple] = None) -> CriterionResult:
    """A criterion over the outcomes of ``checks``: the summary line
    ``head`` (formatted with the count n and the worst diff), then
    ``label`` of each failed outcome.  With ``limit`` = (seconds, what) it
    also fails when the checks take longer than that."""
    t0 = time.monotonic()
    outs = checks()
    failures = [label(out) for out in outs if not out.passed]
    elapsed = time.monotonic() - t0
    if limit and elapsed > limit[0]:
        failures.append(f"{limit[1]} took {elapsed:.2f}s > {limit[0]:g}s")
    return _criterion(number, description,
                      [head.format(n=len(outs), worst=_worst(outs))], failures)


def criterion_1() -> CriterionResult:
    """Trigonometric-series suite: closed form vs exact finite sums for every
    coprime (h, k) with k <= 15 and admissible parity, |diff| <= 1e-9, full
    sweep under 5 s."""
    return _outcomes_criterion(
        1, "trig series vs exact sums (k <= 15, 1e-9)", trig_series_checks,
        "{n} cases, worst |series - exact| = {worst:.3e}",
        lambda out: f"{out.params['variant']}({out.params['h']},"
                    f"{out.params['k']}) diff {out.abs_diff:.3e}",
        (5.0, "sweep"))


_RECOVERY_PAIRS = ((1, 2), (2, 3), (1, 3), (3, 4), (1, 5))


def recovery_checks() -> List[VerificationOutcome]:
    """q = 1 values of the scaled oscillatory sums on the recovery pairs
    against the exact sums: each admissible Hardy-Berndt variant, and the
    q-Dedekind sums of orders 1, 3 and 5 against Apostol's s_p."""
    one = QParam.one()
    cases = [(v, h, k, q_hardy_berndt_sum(v, h, k, one), hardy_berndt_sum(v, h, k))
             for v, h, k in _admissible(_RECOVERY_PAIRS)]
    cases += [(f"dedekind-p{p}", h, k, q_dedekind_sum(p, h, k, one), dedekind_sum(h, k, p))
              for p in (1, 3, 5) for h, k in _RECOVERY_PAIRS]
    return [VerificationOutcome.compare("q1-recovery", {"variant": v, "h": h, "k": k},
                                        got, float(exact), 1e-6)
            for v, h, k, got, exact in cases]


def criterion_2() -> CriterionResult:
    """q = 1 recovery of the scaled oscillatory sums (`recovery_checks`)
    within 1e-6."""
    return _outcomes_criterion(
        2, "q = 1 oscillatory recovery (1e-6)", recovery_checks,
        "worst |q=1 value - exact| = {worst:.3e}",
        lambda out: f"{out.params['variant']}({out.params['h']},"
                    f"{out.params['k']}) diff {out.abs_diff:.3e}")


def criterion_3() -> CriterionResult:
    """Mellin definitional round-trips (quadrature vs series) for the plain,
    shifted (x = 1/2) and twisted (nonprincipal mod 4) series on the
    3 x 3 (s, q) grid: 27 checks <= 1e-8, under 10 s."""
    return _outcomes_criterion(
        3, "Mellin round-trips (27 checks, 1e-8)", mellin_checks,
        "{n} checks, worst diff {worst:.3e}",
        lambda out: f"{out.name[len('mellin-roundtrip-'):]} "
                    f"s={_maybe_int(out.params['s'])} q={out.params['q']}: "
                    f"{out.abs_diff:.3e}",
        (10.0, "round-trips"))


def _decomposition_criterion(number: int, two_var: bool) -> CriterionResult:
    variables = "two variables" if two_var else "one variable"
    return _outcomes_criterion(
        number, f"conductor decomposition, {variables} (1e-10)",
        lambda: decomposition_checks(two_var), "worst diff {worst:.3e}",
        lambda out: f"chi={out.params['chi']} s={_maybe_int(out.params['s'])} "
                    f"q={out.params['q']}"
                    + (f" x={out.params['x']}" if two_var else "")
                    + f": {out.abs_diff:.3e}")


def criterion_4() -> CriterionResult:
    """Conductor decomposition (one variable) over mod-3 and mod-5
    characters, s in {2,3}, q in {1/2,1/3}: |lhs - rhs| <= 1e-10."""
    return _decomposition_criterion(4, two_var=False)


def criterion_5() -> CriterionResult:
    """Two-variable conductor decomposition on the criterion-4 grid with
    x in {1/4, 1/2}: <= 1e-10."""
    return _decomposition_criterion(5, two_var=True)


def criterion_6() -> CriterionResult:
    """Product identities: 19, 21, 22 at s = 2, q = 1/2 (nonprincipal mod 4
    for 22) within 1e-4 after damping and extrapolation; 20 and 23 reported
    under the documented plain-series normalization at the same tolerance."""
    outs = [out for tid in (19, 20, 21, 22, 23) for out in product_check(tid)]
    return _criterion(6, "product identities at s = 2 (1e-4)",
                      [f"id {out.params['id']}: |lhs - rhs| = {out.abs_diff:.3e}"
                       for out in outs],
                      [f"id {out.params['id']}: {out.abs_diff:.3e} > "
                       f"{out.tolerance:.1e}" for out in outs if not out.passed])


def _egf_product_check(entries, rhs_coeffs) -> bool:
    """Defining-property oracle: (e^t + 1) * sum a_n t^n/n! must equal the
    stated right side, coefficient by coefficient, in exact arithmetic."""
    n_max = len(entries) - 1
    for n in range(n_max + 1):
        acc = entries[n]  # the '+1' part
        for k in range(n + 1):
            acc += math.comb(n, k) * entries[k]
        if acc != rhs_coeffs(n):
            return False
    return True


def criterion_7() -> CriterionResult:
    """Number tables to n = 30 against defining-property oracles, the
    Bernoulli bridge G_n = 2(1 - 2^n) B_n exactly, and the continuation
    values |zeta_G(1-n)| = |G_n/n| for n in {2,4,6,8} with the observed
    sign recorded."""
    failures = []
    n_max = 30
    bern = number_table(NumberKind.BERNOULLI, n_max + 1)
    euler = number_table(NumberKind.EULER, n_max)
    gen = number_table(NumberKind.GENOCCHI, n_max)

    # (e^t + 1) sum E = 2 ; (e^t + 1) sum G = 2t
    if not _egf_product_check(euler.entries,
                              lambda n: Fraction(2) if n == 0 else Fraction(0)):
        failures.append("Euler table fails its defining product")
    if not _egf_product_check(gen.entries,
                              lambda n: Fraction(2) if n == 1 else Fraction(0)):
        failures.append("Genocchi table fails its defining product")
    # (e^t - 1) sum B t^n/n! = t  (coefficient n: sum_{k<n} C(n,k) B_k = [n=1])
    for n in range(n_max + 1):
        acc = sum(math.comb(n, k) * bern[k] for k in range(n))
        if acc != (Fraction(1) if n == 1 else Fraction(0)):
            failures.append(f"Bernoulli defining product fails at n = {n}")
            break
    for n in range(n_max + 1):
        if gen[n] != 2 * (1 - Fraction(2) ** n) * bern[n]:
            failures.append(f"bridge G_n = 2(1-2^n)B_n fails at n = {n}")
        if gen[n].denominator != 1:
            failures.append(f"G_{n} is not an integer")
        if n >= 3 and n % 2 == 1 and gen[n] != 0:
            failures.append(f"odd G_{n} does not vanish")
    signs = []
    for n in (2, 4, 6, 8):
        zg = genocchi_zeta_exact(1 - n)
        target = gen[n] / n
        if abs(zg) != abs(target):
            failures.append(f"|zeta_G(1-{n})| != |G_{n}/{n}|")
        signs.append("+" if zg == target else "-")
    return _criterion(7, "number tables, bridge, continuation values",
                      ["observed zeta_G(1-n) = (sign) G_n/n with signs "
                       f"{signs} relative to +G_n/n"], failures)


def criterion_8() -> CriterionResult:
    """q -> 1 continuity of the scaled series at s = 2: distances to the
    classical limits decrease monotonically for q = 1 - 10^-k, k = 2..5, and
    are below 1e-3 at k = 5; plain and twisted (mod 4) versions; the twisted
    limit is 2 sum (-1)^n chi4(n) n^(-2) = -2G, G Catalan's constant."""
    from .qzeta import q_alt_l, q_alt_zeta

    heads, failures = [], []
    target_plain = genocchi_zeta(2, 1e-13).value
    chi4 = characters_mod(4)[1]
    target_chi = -2.0 * _CATALAN
    for name, target, fn in (
            ("plain", target_plain,
             lambda q: q_alt_zeta(2, q, 1e-10, genocchi_scale=True).value),
            ("mod-4", target_chi,
             lambda q: q_alt_l(2, chi4, q, 1e-10, genocchi_scale=True).value)):
        dists = []
        for k in range(2, 6):
            q = QParam.real(Fraction(10 ** k - 1, 10 ** k))
            dists.append(abs(fn(q) - target))
        mono = all(a > b for a, b in zip(dists, dists[1:]))
        small = dists[-1] <= 1e-3
        heads.append(f"{name}: distances {['%.2e' % d for d in dists]} "
                     f"monotone={mono} final<=1e-3={small}")
        if not (mono and small):
            failures.append(f"{name}: no monotone approach to within 1e-3")
    return _criterion(8, "q -> 1 continuity at s = 2", heads, failures)


def criterion_9() -> CriterionResult:
    """Character algebra for all moduli f <= 24: multiplicativity on every
    residue pair (m, n) mod f, which decides it for all m, n, and
    orthogonality, exact for order <= 2 and within 1e-12 otherwise."""
    failures = []
    worst_mult = 0.0
    worst_orth = 0.0
    for f in range(1, 25):
        group = characters_mod(f)
        if len(group) != _euler_phi(f):
            failures.append(f"modulus {f}: wrong character count")
        for chi in group:
            vals = chi.table
            err = max(abs(vals[m * n % f] - vals[m] * vals[n])
                      for m in range(f) for n in range(f))
            worst_mult = max(worst_mult, err)
            if chi.order <= 2 and err != 0.0:
                failures.append(f"real chi mod {f} not exactly multiplicative")
            elif err > 1e-12:
                failures.append(f"chi mod {f} multiplicativity err {err:.2e}")
            total = sum(vals)
            if chi.is_principal:
                if abs(total - _euler_phi(f)) > 1e-12:
                    failures.append(f"principal orthogonality fails mod {f}")
            else:
                worst_orth = max(worst_orth, abs(total))
                if abs(total) > 1e-12:
                    failures.append(f"orthogonality fails: chi {chi.label}")
    return _criterion(9, "character algebra, f <= 24",
                      [f"worst multiplicativity {worst_mult:.2e}, "
                       f"worst orthogonality {worst_orth:.2e}"], failures)


def criterion_10() -> CriterionResult:
    """Schedule stability: for every Hardy-Berndt q-sum of criterion 2,
    refining the schedule by half the final offset moves the Richardson-
    extrapolated value by less than the reported residual estimate.  (The
    q = 1 value itself is the exact Abel limit, which no schedule moves.)"""
    one = QParam.one()
    failures = []
    worst_ratio = 0.0
    for v, h, k in _admissible(_RECOVERY_PAIRS):
        base = oscillatory_sum(v, h, k, one, reg=DEFAULT_SCHEDULE)
        fine = oscillatory_sum(v, h, k, one, reg=DEFAULT_SCHEDULE.refined())
        move = abs(fine.extrapolated - base.extrapolated)
        if base.residual > 0:
            worst_ratio = max(worst_ratio, move / base.residual)
        if move >= base.residual:
            failures.append(f"{v}({h},{k}): moved {move:.2e} >= "
                            f"residual {base.residual:.2e}")
    return _criterion(10, "regularization schedule stability",
                      [f"worst move/residual ratio {worst_ratio:.3e}"], failures)


def _euler_phi(f: int) -> int:
    return sum(math.gcd(n, f) == 1 for n in range(1, f + 1))


CRITERIA: List[Callable[[], CriterionResult]] = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
]


def run_criterion(number: int) -> CriterionResult:
    return CRITERIA[number - 1]()


def run_all() -> List[CriterionResult]:
    return [fn() for fn in CRITERIA]

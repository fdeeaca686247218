import cmath
import math
import time
from fractions import Fraction

import pytest

from hbq import (ConvergenceError, DomainError, ParityError, QParam, RegularizationSchedule,
                 character_from_label, characters_mod, classical_trig_series,
                 dedekind_oscillatory_sum, dedekind_sum, eval_gen,
                 hardy_berndt_sum, oscillatory_sum, parity_condition,
                 q_dedekind_sum, q_hardy_berndt_sum)
from hbq import qsums
from hbq.qsums import HB_SCALE, _richardson
from hbq.sums import HARDY_VARIANTS

Q_HALF = QParam.real(Fraction(1, 2))
ONE = QParam.one()


# ----------------------------------------------------------------------
# generating functions
# ----------------------------------------------------------------------

def _brute_gen(kind, t, qv, n_max=60, chi=None):
    from hbq import chi_eval
    acc = 0j
    for n in range(1, n_max):
        a = (1 / qv) ** n * (1 - qv ** n) / (1 - qv)
        coef = (1 / qv) ** n
        if kind.startswith("F"):
            coef *= (-1) ** n
        if chi is not None:
            coef *= chi_eval(chi, n)
        acc += coef * cmath.exp(-a * t)
    return acc


def test_eval_gen_against_brute():
    sv = eval_gen("F", 1.0, Q_HALF)
    assert abs(sv.value - _brute_gen("F", 1.0, 0.5)) <= sv.tail_bound + 1e-15
    # leading term is -2 e^(-2)
    assert abs(_brute_gen("F", 1.0, 0.5, n_max=2) - (-2 * math.exp(-2))) < 1e-15
    sv = eval_gen("f", 0.3, QParam.real(Fraction(2, 3)))
    assert abs(sv.value - _brute_gen("f", 0.3, 2 / 3)) <= sv.tail_bound + 1e-12


def test_eval_gen_parity_split():
    # f - F doubles the odd-n terms
    f = eval_gen("f", 1.0, Q_HALF)
    F = eval_gen("F", 1.0, Q_HALF)
    odd = 2 * sum(2.0 ** n * math.exp(-(2.0 ** n) * (1 - 2.0 ** -n) / 0.5)
                  for n in (1, 3, 5, 7, 9, 11))
    assert abs((f.value - F.value) - odd) <= f.tail_bound + F.tail_bound + 1e-14


def test_eval_gen_chi_reduction():
    one = characters_mod(1)[0]
    a = eval_gen("F_chi", 1.0, Q_HALF, chi=one)
    b = eval_gen("F", 1.0, Q_HALF)
    assert a.value == b.value


def test_eval_gen_domain_and_verbatim():
    with pytest.raises(DomainError):
        eval_gen("F", -0.5, Q_HALF)
    with pytest.raises(DomainError):
        eval_gen("F", 1j, Q_HALF)   # Re t = 0
    with pytest.raises(DomainError):
        eval_gen("F_chi", 1.0, Q_HALF)  # missing character


def test_eval_gen_stops_when_terms_underflow():
    # every majorant underflows to 0 at large t; the series stops after one
    # term instead of running q^(-n) into overflow
    sv = eval_gen("F", 800.0, Q_HALF)
    assert math.isfinite(abs(sv.value)) and sv.terms_used == 1


# ----------------------------------------------------------------------
# classical trigonometric series
# ----------------------------------------------------------------------

def test_trig_series_anchors():
    assert abs(classical_trig_series("S", 1, 2) - 1.0) < 1e-9
    assert abs(classical_trig_series("s3", 1, 3) - 1.0 / 3.0) < 1e-9
    assert abs(classical_trig_series("s4", 1, 3) - 2.0) < 1e-9


def test_trig_series_against_the_exact_sums_up_to_k_60():
    # psi comes from one full-precision row per denominator, so the value is
    # the same at every tol, and within 1e-11 of the exact finite sum for
    # every admissible (v, h, k) with h <= 2k, k <= 60
    for k in range(1, 61):
        for h in range(1, 2 * k + 1):
            if math.gcd(h, k) != 1:
                continue
            for v in HARDY_VARIANTS:
                if not parity_condition(v, h, k).holds:
                    continue
                value = classical_trig_series(v, h, k, tol=1e-6)
                assert value == classical_trig_series(v, h, k, tol=1e-12)
                assert abs(value - float(hardy_berndt_sum(v, h, k))) <= 1e-11, \
                    (v, h, k)
    assert qsums._psi_row.cache_info().maxsize <= 16


def test_trig_series_parity_and_pole_rejection():
    with pytest.raises(ParityError):
        classical_trig_series("S", 1, 3)   # h + k even
    with pytest.raises(ParityError):
        classical_trig_series("s4", 2, 3)  # h even
    with pytest.raises(ParityError):
        classical_trig_series("s1", 1, 3)  # h odd


def test_period_cancellation():
    # sum of tan over a full period vanishes when no pole occurs
    for h, k in ((1, 2), (2, 3), (3, 4), (1, 5), (4, 7), (3, 11)):
        if (h + k) % 2 == 0:
            continue
        total = sum(math.tan(math.pi * ((h * (2 * r - 1)) % (2 * k)) / (2 * k))
                    for r in range(1, k + 1))
        assert abs(total) < 1e-12 * max(1, k)


# ----------------------------------------------------------------------
# oscillatory sums at q = 1
# ----------------------------------------------------------------------

def test_variant_index_out_of_range():
    assert oscillatory_sum(4, 1, 3, ONE).value == \
        oscillatory_sum("s4", 1, 3, ONE).value
    for index in (6, 7, -1):
        with pytest.raises(DomainError):
            oscillatory_sum(index, 1, 2, ONE)


def test_limit1_matches_exact_sums():
    for h, k in ((1, 2), (2, 3), (1, 3), (3, 4), (1, 5)):
        for v in HARDY_VARIANTS:
            if not parity_condition(v, h, k).holds:
                continue
            exact = float(hardy_berndt_sum(v, h, k))
            got = q_hardy_berndt_sum(v, h, k, ONE)
            assert abs(got - exact) < 1e-6


def test_limit1_y0_example():
    res = oscillatory_sum("S", 1, 2, ONE)
    assert abs((4 / (math.pi * 1j)) * res.value - 1.0) < 1e-13
    assert res.route == "limit1-abel-period"
    assert not res.diverged


def test_limit1_closed_form_vs_period_route():
    # two independent routes for the q = 1 value: the digamma closed form of
    # the classical series and the Abel limit of the damped period structure
    for v, h, k in (("S", 1, 2), ("S", 2, 3), ("s3", 1, 3), ("s4", 1, 3),
                    ("s5", 1, 5), ("s2", 3, 4), ("s1", 2, 3), ("s3", 4, 9)):
        res = oscillatory_sum(v, h, k, ONE)
        assert res.route == "limit1-abel-period"
        closed = classical_trig_series(v, h, k) / HB_SCALE[v]
        assert abs(closed - res.value) < 1e-9


def test_richardson_diagnostic_tracks_value():
    res = oscillatory_sum("S", 1, 2, ONE)
    assert abs(res.extrapolated - res.value) < 1e-3
    assert abs(res.extrapolated - res.value) > 0  # genuinely different routes


def test_scaling_is_bitwise():
    res = oscillatory_sum("s3", 1, 3, ONE)
    assert q_hardy_berndt_sum("s3", 1, 3, ONE) == HB_SCALE["s3"] * res.value


def test_antisymmetry_in_h():
    for q in (Q_HALF, ONE):
        for v, h, k in (("s3", 2, 3), ("S", 1, 2)):
            plus = oscillatory_sum(v, h, k, q)
            minus = oscillatory_sum(v, -h, k, q)
            assert plus.value == -minus.value


def test_principal_mod1_collapse():
    one_chi = characters_mod(1)[0]
    a = oscillatory_sum("S", 1, 2, ONE, chi=one_chi)
    b = oscillatory_sum("S", 1, 2, ONE)
    assert a.value == b.value and a.per_offset == b.per_offset


def test_twisted_limit1_route():
    chi4 = characters_mod(4)[1]
    res = oscillatory_sum("S", 1, 2, ONE, chi=chi4)
    assert res.route in ("limit1-abel-period", "limit1-richardson")
    assert abs(res.value - res.extrapolated) < max(1e-3, 10 * res.residual)


def test_parity_enforcement_and_override():
    with pytest.raises(ParityError):
        q_hardy_berndt_sum("S", 1, 3, ONE)
    # warn-and-proceed mode hands back the abel-period reading
    val = q_hardy_berndt_sum("s3", 1, 2, ONE, enforce_parity=False)
    assert isinstance(val, complex)


# ----------------------------------------------------------------------
# oscillatory sums at q < 1: honest divergence diagnostics
# ----------------------------------------------------------------------

def test_q_below_one_diverges_with_flag():
    res = oscillatory_sum("S", 1, 2, Q_HALF, tol=1e-8)
    assert res.diverged
    assert res.residual > 1e-5
    assert len(res.per_offset) == 4


def test_schedule_validation():
    with pytest.raises(DomainError):
        RegularizationSchedule((0.1, 0.2), 2)     # not decreasing
    with pytest.raises(DomainError):
        RegularizationSchedule((0.1, -0.05), 2)
    with pytest.raises(DomainError):
        RegularizationSchedule((0.1,), 2)         # too short to extrapolate
    with pytest.raises(DomainError, match="offsets must be finite"):
        RegularizationSchedule((math.inf, 0.1), 2)
    with pytest.raises(DomainError, match="order must be >= 0"):
        RegularizationSchedule((0.2, 0.1), -3)


def test_richardson_exact_on_polynomials():
    eps = (0.2, 0.1, 0.05, 0.025)
    vals = [3.0 + 2.0 * e - 7.0 * e ** 2 for e in eps]
    value, resid = _richardson(eps, vals, 2)
    assert abs(value - 3.0) < 1e-12
    assert resid < 1e-1


def test_richardson_order_zero_keeps_the_last_value():
    # no extrapolation: the value at the smallest offset, and the move from
    # the one before it as the residual
    vals = [2.0 + 1.0j, 2.5 + 0.5j, 2.25 + 0.75j]
    value, resid = _richardson((0.2, 0.1, 0.05), vals, 0)
    assert value == vals[-1]
    assert resid == abs(vals[-1] - vals[-2])
    value, resid = _richardson((0.1,), [3.0 + 4.0j], 0)
    assert value == 3.0 + 4.0j and resid == 5.0


# ----------------------------------------------------------------------
# q-Dedekind sums
# ----------------------------------------------------------------------

def test_dedekind_limit1_matches_classical():
    # the literal q = 1 Abel limit of the order-1 sum lands exactly on the
    # classical Dedekind sum for every pair tested
    for h, k in ((1, 2), (1, 3), (2, 5), (3, 7), (5, 12)):
        got = q_dedekind_sum(1, h, k, ONE)
        assert abs(got - float(dedekind_sum(h, k))) < 1e-12


def test_dedekind_limit1_matches_apostol():
    # at q = 1 the order-p sum lands on Apostol's exact s_p(h, k): 456
    # coprime pairs over p = 1, 3, 5, 7, worst relative error 2.7e-14, and
    # under 1e-16 where s_p = 0
    cases = 0
    for p in (1, 3, 5, 7):
        for k in range(2, 14):
            for h in range(1, 2 * k):
                if math.gcd(h, k) != 1:
                    continue
                exact = float(dedekind_sum(h, k, p))
                got = q_dedekind_sum(p, h, k, ONE)
                assert abs(got - exact) <= (1e-13 * abs(exact) if exact else 1e-16), \
                    (p, h, k)
                cases += 1
    assert cases == 456


def test_dedekind_extrapolated_within_residual_of_apostol():
    # the damped offsets' Richardson value, scaled as q_dedekind_sum scales
    # it, lies within its residual of the exact s_p
    for p in (1, 3, 5):
        scale = math.factorial(p) / (2j * math.pi) ** p
        for h, k in ((1, 2), (1, 3), (2, 5), (3, 7), (1, 4), (5, 12), (4, 9),
                     (7, 10)):
            res = dedekind_oscillatory_sum(p, h, k, ONE)
            exact = float(dedekind_sum(h, k, p))
            assert abs(scale * res.extrapolated - exact) \
                < abs(scale) * res.residual, (p, h, k)


def test_dedekind_rejects_even_order():
    with pytest.raises(DomainError):
        q_dedekind_sum(2, 1, 3, ONE)
    with pytest.raises(DomainError):
        q_dedekind_sum(-1, 1, 3, ONE)


def test_dedekind_tol_and_term_cap_checked():
    with pytest.raises(DomainError):
        dedekind_oscillatory_sum(1, 1, 3, ONE, tol=0.0)
    with pytest.raises(DomainError):
        q_dedekind_sum(1, 1, 3, Q_HALF, tol=-1e-8)
    far = QParam.real(Fraction(99999, 100000))
    with pytest.raises(ConvergenceError, match="term cap"):
        q_dedekind_sum(1, 1, 3, far)
    with pytest.raises(ConvergenceError, match="term cap"):
        q_hardy_berndt_sum("S", 1, 2, far)


def test_literal_work_cap_fails_fast():
    # at q = 9999/10000 the literal sums need about 33,000 exact slices of up
    # to 465,000 bits; they once ran for minutes, now the float sizing
    # refuses them before any exact arithmetic
    q = QParam.real(Fraction(9999, 10000))
    for call in (lambda: oscillatory_sum("S", 1, 2, q),
                 lambda: dedekind_oscillatory_sum(3, 1, 3, q)):
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError, match="term cap"):
            call()
        assert time.perf_counter() - t0 < 1.0
    # the exact slice of order p has p times the angle's bits
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError, match="term cap"):
        dedekind_oscillatory_sum(169, 1, 3, QParam.real(Fraction(99, 100)))
    assert time.perf_counter() - t0 < 1.0


def test_literal_sums_below_the_cap_still_return():
    # these took 18-21 s each while every offset rebuilt its exact Fractions;
    # now well under a second, with the same bits
    q = QParam.real(Fraction(999, 1000))
    assert oscillatory_sum("S", 1, 2, q).value == -4.877103270389066j
    assert dedekind_oscillatory_sum(1, 1, 3, q).value == 19.001991480626085j
    # a 366-bit denominator with few terms stays under the cap
    q = QParam.real(Fraction(99, 100) + Fraction(1, 10 ** 110))
    assert oscillatory_sum("S", 1, 2, q).value == 8.532667521722695j


def test_dedekind_order_range():
    # p! must fit a float: 169 is the largest odd p for which it does
    assert cmath.isfinite(q_dedekind_sum(169, 1, 7, ONE))
    for p, q in ((171, ONE), (301, Q_HALF), (701, Q_HALF)):
        with pytest.raises(DomainError, match="odd integer from 1 to 169"):
            q_dedekind_sum(p, 1, 7, q)


def test_dedekind_reads_bernoulli_once(monkeypatch):
    # one table of B_0..B_p per order p, not one per slice or per call: the
    # integer row is cached in `numbers`, emptied here to count its reads
    from hbq import numbers
    calls = []
    table = numbers.number_table

    def counting(kind, n_max):
        calls.append(n_max)
        return table(kind, n_max)

    monkeypatch.setattr(numbers, "number_table", counting)
    monkeypatch.setattr(qsums, "number_table", counting, raising=False)
    numbers._bernoulli_row.cache_clear()
    q_dedekind_sum(5, 1, 7, ONE)
    assert calls == [5]
    calls.clear()
    dedekind_oscillatory_sum(3, 2, 5, Q_HALF)
    assert calls == [3]
    calls.clear()
    q_dedekind_sum(5, 2, 9, ONE)
    dedekind_oscillatory_sum(3, 1, 4, Q_HALF)
    dedekind_sum(2, 9, 5)
    assert calls == []


# values of the oscillatory sums as the Fraction-based slices gave them,
# compared with ==: per_offset at the smallest offset, value and residual, at
# 0 < q < 1 (literal route) and at q = 1 (period route), with and without a
# character, p = 1 and 3
_PINNED = (
    (lambda: oscillatory_sum("s3", 2, 5, QParam.real(Fraction(2, 5)),
                             chi=character_from_label("5:1")),
     (0.025, (27.90482575060731 + 9.450427442303619j)),
     (42.406764216429075 + 21.369379554169186j), 5.824226842470985),
    (lambda: dedekind_oscillatory_sum(3, 1, 4, QParam.real(Fraction(2, 5))),
     (0.025, 8.055878985583218j), 5.058131866592062j, 2.075754711664671),
    (lambda: oscillatory_sum("s1", 2, 5, ONE,
                             chi=character_from_label("5:2")),
     (0.025, 0.628122244558435j), 0.6283185307179586j,
     0.0003882908072121438),
    (lambda: dedekind_oscillatory_sum(1, 1, 3, ONE),
     (0.025, 0.3489931397078638j), 0.3490658503988659j,
     0.00014465085928666577),
    (lambda: dedekind_oscillatory_sum(3, 2, 7, ONE),
     (0.025, 0.7230170528671745j), 0.7231784648466429j,
     0.0003220050065089186),
)


@pytest.mark.parametrize("case", range(len(_PINNED)))
def test_oscillatory_sums_keep_their_bits(case):
    call, last_offset, value, residual = _PINNED[case]
    res = call()
    assert res.per_offset[-1] == last_offset
    assert res.value == value
    assert res.residual == residual


def test_dedekind_higher_order_runs():
    val = q_dedekind_sum(3, 1, 3, ONE)
    assert abs(val.imag) < 1e-12
    res = dedekind_oscillatory_sum(3, 1, 3, Q_HALF)
    assert len(res.per_offset) == 4


# ----------------------------------------------------------------------
# schedule stability (the q = 1 sums of the recovery suite)
# ----------------------------------------------------------------------

def test_damped_stability_at_limit1():
    from hbq.qsums import DEFAULT_SCHEDULE
    for v, h, k in (("S", 1, 2), ("s3", 1, 3), ("s4", 1, 5)):
        base = oscillatory_sum(v, h, k, ONE)
        fine = oscillatory_sum(v, h, k, ONE, reg=DEFAULT_SCHEDULE.refined())
        assert abs(fine.extrapolated - base.extrapolated) < base.residual

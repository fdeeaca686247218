"""Output checks for every op, run after the timed region.

``check_api`` takes an api-sweep op and the worker's typed reply;
``check_cli`` takes a cli-oneshot op and its JSON report.  Each returns None
when the output is right and the mismatch otherwise.  A floating result is
wrong when |value - reference| exceeds the tolerance the op requested (the
contract of ``SeriesValue``); exact results must match exactly, or match a
30-digit reference to 1e-25 of its size.  No failure is excused: the
workloads leave out the corners where ROADMAP 4b and 4c document failures
(``ops.py``), so every failed op makes the run incorrect.

A result of the wrong shape is a wrong result of its op.  When the reference
itself cannot be computed, the check returns an ``Unchecked``: the op is
neither passed nor blamed, and the run is not correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, Optional

from mpmath import mp, mpc
from mpmath.libmp import NoConvergence

import oracle as O

# default tolerances of the library functions the ops call without one
_OSC_TOL = 1e-8
_FLOAT_TOL = 1e-12
_SCHEDULE = ((0.2, 0.1, 0.05, 0.025), 2)
# exact results compared with a 30-digit reference
_EXACT_SHARE = 1e-25


class Miss(AssertionError):
    """A floating value outside its tolerance."""

    def __init__(self, what: str, err: float, tol: float):
        super().__init__(f"{what}: |value - reference| = {err:.3e} > tol {tol:.1e}")
        self.err, self.tol = err, tol


class Unchecked(Exception):
    """The reference could not be computed, so the op's output is unchecked."""


def _cv(v) -> complex:
    if isinstance(v, dict):
        return complex(v["re"], v["im"])
    if isinstance(v, list):
        return complex(v[0], v[1])
    return complex(v)


def _close(what: str, got, ref, tol: float) -> None:
    """A floating value within tol of the reference."""
    err = abs(_cv(got) - complex(ref))
    if not err <= tol:
        raise Miss(what, err, tol)


def _exact(what: str, got, ref: Fraction) -> None:
    if Fraction(str(got)) != ref:
        raise AssertionError(f"{what}: {got} != {ref}")


def _exact_close(what: str, got: Fraction, ref) -> None:
    """An exact result against a 30-digit reference: no rounding to excuse."""
    with mp.workdps(O.DPS):
        err = abs(mp.mpf(got.numerator) / got.denominator - ref)
        if not err <= _EXACT_SHARE * max(1, abs(ref)):
            raise AssertionError(f"{what}: exact value {got} is {mp.nstr(err, 3)} "
                                 f"from the reference")


def _frac(text) -> Fraction:
    return Fraction(str(text))


def _qf(q) -> Fraction:
    return Fraction(q["$q"]) if isinstance(q, dict) else Fraction(q)


def _q_any(q):
    if "$qd" in q:
        return complex(*q["$qd"])
    return Fraction(q["$q"])


def _arg_c(v) -> complex:
    return complex(*v["$c"]) if isinstance(v, dict) else complex(v)


def _chi(v) -> Optional[O.Character]:
    if v is None:
        return None
    return O.parse_label(v["$chi"] if isinstance(v, dict) else v)


def _osc_reference(shape, h: int, k: int, q: Fraction, chi=None):
    offsets, order = _SCHEDULE
    per = [O.damped_offset(shape, h, k, q, e, chi) for e in offsets]
    ext, weight = O.neville(offsets, per, order)
    return per, ext, float(weight)


# ----------------------------------------------------------------------
# api-sweep
# ----------------------------------------------------------------------

def _api_check(fn: str, a: list, kw: dict, res: Dict) -> None:
    if fn == "sums.dedekind_sum":
        _exact(fn, res["F"], O.dedekind_exact(a[0], a[1]))
    elif fn == "sums.hardy_berndt_sum":
        _exact(fn, res["F"], O.hardy_berndt_exact(a[0], a[1], a[2]))
    elif fn in ("qzeta.q_alt_zeta", "qzeta.q_alt_zeta_hurwitz",
                "qzeta.q_alt_l", "qzeta.q_plain_zeta"):
        s = _arg_c(a[0])
        if fn == "qzeta.q_alt_zeta":
            q, tol, x, chi, alt = a[1], a[2], None, None, True
        elif fn == "qzeta.q_alt_zeta_hurwitz":
            x, q, tol, chi, alt = a[1], a[2], a[3], None, True
            if kw.get("variant") == "bracket":
                qf = _qf(q)
                with mp.workdps(O.DPS):
                    qm = mp.mpf(qf.numerator) / qf.denominator
                    x = (1 - qm ** x) / (1 - qm)
        elif fn == "qzeta.q_alt_l":
            chi, q, tol, x, alt = _chi(a[1]), a[2], a[3], kw.get("x"), True
        else:
            q, tol, chi, x, alt = a[1], a[2], _chi(kw.get("chi")), None, False
        qv = _q_any(q)
        ref = O.q_series(s, qv, alt=alt, chi=chi, x=x)
        scale = 1
        if kw.get("genocchi_scale"):
            scale = 1 + (mpc(qv) if isinstance(qv, complex)
                         else mp.mpf(qv.numerator) / qv.denominator)
        _close(fn, res["sv"], ref * scale, tol)
    elif fn == "qzeta.cck_zeta":
        s, q = _arg_c(a[0]), _qf(a[1])
        _close(fn, res["sv"], O.cck_reference(s, q), a[2])
    elif fn == "numbers.q_genocchi_number":
        q = _q_any(a[1])
        ref = O.q_number_series(a[0], q, genocchi=True)
        if isinstance(q, Fraction) or a[0] <= 1:
            _exact_close(fn, _frac(res["F"]), ref)
        else:
            _close(fn, res["sv"], ref, a[2])
    elif fn == "numbers.q_euler_number":
        ref = O.q_number_series(a[0], _qf(a[1]), genocchi=False)
        _exact_close(fn, _frac(res["F"]), ref)
    elif fn == "numbers.number_table":
        got = [Fraction(v) for v in res["table"]]
        if got != O.number_table_exact(a[0], a[1]):
            raise AssertionError(f"{fn}: table differs from the reference")
    elif fn == "numbers.bernoulli_polynomial":
        x = _frac(a[1]["$F"])
        ref = O.bernoulli_poly_reference(a[0], x)
        _exact_close(fn, _frac(res["F"]), ref)
    elif fn == "zeta.hurwitz_zeta":
        s = _arg_c(a[0])
        _close(fn, res["sv"], O.zeta_reference("hurwitz", s, a[1]), a[2])
    elif fn == "zeta.riemann_zeta":
        _close(fn, res["sv"], O.zeta_reference("riemann", _arg_c(a[0])), a[1])
    elif fn == "zeta.zeta_star":
        _close(fn, res["sv"], O.zeta_reference("zeta_star", _arg_c(a[0])), a[1])
    elif fn == "zeta.genocchi_zeta":
        _close(fn, res["sv"], O.zeta_reference("genocchi", _arg_c(a[0])), a[1])
    elif fn == "zeta.digamma":
        _close(fn, res["c"], O.zeta_reference("digamma", a[0]), a[1])
    elif fn == "zeta.genocchi_zeta_exact":
        ref = O.zeta_reference("genocchi", a[0])
        _exact_close(fn, _frac(res["F"]), ref)
    elif fn == "zeta.zeta_exact_nonpositive":
        ref = O.zeta_reference("riemann", a[0])
        _exact_close(fn, _frac(res["F"]), ref)
    elif fn == "zeta.lerch_phi":
        z, s = _arg_c(a[0]), _arg_c(a[1])
        _close(fn, res["sv"], O.lerch_reference(z, s, a[2]), a[3])
    elif fn == "zeta.odd_power_sum":
        z, s = _arg_c(a[0]), _arg_c(a[1])
        _close(fn, res["sv"], O.odd_power_reference(z, s), a[3])
    elif fn == "characters.characters_mod":
        _check_character_list(a[0], [(tuple(e), o, p) for e, o, p in res["chars"]])
    elif fn == "characters.chi_eval":
        chi = _chi(a[0])
        ref = chi(a[1])
        if chi.order <= 2:
            if _cv(res["c"]) != complex(ref):
                raise AssertionError(f"{fn}: real character value not exact")
        else:
            _close(fn, res["c"], ref, _FLOAT_TOL)
    elif fn == "characters.character_from_label":
        chi = O.parse_label(a[0])
        if tuple(res["char"]) != chi.exponents or res["f"] != chi.modulus:
            raise AssertionError(f"{fn}: exponents differ")
    elif fn == "qsums.q_hardy_berndt_sum":
        v, h, k, q = a[0], a[1], a[2], a[3]
        if "$q1" in q:
            _close(fn, res["c"], complex(O.hardy_berndt_exact(v, h, k)), _OSC_TOL)
        else:
            _, ext, w = _osc_reference(v, h, k, _qf(q))
            _close(fn, res["c"], O.hb_scale(v) * ext,
                   w * _OSC_TOL * abs(complex(O.hb_scale(v))))
    elif fn == "qsums.classical_trig_series":
        v, h, k, tol = a
        _close(fn, res["c"], complex(O.hardy_berndt_exact(v, h, k)), tol)
    elif fn == "qsums.q_dedekind_sum":
        _close(fn, res["c"], complex(O.dedekind_exact(a[1] % a[2], a[2])), _OSC_TOL)
    elif fn in ("qsums.oscillatory_sum", "qsums.dedekind_oscillatory_sum"):
        shape, h, k, q = a[0], a[1], a[2], _qf(a[3])
        per, ext, w = _osc_reference(shape, h, k, q)
        for (eps, got), ref in zip(res["per_offset"], per):
            _close(f"{fn} offset {eps}", got, ref, _OSC_TOL)
        _close(fn, res["ysum"], ext, w * _OSC_TOL)
    elif fn == "qsums.eval_gen":
        kind, t, q, tol = a[0], _arg_c(a[1]), _qf(a[2]), a[3]
        chi = _chi(kw.get("chi"))
        _close(fn, res["sv"], _gen_reference(kind, t, q, chi), tol)
    elif fn == "core.qbracket":
        q = _frac(a[1]["$F"])
        _exact(fn, res["F"], sum((q ** i for i in range(a[0])), Fraction(0)))
    elif fn == "core.sawtooth":
        x = _frac(a[0]["$F"])
        ref = Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)
        _exact(fn, res["F"], ref)
    elif fn == "core.as_fraction":
        num, den = a[0].split("/")
        _exact(fn, res["F"], Fraction(int(num), int(den)))
    else:
        raise AssertionError(f"no check for {fn}")


def _gen_reference(kind: str, t: complex, q: Fraction, chi):
    """sum_{n>=1} sign^n chi(n) q^(-n) exp(-q^(-n)[n] t), summed directly."""
    with mp.workdps(O.DPS):
        qm = mp.mpf(q.numerator) / q.denominator
        tc = mpc(t)
        total = mpc(0)
        a = mp.mpf(0)
        n = 0
        while True:
            n += 1
            a += qm ** (-n)
            mag = qm ** (-n) * mp.exp(-a * tc.real)
            c = chi(n) if chi is not None else 1
            if kind.startswith("F") and n % 2 == 1:
                c = -c
            total += c * qm ** (-n) * mp.exp(-a * tc)
            if n > 3 and mag < mp.mpf(10) ** (-O.DPS):
                return total


def _check_character_list(f: int, chars) -> None:
    if len(chars) != O.euler_phi(f):
        raise AssertionError(f"characters mod {f}: count {len(chars)}")
    for idx, (exps, order, principal) in enumerate(chars):
        ref = O.Character(f, idx)
        if exps != ref.exponents or order != ref.order \
                or principal != all(e == 0 for e in ref.exponents):
            raise AssertionError(f"characters mod {f}: entry {idx} differs")


# what reading a result of the wrong shape raises
_SHAPE_ERRORS = (KeyError, IndexError, TypeError, ValueError)


def _checked(check, *args) -> Optional[Exception]:
    """Run one check: None when the output is right, the Miss or mismatch
    when it is wrong, an Unchecked when the reference failed."""
    try:
        check(*args)
    except AssertionError as exc:
        return exc
    except (O.OracleError, NoConvergence) as exc:
        return Unchecked(f"reference failed: {type(exc).__name__}: {exc}")
    except _SHAPE_ERRORS as exc:
        return AssertionError(f"result of the wrong shape: {type(exc).__name__}: {exc}")
    return None


def check_api(op: Dict, result: Dict) -> Optional[Exception]:
    """None when the result is right, else the problem (see ``_checked``)."""
    return _checked(_api_check, op["fn"], op["args"], op["kw"], result)


# ----------------------------------------------------------------------
# cli-oneshot
# ----------------------------------------------------------------------

def _cli_check(cmd: str, p: Dict, report: Dict) -> None:
    rows = report["results"]
    if report.get("pass") is not True:
        raise AssertionError("report does not pass")
    if cmd == "finite":
        ref = O.dedekind_exact(p["h"], p["k"]) if p["variant"] == "dedekind" \
            else O.hardy_berndt_exact(p["variant"], p["h"], p["k"])
        _exact("finite", rows[0]["value"], ref)
    elif cmd == "numbers":
        if "n_max" in p:
            ref = O.number_table_exact(p["kind"], p["n_max"])
            if [_frac(r["value"]) for r in rows] != ref:
                raise AssertionError("number table differs")
        else:
            genocchi = p["kind"] == "q-genocchi"
            ref = O.q_number_series(p["m"], _frac(p["q"]), genocchi)
            _exact_close(p["kind"], _frac(rows[0]["value"]), ref)
    elif cmd == "characters":
        if "n" in p:
            _api_check("characters.chi_eval", [f"{p['f']}:{p['index']}", p["n"]],
                       {}, {"c": _cv(rows[0]["value"])})
        else:
            chars = [(tuple(r["params"]["exponents"]), r["params"]["order"],
                      r["params"]["principal"]) for r in rows]
            _check_character_list(p["f"], chars)
            for idx, r in enumerate(rows):
                chi = O.Character(p["f"], idx)
                want = 1 if chi.order == 1 else chi(2)
                _close("character value at 2", r["value"], want, _FLOAT_TOL)
    elif cmd == "zeta":
        fn, tol = p["fn"], p["tol"]
        s = complex(*p["s"])
        if fn == "zeta":
            ref = O.zeta_reference("riemann", s)
        elif fn == "zeta-star":
            ref = O.zeta_reference("zeta_star", s)
        elif fn == "genocchi-zeta":
            ref = O.zeta_reference("genocchi", s)
        elif fn == "hurwitz":
            ref = O.zeta_reference("hurwitz", s, p["a"])
        elif fn == "lerch":
            ref = O.lerch_reference(p["z"], s, p["a"])
        elif fn == "odd-power":
            ref = O.odd_power_reference(p["z"], s)
        else:
            ref = O.zeta_reference("digamma", s.real)
        _close(f"zeta {fn}", rows[0]["value"], ref, tol)
    elif cmd == "qzeta":
        fn, q, s = p["fn"], _frac(p["q"]), complex(*p["s"])
        chi = O.parse_label(p["chi"]) if p.get("chi") else None
        if fn == "cck":
            ref = O.cck_reference(s, q)
        else:
            x = p.get("x")
            if fn == "im-hurwitz" and p["variant"] == "bracket":
                with mp.workdps(O.DPS):
                    qm = mp.mpf(q.numerator) / q.denominator
                    x = (1 - qm ** x) / (1 - qm)
            ref = O.q_series(s, q, alt=fn != "plain", chi=chi, x=x)
            scale = 1 + float(q) if p["scaled"] else 1
            ref *= scale
        _close(f"qzeta {fn}", rows[0]["value"], ref, p["tol"])
    elif cmd == "qsum":
        h, k = p["h"], p["k"]
        if p["q"] == "1":
            if p["kind"] == "hardy-berndt":
                ref = O.hardy_berndt_exact(p["variant"], h, k)
                _close("q-hardy-berndt", rows[0]["value"], complex(ref), _OSC_TOL)
                _exact("exact-finite-sum", rows[1]["value"], ref)
            else:
                ref = O.dedekind_exact(h, k)
                _close("q-dedekind", rows[0]["value"], complex(ref), _OSC_TOL)
                _exact("classical-dedekind-sum", rows[1]["value"], ref)
        else:
            shape = p["variant"] if p["kind"] == "hardy-berndt" else p["p"]
            _, ext, w = _osc_reference(shape, h, k, _frac(p["q"]))
            if p["kind"] == "hardy-berndt":
                scale = O.hb_scale(shape)
            else:
                with mp.workdps(O.DPS):
                    scale = mp.factorial(shape) / (2j * mp.pi) ** shape
            _close(f"qsum {p['kind']}", rows[0]["value"], scale * ext,
                   w * _OSC_TOL * abs(complex(scale)))
    else:
        raise AssertionError(f"no check for {cmd}")


def check_cli(op: Dict, stdout: str) -> Optional[Exception]:
    """None when the report is right, else the problem (see ``_checked``)."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return AssertionError("output is not a JSON report")
    return _checked(_cli_check, op["cmd"], op["params"], report)


def check_verify(stdout: str) -> Optional[Exception]:
    """None when the verification report parses and passes."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return AssertionError("output is not a JSON report")
    if report.get("pass") is not True:
        return AssertionError("report does not pass")
    return None

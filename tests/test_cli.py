import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import hbq
from hbq.cli import canonical_json, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hbq.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_finite_exact_output(capsys):
    code, out, _ = run(capsys, "finite", "--variant", "S", "--h", "1", "--k", "2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "finite", "--variant", "dedekind", "--h", "1",
                       "--k", "3")
    assert code == 0 and out.strip() == "1/18"


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "finite", "--variant", "nope", "--h", "1", "--k", "2")
    assert code == 2
    code, _, err = run(capsys, "finite", "--variant", "S", "--h", "2", "--k", "4")
    assert code == 2 and "coprime" in err


def test_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "qzeta", "--fn", "l", "--s", "2", "--q", "1/2",
                       "--chi", "5:9")
    assert code == 2 and "out of range" in err


def test_digamma_complex_s_exit_2(capsys):
    # digamma is real only: an imaginary part is refused, not dropped
    code, out, err = run(capsys, "zeta", "--fn", "digamma", "--s", "1,2")
    assert code == 2 and out == ""
    assert err == "error: digamma takes a real --s\n"
    code, out, _ = run(capsys, "zeta", "--fn", "digamma", "--s", "1,0",
                       "--format", "json")
    assert code == 0 and '"params": {"x": 1}' in out


def test_convergence_error_exit_2(capsys):
    # a literal damped sum past the work cap is an input error, not a failed
    # check (exit code 1); it names the first term count past the cap,
    # 3,730 + 1 slices of up to 17 bits per power of q
    code, out, err = run(capsys, "qsum", "--kind", "gen", "--variant", "S",
                         "--h", "1", "--k", "2", "--q", "99999/100000")
    assert code == 2 and out == ""
    assert err == ("error: literal damped series hit the term cap: 3731 terms "
                   "of up to 63427 bits pass the work cap n (n p b)^2 <= "
                   "1.5e+13\n")


def test_literal_offset_past_the_float_range_exit_2(capsys):
    # an offset so small that q^(-n)[n] leaves the float range before its
    # sum stops is refused as such, before any exact slice
    code, out, err = run(capsys, "qsum", "--kind", "gen", "--variant", "S",
                         "--h", "1", "--k", "2", "--q", "1/2",
                         "--eps", "1e-300,5e-324", "--order", "1")
    assert (code, out) == (2, "")
    assert err == "error: q^(-n)[n] overflows the float range\n"


def test_literal_sum_at_a_tol_far_below_its_sup(capsys):
    # at p = 169 the slices' sup (4 pi)^169 ~ 6e185 puts tol / (2 sup) below
    # the floats at tol = 1e-140: the sizing still stops where the majorant
    # underflows, as the offsets do, and the sum answers with the value of
    # tol = 1e-10; at tol = 1e-323, whose quarter is 0, no offset stops
    argv = ("qsum", "--kind", "dedekind", "--p", "169", "--h", "1", "--k", "3",
            "--q", "1/2", "--format", "json")
    results = []
    for tol in ("1e-140", "1e-10"):
        code, out, err = run(capsys, *argv, "--tol", tol)
        assert (code, err) == (0, "")
        results.append(json.loads(out)["results"])
    assert results[0] == results[1]
    code, out, err = run(capsys, *argv, "--tol", "1e-323")
    assert (code, out) == (2, "")
    assert err == ("error: literal damped series hit the term cap: 509 terms "
                   "of up to 172042 bits pass the work cap n (n p b)^2 <= "
                   "1.5e+13\n")


def test_product_identity_past_the_float_range_exit_2(capsys):
    # s near 1 needs more n-terms than q^(-n) [n] has float range for: 33,753
    # at q = 1/2 and 660 at q = 1/20; refused before any sum, no traceback.
    # 1,023 at q = 1/2 once ran with an inf row q^(-1023)[1023], whose term
    # the kernel added as 0, and failed the check (exit 1)
    for argv, need, limit in ((("--s", "1.001"), 33753, 1021),
                              (("--s", "1.01", "--q", "1/20"), 660, 236),
                              (("--s", "1.0284"), 1023, 1021)):
        code, out, err = run(capsys, "verify", "thm19", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"needs {need} n-terms" in err and f"past n = {limit}" in err


def test_product_identity_right_side_past_the_float_range_exit_2(capsys):
    # i^(-s) ((-1)^(-s) - 1) grows as e^(3 pi Im(s) / 2): past Im s = 150
    # the right side was inf or nan, and the check failed with a nan
    # difference (exit 1); now it is refused before any damped sum
    for s in ("3,151", "3,200", "2.5,160"):
        code, out, err = run(capsys, "verify", "thm21", "--s", s)
        assert (code, out) == (2, "")
        assert err == "error: i^(-s) ((-1)^(-s) - 1) overflows the float range\n"
    # Im s = 150 and any negative Im s still answer, with finite sides
    for s in ("3,150", "3,-200"):
        code, out, err = run(capsys, "verify", "thm21", "--s", s,
                             "--format", "json")
        assert code in (0, 1) and err == ""
        (result,) = json.loads(out)["results"]
        assert isinstance(result["abs_diff"], float) and math.isfinite(result["abs_diff"])


def test_qsum_dedekind_nonpositive_tol_exit_2(capsys):
    code, out, err = run(capsys, "qsum", "--kind", "dedekind", "--p", "1",
                         "--h", "1", "--k", "3", "--q", "2/5", "--tol", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "tol must be positive" in err


def test_qsum_term_cap_reaches_every_kind(capsys):
    # the cap that stops --kind gen stops the scaled sums built on it too
    for kind in (("--kind", "gen", "--variant", "S", "--h", "1", "--k", "2"),
                 ("--kind", "hardy-berndt", "--variant", "S", "--h", "1",
                  "--k", "2"),
                 ("--kind", "dedekind", "--p", "1", "--h", "1", "--k", "3")):
        code, out, err = run(capsys, "qsum", *kind, "--q", "99999/100000")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "term cap" in err


def test_qsum_schedule_and_order_checked_exit_2(capsys):
    # once: an infinite offset gave value nan, "diverged": false and exit 0;
    # a negative extrapolation order ran; tiny offsets (q^(-n)[n] past the
    # float range, or e^(-eps) = 1 at q = 1) and p = 171 or 701 crashed with
    # a traceback (exit 1), and p = 301 at q = 1/2 spun; --order without
    # --eps was ignored, with exit 0
    base = ("qsum", "--kind", "gen", "--h", "1", "--k", "2", "--q", "1/2")
    for extra, msg in ((("--eps", "inf,0.1"), "offsets must be finite"),
                       (("--eps", "0.2,0.1", "--order", "-3"),
                        "order must be >= 0"),
                       (("--order", "-3"), "--order needs --eps"),
                       (("--order", "2"), "--order needs --eps"),
                       (("--eps", "1e-300,5e-324", "--order", "1"),
                        "q^(-n)[n] overflows the float range")):
        code, out, err = run(capsys, *base, *extra)
        assert code == 2 and out == "" and err == f"error: {msg}\n"
    code, out, err = run(capsys, "qsum", "--kind", "gen", "--h", "1", "--k", "2",
                         "--q", "1", "--eps", "0.1,1e-20")  # e^(-eps) rounds to 1
    assert code == 2 and out == ""
    assert err == "error: offset 1e-20 is too small for the q = 1 period of 4\n"
    for p, q in (("171", "1"), ("301", "1/2"), ("701", "1/2")):
        code, out, err = run(capsys, "qsum", "--kind", "dedekind", "--p", p,
                             "--h", "1", "--k", "7", "--q", q)
        assert code == 2 and out == ""
        assert err == "error: p must be an odd integer from 1 to 169\n"


def test_variant_index_out_of_range_exit_2(capsys):
    code, out, err = run(capsys, "qsum", "--kind", "gen", "--variant", "7",
                         "--h", "1", "--k", "2", "--q", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "unknown variant 7" in err


def test_qzeta_hurwitz_without_x_exit_2(capsys):
    code, out, err = run(capsys, "qzeta", "--fn", "im-hurwitz", "--s", "2",
                         "--q", "1/2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--x" in err


def test_zeta_nonpositive_tol_exit_2(capsys):
    # tol 0 would certify an exact value with tail_bound 0
    for fn, shifts in (("hurwitz", ("--a", "0.5")),
                       ("lerch", ("--a", "0.5", "--z", "0.5")),
                       ("odd-power", ("--z", "0.5"))):
        code, out, err = run(capsys, "zeta", "--fn", fn, "--s", "2", *shifts,
                             "--tol", "0")
        assert code == 2 and out == ""
        assert err == "error: tol must be positive\n"


@pytest.mark.parametrize("argv", [
    ("qzeta", "--fn", "cck", "--s", "0.5,1", "--q", "1/2"),
    ("zeta", "--fn", "lerch", "--s", "2", "--z", "0.5"),
], ids=["cck", "lerch"])
def test_nan_tol_exit_2(argv):
    # `tail <= nan` never holds, so a nan tol must be turned away up front;
    # a fresh process with a timeout keeps a regression from hanging the suite
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "hbq.cli", *argv,
                           "--tol", "nan"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: tol must be positive\n"


def test_zeta_infinite_shift_exit_2(capsys):
    # a = inf used to pass the positivity check and die in int(math.ceil(...))
    code, out, err = run(capsys, "zeta", "--fn", "hurwitz", "--s", "2",
                         "--a", "inf")
    assert code == 2 and out == ""
    assert err == "error: a must be finite\n"


def test_zeta_nan_s_exit_2(capsys):
    # the report's s formatting used to fail first, with a message about ints
    for s in ("nan", "2,inf"):
        code, out, err = run(capsys, "zeta", "--fn", "zeta", "--s", s)
        assert code == 2 and out == ""
        assert err == "error: s must be finite\n"


@pytest.mark.parametrize("fn", ["lerch", "odd-power"])
def test_nan_z_exit_2(fn):
    # a nan |z| used to fall into the |z| = 1 branch and run the whole
    # 50M-term loop; a fresh process with a timeout keeps that from hanging
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    shift = ("--a", "1") if fn == "lerch" else ()
    proc = subprocess.run([sys.executable, "-m", "hbq.cli", "zeta", "--fn", fn,
                           "--s", "2", "--z", "nan", *shift],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: z must be finite\n"


@pytest.mark.parametrize("argv", [
    ("qzeta", "--fn", "im", "--s", "2"),
    ("qsum", "--kind", "gen", "--h", "1", "--k", "2"),
    ("numbers", "--kind", "q-euler", "--m", "3"),
    ("verify", "thm5"),
], ids=["qzeta", "qsum", "numbers", "verify"])
def test_zero_denominator_q_exit_2(capsys, argv):
    # used to die with a ZeroDivisionError traceback and exit 1
    code, out, err = run(capsys, *argv, "--q", "1/0")
    assert code == 2 and out == ""
    assert err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("fn", ["zeta", "genocchi-zeta", "zeta-star"])
def test_accelerated_zeta_large_imaginary_s_exit_2(capsys, fn):
    # the Gamma ratio of the error bound overflowed into an OverflowError
    code, out, err = run(capsys, "zeta", "--fn", fn, "--s", "2,500")
    assert code == 2 and out == ""
    assert err.startswith("error: s = (2+500j) needs ")
    assert err.endswith(": |Im s| or 1/tol is too large\n")


@pytest.mark.parametrize("s", ["2,1e7", "1e308,1e308"])
def test_hurwitz_large_imaginary_s_exit_2(s):
    # 14 + 1.5 |Im s| terms used to take 8 s at 1e7 and forever at 1e308;
    # a fresh process with a timeout keeps a regression from hanging
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "hbq.cli", "zeta", "--fn",
                           "hurwitz", "--s", s, "--a", "0.5"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "above the Hurwitz route's limit of 1000" in proc.stderr


def _fresh(*argv):
    # a fresh process with a timeout keeps a hang or a spin from stalling
    # the suite
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "hbq.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=10)


@pytest.mark.parametrize("argv, message", [
    (("qzeta", "--fn", "im", "--s", "2,1e300", "--q", "1/2"),
     "above the q-series route's limit of 1000"),
    (("qzeta", "--fn", "cck", "--s", "2,1e300", "--q", "1/2"),
     "above the cck route's limit of 10000"),
    (("zeta", "--fn", "lerch", "--s", "2,1e300", "--z", "0.5"),
     "above the Lerch route's limit of 10000"),
    (("zeta", "--fn", "hurwitz", "--s", "1000", "--a", "0.1"),
     "overflows the float range"),
    (("zeta", "--fn", "hurwitz", "--s", "1e308", "--a", "0.5"),
     "overflows the float range"),
    (("zeta", "--fn", "lerch", "--s", "0.5", "--z", "1", "--a", "1"),
     "|z| = 1 needs Re(s) > 1"),
    (("zeta", "--fn", "odd-power", "--s", "0.5", "--z", "1", "--route",
      "decomposition"), "|z| = 1 needs Re(s) > 1"),
    (("zeta", "--fn", "lerch", "--s", "2", "--z", "-1", "--a", "1"),
     "needs more than 50000000 terms"),
    (("zeta", "--fn", "lerch", "--s", "2", "--z", "0.5", "--a", "1e-300"),
     "a^(-s) overflows the float range"),
    (("zeta", "--fn", "lerch", "--s", "2", "--z", "0", "--a", "1e-300"),
     "a^(-s) overflows the float range"),
    (("zeta", "--fn", "lerch", "--s", "2,3", "--z", "0.5", "--a", "1e-200"),
     "a^(-s) overflows the float range"),
    # a negative --s as its own token reaches the route, not argparse
    (("zeta", "--fn", "zeta", "--s", "-1.5,2"),
     "alternating route needs Re(s) > 0"),
], ids=["qzeta-im-s", "cck-im-s", "lerch-im-s", "hurwitz-overflow",
        "hurwitz-overflow-1e308", "lerch-z1-divergent", "odd-power-z1-divergent",
        "lerch-unit-circle-cap", "lerch-tiny-shift", "lerch-tiny-shift-z0",
        "lerch-tiny-shift-complex-s", "zeta-negative-s-token"])
def test_out_of_domain_exit_2(argv, message):
    # each used to exit 0 with a value that has no correct digit, die with a
    # traceback, or spin for most of a minute
    proc = _fresh(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and message in proc.stderr


def test_lerch_near_unit_circle_returns():
    # the r < 0.95 gate kept 0.95 <= |z| < 1 summing to the 5e7-term cap
    import mpmath
    proc = _fresh("zeta", "--fn", "lerch", "--s", "2", "--z", "0.96", "--a",
                  "0.5", "--format", "json")
    assert proc.returncode == 0
    value = json.loads(proc.stdout)["results"][0]["value"]
    ref = mpmath.lerchphi(0.96, 2, 0.5)
    assert abs(complex(value["re"], value["im"]) - complex(ref)) <= 1e-12


def test_verify_with_no_checks_exit_2(capsys):
    # an empty sweep would report PASS without checking anything
    for k_max in ("0", "-1"):
        code, out, err = run(capsys, "verify", "thm4", "--k-max", k_max,
                             "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "k_max must be >= 1" in err


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "thm5", "--s", "2", "--q", "1/2",
                       "--chi", "3:1", "--tol", "1e-10")
    assert code == 0 and "PASS" in out
    # an unreachable tolerance flips the exit code, not the report shape
    code, out, _ = run(capsys, "verify", "thm5", "--s", "2", "--q", "1/2",
                       "--chi", "3:1", "--tol", "1e-18")
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("argv, unread", [
    (("all", "--tol", "1e-30"), "--tol"),
    (("thm19", "--chi", "5:2"), "--chi"),
    (("mellin-defs", "--chi", "5:1", "--x", "0.25"), "--x, --chi"),
    (("thm5", "--x", "0.3"), "--x"),
    (("thm4", "--s", "3"), "--s"),
], ids=["all-tol", "thm19-chi", "mellin-defs-chi-x", "thm5-x", "thm4-s"])
def test_verify_refuses_an_option_it_does_not_read(capsys, argv, unread):
    # each used to exit 0 or 1 with the option echoed in the report's
    # command but no check reading it
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: verify {argv[0]} does not read {unread}\n"


_OPTION_TEXT = {"--s": "3", "--q": "1/3", "--x": "0.3", "--chi": "5:1",
                "--tol": "1e-6", "--k-max": "3"}


def test_verify_passes_each_option_its_target_reads(capsys, monkeypatch):
    # every (target, option) pair: the 31 that a check reads reach its
    # acceptance function, which takes them; the other 29 exit 2
    import inspect

    from hbq import acceptance, cli

    rows = cli._TABLE["verify"][2]
    calls = []
    for fn in {row.fn.split(".")[1] for row in rows.values()}:
        def record(*args, _fn=fn, _sig=inspect.signature(getattr(acceptance, fn)),
                   **kwargs):
            _sig.bind(*args, **kwargs)
            calls.append((_fn, args, kwargs))
            return []
        monkeypatch.setattr(acceptance, fn, record)
    read = 0
    for target, row in rows.items():
        fn, fixed, reads = row.fn.split(".")[1], row.fixed, row.reads
        for option, text in _OPTION_TEXT.items():
            calls.clear()
            code, out, err = run(capsys, "verify", target, option, text)
            name = option[2:].replace("-", "_")
            assert code == (0 if name in reads else 2), (target, option)
            if name in reads:
                read += 1
                assert [(f, a, list(kw)) for f, a, kw in calls] == \
                    [(fn, () if fixed is None else (fixed,), [name])]
            else:
                assert not calls and out == ""
                assert err == f"error: verify {target} does not read {option}\n"
    assert read == 31


class _Reached(ValueError):
    pass


# the API each handler calls, by home module; a recorder in its place
# records the call and stops the command there, so no value is computed
_API = {"numbers": ("number_table", "q_euler_number", "q_genocchi_number"),
        "characters": ("characters_mod", "chi_eval"),
        "zeta": ("riemann_zeta", "zeta_star", "genocchi_zeta", "hurwitz_zeta",
                 "lerch_phi", "odd_power_sum", "digamma"),
        "qsums": ("oscillatory_sum", "q_hardy_berndt_sum", "q_dedekind_sum"),
        "qzeta": ("q_alt_zeta", "q_alt_zeta_hurwitz", "q_alt_l",
                  "q_plain_zeta", "cck_zeta"),
        "acceptance": ("trig_series_checks", "decomposition_checks",
                       "mellin_checks", "product_check", "run_all")}

# each option: its argv in a run that leaves it at its default (or, as a
# selection may need it, sets another value), then in a run that sets it;
# an option that is read makes the two runs call the API differently
_SET = {"n_max": ((), ("--n-max", "3")), "m": ((), ("--m", "3")),
        "q": (("--q", "1/2"), ("--q", "1/3")), "tol": ((), ("--tol", "1e-6")),
        "index": (("--index", "1"), ("--index", "2")),
        "a": ((), ("--a", "0.3")), "z": ((), ("--z", "0.3")),
        "b": ((), ("--b", "3")), "route": ((), ("--route", "decomposition")),
        "x": (("--x", "0.25"), ("--x", "0.3")),
        "chi": (("--chi", "5:1"), ("--chi", "5:2")),
        "variant": ((), ("--variant", "bracket")),
        "genocchi_scale": ((), ("--genocchi-scale",)),
        "p": ((), ("--p", "3")), "eps": ((), ("--eps", "0.2,0.1")),
        "order": (("--eps", "0.2,0.1"), ("--eps", "0.2,0.1", "--order", "1")),
        "no_parity_check": ((), ("--no-parity-check",)),
        "s": ((), ("--s", "3")), "k_max": ((), ("--k-max", "3"))}
_SET_IN = {("qsum", "variant"): ((), ("--variant", "s1"))}
_REQUIRED = {"zeta": ("--s", "2"), "qzeta": ("--s", "2", "--q", "1/2"),
             "qsum": ("--h", "1", "--k", "3", "--q", "1/2")}
# (command, selection, option) pairs the table lets through
_PAIRS_READ = {"numbers": 8, "characters": 1, "zeta": 14, "qzeta": 13,
               "qsum": 15, "verify": 31}


def _base(cmd, selection):
    if cmd == "verify":
        return [cmd, selection]
    if cmd == "characters":
        return [cmd, "--f", "5"] + (["--n", "3"] if selection == "--n" else [])
    return [cmd, *selection.split(), *_REQUIRED.get(cmd, ())]


@pytest.mark.parametrize("cmd", _PAIRS_READ)
def test_every_option_is_read_or_refused_by_the_table(capsys, monkeypatch, cmd):
    # every (command, selection, option) pair: a read option reaches the
    # API call, an unread one exits 2 naming it, and a needed one left out
    # exits 2; once, each of these exited 0 with the option ignored
    import importlib

    from hbq import cli

    calls = []
    for module, names in _API.items():
        mod = importlib.import_module(f"hbq.{module}")
        for name in names:
            def record(*args, _name=name, _real=getattr(mod, name), **kwargs):
                calls.append((_name, args, kwargs))
                if _name == "characters_mod":  # labels are parsed through it
                    return _real(*args, **kwargs)
                raise _Reached("reached")
            monkeypatch.setattr(mod, name, record)

    def reached(argv):
        calls.clear()
        assert run(capsys, *argv) == (2, "", "error: reached\n"), argv
        return calls[:]

    def refused(argv, message):
        calls.clear()
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert not calls

    sub = next(a for a in cli._build_parser()._actions if a.choices)
    actions = sub.choices[cmd]._actions
    selector = {"verify": "what", "characters": "n"}.get(
        cmd, "fn" if cmd in ("zeta", "qzeta") else "kind")
    options = [a.dest for a in actions if a.option_strings and not a.required
               and a.dest not in ("help", "format", "out", selector)]
    # the table has one selection per choice of the selector
    choices = next(a.choices for a in actions if a.dest == selector)
    rows = cli._TABLE[cmd][2]
    assert list(rows) == (["without --n", "--n"] if cmd == "characters" else
                          list(choices))
    read = 0
    for key, row in rows.items():
        selection, reads, needs = cli._label(cmd, key), row.reads, row.needs
        for option in options:
            argv = _base(cmd, selection) + [
                text for need in needs if need != option
                for text in _SET[need][0]]
            unset, set_ = map(list, _SET_IN.get((cmd, option), _SET[option]))
            flag = "--" + option.replace("_", "-")
            if option in reads:
                read += 1
                assert reached(argv + unset) != reached(argv + set_), \
                    (selection, option)
            else:
                refused(argv + set_, f"{cmd} {selection} does not read {flag}")
            if option in needs:
                refused(argv, f"{cmd} {selection} needs {flag}")
    assert read == _PAIRS_READ[cmd]


def test_abbreviated_options_exit_2(capsys):
    # each used to run as the option it abbreviates, echoing the abbreviation
    for argv, unknown in ((("verify", "thm4", "--k-m", "2"), "--k-m 2"),
                          (("qsum", "--kind", "hardy-berndt", "--h", "1",
                            "--k", "2", "--q", "1", "--no-par"), "--no-par")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith(f"error: unrecognized arguments: {unknown}\n")


@pytest.mark.parametrize("argv", [
    ("zeta", "--fn", "lerch", "--s", "2", "--z", "-1e-5"),
    ("zeta", "--fn", "hurwitz", "--s", "-1.5,2", "--a", "0.5"),
], ids=["lerch-z", "hurwitz-s"])
def test_negative_value_as_a_separate_token(capsys, argv):
    # argparse took `-1e-5` and `-1.5,2` for options and exited 2 with
    # `expected one argument`; they now compute what `--opt=value` does,
    # and the report echoes argv as it was typed
    argv = list(argv) + ["--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["command"] == argv
    i = next(i for i, arg in enumerate(argv) if arg.startswith("-") and
             arg[1].isdigit())
    joined = argv[:i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1:]
    code, joined_out, _ = run(capsys, *joined)
    assert code == 0
    assert json.loads(joined_out)["results"] == json.loads(out)["results"]


def _readme_table():
    """{(command, selection): (options read, options needed)} from the
    README's table of the options each command reads."""
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as f:
        text = f.read()
    head = "| command and selection | options it reads (needed ones in bold) |"
    lines = text[text.index(head):].splitlines()[2:]
    table = {}
    for line in lines[:next(i for i, l in enumerate(lines) if not l)]:
        first, options = line.strip("|").split("|")
        cmd, label = first.split("`")[1].split(" ", 1)
        prefix = label.rsplit(" ", 1)[0] + " " if " " in label else ""
        labels = [label] + [prefix + more for more in first.split("`")[3::2]]
        cells = [o.strip() for o in options.split(",") if o.strip() != "none"]
        reads = tuple(c.strip("*`")[2:].replace("-", "_") for c in cells)
        needs = tuple(c.strip("*`")[2:].replace("-", "_") for c in cells
                      if c.startswith("**"))
        table.update({(cmd, lab): (reads, needs) for lab in labels})
    return table


def test_readme_lists_what_each_selection_reads():
    # the README's table has one row per selection of the CLI's table, with
    # the same options read and needed, in the same order
    from hbq import cli

    assert _readme_table() == {
        (cmd, cli._label(cmd, key)): (row.reads, row.needs)
        for cmd, (_, _, rows) in cli._TABLE.items() if cmd != "finite"
        for key, row in rows.items()}


def test_finite_rows_are_the_hardy_berndt_variants():
    # the table spells the six names out, so `hbq.cli` need not import `sums`
    from hbq import cli
    from hbq.sums import HARDY_VARIANTS

    assert tuple(cli._TABLE["finite"][2]) == HARDY_VARIANTS + ("dedekind",)


def test_help_names_the_selections_that_read_each_option(capsys):
    assert main(["qzeta", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--x X read by --fn im-hurwitz (needed), --fn l " in out
    assert ("--chi CHI character label 'f:index'; read by --fn l (needed), "
            "--fn plain ") in out


def test_thm4_report_does_not_depend_on_the_psi_cache(tmp_path):
    # the psi rows are cached; a cold, a warm and a cleared cache give the
    # same bytes
    from hbq import qsums

    reports = []
    for clear in (True, False, True):
        if clear:
            qsums._psi_row.cache_clear()
        p = tmp_path / f"thm4-{len(reports)}.json"
        assert main(["verify", "thm4", "--k-max", "12", "--format", "json",
                     "--out", str(p)]) == 0
        reports.append(p.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_mellin_defs_near_re_s_1_exit_2(capsys):
    # the generating series at the last quadrature node would need q^(-n)
    # past the float range; this used to end in an OverflowError traceback
    code, out, err = run(capsys, "verify", "mellin-defs", "--s", "1.01")
    assert code == 2 and out == ""
    assert err.startswith("error: generating series at t = e^-")


def test_json_reports_are_byte_identical(tmp_path, capsys):
    args = ("verify", "mellin-defs", "--s", "2", "--q", "1/2",
            "--format", "json")
    paths = []
    for i in (0, 1):
        p = tmp_path / f"report{i}.json"
        code = main(list(args) + ["--out", str(p)])
        assert code == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]
    parsed = json.loads(paths[0])
    assert parsed["pass"] is True
    for row in parsed["results"]:
        assert row["kind"] == "check"
        assert "abs_diff" in row and "tolerance" in row


def test_out_path_is_not_echoed(tmp_path):
    # both spellings of --out must give the same bytes, wherever they write
    args = ["finite", "--variant", "S", "--h", "1", "--k", "2",
            "--format", "json"]
    spaced = tmp_path / "spaced.json"
    joined = tmp_path / "joined.json"
    assert main(args + ["--out", str(spaced)]) == 0
    assert main(args + [f"--out={joined}"]) == 0
    assert joined.read_bytes() == spaced.read_bytes()
    assert json.loads(spaced.read_bytes())["command"] == args


_SERIES = ("tail_bound", "terms_used")
_HB = ("qsum", "--kind", "hardy-berndt", "--h", "1", "--k", "2", "--q", "1")
_DEDEKIND = ("qsum", "--kind", "dedekind", "--h", "1", "--k", "3", "--q", "1")


# one command per value row of the CLI: (argv, row name, route, the row's
# certificate keys).  Exact rows need none; the scaled q-hardy-berndt and
# q-dedekind rows drop their sum's residual and carry none yet (ROADMAP
# item 6)
_VALUE_ROWS = [
    (("finite", "--variant", "dedekind", "--h", "1", "--k", "3"),
     "dedekind-sum", "exact", ()),
    (("numbers", "--kind", "genocchi", "--n-max", "4"), "genocchi-number",
     "exact-recurrence", ()),
    (("numbers", "--kind", "q-euler", "--m", "3", "--q", "1/2"),
     "q-euler-number", "exact-closed-form", ()),
    (("numbers", "--kind", "q-genocchi", "--m", "3", "--q", "1/2"),
     "q-genocchi-number", "exact-closed-form", ()),
    (("characters", "--f", "5"), "character", "enumeration", ()),
    (("characters", "--f", "4", "--index", "1", "--n", "3"),
     "character-value", "root-of-unity", ()),
    (("zeta", "--fn", "zeta", "--s", "2"), "riemann-zeta", "accelerated-eta",
     _SERIES),
    (("zeta", "--fn", "zeta-star", "--s", "2"), "zeta-star", "identity",
     _SERIES),
    (("zeta", "--fn", "genocchi-zeta", "--s", "2"), "genocchi-zeta",
     "accelerated-eta", _SERIES),
    (("zeta", "--fn", "hurwitz", "--s", "2", "--a", "0.5"), "hurwitz-zeta",
     "euler-maclaurin", _SERIES),
    (("zeta", "--fn", "lerch", "--s", "2", "--z", "0.5"), "lerch-phi",
     "direct-series", _SERIES),
    (("zeta", "--fn", "odd-power", "--s", "2", "--z", "0.5"), "odd-power-sum",
     "direct", _SERIES),
    (("zeta", "--fn", "digamma", "--s", "0.5"), "digamma", "asymptotic-series",
     ("tail_bound",)),
    (("qzeta", "--fn", "im", "--s", "2", "--q", "1/2"), "q-alt-zeta",
     "alternating-series", _SERIES),
    (("qzeta", "--fn", "im-hurwitz", "--s", "2", "--q", "1/2", "--x", "0.5"),
     "q-alt-zeta-hurwitz", "alternating-series", _SERIES),
    (("qzeta", "--fn", "l", "--s", "2", "--q", "1/2", "--chi", "5:1"),
     "q-alt-l", "alternating-series", _SERIES),
    (("qzeta", "--fn", "plain", "--s", "2", "--q", "1/2"), "q-plain-zeta",
     "plain-series", _SERIES),
    (("qzeta", "--fn", "cck", "--s", "2", "--q", "1/2"), "cck-zeta",
     "alternating-series", _SERIES),
    (("qsum", "--kind", "gen", "--variant", "S", "--h", "1", "--k", "2",
      "--q", "1"), "oscillatory-sum", "limit1-abel-period",
     ("diverged", "per_offset", "residual")),
    (_HB, "q-hardy-berndt", "scaled-oscillatory-sum", ()),
    (_HB, "exact-finite-sum", "exact", ()),
    (_DEDEKIND, "q-dedekind", "scaled-oscillatory-sum", ()),
    (_DEDEKIND, "classical-dedekind-sum", "exact", ()),
]


@pytest.mark.parametrize("argv, name, route, certificate", _VALUE_ROWS,
                         ids=[row[1] for row in _VALUE_ROWS])
def test_every_value_carries_certificate(capsys, argv, name, route,
                                         certificate):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    row = next(r for r in json.loads(out)["results"] if r["name"] == name)
    assert row["route"] == route
    assert sorted(set(row) - {"kind", "name", "params", "route", "value",
                              "exact"}) == list(certificate)


def test_cck_route_is_named_as_its_siblings(capsys):
    # cck runs the alternating-series engine of --fn im, im-hurwitz and l;
    # here it takes 19 CRVZ terms, not a direct sum
    code, out, _ = run(capsys, "qzeta", "--fn", "cck", "--s", "2", "--q",
                       "99999/100000", "--format", "json")
    row = json.loads(out)["results"][0]
    assert code == 0
    assert (row["route"], row["terms_used"]) == ("alternating-series", 19)


def test_qsum_dedekind_reports_classical_alongside(capsys):
    code, out, _ = run(capsys, "qsum", "--kind", "dedekind", "--p", "1",
                       "--h", "1", "--k", "3", "--q", "1", "--format", "json")
    assert code == 0
    names = [r["name"] for r in json.loads(out)["results"]]
    assert names == ["q-dedekind", "classical-dedekind-sum"]


def test_qsum_dedekind_reports_exact_order_p_alongside(capsys):
    # at q = 1 every odd order gets its exact s_p; p = 1 keeps params h, k
    for p, exact in (("1", "1/14"), ("3", "-6/343"), ("5", "1130/117649")):
        code, out, _ = run(capsys, "qsum", "--kind", "dedekind", "--p", p,
                           "--h", "2", "--k", "7", "--q", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]
        assert [r["name"] for r in rows] == ["q-dedekind", "classical-dedekind-sum"]
        assert rows[1]["value"] == exact and rows[1]["exact"]
        assert rows[1]["params"] == ({"h": 2, "k": 7} if p == "1"
                                     else {"h": 2, "k": 7, "p": int(p)})
        assert abs(rows[0]["value"]["re"] - float(Fraction(exact))) < 1e-15


def test_numbers_and_characters_listing(capsys):
    code, out, _ = run(capsys, "numbers", "--kind", "genocchi", "--n-max", "6",
                       "--format", "json")
    assert code == 0
    vals = [r["value"] for r in json.loads(out)["results"]]
    assert vals == ["0", "1", "-1", "0", "1", "0", "-3"]
    code, out, _ = run(capsys, "characters", "--f", "5", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["results"]) == 4
    code, out, _ = run(capsys, "characters", "--f", "4", "--index", "1",
                       "--n", "3", "--format", "json")
    val = json.loads(out)["results"][0]["value"]
    assert val == {"im": 0.0, "re": -1.0}


def test_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "thm19", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,name,params,value,certificate,pass"
    assert lines[-1].endswith("True")


def test_verify_all_csv(capsys):
    code, out, _ = run(capsys, "verify", "all", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "name", "params", "value", "certificate",
                       "pass"]
    assert all(len(row) == 6 for row in rows)
    criteria = [row for row in rows if row[0] == "criterion"]
    assert [row[2] for row in criteria] == \
        [f"number={n}" for n in range(1, 11)]
    assert all(row[1] and row[4] and row[5] == "True" for row in criteria)
    assert rows[-1] == ["overall", "", "", "", "", "True"]


def test_verify_thm4_sweep(capsys):
    code, out, _ = run(capsys, "verify", "thm4", "--k-max", "4",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]
    assert all(r["pass"] for r in rows) and len(rows) > 10


def test_verify_thm6_single_point(capsys):
    code, out, _ = run(capsys, "verify", "thm6", "--s", "2", "--q", "1/2",
                       "--chi", "3:1", "--x", "0.25", "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 1 and rows[0]["pass"]


def test_qsum_custom_schedule(capsys):
    code, out, _ = run(capsys, "qsum", "--kind", "gen", "--variant", "S",
                       "--h", "1", "--k", "2", "--q", "2/5",
                       "--eps", "0.4,0.2,0.1", "--order", "1",
                       "--format", "json")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert len(row["per_offset"]) == 3


def test_canonical_json_floats():
    assert canonical_json(0.1) == "0.10000000000000001"
    assert canonical_json({"b": 1, "a": complex(1, -2)}) == \
        '{"a": {"im": -2, "re": 1}, "b": 1}'


def test_canonical_json_every_type():
    import enum
    from fractions import Fraction

    class Level(enum.IntEnum):
        LOW = 3

    class Ratio(float):
        pass

    obj = {2: [None, True, False, -7, Level.LOW, Ratio(0.5), float("nan"),
               -math.inf, (), {}, (Fraction(-1, 3), 'a "q" \\ b')],
           "1": {"z": [[]], "y": complex(0.0, -0.0)}}
    assert canonical_json(obj) == (
        '{"1": {"y": {"im": -0, "re": 0}, "z": [[]]}, '
        '"2": [null, true, false, -7, 3, 0.5, "nan", "-inf", [], {}, '
        '["-1/3", "a \\"q\\" \\\\ b"]]}')
    with pytest.raises(TypeError, match="cannot serialize set"):
        canonical_json({"a": {1}})


def test_mellin_defs_large_s(capsys):
    # at Re s = 60 and 120 the shifted transform's x^(-s) = 2^(Re s) puts
    # its rounding of exp(-s v), an ulp of |log Gamma(s)| + |s| log T of the
    # value (2.7e-13 at s = 120), above a quadrature tol of 1e-13 |rhs|;
    # the round trip floors that tol at the rounding term, and answers
    for argv, rows in ((("--s", "60"), 9), (("--s", "120", "--q", "1/2"), 3)):
        code, out, err = run(capsys, "verify", "mellin-defs", *argv)
        assert code in (0, 1) and err == ""
        assert out.count("[PASS]") + out.count("[FAIL]") == rows
    # at Re s = 20 (x^(-s) = 2^20) the compare relative to max(1, |rhs|)
    # answers; an absolute 1e-8 refused it for rounding of the mass.  At
    # Re s = 300 and 400 the shifted row's exp(-s v - log Gamma(s)) used to
    # overflow (an OverflowError, exit 1) before e^(-t x) damped it
    for s in ("10", "20", "300", "400"):
        code, out, _ = run(capsys, "verify", "mellin-defs", "--s", s)
        assert code == 0 and out.count("[PASS]") == 9
    # past that, the node tolerance leaves the float range: refused
    code, out, err = run(capsys, "verify", "mellin-defs", "--s", "1000",
                         "--q", "1/2")
    assert code == 2 and out == ""
    assert err == ("error: node tolerance e^-1024 below the float range; "
                   "Re(s) is too large\n")


def test_digamma_unreachable_tol_exit_2(capsys):
    # nine asymptotic terms stop at the omitted B_20 term, 3.1e-21 at
    # x = 0.5 + 12; 1e-30 used to be reported as the tail bound
    code, out, err = run(capsys, "zeta", "--fn", "digamma", "--s", "0.5",
                         "--tol", "1e-30")
    assert code == 2 and out == ""
    assert err.startswith("error: digamma's asymptotic series stops at")
    code, out, _ = run(capsys, "zeta", "--fn", "digamma", "--s", "0.5",
                       "--tol", "1e-18")
    assert code == 0 and "tail_bound=1.0000000000000001e-18" in out


def test_parity_error_names_the_cli_switch(capsys):
    argv = ("qsum", "--kind", "hardy-berndt", "--variant", "s1", "--h", "1",
            "--k", "2", "--q", "1")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "Pass --no-parity-check to proceed anyway." in err
    assert "enforce_parity" not in err
    code, _, _ = run(capsys, *argv, "--no-parity-check")
    assert code == 0


def test_verify_all_text(capsys):
    code, out, _ = run(capsys, "verify", "all", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    heads = [line for line in lines if line.startswith("[")]
    assert [h.split(":")[0] for h in heads] == \
        [f"[PASS] criterion {n}" for n in range(1, 11)]
    assert heads[2] == "[PASS] criterion 3: Mellin round-trips (27 checks, 1e-8)"
    # each criterion's detail lines follow it, indented by four spaces
    details = lines[lines.index(heads[2]) + 1]
    assert details.startswith("    27 checks, worst diff ")
    assert all(line.startswith(("[PASS] ", "    ")) for line in lines[:-1])
    assert lines[-1] == "overall: PASS"


def test_value_rows_in_text_and_csv(capsys):
    argv = ("zeta", "--fn", "hurwitz", "--s", "2", "--a", "1.5")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "hurwitz-zeta a=1.5 s=2+0j = 0.93480220054467922+0j  [euler-maclaurin;"
        " tail_bound=6.2666637337522848e-26 terms_used=25]",
        "overall: PASS"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        ["kind", "name", "params", "value", "certificate", "pass"],
        ["value", "hurwitz-zeta", "a=1.5;s=2+0j", "0.93480220054467922+0j",
         "tail_bound=6.2666637337522848e-26;terms_used=25", ""],
        ["overall", "", "", "", "", "True"]]
    # a route with no certificate is printed alone, once as `[exact; ]`
    code, out, _ = run(capsys, *_HB)
    assert code == 0
    assert out.splitlines() == [
        "q-hardy-berndt h=1 k=2 q=1 variant=S = 1+0j  [scaled-oscillatory-sum]",
        "exact-finite-sum h=1 k=2 variant=S = 1  [exact]",
        "overall: PASS"]


def _moved_trig_series(real):
    # the series S(1, 2) moved by 2e-9, twice thm4's 1e-9
    def moved(v, h, k, **kwargs):
        return real(v, h, k, **kwargs) + (2e-9 if (v, h, k) == ("S", 1, 2) else 0.0)
    return moved


def _moved_left_side(x):
    # the twisted left side at chi = 3:1, s = 2, q = 1/2 moved by 2e-10
    # before its [2] = 3/2: 3e-10 against the tol 1e-10
    def make(real):
        def moved(s, q, xv, chi, tol, **kwargs):
            out = real(s, q, xv, chi, tol, **kwargs)
            if chi is None or chi.label != "3:1" or complex(s) != 2 \
                    or str(q) != "1/2" or xv != x:
                return out
            return dataclasses.replace(out, value=out.value + 2e-10)
        return moved
    return make


def _moved_round_trip(real):
    # the shifted transform at s = 2, q = 1/2 moved by 2e-8 of its value,
    # twice the round trip's 1e-8 max(1, |rhs|)
    def moved(kind, s, q, x=None, **kwargs):
        out = real(kind, s, q, x=x, **kwargs)
        if x is None or complex(s) != 2 or str(q) != "1/2":
            return out
        return dataclasses.replace(out, value=out.value * (1 + 2e-8))
    return moved


def _shifted_double_sum(real):
    # the damped double sum shifted by 1e-3 at every offset, which the
    # extrapolation keeps: ten times the tol 1e-4
    def shifted(*args):
        return real(*args) + 1e-3
    return shifted


_PRODUCT = ("_kernels", "damped_pair_sum", _shifted_double_sum)
_MUTATIONS = {
    "thm4": ("acceptance", "classical_trig_series", _moved_trig_series),
    "thm5": ("qzeta", "_alt_series", _moved_left_side(None)),
    "thm6": ("qzeta", "_alt_series", _moved_left_side(0.25)),
    "mellin-defs": ("mellin", "mellin_transform", _moved_round_trip),
    "thm19": _PRODUCT, "thm20": _PRODUCT, "thm21": _PRODUCT,
    "thm22": _PRODUCT, "thm23": _PRODUCT,
    "all": ("acceptance", "classical_trig_series", _moved_trig_series),
}


@pytest.mark.parametrize("target", _MUTATIONS)
def test_verify_target_fails_on_a_moved_route(capsys, monkeypatch, target):
    # one route moved by the least error the target's tolerance must catch:
    # the target exits 1 with one FAIL row, the moved one
    import importlib

    module, name, move = _MUTATIONS[target]
    mod = importlib.import_module(f"hbq.{module}")
    monkeypatch.setattr(mod, name, move(getattr(mod, name)))
    code, out, err = run(capsys, "verify", target)
    assert (code, err) == (1, "")
    assert out.count("[FAIL] ") == 1 and out.endswith("overall: FAIL\n")


# sha256 of the stdout of the benchmark's verify commands; a change that
# moves report bytes updates these and names the moved reports
_REPORT_SHA256 = {
    "all json": "020b0a0fe6a05d8c89b3ea3967639a3d1aae62eca91f356c2d149ffb1cb3bcbd",
    "all text": "2381260db4f1bd99f1b74570e685c6eb94de09a5175a1c829fc0b23ca6f5f39b",
    "all csv": "94d0cfc6b58e950f860dd6d8fa4bbde7a1e02b857ed4153abb6448bea054ab9b",
    "thm4 --k-max 40 json":
        "d76ea6ab4eda909e3fb40de935319c68fa491317debd26acd2d336d5eddc05f7",
    "thm5 json": "e7e2b2e1fa8bf0dad97379b65277c90c0aa8dcd35fac3b9126b407389139f2a5",
    "thm6 json": "5fcdde4f57616d426bfea6d1865c6fe66c3e18df915cee3f58711c0de3124323",
    "mellin-defs json":
        "d712ef7afaed21b5c42f75e71cc175a543670a6af1d24ed3a4657e6395e0c60a",
    "thm19 json": "47ed3b5cbb235b4c8bbcd6aa1b8be551e558d93c07db5147c10f98276e9fffcb",
    "thm20 json": "5cfc5a1e0dcd8042084950063b5c2c8bea5cd22e30a4f3519622c017aaae5c8a",
    "thm21 json": "fa74ab524f18d2a45a14b5aec403f102e4ec9e2e221273fdf11677183f8a085d",
    "thm22 json": "79c55bec258e666d0cfe1f818e5c28b9cb617b50b45211bb047236155204fb91",
    "thm23 json": "fd924cf21bde95e042c27ca7bbfc3e890b79c5973ec77f4a47624ef75e9a4397",
}


@pytest.mark.parametrize("command", _REPORT_SHA256)
def test_verify_report_bytes(capsys, command):
    *args, fmt = command.split()
    code, out, err = run(capsys, "verify", *args, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        _REPORT_SHA256[command]

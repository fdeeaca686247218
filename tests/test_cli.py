import csv
import io
import json
import os
import subprocess
import sys

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


def test_convergence_error_exit_2(capsys):
    # a term cap the damped series cannot meet is an input error, not a
    # failed check (exit code 1)
    code, out, err = run(capsys, "qsum", "--kind", "gen", "--variant", "S",
                         "--h", "1", "--k", "2", "--q", "1/2",
                         "--terms-max", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "term cap" in err


def test_qsum_dedekind_nonpositive_tol_exit_2(capsys):
    code, out, err = run(capsys, "qsum", "--kind", "dedekind", "--p", "1",
                         "--h", "1", "--k", "3", "--q", "2/5", "--tol", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "tol must be positive" in err


def test_qsum_terms_max_reaches_every_kind(capsys):
    # the cap that stops --kind gen stops the scaled sums built on it too
    for kind in (("--kind", "gen", "--variant", "S", "--h", "1", "--k", "2"),
                 ("--kind", "hardy-berndt", "--variant", "S", "--h", "1",
                  "--k", "2"),
                 ("--kind", "dedekind", "--p", "1", "--h", "1", "--k", "3")):
        code, out, err = run(capsys, "qsum", *kind, "--q", "2/5",
                             "--terms-max", "5")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "term cap" in err


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
    for fn in ("hurwitz", "lerch", "odd-power"):
        code, out, err = run(capsys, "zeta", "--fn", fn, "--s", "2",
                             "--a", "0.5", "--z", "0.5", "--tol", "0")
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
    proc = subprocess.run([sys.executable, "-m", "hbq.cli", "zeta", "--fn", fn,
                           "--s", "2", "--z", "nan", "--a", "1"],
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
], ids=["qzeta-im-s", "cck-im-s", "lerch-im-s", "hurwitz-overflow",
        "hurwitz-overflow-1e308", "lerch-z1-divergent", "odd-power-z1-divergent",
        "lerch-unit-circle-cap", "lerch-tiny-shift", "lerch-tiny-shift-z0",
        "lerch-tiny-shift-complex-s"])
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


def test_every_value_carries_certificate(capsys):
    code, out, _ = run(capsys, "qzeta", "--fn", "im", "--s", "2", "--q", "1/2",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    row = report["results"][0]
    assert row["route"] and "tail_bound" in row and "terms_used" in row
    code, out, _ = run(capsys, "qsum", "--kind", "gen", "--variant", "S",
                       "--h", "1", "--k", "2", "--q", "1", "--format", "json")
    report = json.loads(out)
    row = report["results"][0]
    assert "residual" in row and "per_offset" in row and row["route"]


def test_qsum_dedekind_reports_classical_alongside(capsys):
    code, out, _ = run(capsys, "qsum", "--kind", "dedekind", "--p", "1",
                       "--h", "1", "--k", "3", "--q", "1", "--format", "json")
    assert code == 0
    names = [r["name"] for r in json.loads(out)["results"]]
    assert names == ["q-dedekind", "classical-dedekind-sum"]


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

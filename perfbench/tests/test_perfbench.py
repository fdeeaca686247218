"""Tests of the benchmark's own machinery.

Run from a checkout root:  python -m pytest perfbench/tests -q
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import ops  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from deadline import call_with_deadline, run_process  # noqa: E402


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.mark.parametrize("make", [
    lambda seed: ops.cli_ops(seed, 50),
    lambda seed: ops.verify_cycle(seed, 0),
    lambda seed: ops.api_sweep(seed, 0),
])
def test_same_seed_same_ops_and_other_seed_other_ops(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_no_op_lies_in_a_documented_failing_corner():
    for seed in range(5):
        for op in ops.api_sweep(seed, 0) + ops.api_sweep(seed, 1):
            fn, args = op["fn"], op["args"]
            assert fn != "mellin.mellin_transform"
            if fn in ("zeta.lerch_phi", "zeta.odd_power_sum"):
                assert abs(complex(*args[0]["$c"])) <= ops._Z_MAX + 1e-12
            if fn in ("zeta.hurwitz_zeta", "qzeta.q_alt_zeta_hurwitz"):
                assert args[1] >= ops._SHIFT_MIN
            if fn == "zeta.lerch_phi":
                assert args[2] >= ops._SHIFT_MIN
            if op["kw"].get("x") is not None:
                assert op["kw"]["x"] >= ops._SHIFT_MIN
            for arg in args:
                if isinstance(arg, dict) and "$qd" in arg:
                    assert abs(complex(*arg["$qd"])) <= ops._DISK_R_MAX + 1e-12
            if fn == "qsums.eval_gen":
                assert args[1]["$c"][0] >= ops._GEN_T_MIN
            if op["kw"].get("variant") == "bracket":
                assert 1 - Fraction(args[2]["$q"]) >= ops._BRACKET_OMQ_MIN
        for op in ops.cli_ops(seed, 200):
            p = op["params"]
            assert abs(p.get("z", 0.0)) <= ops._Z_MAX
            assert p.get("a", ops._SHIFT_MIN) >= ops._SHIFT_MIN
            assert p.get("x", ops._SHIFT_MIN) >= ops._SHIFT_MIN


def test_self_times_on_a_nested_span_tree():
    # op  [0 ............................ 10]
    # a    [1 ...................... 9]            layer x
    #   b    [2 ...... 5]                          layer y
    #     c     [3 4]                              layer x
    #   d               [6 .. 8]                   layer y, with a 0.5 s leaf
    spans = [
        ["x.a", "x", 1.0, 9.0, -1, "op", False, 10, 0],
        ["y.b", "y", 2.0, 5.0, 0, "op", False, 0, 0],
        ["x.c", "x", 3.0, 4.0, 1, "op", True, 3, 0],
        ["y.d", "y", 6.0, 8.0, 0, "op", False, 0, 0],
    ]
    leaves = [["x.leaf", 3, "op", 4, 0.5, 0, 0]]
    assert tracing.self_times(spans, leaves) == [3.0, 2.0, 1.0, 1.5]
    m, harness = tracing.summarize(spans, leaves, {"op": 10.0})
    assert m["x.self_s"] == 3.0 + 1.0 + 0.5
    assert m["y.self_s"] == 2.0 + 1.5
    assert m["x.busy_s"] == 8.0             # c and the leaf run inside a
    assert m["y.busy_s"] == 3.0 + 2.0
    assert m["x.calls"] == 2 + 4 and m["x.failed"] == 1
    assert m["x.terms"] == 10                # c's terms belong to a's layer entry
    assert harness == {"op": 2.0}
    assert tracing.accounting_overrun(spans, leaves, harness) == 0.0


def test_accounting_fails_when_spans_overrun():
    spans = [
        ["x.a", "x", 1.0, 9.0, -1, "op", False, 0, 0],
        ["y.b", "y", 2.0, 5.0, 0, "op", False, 0, 0],
    ]
    # the spans cover 8 s of an op measured outside at 7 s
    _, harness = tracing.summarize(spans, [], {"op": 7.0})
    assert harness == {"op": -1.0}
    assert tracing.accounting_overrun(spans, [], harness) == 1.0
    # a hot leaf longer than the span that called it
    leaves = [["x.leaf", 1, "op", 2, 3.5, 0, 0]]
    _, harness = tracing.summarize(spans, leaves, {"op": 10.0})
    assert tracing.accounting_overrun(spans, leaves, harness) == 0.5


def test_exact_results_must_match_exactly():
    op = {"fn": "zeta.zeta_exact_nonpositive", "args": [-3], "kw": {}}
    assert checks.check_api(op, {"F": "1/120"}) is None
    problem = checks.check_api(op, {"F": str(Fraction(1, 120) + Fraction(1, 10 ** 20))})
    assert isinstance(problem, AssertionError)


def test_a_floating_miss_fails_the_run():
    op = {"id": "a00-000", "fn": "zeta.riemann_zeta", "args": [{"$c": [2.0, 0.0]}, 1e-12],
          "kw": {}}
    good = math.pi ** 2 / 6
    assert checks.check_api(op, {"sv": [good, 0.0]}) is None
    problem = checks.check_api(op, {"sv": [good + 1e-11, 0.0]})
    assert isinstance(problem, checks.Miss) and problem.err > problem.tol
    records = [{"op": op, "status": "ok", "latency": 0.1,
                "reply": {"result": {"sv": [good + 1e-11, 0.0]}}}]
    failures = run.check_records("api-sweep", records)
    assert [f["class"] for f in failures] == ["wrong"] and records[0]["failed"]


def test_wrong_shaped_results_and_failed_references_are_classified():
    op = {"fn": "zeta.hurwitz_zeta", "args": [{"$c": [2.0, 0.0]}, 0.5, 1e-12], "kw": {}}
    problem = checks.check_api(op, {"F": "1"})           # no "sv"
    assert isinstance(problem, AssertionError) and "wrong shape" in str(problem)
    never = type("Never", (), {})
    no_types = SimpleNamespace(SeriesValue=never, YSumResult=never,
                               DirichletCharacter=never, NumberTable=never)
    problem = checks.check_api(op, worker.encode(None, no_types))
    assert isinstance(problem, AssertionError) and "wrong shape" in str(problem)
    cli = {"cmd": "finite", "params": {"variant": "dedekind", "h": 1, "k": 5}}
    assert isinstance(checks.check_cli(cli, '{"pass": true, "results": []}'),
                      AssertionError)

    def no_reference(*args):
        raise oracle.OracleError("did not settle")

    assert isinstance(checks._checked(no_reference), checks.Unchecked)
    records = [{"op": {"id": "a00-000", "fn": "zeta.hurwitz_zeta", "args": [], "kw": {}},
                "status": "ok", "latency": 0.1, "reply": {"result": {}}}]
    real = checks.check_api
    checks.check_api = lambda op, result: checks.Unchecked("reference failed")
    try:
        failures = run.check_records("api-sweep", records)
    finally:
        checks.check_api = real
    assert failures[0]["class"] == "oracle"


def test_deadline_classifies_an_in_process_stall():
    def stall():
        while True:
            pass

    t0 = time.perf_counter()
    status, info, seconds = call_with_deadline(stall, [], {}, 0.2)
    assert status == "deadline" and info["type"] == "DeadlineExceeded"
    assert 0.1 < seconds < 5 and time.perf_counter() - t0 < 5
    assert call_with_deadline(lambda: 1 / 0, [], {}, 1.0)[0] == "raised"
    assert call_with_deadline(lambda x: x + 1, [1], {}, 1.0)[:2] == ("ok", 2)


def test_deadline_classifies_a_stalled_child_process(tmp_path):
    status, info = run_process([sys.executable, "-c", "import time; time.sleep(30)"],
                               dict(os.environ), 0.5, str(tmp_path / "out"))
    assert status == "deadline" and info["wall"] < 10
    status, info = run_process([sys.executable, "-c", "raise SystemExit(3)"],
                               dict(os.environ), 10, str(tmp_path / "out"))
    assert status == "exit" and info["code"] == 3


def test_p90_only_from_a_hundred_samples():
    assert set(run.latency_summary([1.0] * 99)) == {"latency_p50_s"}
    summary = run.latency_summary([float(i) for i in range(1, 101)])
    assert summary == {"latency_p50_s": 50.0, "latency_p90_s": 90.0}
    assert run.latency_summary([1.0, math.inf, math.inf])["latency_p50_s"] == math.inf


def test_benchmark_json_lists_what_a_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    empty = [{"worker_spans": {"spans": [], "leaves": [], "op_seconds": {}}}]
    setup = {"setup.import_hbq_s": 1.0, "setup.scipy_modules": 1,
             "setup.first_call_s": 1.0}
    names, _ = run.per_layer("api-sweep", empty, setup, 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(names)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_traced_cli_run_catches_calls_across_modules(tmp_path):
    spans_file = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, str(BENCH / "launch_cli.py"), str(spans_file), "op1", "--",
         "qsum", "--kind", "hardy-berndt", "--variant", "s1", "--h", "2",
         "--k", "3", "--q", "1", "--format", "json"],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    plain = subprocess.run(
        [sys.executable, "-m", "hbq.cli", "qsum", "--kind", "hardy-berndt",
         "--variant", "s1", "--h", "2", "--k", "3", "--q", "1", "--format", "json"],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert out.stdout == plain.stdout       # tracing leaves the report alone
    trace = json.loads(spans_file.read_text())
    names = {sp[tracing.NAME] for sp in trace["spans"]}
    leaf_names = {leaf[0] for leaf in trace["leaves"]}
    assert {"cli.main", "cli.canonical_json", "qsums.q_hardy_berndt_sum",
            "qsums.oscillatory_sum", "qsums.classical_trig_series",
            "sums.hardy_berndt_sum"} <= names
    assert {"core.sawtooth", "zeta.digamma", "sums.parity_condition"} <= leaf_names
    assert all(sp[tracing.OP] == "op1" for sp in trace["spans"])


def test_dedekind_reciprocity_oracle_matches_the_definition():
    for k in range(1, 40):
        for h in range(1, k + 1):
            if math.gcd(h, k) != 1:
                continue
            direct = sum(oracle._saw2k(j, k) * oracle._saw2k(h * j, k)
                         for j in range(1, k))
            assert oracle.dedekind_exact(h, k) * 4 * k * k == direct

"""hbq benchmark: one seeded workload, measured end to end from outside the
program, with every op's output checked after the timed region.

    python3 perfbench/run.py --workload {cli-oneshot,verify-suite,api-sweep}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout (it needs ``src/hbq``).  Each run
first starts ``SETUP_PROBES`` fresh interpreters that import hbq and call
each layer once; ``setup_s`` is their median wall time.  With ``--trace 0``
it then measures the workload untraced and prints the end-to-end metrics;
with ``--trace 1`` it measures the same ops untraced and then traced, and
prints the per-layer metrics with the tracing overhead.  Lines starting with
``#`` carry run metadata, the latency percentiles, the failure share and one
line per failed op; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import mpmath

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import ops as opgen  # noqa: E402
import tracing  # noqa: E402
from deadline import DEADLINE_S, run_process  # noqa: E402

WORKLOADS = ("cli-oneshot", "verify-suite", "api-sweep")
SETUP_PROBES = 5
MIN_VERIFY_CYCLES = 2  # repeats within a run must give byte-identical reports
P90_MIN_SAMPLES = 100
# traced spans may overrun their parent span or their op by clock rounding
# only
ACCOUNTING_SLACK_S = 1e-6
ENV_SWITCHES = ("HBQ_THREADS", "HBQ_KERNELS")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ----------------------------------------------------------------------
# environment and metadata
# ----------------------------------------------------------------------

def child_env(root: Path):
    """Environment of every child: src on the path, the HBQ_* switches
    removed.  Returns the env and the switches the caller had set."""
    env = dict(os.environ)
    flagged = [f"{k}={env.pop(k)}" for k in ENV_SWITCHES if k in env]
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env, flagged


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "hbq").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(samples: List[float], share: float) -> float:
    """Nearest-rank percentile; failed ops enter as +inf."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def latency_summary(samples: List[float]) -> Dict[str, float]:
    """p50 always; p90 only with at least P90_MIN_SAMPLES samples, so that ten
    samples lie beyond it."""
    out = {"latency_p50_s": percentile(samples, 0.5)}
    if len(samples) >= P90_MIN_SAMPLES:
        out["latency_p90_s"] = percentile(samples, 0.9)
    return out


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def measure_setup(env, workdir: Path) -> Dict:
    walls, probes = [], []
    for i in range(SETUP_PROBES):
        out = workdir / f"probe{i}.json"
        status, info = run_process([sys.executable, str(HERE / "probe.py")],
                                   env, DEADLINE_S, str(out))
        if status != "ok":
            raise HarnessError(f"set-up probe failed ({status}): {info['stderr']}")
        walls.append(info["wall"])
        probes.append(json.loads(out.read_text()))
    return {
        "setup_s": statistics.median(walls),
        "setup.import_hbq_s": statistics.median(p["import_hbq_s"] for p in probes),
        "setup.scipy_modules": statistics.median(p["scipy_modules"] for p in probes),
        "setup.first_call_s": statistics.median(p["first_call_s"] for p in probes),
        "probe": probes[0],
    }


# ----------------------------------------------------------------------
# workloads: each returns op records and the measured wall time
# ----------------------------------------------------------------------

def _run_cli_ops(op_list, env, workdir: Path, trace: bool):
    records = []
    for op in op_list:
        out = workdir / f"{op['id']}.out"
        if trace:
            span_file = workdir / f"{op['id']}.spans.json"
            argv = [sys.executable, str(HERE / "launch_cli.py"), str(span_file),
                    op["id"], "--"] + op["argv"]
        else:
            argv = [sys.executable, "-m", "hbq.cli"] + op["argv"]
        status, info = run_process(argv, env, DEADLINE_S, str(out))
        rec = {"op": op, "status": status, "latency": info["wall"],
               "rss_mb": info["rss_mb"], "code": info["code"],
               "stdout": out.read_bytes(),
               "stderr": info["stderr"]}
        if trace:
            rec["spans"] = json.loads(span_file.read_text()) \
                if span_file.exists() else {"spans": [], "leaves": []}
        records.append(rec)
    return records


def run_cli_oneshot(seed, seconds, env, workdir, count=None, trace=False):
    """Fresh `python -m hbq.cli` processes until the time is up."""
    if count is not None:
        t0 = time.perf_counter()
        records = _run_cli_ops(opgen.cli_ops(seed)[:count], env, workdir, trace)
        return records, time.perf_counter() - t0
    records = []
    t0 = time.perf_counter()
    for op in opgen.cli_ops(seed):
        if time.perf_counter() - t0 >= seconds:
            break
        records += _run_cli_ops([op], env, workdir, trace)
    return records, time.perf_counter() - t0


def run_verify_suite(seed, seconds, env, workdir, count=None, trace=False):
    """Whole cycles of the ten verification commands until the time is up,
    at least MIN_VERIFY_CYCLES of them."""
    records = []
    t0 = time.perf_counter()
    cycle = 0
    while True:
        if count is not None and cycle >= count:
            break
        if count is None and cycle >= MIN_VERIFY_CYCLES \
                and time.perf_counter() - t0 >= seconds:
            break
        records += _run_cli_ops(opgen.verify_cycle(seed, cycle), env, workdir, trace)
        cycle += 1
    return records, time.perf_counter() - t0


def run_api_sweep(seed, seconds, env, workdir, count=None, trace=False):
    """One warm worker; whole sweeps until the time is up, at least one."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--deadline", str(DEADLINE_S)]
    span_file = workdir / "worker.spans.json"
    if trace:
        cmd += ["--trace", str(span_file)]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, text=True, bufsize=1)
    try:
        if json.loads(proc.stdout.readline() or "{}").get("ready") is not True:
            raise HarnessError("api worker did not start")
        records = []
        t0 = time.perf_counter()
        sweep = 0
        while (count is None and (sweep == 0 or time.perf_counter() - t0 < seconds)) \
                or (count is not None and sweep < count):
            for op in opgen.api_sweep(seed, sweep):
                proc.stdin.write(json.dumps(op) + "\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
                if not line:
                    raise HarnessError(f"api worker exited during {op['id']}")
                reply = json.loads(line)
                records.append({"op": op, "status": reply["status"],
                                "latency": reply["elapsed"], "reply": reply})
            sweep += 1
        wall = time.perf_counter() - t0
        proc.stdin.close()
        done = json.loads(proc.stdout.readline() or "{}")
        if proc.wait(timeout=60) != 0 or not done.get("done"):
            raise HarnessError("api worker did not finish cleanly")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    for rec in records:
        rec["rss_mb"] = done["maxrss_mb"]
    if trace:
        records[0]["worker_spans"] = json.loads(span_file.read_text())
    return records, wall


RUNNERS = {"cli-oneshot": run_cli_oneshot, "verify-suite": run_verify_suite,
           "api-sweep": run_api_sweep}


def units_of(workload: str, records) -> int:
    """How many ops (cli), cycles (verify) or sweeps (api) a pass ran."""
    if workload == "cli-oneshot":
        return len(records)
    if workload == "verify-suite":
        return len(records) // len(opgen.VERIFY_COMMANDS)
    return len({r["op"]["id"].split("-")[0] for r in records})


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def check_records(workload: str, records) -> List[Dict]:
    """Failure entries (op id, class, reason); sets each record's "failed"
    flag.  The classes are raised, deadline, exit, wrong and oracle (the
    reference failed, so the output is unchecked)."""
    failures = []
    verify_reports: Dict[str, bytes] = {}
    for rec in records:
        op, status = rec["op"], rec["status"]
        problem: Optional[Exception] = None
        if status == "ok":
            if workload == "api-sweep":
                problem = checks.check_api(op, rec["reply"]["result"])
            elif workload == "cli-oneshot":
                problem = checks.check_cli(op, rec["stdout"].decode())
            else:
                problem = checks.check_verify(rec["stdout"].decode())
                key = op["params"]["key"]
                first = verify_reports.setdefault(key, rec["stdout"])
                if problem is None and first != rec["stdout"]:
                    problem = AssertionError("report differs from the earlier "
                                             "run of the same command")
            if isinstance(problem, checks.Unchecked):
                status = "oracle"
            elif problem is not None:
                status = "wrong"
            reason = str(problem) if problem else ""
        elif status == "raised":
            err = rec["reply"]["error"]
            reason = f"{err['type']}: {err['msg']}"
        elif status == "deadline":
            reason = f"no result within {DEADLINE_S:g} s"
        else:
            reason = f"exit code {rec['code']}: {rec['stderr'].strip()[-200:]}"
        rec["failed"] = status != "ok"
        if rec["failed"]:
            failures.append({"id": op["id"], "class": status,
                             "reason": reason[:240]})
    return failures


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def end_to_end(records, wall: float) -> Dict[str, float]:
    ok = sum(1 for r in records if not r["failed"])
    lat = [math.inf if r["failed"] else r["latency"] for r in records]
    out = {"ops_per_s": ok / wall}
    out.update(latency_summary(lat))
    out["peak_rss_mb"] = max(r["rss_mb"] for r in records)
    out["failed_share"] = (len(records) - ok) / len(records)
    return out


def per_layer(workload: str, traced, setup: Dict, untraced_rate: float,
              traced_rate: float):
    """Sum the per-process traces of a traced pass into the per-layer set;
    also returns the largest accounting overrun (``tracing.accounting_overrun``)."""
    totals: Dict[str, float] = {}
    harness = 0.0
    overrun = 0.0

    def add(trace, op_seconds):
        nonlocal harness, overrun
        spans, leaves = trace["spans"], trace["leaves"]
        m, h = tracing.summarize(spans, leaves, op_seconds)
        for k, v in m.items():
            totals[k] = totals.get(k, 0.0) + v
        harness += sum(h.values())
        overrun = max(overrun, tracing.accounting_overrun(spans, leaves, h))

    if workload == "api-sweep":
        trace = traced[0]["worker_spans"]
        add(trace, trace["op_seconds"])
    else:
        for rec in traced:
            add(rec["spans"], {rec["op"]["id"]: rec["latency"]})
    out = {k: setup[k] for k in ("setup.import_hbq_s", "setup.scipy_modules",
                                 "setup.first_call_s")}
    for layer in tracing.LAYERS:
        for stat in ("calls", "busy_s", "self_s", "failed"):
            out[f"{layer}.{stat}"] = totals.get(f"{layer}.{stat}", 0.0)
    for layer in tracing.SERIES_LAYERS:
        out[f"{layer}.terms"] = totals.get(f"{layer}.terms", 0.0)
    for n in range(1, 11):
        out[f"acceptance.criterion_{n}_s"] = totals.get(f"acceptance.criterion_{n}.s", 0.0)
    for name in ("core.sawtooth", "zeta.digamma", "characters.chi_eval"):
        out[f"{name}.calls"] = totals.get(f"{name}.calls", 0.0)
    for name in ("_kernels.qzeta_partial_sum", "_kernels.damped_pair_sum"):
        out[f"{name}.elements"] = totals.get(f"{name}.elements", 0.0)
    out["mellin.integrand_evals"] = totals.get("_kernels.gen_series_sum.calls", 0.0)
    out["trace.untraced_ops_per_s"] = untraced_rate
    out["trace.traced_ops_per_s"] = traced_rate
    out["trace.slowdown"] = untraced_rate / traced_rate if traced_rate else math.inf
    out["trace.harness_s"] = harness
    return out, overrun


UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "latency_p50_s": "s",
         "latency_p90_s": "s", "peak_rss_mb": "MB", "failed_share": "fraction"}


def per_layer_unit(name: str) -> str:
    if name == "trace.slowdown":
        return "ratio"
    if name.endswith("ops_per_s"):
        return "ops/s"
    if name.endswith("_s"):
        return "s"
    return "count"


END_TO_END = ("setup_s", "ops_per_s", "latency_p50_s", "peak_rss_mb")


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def run(args) -> Dict:
    root = Path.cwd()
    if not (root / "src" / "hbq" / "__init__.py").is_file():
        raise HarnessError(f"no hbq source under {root / 'src'}; run from a checkout root")
    workdir = HERE / ".out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, root: Path, workdir: Path) -> Dict:
    env, flagged = child_env(root)
    load_start = os.getloadavg()
    setup = measure_setup(env, workdir)
    runner = RUNNERS[args.workload]
    records, wall = runner(args.seed, args.seconds, env, workdir)
    failures = check_records(args.workload, records)
    e2e = end_to_end(records, wall)
    e2e["setup_s"] = setup["setup_s"]
    overrun = 0.0
    layer_metrics = None
    if args.trace:
        traced, traced_wall = runner(args.seed, args.seconds, env, workdir,
                                     count=units_of(args.workload, records),
                                     trace=True)
        failures_traced = check_records(args.workload, traced)
        ok_traced = sum(1 for r in traced if not r["failed"])
        layer_metrics, overrun = per_layer(args.workload, traced, setup,
                                            e2e["ops_per_s"], ok_traced / traced_wall)
        failures += [dict(f, id=f["id"] + "(traced)") for f in failures_traced]
    load_end = os.getloadavg()

    probe = setup["probe"]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(root),
        "source_sha256": source_digest(root),
        "python": probe["python"], "numpy": probe["numpy"],
        "scipy": probe["scipy"], "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(), "loadavg_start": load_start[0],
        "loadavg_end": load_end[0], "kernel_mode": probe["kernel_mode"],
        "env_switches_removed": flagged, "deadline_s": DEADLINE_S,
        "ops": len(records), "wall_s": wall,
    }
    correct = not failures and overrun <= ACCOUNTING_SLACK_S
    print("# meta " + json.dumps(meta, sort_keys=True))
    if flagged:
        print("# WARNING: " + ", ".join(flagged) + " set by the caller; "
              "removed for every child process")
    for name in ("setup_s", "ops_per_s", "latency_p50_s", "latency_p90_s",
                 "peak_rss_mb", "failed_share"):
        if name in e2e:
            print(f"# {name} = {e2e[name]:.6g} {UNITS[name]} (n = {len(records)})")
        else:
            print(f"# {name} not reported: {len(records)} ops < {P90_MIN_SAMPLES}")
    for f in failures:
        print(f"# failed {f['id']} {f['class']} {f['reason']}")
    if args.trace:
        print(f"# trace accounting: largest overrun {overrun:.3e} s "
              f"(slack {ACCOUNTING_SLACK_S:g} s)")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in layer_metrics.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in END_TO_END}
    return {"correct": correct, "attempted": len(records),
            "failed": sum(1 for r in records if r["failed"]), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

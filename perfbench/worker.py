"""Warm worker of the api-sweep workload: one process, one op at a time.

Reads one JSON op per line on stdin, calls the named hbq function under the
per-op deadline, and answers one JSON line per op on stdout.  At end of input
it reports its peak RSS and, when started with ``--trace FILE``, writes its
spans to FILE.

Run from a checkout root:  PYTHONPATH=src python perfbench/worker.py
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from deadline import call_with_deadline  # noqa: E402


def decode(value, hbq):
    """Argument encoding of ops.py: tagged dicts for q, complex, Fraction and
    characters; everything else passes through."""
    if isinstance(value, dict):
        if "$c" in value:
            return complex(*value["$c"])
        if "$q" in value:
            return hbq.QParam.real(Fraction(value["$q"]))
        if "$q1" in value:
            return hbq.QParam.one()
        if "$qd" in value:
            return hbq.QParam.complex_disk(complex(*value["$qd"]))
        if "$F" in value:
            return Fraction(value["$F"])
        if "$chi" in value:
            return hbq.character_from_label(value["$chi"])
        return {k: decode(v, hbq) for k, v in value.items()}
    if isinstance(value, list):
        return [decode(v, hbq) for v in value]
    return value


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def encode(out, hbq):
    """JSON form of a result, typed for the reference checks."""
    if isinstance(out, hbq.SeriesValue):
        return {"sv": _c(out.value), "tail": float(out.tail_bound),
                "terms": int(out.terms_used)}
    if isinstance(out, hbq.YSumResult):
        return {"ysum": _c(out.value), "residual": float(out.residual),
                "diverged": bool(out.diverged), "route": out.route,
                "per_offset": [[float(e), _c(v)] for e, v in out.per_offset]}
    if isinstance(out, hbq.DirichletCharacter):
        return {"char": list(out.exponents), "f": out.modulus}
    if isinstance(out, tuple) and all(isinstance(c, hbq.DirichletCharacter)
                                      for c in out):
        return {"chars": [[list(c.exponents), c.order, c.is_principal]
                          for c in out]}
    if isinstance(out, hbq.NumberTable):
        return {"table": [str(v) for v in out.entries]}
    if isinstance(out, Fraction):
        return {"F": str(out)}
    if isinstance(out, int):
        return {"F": str(out)}
    try:
        return {"c": _c(out)}
    except (TypeError, ValueError):
        # a result of an unexpected type: the check reports it as wrong
        return {"unexpected": repr(out)[:200]}


def resolve(path: str):
    mod, name = path.split(".")
    return getattr(importlib.import_module(f"hbq.{mod}"), name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    args = ap.parse_args(argv)

    import hbq
    for layer in ("cli", "acceptance"):
        importlib.import_module(f"hbq.{layer}")
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    op_seconds = {}
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        op = json.loads(line)
        fn = resolve(op["fn"])
        call_args = decode(op["args"], hbq)
        kwargs = decode(op["kw"], hbq)
        if tracer:
            tracer.begin_op(op["id"])
        status, value, elapsed = call_with_deadline(fn, call_args, kwargs,
                                                    args.deadline)
        if tracer:
            tracer.end_op()
            op_seconds[op["id"]] = elapsed
        reply = {"id": op["id"], "status": status, "elapsed": elapsed}
        if status == "ok":
            reply["result"] = encode(value, hbq)
        else:
            reply["error"] = value
        print(json.dumps(reply), flush=True)
    if tracer:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.dump(), op_seconds=op_seconds), fh)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"done": True, "maxrss_mb": rss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the public functions of every hbq module, recorded from the
benchmark's side of the call.

``install`` wraps each public function (a module's ``__all__``, the
acceptance criteria in ``CRITERIA``, and ``cli.main``/``cli.canonical_json``)
and rebinds every reference to it in every ``hbq.*`` namespace, so calls
between modules are caught too.  A span records name, layer, start, end,
parent span and op id.  Hot leaves with no traced children are aggregated per
(function, parent, op) into counts and time; anything they call is folded
into them.  A recursive call to the function of the enclosing span folds into
that span.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

LAYERS = ("cli", "acceptance", "mellin", "qsums", "qzeta", "zeta", "numbers",
          "sums", "characters", "core", "_kernels")
SERIES_LAYERS = ("mellin", "qsums", "qzeta", "zeta", "numbers")
CLI_PUBLIC = ("main", "canonical_json")
HOT_LEAVES = frozenset({
    "core.sawtooth", "core.as_fraction", "core.qbracket",
    "characters.chi_eval", "zeta.digamma", "sums.parity_condition",
    "_kernels.gen_series_sum",
})
# work counts taken from the arguments of the float kernels
ELEMENTS = {
    "_kernels.qzeta_partial_sum": lambda a: a[6] - a[5],   # n1 - n0 terms
    "_kernels.damped_pair_sum": lambda a: a[6] * a[7],     # m_count * n_count
}

# span fields
NAME, LAYER, START, END, PARENT, OP, FAILED, TERMS, ELEMS = range(9)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.leaves: Dict[Tuple[str, int, str], list] = {}
        self.stack: List[int] = []
        self.op = None
        self.leaf_depth = 0

    def begin_op(self, op_id: str) -> None:
        self.op = op_id

    def end_op(self) -> None:
        self.op = None

    def wrap(self, fn, name: str, layer: str):
        tracer = self
        leaf = name in HOT_LEAVES
        count = ELEMENTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None or tracer.leaf_depth:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            if parent >= 0 and tracer.spans[parent][NAME] == name:
                return fn(*args, **kwargs)
            elems = count(args) if count else 0
            clock = tracer.clock
            if leaf:
                tracer.leaf_depth += 1
                failed = 1
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                    failed = 0
                    return out
                finally:
                    dt = clock() - t0
                    tracer.leaf_depth -= 1
                    rec = tracer.leaves.setdefault((name, parent, tracer.op),
                                                   [0, 0.0, 0, 0])
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += failed
                    rec[3] += elems
            span = [name, layer, clock(), None, parent, tracer.op, False, 0,
                    elems]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                tracer.stack.pop()
            terms = getattr(out, "terms_used", None)
            if isinstance(terms, int):
                span[TERMS] = terms
            return out

        traced.__perfbench_original__ = fn
        return traced

    def dump(self) -> Dict:
        return {"spans": self.spans,
                "leaves": [[n, p, o] + rec for (n, p, o), rec in self.leaves.items()]}


def public_functions() -> Iterable[Tuple[str, str, object]]:
    """(layer, qualified name, function) for every traced hbq function."""
    for layer in LAYERS:
        mod = importlib.import_module(f"hbq.{layer}")
        names = getattr(mod, "__all__", None) or CLI_PUBLIC
        for attr in names:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj):
                yield layer, f"{layer}.{attr}", obj
    acceptance = importlib.import_module("hbq.acceptance")
    for fn in acceptance.CRITERIA:
        yield "acceptance", f"acceptance.{fn.__name__}", fn


def install(tracer: Tracer) -> int:
    """Wrap every public function and rebind every reference to it in the
    hbq namespaces, module-level lists included; returns the wrap count."""
    wrappers = {}
    for layer, name, fn in public_functions():
        if id(fn) not in wrappers:
            wrappers[id(fn)] = (fn, tracer.wrap(fn, name, layer))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hbq" or mod_name.startswith("hbq.")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
            elif isinstance(val, list):
                for i, item in enumerate(val):
                    hit = wrappers.get(id(item))
                    if hit is not None and hit[0] is item:
                        val[i] = hit[1]
    return len(wrappers)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence], leaves: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the time its child spans cover and the
    time of the hot leaves it called."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[PARENT] >= 0:
            children[sp[PARENT]].append((sp[START], sp[END]))
    leaf_time = defaultdict(float)
    for name, parent, op, calls, seconds, failed, elems in leaves:
        if parent >= 0:
            leaf_time[parent] += seconds
    return [sp[END] - sp[START] - _covered(children[i]) - leaf_time[i]
            for i, sp in enumerate(spans)]


def summarize(spans: Sequence[Sequence], leaves: Sequence[Sequence],
              op_seconds: Dict[str, float]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of one process's trace, and per-op harness time: the
    op's externally measured duration minus the self times of its spans and
    hot leaves, so that self times plus harness time make up the duration."""
    selfs = self_times(spans, leaves)
    m: Dict[str, float] = defaultdict(float)
    anc: List[frozenset] = []
    for i, sp in enumerate(spans):
        p = sp[PARENT]
        anc.append(frozenset() if p < 0 else anc[p] | {spans[p][LAYER]})
    for i, sp in enumerate(spans):
        layer, name = sp[LAYER], sp[NAME]
        dur = sp[END] - sp[START]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += selfs[i]
        m[f"{layer}.failed"] += sp[FAILED]
        m[f"{name}.calls"] += 1
        m[f"{name}.s"] += dur
        m[f"{name}.elements"] += sp[ELEMS]
        if layer not in anc[i]:
            m[f"{layer}.busy_s"] += dur
            m[f"{layer}.terms"] += sp[TERMS]
    for name, parent, op, calls, seconds, failed, elems in leaves:
        layer = name.split(".")[0]
        m[f"{layer}.calls"] += calls
        m[f"{layer}.self_s"] += seconds
        m[f"{layer}.failed"] += failed
        m[f"{name}.calls"] += calls
        m[f"{name}.s"] += seconds
        m[f"{name}.elements"] += elems
        if parent < 0 or layer not in (anc[parent] | {spans[parent][LAYER]}):
            m[f"{layer}.busy_s"] += seconds
    traced = defaultdict(float)
    for i, sp in enumerate(spans):
        traced[sp[OP]] += selfs[i]
    for name, parent, op, calls, seconds, failed, elems in leaves:
        traced[op] += seconds
    harness = {op: dur - traced[op] for op, dur in op_seconds.items()}
    return dict(m), harness


def accounting_overrun(spans: Sequence[Sequence], leaves: Sequence[Sequence],
                       harness: Dict[str, float]) -> float:
    """How far the trace overruns the time it must fit in: the largest
    negative self time (children and leaves longer than their span) or
    negative harness time (spans and leaves longer than the op's externally
    measured duration).  Zero when every span fits."""
    worst = -min(self_times(spans, leaves), default=0.0)
    worst = max(worst, -min(harness.values(), default=0.0))
    return max(0.0, worst)

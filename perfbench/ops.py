"""Seeded op lists for the three workloads.

Every list is a pure function of the seed, so the same seed gives the same
inputs.  The program only ever sees the generated arguments.

cli-oneshot draws each command independently; its cost is nearly flat (the
import dominates), so a run can stop after any command.  verify-suite and
api-sweep are built from whole units (a cycle of the ten verification
commands, a sweep over every api family) that a run always completes.  A
sweep puts each family's cost-driving size on a fixed log-spaced grid that
spans its documented domain, endpoints included, and lets the seed draw every
other parameter and the order; per-op cost spans five decades, and the grid
keeps the mix of sizes, hence throughput and peak memory, the same in every
run.  The other parameters that set an op's cost are drawn one per stratum
of their range, so their spread over a sweep is nearly fixed too.

Every op lies where the program returns a value within its tolerance: the
domains leave out the corners where ROADMAP 4b and 4c document failures (see
the bounds under ``VERIFY_COMMANDS``), so any failed op is a regression.

No usage data says which commands or calls are common, so the mix is an
assumption: the six CLI commands have equal weights, and a sweep draws each
api family once.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List

from oracle import euler_phi

HARDY_VARIANTS = ("S", "s1", "s2", "s3", "s4", "s5")

# the parity hypothesis under which each variant's trigonometric series holds
PARITY = {
    "S": lambda h, k: (h + k) % 2 == 1,
    "s1": lambda h, k: h % 2 == 0 and k % 2 == 1,
    "s2": lambda h, k: h % 2 == 1 and k % 2 == 0,
    "s3": lambda h, k: k % 2 == 1,
    "s4": lambda h, k: h % 2 == 1,
    "s5": lambda h, k: h % 2 == 1 and k % 2 == 1,
}

VERIFY_COMMANDS = (
    ("verify", "all"),
    ("verify", "thm4", "--k-max", "40"),
    ("verify", "thm5"),
    ("verify", "thm6"),
    ("verify", "mellin-defs"),
    ("verify", "thm19"),
    ("verify", "thm20"),
    ("verify", "thm21"),
    ("verify", "thm22"),
    ("verify", "thm23"),
)

# Bounds that leave out the documented corners where ops fail at the seed
# (ROADMAP 4b: absolute tolerances missed by rounding, quadrature estimates;
# 4c: the Lerch-type stall).
# Shifts a, x < 1 of the Hurwitz, Lerch and shifted q-series make the first
# term a^-s large, so rounding alone exceeds an absolute 1e-12.
_SHIFT_MIN = 1.0
# lerch_phi and odd_power_sum stall at 0.95 <= |z| < 1.
_Z_MAX = 0.9
# q-Genocchi numbers on the disk miss 1e-12 at |q| = 0.6 from m = 10 and at
# |q| = 0.75 from m = 9, since [n]_q^(m-1) grows like (1 - |q|)^(1 - m).
_DISK_R_MAX = 0.5
_DISK_M_MAX = 8
# The bracket shift [x]_q = (1 - q^x) / (1 - q) loses digits as 1 - q goes to
# 0; q_alt_zeta_hurwitz misses 1e-12 with it at 1 - q = 1e-5.
_BRACKET_OMQ_MIN = 0.01
# eval_gen misses 1e-12 at Re t < 0.1, where its terms grow like 1 / t.
_GEN_T_MIN = 0.2
# mellin_transform's quadrature estimate misses its 1e-11 tolerance in about
# 2% of calls anywhere in its domain (4 of 200 at 0.05 <= 1 - q <= 0.9), so
# api-sweep makes no mellin_transform call; verify-suite's criterion 3 and
# mellin-defs measure the quadrature layer.

# moduli of the twisted q-series: small conductors keep the residue-class
# period of the reference sums short
_TWIST_MODULI = (3, 4, 5)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _log_grid(lo: float, hi: float, n: int) -> List[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _strata(rng: random.Random, n: int, lo: float, hi: float,
            log: bool = False) -> List[float]:
    """One draw from each of n equal strata of [lo, hi) (of its logarithm
    when log is set), in a seeded order: each value varies with the seed, the
    sweep's spread of values barely does."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    vals = [a + (b - a) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return [math.exp(v) for v in vals] if log else vals


def _coprime_h(rng: random.Random, k: int, hi: int = None) -> int:
    hi = hi or max(1, k - 1)
    while True:
        h = rng.randint(1, max(1, hi))
        if math.gcd(h, k) == 1:
            return h


def _admissible_pair(rng: random.Random, variant: str, k_lo: int, k_hi: int):
    """Coprime (h, k) with h, k >= 1 satisfying the variant's parity."""
    while True:
        k = int(round(_log_uniform(rng, k_lo, k_hi)))
        h = rng.randint(1, 2 * k)
        if math.gcd(h, k) == 1 and PARITY[variant](h, k):
            return h, k


def _label(rng: random.Random, f: int) -> str:
    return f"{f}:{rng.randrange(euler_phi(f))}"


def _rational_q(rng: random.Random, lo: float = 0.05, hi: float = 0.95) -> str:
    r = rng.randint(2, 60)
    p = min(r - 1, max(1, round(rng.uniform(lo, hi) * r)))
    return str(Fraction(p, r))


def _q_near_one(omq: float) -> str:
    """Exact rational q with 1 - q = omq to seven digits."""
    return str(Fraction(10 ** 7 - max(1, round(omq * 10 ** 7)), 10 ** 7))


def _s_text(re: float, im: float = 0.0) -> str:
    return f"{re!r},{im!r}" if im else repr(re)


def _enc_c(re: float, im: float = 0.0) -> Dict:
    return {"$c": [re, im]}


# ----------------------------------------------------------------------
# cli-oneshot
# ----------------------------------------------------------------------

# the six value commands, drawn with equal weights: no usage data says how
# often each is run, so none is favoured
_CLI_COMMANDS = ("finite", "numbers", "characters", "zeta", "qzeta", "qsum")


def _cli_finite(rng):
    variant = rng.choice(HARDY_VARIANTS + ("dedekind",))
    k = int(round(_log_uniform(rng, 2, 1000)))
    h = _coprime_h(rng, k)
    return (["finite", "--variant", variant, "--h", str(h), "--k", str(k)],
            {"variant": variant, "h": h, "k": k})


def _cli_numbers(rng):
    kind = rng.choice(("bernoulli", "euler", "genocchi", "q-euler",
                       "q-genocchi"))
    if kind in ("bernoulli", "euler", "genocchi"):
        n_max = rng.randint(1, 40)
        return (["numbers", "--kind", kind, "--n-max", str(n_max)],
                {"kind": kind, "n_max": n_max})
    m = rng.randint(0, 12)
    q = _rational_q(rng)
    return (["numbers", "--kind", kind, "--m", str(m), "--q", q],
            {"kind": kind, "m": m, "q": q})


def _cli_characters(rng):
    f = int(round(_log_uniform(rng, 1, 1000)))
    if rng.random() < 0.3:
        return ["characters", "--f", str(f)], {"f": f}
    idx = rng.randrange(euler_phi(f))
    n = rng.randrange(10 ** 4)
    return (["characters", "--f", str(f), "--index", str(idx), "--n", str(n)],
            {"f": f, "index": idx, "n": n})


def _zeta_args(rng, fn):
    """Parameters of one classical-zeta evaluation on its documented domain."""
    tol = rng.choice((1e-10, 1e-12))
    im = rng.uniform(-20, 20) if rng.random() < 0.5 else 0.0
    p = {"fn": fn, "tol": tol}
    if fn in ("zeta", "genocchi-zeta"):
        if fn == "genocchi-zeta" and rng.random() < 0.25:
            p["s"] = [float(-rng.randint(0, 30)), 0.0]
        else:
            p["s"] = [rng.uniform(0.25, 8.0), im]
    elif fn == "zeta-star":
        p["route"] = rng.choice(("identity", "direct"))
        p["s"] = [rng.uniform(1.5, 8.0), im]
    elif fn == "hurwitz":
        p["s"] = [rng.uniform(1.5, 8.0), im]
        p["a"] = _log_uniform(rng, _SHIFT_MIN, 3.0)
    elif fn in ("lerch", "odd-power"):
        p["s"] = [rng.uniform(1.5, 4.0), rng.uniform(-5, 5) if im else 0.0]
        p["z"] = rng.uniform(0.0, _Z_MAX) * rng.choice((-1.0, 1.0))
        if fn == "lerch":
            p["a"] = _log_uniform(rng, _SHIFT_MIN, 3.0)
        else:
            p["b"] = rng.randint(1, 4)
            p["route"] = rng.choice(("direct", "decomposition"))
    elif fn == "digamma":
        p["s"] = [_log_uniform(rng, 1e-3, 1e3), 0.0]
    return p


def _cli_zeta(rng):
    fn = rng.choice(("zeta", "zeta-star", "genocchi-zeta", "hurwitz", "lerch",
                     "odd-power", "digamma"))
    p = _zeta_args(rng, fn)
    argv = ["zeta", "--fn", fn, "--s", _s_text(*p["s"]), "--tol", repr(p["tol"])]
    for key in ("a", "z", "b", "route"):
        if key in p:
            argv += [f"--{key}", str(p[key])]
    return argv, p


def _cli_qzeta(rng):
    fn = rng.choice(("im", "im-hurwitz", "l", "plain", "cck"))
    omq = _log_uniform(rng, 0.01, 0.9)
    q = _q_near_one(omq)
    s = [rng.uniform(1.5, 4.0), rng.uniform(-10, 10) if rng.random() < 0.5 else 0.0]
    p = {"fn": fn, "q": q, "s": s, "tol": 1e-12,
         "scaled": fn in ("im", "im-hurwitz", "l") and rng.random() < 0.5}
    argv = ["qzeta", "--fn", fn, "--s", _s_text(*s), "--q", q,
            "--tol", "1e-12"]
    if fn == "im-hurwitz" or (fn == "l" and rng.random() < 0.5):
        p["x"] = _log_uniform(rng, _SHIFT_MIN, 3.0)
        argv += ["--x", repr(p["x"])]
    if fn == "im-hurwitz":
        p["variant"] = rng.choice(("additive", "bracket"))
        argv += ["--variant", p["variant"]]
    if fn == "l" or (fn == "plain" and rng.random() < 0.5):
        p["chi"] = _label(rng, rng.choice(_TWIST_MODULI))
        argv += ["--chi", p["chi"]]
    if p["scaled"]:
        argv.append("--genocchi-scale")
    return argv, p


def _cli_qsum(rng):
    kind = rng.choice(("hardy-berndt", "dedekind"))
    at_one = rng.random() < 0.5
    q = "1" if at_one else rng.choice(("1/10", "1/4", "1/3", "1/2", "2/3", "3/4",
                                        "9/10"))
    if kind == "hardy-berndt":
        variant = rng.choice(HARDY_VARIANTS)
        h, k = _admissible_pair(rng, variant, 2, 200 if at_one else 12)
        p = {"kind": kind, "variant": variant, "h": h, "k": k, "q": q}
        argv = ["qsum", "--kind", kind, "--variant", variant]
    else:
        k = int(round(_log_uniform(rng, 2, 200 if at_one else 12)))
        h = _coprime_h(rng, k)
        pp = 1 if at_one else rng.choice((1, 3))
        p = {"kind": kind, "p": pp, "h": h, "k": k, "q": q}
        argv = ["qsum", "--kind", kind, "--p", str(pp)]
    argv += ["--h", str(p["h"]), "--k", str(p["k"]), "--q", q]
    return argv, p


_CLI_BUILDERS = {"finite": _cli_finite, "numbers": _cli_numbers,
                 "characters": _cli_characters, "zeta": _cli_zeta,
                 "qzeta": _cli_qzeta, "qsum": _cli_qsum}


def cli_ops(seed: int, count: int = 400) -> List[Dict]:
    """Independent seeded CLI commands, each with --format json."""
    rng = random.Random(f"cli-oneshot:{seed}")
    ops = []
    for i in range(count):
        cmd = rng.choice(_CLI_COMMANDS)
        argv, params = _CLI_BUILDERS[cmd](rng)
        ops.append({"id": f"c{i:04d}", "cmd": cmd,
                    "argv": argv + ["--format", "json"], "params": params})
    return ops


# ----------------------------------------------------------------------
# verify-suite
# ----------------------------------------------------------------------

def verify_cycle(seed: int, cycle: int) -> List[Dict]:
    """The ten verification commands in a seeded order."""
    rng = random.Random(f"verify-suite:{seed}:{cycle}")
    order = list(VERIFY_COMMANDS)
    rng.shuffle(order)
    return [{"id": f"v{cycle:02d}-{i:02d}", "cmd": "verify",
             "argv": list(argv) + ["--format", "json"],
             "params": {"key": " ".join(argv)}}
            for i, argv in enumerate(order)]


# ----------------------------------------------------------------------
# api-sweep
# ----------------------------------------------------------------------

def _api_exact(rng, add, sweep):
    """The Dedekind sum and the six Hardy-Berndt sums on a 7-point log grid of
    k from 10 to 1e5, one sum per grid point; the pairing rotates with the
    sweep, not the seed, since the sums' costs differ tenfold at equal k."""
    fns = ("dedekind",) + HARDY_VARIANTS
    for i, k in enumerate(_log_grid(10, 1e5, 7)):
        k = int(round(k * 10 ** rng.uniform(-0.01, 0.01)))
        h = _coprime_h(rng, k)
        fn = fns[(i + sweep) % 7]
        if fn == "dedekind":
            add("sums.dedekind_sum", h, k)
        else:
            add("sums.hardy_berndt_sum", fn, h, k)


def _api_qseries(rng, add, sweep):
    """Real-q series: the grid is on the term-count scale (Re s - 1)(1 - q);
    the seed splits each grid value between Re s in [1.5, 4] and 1 - q in
    [1e-5, 0.9], so the corner (1.5, 1e-5) is hit in every sweep."""
    for fn in ("qzeta.q_alt_zeta", "qzeta.q_alt_zeta_hurwitz", "qzeta.q_alt_l",
               "qzeta.q_plain_zeta"):
        ims = _strata(rng, 5, -10.0, 10.0)
        xs = _strata(rng, 5, _SHIFT_MIN, 3.0, log=True)
        for w, im, x in zip(_log_grid(0.5e-5, 2.7, 5), ims, xs):
            lo, hi = max(1e-5, w / 3.0), min(0.9, w / 0.5)
            omq = _log_uniform(rng, lo, hi) if hi > lo * (1 + 1e-12) else lo
            s = _enc_c(1.0 + w / omq, im)
            q = {"$q": _q_near_one(omq)}
            tol = 1e-12
            if fn == "qzeta.q_alt_zeta":
                add(fn, s, q, tol, genocchi_scale=rng.random() < 0.5)
            elif fn == "qzeta.q_alt_zeta_hurwitz":
                variants = ("additive", "bracket") if omq >= _BRACKET_OMQ_MIN \
                    else ("additive",)
                add(fn, s, x, q, tol, variant=rng.choice(variants),
                    genocchi_scale=rng.random() < 0.5)
            elif fn == "qzeta.q_alt_l":
                chi = {"$chi": _label(rng, rng.choice(_TWIST_MODULI))}
                add(fn, s, chi, q, tol, genocchi_scale=rng.random() < 0.5,
                    x=x if rng.random() < 0.5 else None)
            else:
                chi = {"$chi": _label(rng, rng.choice(_TWIST_MODULI))} \
                    if rng.random() < 0.5 else None
                add(fn, s, q, tol, chi=chi)
    for omq, re, im in zip(_log_grid(1e-5, 0.9, 5), _strata(rng, 5, 1.5, 4.0),
                           _strata(rng, 5, -10.0, 10.0)):
        add("qzeta.cck_zeta", _enc_c(re, im), {"$q": _q_near_one(omq)}, 1e-12)


def _api_disk(rng, add, sweep):
    radii = [0.05 + (_DISK_R_MAX - 0.05) * i / 4 for i in range(5)]
    for fn in ("qzeta.q_alt_zeta", "qzeta.q_alt_l", "numbers.q_genocchi_number"):
        res = _strata(rng, 5, 1.5, 4.0)
        ms = _strata(rng, 5, 2, _DISK_M_MAX + 1)
        for r, re, m in zip(radii, res, ms):
            theta = rng.uniform(-math.pi, math.pi)
            q = {"$qd": [r * math.cos(theta), r * math.sin(theta)]}
            if fn == "qzeta.q_alt_zeta":
                add(fn, _enc_c(re), q, 1e-12)
            elif fn == "qzeta.q_alt_l":
                add(fn, _enc_c(re), {"$chi": _label(rng, rng.choice(_TWIST_MODULI))},
                    q, 1e-12)
            else:
                add(fn, int(m), q, 1e-12)


def _api_zeta(rng, add, sweep):
    def sample(n, re_lo, re_hi, im_hi=20.0):
        return [_enc_c(re, im) for re, im in zip(_strata(rng, n, re_lo, re_hi),
                                                 _strata(rng, n, -im_hi, im_hi))]

    tols = (1e-10, 1e-12)
    for i, (s, a) in enumerate(zip(sample(10, 1.5, 8.0),
                                   _strata(rng, 10, _SHIFT_MIN, 3.0, log=True))):
        add("zeta.hurwitz_zeta", s, a, tols[i % 2])
    for i, s in enumerate(sample(4, 0.25, 8.0)):
        add("zeta.riemann_zeta", s, tols[i % 2])
    for i, s in enumerate(sample(3, 1.5, 8.0)):
        add("zeta.zeta_star", s, tols[i % 2], route=("identity", "direct")[i % 2])
    for i, s in enumerate(sample(2, 0.25, 8.0)):
        add("zeta.genocchi_zeta", s, tols[i % 2])
    add("zeta.genocchi_zeta", _enc_c(float(-rng.randint(0, 30))), 1e-12)
    for i, x in enumerate(_strata(rng, 5, 1e-3, 1e3, log=True)):
        add("zeta.digamma", x, tols[i % 2])
    add("zeta.genocchi_zeta_exact", -rng.randint(0, 40))
    add("zeta.zeta_exact_nonpositive", -rng.randint(0, 40))


def _api_lerch(rng, add, sweep):
    """lerch_phi and odd_power_sum alternate along the |z| grid; which takes
    the even points rotates with the sweep, not the seed, since their costs
    differ at equal |z| and a seeded choice moved the median latency by 20%
    from seed to seed."""
    lerch_first = sweep % 2 == 0
    res = _strata(rng, 25, 1.5, 4.0)
    ims = _strata(rng, 25, -5.0, 5.0)
    avals = _strata(rng, 25, _SHIFT_MIN, 3.0, log=True)
    for i in range(25):
        r = _Z_MAX * i / 24
        theta = rng.uniform(-math.pi, math.pi)
        z = _enc_c(r * math.cos(theta), r * math.sin(theta))
        s = _enc_c(res[i], ims[i])
        if (i % 2 == 0) == lerch_first:
            add("zeta.lerch_phi", z, s, avals[i], 1e-12)
        else:
            add("zeta.odd_power_sum", z, s, 1, 1e-12)


def _api_characters(rng, add, sweep):
    for f in _strata(rng, 6, 1, 1000, log=True):
        add("characters.characters_mod", int(round(f)))
    for f in _strata(rng, 8, 1, 1000, log=True):
        add("characters.chi_eval", {"$chi": _label(rng, int(round(f)))},
            rng.randrange(10 ** 6))
    for f in _strata(rng, 2, 1, 1000, log=True):
        add("characters.character_from_label", _label(rng, int(round(f))))


def _pair_for_k(rng, k: int):
    """A variant and an h with coprime (h, k) that satisfy its parity."""
    variants = [v for v in HARDY_VARIANTS
                if any(math.gcd(h, k) == 1 and PARITY[v](h, k)
                       for h in range(1, 2 * k + 1))]
    v = rng.choice(variants)
    while True:
        h = rng.randint(1, 2 * k)
        if math.gcd(h, k) == 1 and PARITY[v](h, k):
            return v, h


def _api_oscillatory(rng, add, sweep):
    one = {"$q1": 1}
    for k in _strata(rng, 4, 2, 300, log=True):
        v, h = _pair_for_k(rng, int(round(k)))
        add("qsums.q_hardy_berndt_sum", v, h, int(round(k)), one)
    for k in _strata(rng, 3, 2, 300, log=True):
        v, h = _pair_for_k(rng, int(round(k)))
        add("qsums.classical_trig_series", v, h, int(round(k)), 1e-10)
    for k in _strata(rng, 2, 2, 300, log=True):
        k = int(round(k))
        add("qsums.q_dedekind_sum", 1, _coprime_h(rng, k), k, one)
    for q, k in zip(("1/10", "1/3", "1/2", "2/3", "9/10"), _strata(rng, 5, 2, 13)):
        k = int(k)
        add("qsums.oscillatory_sum", rng.choice(HARDY_VARIANTS),
            _coprime_h(rng, k, 2 * k), k, {"$q": q})
    for q, k in zip(("1/4", "3/4"), _strata(rng, 2, 2, 13)):
        k = int(k)
        add("qsums.dedekind_oscillatory_sum", rng.choice((1, 3)),
            _coprime_h(rng, k, 2 * k), k, {"$q": q})
    k = rng.randint(2, 12)
    v, h = _pair_for_k(rng, k)
    add("qsums.q_hardy_berndt_sum", v, h, k, {"$q": _rational_q(rng, 0.1, 0.9)})
    for kind, t in zip(("F", "f_chi", "F_chi"),
                       _strata(rng, 3, _GEN_T_MIN, 5.0, log=True)):
        chi = {"$chi": _label(rng, rng.choice(_TWIST_MODULI))} \
            if kind.endswith("_chi") else None
        add("qsums.eval_gen", kind, _enc_c(t, rng.uniform(-5, 5)),
            {"$q": _rational_q(rng, 0.1, 0.9)}, 1e-12, chi=chi)


def _api_numbers(rng, add, sweep):
    add("numbers.number_table", rng.choice(("bernoulli", "euler", "genocchi")),
        rng.randint(1, 60))
    add("numbers.bernoulli_polynomial", rng.randint(0, 20),
        {"$F": str(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))})
    add("numbers.q_euler_number", rng.randint(0, 12), {"$q": _rational_q(rng)})
    add("numbers.q_genocchi_number", rng.randint(0, 12), {"$q": _rational_q(rng)})
    add("core.qbracket", rng.randint(0, 500), {"$F": _rational_q(rng)})
    add("core.sawtooth", {"$F": str(Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                             rng.randint(1, 1000)))})
    add("core.as_fraction", f"{rng.randint(-999, 999)}/{rng.randint(1, 999)}")


# one draw of each family per sweep: no usage data says which calls are
# common, so the mix is an assumption, and it is what sets latency_p50_s
_API_FAMILIES = (_api_exact, _api_qseries, _api_disk, _api_zeta, _api_lerch,
                 _api_characters, _api_oscillatory, _api_numbers)


def api_sweep(seed: int, sweep: int) -> List[Dict]:
    """One sweep over every api family, in a seeded order."""
    rng = random.Random(f"api-sweep:{seed}:{sweep}")
    ops = []

    def add(fn, *args, **kw):
        ops.append({"fn": fn, "args": list(args),
                    "kw": {k: v for k, v in kw.items() if v is not None}})

    for family in _API_FAMILIES:
        family(rng, add, sweep)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = f"a{sweep:02d}-{i:03d}"
    return ops

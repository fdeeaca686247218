"""Command-line front end: compute any object, run verification suites, emit
machine-readable reports.

The ``qzeta`` and ``mellin`` layers load only in the handlers and checks that
use them, and numpy only when an array kernel runs, so the exact commands
and ``verify thm4`` start without numpy.

Reports are deterministic: floats are rendered with 17 significant digits,
keys and result rows are sorted, and no timestamps are embedded, so identical
invocations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from . import __version__
from .characters import character_from_label, characters_mod, chi_eval
from .core import (ConvergenceError, DomainError, ParityError, QParam,
                   SeriesValue, VerificationOutcome, _finite, _maybe_int)
from .numbers import q_euler_number, q_genocchi_number, number_table
from .qsums import (RegularizationSchedule, oscillatory_sum, q_dedekind_sum,
                    q_hardy_berndt_sum)
from .sums import (HARDY_VARIANTS, _hardy_variant, dedekind_sum,
                   hardy_berndt_sum, parity_condition)
from .zeta import (digamma, genocchi_zeta, hurwitz_zeta, lerch_phi,
                   odd_power_sum, riemann_zeta, zeta_star)

# ----------------------------------------------------------------------
# canonical serialization
# ----------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == math.inf:
        return '"inf"'
    if x == -math.inf:
        return '"-inf"'
    return format(x, ".17g")


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _json_dict(obj: dict, out: List[str]) -> None:
    sep = "{"
    for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])):
        out.append(f'{sep}"{_escape(str(k))}": ')
        _write_json(v, out)
        sep = ", "
    out.append("{}" if sep == "{" else "}")


def _json_list(obj, out: List[str]) -> None:
    sep = "["
    for v in obj:
        out.append(sep)
        _write_json(v, out)
        sep = ", "
    out.append("[]" if sep == "[" else "]")


_JSON_WRITERS = {
    type(None): lambda obj, out: out.append("null"),
    bool: lambda obj, out: out.append("true" if obj else "false"),
    int: lambda obj, out: out.append(str(obj)),
    float: lambda obj, out: out.append(_fmt_float(obj)),
    complex: lambda obj, out: out.append('{"im": %s, "re": %s}' % (
        _fmt_float(obj.imag), _fmt_float(obj.real))),
    Fraction: lambda obj, out: out.append('"%s"' % obj),
    str: lambda obj, out: out.append(f'"{_escape(obj)}"'),
    dict: _json_dict,
    list: _json_list,
    tuple: _json_list,
}
# a subclass is written as the first of these it derives from
_JSON_BASES = (int, float, complex, Fraction, str, dict, list, tuple)


def _write_json(obj, out: List[str]) -> None:
    write = _JSON_WRITERS.get(type(obj))
    if write is None:
        base = next((b for b in _JSON_BASES if isinstance(obj, b)), None)
        if base is None:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        write = _JSON_WRITERS[base]
    write(obj, out)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats; one
    pass that appends every piece to one list."""
    out: List[str] = []
    _write_json(obj, out)
    return "".join(out)


def _outcome_entry(out: VerificationOutcome) -> Dict[str, Any]:
    params = {k: v for k, v in out.params.items()}
    return {
        "kind": "check",
        "name": out.name,
        "params": params,
        "lhs": out.lhs,
        "rhs": out.rhs,
        "abs_diff": out.abs_diff,
        "tolerance": out.tolerance,
        "pass": out.passed,
    }


def _value_entry(name: str, params: Dict[str, Any], value,
                 route: str, certificate: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    entry = {"kind": "value", "name": name, "params": params, "route": route}
    if isinstance(value, Fraction):
        entry["value"] = value
        entry["exact"] = True
    else:
        entry["value"] = complex(value)
        entry["exact"] = False
    entry.update(certificate or {})
    return entry


def _series_entry(name, params, sv: SeriesValue, route: str) -> Dict[str, Any]:
    return _value_entry(name, params, sv.value, route,
                        {"tail_bound": sv.tail_bound,
                         "terms_used": sv.terms_used})


def _emit(report: Dict[str, Any], fmt: str, out_path: Optional[str]) -> None:
    if fmt == "json":
        text = canonical_json(report) + "\n"
    elif fmt == "csv":
        text = _to_csv(report)
    else:
        text = _to_text(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flat(value) -> str:
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _pairs(row) -> Tuple[List[str], List[str]]:
    """"k=v" for a row's sorted params, then for its certificate keys."""
    return ([f"{k}={_flat(v)}" for k, v in sorted(row.get("params", {}).items())],
            [f"{k}={_flat(row[k])}" for k in ("tail_bound", "residual", "terms_used")
             if k in row])


def _to_csv(report) -> str:
    lines = ["kind,name,params,value,certificate,pass"]
    for row in report["results"]:
        name = row["name"]
        params, cert = map(";".join, _pairs(row))
        if row["kind"] == "criterion":
            # criterion descriptions hold commas, so the name is quoted too
            name = f'"{name}"'
            params = f"number={row['number']}"
            val = ""
            cert = ";".join(row["details"])
            ok = str(row["pass"])
        elif row["kind"] == "check":
            val = f"lhs={_flat(row['lhs'])};rhs={_flat(row['rhs'])}"
            cert = f"abs_diff={_flat(row['abs_diff'])};tol={_flat(row['tolerance'])}"
            ok = str(row["pass"])
        else:
            val = _flat(row["value"])
            ok = ""
        lines.append(f"{row['kind']},{name},\"{params}\",\"{val}\",\"{cert}\",{ok}")
    lines.append(f"overall,,,,,{report['pass']}")
    return "\n".join(lines) + "\n"


def _to_text(report) -> str:
    lines = []
    for row in report["results"]:
        params, cert = map(" ".join, _pairs(row))
        if row["kind"] == "check":
            tag = "PASS" if row["pass"] else "FAIL"
            lines.append(f"[{tag}] {row['name']} {params}: |lhs-rhs| = "
                         f"{row['abs_diff']:.3e} (tol {row['tolerance']:.1e})")
        elif row["kind"] == "criterion":
            tag = "PASS" if row["pass"] else "FAIL"
            lines.append(f"[{tag}] criterion {row['number']}: {row['name']}")
            for d in row.get("details", []):
                lines.append(f"    {d}")
        else:
            lines.append(f"{row['name']} {params} = {_flat(row['value'])}  "
                         f"[{'; '.join(filter(None, (row['route'], cert)))}]")
    lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"


def _report(argv: List[str], results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The report of one command: its echoed argv, its rows, and whether
    every row that carries a pass flag passed."""
    # the output path is not part of the computation, so it is dropped from
    # the echo to keep reports byte-identical wherever they are written
    echo = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
            continue
        if arg == "--out":
            skip = True
            continue
        if arg.startswith("--out="):
            continue
        echo.append(arg)
    return {"tool": "hbq", "version": __version__, "command": echo,
            "results": results,
            "pass": all(r.get("pass", True) for r in results)}


# ----------------------------------------------------------------------
# argument helpers
# ----------------------------------------------------------------------

def _parse_s(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise DomainError(f"bad --s value {text!r}; expected 're' or 're,im'")
    s = complex(*map(float, parts))
    _finite("s", s)
    return s


def _schedule(args) -> Optional[RegularizationSchedule]:
    if not args.eps:
        if args.order is not None:
            raise ValueError("--order needs --eps")
        return None
    offsets = tuple(float(e) for e in args.eps.split(","))
    return RegularizationSchedule(offsets, 2 if args.order is None else args.order)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_finite(args):
    if args.variant == "dedekind":
        value = dedekind_sum(args.h, args.k)
        name = "dedekind-sum"
    else:
        value = hardy_berndt_sum(args.variant, args.h, args.k)
        name = f"hardy-berndt-{args.variant}"
    entry = _value_entry(name, {"h": args.h, "k": args.k}, value, "exact")
    if args.format == "text" and not args.out:
        sys.stdout.write(f"{value}\n")
        return None  # the bare value, without a report
    return [entry]


def _cmd_numbers(args):
    results = []
    if args.kind in ("bernoulli", "euler", "genocchi"):
        table = number_table(args.kind, args.n_max)
        for n, v in enumerate(table.entries):
            results.append(_value_entry(f"{args.kind}-number",
                                        {"n": n}, v, "exact-recurrence"))
    else:
        q = QParam.parse(args.q)
        # QParam.parse builds no complex q, so both values are exact
        v = q_euler_number(args.m, q) if args.kind == "q-euler" \
            else q_genocchi_number(args.m, q, args.tol)
        results.append(_value_entry(f"{args.kind}-number",
                                    {"m": args.m, "q": str(q)}, v,
                                    "exact-closed-form"))
    return results


def _cmd_characters(args):
    results = []
    if args.n is not None:
        chi = character_from_label(f"{args.f}:{args.index}")
        results.append(_value_entry("character-value",
                                    {"chi": chi.label, "n": args.n},
                                    chi_eval(chi, args.n),
                                    "root-of-unity"))
    else:
        for chi in characters_mod(args.f):
            results.append(_value_entry(
                "character", {"chi": chi.label,
                              "exponents": list(chi.exponents),
                              "order": chi.order,
                              "principal": chi.is_principal},
                complex(1.0) if chi.is_principal else chi_eval(chi, 2),
                "enumeration"))
    return results


def _cmd_zeta(args):
    s = _parse_s(args.s)
    si = _maybe_int(s)
    tol = args.tol
    if args.fn == "zeta":
        sv = riemann_zeta(si, tol)
        entry = _series_entry("riemann-zeta", {"s": s}, sv, "accelerated-eta")
    elif args.fn == "zeta-star":
        sv = zeta_star(si, tol, route=args.route or "identity")
        entry = _series_entry("zeta-star", {"s": s, "route": args.route or "identity"},
                              sv, args.route or "identity")
    elif args.fn == "genocchi-zeta":
        sv = genocchi_zeta(si, tol)
        entry = _series_entry("genocchi-zeta", {"s": s}, sv, "accelerated-eta")
    elif args.fn == "hurwitz":
        sv = hurwitz_zeta(s, args.a, tol)
        entry = _series_entry("hurwitz-zeta", {"s": s, "a": args.a}, sv,
                              "euler-maclaurin")
    elif args.fn == "lerch":
        sv = lerch_phi(complex(args.z), s, args.a, tol)
        entry = _series_entry("lerch-phi", {"s": s, "a": args.a, "z": args.z},
                              sv, "direct-series")
    elif args.fn == "odd-power":
        sv = odd_power_sum(complex(args.z), s, args.b, tol,
                           route=args.route or "direct")
        entry = _series_entry("odd-power-sum",
                              {"s": s, "z": args.z, "b": args.b}, sv,
                              args.route or "direct")
    else:  # digamma; argparse restricts --fn to these choices
        if s.imag:
            raise ValueError("digamma takes a real --s")
        v = digamma(s.real, tol)
        entry = _value_entry("digamma", {"x": s.real}, complex(v),
                             "asymptotic-series", {"tail_bound": tol})
    return [entry]


def _cmd_qzeta(args):
    from .qzeta import (cck_zeta, q_alt_l, q_alt_zeta, q_alt_zeta_hurwitz,
                        q_plain_zeta)

    s = _parse_s(args.s)
    q = QParam.parse(args.q)
    chi = character_from_label(args.chi) if args.chi else None
    tol = args.tol
    scale = args.genocchi_scale
    if args.fn == "im":
        sv = q_alt_zeta(s, q, tol, genocchi_scale=scale)
        entry = _series_entry("q-alt-zeta", {"s": s, "q": str(q), "scaled": scale},
                              sv, "alternating-series")
    elif args.fn == "im-hurwitz":
        sv = q_alt_zeta_hurwitz(s, args.x, q, tol, variant=args.variant,
                                genocchi_scale=scale)
        entry = _series_entry("q-alt-zeta-hurwitz",
                              {"s": s, "q": str(q), "x": args.x,
                               "variant": args.variant, "scaled": scale},
                              sv, "alternating-series")
    elif args.fn == "l":
        sv = q_alt_l(s, chi, q, tol, genocchi_scale=scale, x=args.x)
        entry = _series_entry("q-alt-l",
                              {"s": s, "q": str(q), "chi": chi.label,
                               "x": args.x, "scaled": scale},
                              sv, "alternating-series")
    elif args.fn == "plain":
        sv = q_plain_zeta(s, q, tol, chi=chi)
        entry = _series_entry("q-plain-zeta",
                              {"s": s, "q": str(q),
                               "chi": chi.label if chi else None},
                              sv, "plain-series")
    else:  # cck; argparse restricts --fn to these choices
        sv = cck_zeta(s, q, tol)
        entry = _series_entry("cck-zeta", {"s": s, "q": str(q)}, sv,
                              "alternating-series")
    return [entry]


def _cmd_qsum(args):
    q = QParam.parse(args.q)
    chi = character_from_label(args.chi) if args.chi else None
    reg = _schedule(args)
    results = []
    if args.kind == "gen":
        res = oscillatory_sum(args.variant, args.h, args.k, q, chi=chi,
                              reg=reg, tol=args.tol)
        cert = {"residual": res.residual, "diverged": res.diverged,
                "per_offset": [[e, v] for e, v in res.per_offset]}
        results.append(_value_entry("oscillatory-sum",
                                    {"variant": args.variant, "h": args.h,
                                     "k": args.k, "q": str(q),
                                     "chi": chi.label if chi else None},
                                    res.value, res.route, cert))
    elif args.kind == "hardy-berndt":
        try:
            v = q_hardy_berndt_sum(args.variant, args.h, args.k, q, chi=chi,
                                   reg=reg, tol=args.tol,
                                   enforce_parity=not args.no_parity_check)
        except ParityError as exc:  # name the CLI's switch, not the keyword
            raise ParityError(str(exc).replace("enforce_parity=False",
                                               "--no-parity-check")) from None
        results.append(_value_entry("q-hardy-berndt",
                                    {"variant": args.variant, "h": args.h,
                                     "k": args.k, "q": str(q)},
                                    v, "scaled-oscillatory-sum"))
        if q.is_one:
            pc = parity_condition(args.variant, args.h, args.k)
            if pc.holds:
                exact = hardy_berndt_sum(args.variant, args.h, args.k)
                results.append(_value_entry("exact-finite-sum",
                                            {"variant": args.variant,
                                             "h": args.h, "k": args.k},
                                            exact, "exact"))
    else:
        v = q_dedekind_sum(args.p, args.h, args.k, q, reg=reg, tol=args.tol)
        results.append(_value_entry("q-dedekind",
                                    {"p": args.p, "h": args.h, "k": args.k,
                                     "q": str(q)},
                                    v, "scaled-oscillatory-sum"))
        if q.is_one:
            params = {"h": args.h, "k": args.k}
            if args.p != 1:  # the p = 1 row keeps its classical params
                params["p"] = args.p
            results.append(_value_entry("classical-dedekind-sum", params,
                                        dedekind_sum(args.h, args.k, args.p),
                                        "exact"))
    return results


def _cmd_verify(args):
    from . import acceptance

    fn, fixed = _VERIFY[args.what]
    given = {opt: getattr(args, opt) for opt in _VERIFY_OPTIONS
             if getattr(args, opt) is not None}
    rows = getattr(acceptance, fn)(
        *(() if fixed is None else (fixed,)),
        **{opt: _VERIFY_PARSE.get(opt, lambda v: v)(v) for opt, v in given.items()})
    return [_outcome_entry(row) if isinstance(row, VerificationOutcome) else
            {"kind": "criterion", "number": row.number,
             "name": row.description, "pass": row.passed,
             "details": list(row.details)}
            for row in rows]


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

# verify target: (function of `hbq.acceptance`, its fixed first argument).
# Kept here, by name, so that building the parser does not import
# `hbq.acceptance`
_VERIFY = {
    "thm4": ("trig_series_checks", None),
    "thm5": ("decomposition_checks", False),
    "thm6": ("decomposition_checks", True),
    "mellin-defs": ("mellin_checks", None),
    "thm19": ("product_check", 19),
    "thm20": ("product_check", 20),
    "thm21": ("product_check", 21),
    "thm22": ("product_check", 22),
    "thm23": ("product_check", 23),
    "all": ("run_all", None),
}
# each verify option, its argparse type, and how its text is read
_VERIFY_OPTIONS = {"s": str, "q": str, "x": float, "chi": str, "tol": float,
                   "k_max": int}
_VERIFY_PARSE = {"s": lambda text: _maybe_int(_parse_s(text)),
                 "q": QParam.parse, "chi": character_from_label}

# what each command reads: command -> {selection: (the options it reads, the
# options it needs)}, options named by dest.  A selection is named as the
# refusals name it: `--fn im`, `--kind gen`, a verify target, and for
# characters `--n` (evaluate) or `without --n` (list).  `main` refuses any
# other option, and a needed one left out, before a handler runs.  Not
# listed: `finite`, which reads every option it takes, and the options that
# argparse requires or every selection reads (`--s`, `--h`, `--format`, ...)
_READS = {
    "numbers": {
        "--kind bernoulli": (("n_max",), ()),
        "--kind euler": (("n_max",), ()),
        "--kind genocchi": (("n_max",), ()),
        "--kind q-euler": (("m", "q"), ("q",)),
        "--kind q-genocchi": (("m", "q", "tol"), ("q",)),
    },
    "characters": {
        "without --n": ((), ()),
        "--n": (("index",), ("index",)),
    },
    "zeta": {
        "--fn zeta": (("tol",), ()),
        "--fn zeta-star": (("route", "tol"), ()),
        "--fn genocchi-zeta": (("tol",), ()),
        "--fn hurwitz": (("a", "tol"), ()),
        "--fn lerch": (("a", "z", "tol"), ()),
        "--fn odd-power": (("z", "b", "route", "tol"), ()),
        "--fn digamma": (("tol",), ()),
    },
    "qzeta": {
        "--fn im": (("genocchi_scale", "tol"), ()),
        "--fn im-hurwitz": (("x", "variant", "genocchi_scale", "tol"), ("x",)),
        "--fn l": (("x", "chi", "genocchi_scale", "tol"), ("chi",)),
        "--fn plain": (("chi", "tol"), ()),
        "--fn cck": (("tol",), ()),
    },
    "qsum": {
        "--kind gen": (("variant", "chi", "eps", "order", "tol"), ()),
        "--kind hardy-berndt": (("variant", "chi", "eps", "order", "tol",
                                 "no_parity_check"), ()),
        "--kind dedekind": (("p", "eps", "order", "tol"), ()),
    },
    "verify": {
        "thm4": (("tol", "k_max"), ()),
        "thm5": (("s", "q", "chi", "tol"), ()),
        "thm6": (("s", "q", "x", "chi", "tol"), ()),
        "mellin-defs": (("s", "q", "tol"), ()),
        "thm19": (("s", "q", "tol"), ()),
        "thm20": (("s", "q", "tol"), ()),
        "thm21": (("s", "q", "tol"), ()),
        "thm22": (("s", "q", "chi", "tol"), ()),
        "thm23": (("s", "q", "chi", "tol"), ()),
        "all": ((), ()),
    },
}


def _check_reads(args, argv: List[str]) -> None:
    """Refuse an option that the command's selection does not read, and a
    needed one left out, listing each in parser order."""
    table = _READS.get(args.cmd)
    if table is None:
        return
    # with abbreviations off each `--opt` token is an option string exactly,
    # so these are the options given, told apart from the defaulted ones
    given = {arg[2:].split("=")[0].replace("-", "_") for arg in argv
             if arg.startswith("--")}
    if args.cmd == "verify":
        selection = args.what
    elif args.cmd == "characters":
        selection = "--n" if "n" in given else "without --n"
    else:
        flag = "fn" if hasattr(args, "fn") else "kind"
        selection = f"--{flag} {getattr(args, flag)}"
    reads, needs = table[selection]
    # every option a command takes and does not require, some selection reads
    optional = {dest for read, _ in table.values() for dest in read}
    # the namespace holds the options in the order the parser added them
    for verb, dests in (
            ("does not read", [d for d in vars(args)
                               if d in given & optional and d not in reads]),
            ("needs", [d for d in vars(args) if d in needs and d not in given])):
        if dests:
            raise DomainError(f"{args.cmd} {selection} {verb} " + ", ".join(
                "--" + dest.replace("_", "-") for dest in dests))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbq",
        allow_abbrev=False,
        description="Exact and q-deformed Hardy-Berndt/Dedekind sums, "
                    "Genocchi-type zeta and l functions, and identity "
                    "verification suites.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, help):
        """A subcommand's parser, and the `add` of its options, whose help
        names the selections that read each option."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        table = _READS.get(name, {})

        def add(flag, help=None, **kwargs):
            dest = flag[2:].replace("-", "_")
            readers = [sel + " (needed)" * (dest in needs)
                       for sel, (reads, needs) in table.items() if dest in reads]
            if readers:
                help = (f"{help}; " if help else "") + "read by " + ", ".join(readers)
            p.add_argument(flag, help=help, **kwargs)
        return p, add

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
        p.add_argument("--out", default=None, help="write the report to FILE")

    p, add = command("finite", "exact classical sums")
    add("--variant", required=True, choices=HARDY_VARIANTS + ("dedekind",))
    add("--h", type=int, required=True)
    add("--k", type=int, required=True)
    add_output(p)

    p, add = command("numbers", "number tables and q-deformations")
    add("--kind", required=True,
        choices=("bernoulli", "euler", "genocchi", "q-euler", "q-genocchi"))
    add("--n-max", type=int, default=10)
    add("--m", type=int, default=0)
    add("--q", default=None, help="exact rational 'p/r' or '1'")
    add("--tol", type=float, default=1e-12)
    add_output(p)

    p, add = command("characters", "list or evaluate characters mod f")
    add("--f", type=int, required=True)
    add("--index", type=int, default=None)
    add("--n", type=int, default=None, help="evaluate at n")
    add_output(p)

    p, add = command("zeta", "classical zeta family")
    add("--fn", required=True,
        choices=("zeta", "zeta-star", "genocchi-zeta", "hurwitz", "lerch",
                 "odd-power", "digamma"))
    add("--s", required=True, help="'re' or 're,im'")
    add("--a", type=float, default=1.0)
    add("--z", type=float, default=0.5)
    add("--b", type=int, default=1)
    add("--route", default=None)
    add("--tol", type=float, default=1e-12)
    add_output(p)

    p, add = command("qzeta", "q-deformed zeta / l family")
    add("--fn", required=True, choices=("im", "im-hurwitz", "l", "plain", "cck"))
    add("--s", required=True)
    add("--q", required=True)
    add("--x", type=float, default=None)
    add("--chi", default=None, help="character label 'f:index'")
    add("--variant", choices=("additive", "bracket"), default="additive")
    add("--genocchi-scale", action="store_true")
    add("--tol", type=float, default=1e-12)
    add_output(p)

    p, add = command("qsum", "oscillatory sums and their scalings")
    add("--kind", required=True, choices=("gen", "hardy-berndt", "dedekind"))
    add("--variant", default="S", help="S, s1..s5 or index 0..5")
    add("--p", type=int, default=1, help="odd order")
    add("--h", type=int, required=True)
    add("--k", type=int, required=True)
    add("--q", required=True)
    add("--chi", default=None)
    add("--eps", default=None, help="comma list of damping offsets, decreasing")
    add("--order", type=int, default=None,
        help="extrapolation order for --eps (default 2)")
    add("--tol", type=float, default=1e-8)
    add("--no-parity-check", action="store_true")
    add_output(p)

    p, add = command("verify", "identity verification suites")
    p.add_argument("what", choices=tuple(_VERIFY))
    for opt, kind in _VERIFY_OPTIONS.items():
        add("--" + opt.replace("_", "-"), type=kind, default=None)
    add_output(p)

    return parser


_HANDLERS = {
    "finite": _cmd_finite,
    "numbers": _cmd_numbers,
    "characters": _cmd_characters,
    "zeta": _cmd_zeta,
    "qzeta": _cmd_qzeta,
    "qsum": _cmd_qsum,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_reads(args, argv)
        variant = getattr(args, "variant", None)
        if variant is not None and variant.isdigit():
            args.variant = _hardy_variant(int(variant))
        results = _HANDLERS[args.cmd](args)
        if results is None:
            return 0
        report = _report(argv, results)
        _emit(report, args.format, args.out)
        return 0 if report["pass"] else 1
    except (ValueError, ConvergenceError) as exc:
        # DomainError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

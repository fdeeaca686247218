"""Command-line front end: compute any object, run verification suites, emit
machine-readable reports.

One table, ``_TABLE``, holds every selection of every command: the API
function it calls, the options it reads and those it needs, and the report
row it makes.  One handler walks the row and imports the function's layer on
first use, so a command loads only the layers it calls (``finite`` loads
``core``, ``sums`` and ``numbers``), and numpy only when an array kernel
runs.

Reports are deterministic: floats are rendered with 17 significant digits,
keys and result rows are sorted, and no timestamps are embedded, so identical
invocations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import importlib
import math
import re
import sys
from fractions import Fraction
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from . import __version__
from .core import (ConvergenceError, DomainError, ParityError, QParam,
                   SeriesValue, VerificationOutcome, _finite)

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

def _joined(argv: List[str]) -> List[str]:
    """``argv`` with each value that starts with ``-`` and a digit or ``.``
    joined to its option as ``--opt=value``: argparse reads ``-1`` and
    ``-0.5`` as values, but ``-1e-5`` and ``-1.5,2`` as options."""
    out: List[str] = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and re.match(r"-[\d.]", arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_s(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise DomainError(f"bad --s value {text!r}; expected 're' or 're,im'")
    s = complex(*map(float, parts))
    _finite("s", s)
    return s


def _schedule(args):
    from .qsums import RegularizationSchedule

    if not args.eps:
        if args.order is not None:
            raise ValueError("--order needs --eps")
        return None
    offsets = tuple(float(e) for e in args.eps.split(","))
    return RegularizationSchedule(offsets, 2 if args.order is None else args.order)


def _chi(args):
    from .characters import character_from_label

    return character_from_label(args.chi)


# dest -> (API keyword, how its value is read from the namespace) for the
# options whose keyword or value is not the option's own
_KEYWORDS = {
    "s": ("s", lambda args: _parse_s(args.s)),
    "q": ("q", lambda args: QParam.parse(args.q)),
    "chi": ("chi", _chi),
    "eps": ("reg", _schedule),
    "order": ("reg", _schedule),
    "no_parity_check": ("enforce_parity", lambda args: not args.no_parity_check),
}


def _keywords(args, dests) -> Dict[str, Any]:
    """The API keyword and value of each option of ``dests`` that is set."""
    out: Dict[str, Any] = {}
    for dest in dests:
        if getattr(args, dest) is not None:
            keyword, read = _KEYWORDS.get(dest, (dest, None))
            out[keyword] = getattr(args, dest) if read is None else read(args)
    return out


def _echo(value):
    """A param as a report shows it: q as its text, a character by label."""
    return (str(value) if isinstance(value, QParam)
            else getattr(value, "label", value))


# ----------------------------------------------------------------------
# the selection table
# ----------------------------------------------------------------------

class _Row(NamedTuple):
    """One selection of a command.  ``fn`` is the API function it calls, as
    "module.name" (None: the command's own handler), and ``fixed`` is that
    function's fixed first argument (None for none); ``reads`` and ``needs``
    are the options, by dest, that the selection reads and those it needs.
    The rest is its report row: the ``name`` (``{}`` stands for the
    selection), the ``params`` it reports and the ``route`` (by default the
    result's own)."""
    fn: Optional[str]
    reads: Tuple[str, ...] = ()
    needs: Tuple[str, ...] = ()
    name: str = ""
    params: Tuple[str, ...] = ()
    route: Optional[str] = None
    fixed: Any = None


# command -> (the flag that selects, the options every selection reads,
# {selection: row}).  A selection is named as the refusals name it: `--fn
# im`, `--kind gen`, a verify target, and for characters `--n` (evaluate)
# or `without --n` (list).  `main` refuses any other option, and a needed
# one left out, before a handler runs.  Options that no selection reads
# (`--format`, `--out`) are not listed
_TABLE = {
    "finite": ("--variant", ("h", "k"), {
        **{v: _Row("sums.hardy_berndt_sum", name="hardy-berndt-{}",
                   params=("h", "k"), route="exact", fixed=v)
           for v in ("S", "s1", "s2", "s3", "s4", "s5")},  # sums.HARDY_VARIANTS
        "dedekind": _Row("sums.dedekind_sum", name="{}-sum", params=("h", "k"),
                         route="exact"),
    }),
    "numbers": ("--kind", (), {
        **{kind: _Row("numbers.number_table", ("n_max",), name="{}-number",
                      route="exact-recurrence", fixed=kind)
           for kind in ("bernoulli", "euler", "genocchi")},
        # QParam.parse builds no complex q, so both values are exact
        "q-euler": _Row("numbers.q_euler_number", ("m", "q"), ("q",),
                        "{}-number", ("m", "q"), "exact-closed-form"),
        "q-genocchi": _Row("numbers.q_genocchi_number", ("m", "q", "tol"),
                           ("q",), "{}-number", ("m", "q"), "exact-closed-form"),
    }),
    "characters": ("", ("f",), {
        "without --n": _Row(None),
        "--n": _Row(None, ("index",), ("index",)),
    }),
    "zeta": ("--fn", ("s",), {
        "zeta": _Row("zeta.riemann_zeta", ("tol",), (), "riemann-zeta", ("s",),
                     "accelerated-eta"),
        "zeta-star": _Row("zeta.zeta_star", ("route", "tol"), (), "{}",
                          ("s", "route"), "identity"),
        "genocchi-zeta": _Row("zeta.genocchi_zeta", ("tol",), (), "{}", ("s",),
                              "accelerated-eta"),
        "hurwitz": _Row("zeta.hurwitz_zeta", ("a", "tol"), (), "hurwitz-zeta",
                        ("s", "a"), "euler-maclaurin"),
        "lerch": _Row("zeta.lerch_phi", ("a", "z", "tol"), (), "lerch-phi",
                      ("s", "a", "z"), "direct-series"),
        "odd-power": _Row("zeta.odd_power_sum", ("z", "b", "route", "tol"), (),
                          "odd-power-sum", ("s", "z", "b"), "direct"),
        "digamma": _Row("zeta.digamma", ("tol",), (), "{}", ("x",),
                        "asymptotic-series"),
    }),
    "qzeta": ("--fn", ("s", "q"), {
        "im": _Row("qzeta.q_alt_zeta", ("genocchi_scale", "tol"), (),
                   "q-alt-zeta", ("s", "q", "scaled"), "alternating-series"),
        "im-hurwitz": _Row("qzeta.q_alt_zeta_hurwitz",
                           ("x", "variant", "genocchi_scale", "tol"), ("x",),
                           "q-alt-zeta-hurwitz",
                           ("s", "q", "x", "variant", "scaled"),
                           "alternating-series"),
        "l": _Row("qzeta.q_alt_l", ("x", "chi", "genocchi_scale", "tol"),
                  ("chi",), "q-alt-l", ("s", "q", "chi", "x", "scaled"),
                  "alternating-series"),
        "plain": _Row("qzeta.q_plain_zeta", ("chi", "tol"), (), "q-plain-zeta",
                      ("s", "q", "chi"), "plain-series"),
        "cck": _Row("qzeta.cck_zeta", ("tol",), (), "cck-zeta", ("s", "q"),
                    "alternating-series"),
    }),
    "qsum": ("--kind", ("h", "k", "q"), {
        "gen": _Row("qsums.oscillatory_sum",
                    ("variant", "chi", "eps", "order", "tol"), (),
                    "oscillatory-sum", ("variant", "h", "k", "q", "chi")),
        "hardy-berndt": _Row("qsums.q_hardy_berndt_sum",
                             ("variant", "chi", "eps", "order", "tol",
                              "no_parity_check"), (), "q-hardy-berndt",
                             ("variant", "h", "k", "q"),
                             "scaled-oscillatory-sum"),
        "dedekind": _Row("qsums.q_dedekind_sum", ("p", "eps", "order", "tol"),
                         (), "q-dedekind", ("p", "h", "k", "q"),
                         "scaled-oscillatory-sum"),
    }),
    "verify": ("", (), {
        "thm4": _Row("acceptance.trig_series_checks", ("tol", "k_max")),
        "thm5": _Row("acceptance.decomposition_checks", ("s", "q", "chi", "tol"),
                     fixed=False),
        "thm6": _Row("acceptance.decomposition_checks",
                     ("s", "q", "x", "chi", "tol"), fixed=True),
        "mellin-defs": _Row("acceptance.mellin_checks", ("s", "q", "tol")),
        # identities 22 and 23 are twisted by a character
        **{f"thm{tid}": _Row("acceptance.product_check",
                             ("s", "q", "chi", "tol") if tid > 21 else
                             ("s", "q", "tol"), fixed=tid)
           for tid in range(19, 24)},
        "all": _Row("acceptance.run_all"),
    }),
}


def _label(cmd: str, selection: str) -> str:
    """A selection as messages and ``--help`` name it: ``--fn im``."""
    flag = _TABLE[cmd][0]
    return f"{flag} {selection}" if flag else selection


def _selection(args, argv: List[str]) -> str:
    """The command's selection, once an option that it does not read, and a
    needed one left out, are refused; each is listed in parser order."""
    flag, _, rows = _TABLE[args.cmd]
    # with abbreviations off each `--opt` token is an option string exactly,
    # so these are the options given, told apart from the defaulted ones
    given = {arg[2:].split("=")[0].replace("-", "_") for arg in argv
             if arg.startswith("--")}
    if flag:
        selection = getattr(args, flag[2:])
    elif args.cmd == "verify":
        selection = args.what
    else:  # characters
        selection = "--n" if "n" in given else "without --n"
    row = rows[selection]
    # every option a command takes and does not require, some selection reads
    optional = {dest for r in rows.values() for dest in r.reads}
    # the namespace holds the options in the order the parser added them
    for verb, dests in (
            ("does not read", [d for d in vars(args)
                               if d in given & optional and d not in row.reads]),
            ("needs", [d for d in vars(args)
                       if d in row.needs and d not in given])):
        if dests:
            raise DomainError(f"{args.cmd} {_label(args.cmd, selection)} {verb} "
                              + ", ".join("--" + dest.replace("_", "-")
                                          for dest in dests))
    return selection


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------

def _cmd_select(args, selection: str) -> List[Dict[str, Any]]:
    """Call the selection's API function with the options it reads, and make
    the report rows of its result."""
    _, common, rows = _TABLE[args.cmd]
    row = rows[selection]
    module, fn = row.fn.split(".")
    kwargs = _keywords(args, common + row.reads)
    cert: Dict[str, Any] = {}
    if row.fn == "zeta.digamma":  # real x only; the tol is its tail bound
        s = kwargs.pop("s")
        if s.imag:
            raise ValueError("digamma takes a real --s")
        kwargs["x"], cert = s.real, {"tail_bound": args.tol}
    try:
        result = getattr(importlib.import_module(f".{module}", __package__), fn)(
            *(() if row.fixed is None else (row.fixed,)), **kwargs)
    except ParityError as exc:  # name the CLI's switch, not the keyword
        raise ParityError(str(exc).replace("enforce_parity=False",
                                           "--no-parity-check")) from None
    if isinstance(result, list):  # verify's outcomes or criteria
        return [_outcome_entry(r) if isinstance(r, VerificationOutcome) else
                {"kind": "criterion", "number": r.number,
                 "name": r.description, "pass": r.passed,
                 "details": list(r.details)}
                for r in result]
    name, route, value = (row.name.format(selection),
                          kwargs.get("route", row.route), result)
    if hasattr(result, "entries"):  # a number table: one row per entry
        return [_value_entry(name, {"n": n}, v, route)
                for n, v in enumerate(result.entries)]
    if isinstance(result, SeriesValue):
        value, cert = result.value, {"tail_bound": result.tail_bound,
                                     "terms_used": result.terms_used}
    elif hasattr(result, "per_offset"):  # an oscillatory sum
        value, route = result.value, result.route
        cert = {"residual": result.residual, "diverged": result.diverged,
                "per_offset": [[e, v] for e, v in result.per_offset]}
    shown = {**kwargs, "scaled": kwargs.get("genocchi_scale"), "route": route}
    return [_value_entry(name, {key: _echo(shown.get(key)) for key in row.params},
                         value, route, cert)] + _exact_at_q1(row, args, kwargs)


def _exact_at_q1(row: _Row, args, kwargs) -> List[Dict[str, Any]]:
    """At q = 1, the exact finite sum that a scaled sum reduces to."""
    if not getattr(kwargs.get("q"), "is_one", False):
        return []
    from .sums import dedekind_sum, hardy_berndt_sum, parity_condition

    if row.fn == "qsums.q_hardy_berndt_sum":
        if not parity_condition(args.variant, args.h, args.k).holds:
            return []
        return [_value_entry("exact-finite-sum",
                             {"variant": args.variant, "h": args.h, "k": args.k},
                             hardy_berndt_sum(args.variant, args.h, args.k),
                             "exact")]
    if row.fn == "qsums.q_dedekind_sum":
        params = {"h": args.h, "k": args.k}
        if args.p != 1:  # the p = 1 row keeps its classical params
            params["p"] = args.p
        return [_value_entry("classical-dedekind-sum", params,
                             dedekind_sum(args.h, args.k, args.p), "exact")]
    return []


def _cmd_characters(args) -> List[Dict[str, Any]]:
    from .characters import character_from_label, characters_mod, chi_eval

    if args.n is not None:
        chi = character_from_label(f"{args.f}:{args.index}")
        return [_value_entry("character-value", {"chi": chi.label, "n": args.n},
                             chi_eval(chi, args.n), "root-of-unity")]
    return [_value_entry("character", {"chi": chi.label,
                                       "exponents": list(chi.exponents),
                                       "order": chi.order,
                                       "principal": chi.is_principal},
                         complex(1.0) if chi.is_principal else chi_eval(chi, 2),
                         "enumeration")
            for chi in characters_mod(args.f)]


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

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
        """A subcommand's parser with its selecting flag, and the `add` of
        its options, whose help names the selections that read each one."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        selector, _, rows = _TABLE[name]

        def add(flag, help=None, **kwargs):
            dest = flag[2:].replace("-", "_")
            readers = [_label(name, key) + " (needed)" * (dest in row.needs)
                       for key, row in rows.items() if dest in row.reads]
            if readers:
                help = (f"{help}; " if help else "") + "read by " + ", ".join(readers)
            p.add_argument(flag, help=help, **kwargs)
        if selector:
            add(selector, required=True, choices=tuple(rows))
        return p, add

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
        p.add_argument("--out", default=None, help="write the report to FILE")

    p, add = command("finite", "exact classical sums")
    add("--h", type=int, required=True)
    add("--k", type=int, required=True)
    add_output(p)

    p, add = command("numbers", "number tables and q-deformations")
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
    add("--s", required=True, help="'re' or 're,im'")
    add("--a", type=float, default=1.0)
    add("--z", type=float, default=0.5)
    add("--b", type=int, default=1)
    add("--route", default=None)
    add("--tol", type=float, default=1e-12)
    add_output(p)

    p, add = command("qzeta", "q-deformed zeta / l family")
    add("--s", required=True)
    add("--q", required=True)
    add("--x", type=float, default=None)
    add("--chi", default=None, help="character label 'f:index'")
    add("--variant", choices=("additive", "bracket"), default="additive")
    add("--genocchi-scale", action="store_true")
    add("--tol", type=float, default=1e-12)
    add_output(p)

    p, add = command("qsum", "oscillatory sums and their scalings")
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
    p.add_argument("what", choices=tuple(_TABLE["verify"][2]))
    add("--s")
    add("--q")
    add("--x", type=float)
    add("--chi")
    add("--tol", type=float)
    add("--k-max", type=int)
    add_output(p)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_joined(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        selection = _selection(args, argv)
        variant = getattr(args, "variant", None)
        if variant is not None and variant.isdigit():
            from .sums import _hardy_variant

            args.variant = _hardy_variant(int(variant))
        results = (_cmd_characters(args) if args.cmd == "characters"
                   else _cmd_select(args, selection))
        if args.cmd == "finite" and args.format == "text" and not args.out:
            sys.stdout.write(f"{results[0]['value']}\n")  # the bare value
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

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
from typing import Any, Dict, List, Optional

from . import __version__
from .characters import character_from_label, characters_mod, chi_eval
from .core import (ConvergenceError, DomainError, QParam, SeriesValue,
                   VerificationOutcome, _finite, _maybe_int)
from .numbers import q_euler_number, q_genocchi_number, number_table
from .qsums import (RegularizationSchedule, oscillatory_sum, q_dedekind_sum,
                    q_hardy_berndt_sum)
from .sums import (HARDY_VARIANTS, _hardy_variant, dedekind_sum,
                   hardy_berndt_sum, parity_condition)
from .zeta import (digamma, genocchi_zeta, hurwitz_zeta, lerch_phi,
                   odd_power_sum, riemann_zeta, zeta_star)

_THM_IDS = ("thm4", "thm5", "thm6", "mellin-defs", "thm19", "thm20", "thm21",
            "thm22", "thm23", "all")


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


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return '{"im": %s, "re": %s}' % (_fmt_float(obj.imag), _fmt_float(obj.real))
    if isinstance(obj, Fraction):
        return '"%s"' % obj
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return '"%s"' % out
    if isinstance(obj, dict):
        inner = ", ".join(f"{canonical_json(str(k))}: {canonical_json(v)}"
                          for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])))
        return "{%s}" % inner
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ", ".join(canonical_json(v) for v in obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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


def _to_csv(report) -> str:
    lines = ["kind,name,params,value,certificate,pass"]
    for row in report["results"]:
        name = row["name"]
        params = ";".join(f"{k}={_flat(v)}" for k, v in sorted(row.get("params", {}).items()))
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
            cert = ";".join(f"{k}={_flat(row[k])}" for k in ("tail_bound", "residual", "terms_used")
                            if k in row)
            ok = ""
        lines.append(f"{row['kind']},{name},\"{params}\",\"{val}\",\"{cert}\",{ok}")
    lines.append(f"overall,,,,,{report['pass']}")
    return "\n".join(lines) + "\n"


def _to_text(report) -> str:
    lines = []
    for row in report["results"]:
        params = " ".join(f"{k}={_flat(v)}" for k, v in sorted(row.get("params", {}).items()))
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
            cert = " ".join(f"{k}={_flat(row[k])}"
                            for k in ("tail_bound", "residual", "terms_used")
                            if k in row)
            lines.append(f"{row['name']} {params} = {_flat(row['value'])}"
                         + (f"  [{row['route']}; {cert}]" if cert or row.get("route") else ""))
    if "pass" in report:
        lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"


def _report(argv: List[str], results: List[Dict[str, Any]],
            overall: bool) -> Dict[str, Any]:
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
            "results": results, "pass": overall}


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
    if getattr(args, "eps", None):
        offsets = tuple(float(e) for e in args.eps.split(","))
        return RegularizationSchedule(offsets, getattr(args, "order", 2))
    return None


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_finite(args, argv):
    if args.variant == "dedekind":
        value = dedekind_sum(args.h, args.k)
        name = "dedekind-sum"
    else:
        value = hardy_berndt_sum(args.variant, args.h, args.k)
        name = f"hardy-berndt-{args.variant}"
    entry = _value_entry(name, {"h": args.h, "k": args.k}, value, "exact")
    if args.format == "text" and not args.out:
        sys.stdout.write(f"{value}\n")
        return 0
    _emit(_report(argv, [entry], True), args.format, args.out)
    return 0


def _cmd_numbers(args, argv):
    results = []
    if args.kind in ("bernoulli", "euler", "genocchi"):
        table = number_table(args.kind, args.n_max)
        for n, v in enumerate(table.entries):
            results.append(_value_entry(f"{args.kind}-number",
                                        {"n": n}, v, "exact-recurrence"))
    else:
        if args.q is None:
            raise DomainError("q-deformed numbers need --q")
        q = QParam.parse(args.q)
        # QParam.parse builds no complex q, so both values are exact
        v = q_euler_number(args.m, q) if args.kind == "q-euler" \
            else q_genocchi_number(args.m, q, args.tol)
        results.append(_value_entry(f"{args.kind}-number",
                                    {"m": args.m, "q": str(q)}, v,
                                    "exact-closed-form"))
    _emit(_report(argv, results, True), args.format, args.out)
    return 0


def _cmd_characters(args, argv):
    results = []
    if args.n is not None:
        if args.index is None:
            raise DomainError("evaluation needs --index")
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
    _emit(_report(argv, results, True), args.format, args.out)
    return 0


def _cmd_zeta(args, argv):
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
        v = digamma(s.real, tol)
        entry = _value_entry("digamma", {"x": s.real}, complex(v),
                             "asymptotic-series", {"tail_bound": tol})
    _emit(_report(argv, [entry], True), args.format, args.out)
    return 0


def _cmd_qzeta(args, argv):
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
        if args.x is None:
            raise DomainError("--x required for the Hurwitz series")
        sv = q_alt_zeta_hurwitz(s, args.x, q, tol, variant=args.variant,
                                genocchi_scale=scale)
        entry = _series_entry("q-alt-zeta-hurwitz",
                              {"s": s, "q": str(q), "x": args.x,
                               "variant": args.variant, "scaled": scale},
                              sv, "alternating-series")
    elif args.fn == "l":
        if chi is None:
            raise DomainError("--chi required for the l-series")
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
                              "direct-series")
    _emit(_report(argv, [entry], True), args.format, args.out)
    return 0


def _cmd_qsum(args, argv):
    q = QParam.parse(args.q)
    chi = character_from_label(args.chi) if args.chi else None
    reg = _schedule(args)
    results = []
    if args.kind == "gen":
        res = oscillatory_sum(args.variant, args.h, args.k, q, chi=chi,
                              reg=reg, m_max=args.terms_max, tol=args.tol)
        cert = {"residual": res.residual, "diverged": res.diverged,
                "per_offset": [[e, v] for e, v in res.per_offset]}
        results.append(_value_entry("oscillatory-sum",
                                    {"variant": args.variant, "h": args.h,
                                     "k": args.k, "q": str(q),
                                     "chi": chi.label if chi else None},
                                    res.value, res.route, cert))
    elif args.kind == "hardy-berndt":
        v = q_hardy_berndt_sum(args.variant, args.h, args.k, q, chi=chi,
                               reg=reg, tol=args.tol,
                               enforce_parity=not args.no_parity_check,
                               m_max=args.terms_max)
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
        v = q_dedekind_sum(args.p, args.h, args.k, q, reg=reg, tol=args.tol,
                           m_max=args.terms_max)
        results.append(_value_entry("q-dedekind",
                                    {"p": args.p, "h": args.h, "k": args.k,
                                     "q": str(q)},
                                    v, "scaled-oscillatory-sum"))
        if q.is_one and args.p == 1:
            results.append(_value_entry("classical-dedekind-sum",
                                        {"h": args.h, "k": args.k},
                                        dedekind_sum(args.h, args.k), "exact"))
    _emit(_report(argv, results, True), args.format, args.out)
    return 0


def _checks(acceptance, args) -> List[VerificationOutcome]:
    """Outcomes of one identity target, in report order; each of --s, --q,
    --x and --chi replaces that axis of the target's default grid."""
    which = args.what
    tol = {} if args.tol is None else {"tol": args.tol}
    if which == "thm4":
        return sorted(acceptance.trig_series_checks(args.k_max, **tol),
                      key=lambda o: (o.params["variant"], o.params["k"],
                                     o.params["h"]))
    point, grid = dict(tol), dict(tol)
    if args.s:
        point["s"] = _maybe_int(_parse_s(args.s))
        grid["s_grid"] = [point["s"]]
    if args.q:
        point["q"] = QParam.parse(args.q)
        grid["q_grid"] = [point["q"]]
    chi = character_from_label(args.chi) if args.chi else None
    if which in ("thm5", "thm6"):
        if chi:
            grid["chars"] = [chi]
        if which == "thm6" and args.x is not None:
            grid["x_grid"] = [args.x]
        outs = acceptance.decomposition_checks(which == "thm6", **grid)
    elif which == "mellin-defs":
        outs = acceptance.mellin_checks(**grid)
    else:
        return [acceptance.product_check(int(which[3:]), chi=chi, **point)]
    return sorted(outs, key=lambda o: sorted(str(v) for v in o.params.values()))


def _cmd_verify(args, argv):
    from . import acceptance

    if args.what == "all":
        results = [{"kind": "criterion", "number": res.number,
                    "name": res.description, "pass": res.passed,
                    "details": list(res.details)}
                   for res in acceptance.run_all()]
    else:
        results = [_outcome_entry(o) for o in _checks(acceptance, args)]
    overall = all(r.get("pass", True) for r in results)
    _emit(_report(argv, results, overall), args.format, args.out)
    return 0 if overall else 1


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

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
        p.add_argument("--out", default=None, help="write the report to FILE")

    p = sub.add_parser("finite", help="exact classical sums")
    p.add_argument("--variant", required=True,
                   choices=HARDY_VARIANTS + ("dedekind",))
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_output(p)

    p = sub.add_parser("numbers", help="number tables and q-deformations")
    p.add_argument("--kind", required=True,
                   choices=("bernoulli", "euler", "genocchi", "q-euler",
                            "q-genocchi"))
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--q", default=None, help="exact rational 'p/r' or '1'")
    p.add_argument("--tol", type=float, default=1e-12)
    add_output(p)

    p = sub.add_parser("characters", help="list or evaluate characters mod f")
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    add_output(p)

    p = sub.add_parser("zeta", help="classical zeta family")
    p.add_argument("--fn", required=True,
                   choices=("zeta", "zeta-star", "genocchi-zeta", "hurwitz",
                            "lerch", "odd-power", "digamma"))
    p.add_argument("--s", required=True, help="'re' or 're,im'")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--z", type=float, default=0.5)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--route", default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    add_output(p)

    p = sub.add_parser("qzeta", help="q-deformed zeta / l family")
    p.add_argument("--fn", required=True,
                   choices=("im", "im-hurwitz", "l", "plain", "cck"))
    p.add_argument("--s", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--chi", default=None, help="character label 'f:index'")
    p.add_argument("--variant", choices=("additive", "bracket"),
                   default="additive")
    p.add_argument("--genocchi-scale", action="store_true")
    p.add_argument("--tol", type=float, default=1e-12)
    add_output(p)

    p = sub.add_parser("qsum", help="oscillatory sums and their scalings")
    p.add_argument("--kind", required=True,
                   choices=("gen", "hardy-berndt", "dedekind"))
    p.add_argument("--variant", default="S",
                   help="S, s1..s5 or index 0..5 for --kind gen/hardy-berndt")
    p.add_argument("--p", type=int, default=1, help="odd order for dedekind")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--chi", default=None)
    p.add_argument("--eps", default=None,
                   help="comma list of damping offsets, decreasing")
    p.add_argument("--order", type=int, default=2,
                   help="extrapolation order for --eps")
    p.add_argument("--terms-max", type=int, default=100000)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--no-parity-check", action="store_true")
    add_output(p)

    p = sub.add_parser("verify", help="identity verification suites")
    p.add_argument("what", choices=_THM_IDS)
    p.add_argument("--s", default=None)
    p.add_argument("--q", default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--chi", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--k-max", type=int, default=15)
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
        variant = getattr(args, "variant", None)
        if variant is not None and variant.isdigit():
            args.variant = _hardy_variant(int(variant))
        return _HANDLERS[args.cmd](args, argv)
    except (ValueError, ConvergenceError) as exc:
        # DomainError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Deterministic command-line front end.

CSV goes to stdout by default; --json switches to a single JSON document.
Floats print with 15 significant digits, exact values in their exact
serializations.  Exit codes: 0 success, 2 precondition/parse error,
3 budget exceeded.
"""

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import chargroup, lfunc
from . import multfun as mf
from . import moments as mo
from . import sieveprobe as sp
# characters, l_eval and root_number stay bound here: tracers wrap them by name
from .chargroup import characters, unit_group  # noqa: F401
from .errors import BudgetError, PreconditionError
from .gf import field_of_order
from .lfunc import l_eval, l_trivial, root_number  # noqa: F401
from .polyring import (Poly, enumerate_primes, factor, parse_poly, to_pretty,
                       to_text)
from .qsqrt import QSqrt


@dataclass
class RunConfig:
    q: int
    fmt: str = "csv"


def _parse_q(text: str) -> int:
    if "^" in text:
        p, _, e = text.partition("^")
        return int(p) ** int(e)
    return int(text)


def _fmt(v):
    if isinstance(v, QSqrt):
        return v.serialize()
    if isinstance(v, float):
        return f"{v:.15g}"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, bool):
        return "1" if v else "0"
    if v is None:
        return ""
    return str(v)


def _emit(rows, fieldnames, cfg: RunConfig, command: str):
    if cfg.fmt == "json":
        doc = {"command": command,
               "rows": [{k: _fmt(r.get(k)) for k in fieldnames} for r in rows]}
        sys.stdout.write(json.dumps(doc, indent=1) + "\n")
        return
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(fieldnames)
    for r in rows:
        w.writerow([_fmt(r.get(k)) for k in fieldnames])


def _field(cfg: RunConfig):
    return field_of_order(cfg.q)


def _poly_arg(cfg: RunConfig, text: str) -> Poly:
    return parse_poly(_field(cfg), text)


# -- subcommand handlers -------------------------------------------------------

def cmd_primes(args, cfg):
    F = _field(cfg)
    rows = [{"q": cfg.q, "deg": p.deg, "coeffs": to_text(p), "pretty": to_pretty(p)}
            for p in enumerate_primes(F, args.deg)]
    return rows, ["q", "deg", "coeffs", "pretty"]


def cmd_factor(args, cfg):
    a = _poly_arg(cfg, args.poly)
    f = factor(a)
    rows = [{"q": cfg.q, "poly": to_text(a), "unit": f.unit,
             "factor": to_text(p), "pretty": to_pretty(p), "exponent": e}
            for p, e in f]
    return rows, ["q", "poly", "unit", "factor", "pretty", "exponent"]


ARITH_FUNCS = {
    "mu": mf.mu, "phi": mf.phi, "phistar": mf.phi_star, "omega": mf.omega,
    "bigomega": mf.big_omega, "rad": lambda a: to_text(mf.radical(a)),
    "d": mf.divisor_count, "pminus": mf.p_minus, "pplus": mf.p_plus,
    "squarefull": mf.is_squarefull, "squarefree": mf.is_squarefree,
}


def cmd_arith(args, cfg):
    a = _poly_arg(cfg, args.poly)
    value = ARITH_FUNCS[args.func](a)
    return ([{"q": cfg.q, "func": args.func, "poly": to_text(a), "value": value}],
            ["q", "func", "poly", "value"])


# The character commands read every character of a modulus off one bulk table:
# kvec-lex order is the C order of the group's grid, so a row is a grid index.

def _kvec_texts(g):
    return [":".join(map(str, k)) for k in itertools.product(*map(range, g.dims))]


def _flat(grid):
    return grid.reshape(-1).tolist()


def _parity(even: bool) -> str:
    return "even" if even else "odd"


def cmd_chars(args, cfg):
    R = _poly_arg(cfg, args.mod)
    g = unit_group(R)
    modulus = to_text(R)
    divs = [to_text(S) for S in mf.divisors(R)]   # R itself is the last one
    rows = [{"q": cfg.q, "modulus": modulus, "kvec": kvec, "parity": _parity(even),
             "primitive": cond == len(divs) - 1, "conductor": divs[cond]}
            for kvec, even, cond in zip(_kvec_texts(g), _flat(chargroup.even_mask(g)),
                                        _flat(chargroup.conductor_grid(g)))]
    return rows, ["q", "modulus", "kvec", "parity", "primitive", "conductor"]


def _char_rows(R, cfg, kvec_filter=None):
    g = unit_group(R)
    picks = range(g.phi)
    if kvec_filter is not None:
        if len(kvec_filter) != len(g.dims):
            raise PreconditionError(f"--kvec needs {len(g.dims)} colon-separated entries")
        if not all(0 <= k < d for k, d in zip(kvec_filter, g.dims)):
            raise PreconditionError(f"--kvec entries must lie in 0 <= k < d for dims {g.dims}")
        picks = [int(np.ravel_multi_index(kvec_filter, g.dims))]
    modulus, kvecs = to_text(R), _kvec_texts(g)
    even = _flat(chargroup.even_mask(g))
    primitive = _flat(chargroup.primitive_mask(g))
    coeffs = lfunc.l_coeff_table(g)
    vals = _flat(lfunc.l_half_table(g, coeffs))
    vals[0] = l_trivial(0.5, R)   # index 0 is the trivial character
    fe_rows = [k for k in picks if primitive[k] and R.deg > 0]
    fe = dict(zip(fe_rows, lfunc.fe_from_table(g, coeffs, even, fe_rows)))
    rows = []
    for k in picks:
        val = vals[k]
        w, residual = fe.get(k, (None, None))
        rows.append({"q": cfg.q, "modulus": modulus, "kvec": kvecs[k],
                     "parity": _parity(even[k]), "primitive": primitive[k],
                     "re_l_half": val.real, "im_l_half": val.imag,
                     "abs2_l_half": abs(val) ** 2,
                     "abs_w": None if w is None else abs(w), "fe_residual": residual})
    return rows


def cmd_lvalue(args, cfg):
    R = _poly_arg(cfg, args.mod)
    kv = tuple(int(x) for x in args.kvec.split(":")) if args.kvec else None
    rows = _char_rows(R, cfg, kv)
    return rows, ["q", "modulus", "kvec", "parity", "primitive",
                  "re_l_half", "im_l_half", "abs2_l_half", "abs_w", "fe_residual"]


def cmd_fe_check(args, cfg):
    R = _poly_arg(cfg, args.mod)
    g = unit_group(R)
    fields = ["q", "modulus", "kvec", "parity", "re_w", "im_w", "abs_w", "fe_residual"]
    if R.deg == 0:
        return [], fields
    modulus, kvecs = to_text(R), _kvec_texts(g)
    even = _flat(chargroup.even_mask(g))
    fe_rows = [k for k, prim in enumerate(_flat(chargroup.primitive_mask(g))) if prim]
    rows = [{"q": cfg.q, "modulus": modulus, "kvec": kvecs[k],
             "parity": _parity(even[k]), "re_w": w.real, "im_w": w.imag,
             "abs_w": abs(w), "fe_residual": residual}
            for k, (w, residual) in zip(fe_rows, lfunc.fe_from_table(
                g, lfunc.l_coeff_table(g), even, fe_rows))]
    return rows, fields


def cmd_moment2(args, cfg):
    R = _poly_arg(cfg, args.mod)
    method = args.method
    exact = None
    extra = {}
    if method == "chars":
        value = mo.moment2_chars(R)
    elif method == "moebius":
        exact = mo.moment2_moebius_exact(R)
        value = exact.to_float()
    elif method == "formula":
        exact = mo.moment2_formula(R, "proof_final")
        value = exact.to_float()
    elif method == "formula-statement":
        exact = mo.moment2_formula(R, "theorem_statement")
        value = exact.to_float()
    elif method == "tamam":
        exact = mo.moment2_tamam_prime(R, "minus")
        value = exact.to_float()
    else:   # tamam-plus
        exact = mo.moment2_tamam_prime(R, "plus")
        value = exact.to_float()
    row = {"q": cfg.q, "modulus": to_text(R), "method": method,
           "value_exact": exact, "value_float": value}
    row.update(extra)
    return [row], ["q", "modulus", "method", "value_exact", "value_float"]


def cmd_moment4(args, cfg):
    R = _poly_arg(cfg, args.mod)
    method = args.method
    fields = ["q", "modulus", "method", "value_exact", "value_float",
              "main_term", "ratio"]
    row = {"q": cfg.q, "modulus": to_text(R), "method": method,
           "value_exact": None, "main_term": None, "ratio": None}
    if method == "chars":
        row["value_float"] = mo.moment4_chars(R)
    elif method == "moebius":
        exact = mo.moment4_moebius_exact(R)
        row["value_exact"] = exact
        row["value_float"] = exact.to_float()
    elif method == "main":
        row["value_float"] = mo.moment4_main_term(R)
    elif method == "report":
        rep = mo.moment4_report(R)
        row["value_float"] = rep.value_float
        row["main_term"] = rep.terms["main_term"]
        row["ratio"] = rep.diagnostics["ratio"]
    else:   # diagonal
        rep = mo.diagonal_term_check(R)
        row["value_exact"] = rep.value
        row["value_float"] = rep.value_float
        row["main_term"] = rep.diagnostics["main_term"]
        row["ratio"] = rep.diagnostics["ratio"]
    return [row], fields


def cmd_probe(args, cfg):
    F = _field(cfg)
    pid = args.id

    def P(flag):
        text = getattr(args, flag)
        if text is None:
            raise PreconditionError(f"probe {pid} needs --{flag}")
        return parse_poly(F, text)

    if pid == "bt_sum":
        rep = sp.bt_sum(P("X"), args.y, P("A"), P("G"))
    elif pid == "bt_sum_eq":
        rep = sp.bt_sum_eq(P("X"), args.y, P("A"), P("G"), args.a)
    elif pid == "selberg":
        rep = sp.selberg_sifted_count(P("X"), args.y, P("K"), P("A"), args.z)
    elif pid == "two_omega":
        val = sp.two_omega_sum(cfg.q, args.x)
        rep = sp.ProbeReport("two_omega_sum", {"q": cfg.q, "x": args.x}, val,
                             float(sp.two_omega_closed_form(cfg.q, args.x)), 1.0, None)
    elif pid == "two_omega_coprime":
        rep = sp.two_omega_sum_coprime(P("mod"))
    elif pid == "weighted_two_omega":
        rep = sp.weighted_two_omega_sum(P("mod"))
    elif pid == "coprime_harmonic":
        rep = sp.coprime_harmonic(P("mod"), args.x)
    elif pid == "inv_phi":
        val = sp.inv_phi_sum(cfg.q, args.x)
        rep = sp.ProbeReport("inv_phi_sum", {"q": cfg.q, "x": args.x}, val,
                             float(args.x), float(val) / args.x if args.x else None,
                             None)
    elif pid == "musq_phi":
        val = sp.musq_phi_sum(cfg.q, args.x)
        rep = sp.ProbeReport("musq_phi_sum", {"q": cfg.q, "x": args.x}, val,
                             float(args.x), float(val) / args.x if args.x else None,
                             None)
    elif pid == "inv_degp":
        rep = sp.inv_degp_sum(cfg.q, args.w)
    elif pid == "smooth_count":
        rep = sp.smooth_count(cfg.q, args.z)
    elif pid == "rough_divisor":
        rep = sp.rough_divisor_sum(cfg.q, args.z, args.r)
    elif pid == "off_diagonal":
        rep = sp.off_diagonal_count(P("F"), args.z1, args.z2, args.a)
    elif pid == "double_divisor":
        rep = sp.double_divisor_probe(P("F"), P("K"), args.x, args.a,
                                      args.variant)
    else:
        raise PreconditionError(f"unknown probe id {pid!r}")
    return [rep.row()], ["probe_id", "params", "lhs", "rhs", "ratio",
                         "empirical_const"]


def cmd_growth(args, cfg):
    F = _field(cfg)
    rows = mf.growth_probe(F, args.kind, range(args.n_from, args.n_to + 1))
    return rows, ["kind", "n", "deg", "m", "r", "value", "main", "ratio"]


# -- parser --------------------------------------------------------------------

@lru_cache(maxsize=1)   # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ffl",
        description="Dirichlet characters, L-functions and moments over F_q[T]")
    ap.add_argument("--q", required=True,
                    help="field order, as a plain prime power or p^e")
    ap.add_argument("--json", action="store_true", help="emit one JSON document")
    ap.add_argument("--max-table", type=int, default=None,
                    help="override the FFL_MAX_TABLE table budget (entries)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("primes", help="monic irreducibles of one degree")
    p.add_argument("--deg", type=int, required=True)
    p.set_defaults(handler=cmd_primes)

    p = sub.add_parser("factor", help="unique factorization")
    p.add_argument("--poly", required=True)
    p.set_defaults(handler=cmd_factor)

    p = sub.add_parser("arith", help="arithmetic functions")
    p.add_argument("func", choices=sorted(ARITH_FUNCS))
    p.add_argument("--poly", required=True)
    p.set_defaults(handler=cmd_arith)

    p = sub.add_parser("chars", help="character table of a modulus")
    p.add_argument("--mod", required=True)
    p.set_defaults(handler=cmd_chars)

    p = sub.add_parser("lvalue", help="L(1/2) per character")
    p.add_argument("--mod", required=True)
    p.add_argument("--kvec", default=None, help="restrict to one character, e.g. 1:0")
    p.set_defaults(handler=cmd_lvalue)

    p = sub.add_parser("fe-check", help="root numbers and FE residuals")
    p.add_argument("--mod", required=True)
    p.set_defaults(handler=cmd_fe_check)

    p = sub.add_parser("moment2", help="second moment over primitive characters")
    p.add_argument("--mod", required=True)
    p.add_argument("--method", default="moebius",
                   choices=["chars", "moebius", "formula", "formula-statement",
                            "tamam", "tamam-plus"])
    p.set_defaults(handler=cmd_moment2)

    p = sub.add_parser("moment4", help="fourth moment over primitive characters")
    p.add_argument("--mod", required=True)
    p.add_argument("--method", default="chars",
                   choices=["chars", "moebius", "main", "report", "diagonal"])
    p.set_defaults(handler=cmd_moment4)

    p = sub.add_parser("probe", help="bound probes and exact identity sums")
    p.add_argument("--id", required=True,
                   choices=["bt_sum", "bt_sum_eq", "selberg", "two_omega",
                            "two_omega_coprime", "weighted_two_omega",
                            "coprime_harmonic", "inv_phi", "musq_phi",
                            "inv_degp", "smooth_count", "rough_divisor",
                            "off_diagonal", "double_divisor"])
    p.add_argument("--X")
    p.add_argument("--A", default="[]")
    p.add_argument("--G", default="[1]")
    p.add_argument("--K", default="[1]")
    p.add_argument("--F")
    p.add_argument("--mod")
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--y", type=int, default=0)
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--w", type=int, default=0)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--z1", type=int, default=0)
    p.add_argument("--z2", type=int, default=0)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--variant", default="scaled", choices=["scaled", "plain"])
    p.set_defaults(handler=cmd_probe)

    p = sub.add_parser("growth", help="growth-law trend tables at primorials")
    p.add_argument("--kind", required=True, choices=list(mf.GROWTH_KINDS))
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.set_defaults(handler=cmd_growth)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    saved_budget = os.environ.get("FFL_MAX_TABLE")
    try:
        q = _parse_q(args.q)
        cfg = RunConfig(q=q, fmt="json" if args.json else "csv")
        if args.max_table is not None:
            os.environ["FFL_MAX_TABLE"] = str(args.max_table)
        field_of_order(q)
        rows, fieldnames = args.handler(args, cfg)
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    finally:
        if args.max_table is not None:
            if saved_budget is None:
                os.environ.pop("FFL_MAX_TABLE", None)
            else:
                os.environ["FFL_MAX_TABLE"] = saved_budget
    _emit(rows, fieldnames, cfg, args.command)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: compute, specialize, census and catalog export.

Output is byte-deterministic: JSON is emitted with sorted keys and no
timestamps, and every arbitrary-precision coefficient is rendered as a
decimal string.

JSON is written by `_Encoder`, entered as one
`json.dumps(payload, sort_keys=True, indent=2, cls=_Encoder)` call per
document, and its text equals `json.dumps(sort_keys=True, indent=2)` of the
same payload with each `LatticePoly` replaced by its `to_json()["terms"]`.
Payloads carry `LatticePoly` values as they are: each is written as its
term list through one precomputed %-template per nesting depth, and
everything else through a short recursive walk.

Exit codes: 0 success, 1 usage error, 2 oracle mismatch.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .algebra import LatticePoly, LayoutTooLarge, LefschetzPoly
from .kodaira import CATALOG_NAMES, catalog, catalog_to_json
from .oracle import configuration_census, oracle_z_triv
from .zeta import default_prefactor, z_triv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ORACLE_MISMATCH = 2

ORDER_ENV_VAR = "HEIGHTZETA_ORDER"
DEFAULT_ORDER = 24


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_MONO_RE = re.compile(r"^(?:(-?\d+)\*?)?(u|L)(?:\^(-?\d+))?$|^(-?\d+)$")


def _parse_lefschetz_term(text):
    text = text.strip()
    neg = False
    if text.startswith("-"):
        neg, text = True, text[1:].strip()
    m = _MONO_RE.match(text)
    if m is None or (m.group(2) == "u"):
        raise UsageError(f"bad prefactor term {text!r}")
    if m.group(4) is not None:
        poly = LefschetzPoly({0: int(m.group(4))})
    else:
        coef = int(m.group(1)) if m.group(1) else 1
        exp = int(m.group(3)) if m.group(3) else 1
        poly = LefschetzPoly({exp: coef})
    return -poly if neg else poly


def _parse_rational(flag, text):
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag} must be a rational number, got {text!r}") from None


def parse_prefactor(text) -> LatticePoly:
    """Parse the prefactor mini-syntax: a '*'-separated product of a
    u-power, integers, L-powers and parenthesized L-polynomials,
    e.g. 'u^2*L' or 'u^2*(L^12-L^11)'."""
    result = LatticePoly.one()
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise UsageError(f"bad prefactor {text!r}")
        if factor == "u":
            result = result * LatticePoly.monomial(1)
        elif factor.startswith("u^"):
            try:
                exp = int(factor[2:])
            except ValueError:
                raise UsageError(f"bad u-power {factor!r}") from None
            if exp < 0:
                raise UsageError("u-exponents must be non-negative")
            result = result * LatticePoly.monomial(exp)
        elif factor.startswith("(") and factor.endswith(")"):
            body = factor[1:-1]
            # split on top-level +/- while keeping signs
            terms = re.findall(r"[+-]?[^+-]+", body.replace(" ", ""))
            poly = LefschetzPoly.zero()
            for term in terms:
                poly = poly + _parse_lefschetz_term(term)
            result = result * poly
        else:
            result = result * _parse_lefschetz_term(factor)
    return result


@lru_cache(maxsize=None)
def _term_template(nl):
    """One LatticePoly term as indented JSON, for a term whose line starts
    with `nl` (newline plus indentation)."""
    inner = nl + "  "
    return f'{{{inner}"L": %d,{inner}"c": "%s",{inner}"u": %d{nl}}}'


def _walk(obj, nl, out):
    """Append the indent=2 JSON text of `obj`, which starts on the line
    `nl` (newline plus indentation) opens, to the list `out`."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, LatticePoly):
        if not obj.terms:
            out.append("[]")
            return
        inner = nl + "  "
        tmpl = _term_template(inner)
        out.append("[" + inner)
        out.append(("," + inner).join([
            tmpl % (l_exp, v, u_exp)
            for u_exp, lef in sorted(obj.terms.items())
            for l_exp, v in sorted(lef.terms.items())]))
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _walk(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _walk(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} "
                        f"is not JSON serializable")


class _Encoder(json.JSONEncoder):
    """Writes what `json.dumps(..., sort_keys=True, indent=2)` writes, and
    `LatticePoly` values as their `to_json()["terms"]` lists; only valid
    with those two settings."""

    def encode(self, o):
        out = []
        _walk(o, "\n", out)
        return "".join(out)


def _emit(payload, fmt, rows=None):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, cls=_Encoder))
    elif fmt == "csv":
        for row in rows:
            print(",".join(str(x) for x in row))
    else:
        for line in rows:
            print(line)


def _compute_rows(series, fmt):
    if fmt == "csv":
        rows = [("s_degree", "u_exp", "L_exp", "coefficient")]
        for n, c in enumerate(series.coeffs):
            for u_exp, lef in c.sorted_terms():
                for l_exp, v in lef.sorted_terms():
                    rows.append((n, u_exp, l_exp, v))
        return rows
    return [f"s^{n}: {c}" for n, c in enumerate(series.coeffs)]


def cmd_compute(args):
    cat = catalog(args.catalog)
    prefactor = (parse_prefactor(args.prefactor) if args.prefactor
                 else default_prefactor(cat))
    result = z_triv(cat, args.order, prefactor)
    if args.check_oracle:
        reference = oracle_z_triv(cat, args.order, prefactor)
        if result.series != reference:
            print("oracle mismatch: Euler product and symmetric-power "
                  "expansion disagree", file=sys.stderr)
            return EXIT_ORACLE_MISMATCH
    payload = {
        "catalog": cat.name,
        "order": args.order,
        "prefactor": {"terms": prefactor},
        "series": [{"s": n, "terms": c}
                   for n, c in enumerate(result.series.coeffs)],
        "t_series": [{"n": i, "terms": c}
                     for i, c in enumerate(result.t_series)],
        "residual_degrees": list(result.residual_degrees),
    }
    rows = None if args.format == "json" else _compute_rows(result.series, args.format)
    _emit(payload, args.format, rows)
    return EXIT_OK


def cmd_specialize(args):
    cat = catalog(args.catalog)
    prefactor = (parse_prefactor(args.prefactor) if args.prefactor
                 else default_prefactor(cat))
    u_val = _parse_rational("--u", args.u)
    l_val = _parse_rational("--L", args.L)
    if l_val == 0:
        raise UsageError("L=0 is not allowed: negative L-exponents may occur")
    result = z_triv(cat, args.order, prefactor)
    series = result.series.specialize(u_val=u_val, L_val=l_val)
    full = u_val is not None and l_val is not None
    if full:
        entries = [{"s": n, "value": str(c.constant())}
                   for n, c in enumerate(series.coeffs)]
    else:
        entries = [{"s": n, "terms": c} for n, c in enumerate(series.coeffs)]
    payload = {
        "catalog": cat.name,
        "order": args.order,
        "u": str(u_val) if u_val is not None else None,
        "L": str(l_val) if l_val is not None else None,
        "series": entries,
    }
    rows = None
    if args.format == "table":
        # a partial substitution shows the repr of its JSON term list
        rows = [f"s^{e['s']}: "
                f"{e['value'] if full else e['terms'].to_json()['terms']}"
                for e in entries]
    _emit(payload, args.format, rows)
    return EXIT_OK


def cmd_census(args):
    cat = catalog(args.catalog)
    report = configuration_census(cat, args.max_degree)
    rows = []
    for row in report["degrees"]:
        flags = f", flagged={len(row['flagged'])}" if row["flagged"] else ""
        rows.append(f"degree {row['degree']}: count={row['count']}, "
                    f"T={row['t_distribution']}, "
                    f"max_k={row['max_contact_order']}{flags}")
    _emit(report, args.format, rows)
    return EXIT_OK


def cmd_export_catalog(args):
    _emit(catalog_to_json(catalog(args.catalog)), "json")
    return EXIT_OK


def _default_order():
    raw = os.environ.get(ORDER_ENV_VAR)
    if raw is None:
        return DEFAULT_ORDER
    try:
        order = int(raw)
    except ValueError:
        raise UsageError(f"{ORDER_ENV_VAR} must be an integer, got {raw!r}") from None
    if order < 0:
        raise UsageError(f"{ORDER_ENV_VAR} must be non-negative")
    return order


def build_parser():
    parser = _Parser(prog="heightzeta",
                     description="Exact calculator for the lattice-rank-"
                                 "weighted motivic height zeta function of "
                                 "elliptic surfaces over the projective line.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, order=True):
        p.add_argument("--catalog", required=True, choices=CATALOG_NAMES)
        if order:
            p.add_argument("--order", type=int, default=None,
                           help=f"s-truncation order (default {DEFAULT_ORDER}, "
                                f"or ${ORDER_ENV_VAR})")

    p = sub.add_parser("compute", help="expand the Euler product")
    add_common(p)
    p.add_argument("--prefactor", help="prefactor expression, e.g. 'u^2*L'")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--check-oracle", action="store_true",
                   help="cross-check against the symmetric-power expansion")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("specialize", help="substitute rational u and/or L")
    add_common(p)
    p.add_argument("--prefactor")
    p.add_argument("--u", help="rational value for u")
    p.add_argument("--L", help="rational value for L (nonzero)")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_specialize)

    p = sub.add_parser("census", help="enumerate fiber configurations")
    add_common(p, order=False)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("export-catalog", help="dump one catalog as JSON")
    add_common(p, order=False)
    p.set_defaults(func=cmd_export_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "order", 1) is None:
            args.order = _default_order()
        if getattr(args, "order", 0) < 0:
            raise UsageError("--order must be non-negative")
        if getattr(args, "max_degree", 0) < 0:
            raise UsageError("--max-degree must be non-negative")
        return args.func(args)
    except (UsageError, LayoutTooLarge) as exc:
        print(f"heightzeta: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface with bit-exact JSON output.

Exit codes: 0 success, 2 parse error, 3 unsupported input, 4 internal
bound exceeded.  All rationals and other potentially large numbers are
emitted as decimal strings; output is deterministic for identical requests.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .cells import Ball, Cell1, Decomposition, ZP
from .decompose import decompose_set, prepare, prepare_grouped, preserves_balls_report
from .dim import dim_of
from .errors import InternalBoundError, ParseError, UnsupportedInputError
from .kgroup import chi, cv_check
from .measure import (
    ZetaFn,
    decomposition_measure,
    exact_partition_check,
    igusa_zeta,
    measure_of_order,
)
from .oracle import order_tails, verify_laws, verify_partition
from .parser import parse_formula, parse_poly
from .poly import Poly, format_poly

SCHEMA = "padic-cells/1"


def _frac_str(x: Fraction) -> str:
    """The rational as decimal text; UnsupportedInputError where its numerator
    or denominator has more digits than the interpreter converts to text."""
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise UnsupportedInputError(
            f"the answer has a number of more than {limit} digits, past the "
            f"interpreter's int-to-string limit") from None


def _cell_json(cell: Cell1, names: dict[Poly, str],
               orders: dict[frozenset[Poly], list[tuple[Poly, str]]],
               tables: dict[int, dict]) -> dict:
    """The cell as JSON.  A rootless tie group of `prepare_grouped` is one
    family cell: its `m_range` is the one sphere {lo: m*, hi: m*, step: 1}
    and its `residue` the first digits of its classes, {depth: 1, units}.
    Across one payload, `names` caches `format_poly`, `orders` the ordered
    law table of each set of polynomials (the cells of one decomposition
    mostly carry laws for the same polynomials), and `tables` the JSON of
    each law table, keyed by the table's identity: a table is never
    mutated, the cells a formula's splits cut from one cell share one, and
    every cell of the payload stays alive while it is built."""
    center = cell.center
    if center.is_rational:
        cj = {"type": "rational", "value": _frac_str(center.value)}
    else:
        r = center.value
        cj = {
            "type": "hensel-root",
            "witness": _name(r.witness, names),
            "approx": _frac_str(r.approx),
            "precision": r.precision,
            "rv_tag": {
                "depth": r.rv_tag.depth,
                "valuation": r.rv_tag.valuation,
                "unit": r.rv_tag.unit,
            },
        }
    if center.term is not None:
        cj["term"] = str(center.term)
    laws = tables.get(id(cell.laws))
    if laws is None:
        polys = frozenset(cell.laws)
        order = orders.get(polys)
        if order is None:
            # the one place laws are ordered: text output prints them in this order
            order = orders[polys] = [(f, _name(f, names))
                                     for f in sorted(polys, key=lambda f: f.coeffs)]
        table = cell.laws
        laws = tables[id(table)] = {name: {"e0": str(table[f].e0), "i0": table[f].i0}
                                    for f, name in order}
    out = {
        "kind": cell.kind,
        "center": cj,
        "level": center.level,
        "keep": cell.keep,
        "laws": laws,
    }
    if cell.is_point:
        out["m_range"] = "point"
        out["residue"] = None
    else:
        rng = cell.m_range
        out["m_range"] = {"lo": rng.lo, "hi": rng.hi, "step": rng.step}
        out["residue"] = {
            "depth": cell.residues.depth,
            "units": "all" if cell.residues.is_all
            else [str(u) for u in cell.residues.members()],
        }
    return out


def _name(f: Poly, names: dict[Poly, str]) -> str:
    name = names.get(f)
    if name is None:
        name = names[f] = format_poly(f)
    return name


def _zeta_json(z: ZetaFn) -> dict:
    return {
        "num": [_frac_str(c) for c in z.num.coeffs],
        "den": [_frac_str(c) for c in z.den.coeffs],
        "t": "p^-s",
    }


def _chi_json(element) -> list:
    out = []
    for (shape, grade), mult in element.parts:
        orders = "*".join("H" if x is None else f"len:{x}" for x in shape.order_parts)
        out.append({
            "residues": shape.residue_count,
            "orders": orders if orders else "point",
            "grade": grade,
            "mult": mult,
        })
    return out


def _parse_domain(text: str) -> Ball:
    if text == "zp":
        return ZP
    try:
        center, radius = text.split(":")
        return Ball(Fraction(center), int(radius))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed domain {text!r}: expected zp or CENTER:RADIUS_ORD") from None


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        _print_text(payload)


def _print_text(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in payload:
        value = payload[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_text(value, indent + 1)
        elif isinstance(value, list):
            print(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    _print_text(item, indent + 1)
                    print(f"{pad}  -")
                else:
                    print(f"{pad}  {item}")
        else:
            print(f"{pad}{key}: {value}")


def _decomposition_for(args, listed: bool = False) -> tuple[Decomposition, Poly | None]:
    """The decomposition of the request's formula, or of its polynomial: by
    `prepare_grouped`, or by `prepare` where `listed`, for `chi`, which
    still reads the cut.  A formula's polynomials are built the same way by
    `decompose_set`."""
    domain = _parse_domain(args.domain)
    if args.poly is not None:
        f = parse_poly(args.poly)
        return (prepare if listed else prepare_grouped)(f, args.prime, domain), f
    phi = parse_formula(args.formula)
    return decompose_set(phi, args.prime, domain, listed=listed), None


def _cmd_decompose(args) -> dict:
    dec, f = _decomposition_for(args)
    names: dict[Poly, str] = {}
    orders: dict[frozenset[Poly], list[tuple[Poly, str]]] = {}
    tables: dict[int, dict] = {}
    payload = {
        "input": args.poly if args.poly is not None else args.formula,
        "k_depth": dec.k_depth,
        "cells": [_cell_json(c, names, orders, tables) for c in dec.cells],
    }
    if args.verify:
        chk = exact_partition_check(dec)
        vp = verify_partition(dec, 4 if args.k is None else args.k)
        payload["verify"] = {
            "exact_disjoint": chk.disjoint,
            "exact_cover": chk.covers,
            "partition_violations": vp.violating_classes,
            "partition_undecided": len(vp.undecided),
        }
        if f is not None:
            given = {k: v for k in ("samples", "seed") if (v := getattr(args, k)) is not None}
            payload["verify"]["law_failures"] = len(verify_laws(dec, f, **given).failures)
    return payload


def _cmd_measure(args) -> dict:
    dec, f = _decomposition_for(args)
    if args.ord is not None:  # main rejects --ord with --formula
        return {"ord": args.ord, "measure": _frac_str(measure_of_order(dec, f, args.ord))}
    return {"measure": _frac_str(decomposition_measure(dec, kept_only=True))}


def _cmd_zeta(args) -> dict:
    dec, f = _decomposition_for(args)
    z = igusa_zeta(dec, f)
    return {"poly": args.poly, "zeta": _zeta_json(z)}


def _cmd_oracle_compare(args) -> dict:
    f = parse_poly(args.poly)
    p = args.prime
    if args.k < 0:
        raise UnsupportedInputError(f"--k = {args.k} is out of range: it must be at least 0")
    domain = _parse_domain(args.domain)
    dec = prepare_grouped(f, p, domain)
    tails = order_tails(f, p, domain, args.k + 1)
    table = []
    agree = True
    for m in range(args.k + 1):
        mu = measure_of_order(dec, f, m)
        oracle = tails[m] - tails[m + 1]
        ok = mu == oracle
        agree = agree and ok
        table.append({"m": m, "cells": _frac_str(mu), "oracle": _frac_str(oracle),
                      "equal": ok})
    return {"poly": args.poly, "agree": agree, "table": table}


def _cmd_chi(args) -> dict:
    return {"chi": _chi_json(chi(_decomposition_for(args, listed=True)[0]))}


def _cmd_cv_check(args) -> dict:
    domain = _parse_domain(args.domain)
    d1 = decompose_set(parse_formula(args.formula), args.prime, domain)
    d2 = decompose_set(parse_formula(args.formula_b), args.prime, domain)
    return {"equal": cv_check(d1, d2)}


def _cmd_dim(args) -> dict:
    d = dim_of(_decomposition_for(args)[0])
    return {"dim": "-inf" if d is None else d}


def _cmd_preserves_balls(args) -> dict:
    dec, f = _decomposition_for(args)
    rep = preserves_balls_report(dec, f)
    return {
        "all_ball_or_point": rep.all_ball_or_point,
        "entries": [
            {"kind": e.cell.kind, "verdict": e.verdict,
             "radius_law": None if e.radius_law is None else
             {"e0": str(e.radius_law.e0), "i0": e.radius_law.i0}}
            for e in rep.entries
        ],
    }


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused: it holds
    no request data, and `parse_args` returns a fresh namespace each time."""
    top = argparse.ArgumentParser(prog="padic-cells")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, *inputs):
        sp.add_argument("--prime", type=int, required=True)
        sp.add_argument("--domain", default="zp",
                        help="zp, or CENTER:RADIUS_ORD for a ball")
        sp.add_argument("--json", action="store_true")
        group = sp.add_mutually_exclusive_group(required=True)
        for flag in inputs:
            group.add_argument(flag)
        sp.set_defaults(usage=sp, poly_only=(), verify_only=())

    sp = sub.add_parser("decompose")
    common(sp, "--poly", "--formula")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--k", type=int, help="scan depth, --verify only (default 4)")
    sp.add_argument("--seed", type=int,
                    help="law-check seed, --verify and --poly only (default 0)")
    sp.add_argument("--samples", type=int,
                    help="law-check samples, --verify and --poly only (default 200)")
    sp.set_defaults(func=_cmd_decompose, poly_only=("seed", "samples"),
                    verify_only=("k", "seed", "samples"))

    sp = sub.add_parser("measure")
    common(sp, "--poly", "--formula")
    sp.add_argument("--ord", type=int, help="measure of ord f = ORD, --poly only")
    sp.set_defaults(func=_cmd_measure, poly_only=("ord",))

    sp = sub.add_parser("zeta")
    common(sp, "--poly")
    sp.set_defaults(func=_cmd_zeta)

    sp = sub.add_parser("oracle-compare")
    common(sp, "--poly")
    sp.add_argument("--k", type=int, default=5)
    sp.set_defaults(func=_cmd_oracle_compare)

    sp = sub.add_parser("chi")
    common(sp, "--poly", "--formula")
    sp.set_defaults(func=_cmd_chi)

    sp = sub.add_parser("cv-check")
    common(sp, "--formula")
    sp.add_argument("--formula-b", required=True)
    sp.set_defaults(func=_cmd_cv_check)

    sp = sub.add_parser("dim")
    common(sp, "--poly", "--formula")
    sp.set_defaults(func=_cmd_dim)

    sp = sub.add_parser("preserves-balls")
    common(sp, "--poly")
    sp.set_defaults(func=_cmd_preserves_balls)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # options that the given input or a missing --verify would leave unread
    for names, needed, read in (
            (args.poly_only, "--poly", getattr(args, "formula", None) is None),
            (args.verify_only, "--verify", getattr(args, "verify", False))):
        ignored = [f"--{name}" for name in names if getattr(args, name) is not None]
        if ignored and not read:
            args.usage.error(f"{', '.join(ignored)}: used only with {needed}")
    try:
        # text mode prints in this order: the header, then the command's keys
        payload = {"schema": SCHEMA, "command": args.command, "prime": args.prime,
                   **args.func(args)}
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedInputError as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return 3
    except InternalBoundError as exc:
        print(f"internal bound exceeded: {exc}", file=sys.stderr)
        return 4
    try:
        _emit(payload, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early: point stdout at devnull so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Build perfbench/expected.json: every pool request with its pinned answer.

    python3 perfbench/make_expected.py

Each request is run once through the CLI and its answer is cross-checked
against a reference independent of the engine before it is written:

- zeta, measure --ord and polynomial decompose: the level-set measures
  mu(ord f = m) from root counts modulo p^k (padic_cells.oracle);
- decompose --verify: additionally the payload's own verify block;
- formula measure and decompose: the bounds of a residue-class scan;
- dim and chi: consistency with the scanned measure (positive measure if
  and only if dimension 1 and a family cell in chi);
- cv-check: equivalence of the formula pair, which holds by construction.

An entry that fails its check stops the build, so the file only pins answers
that passed.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from padic_cells.cli import main as cli_main  # noqa: E402
from padic_cells.poly import Poly, format_poly  # noqa: E402
from run import call_cli  # noqa: E402

VERIFIED = {"exact_disjoint": True, "exact_cover": True,
            "partition_violations": 0, "law_failures": 0}


def _require(ok: bool, entry: dict, what: str) -> None:
    if not ok:
        raise SystemExit(f"{entry['id']} ({' '.join(entry['argv'])}): {what}")


def _scan_depth(p: int) -> int:
    """The scan's depth: classes of measure at most 1e-6."""
    depth = 1
    while p**depth < 10**6:
        depth += 1
    return depth


def _check_poly(entry: dict, answer: dict) -> str:
    coeffs, p, kind = entry["poly"], entry["prime"], entry["kind"]
    if kind == "zeta":
        n = ref.levels(p)
        _require(ref.zeta_series(answer["zeta"], n) == ref.order_measures(coeffs, p, n),
                 entry, "zeta Taylor coefficients differ from the oracle")
        return f"t^0..t^{n - 1} coefficients = oracle level sets"
    if kind == "measure":
        m = entry["ord"]
        _require(Fraction(answer["measure"]) == ref.order_measures(coeffs, p, m + 1)[m],
                 entry, "measure differs from the oracle")
        return "oracle level set"
    want = ref.order_measures(coeffs, p, ref.levels(p))
    _require(answer["measure"] == "1", entry, "cells do not have measure 1")
    _require([Fraction(x) for x in answer["mu_by_ord"]] == want, entry,
             "cell level sets differ from the oracle")
    if kind == "decompose-verify":
        _require(answer["verify"] == VERIFIED, entry, "verify block reports a failure")
        return "verify block; cell level sets = oracle level sets"
    return "cell level sets = oracle level sets"


def _check_formula(entry: dict, answer: dict, scans: dict) -> str:
    p, phi, kind = entry["prime"], entry["formula"], entry["kind"]
    key = (p, json.dumps(phi))
    if key not in scans:
        lo, hi = ref.scan_formula(phi, p, _scan_depth(p))
        rc, out = call_cli(cli_main, ["measure", "--json", "--prime", str(p),
                                      "--formula", workloads.formula_text(phi)])
        _require(rc == 0, entry, f"measure exits {rc}")
        mu = Fraction(json.loads(out)["measure"])
        _require(lo <= mu <= hi, entry, f"measure {mu} outside the scan's [{lo}, {hi}]")
        scans[key] = (lo, hi, mu)
    lo, hi, mu = scans[key]
    scanned = f"residue scan to depth {_scan_depth(p)}"
    if kind == "measure":
        return scanned
    if kind == "decompose":
        _require(answer["measure"] == "1", entry, "cells do not have measure 1")
        _require(lo <= Fraction(answer["kept_measure"]) <= hi, entry,
                 "kept cells outside the scan's bounds")
        return scanned
    if kind == "dim":
        _require((answer["dim"] == 1) == (mu > 0), entry, "dim 1 but measure 0")
        return f"dim 1 iff measure > 0 ({scanned})"
    if kind == "chi":
        families = any(part["grade"] == 1 for part in answer["chi"])
        _require(families == (mu > 0), entry, "family cells but measure 0")
        return f"family cells iff measure > 0 ({scanned})"
    _require(answer["equal"] is True, entry, "cv-check rejects an equivalent pair")
    return "equivalent by construction (De Morgan)"


def build() -> dict:
    scans: dict = {}
    out = {"pool_seed": workloads.POOL_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        pool = workloads.build_pool(name)
        for entry in pool:
            rc, text = call_cli(cli_main, entry["argv"])
            _require(rc == 0, entry, f"exits {rc}")
            if "poly" in entry:
                entry["law_key"] = format_poly(Poly.of(*entry["poly"]))
            answer = entry["answer"] = ref.answer_of(entry, json.loads(text))
            entry["reference"] = (_check_poly(entry, answer) if "poly" in entry
                                  else _check_formula(entry, answer, scans))
        out["workloads"][name] = pool
        print(f"{name}: {len(pool)} requests checked", file=sys.stderr)
    return out


if __name__ == "__main__":
    data = build()
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")

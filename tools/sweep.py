"""Byte-identity sweep: run a fixed list of CLI requests through two source
trees and report every request whose exit code, stdout or stderr differs.

    python3 tools/sweep.py OLD_SRC NEW_SRC        # compare two trees
    python3 tools/sweep.py --digests SRC          # one tree's digests, as JSON
    python3 tools/sweep.py --check SRC            # compare a tree with the manifest
    python3 tools/sweep.py --update SRC           # rewrite the manifest from a tree

OLD_SRC, NEW_SRC and SRC are directories holding a `padic_cells` package
(the `src` directory of a checkout).  Each tree runs in its own process and
calls `padic_cells.cli.main` in process, once per request.  The manifest,
`sweep_manifest.json` beside this script, holds the first 16 hex digits of
each request's digest in request order and a digest of the request list,
so `--check` needs no second tree; it fails, asking for `--update`, when
the request list itself has changed.  The requests:

- the acceptance corpus plus polynomials with irrational roots, rational
  coefficients, repeated factors and split factors, at p in {2, 3, 5, 7,
  11, 13, 31} on Z_p and two balls, as `decompose --json`, `zeta --json`
  and a `measure` of an ac/rv formula;
- `decompose --verify --k 3` on the corpus at p <= 7, in text mode;
- the split polynomials at p in {101, 211, 1009}, as `decompose --json`,
  `zeta --json` and `measure --ord 1`;
- ac and rv formulas whose digits lie outside [0, p^d), as `measure`,
  `decompose` and `cv-check` against the digits reduced mod p^d;
- `chi`, `dim` and `measure` of every polynomial above at p <= 31 on Z_p
  and the two balls, and its `preserves-balls` and `oracle-compare --k 2`
  on Z_p;
- the three benchmark pools of `perfbench/workloads.py` in the order of
  its run seed 1, as they are (`--json`) and in text mode;
- `decompose --verify` on the corpus at p <= 7 with `--samples` and
  `--seed` across their range, and on formulas;
- a seeded fuzz of formulas with two to four atoms of every kind, as
  `decompose`, `measure`, `chi`, `dim` and `cv-check` against the De Morgan
  form, at p in {2, 3, 5, 7, 11};
- the parser-bound inputs that CI also runs through the entry point;
- the requests of PINS that no section above makes.

`tests/test_output_pins.py` runs a slice of these requests in process and
checks each against the manifest entry at its index, so Tier-1 and CI read
one record of what a request prints.

The exit status is 1 when some request differs.  The manifest holds on
Python 3.10, 3.11 and 3.12: `--check src` prints the same digests on each.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys

CORPUS = [
    "y", "y^2", "y^3", "y^2 - 1", "y^2 - 2", "y^2 - 3", "y^2 - 5", "y^2 - 7", "y^3 - y",
    "(y - 1)^2*(y + 1)", "y + 1", "2*y + 1", "3*y - 2", "y^2 + 1", "y^2 + y + 1", "y^2 - 6",
    "y^3 - 2", "y^3 + y + 1", "y^3 - y^2 + 20", "y^4 - 1", "y^4 - 2", "y^4 + y^2 + 1",
    "(y^2 - 1)^2", "17*y^4 - 20*y^3 + 3*y - 19", "y^4 - y",
]
EXTRA = [
    "y^3 - y - 1", "(y^2 - 2)*(y^2 - 3)", "y^5 - 3", "(y^3 - 2)*(y^2 - 7)",
    "3*y^5 - 25*y^3 + 90*y + 1", "y^2 - 2*y + 4", "2*y^2 - 1/3", "25*y^2 - 5",
    "(y^2 - 2)^2*(y - 1)",
]
SPLIT = [
    "(y^2 - 1)^3", "y^4 - 17*y^3 + 5*y^2 + 737*y - 726", "3*y^3 + 15*y^2 - 54*y - 216",
    "y^2 - 9*y + 8", "3*y^2 - 15*y - 108", "y^2 - 1", "(y - 2)*(y + 5)*(y - 7)",
]
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 31)
LARGE_PRIMES = (101, 211, 1009)
DOMAINS = ("zp", "1:1", "3:2")
HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "sweep_manifest.json")
FUZZ_SEED = 20061024
FUZZ_POLYS = ["y", "y - 1", "y + 1", "2*y - 1", "y^2 - 1", "y^2 - 2", "y^2 + 1", "y^2 - y",
              "y^3 - y", "3*y^2 - 1/3"]
# Outputs that `tests/test_output_pins.py` checks by name: the two factored
# corpus entries written out expanded, which `decompose` echoes as its input;
# ten formulas of two to four atoms, nine of them from the formulas pool; and
# text output of `decompose`, `zeta` and `chi`.
PINS = [
    *(["decompose", "--json", "--prime", str(p), "--poly", f]
      for f in ("y^3 - y^2 - y + 1", "y^4 - 2*y^2 + 1") for p in (2, 3, 5, 7)),
    *(["decompose", "--json", "--prime", str(p), "--formula", phi] for p, phi in (
        (3, "(rv(1, y^2 - y) = (2, 2) | ((ord(y^2 - y) % 3 = 1 | rv(1, y^2 - y) = (2, 2)) "
            "& rv(3, y^2 - y) = (0, 10)))"),
        (3, "(!(ord(y^2 - 2) <= 2) & (ac(2, 2*y + 1) = 4 | rv(2, y^2 - 2) = (1, 7)))"),
        (5, "(ord(y^2 + 1) <= 3 | rv(3, y^2 + 1) = (0, 82))"),
        (5, "(ord(y) > 2 & (rv(1, y + 1) = (0, 1) & ord(y + 1) = ord(y) + 1))"),
        (5, "(((!(ord(y^2 - y) >= 3) & ord(y^2 - y) % 2 = 1) & ac(1, y^2 - y) = 1) "
            "| ord(y + 1) < 3)"),
        (7, "(((ord(2*y + 1) <= ord(y^2 - 1) + 1 & rv(3, y^2 - 1) = (0, 93)) "
            "| !(ac(2, 2*y + 1) = 19)) & ord(y^2 - 1) <= 1)"),
        (7, "(ac(3, y + 1) = 158 | ord(y^2 + 1) = 3)"),
        (7, "(ac(2, y^2 - 2) = 10 & ord(y - 3) % 2 = 1)"),
        (11, "(((ord(y - 2) <= ord(y^2 - 2) + 2 & ord(y - 2) < ord(y^2 - 2) - 1) "
             "& ord(y^2 - 2) >= ord(y - 2) - 1) | ord(y^2 - 2) > 1)"),
        (11, "(!(rv(1, y - 1) = (0, 10)) | (ord(y - 2) <= ord(y - 1) - 1 & ac(1, y - 1) = 1))"),
    )),
    ["decompose", "--prime", "5", "--poly", "y^3 - y"],
    ["decompose", "--prime", "3", "--poly", "(y^2-1)^2", "--domain", "1:1"],
    ["decompose", "--prime", "3", "--formula", "ord(y^2-1) >= ord(2*y+1) + 1"],
    ["decompose", "--prime", "7", "--formula", "(ac(2, y^2 - 2) = 10 & ord(y - 3) % 2 = 1)"],
    ["zeta", "--prime", "5", "--poly", "(y^2-1)^2"],
    ["chi", "--prime", "5", "--formula", "ord(y^2 - 1) >= 1"],
]


def ac_rv_formula(f: str, p: int) -> str:
    """The formula whose measure the sweep takes for each polynomial f."""
    return f"ac(1, {f}) = 1 | rv(2, {f}) = (1, {p + 1})"


def requests() -> list[list[str]]:
    out = []
    for f in CORPUS + EXTRA + SPLIT:
        for p in SMALL_PRIMES:
            head = ["--prime", str(p)]
            for domain in DOMAINS:
                at = [*head, "--domain", domain]
                out.append(["decompose", "--json", *at, "--poly", f])
                out.append(["zeta", "--json", *at, "--poly", f])
                out.append(["measure", "--json", *at, "--formula", ac_rv_formula(f, p)])
    for f in CORPUS:
        for p in (2, 3, 5, 7):
            out.append(["decompose", "--verify", "--k", "3", "--prime", str(p), "--poly", f])
    for f in SPLIT:
        for p in LARGE_PRIMES:
            head = ["--json", "--prime", str(p), "--poly", f]
            out += [["decompose", *head], ["zeta", *head], ["measure", "--ord", "1", *head]]
    for p in (3, 5, 7):
        for d in (1, 2):
            q = p**d
            for f in ("y", "y - 1", "y^2 - 1"):
                for m, u in ((0, q + 1), (1, 3 * q - 1), (0, -1)):
                    head = ["--json", "--prime", str(p)]
                    rv, ac = f"rv({d}, {f}) = ({m}, {u})", f"ac({d}, {f}) = {u}"
                    out.append(["measure", *head, "--formula", rv])
                    out.append(["decompose", *head, "--formula", rv])
                    out.append(["cv-check", *head, "--formula", rv,
                                "--formula-b", f"rv({d}, {f}) = ({m}, {u % q})"])
                    out.append(["cv-check", *head, "--formula", ac,
                                "--formula-b", f"ac({d}, {f}) = {u % q}"])
    for f in CORPUS + EXTRA + SPLIT:
        for p in SMALL_PRIMES:
            for domain in DOMAINS:
                at = ["--json", "--prime", str(p), "--domain", domain, "--poly", f]
                out += [["chi", *at], ["dim", *at], ["measure", *at]]
            at = ["--json", "--prime", str(p), "--poly", f]
            out += [["preserves-balls", *at], ["oracle-compare", "--k", "2", *at]]
    for argv in _pool_requests():
        out += [argv, [a for a in argv if a != "--json"]]
    for n, f in enumerate(CORPUS):
        for p in (2, 3, 5, 7):
            for samples, seed in ((1, n), (37, 2**31 - 1 - n), (1000, p * n)):
                out.append(["decompose", "--json", "--verify", "--k", "2", "--samples",
                            str(samples), "--seed", str(seed), "--prime", str(p), "--poly", f])
    out += _fuzz_requests(random.Random(FUZZ_SEED))
    out += _parser_bound_requests()
    out += PINS
    return list(map(list, dict.fromkeys(map(tuple, out))))


def _pool_requests() -> list[list[str]]:
    """The requests of the three benchmark pools, in the order of run seed 1.
    `perfbench/workloads.py` is loaded from its file, so that the sweep's
    callers, Tier-1 among them, keep their import path."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(HERE, os.pardir, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    return [argv for name in workloads.WORKLOADS
            for _, argv in workloads.requests(workloads.build_pool(name), 1)]


def _fuzz_atom(rng: random.Random, p: int) -> str:
    f, g = rng.choice(FUZZ_POLYS), rng.choice(FUZZ_POLYS)
    rel = rng.choice(("<", "<=", "=", ">=", ">"))
    kind = rng.randrange(7)
    if kind == 0:
        return f"ord({f}) {rel} {rng.randint(-1, 4)}"
    if kind == 1:
        return f"ord({f}) {rel} ord({g}) + {rng.randint(-1, 2)}"
    if kind == 2:
        q = rng.randint(1, 3)
        return f"ord({f}) % {q} = {rng.randrange(q)}"
    d = rng.randint(1, 2)
    u = rng.randint(-p, p**d + p)
    if kind == 3:
        return f"ac({d}, {f}) = {u}"
    if kind == 4:
        return f"rv({d}, {f}) = ({rng.randint(-1, 3)}, {u})"
    if kind == 5:
        return f"rv({d}, {f}) = 0"
    return f"{f} = 0"


def _fuzz_formula(rng: random.Random, p: int, atoms: int) -> tuple[str, str]:
    """A formula of `atoms` atoms joined by & and |, some negated, and the
    same set in De Morgan form."""
    phi = _fuzz_atom(rng, p)
    for _ in range(atoms - 1):
        other = _fuzz_atom(rng, p)
        if rng.random() < 0.3:
            other = f"!({other})"
        op = rng.choice("&|")
        phi, last, left = f"({phi} {op} {other})", other, phi
    dual = "|" if op == "&" else "&"
    return phi, f"!(!({last}) {dual} !({left}))"


def _fuzz_requests(rng: random.Random) -> list[list[str]]:
    out = []
    for n in range(300):
        p = (2, 3, 5, 7, 11)[n % 5]
        phi, same = _fuzz_formula(rng, p, rng.randint(2, 4))
        head = ["--prime", str(p)] + (["--json"] if n % 3 else [])
        if n % 7 == 0:
            head += ["--domain", rng.choice(DOMAINS[1:])]
        for command in ("decompose", "measure", "chi", "dim"):
            out.append([command, *head, "--formula", phi])
        out.append(["cv-check", *head, "--formula", phi, "--formula-b", same])
        if n % 10 == 0:
            out.append(["decompose", "--verify", "--k", "3", *head, "--formula", phi])
    return out


def _parser_bound_requests() -> list[list[str]]:
    """Inputs past the parser's bounds, or with answers past the
    interpreter's int-to-string limit: each exits 2 or 3."""
    nested = "(" * 2000 + "y" + ")" * 2000
    return [
        ["measure", "--prime", "5", "--poly", "y + 1/0"],
        ["measure", "--prime", "5", "--formula", "ord(y - 1/0) >= 0"],
        ["measure", "--prime", "5", "--poly", "y^" + "1" * 5000],
        ["measure", "--prime", "5", "--poly", "3" * 5000 + "*y"],
        ["decompose", "--prime", "5", "--poly", f"({'9' * 50}*y+1)^100"],
        ["measure", "--prime", "5", "--poly", nested],
        ["decompose", "--prime", "5", "--formula", "!" * 3000 + "y = 0"],
        ["measure", "--prime", "5", "--poly=" + "-" * 1500 + "y"],
        ["measure", "--prime", "5", "--formula", "ord(y) >= 0" + " & ord(y) >= 0" * 1499],
        ["measure", "--prime", "5", "--formula", "ord(y) >= 7000"],
        ["measure", "--prime", "5", "--poly", "y", "--ord", "100000"],
    ]


def request_digest(argv: list[str]) -> str:
    """sha256 of [exit code, stdout, stderr] of one request, run in process
    through the `padic_cells` on the path."""
    from padic_cells.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    text = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def digests(src: str) -> dict[str, str]:
    """`request_digest` of every request, by request, for the tree src."""
    sys.path.insert(0, src)
    return {json.dumps(argv): request_digest(argv) for argv in requests()}


def _tree_digests(src: str) -> dict[str, str]:
    """`digests` of a tree, computed in a process of its own."""
    return json.loads(subprocess.run([sys.executable, os.path.abspath(__file__), "--digests",
                                      os.path.abspath(src)], check=True, capture_output=True,
                                     text=True).stdout)


def request_list_digest() -> str:
    return hashlib.sha256(json.dumps(requests()).encode()).hexdigest()[:16]


def main() -> int:
    args = sys.argv[1:]
    flag = args.pop(0) if args[:1] and args[0].startswith("--") else None
    if flag not in (None, "--digests", "--check", "--update") or \
            len(args) != (2 if flag is None else 1):
        raise SystemExit(__doc__)
    if flag == "--digests":
        json.dump(digests(args[0]), sys.stdout)
        return 0
    if flag in ("--check", "--update"):
        new = {argv: digest[:16] for argv, digest in _tree_digests(args[0]).items()}
        if flag == "--update":
            with open(MANIFEST, "w") as out:
                json.dump({"requests": request_list_digest(), "digests": list(new.values())},
                          out, indent=0)
                out.write("\n")
            print(f"{len(new)} digests written to {MANIFEST}")
            return 0
        with open(MANIFEST) as manifest:
            want = json.load(manifest)
        if want["requests"] != request_list_digest():
            print(f"the request list is not the one {MANIFEST} was written for: "
                  "rerun with --update on a tree whose output is known to be right")
            return 1
        old = dict(zip(new, want["digests"]))
    else:
        old, new = (_tree_digests(src) for src in args)
    changed = [argv for argv in old if old[argv] != new.get(argv)]
    by_command: dict[str, list[str]] = {}
    for argv in changed:
        by_command.setdefault(json.loads(argv)[0], []).append(argv)
    for command, argvs in sorted(by_command.items()):
        print(f"{command}: {len(argvs)} changed")
        for argv in argvs:
            print(f"  {' '.join(json.loads(argv)[1:])}")
    print(f"{len(old)} requests, {len(changed)} changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

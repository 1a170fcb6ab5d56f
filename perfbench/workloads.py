"""Workload pools and the seeded request generator.

Each workload is a fixed pool of CLI requests, built by `build_pool` from a
constant pool seed so that the committed expected answers (expected.json)
cover every request the benchmark can issue.  A run's request list comes
from `requests(pool, seed)`: the seed fixes the order of the pool and, where
the CLI takes a sampling seed of its own, that seed.  Every run therefore
does the same work, which keeps figures from runs with different seeds
comparable.

This module imports nothing from padic_cells: polynomials and formulas are
kept as integer coefficient lists and small trees, and rendered to the CLI's
surface syntax here.
"""

from __future__ import annotations

import random

WORKLOADS = ("corpus-verify", "large-prime", "formulas")

POOL_SEED = 20061001

# The acceptance corpus of tests/conftest.py: degree 1..4, coefficients in
# [-20, 20], constant term first.
CORPUS = [
    [0, 1], [0, 0, 1], [0, 0, 0, 1], [-1, 0, 1], [-2, 0, 1], [-3, 0, 1],
    [-5, 0, 1], [-7, 0, 1], [0, -1, 0, 1], [1, -1, -1, 1], [1, 1], [1, 2],
    [-2, 3], [1, 0, 1], [1, 1, 1], [-6, 0, 1], [-2, 0, 0, 1], [1, 1, 0, 1],
    [20, 0, -1, 1], [-1, 0, 0, 0, 1], [-2, 0, 0, 0, 1], [1, 0, 1, 0, 1],
    [1, 0, -2, 0, 1], [-19, 3, 0, -20, 17], [0, -1, 0, 0, 1],
]
CORPUS_PRIMES = (2, 3, 5, 7)
VERIFY_K = 5
VERIFY_SAMPLES = 200

LARGE_PRIMES = (31, 101)
FORMULA_PRIMES = (3, 5, 7, 11)


# ---------------------------------------------------------------------------
# Surface syntax.
# ---------------------------------------------------------------------------


def poly_text(coeffs: list[int]) -> str:
    """Integer coefficients (constant first) as CLI polynomial syntax."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "y" if i == 1 else f"y^{i}"
            body = var if mag == 1 else f"{mag}*{var}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return " ".join(parts) if parts else "0"


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def formula_text(phi) -> str:
    """A formula tree as CLI formula syntax.

    Trees are ("atom", atom) | ("not", sub) | ("and", a, b) | ("or", a, b);
    atoms are dicts whose "kind" is ord_c, ord_cmp, ord_mod, ac or rv.
    """
    tag = phi[0]
    if tag == "atom":
        return _atom_text(phi[1])
    if tag == "not":
        return f"!({formula_text(phi[1])})"
    op = " & " if tag == "and" else " | "
    return f"({formula_text(phi[1])}{op}{formula_text(phi[2])})"


def _atom_text(atom: dict) -> str:
    f = poly_text(atom["f"])
    kind = atom["kind"]
    if kind == "ord_c":
        return f"ord({f}) {atom['rel']} {atom['c']}"
    if kind == "ord_cmp":
        c = atom["c"]
        off = f" + {c}" if c > 0 else f" - {-c}" if c < 0 else ""
        return f"ord({f}) {atom['rel']} ord({poly_text(atom['g'])}){off}"
    if kind == "ord_mod":
        return f"ord({f}) % {atom['q']} = {atom['r']}"
    if kind == "ac":
        return f"ac({atom['d']}, {f}) = {atom['u']}"
    return f"rv({atom['d']}, {f}) = ({atom['m']}, {atom['u']})"


def equivalent(phi):
    """The same set written differently: De Morgan at the root (an & or an
    |), with the operands swapped."""
    op = "or" if phi[0] == "and" else "and"
    return ("not", (op, ("not", phi[2]), ("not", phi[1])))


# ---------------------------------------------------------------------------
# Pools.
# ---------------------------------------------------------------------------


def _entry(kind: str, argv: list[str], **extra) -> dict:
    return {"id": "", "kind": kind, "argv": argv, **extra}


def _corpus_verify(rng: random.Random) -> list[dict]:
    out = []
    for coeffs in CORPUS:
        for p in CORPUS_PRIMES:
            argv = ["decompose", "--json", "--verify", "--k", str(VERIFY_K),
                    "--samples", str(VERIFY_SAMPLES), "--prime", str(p),
                    "--poly", poly_text(coeffs)]
            out.append(_entry("decompose-verify", argv, poly=coeffs, prime=p))
    return out


def _poly_requests(coeffs: list[int], p: int, m: int) -> list[dict]:
    """zeta, measure --ord m and decompose of one polynomial."""
    head = ["--json", "--prime", str(p)]
    text = ["--poly", poly_text(coeffs)]
    return [_entry("zeta", ["zeta", *head, *text], poly=coeffs, prime=p, ord=None),
            _entry("measure", ["measure", *head, "--ord", str(m), *text],
                   poly=coeffs, prime=p, ord=m),
            _entry("decompose", ["decompose", *head, *text], poly=coeffs, prime=p,
                   ord=None)]


def _large_prime(rng: random.Random) -> list[dict]:
    """y^2 - 1, (y^2 - 1)^3 and random products of 2, 2, 3 and 4 linear
    factors over Z (so every root lies in Z_p), at p = 31 and 101."""
    polys = [[-1, 0, 1], [-1, 0, 3, 0, -3, 0, 1]]
    for degree in (2, 2, 3, 4):
        f = [rng.choice([1, 1, 2, 3])]
        for _ in range(degree):
            f = poly_mul(f, [-rng.randint(-12, 12), 1])
        polys.append(f)
    out = []
    for f in polys:
        for p in LARGE_PRIMES:
            out += _poly_requests(f, p, rng.randint(0, 2))
    return out


_FORMULA_POLYS = [
    [0, 1], [-1, 1], [1, 1], [-2, 1], [1, 2], [-1, 0, 1], [0, -1, 1],
    [1, 0, 1], [-2, 0, 1], [-3, 1, 1],
]


def _random_atom(rng: random.Random, p: int, polys: list) -> dict:
    f, g = rng.sample(polys, 2)
    kind = rng.choice(["ord_c", "ord_c", "ord_cmp", "ord_mod", "ac", "rv"])
    rel = rng.choice(["<", "<=", "=", ">=", ">"])
    if kind == "ord_c":
        return {"kind": kind, "f": f, "rel": rel, "c": rng.randint(0, 3)}
    if kind == "ord_cmp":
        return {"kind": kind, "f": f, "g": g, "rel": rel, "c": rng.randint(-1, 2)}
    if kind == "ord_mod":
        q = rng.randint(2, 3)
        return {"kind": kind, "f": f, "q": q, "r": rng.randrange(q)}
    d = rng.randint(1, 3 if p <= 7 else 2)
    u = rng.choice([x for x in range(1, p**d) if x % p])
    if kind == "ac":
        return {"kind": kind, "f": f, "d": d, "u": u}
    return {"kind": kind, "f": f, "d": d, "m": rng.randint(0, 2), "u": u}


def _random_formula(rng: random.Random, p: int, atoms: int):
    """2..4 atoms about two polynomials, joined by & and |, some negated."""
    polys = rng.sample(_FORMULA_POLYS, 2)
    phi = ("atom", _random_atom(rng, p, polys))
    for _ in range(atoms - 1):
        other = ("atom", _random_atom(rng, p, polys))
        if rng.random() < 0.25:
            other = ("not", other)
        phi = (rng.choice(["and", "or"]),) + ((phi, other) if rng.random() < 0.5
                                              else (other, phi))
    return phi


def _formulas(rng: random.Random) -> list[dict]:
    out = []
    for p in FORMULA_PRIMES:
        for _ in range(5):
            phi = _random_formula(rng, p, rng.randint(2, 4))
            text = formula_text(phi)
            for cmd in ("decompose", "measure", "chi", "dim"):
                argv = [cmd, "--json", "--prime", str(p), "--formula", text]
                out.append(_entry(cmd, argv, formula=phi, prime=p))
            argv = ["cv-check", "--json", "--prime", str(p), "--formula", text,
                    "--formula-b", formula_text(equivalent(phi))]
            out.append(_entry("cv-check", argv, formula=phi, prime=p))
    return out


_BUILDERS = {
    "corpus-verify": _corpus_verify,
    "large-prime": _large_prime,
    "formulas": _formulas,
}


def build_pool(workload: str) -> list[dict]:
    """The workload's fixed request pool, each entry with a stable id."""
    entries = _BUILDERS[workload](random.Random(f"{POOL_SEED}:{workload}"))
    for i, e in enumerate(entries):
        e["id"] = f"{workload}/{i:03d}"
    return entries


def requests(pool: list[dict], seed: int) -> list[tuple[str, list[str]]]:
    """The run's (id, argv) list: the pool in a seeded order; requests that
    sample (decompose --verify) get a seeded --seed of their own."""
    rng = random.Random(seed)
    order = list(range(len(pool)))
    rng.shuffle(order)
    out = []
    for i in order:
        e = pool[i]
        argv = list(e["argv"])
        if e["kind"] == "decompose-verify":
            argv += ["--seed", str(rng.randrange(2**31))]
        out.append((e["id"], argv))
    return out

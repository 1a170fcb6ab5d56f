"""What the correctness gate compares, and the references it was checked by.

`answer_of` reduces a CLI payload to the part that expected.json pins.  Cell
lists are not pinned, since a decomposition may change on purpose; what a
decomposition must get right is pinned instead: its total measure and, for
polynomial input, the measure of each level set {ord f = m}, both computed
here from the cells of the JSON payload.

The references below do not use the engine's reasoning.  `order_measures`
counts roots modulo p^k with the brute-force oracle, and `scan_formula`
bounds the measure of a formula's set by a residue-class scan in integer
arithmetic of its own.
"""

from __future__ import annotations

from fractions import Fraction

INF = float("inf")


def levels(p: int) -> int:
    """How many level sets {ord f = m}, m = 0, 1, ..., the gate pins.

    Counting roots mod p^k near a multiple root takes up to p^(k-1) steps,
    so large primes get fewer levels."""
    return 5 if p < 30 else 3


def frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Answers read from CLI payloads.
# ---------------------------------------------------------------------------


def _cell_measure(cell: dict, p: int, m: int | None = None, law_key: str = "") -> Fraction:
    """Haar measure of a family cell, or of its part where ord f = m."""
    rng, res = cell["m_range"], cell["residue"]
    d = res["depth"]
    count = (p - 1) * p ** (d - 1) if res["units"] == "all" else len(res["units"])
    lo, hi, step = rng["lo"], rng["hi"], rng["step"]
    if m is not None:
        law = cell["laws"][law_key]
        if law["e0"] == "inf":
            return Fraction(0)
        e0, i0 = int(law["e0"]), law["i0"]
        if i0 != 0:
            if (m - e0) % i0:
                return Fraction(0)
            my = (m - e0) // i0
            inside = my >= lo and (hi is None or my <= hi) and (my - lo) % step == 0
            return Fraction(count, p ** (my + d)) if inside else Fraction(0)
        if e0 != m:
            return Fraction(0)
    first = Fraction(count, p ** (lo + d))
    ratio = Fraction(1, p**step)
    if hi is None:
        return first / (1 - ratio)
    n = (hi - lo) // step + 1
    return first * (1 - ratio**n) / (1 - ratio)


def cells_measure(cells: list[dict], p: int, m: int | None = None,
                  law_key: str = "", kept_only: bool = False) -> Fraction:
    return sum((_cell_measure(c, p, m, law_key) for c in cells
                if c["m_range"] != "point" and (c["keep"] or not kept_only)),
               Fraction(0))


def answer_of(entry: dict, payload: dict) -> dict:
    """The pinned part of a payload for one pool entry."""
    kind, p = entry["kind"], entry["prime"]
    if kind == "zeta":
        return {"zeta": payload["zeta"]}
    if kind in ("measure", "chi", "dim"):
        return {kind: payload[kind]}
    if kind == "cv-check":
        return {"equal": payload["equal"]}
    cells = payload["cells"]
    out = {"measure": frac_text(cells_measure(cells, p))}
    if "formula" in entry:
        out["kept_measure"] = frac_text(cells_measure(cells, p, kept_only=True))
    else:
        out["mu_by_ord"] = [frac_text(cells_measure(cells, p, m, entry["law_key"]))
                            for m in range(levels(p))]
    if kind == "decompose-verify":
        v = payload["verify"]
        out["verify"] = {k: v[k] for k in ("exact_disjoint", "exact_cover",
                                           "partition_violations", "law_failures")}
    return out


def zeta_series(zeta: dict, n: int) -> list[Fraction]:
    """The first n Taylor coefficients of num/den."""
    num = [Fraction(c) for c in zeta["num"]]
    den = [Fraction(c) for c in zeta["den"]]
    out: list[Fraction] = []
    for k in range(n):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


# ---------------------------------------------------------------------------
# References.
# ---------------------------------------------------------------------------


def order_measures(coeffs: list[int], p: int, n: int) -> list[Fraction]:
    """mu(ord f = m) for m < n, as N_m/p^m - N_{m+1}/p^(m+1) with N_m the
    number of roots of f modulo p^m, counted by the brute-force oracle."""
    from padic_cells.oracle import count_roots_mod
    from padic_cells.poly import Poly

    f = Poly.of(*coeffs)
    counts = [1] + [count_roots_mod(f, p, k) for k in range(1, n + 1)]
    return [Fraction(counts[m], p**m) - Fraction(counts[m + 1], p ** (m + 1))
            for m in range(n)]


def _ord(x: int, p: int):
    if x == 0:
        return INF
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _class_state(coeffs: list[int], a: int, j: int, p: int):
    """f on the class a + p^j Z_p: (lo, hi, unit, depth).

    ord f(y) lies in [lo, hi] on the whole class; when lo == hi the first
    `depth` unit digits of f(y) are `unit` on the whole class."""
    c = list(coeffs)
    n = len(c)
    for i in range(n):  # Taylor shift: coefficients of f(a + t)
        for k in range(n - 2, i - 1, -1):
            c[k] += a * c[k + 1]
    step = p**j
    v0 = _ord(c[0], p)
    tail = min(_ord(ci * step**i, p) for i, ci in enumerate(c) if i >= 1)
    if v0 >= tail:
        return tail, INF, 0, 0
    depth = tail - v0
    return v0, v0, (c[0] // p**v0) % p**depth, depth


def _holds(rel: str, f_lo, f_hi, g_lo, g_hi):
    """Three-valued REL between ord intervals [f_lo, f_hi] and [g_lo, g_hi]."""
    if rel == "<":
        return True if f_hi < g_lo else False if f_lo >= g_hi else None
    if rel == "<=":
        return True if f_hi <= g_lo else False if f_lo > g_hi else None
    if rel == ">":
        return True if f_lo > g_hi else False if f_hi <= g_lo else None
    if rel == ">=":
        return True if f_lo >= g_hi else False if f_hi < g_lo else None
    if f_hi < g_lo or f_lo > g_hi:
        return False
    return True if f_lo == f_hi == g_lo == g_hi != INF else None


def _atom_truth(atom: dict, a: int, j: int, p: int):
    lo, hi, unit, depth = _class_state(atom["f"], a, j, p)
    kind = atom["kind"]
    if kind == "ord_c":
        return _holds(atom["rel"], lo, hi, atom["c"], atom["c"])
    if kind == "ord_cmp":
        g_lo, g_hi, _, _ = _class_state(atom["g"], a, j, p)
        return _holds(atom["rel"], lo, hi, g_lo + atom["c"], g_hi + atom["c"])
    if lo != hi:
        if kind == "rv" and lo > atom["m"]:
            return False
        return None
    if kind == "ord_mod":
        return (lo - atom["r"]) % atom["q"] == 0
    if kind == "rv" and lo != atom["m"]:
        return False
    if depth < atom["d"]:
        return None
    return unit % p ** atom["d"] == atom["u"] % p ** atom["d"]


def _truth(phi, a: int, j: int, p: int):
    """Kleene three-valued truth of a formula tree on a class."""
    tag = phi[0]
    if tag == "atom":
        return _atom_truth(phi[1], a, j, p)
    if tag == "not":
        t = _truth(phi[1], a, j, p)
        return None if t is None else not t
    left = _truth(phi[1], a, j, p)
    if tag == "and" and left is False or tag == "or" and left is True:
        return left
    right = _truth(phi[2], a, j, p)
    if tag == "and":
        return False if right is False else None if None in (left, right) else True
    return True if right is True else None if None in (left, right) else False


def scan_formula(phi, p: int, max_depth: int) -> tuple[Fraction, Fraction]:
    """Bounds [lo, hi] on the measure of {y in Z_p : phi(y)}.

    Classes mod p^j on which the formula is decided count fully (true) or
    not at all (false); undecided classes split into p subclasses down to
    max_depth, where they count towards hi only."""
    true = undecided = Fraction(0)
    stack = [(0, 0)]
    while stack:
        a, j = stack.pop()
        t = _truth(phi, a, j, p)
        if t is True:
            true += Fraction(1, p**j)
        elif t is None:
            if j == max_depth:
                undecided += Fraction(1, p**j)
            else:
                stack.extend((a + s * p**j, j + 1) for s in range(p))
    return true, true + undecided

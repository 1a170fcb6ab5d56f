"""Independent brute-force ground truth for decompositions.

Root counting modulo prime powers by digit-lifting (with two class-level
prunes: when the polynomial vanishes identically to the requested depth, and
when its constant Taylor line is strictly least and below it), exhaustive
cell-membership verification over the domain's residue classes, and
deterministic order-law sampling.  Nothing here consults the cell engine's
reasoning: a cell is read only as data -- its center, valuation range and
digit classes -- and polynomials are evaluated in the oracle's own integer
arithmetic.  The engine is called only to refine an inexact center.

The law check walks each family cell sphere by sphere in one loop.  A
sample y = c' + z p^m around a proxy c' of the cell's center is decided
modulo p^(t+1), where t is the valuation the law claims for the integer
numerator of f(y): one Taylor expansion of that numerator at c' per proxy,
the law's value, t and the weights mod p^(t+1) once per sphere m, and per
sample one draw of deeper digits and one Horner pass in z.  The claim holds
exactly when that residue is nonzero and divisible by p^t; any sample the
residue does not confirm is evaluated in full, so a failure reports the
exact value.  An inexact center is lifted from its last refinement, so the
proxies of ever deeper spheres cost a few Newton doublings per cell.  The
same expansion gives the depth-k bound: c' agrees with the center past m
digits, so the Newton-polygon minimum min_i(ord b_i + i m) is the same at
both.  Samples read the first units of a residue set and one unit of each
of its digit classes, never the whole set, so every class of a rootless tie
group is sampled.  Partition marks are made once per digit class, at the
class's own level: a class a mod p^j on the sphere at m is marked as a
class mod p^(m+j) where m + j <= k, and otherwise flags the one class
mod p^k it partly covers.  The marks are the leaves of a trie of prefixes
walked from the domain's prefix: a prefix with no mark or flag below it
decides its p^(k-j) classes at once, so the check takes time linear in the
marks, not in p^k.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cells import Ball, Cell1, Decomposition, Residues
from .errors import UnsupportedInputError
from .hensel import center_proxy, exact_value, reduce_mod, refine_root
from .padics import INFINITY, MAX_CLASSES, MAX_SAMPLES, Val, ord_p
from .poly import Poly


# ---------------------------------------------------------------------------
# Integer arithmetic: the oracle's own, so that it shares no evaluation code
# with the engine.
# ---------------------------------------------------------------------------


def _ord_int(n: int, p: int) -> int:
    """ord_p of a nonzero integer, in O(log v) divisions for a valuation v:
    the powers p^(2^i) that divide n, then one bit of v per power, largest
    first."""
    if n % p:
        return 0
    powers = [p]
    while n % (sq := powers[-1] * powers[-1]) == 0:
        powers.append(sq)
    v = 0
    for i in range(len(powers) - 1, -1, -1):
        rest, r = divmod(n, powers[i])
        if r == 0:
            n, v = rest, v + (1 << i)
    return v


def _clear_denominators(f: Poly, p: int) -> tuple[list[int], int]:
    """Integers c_i with f = (sum c_i y^i) / L, L the lcm of f's
    denominators, and ord_p(L)."""
    den = lcm(*(c.denominator for c in f.coeffs))
    return [c.numerator * (den // c.denominator) for c in f.coeffs], _ord_int(den, p)


def _require_p_integral(f: Poly, p: int) -> list[int]:
    """The integer coefficients of f with its denominators cleared; rejects
    p-fractional coefficients."""
    coeffs, shift = _clear_denominators(f, p)
    if shift:
        raise UnsupportedInputError("coefficient denominators divisible by p")
    return coeffs


def _residue(x: Fraction, q: int) -> int:
    """The integer 0 <= r < q congruent to x mod q (x's denominator prime to q)."""
    return x.numerator * pow(x.denominator, -1, q) % q


def _eval_mod(coeffs: list[int], y: int, q: int) -> int:
    """sum c_i y^i mod q, by Horner."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * y + c) % q
    return acc


def _taylor_shift(coeffs: list[int], a: int) -> list[int]:
    """The coefficients of f(y + a) for f = sum c_i y^i."""
    b = list(coeffs)
    for i in range(len(b) - 1):
        for j in range(len(b) - 1, i, -1):
            b[j - 1] += a * b[j]
    return b


def _taylor_ords(coeffs: list[int], shift: int, x: Fraction, p: int) -> list[Val]:
    """ord_p of the Taylor coefficients at x = a/b of f = (sum c_i y^i) / L
    with ord_p(L) = shift: with c_j scaled by b^(n-j) and shifted by a,
    coefficient i is h_i / (L b^(n-i))."""
    a, b = x.numerator, x.denominator
    n = len(coeffs) - 1
    hs = _taylor_shift([c * b ** (n - j) for j, c in enumerate(coeffs)], a)
    vb = _ord_int(b, p)
    return [_ord_int(h, p) - shift - (n - i) * vb if h else INFINITY
            for i, h in enumerate(hs)]


def _ord_value(coeffs: list[int], shift: int, num: int, den: int, p: int) -> Val:
    """ord_p f(num/den) for f = (sum c_i y^i) / L with ord_p(L) = shift and
    den nonzero, from den^deg L f(num/den) = sum c_i num^i den^(deg-i)."""
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * power
        power *= den
    if acc == 0:
        return INFINITY
    return _ord_int(acc, p) - shift - (len(coeffs) - 1) * _ord_int(den, p)


def _require_depth(k: int, what: str) -> None:
    """Reject a depth k outside 1..20: past 20, p^k is past MAX_CLASSES for
    every p."""
    if not 1 <= k <= MAX_CLASSES.bit_length():
        raise UnsupportedInputError(
            f"{what} for k from 1 to {MAX_CLASSES.bit_length()}, and k = {k} is out of range")


def count_roots_mod(f: Poly, p: int, k: int, start: tuple[int, int] = (0, 0)) -> int:
    """#{ y mod p^k : y = c mod p^j, f(y) = 0 mod p^k } for start = (c, j)
    with 0 <= j <= k, exact, by digit lifting from the class c mod p^j.

    Raises UnsupportedInputError unless 1 <= k <= 20 (past 20, p^k is past
    MAX_CLASSES for every p) and the lifting tests at most MAX_CLASSES
    classes.  p^k itself may pass MAX_CLASSES: the lifting only follows the
    roots mod p^j."""
    if f.is_zero:
        raise UnsupportedInputError("zero polynomial")
    _require_depth(k, "roots are counted mod p^k")
    c, j = start
    if not 0 <= j <= k:
        raise ValueError(f"the class mod p^{j} is not inside the count mod p^{k}")
    coeffs = _require_p_integral(f, p)

    total = 0
    tested = 0
    c %= p**j
    stack = [(c, j)] if _eval_mod(coeffs, c, p**j) == 0 else []  # (residue, digits fixed)
    while stack:
        c, j = stack.pop()
        if j == k:
            total += 1
            continue
        bs = _taylor_shift(coeffs, c)
        # prune: if f vanishes mod p^k on the whole class, count it wholesale
        # (ord b_i + i*j >= k for every Taylor coefficient b_i at c)
        if all(b % p ** max(k - i * j, 0) == 0 for i, b in enumerate(bs)):
            total += p ** (k - j)
            continue
        # prune: if the constant line ord b_0 is below k and below every
        # other line ord b_i + i*j, then ord f = ord b_0 on the whole class,
        # which holds no root mod p^k
        v0 = _ord_int(bs[0], p) if bs[0] else k
        if v0 < k and all(b % p ** max(v0 + 1 - i * j, 0) == 0 for i, b in enumerate(bs)
                          if i):
            continue
        tested += p
        if tested > MAX_CLASSES:
            raise UnsupportedInputError(
                f"counting the roots mod {p}^{k} tests more than {MAX_CLASSES} classes")
        step = p**j
        q = step * p
        for t in range(p):
            cc = c + t * step
            if _eval_mod(coeffs, cc, q) == 0:
                stack.append((cc, j + 1))
    return total


def order_tails(f: Poly, p: int, domain: Ball, k: int) -> list[Fraction]:
    """mu{y in the ball B(b, r) : ord f(y) >= m} for m = 0..k.

    Past r, the roots mod p^m are counted in the ball's class b mod p^r; up
    to r, f is constant mod p^r on the ball, so the whole ball has
    ord f >= m or none of it does, as f(b) says."""
    coeffs = _require_p_integral(f, p)
    r = domain.radius_ord
    c = _residue(domain.center, p**r)
    tails = []
    for m in range(k + 1):
        if m <= r:
            hit = _eval_mod(coeffs, c, p**m) == 0
            tails.append(Fraction(1, p**r) if hit else Fraction(0))
        else:
            tails.append(Fraction(count_roots_mod(f, p, m, (c, r)), p**m))
    return tails


# ---------------------------------------------------------------------------
# Partition verification over residue classes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionReport:
    prime: int
    depth: int
    # (level j, residue a mod p^j, covering cells, classes): that many
    # classes mod p^k inside a mod p^j, each covered that many times
    violations: tuple[tuple[int, int, int, int], ...]
    undecided: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violating_classes(self) -> int:
        return sum(classes for *_, classes in self.violations)


def _center_mod(cell: Cell1, k: int) -> int:
    """The center reduced mod p^k (centers of Z_p-cells are p-integral)."""
    return _residue(center_proxy(cell.center.value, cell.prime, k + 2), cell.prime**k)


def _mark_count(cell: Cell1, k: int) -> int:
    """The marks and flags `_mark_cell` makes for the cell at depth k: one
    per digit class per value of its range below k, and one flag for a
    point or a range that reaches k."""
    if cell.is_point:
        return 1
    rng, res = cell.m_range, cell.residues
    below = 0 if rng.lo >= k else (
        (k - 1 if rng.hi is None else min(rng.hi, k - 1)) - rng.lo) // rng.step + 1
    classes = res.p - 1 if res.is_all else len(res.classes)
    return below * classes + (rng.hi is None or rng.hi >= k)


def _mark_cell(cell: Cell1, k: int, marks: list[Counter], flags: set[int]) -> None:
    """Mark every class the cell decidedly contains once, as a class mod p^j
    in marks[j] at the level j where its constraint ends (all its lifts mod
    p^k are inside), and flag the classes mod p^k it only partially covers
    at this depth.  A digit class (j, a) on the sphere at m is the class
    c + a p^m mod p^(m+j): marked at m + j where that fits in k, and else
    inside one class mod p^k, which it only partly covers."""
    p, c_mod = cell.prime, _center_mod(cell, k)
    if cell.is_point:
        flags.add(c_mod)
        return
    rng = cell.m_range
    if rng.hi is None or rng.hi >= k:
        flags.add(c_mod)  # the cell has members inside the center's class
    if cell.residues.is_all:
        heads = {1: range(1, p)}
    else:  # the heads a of the digit classes (j, a), by level j
        heads = {}
        for j, a in cell.residues.classes:
            heads.setdefault(j, []).append(a)
    for m in rng.values():
        if m >= k:
            break
        pm = p**m
        for j, group in heads.items():
            q = p ** min(m + j, k)
            classes = [(c_mod + a * pm) % q for a in group]
            if m + j <= k:
                marks[m + j].update(classes)
            else:
                flags.update(classes)


def _domain_node(dec: Decomposition, k: int) -> tuple[int, int] | None:
    """The prefix (j, b mod p^j), 0 <= j <= k, whose classes mod p^k meet
    the domain ball B(b, r): j is r clamped to 0..k, so a ball deeper than k
    lies in the one class b mod p^k; None when the ball misses Z_p."""
    p, b, rad = dec.prime, dec.domain.center, dec.domain.radius_ord
    if b.denominator % p == 0:  # ord(r - b) = ord(b) < 0 for every integer r
        return (0, 0) if ord_p(b, p) >= rad else None
    j = min(max(rad, 0), k)
    return j, _residue(b, p**j)


def verify_partition(dec: Decomposition, k: int) -> PartitionReport:
    """For every residue class mod p^k in the domain: exactly one cell
    decidedly contains it, or the class is flagged undecided (a cell
    boundary needs more digits).  Anything else is a violation.

    The marks and flags are the leaves of a trie of prefixes a mod p^j
    below the domain's prefix, and each prefix counts the marks on its path
    from the root.  The children of a prefix that hold no mark or flag
    share its count, so they are decided at once, p^(k-j-1) classes each:
    the work grows with the marks, not with p^k.  Raises
    UnsupportedInputError unless 1 <= k <= 20 and the cells make at most
    MAX_CLASSES marks and flags."""
    p = dec.prime
    _require_depth(k, "the partition is checked mod p^k")
    if sum(_mark_count(cell, k) for cell in dec.cells) > MAX_CLASSES:
        raise UnsupportedInputError(
            f"checking the partition mod {p}^{k} marks more than {MAX_CLASSES} classes")
    marks = [Counter() for _ in range(k + 1)]
    flags: set[int] = set()
    for cell in dec.cells:
        _mark_cell(cell, k, marks, flags)
    node = _domain_node(dec, k)
    if node is None:
        return PartitionReport(p, k, (), ())
    r, b = node
    pw = [p**j for j in range(k + 1)]
    # held[j]: the prefixes mod p^j inside the domain with a mark or a flag
    # at or below them; kids[j]: how many children each of them holds
    held = [{b} if j <= r else {a for a in marks[j] if a % pw[r] == b} for j in range(k + 1)]
    held[k] |= {a for a in flags if a % pw[r] == b}
    kids = [Counter() for _ in range(k)]
    for j in range(k, r, -1):
        q = pw[j - 1]
        kids[j - 1].update([a % q for a in held[j]])
        held[j - 1] |= kids[j - 1].keys()
    violations = []
    hits = {b: sum(marks[j].get(b % pw[j], 0) for j in range(r + 1))}
    for j in range(r, k):
        below = kids[j]
        violations += [(j, a, h, (p - below[a]) * pw[k - j - 1])
                       for a, h in hits.items() if h != 1 and below[a] < p]
        q, level = pw[j], marks[j + 1]
        hits = {c: hits[c % q] + level.get(c, 0) for c in held[j + 1]}
    undecided = []
    for a, h in hits.items():
        if a in flags and h <= 1:
            undecided.append(a)
        elif h != 1:
            violations.append((k, a, h, 1))
    return PartitionReport(p, k, tuple(sorted(violations)), tuple(sorted(undecided)))


# ---------------------------------------------------------------------------
# Order-law verification by deterministic sampling.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LawFailure:
    cell_index: int
    member: Fraction
    expected: Val
    got: Val


@dataclass(frozen=True)
class LawReport:
    seed: int
    samples: int
    failures: tuple[LawFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _sample_units(res: Residues, n: int) -> list[int]:
    """The units a family cell's samples walk, in increasing order: one of
    every digit class, its head a, and the first units of the set besides,
    up to max(n, classes) in all (the first n of all units).  For a set of
    units at depth 1, each class one unit, those are its first
    max(n, classes) units."""
    if res.is_all:
        return res.members(limit=n)
    heads = {a for _, a in res.classes}
    if len(heads) >= n:
        return sorted(heads)
    rest = [u for u in res.members(limit=n) if u not in heads]
    return sorted([*heads, *rest[:n - len(heads)]])


def verify_laws(dec: Decomposition, f: Poly, samples: int = 200, seed: int = 0) -> LawReport:
    """Check ord f(y) = e0 + i0 * ord(y - c) on deterministic samples of every
    cell, and the inequality form ord f(y) <= ord(k a_i (y-c)^i) with the
    decomposition's recorded depth k.

    A family cell is walked sphere by sphere, at the first four valuations
    of its range and the last three of a finite one; each sphere takes the
    units of `_sample_units` from the first, with random deeper digits, until
    max(samples, units) members are drawn.  A sample is decided modulo
    p^(t+1), t the valuation the law claims for the numerator of f(y) (see
    the module docstring); a sample that residue does not confirm is
    evaluated in full."""
    if not 1 <= samples <= MAX_SAMPLES:
        raise UnsupportedInputError(f"samples = {samples} is not from 1 to {MAX_SAMPLES}")
    p = dec.prime
    rng = random.Random(seed)
    failures: list[LawFailure] = []
    coeffs, shift = _clear_denominators(f, p)
    n = len(coeffs) - 1
    p3, draw = p**3, rng.getrandbits
    bits = p3.bit_length()

    for idx, cell in enumerate(dec.cells):
        law = cell.law_for(f)
        if cell.is_point:
            c = cell.center.value
            want = law.apply(None)
            if isinstance(c, Fraction):
                got = _ord_value(coeffs, shift, c.numerator, c.denominator, p)
                if got != want:
                    failures.append(LawFailure(idx, c, want, got))
            else:
                # evaluate at a certified refinement of the center; the value
                # is only pinned modulo p^(precision + min Taylor-tail ord)
                floor = 8 if want is INFINITY else abs(want) + 8
                ok = False
                rr = c
                for _ in range(6):
                    rr = refine_root(c, floor)
                    got, *tail = _taylor_ords(coeffs, shift, rr.approx, p)
                    bound = min(tail, default=INFINITY) + rr.precision
                    if want is INFINITY:
                        ok = got >= bound
                        break
                    if bound > want:
                        ok = got == want
                        break
                    floor = 2 * floor + 8
                if not ok:
                    failures.append(LawFailure(idx, rr.approx, want, got))
            continue
        d, rng_m = cell.residues.depth, cell.m_range
        pd = p**d
        units = _sample_units(cell.residues, samples)
        nu = len(units)
        left = max(samples, nu)
        ms = list(rng_m.values(limit=4))
        if rng_m.hi is not None:
            tail = [m for m in (rng_m.hi - 2 * rng_m.step, rng_m.hi - rng_m.step, rng_m.hi)
                    if m >= rng_m.lo]
            ms = sorted(set(ms + tail))
        root, exact = cell.center.value, exact_value(cell.center.value)
        precision, proxy = 0, None
        while left > 0:
            for m in ms:
                if m + d + 10 > precision:
                    # the proxy: the center mod p^precision, an inexact one
                    # lifted from its last refinement
                    precision = m + d + 26
                    if exact is None:
                        root = refine_root(root, precision)
                        c = reduce_mod(root.approx, p, precision)
                    else:
                        c = exact
                    if c != proxy:
                        # h_i: the numerator bd^n L f(y) expanded at the proxy,
                        # with ord f(y) = ord(numerator) - vd and
                        # ord h_i + i vbd - vd the Taylor line i of f there
                        proxy, at_m = c, {}
                        bn, bd = c.numerator, c.denominator
                        hs = _taylor_shift([a * bd ** (n - j) for j, a in enumerate(coeffs)], bn)
                        vbd = _ord_int(bd, p)
                        vd = shift + n * vbd
                        lines = [(i, _ord_int(h, p) + i * vbd - vd) for i, h in enumerate(hs) if h]
                sphere = at_m.get(m)
                if sphere is None:
                    # the law's value; the depth-k bound when the law breaks
                    # it (the proxy agrees with the center past m digits, so
                    # the ball ord(y - c) >= m and its Newton-polygon minimum
                    # are the center's); and y = bn/bd + z p^m decided mod
                    # p^(t+1): the numerator is sum h_i (bd p^m)^i z^i, whose
                    # weights mod p^(t+1) are kept highest first, and for
                    # m >= 1 a term with i m > t is a multiple of p^(t+1)
                    want = law.apply(m)
                    bound = min([v + i * m for i, v in lines]) + dec.k_depth if lines else None
                    t = -1 if want is INFINITY else want + vd
                    step, ws, q, pt = bd * p**m, [], 1, 1
                    if t >= 0:  # else no residue confirms the claim
                        pt = p**t
                        q = pt * p
                        power = 1
                        for h in hs[:len(hs) if m < 1 else t // m + 1]:
                            ws.append(h * power % q)
                            power *= step
                        ws.reverse()
                    sphere = at_m[m] = (want, None if bound is None or want <= bound else bound,
                                        step, q, pt, ws)
                want, broken, step, q, pt, ws = sphere
                for u in units if left >= nu else units[:left]:
                    # randrange(p^3) without its argument checks: the same
                    # draws of p^3's bit length, redrawn until below p^3
                    extra = draw(bits)
                    while extra >= p3:
                        extra = draw(bits)
                    z = u + extra * pd
                    acc = 0
                    for w in ws:
                        acc = (acc * z + w) % q
                    if not (acc and acc % pt == 0):
                        got = _ord_value(coeffs, shift, bn + z * step, bd, p)
                        if got != want:
                            failures.append(LawFailure(idx, Fraction(bn + z * step, bd), want, got))
                            continue
                    if broken is not None:
                        # the coarse inequality ord f(y) <= ord(k a_i (y-c)^i)
                        failures.append(LawFailure(idx, Fraction(bn + z * step, bd), broken, want))
                left -= nu
                if left <= 0:
                    break
            if rng_m.hi is None:  # the last two spheres move on by the step
                ms = [m + rng_m.step for m in ms[-2:]]
            # finite ranges repeat with fresh random digits
    return LawReport(seed, samples, tuple(failures))

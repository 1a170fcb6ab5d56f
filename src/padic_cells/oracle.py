"""Independent brute-force ground truth for decompositions.

Root counting modulo prime powers by digit-lifting (with a class-level prune
when the polynomial vanishes identically to the requested depth), exhaustive
cell-membership verification over all residue classes, and deterministic
order-law sampling.  Nothing here consults the cell engine's reasoning: the
checks work from raw membership and evaluation only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cells import Cell1, Decomposition
from .errors import UnsupportedInputError
from .hensel import center_proxy, ord_between, taylor_ords
from .padics import INFINITY, Val, ord_p, require_classes
from .poly import Poly


@dataclass(frozen=True)
class RootCounts:
    prime: int
    counts: tuple[int, ...]  # counts[k-1] = #{y mod p^k : f(y) = 0 mod p^k}

    def __post_init__(self):
        for a, b in zip(self.counts, self.counts[1:]):
            if b > self.prime * a:
                raise ValueError("root counts violate the lifting bound")


def _require_p_integral(f: Poly, p: int) -> Poly:
    """Clear denominators prime to p; reject p-fractional coefficients."""
    from math import lcm

    den = 1
    for c in f.coeffs:
        den = lcm(den, c.denominator)
    if den % p == 0:
        raise UnsupportedInputError("coefficient denominators divisible by p")
    return f * Fraction(den)


def count_roots_mod(f: Poly, p: int, k: int) -> int:
    """#{ y mod p^k : f(y) = 0 mod p^k }, exact, by digit lifting."""
    if f.is_zero:
        raise UnsupportedInputError("zero polynomial")
    if k < 1:
        raise ValueError("k must be >= 1")
    f = _require_p_integral(f, p)

    total = 0
    stack = [(0, 0)]  # (residue, digits fixed)
    while stack:
        c, j = stack.pop()
        if j == k:
            total += 1
            continue
        # prune: if f vanishes mod p^k on the whole class, count it wholesale
        sh = f.taylor_shift(Fraction(c))
        if all(ord_p(sh.coeff(i), p) + i * j >= Val(k) for i in range(len(sh.coeffs))):
            total += p ** (k - j)
            continue
        step = p**j
        for t in range(p):
            cc = c + t * step
            if f.eval(Fraction(cc)) % Fraction(p) ** min(k, j + 1) == 0:
                stack.append((cc, j + 1))
    return total


def count_roots_mod_scan(f: Poly, p: int, k: int) -> int:
    """Full-scan reference counter for validating the pruned version."""
    f = _require_p_integral(f, p)
    q = p**k
    return sum(1 for y in range(q) if f.eval(Fraction(y)) % q == 0)


def root_counts(f: Poly, p: int, k_max: int) -> RootCounts:
    return RootCounts(p, tuple(count_roots_mod(f, p, k) for k in range(1, k_max + 1)))


# ---------------------------------------------------------------------------
# Partition verification over residue classes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionReport:
    prime: int
    depth: int
    violations: tuple[tuple[int, int], ...]  # (class, number of covering cells)
    undecided: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_json(self) -> dict:
        return {
            "prime": self.prime,
            "depth": self.depth,
            "ok": self.ok,
            "violations": [{"class": str(c), "cells": n} for c, n in self.violations],
            "undecided": [str(c) for c in self.undecided],
        }


def _center_mod(cell: Cell1, k: int, p: int) -> int:
    """The center reduced mod p^k (centers of Z_p-cells are p-integral)."""
    c = center_proxy(cell.center.value, p, k + 2)
    q = p**k
    return c.numerator * pow(c.denominator, -1, q) % q


def _mark_cell(cell: Cell1, k: int, p: int, count: list[int], fuzzy: list[int]) -> None:
    """Mark every class mod p^k the cell decidedly contains, and flag the
    classes it only partially covers at this depth."""
    q = p**k
    c_mod = _center_mod(cell, k, p)
    if cell.is_point:
        fuzzy[c_mod] = 1
        return
    rng = cell.m_range
    d = cell.residues.depth
    if rng.hi is None or rng.hi >= k:
        fuzzy[c_mod] = 1  # the cell has members inside the center's class
    for m in rng.values():
        if m >= k:
            break
        if m + d <= k:
            lifts = p ** (k - m - d)
            qd = p**d
            for u0 in cell.residues.members(p):
                for t in range(lifts):
                    cls = (c_mod + (u0 + t * qd) * p**m) % q
                    count[cls] += 1
        elif cell.residues.is_all:
            # residues unconstrained: every class at distance m is inside
            qk = p ** (k - m)
            for u in range(1, qk):
                if u % p:
                    cls = (c_mod + u * p**m) % q
                    count[cls] += 1
        else:
            # the constraint needs more digits than the class determines
            for u0 in {u % p ** (k - m) for u in cell.residues.members(p)}:
                cls = (c_mod + u0 * p**m) % q
                fuzzy[cls] = 1


def verify_partition(dec: Decomposition, k: int) -> PartitionReport:
    """For every residue class mod p^k: exactly one cell decidedly contains
    it, or the class is flagged undecided (a cell boundary needs more
    digits).  Anything else is a violation."""
    p = dec.prime
    require_classes(p, k, "k")
    q = p**k
    count = [0] * q
    fuzzy = [0] * q
    for cell in dec.cells:
        _mark_cell(cell, k, p, count, fuzzy)
    violations = []
    undecided = []
    for r in range(q):
        if not dec.domain.contains(Fraction(r), p):
            continue
        hits = count[r]
        if hits == 1 and not fuzzy[r]:
            continue
        if fuzzy[r] and hits <= 1:
            undecided.append(r)
        else:
            violations.append((r, hits))
    return PartitionReport(p, k, tuple(violations), tuple(undecided))


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

    def as_json(self) -> dict:
        return {
            "seed": self.seed,
            "samples_per_cell": self.samples,
            "ok": self.ok,
            "failures": [
                {"cell": x.cell_index, "member": str(x.member),
                 "expected": str(x.expected), "got": str(x.got)}
                for x in self.failures
            ],
        }


def _cell_samples(cell: Cell1, p: int, n: int, rng: random.Random) -> list[tuple[Fraction, int]]:
    """Deterministic members (y, m) of a family cell: every residue class at
    the cell's depth, the first valuations of the range, and random deeper
    digits."""
    out: list[tuple[Fraction, int]] = []
    d = cell.residues.depth
    units = cell.residues.members(p)
    ms = list(cell.m_range.values(limit=4))
    if cell.m_range.hi is not None:
        tail = [m for m in cell.m_range.values() if m >= cell.m_range.hi - 2 * cell.m_range.step]
        ms = sorted(set(ms + tail))
    from .hensel import reduce_mod, refine_root

    c = cell.center.value
    precision = 0

    def proxy_for(m: int) -> Fraction:
        nonlocal precision, c_proxy
        need = m + d + 10
        if need > precision:
            precision = need + 16
            if not isinstance(c, Fraction):
                c_proxy = reduce_mod(refine_root(c, precision).approx, p, precision)
        return c_proxy

    c_proxy = c if isinstance(c, Fraction) else Fraction(0)
    while len(out) < n:
        for m in ms:
            base = proxy_for(m)
            for u in units:
                extra = rng.randrange(p**3)
                member = base + Fraction(u + extra * p**d) * Fraction(p) ** m
                out.append((member, m))
                if len(out) >= n:
                    return out
        if cell.m_range.hi is None:
            ms = [m + cell.m_range.step for m in ms[-2:]]
        # finite ranges repeat with fresh random digits
    return out


def verify_laws(dec: Decomposition, f: Poly, samples: int = 200, seed: int = 0) -> LawReport:
    """Check ord f(y) = e0 + i0 * ord(y - c) on deterministic samples of every
    cell, and the inequality form ord f(y) <= ord(k a_i (y-c)^i) with the
    decomposition's recorded depth k."""
    p = dec.prime
    rng = random.Random(seed)
    failures: list[LawFailure] = []

    for idx, cell in enumerate(dec.cells):
        law = cell.law_for(f)
        if cell.is_point:
            c = cell.center.value
            want = law.apply(None)
            if isinstance(c, Fraction):
                got = ord_p(f.eval(c), p)
                if got != want:
                    failures.append(LawFailure(idx, c, want, got))
            else:
                # evaluate at a certified refinement of the center; the value
                # is only pinned modulo p^(precision + min Taylor-tail ord)
                from .hensel import refine_root

                floor = 8 if want.is_infinite else abs(want.value) + 8
                ok = False
                rr = c
                for _ in range(6):
                    rr = refine_root(c, floor)
                    sh = f.taylor_shift(rr.approx)
                    got = ord_p(sh.coeff(0), p)
                    cmin = INFINITY
                    for i in range(1, len(sh.coeffs)):
                        t = ord_p(sh.coeff(i), p)
                        if t < cmin:
                            cmin = t
                    bound = cmin + rr.precision
                    if want.is_infinite:
                        ok = got >= bound
                        break
                    if bound > want:
                        ok = got == want
                        break
                    floor = 2 * floor + 8
                if not ok:
                    failures.append(LawFailure(idx, rr.approx, want, got))
            continue
        taylor = taylor_ords(f, cell.center.value, p)
        for member, m in _cell_samples(cell, p, samples, rng):
            got = ord_p(f.eval(member), p)
            want = law.apply(m)
            if got != want:
                # guard against proxy-precision artifacts for approx centers
                true_m = ord_between(member, cell.center.value, p)
                if true_m.is_infinite or true_m.value != m:
                    continue
                failures.append(LawFailure(idx, member, want, got))
                continue
            # the coarse inequality with the recorded depth k
            bound = INFINITY
            for i, v in enumerate(taylor):
                vv = v + i * m + dec.k_depth
                if vv < bound:
                    bound = vv
            if not got <= bound:
                failures.append(LawFailure(idx, member, bound, got))
    return LawReport(seed, samples, tuple(failures))

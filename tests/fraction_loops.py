"""The Fraction loops that `Poly`'s integer kernel, the Hensel root search and
the digit-atom sphere loop replaced, and the all-pairs loops that the
support-ball index replaced, kept as references for the tests that compare
the two."""

import random
from fractions import Fraction
from math import comb

from padic_cells.cells import contains, intersect_cells
from padic_cells.errors import InternalBoundError, UnsupportedInputError
from padic_cells.hensel import _at_root, _certified, _newton, exact_value, shift_center
from padic_cells.measure import PartitionCheck, cell_measure
from padic_cells.padics import Val, ord_p, unit_digits
from padic_cells.poly import Poly, newton_min


def fraction_eval(f: Poly, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def fraction_taylor_shift(f: Poly, c) -> Poly:
    c = Fraction(c)
    n = len(f.coeffs)
    out = [Fraction(0)] * n
    for j, a in enumerate(f.coeffs):
        if a == 0:
            continue
        power = Fraction(1)
        for i in range(j, -1, -1):
            out[i] += a * comb(j, i) * power
            power *= c
    return Poly.of(*out)


def fraction_shift_var(f: Poly, scale, offset) -> Poly:
    g = fraction_taylor_shift(f, offset)
    s = Fraction(scale)
    return Poly.of(*(c * s**i for i, c in enumerate(g.coeffs)))


def random_rational(rng: random.Random, p: int) -> Fraction:
    # denominators with and without p, numerators of either sign
    return Fraction(rng.randint(-60, 60), rng.choice([1, 1, 2, 3, 7, p, p * p, 2 * p]))


def fraction_root_points(w: Poly, p: int, depth_cap: int) -> list[Fraction]:
    """`certified_root_points` as it was written on Fraction arithmetic."""
    content = newton_min(w, p)
    if not content.is_infinite and content.value != 0:
        w = w * Fraction(p) ** (-content.value)
    out: list[Fraction] = []

    def search(poly: Poly, c: int, j: int) -> None:
        if j > depth_cap:
            raise InternalBoundError("root search exceeded its depth bound")
        if poly.degree < 1:
            return
        val = fraction_eval(poly, c)
        if val == 0:
            out.append(Fraction(c))
            quo, rem = poly.divmod(Poly.of(-c, 1))
            assert rem.is_zero
            search(quo, c, j)
            return
        v0 = ord_p(val, p)
        v1 = ord_p(fraction_eval(poly.derivative(), c), p)
        if not v1.is_infinite and v0 > v1 * 2 and Val(j) > v1:
            z, _prec = _newton(poly, Fraction(c), p, max(v0.value - v1.value, j + 1))
            if ord_p(z - c, p) >= j:
                out.append(z)
            return
        if v0 < newton_min(fraction_taylor_shift(poly, c), p, j, 1):
            return
        for t in range(p):
            search(poly, c + t * p**j, j + 1)

    search(w, 0, 0)
    return out


def fraction_sphere_digits(f: Poly, center, m: int, law_m: int, depth: int,
                           units: list[int], p: int) -> list[int]:
    """`decompose._sphere_digits` as it was written: shift the center to each
    member c + p^m u and certify f there (law_m is not read)."""
    out = []
    for u in units:
        member = shift_center(center, Fraction(u) * Fraction(p) ** m)
        x = exact_value(member)
        if x is not None:
            value = fraction_eval(f, x)
        else:
            value = _certified(member.precision, depth, _at_root(member, f), p,
                               lambda: f"{f} at {member}")[1]
        out.append(unit_digits(value, p, depth).digits)
    return out


def all_pairs_partition_check(cells, measure, inside, probes) -> PartitionCheck:
    """`measure.partition_check` as it was written: every pair of cells
    intersected, every probe tested against every cell."""
    overlaps = tuple((i, j) for i in range(len(cells)) for j in range(i + 1, len(cells))
                     if intersect_cells(cells[i], cells[j]))
    total = sum(map(cell_measure, cells), Fraction(0))
    uncovered = sum(inside(v) and sum(contains(c, v, c.prime) for c in cells) != 1
                    for v in probes)
    return PartitionCheck(disjoint=not overlaps, covers=total == measure and not uncovered,
                          overlaps=overlaps, missing_measure=measure - total,
                          uncovered_centers=uncovered)


def all_pairs_common_pieces(d1, d2):
    """`cells.common_pieces` as it was written: every pair of cells cut."""
    if d1.prime != d2.prime or d1.domain != d2.domain:
        raise UnsupportedInputError("decompositions are not over the same domain")
    return [(i, j, piece) for i, a in enumerate(d1.cells) for j, b in enumerate(d2.cells)
            for piece in intersect_cells(a, b)]

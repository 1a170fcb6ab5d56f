"""Exact Haar measure and Igusa-type zeta functions from decompositions.

The measure is normalized so that mu(Z_p) = 1; a fiber ball of a family
cell at valuation m and residue depth d has measure p^(-m-d).  All sums are
closed-form geometric series over the arithmetic progressions of the cell
ranges, so every result is an exact rational, and the zeta function
Z(t) = sum_m mu(ord f = m) t^m is an exact rational function in t = p^(-s).
A family's series is the geometric tail from its first valuation minus the
tail past its last, so the zeta function gathers two terms per cell in one
numerator per pole and builds no polynomial per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cells import (Cell1, Decomposition, candidate_pairs, contains, intersect_cells,
                    support_keys)
from .errors import UnsupportedInputError
from .hensel import center_proxy
from .padics import INFINITY, ord_p
from .poly import Poly, format_poly, poly_gcd


def cell_measure(cell: Cell1) -> Fraction:
    """Haar measure of a cell: 0 for points, a geometric sum for families."""
    if cell.is_point:
        return Fraction(0)
    p, rng = cell.prime, cell.m_range
    per_m0 = Fraction(cell.residues.count(), p ** (rng.lo + cell.residues.depth))
    ratio = Fraction(1, p**rng.step)
    if rng.hi is None:
        return per_m0 / (1 - ratio)
    n = rng.count()
    return per_m0 * (1 - ratio**n) / (1 - ratio)


def decomposition_measure(dec: Decomposition, kept_only: bool = False) -> Fraction:
    cells = dec.kept_cells if kept_only else dec.cells
    return sum((cell_measure(c) for c in cells), Fraction(0))


def measure_of_order(dec: Decomposition, f: Poly, m: int) -> Fraction:
    """mu{ y in domain : ord f(y) = m } from the cells' order laws."""
    total = Fraction(0)
    p = dec.prime
    for cell in dec.cells:
        law = cell.law_for(f)
        if cell.is_point:
            continue  # points have measure zero
        if law.e0 is INFINITY:
            continue
        e0, i0 = law.e0, law.i0
        if i0 == 0:
            if e0 == m:
                total += cell_measure(cell)
            continue
        if (m - e0) % i0 != 0:
            continue
        m_y = (m - e0) // i0
        if m_y not in cell.m_range:
            continue
        total += Fraction(cell.residues.count(), p ** (m_y + cell.residues.depth))
    return total


@dataclass(frozen=True)
class ZetaFn:
    """A rational function in t, in canonical reduced form: coprime numerator
    and denominator, denominator normalized so its lowest-degree nonzero
    coefficient is 1."""

    num: Poly
    den: Poly

    @staticmethod
    def of(num: Poly, den: Poly) -> "ZetaFn":
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            return ZetaFn(Poly.of(), Poly.of(1))
        g = poly_gcd(num, den)
        if g.degree >= 1:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = next(c for c in den.coeffs if c != 0)
        num = num * (1 / lead)
        den = den * (1 / lead)
        return ZetaFn(num, den)

    def eval(self, t: Fraction) -> Fraction:
        den = self.den.eval(t)
        if den == 0:
            raise ZeroDivisionError("pole of the zeta function")
        return self.num.eval(t) / den

    def taylor_coefficients(self, n: int) -> list[Fraction]:
        """The first n+1 coefficients of the series expansion at t = 0."""
        d0 = self.den.coeff(0)
        if d0 == 0:
            raise ValueError("a Laurent series: the denominator vanishes at t = 0")
        out: list[Fraction] = []
        for k in range(n + 1):
            acc = self.num.coeff(k)
            for j in range(1, k + 1):
                acc -= self.den.coeff(j) * out[k - j]
            out.append(acc / d0)
        return out

    def __str__(self) -> str:
        return f"({format_poly(self.num, 't')}) / ({format_poly(self.den, 't')})"


def igusa_zeta(dec: Decomposition, f: Poly) -> ZetaFn:
    """Z(t) = sum_m mu(ord f = m) t^m, in closed form.

    A family on m = lo, lo + s, ..., hi is the tail from lo minus the tail
    from hi + s, both over the pole 1 - p^-s t^(i0 s) of its law's slope i0
    and step s; an unbounded family is the first tail alone.  Each tail is
    one term, added into its pole's row keyed by exponent, so a cell costs
    O(1) rational additions however long its range.  Each row becomes one
    numerator, the few poles are combined over their denominators and the
    sum is reduced once.  Where ord f takes negative values (p-fractional
    coefficients), every term is shifted by t^-e for the least exponent
    e < 0, and Z is returned as N / (t^-e D)."""
    if f.is_zero:
        raise UnsupportedInputError("the zeta function of the zero polynomial diverges")
    p = dec.prime
    # with c residues at depth d and law e0 + i0 m, the tail from m0 is
    # c p^-(m0+d) t^(e0+i0 m0) / (1 - p^-s t^(i0 s)); rows[i0, s] maps an
    # exponent to its coefficient in the numerator of that pole
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for cell in dec.cells:
        if cell.is_point:
            continue
        law = cell.law_for(f)
        assert law.e0 is not INFINITY
        e0, i0 = law.e0, law.i0
        rng, count, d = cell.m_range, cell.residues.count(), cell.residues.depth
        row = rows.setdefault((i0, rng.step), {})
        e = e0 + i0 * rng.lo
        row[e] = row.get(e, 0) + Fraction(count, p ** (rng.lo + d))
        if rng.hi is not None:
            end = rng.hi + rng.step
            e = e0 + i0 * end
            row[e] = row.get(e, 0) - Fraction(count, p ** (end + d))
    shift = min([0] + [e for row in rows.values() for e in row])
    num, den = Poly.of(), Poly.of(1)
    for (i0, step), row in rows.items():
        n = [Fraction(0)] * (max(row) - shift + 1)
        for e, c in row.items():
            n[e - shift] += c
        pole = [Fraction(0)] * (i0 * step + 1)   # a constant where i0 = 0
        pole[0] += 1
        pole[i0 * step] -= Fraction(1, p**step)
        n, pole = Poly.of(*n), Poly.of(*pole)
        num, den = num * pole + n * den, den * pole
    return ZetaFn.of(num, _times_t(den, -shift))


def _times_t(f: Poly, e: int) -> Poly:
    """t^e f(t) for e >= 0."""
    return Poly.of(*([Fraction(0)] * e + list(f.coeffs)))


# ---------------------------------------------------------------------------
# Exact partition checking by constraint algebra.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionCheck:
    disjoint: bool
    covers: bool
    overlaps: tuple[tuple[int, int], ...]   # indices of intersecting cell pairs
    missing_measure: Fraction
    uncovered_centers: int

    @property
    def ok(self) -> bool:
        return self.disjoint and self.covers


def partition_check(cells, inside, probes) -> tuple[tuple[tuple[int, int], ...], int]:
    """The index pairs of intersecting `cells`, and the number of probes that
    `inside` accepts but that do not lie in exactly one cell.  Cells partition
    a set when both are empty and their measures sum to the set's measure,
    which the callers compare: any gap in a finite union of fiber balls and
    points has positive measure or consists of centers, so with the centers
    probed the three tests are complete.  Only the pairs of `candidate_pairs`
    can meet, so only those are intersected, and a probe is tested only
    against the cells whose support balls hold it.  The cells are keyed
    once for both passes."""
    keys = support_keys(cells, cells)
    overlaps = tuple((i, j) for i, j in candidate_pairs(cells, cells, keys, keys)
                     if i < j and intersect_cells(cells[i], cells[j]))
    holders = [[] for _ in probes]
    for n, i in candidate_pairs(probes, cells, None, keys):
        holders[n].append(cells[i])
    uncovered = sum(inside(v) and sum(contains(c, v) for c in held) != 1
                    for v, held in zip(probes, holders))
    return overlaps, uncovered


def exact_partition_check(dec: Decomposition) -> PartitionCheck:
    """`partition_check` of the domain ball B(b, r), with every center probed,
    and the measures of the cells against p^-r.  Cover also needs each cell's
    support ball -- B(center, lo) for a family, the center for a point --
    inside B(b, r): a cell outside could stand in for a gap of the same
    measure."""
    p, b, r = dec.prime, dec.domain.center, dec.domain.radius_ord
    overlaps, uncovered = partition_check(dec.cells, lambda v: True,
                                          [c.center.value for c in dec.cells])
    missing = Fraction(1, p**r) - decomposition_measure(dec)
    inside = all((c.is_point or c.m_range.lo >= r)
                 and ord_p(center_proxy(c.center.value, p, r) - b, p) >= r for c in dec.cells)
    return PartitionCheck(disjoint=not overlaps, covers=not missing and not uncovered and inside,
                          overlaps=overlaps, missing_measure=missing, uncovered_centers=uncovered)

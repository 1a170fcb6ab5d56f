"""Univariate cells with centers, presentations and common refinements.

A cell is either a single point or a family of balls around an explicit
center: the presentation y |-> (ord(y - c), unit digits of (y - c)) of the
constructive proof.  Families carry an arithmetic-progression range for the
valuation and a residue set at some digit depth.  A cell and its residue
set hold one prime p, which no function here takes again beside them.
Every cell carries a law table: a mapping from each polynomial to its exact
order law ord f(y) = e0 + i0 * ord(y - c), valid on every member and never
mutated once built.  `Cell1` answers `law_for` (a missing law is a
ValueError) and freezes the laws to constants where ord(y - c) is fixed.

Centers are rational numbers or Hensel-certified root approximations.  This
module never tells the two apart: equality, distance and digits of the
difference of two centers come from the center queries in `hensel`, so
membership, disjointness, refinement and measures are all decidable by finite
constraint algebra over those exact answers.  Two cells meet only where their
support balls are nested, so `candidate_pairs` buckets the centers by their
digits and the passes over pairs of cells test only the pairs it returns.
"""

from __future__ import annotations

from collections import Counter
from heapq import nsmallest
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import itemgetter

from .errors import UnsupportedInputError
from .hensel import (
    CenterValue,
    center_proxy,
    centers_equal,
    digits_between,
    h as hensel_h,
    ord_between,
    refine_root,
)
from .padics import INFINITY, Rat, RvData, Val, ord_p, rv
from .poly import Poly, format_poly


# ---------------------------------------------------------------------------
# Terms: the language with rv-maps and the Henselian functions h_{m,d}.
# ---------------------------------------------------------------------------


class Term:
    """Base class for center terms."""


@dataclass(frozen=True)
class TConst(Term):
    value: Fraction

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class TAdd(Term):
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class TMul(Term):
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class TRv(Term):
    """rv_d applied to a subterm."""

    depth: int
    arg: Term

    def __str__(self) -> str:
        return f"rv_{self.depth}({self.arg})"


@dataclass(frozen=True)
class TH(Term):
    """A Henselian function symbol h_{m,d} applied to m+1 coefficient terms
    and one rv-argument: exactly m + 2 children."""

    m: int
    depth: int
    coeffs: tuple[Term, ...]
    rv_arg: Term

    def __post_init__(self):
        if len(self.coeffs) != self.m + 1:
            raise ValueError("h_{m,d} needs m+1 coefficient children")

    def __str__(self) -> str:
        args = ", ".join(str(c) for c in self.coeffs)
        return f"h_{{{self.m},{self.depth}}}({args}, {self.rv_arg})"


def evaluate_term(term: Term, p: int, precision: int) -> Fraction | RvData:
    """A rational proxy congruent to the term's value mod p^precision.

    rv-subterms evaluate to RvData.  h-nodes evaluate through the Henselian
    function on proxy coefficients, which agrees with the true value to the
    requested precision for all terms this package emits.  Intermediate
    computations carry extra guard digits.
    """
    inner = precision + 16

    def go(t: Term) -> Fraction | RvData:
        if isinstance(t, TConst):
            return t.value
        if isinstance(t, TAdd):
            return _as_frac(go(t.left)) + _as_frac(go(t.right))
        if isinstance(t, TMul):
            return _as_frac(go(t.left)) * _as_frac(go(t.right))
        if isinstance(t, TRv):
            return rv(_as_frac(go(t.arg)), p, t.depth)
        if isinstance(t, TH):
            coeffs = [_as_frac(go(c)) for c in t.coeffs]
            tag = go(t.rv_arg)
            if not isinstance(tag, RvData):
                tag = rv(tag, p, t.depth)
            root = hensel_h(coeffs, tag, p)
            if root is None:
                return Fraction(0)
            return refine_root(root, inner).approx
        raise TypeError(f"unknown term node {t!r}")

    def _as_frac(v: Fraction | RvData) -> Fraction:
        if isinstance(v, RvData):
            raise ValueError("rv-data used where a field value is required")
        return v

    return go(term)


# ---------------------------------------------------------------------------
# Cells.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArithRange:
    """Integers lo, lo+step, ... up to hi (hi=None means unbounded)."""

    lo: int
    hi: int | None
    step: int = 1

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("step must be positive")
        if self.hi is not None and self.hi < self.lo:
            raise ValueError("empty range")
        if self.hi is not None:
            object.__setattr__(self, "hi", self.lo + (self.hi - self.lo) // self.step * self.step)

    def __contains__(self, m: int) -> bool:
        if m < self.lo or (self.hi is not None and m > self.hi):
            return False
        return (m - self.lo) % self.step == 0

    def count(self) -> int:
        if self.hi is None:
            raise ValueError("infinite range")
        return (self.hi - self.lo) // self.step + 1

    def values(self, limit: int | None = None):
        m = self.lo
        emitted = 0
        while self.hi is None or m <= self.hi:
            if limit is not None and emitted >= limit:
                return
            yield m
            emitted += 1
            m += self.step

    def intersect(self, other: "ArithRange") -> "ArithRange | None":
        """Progression intersection by CRT, or None when empty."""
        from math import gcd

        g = gcd(self.step, other.step)
        if (self.lo - other.lo) % g != 0:
            return None
        step = self.step * other.step // g
        # solve m = self.lo (mod self.step), m = other.lo (mod other.step)
        t = ((other.lo - self.lo) // g * pow(self.step // g, -1, other.step // g)) % (other.step // g)
        base = self.lo + t * self.step
        lo = max(self.lo, other.lo)
        if base < lo:
            base += (lo - base + step - 1) // step * step
        hi = None
        for h_ in (self.hi, other.hi):
            if h_ is not None:
                hi = h_ if hi is None else min(hi, h_)
        if hi is not None and base > hi:
            return None
        return ArithRange(base, hi, step)

    def restrict(self, lo: int | None = None, hi: int | None = None) -> "ArithRange | None":
        new_lo = self.lo
        if lo is not None and lo > new_lo:
            new_lo += (lo - new_lo + self.step - 1) // self.step * self.step
        new_hi = self.hi
        if hi is not None:
            new_hi = hi if new_hi is None else min(new_hi, hi)
        if new_hi is not None and new_lo > new_hi:
            return None
        return ArithRange(new_lo, new_hi, self.step)

    def __str__(self) -> str:
        hi = "inf" if self.hi is None else str(self.hi)
        s = f"[{self.lo}..{hi}]"
        return s if self.step == 1 else f"{s}%{self.step}"


class Residues:
    """A set of units u mod p^depth: all of them (`classes` None, printed
    "all"), or a union of disjoint digit classes u = a mod p^j, held as pairs
    (j, a) with 1 <= j <= depth and a a unit below p^j.

    The classes are the largest the set holds: no p classes of one level fill
    a class one level up.  So two sets at one depth are equal exactly when
    they hold the same units, though an explicit set of every unit is not
    all units: it prints as a list.  The constructor also takes explicit
    units mod p^depth, held as classes of level depth.  Every set holds its
    prime p.  No method lists the units but `members`."""

    __slots__ = ("depth", "classes", "p", "levels")

    def __init__(self, depth: int, units=None, p: int | None = None, *, classes=None):
        if depth < 1:
            raise ValueError("residue depth must be >= 1")
        if p is None:
            raise TypeError("a residue set needs its prime p")
        if units is not None:
            q = p**depth
            classes = [(depth, u % q) for u in units]
        self.depth, self.p = depth, p
        self.classes = None if classes is None else _largest(classes, p)
        self.levels = () if classes is None else {j for j, _ in self.classes}

    @property
    def is_all(self) -> bool:
        return self.classes is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Residues):
            return NotImplemented
        return self.depth == other.depth and self.p == other.p and self.classes == other.classes

    def __hash__(self) -> int:
        return hash((self.depth, self.is_all))

    def __repr__(self) -> str:
        return f"Residues({self.depth}, classes={None if self.is_all else sorted(self.classes)})"

    def explicit(self):
        """The classes; for all units, the p - 1 classes of level 1."""
        return [(1, a) for a in range(1, self.p)] if self.classes is None else self.classes

    def count(self) -> int:
        if self.classes is None:
            return (self.p - 1) * self.p ** (self.depth - 1)
        return sum(self.p ** (self.depth - j) for j, _ in self.classes)

    def members(self, *, limit: int | None = None) -> list[int]:
        """The units in increasing order; with a limit, only the first ones,
        read from the first lifts of the classes with the least heads."""
        p = self.p
        if self.classes is None:
            if limit is not None and p > limit:  # then the first units are 1, ..., limit
                return list(range(1, limit + 1))
            return list(islice((u for u in range(1, p**self.depth) if u % p != 0), limit))
        q = p**self.depth
        if limit is None:
            if self.levels == {self.depth}:  # each class is one unit
                return sorted(map(itemgetter(1), self.classes))
            return sorted(u for j, a in self.classes for u in range(a, q, p**j))
        heads = nsmallest(limit, self.classes, key=itemgetter(1))
        return sorted(u for j, a in heads for u in range(a, q, p**j)[:limit])[:limit]

    def covers(self, j: int, a: int) -> bool:
        """Whether the class a mod p^j lies in the set."""
        return self.classes is None or any((i, a % self.p**i) in self.classes
                                           for i in self.levels if i <= j)

    def contains(self, u: int) -> bool:
        return self.covers(self.depth, u)

    def lift(self, depth: int) -> "Residues":
        """The same set expressed at a deeper digit depth."""
        if depth < self.depth:
            raise ValueError("cannot lower the depth of a residue set")
        if depth == self.depth:
            return self
        return Residues(depth, p=self.p, classes=self.classes)

    def meet(self, other: "Residues") -> "Residues":
        """The units in both sets, at the deeper depth: of two nested classes
        the smaller one."""
        depth = max(self.depth, other.depth)
        if self.is_all or other.is_all:
            return (other if self.is_all else self).lift(depth)
        return Residues(depth, p=self.p, classes=[c for c in self.classes if other.covers(*c)]
                        + [c for c in other.classes if self.covers(*c)])


def _largest(classes, p: int) -> frozenset[tuple[int, int]]:
    """Disjoint classes with every p classes of one level that fill a class
    one level up merged into it, from the deepest level on."""
    classes = frozenset(classes)
    if len(classes) < p:
        return classes
    levels: dict[int, set[int]] = {}
    for j, a in classes:
        levels.setdefault(j, set()).add(a)
    for j in range(max(levels), 1, -1):
        heads, q = levels.get(j, ()), p ** (j - 1)
        for b, n in Counter(a % q for a in heads).items() if len(heads) >= p else ():
            if n == p:
                heads.difference_update(range(b, q * p, q))
                levels.setdefault(j - 1, set()).add(b)
    return frozenset((j, a) for j, heads in levels.items() for a in heads)


@dataclass(frozen=True)
class OrderLaw:
    """On every member y of the owning cell, ord f(y) = e0 + i0 * ord(y - c)."""

    e0: Val
    i0: int

    def apply(self, m: int | None) -> Val:
        """The law at ord(y - c) = m; m=None encodes the center itself."""
        if m is None:
            return self.e0 if self.i0 == 0 else INFINITY
        return self.e0 + self.i0 * m

    def __str__(self) -> str:
        return f"(e0={self.e0}, i0={self.i0})"


@dataclass(frozen=True)
class Center:
    """An explicit center with its digit-depth level and term provenance."""

    value: CenterValue
    level: int
    term: Term | None = None

    @property
    def is_rational(self) -> bool:
        return isinstance(self.value, Fraction)

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.value)
        return f"~{self.value.approx} (root of {format_poly(self.value.witness)})"


# The default of `Cell1.copy`: the field keeps its value.
_SAME = object()


@dataclass(frozen=True)
class Cell1:
    """A univariate cell: a point, or a family of balls around its center.

    `laws` is the law table, polynomial -> law; it is never mutated, so
    cells built from one another may share it, and a shared table is
    turned into JSON once per payload (`cli._cell_json`).
    """

    prime: int
    center: Center
    m_range: ArithRange | None          # None = point cell
    residues: Residues | None           # None = point cell
    laws: dict[Poly, OrderLaw] = field(default_factory=dict)
    keep: bool = True

    def __post_init__(self):
        if (self.m_range is None) != (self.residues is None):
            raise ValueError("point cells have neither range nor residues")
        if self.residues is not None and self.residues.p != self.prime:
            raise ValueError("the residue set is over another prime than the cell")

    @property
    def is_point(self) -> bool:
        return self.m_range is None

    @property
    def kind(self) -> int:
        return 0 if self.is_point else 1

    def law_for(self, f: Poly) -> OrderLaw:
        """The order law of f on the cell; ValueError when it has none."""
        law = self.laws.get(f)
        if law is None:
            raise ValueError(f"the cell has no order law for {format_poly(f)}")
        return law

    def copy(self, m_range=_SAME, residues=_SAME, laws=_SAME, keep=_SAME) -> "Cell1":
        """The cell with the given fields changed, in one constructor call
        (`__post_init__` included): `dataclasses.replace` would walk the
        fields first, and cells are copied once per piece."""
        return Cell1(self.prime, self.center,
                     self.m_range if m_range is _SAME else m_range,
                     self.residues if residues is _SAME else residues,
                     self.laws if laws is _SAME else laws,
                     self.keep if keep is _SAME else keep)

    def with_laws(self, extra: dict[Poly, OrderLaw]) -> "Cell1":
        return self.copy(laws={**self.laws, **extra})

    def frozen_laws(self, m: int) -> dict[Poly, OrderLaw]:
        """The laws as constants, valid where ord(y - center) = m."""
        return {f: OrderLaw(law.apply(m), 0) for f, law in self.laws.items()}


# ---------------------------------------------------------------------------
# Membership, types, products.
# ---------------------------------------------------------------------------


def contains(cell: Cell1, y: Rat | CenterValue) -> bool:
    """Exact membership of a point: a rational, or another cell's center."""
    p = cell.prime
    if cell.is_point:
        return centers_equal(y, cell.center.value, p)
    v = ord_between(y, cell.center.value, p)
    if v is INFINITY:
        return False  # the center itself is not a member of a family
    if v not in cell.m_range:
        return False
    if cell.residues.is_all:
        return True
    u = digits_between(y, cell.center.value, p, cell.residues.depth)
    return cell.residues.contains(u)


@dataclass(frozen=True)
class ProductCell:
    """A finite product of univariate cells; type = componentwise kinds."""

    factors: tuple[Cell1, ...]

    def __post_init__(self):
        primes = {c.prime for c in self.factors}
        if len(primes) > 1:
            raise ValueError("product factors must share the prime")

    @property
    def type(self) -> tuple[int, ...]:
        return tuple(c.kind for c in self.factors)


def cell_type(c: Cell1 | ProductCell) -> tuple[int, ...]:
    if isinstance(c, ProductCell):
        return c.type
    return (c.kind,)


def product(cells: list[Cell1]) -> ProductCell:
    return ProductCell(tuple(cells))


def center_term(cell: Cell1) -> Term:
    """The term provenance of the cell's center; hand-built cells have none."""
    if cell.center.term is None:
        raise UnsupportedInputError("cell carries no center-term provenance")
    return cell.center.term


# ---------------------------------------------------------------------------
# Decompositions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """The closed ball {y : ord(y - center) >= radius_ord}."""

    center: Fraction
    radius_ord: int

    def contains(self, y: Rat, p: int) -> bool:
        return ord_p(Fraction(y) - self.center, p) >= self.radius_ord

    def __str__(self) -> str:
        if self.center == 0 and self.radius_ord == 0:
            return "Z_p"
        return f"B({self.center}, ord>={self.radius_ord})"


ZP = Ball(Fraction(0), 0)


@dataclass(frozen=True)
class Decomposition:
    """A finite list of cells partitioning a domain ball."""

    prime: int
    domain: Ball
    cells: tuple[Cell1, ...]
    k_depth: int = 1

    @classmethod
    def of_cells(cls, prime: int, domain: Ball, cells: list[Cell1]) -> Decomposition:
        """The cells sorted, with k_depth the deepest residue depth among them."""
        depth = max((c.residues.depth for c in cells if not c.is_point), default=1)
        return cls(prime, domain, sorted_cells(cells), depth)

    @property
    def kept_cells(self) -> tuple[Cell1, ...]:
        return tuple(c for c in self.cells if c.keep)


def center_sort_key(c: Center, scale: int | None):
    """Rational centers first, in increasing order, then Hensel roots by
    witness and rv tag.  `scale` is None for a Hensel root and, for a
    rational center, a common multiple of the denominators of the rational
    centers, so a/b is keyed by the integer a * (scale / b)."""
    if scale is not None:
        x = c.value
        return (0, x.numerator * (scale // x.denominator), ())
    r = c.value
    tag = r.rv_tag
    return (1, 0, (r.witness.coeffs, tag.valuation, -1 if tag.is_zero else tag.unit, tag.depth))


def cell_sort_key(cell: Cell1, scale: int | None):
    """The center's key, then points before families, then `m_range.lo` and
    the first residues (read with no generator for an all-units family)."""
    if cell.m_range is None:
        return (center_sort_key(cell.center, scale), 0, -1, ())
    res = cell.residues
    return (center_sort_key(cell.center, scale), 1, cell.m_range.lo,
            (res.depth, tuple(res.members(limit=4))))


def sorted_cells(cells: list[Cell1]) -> tuple[Cell1, ...]:
    """The cells in `cell_sort_key` order, compared on integers, not Fractions.
    Each center's type is tested once, for both the scale and the key."""
    rational = [isinstance(c.center.value, Fraction) for c in cells]
    scale = lcm(*{c.center.value.denominator for c, r in zip(cells, rational) if r})
    keys = [cell_sort_key(c, scale if r else None) for c, r in zip(cells, rational)]
    return tuple(cells[i] for i in sorted(range(len(cells)), key=keys.__getitem__))


# ---------------------------------------------------------------------------
# Intersections and common refinement.
# ---------------------------------------------------------------------------


def _merge_laws(primary, secondary) -> dict[Poly, OrderLaw]:
    """A new table with the laws of both sides, the primary side winning."""
    return {**secondary, **primary}


def _transport(own: Residues, other: Residues, depth: int, e: int, shift: int) -> Residues:
    """The units u at `depth` allowed by `own` whose image t = p^e u + shift
    is a unit allowed by `other`: the digits of y around one center that put
    the digits of y around the other center in its residue set.  The
    preimage of a class t = a mod p^j is the class u = (a - shift) / p^e mod
    p^(j - e) where p^e divides a - shift and the quotient is a unit, or,
    where j <= e, every unit if shift = a mod p^j and none otherwise."""
    p, pre = own.p, []
    for j, a in other.explicit():
        r = (a - shift) % p**j
        if j <= e:
            if r == 0:
                pre = [(1, b) for b in range(1, p)]
                break
        elif r % p**e == 0 and r // p**e % p:
            pre.append((j - e, r // p**e))
    return own.meet(Residues(depth, p=p, classes=pre))


def intersect_cells(a: Cell1, b: Cell1) -> list[Cell1]:
    """The intersection of two cells, as a list of cells refining both.

    Pieces are re-centered on whichever side yields the smaller ball radius;
    ties keep the first argument's center.  Order laws from both sides are
    transported: verbatim where the piece keeps the law's center, frozen to
    constants where the distance to the old center is constant on the piece.
    """
    p = a.prime
    if b.prime != p:
        raise ValueError("prime mismatch")
    keep = a.keep and b.keep
    if a.is_point and b.is_point:
        if not centers_equal(a.center.value, b.center.value, p):
            return []
        return [a.copy(laws=_merge_laws(a.laws, b.laws), keep=keep)]
    if a.is_point:
        if not contains(b, a.center.value):
            return []
        # a member of a family is never its center, so the distance is finite
        m_const = ord_between(a.center.value, b.center.value, p)
        return [a.copy(laws=_merge_laws(a.laws, b.frozen_laws(m_const)), keep=keep)]
    if b.is_point:
        got = intersect_cells(b, a)
        return [c.copy(keep=keep) for c in got]

    d_ab = ord_between(a.center.value, b.center.value, p)
    if d_ab is INFINITY:
        rng = a.m_range.intersect(b.m_range)
        if rng is None:
            return []
        res = a.residues.meet(b.residues)
        if res.classes is not None and not res.classes:
            return []
        laws = _merge_laws(a.laws, b.laws)
        level = max(a.center.level, b.center.level, res.depth)
        return [Cell1(p, replace(a.center, level=level), rng, res, laws, keep)]

    depth = max(a.residues.depth, b.residues.depth)
    out: list[Cell1] = []

    def add(base: Cell1, other: Cell1, m: int, m_other: int, res: Residues) -> None:
        """A piece around base's center at ord(y - c) = m with the units of
        `res`, where the distance to the other center is the constant m_other."""
        if res.classes:
            laws = _merge_laws(base.laws, other.frozen_laws(m_other))
            out.append(Cell1(p, replace(base.center, level=max(base.center.level, res.depth)),
                             ArithRange(m, m), res, laws, keep))

    # Region 1: ord(y - cA) = m < d_ab, so ord(y - cB) = m as well and the
    # unit of y - cB is the unit of y - cA minus p^(d_ab - m) * unit(cB - cA).
    rng1 = a.m_range.restrict(hi=d_ab - 1)
    if rng1 is not None:
        delta = digits_between(b.center.value, a.center.value, p, depth)
        for m in rng1.values():
            if m in b.m_range:
                add(a, b, m, m, _transport(a.residues, b.residues, depth, 0,
                                           -delta * p ** (d_ab - m)))

    # Regions 2 and 3: ord(y - c) = m > d_ab around one center c, so the
    # distance to the other center c' is d_ab throughout and the unit of
    # y - c' is unit(c - c') + p^(m - d_ab) * unit(y - c).  Once m - d_ab
    # reaches the depth k of the other cell, membership there is uniform.
    for inner, outer in ((a, b), (b, a)):
        k = outer.residues.depth
        rng = inner.m_range.restrict(lo=d_ab + 1)
        if d_ab not in outer.m_range or rng is None:
            continue
        delta = digits_between(inner.center.value, outer.center.value, p, k)
        head = rng.restrict(hi=d_ab + k - 1)
        for m in head.values() if head is not None else ():
            add(inner, outer, m, d_ab, _transport(inner.residues, outer.residues, depth,
                                                  m - d_ab, delta))
        tail = rng.restrict(lo=d_ab + k)
        if tail is not None and outer.residues.contains(delta):
            laws = _merge_laws(inner.laws, outer.frozen_laws(d_ab))
            out.append(inner.copy(m_range=tail, laws=laws, keep=keep))

    # ord(y - cA) = ord(y - cB) = d_ab: members equidistant from both centers;
    # split by matching digits of (y - cA) against (cB - cA).  Where they
    # cancel, y lies in the deeper regions around cB.
    if d_ab in a.m_range and d_ab in b.m_range:
        k = depth + 1
        delta = digits_between(b.center.value, a.center.value, p, k)
        add(a, b, d_ab, d_ab, _transport(a.residues, b.residues, k, 0, -delta))
    return out


# The most digits of a center that candidate_pairs reads: a deeper radius
# counts as this one, which only adds candidates and keeps p^D small where a
# family starts at a huge valuation.
_KEY_DIGITS = 64


def _support(item, p: int, depth: int) -> tuple[int, int] | None:
    """The support ball of a cell, or of a point given by its value, as
    (radius, center mod p^depth), where a point's radius, or a deeper one,
    counts as depth; None when the center is not p-integral or the radius is
    negative."""
    if isinstance(item, Cell1):
        center, r = item.center.value, depth if item.is_point else item.m_range.lo
    else:
        center, r = item, depth
    x = center_proxy(center, p, depth)
    if r < 0 or x.denominator % p == 0:
        return None
    q = p**depth
    return min(r, depth), x.numerator * pow(x.denominator, -1, q) % q


def support_keys(items, cells) -> list[tuple[int, int] | None]:
    """The key of each item's support ball (see candidate_pairs) at the depth
    D that `cells` fix, or None for all items when there is no cell.  Keyed
    once, a list serves every candidate_pairs pass over the same cells."""
    if not cells:
        return [None] * len(items)
    depth = 1 + min(max([0] + [x.m_range.lo for x in cells if not x.is_point]), _KEY_DIGITS)
    return [_support(x, cells[0].prime, depth) for x in items]


def candidate_pairs(left, right, left_keys=None, right_keys=None) -> list[tuple[int, int]]:
    """The pairs (i, j), in increasing order, where left[i] and right[j] may
    meet: a superset of the pairs that intersect_cells or contains finds
    nonempty.  An item is a cell or a point given by its value; the keys of
    a side, where given, are its `support_keys` for the cells of both sides.

    A family lies in its support ball B(center, lo), a point in {center}.
    Two balls meet only if one holds the other, so a pair is a candidate only
    if the two centers agree mod p^r for the smaller radius r.  Each center
    is keyed mod p^D, where D exceeds every lo (up to _KEY_DIGITS) and stands
    for the radius of a point; the items are bucketed by (t, key mod p^t) for
    every radius t up to their own, and a pair is read from the bucket of its
    smaller radius.  An item with a center that is not p-integral or with
    lo < 0 pairs with everything."""
    cells = [x for side in (left, right) for x in side if isinstance(x, Cell1)]
    if not left or not right or not cells:
        return []
    p = cells[0].prime
    keys = [support_keys(left, cells) if left_keys is None else left_keys]
    keys.append(right_keys if right_keys is not None else
                keys[0] if right is left else support_keys(right, cells))
    pairs = {(i, j) for i, k in enumerate(keys[0]) if k is None for j in range(len(right))}
    pairs |= {(i, j) for j, k in enumerate(keys[1]) if k is None for i in range(len(left))}
    levels = sorted({k[0] for side in keys for k in side if k is not None})
    # (t, key mod p^t) -> per side, the items of radius t and the deeper ones
    buckets: dict[tuple[int, int], tuple[list[list[int]], list[list[int]]]] = {}
    for s, side in enumerate(keys):
        for n, k in enumerate(side):
            if k is None:
                continue
            r, key = k
            for t in levels:
                if t > r:
                    break
                buckets.setdefault((t, key % p**t), ([[], []], [[], []]))[s][t < r].append(n)
    for (left_at, left_deeper), (right_at, right_deeper) in buckets.values():
        pairs.update((i, j) for i in left_at for j in right_at + right_deeper)
        pairs.update((i, j) for i in left_deeper for j in right_at)
    return sorted(pairs)


def common_pieces(d1: Decomposition, d2: Decomposition) -> list[tuple[int, int, Cell1]]:
    """Every piece that intersect_cells cuts from a pair of input cells, as
    (i, j, piece) in the order of (i, j): the piece lies in d1.cells[i] and in
    d2.cells[j].  Only the pairs of candidate_pairs, whose support balls are
    nested, are cut.  This one pass is where provenance is recorded."""
    if d1.prime != d2.prime or d1.domain != d2.domain:
        raise UnsupportedInputError("decompositions are not over the same domain")
    return [(i, j, piece) for i, j in candidate_pairs(d1.cells, d2.cells)
            for piece in intersect_cells(d1.cells[i], d2.cells[j])]


def refine_common(d1: Decomposition, d2: Decomposition) -> Decomposition:
    """A common refinement made of the pieces of common_pieces: each lies in
    exactly one cell of each input, with presentations and laws refining both."""
    cells = [piece for _, _, piece in common_pieces(d1, d2)]
    return Decomposition.of_cells(d1.prime, d1.domain, cells)

"""Univariate cells with centers, presentations and common refinements.

A cell is either a single point or a family of balls around an explicit
center: the presentation y |-> (ord(y - c), unit digits of (y - c)) of the
constructive proof.  Families carry an arithmetic-progression range for the
valuation, a residue constraint at some digit depth, and exact per-polynomial
order laws ord f(y) = e0 + i0 * ord(y - c) valid on every member.

Centers are rational numbers or Hensel-certified root approximations; both
support exact membership tests, so disjointness, refinement and measures are
all decidable by finite constraint algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import UnsupportedInputError
from .hensel import (
    PadicApprox,
    digits_at_root,
    h as hensel_h,
    is_root_of,
    ord_at_root,
    refine_root,
    root_separation_bound,
)
from .padics import INFINITY, Rat, RvData, Val, ord_p, rv, unit_digits
from .poly import Poly, format_poly, poly_gcd

CenterValue = Fraction | PadicApprox


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

    @property
    def is_finite(self) -> bool:
        return self.hi is not None

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


@dataclass(frozen=True)
class Residues:
    """ALL units at a depth (units=None), or an explicit set of unit residues."""

    depth: int
    units: frozenset[int] | None = None

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("residue depth must be >= 1")

    @property
    def is_all(self) -> bool:
        return self.units is None

    def count(self, p: int) -> int:
        if self.units is None:
            return (p - 1) * p ** (self.depth - 1)
        return len(self.units)

    def members(self, p: int) -> list[int]:
        if self.units is not None:
            return sorted(self.units)
        return [u for u in range(1, p**self.depth) if u % p != 0]

    def contains(self, u: int, p: int) -> bool:
        if self.units is None:
            return True
        return u % p**self.depth in self.units

    def lift(self, depth: int, p: int) -> "Residues":
        """The same set expressed at a deeper digit depth."""
        if depth < self.depth:
            raise ValueError("cannot lower the depth of a residue set")
        if depth == self.depth:
            return self
        if self.units is None:
            return Residues(depth, None)
        q = p**self.depth
        units = frozenset(
            u + t * q
            for u in self.units
            for t in range(p ** (depth - self.depth))
        )
        return Residues(depth, units)

    def __str__(self) -> str:
        if self.units is None:
            return f"all@{self.depth}"
        return "{" + ",".join(map(str, sorted(self.units))) + "}@" + str(self.depth)


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
        e = "inf" if self.e0.is_infinite else str(self.e0.value)
        return f"(e0={e}, i0={self.i0})"


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


@dataclass(frozen=True)
class Cell1:
    """A univariate cell: a point, or a family of balls around its center."""

    prime: int
    center: Center
    m_range: ArithRange | None          # None = point cell
    residues: Residues | None           # None = point cell
    laws: tuple[tuple[Poly, OrderLaw], ...] = ()
    keep: bool = True

    def __post_init__(self):
        if (self.m_range is None) != (self.residues is None):
            raise ValueError("point cells have neither range nor residues")

    @property
    def is_point(self) -> bool:
        return self.m_range is None

    @property
    def kind(self) -> int:
        return 0 if self.is_point else 1

    def law_for(self, f: Poly) -> OrderLaw | None:
        for g, law in self.laws:
            if g == f:
                return law
        return None

    def with_laws(self, extra: dict[Poly, OrderLaw]) -> "Cell1":
        known = dict(self.laws)
        known.update(extra)
        return replace(self, laws=tuple(sorted(known.items(), key=lambda kv: kv[0].coeffs)))

    def member_digits_depth(self) -> int:
        return self.residues.depth if self.residues is not None else self.center.level


# ---------------------------------------------------------------------------
# Exact comparisons between centers.
# ---------------------------------------------------------------------------


def _diff_poly(y: Fraction) -> Poly:
    """q(Y) = y - Y, so q(center) = y - center."""
    return Poly.of(y, -1)


def centers_equal(a: CenterValue, b: CenterValue, p: int) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    if isinstance(a, Fraction):
        return centers_equal(b, a, p)
    if isinstance(b, Fraction):
        # a is an approximated root: equal iff b is the pinned root
        if not is_root_of(_zero_shift(b), a):
            return False
        sep = root_separation_bound(a.witness, p)
        ra = refine_root(a, sep + 1)
        return ord_p(b - ra.approx, p) >= sep + 1
    g = poly_gcd(a.witness, b.witness)
    if g.degree < 1:
        return False
    if not (is_root_of(g, a) and is_root_of(g, b)):
        return False
    sep = root_separation_bound(g, p)
    ra, rb = refine_root(a, sep + 1), refine_root(b, sep + 1)
    return ord_p(ra.approx - rb.approx, p) >= sep + 1


def _zero_shift(b: Fraction) -> Poly:
    return Poly.of(-b, 1)  # Y - b


def ord_between(a: CenterValue, b: CenterValue, p: int) -> Val:
    """ord(a - b), INFINITY exactly when the centers coincide."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return ord_p(a - b, p)
    if isinstance(b, Fraction):
        return ord_at_root(_diff_poly(b) * Fraction(-1), a)  # ord(a - b)
    if isinstance(a, Fraction):
        return ord_at_root(_diff_poly(a), b)  # ord(a - b) = ord(-(b - a))
    if centers_equal(a, b, p):
        return INFINITY
    n = max(a.precision, b.precision, 2)
    from .errors import InternalBoundError

    for _ in range(64):
        ra, rb = refine_root(a, n), refine_root(b, n)
        v = ord_p(ra.approx - rb.approx, p)
        if v < n:
            return v
        n = 2 * n + 4
    raise InternalBoundError("difference of roots failed to stabilize")


def digits_between(a: CenterValue, b: CenterValue, p: int, depth: int) -> int:
    """Unit digits of (a - b) at the given depth; centers must differ."""
    v = ord_between(a, b, p)
    if v.is_infinite:
        raise ValueError("digits of 0 are undefined")
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return unit_digits(a - b, p, depth).digits
    if isinstance(b, Fraction):
        return digits_at_root(Poly.of(-b, 1), a, depth)  # (Y - b) at a
    if isinstance(a, Fraction):
        return digits_at_root(Poly.of(a, -1), b, depth)  # (a - Y) at b
    n = max(a.precision, b.precision, v.value + depth + 1)
    ra, rb = refine_root(a, n), refine_root(b, n)
    return unit_digits(ra.approx - rb.approx, p, depth).digits


def ord_to_member(y: Rat, c: CenterValue, p: int) -> Val:
    """ord(y - c) for a rational y."""
    return ord_between(Fraction(y), c, p)


def digits_to_member(y: Rat, c: CenterValue, p: int, depth: int) -> int:
    return digits_between(Fraction(y), c, p, depth)


# ---------------------------------------------------------------------------
# Membership, types, products.
# ---------------------------------------------------------------------------


def contains(cell: Cell1, y: Rat, p: int | None = None) -> bool:
    """Exact membership of a rational point."""
    p = cell.prime if p is None else p
    y = Fraction(y)
    if cell.is_point:
        return centers_equal(y, cell.center.value, p)
    v = ord_to_member(y, cell.center.value, p)
    if v.is_infinite:
        return False  # the center itself is not a member of a family
    if v.value not in cell.m_range:
        return False
    if cell.residues.is_all:
        return True
    u = digits_to_member(y, cell.center.value, p, cell.residues.depth)
    return cell.residues.contains(u, p)


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

    @property
    def kept_cells(self) -> tuple[Cell1, ...]:
        return tuple(c for c in self.cells if c.keep)

    def law_polys(self) -> list[Poly]:
        seen: list[Poly] = []
        for c in self.cells:
            for f, _ in c.laws:
                if f not in seen:
                    seen.append(f)
        return seen


def center_sort_key(c: Center):
    if isinstance(c.value, Fraction):
        return (0, c.value, ())
    r = c.value
    tag = r.rv_tag
    return (1, Fraction(0), (r.witness.coeffs, tag.valuation, tag.unit.digits if tag.unit else -1, tag.depth))


def cell_sort_key(cell: Cell1):
    point = 0 if cell.is_point else 1
    lo = -1 if cell.is_point else cell.m_range.lo
    res = () if cell.is_point else (cell.residues.depth, tuple(cell.residues.members(cell.prime))[:4])
    return (center_sort_key(cell.center), point, lo, res)


def sorted_cells(cells: list[Cell1]) -> tuple[Cell1, ...]:
    return tuple(sorted(cells, key=cell_sort_key))


# ---------------------------------------------------------------------------
# Intersections and common refinement.
# ---------------------------------------------------------------------------


def _laws_frozen(cell: Cell1, m_const: int | None) -> dict[Poly, OrderLaw]:
    """The cell's laws as constants, valid where ord(y - center) is m_const."""
    out = {}
    for f, law in cell.laws:
        out[f] = OrderLaw(law.apply(m_const), 0)
    return out


def _laws_dict(cell: Cell1) -> dict[Poly, OrderLaw]:
    return dict(cell.laws)


def _merge_laws(primary: dict[Poly, OrderLaw], secondary: dict[Poly, OrderLaw]):
    out = dict(secondary)
    out.update(primary)
    return tuple(sorted(out.items(), key=lambda kv: kv[0].coeffs))


def _point_in_cell(value: CenterValue, cell: Cell1, p: int) -> bool:
    """Exact membership of a (possibly algebraic) point in a cell."""
    if cell.is_point:
        return centers_equal(value, cell.center.value, p)
    v = ord_between(value, cell.center.value, p)
    if v.is_infinite:
        return False
    if v.value not in cell.m_range:
        return False
    if cell.residues.is_all:
        return True
    u = digits_between(value, cell.center.value, p, cell.residues.depth)
    return cell.residues.contains(u, p)


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
        return [replace(a, keep=keep, laws=_merge_laws(_laws_dict(a), _laws_dict(b)))]
    if a.is_point:
        if _point_in_cell(a.center.value, b, p):
            va = ord_between(a.center.value, b.center.value, p)
            m_const = None if va.is_infinite else va.value
            return [replace(a, keep=keep, laws=_merge_laws(_laws_dict(a), _laws_frozen(b, m_const)))]
        return []
    if b.is_point:
        got = intersect_cells(b, a)
        return [replace(c, keep=keep) for c in got]

    out: list[Cell1] = []
    if centers_equal(a.center.value, b.center.value, p):
        rng = a.m_range.intersect(b.m_range)
        if rng is None:
            return []
        depth = max(a.residues.depth, b.residues.depth)
        ra, rb = a.residues.lift(depth, p), b.residues.lift(depth, p)
        if ra.is_all:
            res = rb
        elif rb.is_all:
            res = ra
        else:
            res = Residues(depth, frozenset(ra.units) & frozenset(rb.units))
            if not res.units:
                return []
        laws = _merge_laws(_laws_dict(a), _laws_dict(b))
        level = max(a.center.level, b.center.level, depth)
        return [Cell1(p, replace(a.center, level=level), rng, res, laws, keep)]

    d_ab = ord_between(a.center.value, b.center.value, p).value
    dA, dB = a.residues.depth, b.residues.depth

    # Region 1: ord(y - cA) = m < d_ab, so ord(y - cB) = m as well and the
    # unit of y - cB is the unit of y - cA minus p^(d_ab - m) * unit(cB - cA).
    rng1 = a.m_range.restrict(hi=d_ab - 1)
    if rng1 is not None:
        work_depth = max(dA, dB)
        delta_digits = digits_between(b.center.value, a.center.value, p, work_depth)
        for m in rng1.values():
            if m not in b.m_range:
                continue
            units = []
            for u in Residues(work_depth, None).members(p):
                if not a.residues.contains(u, p):
                    continue
                gap = d_ab - m
                ub = (u - delta_digits * p**gap) % p**work_depth if gap < work_depth else u
                if not b.residues.contains(ub, p):
                    continue
                units.append(u)
            if units:
                laws = _merge_laws(_laws_dict(a), _laws_frozen(b, m))
                level = max(a.center.level, work_depth)
                out.append(
                    Cell1(p, replace(a.center, level=level), ArithRange(m, m),
                          Residues(work_depth, frozenset(units)), laws, keep)
                )

    # Region 2: ord(y - cA) = m > d_ab, so ord(y - cB) = d_ab constant.
    if d_ab in b.m_range:
        rng2 = a.m_range.restrict(lo=d_ab + 1)
        if rng2 is not None:
            delta = digits_between(a.center.value, b.center.value, p, dB)
            # digits of (y - cB) = digits of (cA - cB) once m - d_ab >= dB
            tail = rng2.restrict(lo=d_ab + dB)
            head_ms = [m for m in rng2.values(limit=max(0, dB))] if rng2.hi is None else list(rng2.values())
            head_ms = [m for m in head_ms if m < d_ab + dB]
            for m in head_ms:
                units = []
                work_depth = max(dA, dB)
                for u in Residues(work_depth, None).members(p):
                    if not a.residues.contains(u, p):
                        continue
                    ub = (delta + u * p ** (m - d_ab)) % p**dB
                    if ub % p == 0:
                        continue
                    if not b.residues.contains(ub, p):
                        continue
                    units.append(u)
                if units:
                    laws = _merge_laws(_laws_dict(a), _laws_frozen(b, d_ab))
                    out.append(
                        Cell1(p, replace(a.center, level=max(a.center.level, work_depth)),
                              ArithRange(m, m), Residues(work_depth, frozenset(units)), laws, keep)
                    )
            if tail is not None and b.residues.contains(delta, p):
                laws = _merge_laws(_laws_dict(a), _laws_frozen(b, d_ab))
                out.append(replace(a, m_range=tail, laws=laws, keep=keep))

    # Region 3: ord(y - cA) = d_ab exactly: cancellation against the other
    # center; pieces live naturally around cB.
    if d_ab in a.m_range:
        delta_b = digits_between(b.center.value, a.center.value, p, dA)  # digits of cB - cA
        # y - cA = (y - cB) + (cB - cA): for ord(y - cB) = mB > d_ab the
        # distance to cA stays d_ab; membership in A is then uniform once
        # mB - d_ab >= dA.
        rngB = b.m_range.restrict(lo=d_ab + 1)
        if rngB is not None:
            head = [m for m in (rngB.values() if rngB.hi is not None else rngB.values(limit=dA)) if m < d_ab + dA]
            for mB in head:
                units = []
                work_depth = max(dA, dB)
                for u in Residues(work_depth, None).members(p):
                    if not b.residues.contains(u, p):
                        continue
                    ua = (delta_b + u * p ** (mB - d_ab)) % p**dA
                    if ua % p == 0:
                        continue
                    if not a.residues.contains(ua, p):
                        continue
                    units.append(u)
                if units:
                    laws = _merge_laws(_laws_dict(b), _laws_frozen(a, d_ab))
                    out.append(
                        Cell1(p, replace(b.center, level=max(b.center.level, work_depth)),
                              ArithRange(mB, mB), Residues(work_depth, frozenset(units)), laws, keep)
                    )
            tailB = rngB.restrict(lo=d_ab + dA)
            if tailB is not None and a.residues.contains(delta_b, p):
                laws = _merge_laws(_laws_dict(b), _laws_frozen(a, d_ab))
                out.append(replace(b, m_range=tailB, laws=laws, keep=keep))
        # mB = d_ab on both sides: members equidistant from both centers;
        # split by matching digits of (y - cA) against (cB - cA).
        if d_ab in b.m_range:
            work_depth = max(dA, dB) + 1
            delta_deep = digits_between(b.center.value, a.center.value, p, work_depth)
            units = []
            for u in Residues(work_depth, None).members(p):
                if not a.residues.contains(u, p):
                    continue
                diff = (u - delta_deep) % p**work_depth
                if diff % p == 0:
                    continue  # handled by the deeper regions around cB
                if not b.residues.contains(diff, p):
                    continue
                units.append(u)
            if units:
                laws = _merge_laws(_laws_dict(a), _laws_frozen(b, d_ab))
                out.append(
                    Cell1(p, replace(a.center, level=max(a.center.level, work_depth)),
                          ArithRange(d_ab, d_ab), Residues(work_depth, frozenset(units)), laws, keep)
                )
    return out


def refine_common(d1: Decomposition, d2: Decomposition) -> Decomposition:
    """A common refinement: every output cell lies in exactly one cell of
    each input, with presentations and laws refining both sides."""
    if d1.prime != d2.prime:
        raise ValueError("prime mismatch")
    if d1.domain != d2.domain:
        raise ValueError("domain mismatch")
    out: list[Cell1] = []
    for a in d1.cells:
        for b in d2.cells:
            out.extend(intersect_cells(a, b))
    return Decomposition(d1.prime, d1.domain, sorted_cells(out), max(d1.k_depth, d2.k_depth))

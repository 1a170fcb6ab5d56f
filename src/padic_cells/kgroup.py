"""The positive Grothendieck semiring of auxiliary classes and the chi map.

A decomposed set contributes, per cell, the class of its auxiliary image
(the index set of (valuation, residue) pairs) placed in the grade equal to
the cell's type sum.  Auxiliary classes are canonicalized by residue count
and order-part shape: finite valuation ranges by their length, unbounded
ones by the symbol H (arithmetic progressions are definably bijective to H).
Working with parameters, finite sets of equal size are definably isomorphic,
so this quotient is sound for the implemented relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cells import Cell1, Decomposition, ProductCell, common_pieces, contains
from .errors import UnsupportedInputError
from .measure import cell_measure, partition_check


@dataclass(frozen=True)
class AuxShape:
    """An auxiliary set: a residue count times a product of order parts,
    each a finite interval (recorded by length) or half-infinite (H=None)."""

    residue_count: int
    order_parts: tuple[int | None, ...] = ()

    def __post_init__(self):
        parts = tuple(sorted(
            (x for x in self.order_parts if x != 1),
            key=lambda x: (x is None, x if x is not None else 0),
        ))
        object.__setattr__(self, "order_parts", parts)

    def __mul__(self, other: "AuxShape") -> "AuxShape":
        return AuxShape(self.residue_count * other.residue_count,
                        self.order_parts + other.order_parts)

    def __str__(self) -> str:
        parts = [str(self.residue_count)]
        parts += ["H" if x is None else f"len:{x}" for x in self.order_parts]
        return " x ".join(parts)


POINT_SHAPE = AuxShape(1, ())


@dataclass(frozen=True)
class K0Element:
    """A finite multiset of graded auxiliary classes: pairs ((shape, grade),
    multiplicity), canonically sorted."""

    parts: tuple[tuple[tuple[AuxShape, int], int], ...] = ()

    @staticmethod
    def of(items: list[tuple[AuxShape, int]]) -> "K0Element":
        counts: dict[tuple[AuxShape, int], int] = {}
        for shape, grade in items:
            key = (shape, grade)
            counts[key] = counts.get(key, 0) + 1
        return K0Element(_canonical(counts))

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        bits = []
        for (shape, grade), mult in self.parts:
            head = f"{mult}*" if mult > 1 else ""
            bits.append(f"{head}[{shape}][{grade}]")
        return " + ".join(bits)


def _canonical(counts: dict[tuple[AuxShape, int], int]):
    items = [(key, m) for key, m in counts.items() if m != 0]
    items.sort(key=lambda km: (km[0][1], km[0][0].residue_count,
                               tuple(-1 if x is None else x for x in km[0][0].order_parts)))
    return tuple(items)


def k0_add(a: K0Element, b: K0Element) -> K0Element:
    counts: dict[tuple[AuxShape, int], int] = {}
    for (key, m) in a.parts + b.parts:
        counts[key] = counts.get(key, 0) + m
    return K0Element(_canonical(counts))


def k0_mul(a: K0Element, b: K0Element) -> K0Element:
    counts: dict[tuple[AuxShape, int], int] = {}
    for (sa, ga), ma in a.parts:
        for (sb, gb), mb in b.parts:
            key = (sa * sb, ga + gb)
            counts[key] = counts.get(key, 0) + ma * mb
    return K0Element(_canonical(counts))


def _cell_shape(cell: Cell1) -> AuxShape:
    if cell.is_point:
        return POINT_SHAPE
    rng = cell.m_range
    length = None if rng.hi is None else rng.count()
    return AuxShape(cell.residues.count(), (length,))


def chi(dec: Decomposition) -> K0Element:
    """The Euler-characteristic element of the kept set, one graded auxiliary
    class per kept cell: of the whole domain for a polynomial's decomposition."""
    return K0Element.of([(_cell_shape(c), c.kind) for c in dec.kept_cells])


def chi_product(cells: list[ProductCell]) -> K0Element:
    """chi of a decomposition into product cells: shapes multiply, grades add."""
    items = []
    for pc in cells:
        shape = POINT_SHAPE
        grade = 0
        for factor in pc.factors:
            shape = shape * _cell_shape(factor)
            grade += factor.kind
        items.append((shape, grade))
    return K0Element.of(items)


def cv_check(d1: Decomposition, d2: Decomposition) -> bool:
    """Whether the chi classes of two decompositions of the same set are
    identified by the refinement-generated relations.

    The pieces of the common refinement R come from common_pieces, with the
    two parents that intersect_cells put each one inside.  Grouped by parent,
    they must partition every parent cell exactly -- the measures of the
    pieces, each computed once, sum to the parent's, and `partition_check`
    with the group's centers inside the parent as probes finds no overlap and
    no uncovered center -- with no child of a larger type, after which both
    reductions land on the identical canonical element chi(R).  Types and
    measures are compared first, so a partition that misses a measure fails
    without any overlap loop.  Different sets are rejected.
    """
    groups = ([[] for _ in d1.cells], [[] for _ in d2.cells])
    totals = ([Fraction(0)] * len(d1.cells), [Fraction(0)] * len(d2.cells))
    for i, j, piece in common_pieces(d1, d2):
        if d1.cells[i].keep != d2.cells[j].keep:
            raise UnsupportedInputError("the decompositions describe different sets")
        groups[0][i].append(piece)
        groups[1][j].append(piece)
        mu = cell_measure(piece)
        totals[0][i] += mu
        totals[1][j] += mu
    parents = [(parent, children, total)
               for parent_dec, children_of, totals_of in zip((d1, d2), groups, totals)
               for parent, children, total in zip(parent_dec.cells, children_of, totals_of)]
    if any(any(c.kind > parent.kind for c in children) or total != cell_measure(parent)
           for parent, children, total in parents):
        return False
    # no overlapping pair and no uncovered center in any group
    return all(partition_check(children, lambda v: contains(parent, v),
                               [parent.center.value] + [c.center.value for c in children])
               == ((), 0) for parent, children, _ in parents)

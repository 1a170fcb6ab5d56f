"""Dimension theory on cells, decompositions and products.

The dimension of a decomposed set is the maximum type sum over its cells;
the empty set has dimension minus infinity, which absorbs sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import Cell1, Decomposition, ProductCell


@dataclass(frozen=True)
class Dim:
    value: int | None  # None = minus infinity (the empty set)

    @property
    def is_minus_infinity(self) -> bool:
        return self.value is None

    def __add__(self, other: "Dim") -> "Dim":
        if self.value is None or other.value is None:
            return MINUS_INFINITY
        return Dim(self.value + other.value)

    def __str__(self) -> str:
        return "-inf" if self.value is None else str(self.value)


MINUS_INFINITY = Dim(None)


def _cells_of(x) -> list:
    if isinstance(x, Decomposition):
        return list(x.kept_cells)
    return list(x)


def dim_of(x: Decomposition | list[Cell1] | list[ProductCell]) -> Dim:
    """Maximum type sum over the (kept) cells; -inf for the empty set."""
    cells = _cells_of(x)
    if not cells:
        return MINUS_INFINITY
    best = None
    for c in cells:
        s = sum(c.type) if isinstance(c, ProductCell) else c.kind
        best = s if best is None else max(best, s)
    return Dim(best)


def dim_product(a: Dim, b: Dim) -> Dim:
    return a + b


def verify_dim_product(xa, xb) -> bool:
    """dim(A x B) computed through product cells equals dim A + dim B."""
    from .cells import product

    da, db = dim_of(xa), dim_of(xb)
    ca, cb = _cells_of(xa), _cells_of(xb)
    pairs = [product([a, b]) for a in ca for b in cb]
    return dim_of(pairs).value == dim_product(da, db).value


def dim_union(decs: list[Decomposition]) -> Dim:
    """Dimension of a disjoint union: the maximum of the dimensions."""
    from .cells import candidate_pairs, intersect_cells

    for i in range(len(decs)):
        for j in range(i + 1, len(decs)):
            if decs[i].prime != decs[j].prime:
                raise ValueError("prime mismatch")
            ka, kb = decs[i].kept_cells, decs[j].kept_cells
            if any(intersect_cells(ka[s], kb[t]) for s, t in candidate_pairs(ka, kb)):
                raise ValueError("union is not disjoint")
    out = MINUS_INFINITY
    for d in decs:
        got = dim_of(d)
        if out.is_minus_infinity or (not got.is_minus_infinity and got.value > out.value):
            out = got
    return out

"""Dimension theory on cells, decompositions and products.

The dimension of a decomposed set is the maximum type sum over its cells, an
int; the empty set has dimension minus infinity, written None, which absorbs
sums.
"""

from __future__ import annotations

from .cells import Cell1, Decomposition, ProductCell


def _cells_of(x) -> list:
    if isinstance(x, Decomposition):
        return list(x.kept_cells)
    return list(x)


def dim_of(x: Decomposition | list[Cell1] | list[ProductCell]) -> int | None:
    """Maximum type sum over the (kept) cells; None (-inf) for the empty set."""
    return max((sum(c.type) if isinstance(c, ProductCell) else c.kind for c in _cells_of(x)),
               default=None)


def dim_product(a: int | None, b: int | None) -> int | None:
    return None if a is None or b is None else a + b


def verify_dim_product(xa, xb) -> bool:
    """dim(A x B) computed through product cells equals dim A + dim B."""
    from .cells import product

    da, db = dim_of(xa), dim_of(xb)
    ca, cb = _cells_of(xa), _cells_of(xb)
    pairs = [product([a, b]) for a in ca for b in cb]
    return dim_of(pairs) == dim_product(da, db)


def dim_union(decs: list[Decomposition]) -> int | None:
    """Dimension of a disjoint union: the maximum of the dimensions."""
    from .cells import candidate_pairs, intersect_cells

    for i in range(len(decs)):
        for j in range(i + 1, len(decs)):
            if decs[i].prime != decs[j].prime:
                raise ValueError("prime mismatch")
            ka, kb = decs[i].kept_cells, decs[j].kept_cells
            if any(intersect_cells(ka[s], kb[t]) for s, t in candidate_pairs(ka, kb)):
                raise ValueError("union is not disjoint")
    return max((d for d in map(dim_of, decs) if d is not None), default=None)

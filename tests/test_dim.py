import pytest

from padic_cells.cells import refine_common
from padic_cells.decompose import FAtom, OrdCmp, decompose_set, prepare
from padic_cells.dim import dim_of, dim_product, dim_union, verify_dim_product
from padic_cells.poly import Poly

Y = Poly.of(0, 1)


def test_dim_basics():
    D = prepare(Y, 5)
    assert dim_of(D) == 1
    points = [c for c in D.cells if c.is_point]
    assert dim_of(points) == 0
    assert dim_of([]) is None


def test_dim_product():
    D = prepare(Y, 5)
    one = dim_of(D)
    assert dim_product(one, one) == 2
    assert dim_product(one, 0) == 1
    assert dim_product(None, one) is None
    assert verify_dim_product(D, D)
    points = [c for c in D.cells if c.is_point]
    assert verify_dim_product(D, points)


def test_dim_union():
    D_pt = decompose_set(FAtom(OrdCmp(Y, None, 10**6, ">=")), 5)  # essentially {0}
    D_rest = decompose_set(FAtom(OrdCmp(Y, None, 0, "=")), 5)     # the unit sphere
    assert dim_union([D_pt, D_rest]) == 1
    assert dim_union([]) is None


def test_dim_union_rejects_overlap():
    D1 = decompose_set(FAtom(OrdCmp(Y, None, 1, ">=")), 5)
    D2 = decompose_set(FAtom(OrdCmp(Y, None, 2, ">=")), 5)
    with pytest.raises(ValueError):
        dim_union([D1, D2])


def test_dim_invariant_under_refinement():
    D0 = prepare(Y, 5)
    D1 = prepare(Poly.of(-1, 1), 5)
    R = refine_common(D0, D1)
    assert dim_of(R) == dim_of(D0) == 1


def test_single_cell_dims():
    D = prepare(Y, 5)
    for c in D.cells:
        assert dim_of([c]) == (0 if c.is_point else 1)

from fractions import Fraction

import pytest

from padic_cells.cells import (
    ArithRange,
    Cell1,
    Center,
    Decomposition,
    Residues,
    TConst,
    ZP,
    product,
    sorted_cells,
)
from padic_cells.decompose import prepare
from padic_cells.kgroup import (
    AuxShape,
    K0Element,
    POINT_SHAPE,
    chi,
    chi_product,
    cv_check,
    k0_add,
    k0_mul,
)
from padic_cells.poly import Poly


def punctured_zp(p, depth, keep_point=False):
    zero = Center(Fraction(0), 1, TConst(Fraction(0)))
    return Decomposition(p, ZP, sorted_cells([
        Cell1(p, zero, None, None, (), keep=keep_point),
        Cell1(p, zero, ArithRange(0, None), Residues(depth, None), (), keep=True),
    ]))


def test_chi_standard_decomposition():
    D = prepare(Poly.of(0, 1), 5)
    el = chi(D, kept_only=False)
    want = K0Element.of([(POINT_SHAPE, 0), (AuxShape(4, (None,)), 1)])
    assert el == want


def test_chi_punctured_depth2():
    el = chi(punctured_zp(5, 2))
    assert el == K0Element.of([(AuxShape(20, (None,)), 1)])


def test_chi_additive_over_disjoint_union():
    d1 = chi(punctured_zp(5, 1))
    d2 = chi(prepare(Poly.of(0, 1), 5), kept_only=False)
    both = k0_add(d1, d2)
    # multiset union, exactly
    assert both == K0Element.of([(AuxShape(4, (None,)), 1),
                                 (POINT_SHAPE, 0), (AuxShape(4, (None,)), 1)])


def test_k0_identities():
    a = K0Element.of([(AuxShape(4, (None,)), 1)])
    pt = K0Element.of([(POINT_SHAPE, 0)])
    empty = K0Element.of([])
    assert k0_add(a, empty) == a
    assert k0_mul(a, pt) == a
    assert k0_mul(a, a) == K0Element.of([(AuxShape(16, (None, None)), 2)])


def test_product_grading_matches_dimension():
    # chi of a product decomposition = product of the chis, grade = type sum
    D = prepare(Poly.of(0, 1), 5)
    cells = list(D.cells)
    pairs = [product([a, b]) for a in cells for b in cells]
    el = chi_product(pairs)
    single = chi(D, kept_only=False)
    assert el == k0_mul(single, single)
    grades = {grade for (shape, grade), _ in el.parts}
    assert grades == {0, 1, 2}


def test_cv_check_identical():
    D = prepare(Poly.of(0, 1), 5)
    assert cv_check(D, D)


def test_cv_check_depth_presentations():
    assert cv_check(punctured_zp(5, 1), punctured_zp(5, 2))


def test_cv_check_different_centers():
    D0 = prepare(Poly.of(0, 1), 5)
    D1 = prepare(Poly.of(-1, 1), 5)
    assert cv_check(D0, D1)


def test_cv_check_false_on_a_broken_partition():
    # one family is covered twice, so the measures of its children overshoot
    p = 5
    zero = Center(Fraction(0), 1, TConst(Fraction(0)))
    overlapping = Decomposition(p, ZP, sorted_cells([
        Cell1(p, zero, None, None, ()),
        Cell1(p, zero, ArithRange(0, None), Residues(1, None), ()),
        Cell1(p, zero, ArithRange(1, 2), Residues(1, None), ()),
    ]))
    assert cv_check(overlapping, prepare(Poly.of(0, 1), p)) is False


def test_cv_check_rejects_different_sets():
    with pytest.raises(ValueError):
        cv_check(punctured_zp(5, 1), punctured_zp(5, 1, keep_point=True))


def test_cv_check_across_formulas():
    from padic_cells.decompose import decompose_set
    from padic_cells.parser import parse_formula

    d1 = decompose_set(parse_formula("ord(y) >= 1"), 5)
    d2 = decompose_set(parse_formula("ord(y) > 0"), 5)
    d3 = decompose_set(parse_formula("ord(y^2) >= 2"), 5)
    assert cv_check(d1, d2)
    assert cv_check(d1, d3)


def test_shape_canonicalization():
    # length-1 order parts are definably redundant and dropped
    assert AuxShape(3, (1,)) == AuxShape(3, ())
    assert AuxShape(3, (2, None)) == AuxShape(3, (None, 2))

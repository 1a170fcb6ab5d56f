from dataclasses import replace
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
    common_pieces,
    contains,
    intersect_cells,
    product,
    refine_common,
    sorted_cells,
)
from padic_cells.decompose import decompose_set, prepare
from padic_cells.errors import UnsupportedInputError
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
from padic_cells import kgroup, measure
from padic_cells.measure import cell_measure, exact_partition_check, partition_check
from padic_cells.parser import parse_formula
from padic_cells.poly import Poly

from conftest import PRIMES
from fraction_loops import all_cells_chi, all_pairs_common_pieces, all_pairs_partition_check


def punctured_zp(p, depth, keep_point=False):
    zero = Center(Fraction(0), 1, TConst(Fraction(0)))
    return Decomposition(p, ZP, sorted_cells([
        Cell1(p, zero, None, None, {}, keep=keep_point),
        Cell1(p, zero, ArithRange(0, None), Residues(depth, p=p), {}, keep=True),
    ]))


def test_chi_standard_decomposition():
    D = prepare(Poly.of(0, 1), 5)
    el = chi(D)
    want = K0Element.of([(POINT_SHAPE, 0), (AuxShape(4, (None,)), 1)])
    assert el == want


@pytest.mark.parametrize("p", PRIMES)
def test_chi_of_a_polynomial_reads_every_cell(corpus, corpus_decompositions, p):
    # a polynomial's decomposition keeps every cell, so chi of its kept cells
    # is the chi of all of them that kept_only=False used to read
    for name in corpus:
        dec = corpus_decompositions[name, p]
        assert all(c.keep for c in dec.cells)
        assert chi(dec) == all_cells_chi(dec), (name, p)


def test_chi_punctured_depth2():
    el = chi(punctured_zp(5, 2))
    assert el == K0Element.of([(AuxShape(20, (None,)), 1)])


def test_chi_additive_over_disjoint_union():
    d1 = chi(punctured_zp(5, 1))
    d2 = chi(prepare(Poly.of(0, 1), 5))
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
    single = chi(D)
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
        Cell1(p, zero, None, None, {}),
        Cell1(p, zero, ArithRange(0, None), Residues(1, p=p), {}),
        Cell1(p, zero, ArithRange(1, 2), Residues(1, p=p), {}),
    ]))
    assert cv_check(overlapping, prepare(Poly.of(0, 1), p)) is False


def test_cv_check_rejects_different_sets():
    with pytest.raises(ValueError):
        cv_check(punctured_zp(5, 1), punctured_zp(5, 1, keep_point=True))


def test_cv_check_across_formulas():
    d1 = decompose_set(parse_formula("ord(y) >= 1"), 5)
    d2 = decompose_set(parse_formula("ord(y) > 0"), 5)
    d3 = decompose_set(parse_formula("ord(y^2) >= 2"), 5)
    assert cv_check(d1, d2)
    assert cv_check(d1, d3)


def test_shape_canonicalization():
    # length-1 order parts are definably redundant and dropped
    assert AuxShape(3, (1,)) == AuxShape(3, ())
    assert AuxShape(3, (2, None)) == AuxShape(3, (None, 2))


def _index_of_holder(piece, dec):
    """The index of the one cell of dec that meets piece, checked to hold it."""
    meets = [i for i, c in enumerate(dec.cells) if intersect_cells(c, piece)]
    assert len(meets) == 1
    parent = dec.cells[meets[0]]
    if piece.is_point:
        assert contains(parent, piece.center.value)
    else:
        inside = sum((cell_measure(c) for c in intersect_cells(parent, piece)), Fraction(0))
        assert inside == cell_measure(piece)
    return meets[0]


FORMULAS = ["ord(y^2 - 1) >= 1", "ord(y) % 2 = 0 & ord(y - 1) < 2",
            "ac(1, y + 1) = 1 | ord(y^3 - y) > 1", "!(ord(y - 2) = 1)"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_refinement_pieces_lie_in_one_cell_of_each_input(p, corpus_decompositions):
    # the recorded parents of each piece are the one cell of each input
    # that holds it, and refine_common is made of exactly these pieces
    decs = [d for (_, q), d in corpus_decompositions.items() if q == p]
    pairs = list(zip(decs, decs[1:]))[::4]
    formulas = [decompose_set(parse_formula(text), p) for text in FORMULAS]
    pairs += [(a, b) for i, a in enumerate(formulas) for b in formulas[i + 1:]]
    for d1, d2 in pairs:
        pieces = common_pieces(d1, d2)
        assert refine_common(d1, d2).cells == sorted_cells([c for _, _, c in pieces])
        for i, j, piece in pieces:
            assert _index_of_holder(piece, d1) == i
            assert _index_of_holder(piece, d2) == j


def _broken(dec):
    """dec with one cell dropped, with one cell duplicated, with one family
    duplicated in place of another of equal measure (so the measure sums
    stay right), or with a family added that overlaps other cells."""
    cells = list(dec.cells)
    zero = Center(Fraction(0), 1, TConst(Fraction(0)))
    overlap = Cell1(dec.prime, zero, ArithRange(1, 2), Residues(1, p=dec.prime), {})
    variants = [cells[:i] + cells[i + 1:] for i in range(len(cells))]
    variants += [cells + [c] for c in cells] + [cells + [overlap]]
    variants += [cells[:i] + cells[i + 1:] + [c] for i, gone in enumerate(cells)
                 for n, c in enumerate(cells)
                 if n != i and not gone.is_point and cell_measure(c) == cell_measure(gone)]
    return [replace(dec, cells=sorted_cells(v)) for v in variants]


def _holds(d1, d2):
    try:
        return cv_check(d1, d2)
    except UnsupportedInputError:
        return False


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cv_check_false_on_every_broken_partition(p):
    for f in (Poly.of(-1, 0, 1), Poly.of(0, -1, 0, 1), Poly.of(-2, 0, 1)):
        good = prepare(f, p)
        for other in (good, prepare(Poly.of(-1, 1), p)):
            for broken in _broken(good):
                assert not _holds(broken, other)
                assert not _holds(other, broken)


def _parent_checks(d1, d2, pieces, check):
    """The partition check of every parent cell over its pieces, as cv_check
    runs it, by the given implementation of partition_check."""
    groups = ([[] for _ in d1.cells], [[] for _ in d2.cells])
    for i, j, piece in pieces:
        groups[0][i].append(piece)
        groups[1][j].append(piece)
    return [check(children, lambda v, parent=parent: contains(parent, v),
                  [parent.center.value] + [c.center.value for c in children])
            for dec, kids in zip((d1, d2), groups) for parent, children in zip(dec.cells, kids)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_indexed_loops_match_the_all_pairs_loops(p, corpus_decompositions, monkeypatch):
    # the same pieces in the same order, and equal PartitionChecks (overlaps,
    # missing measure, uncovered centers), on corpus pairs and on the broken
    # partitions of test_cv_check_false_on_every_broken_partition, on either side
    decs = [d for (_, q), d in corpus_decompositions.items() if q == p]
    pairs = list(zip(decs, decs[1:]))[::2]
    broken = []
    for f in (Poly.of(-1, 0, 1), Poly.of(0, -1, 0, 1), Poly.of(-2, 0, 1)):
        good, line = prepare(f, p), prepare(Poly.of(-1, 1), p)
        variants = _broken(good)
        broken += variants
        pairs += [pair for d in variants for pair in ((d, good), (line, d))]
    for d1, d2 in pairs:
        pieces = common_pieces(d1, d2)
        assert pieces == all_pairs_common_pieces(d1, d2)
        assert (_parent_checks(d1, d2, pieces, partition_check)
                == _parent_checks(d1, d2, pieces, all_pairs_partition_check))
    checks = [exact_partition_check(d) for d in decs + broken]
    assert all(c.ok for c in checks[:len(decs)]) and not any(c.ok for c in checks[len(decs):])
    monkeypatch.setattr(measure, "partition_check", all_pairs_partition_check)
    assert checks == [exact_partition_check(d) for d in decs + broken]


def test_cv_check_measures_each_cell_once(monkeypatch):
    """cv_check measures every parent once and every piece of the common
    refinement once, though each piece sits in two groups."""
    calls = []

    def counted(cell, p=None):
        calls.append(cell)
        return cell_measure(cell)

    monkeypatch.setattr(kgroup, "cell_measure", counted)
    monkeypatch.setattr(measure, "cell_measure", counted)
    for text, other in (("ord(y^2 - 1) >= 1 | ac(1, y) = 2", "ac(1, y) = 2 | ord(y^2 - 1) > 0"),
                        ("ord(y) >= 1000 | ord(y - 1) >= 3", "!(ord(y) < 1000) | ord(y - 1) > 2")):
        d1, d2 = (decompose_set(parse_formula(t), 5) for t in (text, other))
        pieces = common_pieces(d1, d2)
        calls.clear()
        assert cv_check(d1, d2)
        assert len(calls) == len(d1.cells) + len(d2.cells) + len(pieces)


EQUIVALENT = [
    # De Morgan
    ("!(ord(y^2 - 1) >= 1 & ord(y - 2) < 2)", "!(ord(y^2 - 1) >= 1) | !(ord(y - 2) < 2)"),
    ("!(ac(1, y + 1) = 1 | ord(y) % 2 = 0)", "!(ac(1, y + 1) = 1) & !(ord(y) % 2 = 0)"),
    # double negation
    ("!(!(ord(y^3 - y) > 1))", "ord(y^3 - y) > 1"),
    # ord(f) >= c against !(ord(f) < c)
    ("ord(2*y + 1) >= 1", "!(ord(2*y + 1) < 1)"),
    ("ord(y^2 - 2) >= 2", "!(ord(y^2 - 2) < 2)"),
]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("phi,psi", EQUIVALENT)
def test_cv_check_holds_between_equivalent_formulas(p, phi, psi):
    d1 = decompose_set(parse_formula(phi), p)
    d2 = decompose_set(parse_formula(psi), p)
    assert cv_check(d1, d2) and cv_check(d2, d1)

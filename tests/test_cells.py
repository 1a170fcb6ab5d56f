import random
from fractions import Fraction

import pytest
from conftest import PRIMES
from fraction_loops import fraction_sorted_cells, generator_head, per_cell_law_order

from padic_cells.cells import (
    ArithRange,
    Cell1,
    Center,
    Decomposition,
    OrderLaw,
    Residues,
    TConst,
    TH,
    ZP,
    Ball,
    candidate_pairs,
    cell_type,
    center_term,
    contains,
    evaluate_term,
    intersect_cells,
    ord_between,
    product,
    refine_common,
    sorted_cells,
)
from padic_cells.cli import _cell_json
from padic_cells.decompose import decompose_set, prepare
from padic_cells.errors import UnsupportedInputError
from padic_cells.hensel import refine_root
from padic_cells.measure import decomposition_measure, exact_partition_check
from padic_cells.padics import INFINITY, ord_p, rv
from padic_cells.parser import parse_formula
from padic_cells.poly import Poly, format_poly


def fam(p, c, lo, hi=None, depth=1, units=None, level=1):
    return Cell1(p, Center(Fraction(c), level, TConst(Fraction(c))),
                 ArithRange(lo, hi),
                 Residues(depth, None if units is None else frozenset(units), p))


def pt(p, c):
    return Cell1(p, Center(Fraction(c), 1, TConst(Fraction(c))), None, None)


def test_contains_examples():
    c = fam(5, 0, 0)
    assert contains(c, 7)
    assert not contains(c, Fraction(1, 5))
    assert contains(pt(5, 1), 1) and not contains(pt(5, 1), 6)


def test_contains_respects_residues():
    c = fam(5, 0, 0, None, depth=1, units={2})
    assert contains(c, 2) and contains(c, 7) and not contains(c, 3)
    assert contains(c, 10)       # unit part of 10 is 2
    assert not contains(c, 15)   # unit part 3 is excluded


def test_contains_algebraic_center():
    D = prepare(Poly.of(-6, 0, 1), 5)
    root_cells = [c for c in D.cells if not c.center.is_rational and not c.is_point]
    assert root_cells
    cell = root_cells[0]
    r = refine_root(cell.center.value, 8)
    member = r.approx + 5**3  # distance exactly 3 from the root
    assert contains(cell, member)
    assert not contains(cell, member * 5)


def test_cell_type():
    assert cell_type(fam(5, 0, 0)) == (1,)
    assert cell_type(pt(5, 0)) == (0,)
    assert cell_type(product([fam(5, 0, 0), pt(5, 1)])) == (1, 0)


def test_product_types():
    assert product([fam(5, 0, 0)]).type == (1,)
    assert product([fam(5, 0, 0), fam(5, 1, 0)]).type == (1, 1)
    assert product([pt(5, 0), fam(5, 0, 0), pt(5, 2)]).type == (0, 1, 0)
    with pytest.raises(ValueError):
        product([fam(5, 0, 0), fam(7, 0, 0)])


def test_ball_realization():
    # each (m, residue) fiber of a family is one ball: all members within
    # distance p^-(m+d) of each other, and every such point is a member
    cell = fam(5, 0, 1, depth=2, units={7})
    base = Fraction(7) * 5  # m = 1, unit 7 at depth 2
    for t in range(12):
        assert contains(cell, base + t * 5**3)
    assert not contains(cell, base + 5**2)  # leaves the residue class


def test_refine_common_idempotent():
    D = prepare(Poly.of(0, 1), 5)
    R = refine_common(D, D)
    assert exact_partition_check(R).ok
    assert decomposition_measure(R) == 1
    assert len(R.cells) == len(D.cells)


def test_every_residue_set_holds_its_prime():
    # a set without its prime fails at once, and a cell takes only a set of
    # its own prime
    with pytest.raises(TypeError):
        Residues(1, None)
    with pytest.raises(TypeError):
        Residues(2, classes=[(1, 1)])
    zero = Center(Fraction(0), 1)
    with pytest.raises(ValueError, match="another prime"):
        Cell1(5, zero, ArithRange(0, None), Residues(1, p=7))
    assert Cell1(5, zero, ArithRange(0, None), Residues(1, p=5)).residues.p == 5
    assert Residues(1, p=5) != Residues(1, p=7)


def test_refine_common_depths():
    zero = Center(Fraction(0), 1, TConst(Fraction(0)))
    mk = lambda depth: Decomposition(5, ZP, sorted_cells([
        Cell1(5, zero, None, None, {}),
        Cell1(5, zero, ArithRange(0, None), Residues(depth, p=5), {}),
    ]))
    R = refine_common(mk(1), mk(2))
    fams = [c for c in R.cells if not c.is_point]
    assert len(fams) == 1 and fams[0].residues.depth == 2
    assert exact_partition_check(R).ok
    # k_depth reports the depth of the cells, not the inputs' k_depth of 1
    assert R.k_depth == 2


def test_refine_common_different_centers():
    D0 = prepare(Poly.of(0, 1), 5)
    D1 = prepare(Poly.of(-1, 1), 5)
    R = refine_common(D0, D1)
    assert exact_partition_check(R).ok
    # exhaustive membership: every class mod 5^4 lies in exactly one cell,
    # and that cell lies inside exactly one cell on each side
    for r in range(1, 5**4):
        y = Fraction(r)
        hits = [c for c in R.cells if contains(c, y)]
        assert len(hits) == 1
        assert sum(1 for c in D0.cells if contains(c, y)) == 1
        assert sum(1 for c in D1.cells if contains(c, y)) == 1


def test_refinement_subset_property():
    D0 = prepare(Poly.of(0, 1), 5)
    D1 = prepare(Poly.of(-1, 1), 5)
    R = refine_common(D0, D1)
    for cell in R.cells:
        parents0 = [a for a in D0.cells if intersect_cells(a, cell)]
        parents1 = [b for b in D1.cells if intersect_cells(b, cell)]
        assert len(parents0) == 1 and len(parents1) == 1


def test_refine_common_domain_mismatch():
    D0 = prepare(Poly.of(0, 1), 5)
    D1 = prepare(Poly.of(0, 1), 7)
    with pytest.raises(ValueError):
        refine_common(D0, D1)


def test_ord_between_algebraic():
    D = prepare(Poly.of(-6, 0, 1), 5)
    roots = [c.center.value for c in D.cells
             if not c.center.is_rational and not c.is_point]
    a, b = roots[0], roots[1]
    # sqrt(6) branches differ by 2 sqrt(6), a unit
    assert ord_between(a, b, 5) == ord_p(Fraction(2), 5)
    assert ord_between(a, a, 5) is INFINITY


def test_center_term_examples():
    # rational center: constant term
    D = prepare(Poly.of(0, 1), 5)
    t = center_term(D.cells[0])
    assert isinstance(t, TConst) and t.value == 0
    # Hensel center for y^2-6: an h-node with m+2 = 4 children
    D6 = prepare(Poly.of(-6, 0, 1), 5)
    cell = next(c for c in D6.cells if not c.center.is_rational)
    term = center_term(cell)
    h_nodes = _collect_h(term)
    assert h_nodes and all(len(n.coeffs) == n.m + 1 for n in h_nodes)
    # no provenance: signals
    bare = Cell1(5, Center(Fraction(0), 1, None), None, None)
    with pytest.raises(UnsupportedInputError):
        center_term(bare)


def _collect_h(term):
    out = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, TH):
            out.append(t)
            stack.extend(t.coeffs)
            stack.append(t.rv_arg)
        elif hasattr(t, "left"):
            stack.extend([t.left, t.right])
        elif hasattr(t, "arg"):
            stack.append(t.arg)
    return out


def test_term_evaluation_reproduces_centers():
    # evaluating the emitted term reproduces the center to its precision,
    # including nested h-terms from the deeper recursion of a quartic
    for coeffs, p in [([-6, 0, 1], 5), ([1, -1, -1, 1], 5), ([-2, 0, 0, 1], 7),
                      ([-1, 0, 0, 0, 1], 5)]:
        D = prepare(Poly.of(*coeffs), p)
        for cell in D.cells:
            if cell.center.term is None:
                continue
            value = cell.center.value
            got = evaluate_term(cell.center.term, p, 6)
            if isinstance(value, Fraction):
                assert ord_p(got - value, p) >= 6 or got == value
            else:
                rr = refine_root(value, 6)
                assert ord_p(got - rr.approx, p) >= 6


def test_type_uniqueness_on_produced_cells():
    # produced cells with identical member sets have equal kinds: points are
    # single points, families are infinite, so equal member sets force equal
    # kinds; check the data-level consequence on a real decomposition
    D = prepare(Poly.of(-1, 0, 1), 5)
    for a in D.cells:
        for b in D.cells:
            if a is b:
                continue
            inter = intersect_cells(a, b)
            assert not inter  # partition: no two cells share members


def test_law_table():
    p, y, sq = 5, Poly.of(0, 1), Poly.of(-1, 0, 1)
    law_y, law_sq = OrderLaw(0, 1), OrderLaw(2, 0)
    cell = Cell1(p, Center(Fraction(0), 1), ArithRange(0, None), Residues(1, p=p), {sq: law_sq, y: law_y})
    # the table is a mapping, one law per polynomial
    assert cell.laws == {y: law_y, sq: law_sq}
    assert cell.law_for(y) == law_y
    with pytest.raises(ValueError):
        cell.law_for(Poly.of(1, 1))
    assert cell.frozen_laws(3) == {sq: law_sq, y: OrderLaw(3, 0)}
    updated = cell.with_laws({y: OrderLaw(1, 0)})
    assert updated.laws == {sq: law_sq, y: OrderLaw(1, 0)}
    # with_laws builds a new table and leaves the old one as it was
    assert cell.laws[y] == law_y


def test_sort_key_reads_only_the_first_units():
    # the full unit list at p = 10^9 + 7 would hold 10^9 entries
    p = 1000000007
    cell = Cell1(p, Center(Fraction(0), 1), ArithRange(0, None), Residues(1, p=p))
    assert Residues(1, p=p).members(limit=4) == [1, 2, 3, 4]
    assert Residues(2, frozenset({9, 3, 7, 1, 5}), p).members(limit=4) == [1, 3, 5, 7]
    assert sorted_cells([cell, pt(p, 0)]) == (pt(p, 0), cell)


def test_first_units_of_all_residues_match_the_generator():
    # p > limit reads 1, ..., limit with no generator; p <= limit walks one
    for p in (2, 3, 5, 7, 1009):
        for depth in (1, 2, 3):
            res = Residues(depth, p=p)
            for limit in (1, 2, 4, 5, 9):
                assert tuple(res.members(limit=limit)) == generator_head(res, p, limit)
            if p < 1009:
                assert tuple(res.members()) == generator_head(res, p, None)


def _assert_same_orders(cells, seed=0):
    """sorted_cells on its integer keys orders the cells as the Fraction key
    did, from several starting orders, and the law tables of one payload,
    ordered once per set of polynomials and turned into JSON once per
    table, print as each cell's own sort did."""
    rng = random.Random(seed)
    for _ in range(3):
        shuffled = list(cells)
        rng.shuffle(shuffled)
        assert sorted_cells(shuffled) == fraction_sorted_cells(shuffled)
    names, orders, tables = {}, {}, {}
    for cell in cells:
        assert list(_cell_json(cell, names, orders, tables)["laws"]) == \
            [format_poly(f) for f in per_cell_law_order(cell)]


@pytest.mark.parametrize("p", PRIMES + [31])
def test_integer_sort_keys_keep_the_fraction_order_on_the_corpus(corpus,
                                                                  corpus_decompositions, p):
    for name, f in corpus.items():
        dec = corpus_decompositions[name, p] if p in PRIMES else prepare(f, p)
        assert dec.cells == fraction_sorted_cells(dec.cells)
        _assert_same_orders(dec.cells)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_integer_sort_keys_keep_the_fraction_order_on_formulas(p):
    for text in ("ord(2*y - 1) >= ord(3*y + 5) & ac(1, y^2 - 2) = 1",
                 "ord(7*y - 2) % 2 = 0 | rv(2, y^2 + 1) = 0",
                 "ac(2, 6*y^2 - 5*y + 1) = 1 & !(ord(y) >= 2)"):
        dec = decompose_set(parse_formula(text), p)
        assert dec.cells == fraction_sorted_cells(dec.cells)
        _assert_same_orders(dec.cells)


def test_integer_sort_keys_on_mixed_denominators_and_roots():
    """Rational centers with different denominators, one of them repeated,
    zero, and Hensel roots, each as a point and as families."""
    p = 7
    roots = {c.center for c in prepare(Poly.of(-2, 0, 1), p).cells
             if not c.center.is_rational}
    assert len(roots) == 2
    centers = [Center(Fraction(x), 1) for x in ("1/3", "-5/2", "2/7", "0", "1/3")] + list(roots)
    laws = [{Poly.of(0, 1): OrderLaw(0, 1)},
            {Poly.of(-2, 0, 1): OrderLaw(1, 0), Poly.of(0, 1): OrderLaw(0, 0)}]
    cells = []
    for i, center in enumerate(centers):
        cells.append(Cell1(p, center, None, None, laws[i % 2]))
        for lo, res in ((0, Residues(1, p=p)), (2, Residues(1, p=p)), (2, Residues(2, frozenset({3, 8}), p))):
            cells.append(Cell1(p, center, ArithRange(lo, None), res, laws[(i + lo) % 2]))
    _assert_same_orders(cells)
    ordered = sorted_cells(cells)
    assert [c.center.value for c in ordered[:20:4]] == \
        [Fraction(-5, 2), 0, Fraction(2, 7), Fraction(1, 3), Fraction(1, 3)]
    assert not any(c.center.is_rational for c in ordered[20:])


def _assert_candidates_cover(left, right):
    """candidate_pairs(left, right) comes in (i, j) order, once each, and
    holds every pair where intersect_cells is nonempty or, for a point given
    by its value, where contains holds."""
    got = candidate_pairs(left, right)
    assert got == sorted(set(got))
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            meets = intersect_cells(a, b) if isinstance(a, Cell1) else contains(b, a)
            if meets:
                assert (i, j) in got, (a, b)
    return got


def _assert_index_covers(d1, d2):
    """The index covers d1 against d2, d1 against itself, and d1's centers."""
    _assert_candidates_cover(d1.cells, d1.cells)
    _assert_candidates_cover([c.center.value for c in d1.cells], d1.cells)
    return _assert_candidates_cover(d1.cells, d2.cells)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_candidate_pairs_cover_corpus_pairs(p, corpus_decompositions):
    decs = [d for (_, q), d in corpus_decompositions.items() if q == p]
    candidates = everything = 0
    for d1, d2 in zip(decs, decs[1:]):
        candidates += len(_assert_index_covers(d1, d2))
        everything += len(d1.cells) * len(d2.cells)
    assert candidates < everything / 2  # the index prunes


@pytest.mark.parametrize("p", [3, 5])
def test_candidate_pairs_cover_formula_decompositions(p):
    texts = ["ord(y^2 - 1) >= 1", "ord(y) % 2 = 0 & ord(y - 1) < 2",
             "ac(1, y + 1) = 1 | ord(y^3 - y) > 1", "rv(2, y - 3) = (1, 2) | ord(y - 2) = 1"]
    decs = [decompose_set(parse_formula(t), p) for t in texts]
    for d1 in decs:
        for d2 in decs:
            _assert_index_covers(d1, d2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_candidate_pairs_cover_ball_domains(p):
    for ball in (Ball(Fraction(1), 1), Ball(Fraction(3), 2), Ball(Fraction(0), 3)):
        decs = [prepare(Poly.of(*c), p, ball) for c in ([-1, 0, 1], [0, -1, 0, 1], [-7, 0, 1])]
        for d1, d2 in zip(decs, decs[1:]):
            _assert_index_covers(d1, d2)


def test_candidate_pairs_fall_back_to_every_pair():
    # a center that is not 5-integral, or a negative lo, pairs with everything
    p = 5
    cells = list(prepare(Poly.of(-6, 0, 1), p).cells) + [fam(p, 3, 2), pt(p, 7)]
    odd = [fam(p, Fraction(1, 5), 0), pt(p, Fraction(2, 5)), fam(p, 0, -1, 0),
           fam(p, Fraction(1, 25), -2, depth=2, units={3})]
    mixed = cells[:3] + odd + cells[3:]
    for left, right in ((mixed, cells), (cells, mixed), (mixed, mixed)):
        got = set(_assert_candidates_cover(left, right))
        for n, cell in enumerate(left):
            if cell in odd:
                assert {(n, j) for j in range(len(right))} <= got
        for n, cell in enumerate(right):
            if cell in odd:
                assert {(i, n) for i in range(len(left))} <= got
    probes = [Fraction(1, 5), Fraction(3), Fraction(-2, 25)] + [c.center.value for c in cells]
    got = set(_assert_candidates_cover(probes, mixed))
    assert {(0, j) for j in range(len(mixed))} <= got
    assert candidate_pairs([], cells) == candidate_pairs(cells, []) == []
    assert candidate_pairs([], []) == []


def test_candidate_pairs_read_a_bounded_number_of_digits():
    # a family from valuation 10^6 on: its radius counts as the cap, so keys
    # stay small and the pairs that agree to the cap stay candidates
    p, deep = 5, 10**6
    cells = [fam(p, 0, deep), pt(p, 0), pt(p, 5**70), fam(p, 1, deep), fam(p, 0, 1, 1)]
    got = _assert_candidates_cover(cells, cells)
    assert (0, 2) in got and (1, 2) in got
    assert (0, 3) not in got and (1, 3) not in got

import json
import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import groupby

import pytest

from conftest import PRIMES, formula_pool, large_prime_polys
from fraction_loops import (fraction_shifted_center, fraction_sphere_digits, per_class_prepare,
                            per_set_order_cell_json, point_digits, residual_zeros,
                            sphere_by_sphere_digit_atom_pieces, tail_digits, taylor_digits,
                            unit_set)

import padic_cells.decompose as decompose_module
from padic_cells.cells import (
    ZP,
    ArithRange,
    Ball,
    Cell1,
    Center,
    Decomposition,
    OrderLaw,
    Residues,
    TAdd,
    TConst,
    contains,
    intersect_cells,
)
from padic_cells.cli import _cell_json
from padic_cells.decompose import (
    AcEq,
    FAnd,
    FAtom,
    FNot,
    FOr,
    OrdCmp,
    OrdEqInf,
    OrdModEq,
    RELATIONS,
    RvEq,
    _budget,
    _digit_atom_pieces,
    _dominance_regions,
    _sphere_digits,
    _split_by_atom,
    decompose_set,
    prepare,
    prepare_grouped,
    preserves_balls_report,
)
from padic_cells.errors import InternalBoundError, UnsupportedInputError
from padic_cells.hensel import center_proxy, exact_value, h, taylor_ords
from padic_cells.measure import (
    decomposition_measure,
    exact_partition_check,
    igusa_zeta,
    measure_of_order,
)
from padic_cells.oracle import verify_laws, verify_partition
from padic_cells.padics import INFINITY, RvData, ord_p, rv
from padic_cells.parser import parse_formula
from padic_cells.poly import MAX_DEGREE, Poly, squarefree_part

Y = Poly.of(0, 1)


def test_k_depth_is_the_deepest_residue_depth():
    # digit atoms of depth 3 cut families of residue depth 3; prepare's cells
    # all have depth 1
    for text, want in (("ac(3, y) = 1", 3), ("rv(2, y - 1) = (0, 6) | ord(y) >= 2", 2),
                       ("ord(y^2 - 1) >= 1", 1)):
        D = decompose_set(parse_formula(text), 5)
        assert D.k_depth == want == max(c.residues.depth for c in D.cells if not c.is_point)
    assert prepare(Poly.of(-1, 0, 1), 5).k_depth == 1


def test_prepare_monomial():
    D = prepare(Y, 5)
    points = [c for c in D.cells if c.is_point]
    fams = [c for c in D.cells if not c.is_point]
    assert len(points) == 1 and points[0].center.value == 0
    assert len(fams) == 1
    fam = fams[0]
    assert fam.m_range.lo == 0 and fam.m_range.hi is None
    assert fam.residues.is_all
    law = fam.law_for(Y)
    assert law.e0 == 0 and law.i0 == 1


def test_prepare_rejects_zero():
    with pytest.raises(UnsupportedInputError):
        prepare(Poly.of(), 5)


def test_prepare_rejects_degree_above_the_bound():
    # the recursion takes one level per derivative, so the degree is bounded
    f = Poly.of(*[0] * (MAX_DEGREE + 1), 1)
    with pytest.raises(UnsupportedInputError, match="bound"):
        prepare(f, 5)
    with pytest.raises(UnsupportedInputError, match="bound"):
        decompose_set(FAtom(OrdCmp(f, None, 0, ">=")), 5)


def test_order_comparisons_take_the_five_relations():
    # an unknown relation is refused when the atom is built, and INFINITY
    # compares through the table as through the operators
    with pytest.raises(ValueError, match="unknown relation '!='"):
        OrdCmp(Y, None, 0, "!=")
    spelled = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b, "=": lambda a, b: a == b,
               ">=": lambda a, b: a >= b, ">": lambda a, b: a > b}
    assert RELATIONS.keys() == spelled.keys()
    for rel, compare in RELATIONS.items():
        for a, b in ((INFINITY, 3), (3, INFINITY), (INFINITY, INFINITY), (2, 3), (3, 3)):
            assert compare(a, b) == spelled[rel](a, b), (a, rel, b)


def test_dominance_regions_match_the_envelope():
    # the regions tile [lo, hi] in order and agree with the brute-force
    # minimum of v_i + i*m at every m (a 40-wide window when hi is None)
    rng = random.Random(20061001)
    for _ in range(400):
        lines = [(i, rng.randint(-6, 12)) for i in sorted(rng.sample(range(9), rng.randint(1, 6)))]
        lo = rng.randint(-5, 6)
        hi = rng.choice([None, lo + rng.randint(0, 25)])
        top = lo + 40 if hi is None else hi

        def achievers(m):
            best = min(v + i * m for i, v in lines)
            return [i for i, v in lines if v + i * m == best]

        regions = list(_dominance_regions(lines, lo, hi))
        m, prev = lo, None
        for n, region in enumerate(regions):
            assert m is not None  # only the last region may be unbounded
            if region[0] == "tie":
                _, at, win = region
                assert at == m and len(win) >= 2 and win == achievers(at)
                m, prev = at + 1, None
                continue
            _, start, end, i0 = region
            assert start == m and i0 != prev
            assert end is None or start <= end
            for x in range(start, (top if end is None else end) + 1):
                assert achievers(x) == [i0], (lines, lo, hi, x)
            m, prev = (None if end is None else end + 1), i0
        assert m == (None if hi is None else hi + 1), (lines, lo, hi)


def test_prepare_squares_minus_one():
    f = Poly.of(-1, 0, 1)
    D = prepare(f, 5)
    # roots 1 and -1 carry linear laws with unit b1
    for root in (1, -1):
        cells = [c for c in D.cells
                 if c.center.is_rational and c.center.value == root]
        fam = next(c for c in cells if not c.is_point)
        law = fam.law_for(f)
        assert law.i0 == 1 and law.e0 == 0
        point = next(c for c in cells if c.is_point)
        assert point.law_for(f).e0 is INFINITY
    # all laws hold exactly on sampled members
    assert verify_laws(D, f, samples=200).ok
    assert exact_partition_check(D).ok


def test_prepare_squares_minus_five():
    f = Poly.of(-5, 0, 1)
    D = prepare(f, 5)
    assert measure_of_order(D, f, 0) == Fraction(4, 5)
    assert measure_of_order(D, f, 1) == Fraction(1, 5)
    assert measure_of_order(D, f, 2) == 0
    # oracle root counting mod 5^4 confirms
    roots4 = sum(1 for yv in range(5**4) if (yv * yv - 5) % 5**4 == 0)
    assert roots4 == 0


def test_prepare_multiplicity_law():
    f = Poly.of(1, -1, -1, 1)  # (y-1)^2 (y+1)
    D = prepare(f, 5)
    fam = next(c for c in D.cells
               if not c.is_point and c.center.is_rational and c.center.value == 1)
    law = fam.law_for(f)
    assert law.i0 == 2  # the double root doubles the law slope
    assert verify_laws(D, f, samples=120).ok


@pytest.mark.parametrize("domain", [ZP, Ball(Fraction(1), 1), Ball(Fraction(3), 2)],
                         ids=["zp", "B(1,1)", "B(3,2)"])
def test_prepare_derivative_tower_laws(domain):
    # every cell carries an exact law for f, f' and f'', on Z_p and on balls
    f = Poly.of(0, -1, 0, 1)  # y^3 - y
    D = prepare(f, 7, domain)
    for q in (f, f.derivative(), f.derivative().derivative()):
        for cell in D.cells:
            assert cell.law_for(q) is not None
        assert verify_laws(D, q, samples=80).ok


def test_prepare_on_sub_ball():
    domain = Ball(Fraction(2), 1)  # 2 + 5 Z_5
    f = Poly.of(-4, 0, 1)          # roots 2 and -2; only 2 is in the ball
    D = prepare(f, 5, domain)
    assert decomposition_measure(D) == Fraction(1, 5)
    member = Fraction(2 + 5 * 3)
    assert any(contains(c, member) for c in D.cells)
    law_cells = [c for c in D.cells if not c.is_point]
    for cell in law_cells:
        law = cell.law_for(f)
        for m in cell.m_range.values(limit=3):
            u = cell.residues.members()[0]
            y = cell.center.value + Fraction(u) * Fraction(5) ** m \
                if cell.center.is_rational else None
            if y is None:
                continue
            assert ord_p(f.eval(y), 5) == law.apply(m)


@pytest.mark.parametrize("coeffs,p,center,radius", [
    ([-2, 0, 1], 7, 3, 1),      # sqrt(2) in 3 + 7 Z_7
    ([-2, 0, 0, 1], 5, 3, 1),   # cube root of 2 in 3 + 5 Z_5
    ([1, 0, 1], 5, 7, 1),       # sqrt(-1) in 2 + 5 Z_5
])
def test_prepare_on_sub_ball_with_hensel_centers(coeffs, p, center, radius):
    # irrational roots inside the ball: Hensel centers found around the
    # ball's center b, with terms of the form b + h(...)
    f = Poly.of(*coeffs)
    D = prepare(f, p, Ball(Fraction(center), radius))
    roots = [c for c in D.cells if not c.center.is_rational]
    assert roots and all(isinstance(c.center.term, TAdd) for c in roots)
    assert all(c.center.level == 1 for c in D.cells) and D.k_depth == 1
    assert exact_partition_check(D).ok
    assert verify_partition(D, 4).ok
    assert verify_laws(D, f, samples=50).ok


def test_prepare_on_a_deep_ball():
    # the descent budget counts from the ball's radius: a ball of radius 20
    # around sqrt(2) in Z_7 descends past the budget of Z_p and still ends
    f = Poly.of(-2, 0, 1)
    root = next(c.center.value for c in prepare(f, 7).cells if not c.center.is_rational)
    D = prepare(f, 7, Ball(center_proxy(root, 7, 20), 20))
    assert any(c.is_point and c.law_for(f).e0 is INFINITY for c in D.cells)
    assert exact_partition_check(D).ok
    assert verify_laws(D, f, samples=50).ok


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31])
def test_residual_filter_matches_the_full_class_walk(monkeypatch, corpus, p):
    """The tie classes where the residual polynomial does not vanish stay in
    a rootless group, and the root search over every class agrees with that:
    it finds no root in any class of a group and gives it the group's law,
    and the two walks have equal zeta functions and equal measures of each
    order, on Z_p and on two balls.  Besides the corpus, y^2 + 1, whose
    residual at p = 3 has no zero, and y^2 - 2y + 4, whose residual at p = 2
    vanishes on a class with no 2-adic root."""
    polys = list(corpus.values()) + [Poly.of(1, 0, 1), Poly.of(4, -2, 1)]
    domains = [ZP, Ball(Fraction(1), 1), Ball(Fraction(3), 2)]
    split = decompose_module._split_tie_class

    def outputs():
        seen = {"root": 0, "rootless": 0}

        def counted(*args):
            center, law = split(*args)
            seen["root" if law.e0 is INFINITY else "rootless"] += 1
            return center, law

        monkeypatch.setattr(decompose_module, "_split_tie_class", counted)
        return [prepare_grouped(f, p, domain) for f in polys for domain in domains], seen

    filtered = outputs()
    # a residual that vanishes everywhere sends every class to the root search
    monkeypatch.setattr(decompose_module, "_sphere_digits",
                        lambda f, c, m, v, depth, units, p: [0] * len(units))
    walked = outputs()
    monkeypatch.undo()
    for f, dec, full in zip([f for f in polys for _ in domains], filtered[0], walked[0]):
        assert igusa_zeta(dec, f) == igusa_zeta(full, f), (f, dec.domain)
        assert [measure_of_order(dec, f, m) for m in range(6)] == \
            [measure_of_order(full, f, m) for m in range(6)], (f, dec.domain)
        w = squarefree_part(f)
        for cell in dec.cells:
            if cell.is_point or cell.residues.is_all:
                continue
            m_star = cell.m_range.lo
            best = cell.law_for(f).apply(m_star)
            for u0 in cell.residues.members():
                _, law = split(f, w, p, cell.center, u0, m_star, _budget(f, p, w))
                assert law == OrderLaw(best, 0), (f, dec.domain, cell, u0)
    # the filter skips rootless classes, some of them at every prime; at
    # p >= 5 it centers the class u0 = 1 around 0 of a group of f' at the
    # root 1 of y^3 - y, (y^2 - 1)^2 and y^4 - y on Z_p, where the walk
    # moved the center to 1 and read the root as that class's point
    assert filtered[1]["root"] - walked[1]["root"] == (3 if p >= 5 else 0)
    assert filtered[1]["rootless"] < walked[1]["rootless"]
    # the kept rootless branch: y^2 - 2y + 4 at p = 2, y^3 - 2 and y^4 - y at p = 3
    assert (filtered[1]["rootless"] > 0) == (p in (2, 3))


GROUP_DOMAINS = [ZP, Ball(Fraction(1), 1), Ball(Fraction(3), 2), Ball(Fraction(2), 1)]


@pytest.mark.parametrize("p", PRIMES + [11, 31])
def test_grouped_tower_matches_the_per_class_tower_on_the_corpus(corpus, p):
    """Carrying a tie's rootless classes up the derivative tower as one group
    builds the cells that one point and one family per class did."""
    for f in corpus.values():
        for domain in GROUP_DOMAINS:
            assert prepare(f, p, domain).cells == per_class_prepare(f, p, domain), (f, domain)


@pytest.mark.parametrize("p", [5, 7])
def test_a_group_class_whose_digit_vanishes_is_centered_at_its_root(p):
    """The rootless group of f' = 3y^2 - 1 around 0 holds the roots 1 and -1
    of f = y^3 - y; each of their classes is split off the group like any tie
    class and centered at its root: the root -1 has its family from m = 1,
    with no point at p - 1 above it and no family from m = 2."""
    f = Poly.of(0, -1, 0, 1)
    dec = prepare_grouped(f, p)
    assert len(dec.cells) == 7
    at_root = [c for c in dec.cells if c.center.value == -1]
    assert [c.law_for(f).e0 for c in at_root if c.is_point] == [INFINITY]
    assert [c.m_range.lo for c in at_root if not c.is_point] == [1]
    assert not any(c.center.value == p - 1 for c in dec.cells)
    assert exact_partition_check(dec).ok
    assert verify_partition(dec, 3).ok
    assert verify_laws(dec, f, samples=50).ok


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31, 101])
def test_every_family_but_a_group_has_all_units_at_depth_one(corpus, p):
    """The invariant that `prepare` expands by: a family of
    `prepare_grouped` whose residues are not all units is a rootless group,
    on one sphere at depth 1, and every family of `prepare` has all units at
    depth 1.  On the corpus every law of a group is constant too; in general
    a group that a strict region of the Newton polygon lifts keeps that
    region's law, slope and all, which `prepare` freezes at its sphere."""
    for f in corpus.values():
        for domain in (ZP, Ball(Fraction(1), 1), Ball(Fraction(3), 2)):
            for cell in prepare_grouped(f, p, domain).cells:
                if cell.is_point or cell.residues.is_all:
                    continue
                rng = cell.m_range
                assert rng.lo == rng.hi and cell.residues.depth == 1, (f, domain, cell)
                assert all(law.i0 == 0 for law in cell.laws.values()), (f, domain, cell)
            for cell in prepare(f, p, domain).cells:
                assert cell.is_point or (cell.residues.is_all and cell.residues.depth == 1), \
                    (f, domain, cell)


@pytest.mark.parametrize("p", [31, 101])
def test_grouped_tower_matches_the_per_class_tower_at_large_primes(p):
    for f in large_prime_polys():
        assert prepare(f, p).cells == per_class_prepare(f, p), f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_grouped_tower_matches_the_per_class_tower_at_inexact_centers(monkeypatch, p):
    """Polynomials with irrational roots, whose groups sit at Hensel-root
    centers as well as rational ones: y^3 - y - 1, (y^2 - 2)(y^2 - 3),
    y^5 - 3 and (y^3 - 2)(y^2 - 7) build groups at such centers at p = 3,
    7 and 13; 3y^5 - 25y^3 + 90y + 1, whose derivative is 15(y^2 - 2)(y^2 - 3),
    lifts them from the derivative at p = 7 and 13."""
    polys = [Poly.of(-1, -1, 0, 1), Poly.of(-2, 0, 1) * Poly.of(-3, 0, 1),
             Poly.of(-3, 0, 0, 0, 0, 1), Poly.of(-2, 0, 0, 1) * Poly.of(-7, 0, 1),
             Poly.of(1, 90, 0, -25, 0, 3)]
    process = decompose_module._process_box
    built, lifted = [], []

    def lifting(f, w, cell, *rest):
        lifted.append(not cell.residues.is_all and not cell.center.is_rational)
        return process(f, w, cell, *rest)

    monkeypatch.setattr(decompose_module, "_process_box", lifting)
    for f in polys:
        assert prepare(f, p).cells == per_class_prepare(f, p), f
        built += [not c.center.is_rational for c in prepare_grouped(f, p).cells
                  if not (c.is_point or c.residues.is_all)]
    assert any(built) or p not in (3, 7, 13)
    assert any(lifted) or p not in (7, 13)


@pytest.mark.parametrize("p", [31, 101, 1009])
def test_grouped_tower_reads_each_tie_once(monkeypatch, p):
    """The polynomials above a tie read its sphere once, not once per class:
    the exact queries that `prepare` makes stay under a bound that does not
    grow with p (the per-class tower made 5,048 and 12,106 Taylor expansions
    at p = 1009)."""
    counts = {}

    def counter(name):
        query = getattr(decompose_module, name)

        def counted(*args):
            counts[name] += 1
            return query(*args)
        return counted

    for name in ("taylor_ords", "ord_of_poly_at"):
        monkeypatch.setattr(decompose_module, name, counter(name))
    # y^4 - 17y^3 + 5y^2 + 737y - 726 and (y^2 - 1)^3
    for f in (Poly.of(-726, 737, 5, -17, 1), Poly.of(-1, 0, 3, 0, -3, 0, 1)):
        counts.update(taylor_ords=0, ord_of_poly_at=0)
        prepare(f, p)
        assert counts["taylor_ords"] < 100 and counts["ord_of_poly_at"] < 100, (f, counts)


# y^4 - 17y^3 + 5y^2 + 737y - 726, (y^2 - 1)^3, y^2 - 1 and 3y^3 + 15y^2 - 54y - 216
LARGE_PRIME_GATE_POLYS = [Poly.of(-726, 737, 5, -17, 1), Poly.of(-1, 0, 3, 0, -3, 0, 1),
                          Poly.of(-1, 0, 1), Poly.of(-216, -54, 15, 3)]


@pytest.mark.parametrize("p", [31, 101, 1009])
def test_tie_classes_take_few_integer_expansions(monkeypatch, p):
    """The root search of a tie class descends only into the zeros of the
    residual polynomial, so the integer Taylor expansions that `prepare`
    makes stay under a bound that does not grow with p (the search over
    every digit made 5,109 and 5,212 of them for the first two at p = 1009)."""
    calls = [0]
    expand = Poly.shifted_numerators

    def counted(self, *args):
        calls[0] += 1
        return expand(self, *args)

    monkeypatch.setattr(Poly, "shifted_numerators", counted)
    for f in LARGE_PRIME_GATE_POLYS:
        calls[0] = 0
        prepare(f, p)
        assert calls[0] < 300, (f, calls[0])


def test_class_centers_from_integers_match_the_fraction_shift():
    """`_shifted_center` moves a rational a/b to (a + u0 p^m b) / b and an
    inexact root through `shift_center`: the centers and terms of the
    Fraction shift, with and without a term."""
    p = 7
    roots = list(dict.fromkeys(c.center for c in prepare(Poly.of(-2, 0, 1), p).cells
                               if not c.center.is_rational))
    rng = random.Random(3)
    centers = [Center(Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 5, 9])), 1,
                      rng.choice([None, TConst(Fraction(1, 3)), TAdd(TConst(1), TConst(2))]))
               for _ in range(12)] + [Center(Fraction(0), 1, TConst(Fraction(0)))] + roots
    for center in centers:
        for u0, m in ((1, 0), (3, 1), (6, 2), (2, 5)):
            got = decompose_module._shifted_center(center, u0, p**m)
            want = fraction_shifted_center(center, Fraction(u0 * p**m))
            assert got == want and str(got.term) == str(want.term), (center, u0, m)
    assert len(roots) == 2


def _payloads(decs, cell_json, *caches) -> list[str]:
    return [json.dumps([cell_json(c, *caches) for c in dec.cells]) for dec in decs]


def test_shared_law_tables_print_as_the_per_cell_json(corpus):
    """Each law table is turned into JSON once per payload and shared by
    the cells of a rootless group; the payload, with its key order, is the
    one a fresh law object per cell gave."""
    decs = [prepare(f, p) for f in large_prime_polys() for p in (31, 101)]
    decs += [prepare(f, p, domain) for f in corpus.values() for p in (3, 7)
             for domain in GROUP_DOMAINS]
    decs += [decompose_set(parse_formula(text), p) for text, p in formula_pool()]
    assert _payloads(decs, _cell_json, {}, {}, {}) == \
        _payloads(decs, per_set_order_cell_json, {}, {})
    # the shared tables: a group's cells print one law object
    cells = prepare(LARGE_PRIME_GATE_POLYS[0], 101).cells
    names, orders, tables = {}, {}, {}
    printed = [_cell_json(c, names, orders, tables)["laws"] for c in cells]
    assert len({id(t) for t in printed}) < len(cells) // 10


@pytest.mark.parametrize("p, d", [(3, 2), (5, 1), (7, 2)])
def test_rv_digits_compare_mod_p_to_the_depth(p, d):
    """rv(d, f) = (m, u) reads u mod p^d, as ac(d, f) = u does: an
    out-of-range or negative u gives the cells of its residue."""
    q = p**d
    for f in (Y, Poly.of(-1, 0, 1)):
        for m, u in ((0, 1), (1, 2), (0, q - 1)):
            want = decompose_set(FAtom(RvEq(d, f, RvData(d, m, u))), p).cells
            for other in (u + q, u + 3 * q, u - q):
                got = decompose_set(FAtom(RvEq(d, f, RvData(d, m, other))), p)
                assert got.cells == want, (f, m, other)
            ac = decompose_set(FAnd(FAtom(OrdCmp(f, None, m, "=")), FAtom(AcEq(d, f, u + q))), p)
            assert decomposition_measure(ac, kept_only=True) == \
                decomposition_measure(Decomposition(p, ZP, want), kept_only=True)


@pytest.mark.parametrize("p", PRIMES)
def test_ball_domain_is_the_zp_decomposition_restricted(corpus, corpus_decompositions, p):
    # prepare on B(b, r) measures the level sets of ord f like the Z_p
    # decomposition cut down to the ball: the point b plus ord(y - b) >= r
    for b, r in ((1, 1), (2, 1), (3, 2)):
        ball = Ball(Fraction(b), r)
        center = Center(Fraction(b), 1, None)
        halves = [Cell1(p, center, None, None, {}),
                  Cell1(p, center, ArithRange(r, None), Residues(1, p=p), {})]
        for name, f in corpus.items():
            cut = Decomposition(p, ball, tuple(
                piece for cell in corpus_decompositions[name, p].cells for half in halves
                for piece in intersect_cells(cell, half)))
            D = prepare(f, p, ball)
            for m in range(r + 5):
                assert measure_of_order(cut, f, m) == measure_of_order(D, f, m), (f, b, r, m)


# ---------------------------------------------------------------------------
# decompose_set
# ---------------------------------------------------------------------------


def test_set_ord_at_least_one():
    D = decompose_set(FAtom(OrdCmp(Y, None, 1, ">=")), 5)
    assert decomposition_measure(D, kept_only=True) == Fraction(1, 5)
    # {0} is kept: ord(0) = infinity >= 1
    assert any(c.is_point and c.keep and c.center.value == 0 for c in D.cells)
    assert exact_partition_check(D).ok


def test_set_punctured_at_five():
    phi = FNot(FAtom(RvEq(2, Poly.of(-5, 1), RvData.zero(2))))
    D = decompose_set(phi, 5)
    kept = D.kept_cells
    assert all(c.kind == 1 for c in kept)
    assert len(kept) == 1
    fam = kept[0]
    assert fam.center.value == 5 and fam.m_range.lo == 0 and fam.m_range.hi is None
    assert verify_partition(D, 4).ok
    dropped = [c for c in D.cells if not c.keep]
    assert len(dropped) == 1 and dropped[0].is_point


def test_set_cubes_p7():
    phi = FAnd(FAtom(OrdModEq(Y, 3, 0)),
               FOr(FAtom(AcEq(1, Y, 1)), FAtom(AcEq(1, Y, 6))))
    D = decompose_set(phi, 7)
    mu = decomposition_measure(D, kept_only=True)
    assert mu == Fraction(49, 171)
    # membership agrees with actual cubes
    for x in (1, 2, 3, 6, 10, 14):
        cube = Fraction(x) ** 3
        assert any(contains(c, cube) for c in D.kept_cells)
    for bad in (2, 3, 7, 14, 5):
        assert not any(contains(c, Fraction(bad)) for c in D.kept_cells)


def test_set_ord_comparison_two_polys():
    # ord(y^2 - 1) >= ord(y) + 1 over Z_5
    phi = FAtom(OrdCmp(Poly.of(-1, 0, 1), Y, 1, ">="))
    D = decompose_set(phi, 5)
    assert exact_partition_check(D).ok
    for r in range(1, 5**4):
        y = Fraction(r)
        want = ord_p(y * y - 1, 5) >= ord_p(y, 5) + 1
        got = any(contains(c, y) for c in D.kept_cells)
        assert want == got, r


def test_set_poly_eq_zero():
    D = decompose_set(FAtom(OrdEqInf(Poly.of(-1, 0, 1))), 5)
    kept = D.kept_cells
    assert all(c.is_point for c in kept)
    assert sorted(c.center.value for c in kept) == [-1, 1]


def test_set_rejects_zero_poly_atom():
    with pytest.raises(UnsupportedInputError):
        decompose_set(FAtom(OrdCmp(Poly.of(), None, 0, "=")), 5)


def test_set_stacked_congruences():
    # ord = 0 mod 2 and ord = 1 mod 3 combine to the progression 4 mod 6
    phi = FAnd(FAtom(OrdModEq(Y, 2, 0)), FAtom(OrdModEq(Y, 3, 1)))
    D = decompose_set(phi, 3)
    kept = D.kept_cells
    assert [str(c.m_range) for c in kept] == ["[4..inf]%6"]
    mu = decomposition_measure(D, kept_only=True)
    assert mu == Fraction(2, 3**5) / (1 - Fraction(1, 3**6))


def test_set_ac_depth_two():
    phi = FAtom(AcEq(2, Y, 7))
    D = decompose_set(phi, 5)
    assert exact_partition_check(D).ok
    for r in range(1, 5**4):
        y = Fraction(r)
        u = (y / 5 ** ord_p(y, 5))
        want = (u.numerator * pow(u.denominator, -1, 25)) % 25 == 7
        got = any(contains(c, y) for c in D.kept_cells)
        assert want == got, r


# (coefficients, p, domain, deepest depth, whether a center is inexact):
# exact and Hensel centers, p-fractional coefficients, Z_p and ball domains
DIGIT_KERNEL_CASES = [
    ([-1, 0, 1], 3, ZP, 3, False),
    ([-17, 0, 1], 2, ZP, 3, True),
    ([-7, 0, 1], 2, Ball(Fraction(1), 1), 3, False),
    ([-2, 0, 0, 1], 3, ZP, 3, False),
    ([1, 0, 1], 5, ZP, 2, True),
    ([Fraction(-1, 5), 1], 5, ZP, 3, False),
    ([Fraction(-1, 3), 0, 2], 5, ZP, 2, True),
    ([-2, 0, 1], 7, Ball(Fraction(3), 1), 2, True),
    ([Fraction(-1, 3), 0, 2], 7, ZP, 2, False),
    ([-1, 1, 6], 5, ZP, 3, False),  # centers 1/3 and -1/2
    ([-3, 0, 1], 11, ZP, 2, True),
]


@pytest.mark.parametrize("coeffs,p,domain,deepest,inexact", DIGIT_KERNEL_CASES)
def test_digit_kernel_matches_the_fraction_loop(monkeypatch, coeffs, p, domain, deepest,
                                                inexact):
    """The integer sphere loop of `_digit_atom_pieces` cuts every cell into
    the same pieces as shifting the center to each member and certifying f
    there: for every digit string that f meets on the cell and one it does
    not (ac), and through the valuation split (rv)."""
    f = Poly.of(*coeffs)
    families = [c for c in prepare(f, p, domain).cells if not c.is_point]
    assert any(exact_value(c.center.value) is None for c in families) == inexact
    seen = {"exact": 0, "inexact": 0}

    def counted(f, center, m, law_m, depth, units, p):
        seen["exact" if exact_value(center) is not None else "inexact"] += len(units)
        return kernel(f, center, m, law_m, depth, units, p)

    def pieces():
        out = []
        for cell in families:
            law = cell.law_for(f)
            for depth in range(1, deepest + 1):
                by_digit = sphere_by_sphere_digit_atom_pieces(cell, f, depth, lambda d: d, p)
                out += [_digit_atom_pieces(cell, f, depth, t)
                        for t in _met_digits(by_digit, depth, p)]
                tag = RvData(depth, law.apply(cell.m_range.lo + 1), 1)
                out.append(_split_by_atom(cell, RvEq(depth, f, tag)))
        return out

    kernel = decompose_module._sphere_digits
    monkeypatch.setattr(decompose_module, "_sphere_digits", counted)
    new = pieces()
    monkeypatch.setattr(decompose_module, "_sphere_digits", fraction_sphere_digits)
    assert pieces() == new
    assert seen["exact"] > 0 and (seen["inexact"] > 0) == inexact


def test_digit_kernel_rejects_a_contradicted_law():
    """A law that the values of f do not obey is an internal bound error
    naming f, p, the center, the sphere and the unit, not a wrong digit: on
    a finite sphere, on the unbounded tail of a family (whose spheres from
    m = 3 on all read like the first) and at a point."""
    f = Poly.of(-1, 0, 1)
    cells = prepare(f, 3).cells
    family = next(c for c in cells if not c.is_point and c.center.value == 1)
    point = next(c for c in cells if c.is_point and c.center.value == 0)
    cases = [(family, r"unit 1 of the sphere m = 1 around the center 1$"),
             (replace(family, m_range=ArithRange(5, None)),
              r"unit 1 of the sphere m = 5 around the center 1$"),
             (point, r"fails at the center 0$")]
    for cell, where in cases:
        law = cell.law_for(f)
        for shift in (1, -1):  # too high a valuation, and too low a one
            tampered = cell.with_laws({f: OrderLaw(law.e0 + shift, law.i0)})
            with pytest.raises(InternalBoundError, match=r"y\^2 - 1 = .*p = 3.*" + where):
                _split_by_atom(tampered, AcEq(3, f, 1))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_lifting_read_names_the_unit_the_scan_names(p):
    """A tampered law fails at the same unit of the same sphere, with the
    same message, under the lifting read as under the scan of every unit of
    every sphere: the least failing unit is a class representative."""
    named = 0
    for f in (Poly.of(-1, 0, 1), Poly.of(-2, 0, 0, 1), Poly.of(1, 3, 0, 1), Poly.of(0, 1)):
        for cell in prepare(f, p).cells:
            if cell.is_point:
                continue
            law = cell.law_for(f)
            for shift, depth in ((1, 1), (-1, 2), (2, 2)):
                tampered = cell.with_laws({f: OrderLaw(law.e0 + shift, law.i0)})
                with pytest.raises(InternalBoundError) as want:
                    sphere_by_sphere_digit_atom_pieces(tampered, f, depth, lambda d: d == 1, p)
                with pytest.raises(InternalBoundError) as got:
                    _digit_atom_pieces(tampered, f, depth, 1)
                assert str(got.value) == str(want.value)
                named += " unit " in str(want.value)
    assert named > 0


def _met_digits(by_digit, depth, p):
    """The digit strings that pieces cut per digit value meet, and one unit
    string they do not meet where there is one: the targets whose pieces
    together fix that cut."""
    met = sorted({dig for _, dig in by_digit})
    return met + [t for t in range(1, p**depth) if t % p and t not in met][:1]


def _unit_view(pieces, p):
    """Pieces with each residue set listed as its explicit units."""
    return [(c.center, c.m_range, c.laws, c.keep, c.residues.depth, unit_set(c.residues, p), flag)
            for c, flag in pieces]


def _units_by_digit(by_digit, p):
    """Pieces cut per digit value, as (cell, units per digit value) for each
    sphere or tail."""
    return [(group[0][0], {dig: unit_set(piece.residues, p) for piece, dig in group})
            for group in (list(g) for _, g in groupby(by_digit, key=lambda x: x[0].m_range))]


def _target_view(spheres, target):
    """`_unit_view` of the pieces of `digits = target`, from `_units_by_digit`:
    per sphere, or per tail, the units of every other value (False), then
    those of the target (True), as the unit scan cut them."""
    out = []
    for c, units in spheres:
        hit = units.get(target, frozenset())
        rest = frozenset().union(*units.values()) - hit
        out += [(c.center, c.m_range, c.laws, c.keep, c.residues.depth, part, flag)
                for part, flag in ((rest, False), (hit, True)) if part]
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_digit_atom_window_matches_the_sphere_loop(p):
    """Reading the first sphere of the stable window once, reusing it and
    lifting matching digit classes cuts, for every digit string met and one
    not met, the pieces that the scan of every unit of each sphere cuts: on
    the unbounded ranges of `prepare` and on finite ranges that start below,
    at and above m_d, with step 1 and 2, and on y^2 - p^19, whose finite
    range around 0 has a Taylor term of smaller index than the law's, so its
    window ends before the range does from depth 2 on."""
    polys = [Poly.of(-1, 0, 1), Poly.of(-2, 0, 1), Poly.of(1, 0, 1), Poly.of(-2, 0, 0, 1),
             Poly.of(-17, 0, 1), Poly.of(Fraction(-1, 3), 0, 2), Poly.of(-p**19, 0, 1)]
    starts = {"below": 0, "at": 0, "above": 0, "window ends": 0}
    for f in polys:
        for cell in prepare(f, p).cells:
            if cell.is_point:
                continue
            rng = cell.m_range
            law = cell.law_for(f)
            e0, i0 = law.e0, law.i0
            lines = [(j, v) for j, v in enumerate(taylor_ords(f, cell.center.value, p))
                     if v is not INFINITY]
            for depth in (1, 2, 3) if p <= 3 else (1, 2):
                # from m_d on, the terms of larger index are p^depth below the law's
                m_d = max([rng.lo] + [-(-(depth + e0 - v) // (j - i0)) for j, v in lines if j > i0])
                subs = [rng] + [rng.restrict(lo=lo, hi=lo + 3) for lo in (m_d - 1, m_d, m_d + 1)]
                if rng.hi is None:
                    subs.append(ArithRange(m_d, m_d + 4, 2))
                for sub in filter(None, subs):
                    piece = replace(cell, m_range=sub)
                    by_digit = sphere_by_sphere_digit_atom_pieces(piece, f, depth, lambda d: d, p)
                    spheres = _units_by_digit(by_digit, p)
                    for target in _met_digits(by_digit, depth, p):
                        assert _unit_view(_digit_atom_pieces(piece, f, depth, target), p) == \
                            _target_view(spheres, target)
                    if sub.hi is None:
                        continue
                    starts["below" if sub.lo < m_d else "at" if sub.lo == m_d else "above"] += 1
                    # a term of smaller index comes within p^depth before sub.hi
                    starts["window ends"] += any(v - e0 - depth < (i0 - j) * sub.hi
                                                 for j, v in lines if j < i0)
    assert all(starts.values()), starts


def _units_read(monkeypatch, text, p):
    """The units at which `_sphere_digits` evaluates f inside
    decompose_set(text, p), and the digit classes its cells store."""
    seen = []

    def counted(f, center, m, v, depth, units, p):
        seen.append(len(units))
        return kernel(f, center, m, v, depth, units, p)

    kernel = decompose_module._sphere_digits
    monkeypatch.setattr(decompose_module, "_sphere_digits", counted)
    dec = decompose_set(parse_formula(text), p)
    monkeypatch.undo()
    stored = sum(len(c.residues.classes) for c in dec.cells
                 if not c.is_point and not c.residues.is_all)
    return sum(seen), stored


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_complement_digit_class_reads_few_units(monkeypatch, d):
    """!(ac(d, y) = 1) at p = 7 lifts the one matching class digit by digit:
    at most 10 d units read and 10 d classes stored, where the unit scan read
    and stored every unit mod 7^d (705,894 at d = 7)."""
    read, stored = _units_read(monkeypatch, f"!(ac({d}, y) = 1)", 7)
    assert read <= 10 * d and stored <= 10 * d, (read, stored)


@pytest.mark.parametrize("text,p", [
    ("(ac(3, y + 1) = 158 | ord(y^2 + 1) = 3)", 7),
    ("(((ord(2*y + 1) <= ord(y^2 - 1) + 1 & rv(3, y^2 - 1) = (0, 93)) | "
     "!(ac(2, 2*y + 1) = 19)) & ord(y^2 - 1) <= 1)", 7),
    ("(!(ord(y^2 + y - 3) > 3) & (ac(2, y^2 - 1) = 91 & ord(y^2 - 1) = 1))", 11),
])
def test_pool_digit_atoms_read_few_units(monkeypatch, text, p):
    """Three formulas of the formulas benchmark pool read at most 1,000
    units each through the sphere kernel (6,726, 9,497 and 3,769 with the
    unit scan)."""
    read, _ = _units_read(monkeypatch, text, p)
    assert read <= 1000, read


@pytest.mark.parametrize("N", [1000, 2000])
def test_deep_digit_atom_reads_its_window_once(N):
    """ord(y^2 - 2) >= N & ac(1, y^2 - 2) = 1 at p = 7: the spheres m < N
    around each square root of 2 share one read, so the atom no longer
    costs a sphere read per m (15 s at N = 1000 when it did)."""
    phi = parse_formula(f"ord(y^2 - 2) >= {N} & ac(1, y^2 - 2) = 1")
    start = time.perf_counter()
    measure = decomposition_measure(decompose_set(phi, 7), kept_only=True)
    assert time.perf_counter() - start < 5
    # around each root c, ord f = ord(y - c) and the first digit of f is
    # 2c u, so the spheres m >= N keep one unit class of six each
    assert measure == Fraction(1, 3 * 7**N)


def test_internal_bound_errors_name_their_context(monkeypatch):
    """Each InternalBoundError of the engine names f, p, the center and the
    range of m: a Taylor expansion with no finite coefficient, a law whose
    index outruns a smaller Taylor term on an unbounded range, and an
    infinite derivative law on a fiber."""
    f = Poly.of(-1, 0, 1)
    family = next(c for c in prepare(f, 3).cells if not c.is_point and c.center.value == 1)
    tampered = family.with_laws({f: OrderLaw(0, 2)})
    with pytest.raises(InternalBoundError, match=r"y\^2 - 1 \(p = 3\) on m in \[1\.\.inf\] "
                       r"around the center 1 .*dominance gap"):
        _digit_atom_pieces(tampered, f, 1, 1)
    infinite = family.with_laws({f.derivative(): OrderLaw(INFINITY, 0)})
    with pytest.raises(InternalBoundError, match=r"2\*y is infinite on the family on m in "
                       r"\[1\.\.inf\] around the center 1 \(p = 3\)"):
        preserves_balls_report(Decomposition(3, ZP, (infinite,)), f)
    monkeypatch.setattr(decompose_module, "taylor_ords",
                        lambda g, c, p: [INFINITY] * (g.degree + 1))
    with pytest.raises(InternalBoundError, match=r"of y\^2 - 2 \(p = 7\) vanished at the "
                       r"center 0 of the family on m in \[0\.\.inf\]"):
        prepare(Poly.of(-2, 0, 1), 7)


def _tie_zeros(f, center, m, p):
    """The classes of the tie at m where the residual polynomial vanishes,
    read by the kernel and by the exact queries, and whether m is a tie."""
    lines = [(i, v) for i, v in enumerate(taylor_ords(f, center, p))
             if v is not INFINITY]
    best = min(v + i * m for i, v in lines)
    win = [i for i, v in lines if v + i * m == best]
    units = range(1, p)
    kernel = {u for u, r in zip(units, _sphere_digits(f, center, m, best, 1, units, p))
              if r == 0}
    return kernel, residual_zeros(dict(zip(win, taylor_digits(f, center, p, win))), p), \
        len(win) > 1


def _assert_reads_match(f, center, p):
    """The kernel against the exact-query reads at one center: the residual
    zeros at every tie of f's Newton polygon, the digits on the unbounded
    tail of its last region and the digits at the center.  Returns the
    numbers of ties, tails and points compared."""
    lines = [(i, v) for i, v in enumerate(taylor_ords(f, center, p))
             if v is not INFINITY]
    seen = [0, 0, 0]
    for region in _dominance_regions(lines, 0, None):
        if region[0] == "tie":
            kernel, exact, _ = _tie_zeros(f, center, region[1], p)
            assert kernel == exact, (f, center, p, region)
            seen[0] += 1
        elif region[2] is None:
            _, lo, _, i0 = region
            v0 = dict(lines)[i0]
            for depth in (1, 2):
                m_d = max([lo] + [-(-(depth + v0 - v) // (i - i0)) for i, v in lines if i != i0])
                units = [u for u in range(1, p**depth) if u % p][::max(1, p**depth // 16)]
                assert _sphere_digits(f, center, m_d, v0 + i0 * m_d, depth, units, p) == \
                    tail_digits(f, center, i0, depth, units, p), (f, center, p, depth)
            seen[1] += 1
    if lines[0][0] == 0:
        for depth in (1, 2, 3):
            assert _sphere_digits(f, center, 0, lines[0][1], depth, [0], p) == \
                [point_digits(f, center, p, depth)], (f, center, p, depth)
        seen[2] += 1
    return seen


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31])
def test_sphere_kernel_matches_the_exact_query_reads(monkeypatch, corpus, p):
    """At every tie that `prepare` splits, the kernel's zero set is the
    residual polynomial's from the exact Taylor digits.  At every center of
    the decomposition, for f and f', the kernel reads the same residual
    zeros, tail digits and point digits as the exact queries.  Exact and
    inexact centers both occur."""
    ties = []

    def recorded(f, center, m, v, depth, units, p):
        ties.append((f, center, m))
        return kernel(f, center, m, v, depth, units, p)

    kernel = decompose_module._sphere_digits
    monkeypatch.setattr(decompose_module, "_sphere_digits", recorded)
    decs = [prepare(f, p) for f in corpus.values()]
    seen = {True: [0, 0, 0, 0], False: [0, 0, 0, 0]}
    for f, center, m in ties:
        kernel_zeros, exact_zeros, is_tie = _tie_zeros(f, center, m, p)
        assert is_tie and kernel_zeros == exact_zeros, (f, center, m, p)
        seen[exact_value(center) is None][0] += 1
    for f, dec in zip(corpus.values(), decs):
        centers = {c.center.value: None for c in dec.cells}
        for center in centers:
            for q in (f, f.derivative()):
                if q.degree >= 1:
                    counts = _assert_reads_match(q, center, p)
                    for k, n in enumerate(counts):
                        seen[exact_value(center) is None][k + 1] += n
    # inexact centers meet the engine's own ties only at p = 2 and 31
    assert all(seen[False]) and all(seen[True][1:]), seen


def test_sphere_kernel_at_sqrt6_in_z5():
    # at sqrt(6) in Z_5, for (y - 1)^3 + 5y, its derivative and the first
    # Taylor polynomial, every read agrees with the exact queries
    p, f = 5, Poly.of(-1, 8, -3, 1)
    r = h([-6, 0, 1], rv(1, p, 1), p)
    assert exact_value(r) is None
    seen = [0, 0, 0]
    for q in (f, f.derivative(), f.derivative().derivative(), Poly.of(-6, 0, 1) + f):
        seen = [a + b for a, b in zip(seen, _assert_reads_match(q, r, p))]
        for m in range(4):
            kernel, exact, _ = _tie_zeros(q, r, m, p)
            assert kernel == exact, (q, m)
    assert all(seen), seen


# ---------------------------------------------------------------------------
# preservation of balls
# ---------------------------------------------------------------------------


def test_preserves_identity():
    D = prepare(Y, 5)
    rep = preserves_balls_report(D, Y)
    assert rep.all_ball_or_point
    fam = next(e for e in rep.entries if not e.cell.is_point)
    # the image of the (m, u) fiber is that same ball: radius ord m + 1
    assert fam.radius_law.apply(3) == 4


def test_preserves_squaring():
    f = Poly.of(0, 0, 1)
    D = prepare(f, 5)
    rep = preserves_balls_report(D, f)
    assert rep.all_ball_or_point
    fam = next(e for e in rep.entries if not e.cell.is_point)
    # fiber {ord y = 0, ac = u}: image is a ball around u^2 of radius ord 2m+d+...
    # brute force one fiber
    entry = fam
    m = entry.cell.m_range.lo
    u = entry.cell.residues.members()[0]
    d = entry.cell.residues.depth
    members = [Fraction(u + t * 5**d) * 5**m for t in range(40)]
    images = [v * v for v in members]
    base = images[0]
    radius = entry.radius_law.apply(m)
    for img in images:
        assert img == base or ord_p(img - base, 5) >= radius


def test_preserves_constant():
    f = Poly.of(3)
    D = prepare(f, 5)
    rep = preserves_balls_report(D, f)
    assert all(e.verdict == "point" for e in rep.entries)


def test_preserves_squaring_p2_depth_raise():
    f = Poly.of(0, 0, 1)
    D = prepare(f, 2)
    rep = preserves_balls_report(D, f)
    assert rep.all_ball_or_point
    fam = next(e for e in rep.entries if not e.cell.is_point)
    assert fam.cell.residues.depth >= 2  # p=2 needs a deeper split
    m = fam.cell.m_range.lo
    u = fam.cell.residues.members()[0]
    d = fam.cell.residues.depth
    members = [Fraction(u + t * 2**d) * 2**m for t in range(64)]
    images = sorted(set(v * v for v in members))
    base = images[0]
    radius = fam.radius_law.apply(m)
    for img in images:
        assert img == base or ord_p(img - base, 2) >= radius


def _replace_copy(cell, **changes):
    return replace(cell, **changes)


@pytest.mark.parametrize("p", PRIMES + [31])
def test_cell_copies_equal_what_replace_builds_on_the_corpus(corpus, monkeypatch, p):
    ours = [prepare(f, p).cells for f in corpus.values()]
    monkeypatch.setattr(Cell1, "copy", _replace_copy)
    assert ours == [prepare(f, p).cells for f in corpus.values()]


def test_cell_copies_equal_what_replace_builds_on_formulas(monkeypatch):
    pool = [(parse_formula(text), p) for text, p in formula_pool()]
    ours = [decompose_set(phi, p).cells for phi, p in pool]
    monkeypatch.setattr(Cell1, "copy", _replace_copy)
    assert ours == [decompose_set(phi, p).cells for phi, p in pool]

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from padic_cells.cells import (ArithRange, Ball, Cell1, Center, Decomposition, OrderLaw, Residues,
                               TConst, ZP, sorted_cells)
from padic_cells.decompose import decompose_set, prepare, prepare_grouped
from padic_cells import oracle
from padic_cells.errors import UnsupportedInputError
from padic_cells.hensel import exact_value
from padic_cells.oracle import (
    _clear_denominators,
    _taylor_ords,
    count_roots_mod,
    order_tails,
    verify_laws,
    verify_partition,
)
from padic_cells.padics import INFINITY, MAX_SAMPLES, ord_p
from padic_cells.parser import parse_formula, parse_poly
from padic_cells.poly import Poly

from fraction_loops import count_roots_mod_scan, fraction_taylor_shift, random_rational


def test_count_examples():
    assert count_roots_mod(Poly.of(0, 1), 5, 3) == 1
    assert count_roots_mod(Poly.of(0, 0, 1), 3, 2) == 3
    assert count_roots_mod(Poly.of(-1, 0, 1), 5, 1) == 2


def test_count_matches_full_scan():
    polys = [Poly.of(*coeffs)
             for coeffs in ([0, 1], [0, 0, 1], [-1, 0, 1], [1, -1, -1, 1], [-6, 0, 1], [2, 3])]
    # planted double roots (y - a)^2 g: the classes around a keep ord f high
    # for many digits, and those beside it are pruned by their constant line
    rng = random.Random(20061030)
    for _ in range(16):
        a = Poly.of(-rng.randint(-40, 40), 1)
        polys.append(a * a * Poly.of(*(rng.randint(-9, 9) for _ in range(rng.randint(1, 3))), 1))
    for f in polys:
        for p in (2, 3, 5):
            for k in range(1, 5):
                assert count_roots_mod(f, p, k) == count_roots_mod_scan(f, p, k)


def test_count_in_a_class_matches_a_scan():
    # start = (c, j) counts only the roots y = c mod p^j
    for coeffs in ([0, 1], [-1, 0, 1], [1, -1, -1, 1], [-6, 0, 1], [20, 0, -1, 1]):
        f = Poly.of(*coeffs)
        for p in (2, 3, 5):
            for k in range(1, 5):
                roots = [f.eval(Fraction(y)) % p**k == 0 for y in range(p**k)]
                for j in range(k + 1):
                    for c in (0, 1, p + 1, 7):
                        want = sum(roots[c % p**j::p**j])
                        assert count_roots_mod(f, p, k, (c, j)) == want


def test_order_tails_on_balls():
    # Z_p: the root counts over p^m; a ball: the tails measured by a scan of
    # its classes mod p^k, whatever the ball's radius against m
    f = Poly.of(-1, -1, 1, 1)  # (y - 1)(y + 1)^2
    for p in (2, 3, 5):
        assert order_tails(f, p, ZP, 4) == [1] + [
            Fraction(count_roots_mod(f, p, m), p**m) for m in range(1, 5)]
        k = 5
        for b, r in ((1, 1), (2, 1), (Fraction(1, 2) if p != 2 else 5, 2), (3, 0), (-1, 3)):
            ball = Ball(Fraction(b), r)
            tails = order_tails(f, p, ball, k)
            values = [f.eval(Fraction(y)) for y in range(p**k) if ball.contains(y, p)]
            for m in range(k + 1):
                hits = sum(1 for v in values if v % p**m == 0)
                assert tails[m] == Fraction(hits, p**k), (p, b, r, m)


def test_count_rejects_p_denominator():
    with pytest.raises(UnsupportedInputError):
        count_roots_mod(Poly.of(Fraction(1, 5), 1), 5, 2)
    # denominators prime to p are fine
    assert count_roots_mod(Poly.of(Fraction(1, 3), 1), 5, 2) == 1


def test_count_bounds():
    # the depth and the lifting's work are bounded, p^k itself is not: the
    # level sets at p = 101 behind perfbench's large-prime answers stay countable
    for p, k in ((5, 0), (5, 21), (1000000007, 1)):
        with pytest.raises(UnsupportedInputError):
            count_roots_mod(Poly.of(0, 1), p, k)
    assert count_roots_mod(Poly.of(-1, 0, 1), 101, 3) == 2


def test_root_counts_monotone():
    # each root mod p^k lifts to at most p roots mod p^(k+1)
    for coeffs in ([0, 0, 1], [-1, 0, 1], [0, 0, 0, 1], [-6, 0, 1]):
        counts = [count_roots_mod(Poly.of(*coeffs), 3, k) for k in range(1, 7)]
        assert all(b <= 3 * a for a, b in zip(counts, counts[1:])), (coeffs, counts)
    assert [count_roots_mod(Poly.of(0, 0, 1), 3, k) for k in range(1, 7)] == [1, 3, 3, 9, 9, 27]


def test_verify_partition_clean():
    D = prepare(Poly.of(0, 1), 5)
    rep = verify_partition(D, 4)
    assert rep.ok
    assert rep.undecided == (0,)  # only the class of the center needs more digits


def test_verify_partition_formula_set():
    from padic_cells.decompose import FNot, FAtom, RvEq, decompose_set
    from padic_cells.padics import RvData

    phi = FNot(FAtom(RvEq(2, Poly.of(-5, 1), RvData.zero(2))))
    D = decompose_set(phi, 5)
    assert verify_partition(D, 4).ok


def test_verify_partition_detects_overlap():
    p = 5
    zero = Center(Fraction(0), 1, TConst(Fraction(0)))
    cells = sorted_cells([
        Cell1(p, zero, None, None, {}),
        Cell1(p, zero, ArithRange(0, None), Residues(1, p=p), {}),
        Cell1(p, zero, ArithRange(1, 2), Residues(1, p=p), {}),  # overlap
    ])
    rep = verify_partition(Decomposition(p, ZP, cells), 4)
    assert not rep.ok and rep.violations


def test_verify_partition_depth_and_marks_are_bounded():
    # k runs from 1 to 20, and the marks are counted before any is made;
    # p^k itself is not bounded
    dec = prepare(Poly.of(0, 1), 5)
    for k in (0, 21):
        with pytest.raises(UnsupportedInputError):
            verify_partition(dec, k)
    assert verify_partition(dec, 20).ok
    wide = prepare_grouped(Poly.of(0, 1), 100003)
    with pytest.raises(UnsupportedInputError):
        verify_partition(wide, 10)  # 10 spheres of 100,002 classes each
    assert verify_partition(wide, 2).ok


QUARTIC = "y^4 - 17*y^3 + 5*y^2 + 737*y - 726"


def test_faults_around_a_double_root_at_p_1009_show_at_k_2():
    # the quartic's double root 11: a family around it that starts one
    # sphere late leaves the sphere ord(y - 11) = 1 uncovered, and an extra
    # one-class family on it covers one class twice; both are finer than
    # one digit, so k = 1 sees neither
    p = 1009
    dec = prepare_grouped(parse_poly(QUARTIC), p)
    [family] = [c for c in dec.cells if not c.is_point and c.center.value == 11]
    late = family.copy(m_range=ArithRange(2, None))
    gap = replace(dec, cells=tuple(late if c is family else c for c in dec.cells))
    extra = family.copy(m_range=ArithRange(1, 1), residues=Residues(1, [5], p))
    overlap = replace(dec, cells=dec.cells + (extra,))
    for bad, classes in ((gap, p - 1), (overlap, 1)):
        assert verify_partition(bad, 1).ok
        rep = verify_partition(bad, 2)
        assert rep.violating_classes == classes
        assert rep.undecided == verify_partition(dec, 2).undecided
    assert verify_partition(dec, 2).ok


def test_verify_laws_clean():
    f = Poly.of(-1, 0, 1)
    D = prepare(f, 5)
    rep = verify_laws(D, f, samples=200)
    assert rep.ok and rep.seed == 0
    f2 = Poly.of(0, -1, 0, 1)
    D2 = prepare(f2, 7)
    assert verify_laws(D2, f2, samples=200).ok


def test_verify_laws_detects_corruption():
    f = Poly.of(-1, 0, 1)
    D = prepare(f, 5)
    bad_cells = []
    tampered = None
    for i, c in enumerate(D.cells):
        law = c.law_for(f)
        if not c.is_point and tampered is None and law.e0 is not INFINITY:
            bad_cells.append(c.with_laws({f: OrderLaw(law.e0 + 1, law.i0)}))
            tampered = i
        else:
            bad_cells.append(c)
    bad = Decomposition(5, ZP, tuple(bad_cells))
    rep = verify_laws(bad, f, samples=60)
    assert not rep.ok
    assert {fail.cell_index for fail in rep.failures} == {tampered}
    # no sample count turns the check off: below 1 it would draw nothing and
    # report no failure, and past the bound its time grows with the count squared
    for n in (0, -3, MAX_SAMPLES + 1, 10**9):
        with pytest.raises(UnsupportedInputError):
            verify_laws(bad, f, samples=n)
    assert not verify_laws(bad, f, samples=1).ok


def test_verify_laws_trusts_no_engine_distance(monkeypatch):
    """A law off by one on the family around an inexact root fails at every
    sample, whatever the engine's ord_between would say of the samples: the
    oracle draws each one at distance exactly m and asks nothing more."""
    f = Poly.of(-2, 0, 1)
    D = prepare(f, 7)
    i = next(i for i, c in enumerate(D.cells)
             if not c.is_point and exact_value(c.center.value) is None)
    law = D.cells[i].law_for(f)
    cells = list(D.cells)
    cells[i] = cells[i].with_laws({f: OrderLaw(law.e0 + 1, law.i0)})
    monkeypatch.setattr(oracle, "ord_between", lambda a, b, p: INFINITY, raising=False)
    rep = verify_laws(Decomposition(7, ZP, tuple(cells)), f)
    assert len(rep.failures) == 200
    assert {fail.cell_index for fail in rep.failures} == {i}


def test_verify_laws_deterministic():
    f = Poly.of(-6, 0, 1)
    D = prepare(f, 5)
    a = verify_laws(D, f, samples=80, seed=3)
    b = verify_laws(D, f, samples=80, seed=3)
    assert a == b


def test_verify_partition_below_the_residue_depth():
    # at k = 1 a depth-2 residue constraint is not decided by the class alone
    from padic_cells.decompose import AcEq, FAtom, decompose_set

    p = 3
    zero = Center(Fraction(0), 1, TConst(Fraction(0)))
    punctured = Decomposition(p, ZP, sorted_cells([
        Cell1(p, zero, None, None, {}),
        Cell1(p, zero, ArithRange(0, None), Residues(2, p=p), {}),
    ]))
    # all units at depth 2 still cover the classes 1 and 2 whole
    rep = verify_partition(punctured, 1)
    assert rep.ok and rep.undecided == (0,)

    # ac(2, y) = 1 cuts the class 1 mod 3 at depth 2, so only that class and
    # the center's are undecided: the class 2 mod 3 is one digit class of
    # the false cell, decided at its own level
    ac = decompose_set(FAtom(AcEq(2, Poly.of(0, 1), 1)), p)
    assert any(not c.is_point and c.residues.depth == 2 for c in ac.cells)
    rep = verify_partition(ac, 1)
    assert rep.ok and rep.undecided == (0, 1)
    assert verify_partition(ac, 3).ok


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_digit_classes_deeper_than_k_are_decided_at_their_own_level(d):
    # !(ac(d, y) = 1) at p = 7, k = 3: each digit class of the complement is
    # marked at m + j where that fits in k, so only the classes of the center
    # (0, 7, 49) and, from d = 4 on, the class 1 cut by the atom stay
    # undecided, not every class on a sphere the depth d does not fit
    dec = decompose_set(parse_formula(f"!(ac({d}, y) = 1)"), 7)
    rep = verify_partition(dec, 3)
    assert rep.ok
    assert rep.undecided == ((0, 7, 49) if d == 3 else (0, 1, 7, 49))


def test_taylor_ords_match_the_fraction_expansion():
    # the oracle's own expansion, at points whose denominators hold p
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(60):
            f = Poly.of(*(random_rational(rng, p) for _ in range(rng.randint(1, 7))))
            coeffs, shift = _clear_denominators(f, p)
            for x in (Fraction(rng.randint(-30, 30)), random_rational(rng, p)):
                want = [ord_p(c, p) for c in fraction_taylor_shift(f, x).coeffs]
                assert _taylor_ords(coeffs, shift, x, p) == want

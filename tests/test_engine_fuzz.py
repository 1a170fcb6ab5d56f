"""Randomized engine regression: random polynomials beyond the acceptance
corpus, verified exhaustively over residue lifts."""

import random
from fractions import Fraction

from padic_cells.cells import contains
from padic_cells.decompose import prepare
from padic_cells.hensel import ord_between
from padic_cells.measure import exact_partition_check
from padic_cells.oracle import verify_laws, verify_partition
from padic_cells.padics import INFINITY, ord_p
from padic_cells.poly import Poly


def exhaustive_check(f: Poly, p: int, k: int) -> None:
    dec = prepare(f, p)
    assert exact_partition_check(dec).ok
    assert not verify_partition(dec, k).violations
    assert verify_laws(dec, f, samples=60).ok
    for r in range(1, p**k):
        y = Fraction(r)
        cells = [c for c in dec.cells if contains(c, y)]
        assert len(cells) == 1, (r, len(cells))
        law = cells[0].law_for(f)
        m = ord_between(y, cells[0].center.value, p)
        assert ord_p(f.eval(y), p) == law.apply(None if m is INFINITY else m), r


def test_random_polynomials():
    rng = random.Random(404)
    done = 0
    while done < 10:
        deg = rng.randint(1, 4)
        coeffs = [rng.randint(-30, 30) for _ in range(deg)]
        coeffs.append(rng.choice([c for c in range(-30, 31) if c]))
        f = Poly.of(*coeffs)
        if f.degree < 1:
            continue
        exhaustive_check(f, rng.choice([2, 3, 5]), 3)
        done += 1


def test_root_outside_zp():
    # 5y - 1 has its root at 1/5, outside Z_5: constant law everywhere
    f = Poly.of(-1, 5)
    dec = prepare(f, 5)
    for cell in dec.cells:
        law = cell.law_for(f)
        assert law.i0 == 0 and law.e0 == 0
    exhaustive_check(f, 5, 3)


def test_p_fractional_coefficients():
    # y/5 + 1 has the Z_5 root -5 and law ord f(y) = ord(y + 5) - 1
    f = Poly.of(1, Fraction(1, 5))
    dec = prepare(f, 5)
    fam = next(c for c in dec.cells if not c.is_point and c.center.value == -5)
    law = fam.law_for(f)
    assert law.i0 == 1 and law.e0 == -1
    exhaustive_check(f, 5, 3)


def test_leading_coefficient_divisible_by_p():
    exhaustive_check(Poly.of(-1, 0, 5), 5, 3)   # 5y^2 - 1: no Z_5 root
    exhaustive_check(Poly.of(0, 1, 7), 7, 3)    # 7y^2 + y: roots 0 and -1/7


def test_fractional_content_with_irrational_roots():
    # p divides coefficient denominators AND the polynomial has roots in Z_p
    f = Poly.of(Fraction(-14), Fraction(36, 7), Fraction(34, 7), Fraction(1))
    dec = prepare(f, 7)
    assert exact_partition_check(dec).ok
    assert not verify_partition(dec, 4).violations
    assert verify_laws(dec, f, samples=60).ok

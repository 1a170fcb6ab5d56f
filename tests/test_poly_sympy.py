"""Differential tests of the exact polynomial arithmetic against sympy;
skipped where sympy is not installed."""

import random
from fractions import Fraction

import pytest

from padic_cells.padics import INFINITY, ord_p
from padic_cells.poly import Poly, poly_gcd, resultant, resultant_val, squarefree_part

sympy = pytest.importorskip("sympy")

Y = sympy.symbols("y")


def to_sympy(f: Poly) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)],
                      Y, domain="QQ")


def from_sympy(g: sympy.Poly) -> Poly:
    return Poly.of(*(Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())))


def random_factored(rng: random.Random) -> Poly:
    # products of small factors, so that gcds and repeated factors occur
    f = Poly.of(Fraction(rng.randint(1, 9), rng.choice([1, 2, 5])) * rng.choice([1, -1]))
    for _ in range(rng.randint(1, 5)):
        f = f * Poly.of(*(rng.randint(-4, 4) for _ in range(rng.randint(2, 3))))
    return f


def test_gcd_squarefree_and_resultant_agree_with_sympy():
    rng = random.Random(41)
    checked = 0
    for _ in range(120):
        f, g = random_factored(rng), random_factored(rng)
        if f.is_zero or g.is_zero:
            continue
        sf, sg = to_sympy(f), to_sympy(g)
        assert poly_gcd(f, g) == from_sympy(sympy.gcd(sf, sg))
        if f.degree >= 1:
            assert squarefree_part(f) == from_sympy(sf.sqf_part())
        # sympy 1.14 drops the sign (-1)^(deg f deg g) for some deg f < deg g
        # (3 and 5: Res(y^3 + 2, y^5 + y + 1) is -45, and it gives 45), so
        # it is asked with the larger degree first
        if f.degree >= g.degree:
            res = sympy.Rational(sympy.resultant(sf, sg))
        else:
            res = (-1) ** (f.degree * g.degree) * sympy.Rational(sympy.resultant(sg, sf))
        assert resultant(f, g) == Fraction(int(res.p), int(res.q))
        for p in (2, 3, 5):
            want = INFINITY if res == 0 else ord_p(Fraction(int(res.p), int(res.q)), p)
            assert resultant_val(f, g, p) == want
        checked += 1
    assert checked > 100

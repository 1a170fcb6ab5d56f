import random
from fractions import Fraction
from math import gcd

import pytest

from padic_cells.hensel import _at_root, refine_root, taylor_ords
from padic_cells.padics import INFINITY, ord_p, unit_digits
from padic_cells.poly import (
    Poly,
    format_poly,
    newton_min,
    poly_gcd,
    pseudo_remainder,
    resultant,
    resultant_val,
    squarefree_part,
)

from conftest import CORPUS
from fraction_loops import (
    euclid_poly_gcd,
    euclid_resultant,
    euclid_squarefree_part,
    fraction_eval,
    fraction_shift_var,
    fraction_taylor_shift,
    monic,
    poly_mod,
    random_rational,
    taylor_digits,
)


def sylvester_resultant(f: Poly, g: Poly) -> Fraction:
    """Independent oracle: the Sylvester determinant by Gaussian elimination."""
    m, n = f.degree, g.degree
    size = m + n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for j in range(m + 1):
            row[i + j] = f.coeff(m - j)
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j in range(n + 1):
            row[i + j] = g.coeff(n - j)
        rows.append(row)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def test_eval_examples():
    assert Poly.of(-1, 0, 1).eval(3) == 8
    assert Poly.of().eval(7) == 0
    assert Poly.of(0, -1, 0, 1).eval(2) == 6


def test_derivative_examples():
    assert Poly.of(-1, 0, 1).derivative() == Poly.of(0, 2)
    assert Poly.of(5).derivative().is_zero
    assert Poly.of(0, -1, 0, 1).derivative() == Poly.of(-1, 0, 3)


def test_taylor_shift_examples():
    assert Poly.of(0, 0, 1).taylor_shift(1) == Poly.of(1, 2, 1)
    f = Poly.of(3, -2, 0, 5)
    assert f.taylor_shift(0) == f
    assert Poly.of(-6, 0, 1).taylor_shift(1) == Poly.of(-5, 2, 1)


def test_taylor_shift_inverse_and_eval():
    rng = random.Random(3)
    for _ in range(60):
        f = Poly.of(*(rng.randint(-9, 9) for _ in range(rng.randint(1, 6))))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert f.taylor_shift(c).taylor_shift(-c) == f
        assert f.taylor_shift(c).eval(x - c) == f.eval(x)


def test_resultant_examples():
    assert resultant_val(Poly.of(-1, 0, 1), Poly.of(0, 2), 5) == 0
    assert resultant_val(Poly.of(0, 1), Poly.of(-5, 1), 5) == 1
    assert resultant_val(Poly.of(0, 0, 1), Poly.of(0, 2), 5) is INFINITY
    # lc(f)^5 times the product of g over the roots of f
    assert resultant(Poly.of(2, 0, 0, 1), Poly.of(1, 1, 0, 0, 0, 1)) == -45
    with pytest.raises(ValueError):
        resultant_val(Poly.of(), Poly.of(1), 5)


def test_resultant_against_sylvester():
    rng = random.Random(17)
    for _ in range(40):
        f = Poly.of(*(rng.randint(-6, 6) for _ in range(rng.randint(2, 5))))
        g = Poly.of(*(rng.randint(-6, 6) for _ in range(rng.randint(2, 5))))
        if f.degree < 1 or g.degree < 1:
            continue
        assert resultant(f, g) == sylvester_resultant(f, g)


def test_squarefree_resultant_finite():
    rng = random.Random(23)
    for _ in range(40):
        f = Poly.of(*(rng.randint(-9, 9) for _ in range(rng.randint(2, 6))))
        if f.degree < 1:
            continue
        w = squarefree_part(f)
        if w.degree >= 1:
            assert resultant_val(w, w.derivative(), 5) is not INFINITY


def test_squarefree_part():
    f = Poly.of(1, -1, -1, 1)  # (y-1)^2 (y+1)
    w = squarefree_part(f)
    assert w == monic(Poly.of(-1, 0, 1))


def test_divmod_roundtrip():
    rng = random.Random(29)
    for _ in range(40):
        f = Poly.of(*(rng.randint(-9, 9) for _ in range(rng.randint(1, 6))))
        g = Poly.of(*(rng.randint(-9, 9) for _ in range(rng.randint(1, 4))))
        if g.is_zero:
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree


def test_gcd_divides():
    f = Poly.of(-1, 0, 1) * Poly.of(2, 1)
    g = Poly.of(1, 1) * Poly.of(2, 1)
    d = poly_gcd(f, g)
    assert poly_mod(f, d).is_zero and poly_mod(g, d).is_zero


def test_format_poly():
    assert format_poly(Poly.of(-1, 0, 1)) == "y^2 - 1"
    assert format_poly(Poly.of()) == "0"
    assert format_poly(Poly.of(Fraction(1, 2), -2)) == "-2*y + 1/2"


def test_newton_min_is_the_polygon_envelope():
    rng = random.Random(7)
    for _ in range(50):
        f = Poly.of(*(Fraction(rng.randint(-50, 50), rng.choice([1, 3, 9])) for _ in range(5)))
        for p in (2, 3, 5):
            for m in (-1, 0, 2):
                for start in (0, 1, 3):
                    vals = [ord_p(f.coeff(i), p) + i * m for i in range(start, f.degree + 1)]
                    finite = [v for v in vals if v is not INFINITY]
                    want = min(finite) if finite else INFINITY
                    assert newton_min(f, p, m, start) == want
    assert newton_min(Poly.of(), 5) is INFINITY
    assert newton_min(Poly.of(7), 5, start=1) is INFINITY


# ---------------------------------------------------------------------------
# The integer kernel against the Fraction loops it replaced (fraction_loops.py).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_matches_the_fraction_loops(p):
    rng = random.Random(p)
    polys = [Poly.of()]
    for _ in range(150):
        polys.append(Poly.of(*(random_rational(rng, p) for _ in range(rng.randint(1, 9)))))
    for f in polys:
        assert f.degree <= 8
        for x in (0, 1, -3, random_rational(rng, p), random_rational(rng, p)):
            assert f.eval(x) == fraction_eval(f, x)
            sh = fraction_taylor_shift(f, x)
            assert f.taylor_shift(x).coeffs == sh.coeffs
            assert taylor_ords(f, Fraction(x), p) == [ord_p(c, p) for c in sh.coeffs]
            nonzero = [i for i, c in enumerate(sh.coeffs) if c]
            assert taylor_digits(f, Fraction(x), p, nonzero) == \
                [unit_digits(sh.coeffs[i], p, 1) for i in nonzero]
        scale, offset = random_rational(rng, p), random_rational(rng, p)
        for s in (scale, Fraction(p) ** 3, Fraction(1, p), 0):
            assert f.shift_var(s, offset).coeffs == fraction_shift_var(f, s, offset).coeffs
    # every coefficient stays a normalized Fraction
    g = Poly.of(Fraction(1, 3), -2, 0, 5).taylor_shift(Fraction(-2, 9))
    assert all(type(c) is Fraction for c in g.coeffs)


def test_gcd_family_matches_euclid_over_fractions():
    # the primitive PRS over Z against Euclid's algorithm over Fraction, on
    # products of shared and repeated factors with rational coefficients,
    # constants and the zero polynomial among them
    rng = random.Random(53)
    factors = [Poly.of(*(random_rational(rng, 5) for _ in range(rng.randint(1, 4))))
               for _ in range(12)]

    def product() -> Poly:
        f = Poly.of(random_rational(rng, 5) or 1)
        for _ in range(rng.randint(0, 4)):
            q = rng.choice(factors)
            f = f * q * q if rng.random() < 0.3 else f * q
        return f

    polys = [Poly.of(), Poly.of(3), Poly.of(Fraction(-2, 7))] + [product() for _ in range(80)]
    shared = repeated = 0
    for f in polys:
        if not f.is_zero:
            w = squarefree_part(f)
            assert w == euclid_squarefree_part(f)
            repeated += w.degree < f.degree
        for g in rng.sample(polys, 6) + [f, f.derivative()]:
            d = poly_gcd(f, g)
            assert d == euclid_poly_gcd(f, g)
            shared += d.degree > 0
            if not g.is_zero:
                # a rational multiple of f mod g, with coprime integer coefficients
                r = pseudo_remainder(f, g)
                assert monic(r) == monic(poly_mod(f, g))
                assert all(c.denominator == 1 for c in r.coeffs) and gcd(*r.integral[0]) < 2
            if not (f.is_zero or g.is_zero):
                assert resultant(f, g) == euclid_resultant(f, g)
    assert shared > 100 and repeated > 20
    with pytest.raises(ValueError):
        squarefree_part(Poly.of())
    with pytest.raises(ValueError):
        resultant(Poly.of(), Poly.of(1))


def test_integral_form_is_not_part_of_equality():
    f = Poly.of(Fraction(1, 6), Fraction(-3, 4), 2)
    assert f.integral == ((2, -9, 24), 12)
    g = Poly.of(Fraction(1, 6), Fraction(-3, 4), 2)
    assert f == g and hash(f) == hash(g) and "integral" not in repr(f)
    # the hash is the dataclass hash of the coefficients, kept after the first call
    assert hash(f) == hash((f.coeffs,)) and f._hash == hash(f)
    assert Poly.of().integral == ((), 1)


def test_estimates_at_roots_match_the_fraction_expansion(corpus_decompositions):
    # q(root) and its Taylor-tail error bound at refined approximations
    roots = [(cell.center.value, f, p) for (name, p), dec in corpus_decompositions.items()
             for cell in dec.cells if not cell.center.is_rational
             for f in [Poly.of(*CORPUS[name])]]
    assert len(roots) > 20
    for r, f, p in roots:
        qs = [f, f.derivative(), Poly.of(Fraction(1, p), -3, 0, p)]
        for n in (r.precision, 2 * r.precision + 4):
            rr = refine_root(r, n)
            want = []
            for q in qs:
                sh = fraction_taylor_shift(q, rr.approx)
                want.append((sh.coeff(0), newton_min(sh, p, start=1) + rr.precision))
            assert [_at_root(r, q)(n) for q in qs] == want

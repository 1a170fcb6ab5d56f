import copy
import pickle
import random
from fractions import Fraction
from math import isqrt

import pytest

from padic_cells.errors import UnsupportedInputError
from padic_cells.padics import (
    INFINITY,
    canonical_lift,
    is_prime,
    ord_p,
    rv,
    unit_digits,
)


def test_ord_basic():
    assert ord_p(50, 5) == 2
    assert ord_p(0, 5) is INFINITY
    assert ord_p(Fraction(7, 5), 5) == -1


def test_infinity_absorbing():
    assert (INFINITY + 3) is INFINITY
    assert (INFINITY + 2) is INFINITY
    assert min(INFINITY, 4) == 4
    assert min([], default=INFINITY) is INFINITY
    assert INFINITY > 10**9
    # above every int and Fraction, from either side, and equal only to itself
    for x in (0, -(10**30), 10**30, Fraction(-7, 3), Fraction(10**40, 3)):
        assert x < INFINITY and x <= INFINITY and INFINITY > x and INFINITY >= x
        assert not (INFINITY < x or INFINITY <= x or x > INFINITY or x >= INFINITY)
        assert INFINITY != x and x != INFINITY
    assert INFINITY == INFINITY and INFINITY <= INFINITY and INFINITY >= INFINITY
    assert not (INFINITY < INFINITY or INFINITY > INFINITY)
    # min and sorted, with the empty min as INFINITY
    assert min(INFINITY, 3, Fraction(5, 2)) == Fraction(5, 2)
    assert min([INFINITY, INFINITY], default=0) is INFINITY
    assert sorted([INFINITY, 2, Fraction(-1, 2), INFINITY, 0]) == [
        Fraction(-1, 2), 0, 2, INFINITY, INFINITY]
    # absorption: sums, and products by a nonzero integer of either sign
    for k in (1, -3, 10**9):
        assert INFINITY + k is INFINITY and k + INFINITY is INFINITY
        assert INFINITY * k is INFINITY and k * INFINITY is INFINITY
    assert INFINITY + INFINITY is INFINITY
    for zero in (lambda: 0 * INFINITY, lambda: INFINITY * 0):
        with pytest.raises(ValueError):
            zero()
    # a finite valuation is the int itself: a dict keyed by it finds the int
    assert {ord_p(Fraction(8), 2): 1}[3] == 1
    assert type(ord_p(Fraction(8, 9), 3)) is int and ord_p(Fraction(8, 9), 3) == -2
    # copies and pickles are the one object again, so `is INFINITY` holds
    assert copy.deepcopy(INFINITY) is INFINITY
    assert pickle.loads(pickle.dumps([ord_p(0, 5)]))[0] is INFINITY
    assert repr(INFINITY) == "INFINITY" and str(INFINITY) == "inf"


def test_unit_digits():
    assert unit_digits(50, 5, 1) == 2
    assert unit_digits(Fraction(7, 5), 5, 2) == 7
    assert unit_digits(-1, 5, 2) == 24
    with pytest.raises(ValueError):
        unit_digits(0, 5, 1)


def test_rv_values():
    assert rv(0, 5, 3).is_zero
    r = rv(50, 5, 1)
    assert (r.depth, r.valuation, r.unit) == (1, 2, 2)
    r = rv(Fraction(7, 5), 5, 2)
    assert (r.depth, r.valuation, r.unit) == (2, -1, 7)


def test_rv_projection_compatible():
    rng = random.Random(7)
    for _ in range(200):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**4)
        if num == 0:
            continue
        x = Fraction(num, den)
        full = rv(x, 5, 3)
        assert full.project(2, 5) == rv(x, 5, 2)
        assert full.project(1, 5) == rv(x, 5, 1)


def test_rv_multiplicativity():
    rng = random.Random(11)
    p = 7
    for _ in range(1000):
        x = Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999))
        y = Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999))
        rx, ry, rxy = rv(x, p, 2), rv(y, p, 2), rv(x * y, p, 2)
        assert rxy.valuation == rx.valuation + ry.valuation
        assert rxy.unit == rx.unit * ry.unit % p**2


def test_ultrametric_laws():
    rng = random.Random(13)
    p = 3
    for _ in range(1000):
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        y = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        vx, vy, vxy = ord_p(x, p), ord_p(y, p), ord_p(x + y, p)
        assert ord_p(x * y, p) == vx + vy or (x * y == 0)
        assert vxy >= min(vx, vy)
        if vx != vy:
            assert vxy == min(vx, vy)


def test_canonical_lift_roundtrip():
    r = rv(Fraction(50), 5, 2)
    assert rv(canonical_lift(r, 5), 5, 2) == r


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(20000) if is_prime(n)] == [n for n in range(20000) if trial(n)]


def test_is_prime_pseudoprimes_and_its_bound():
    assert not is_prime(561)             # a Carmichael number
    assert not is_prime(3215031751)      # a strong pseudoprime to the bases 2, 3, 5, 7
    assert is_prime(2**61 - 1)
    # the least strong pseudoprime to all twelve bases: no answer from it up
    with pytest.raises(UnsupportedInputError):
        is_prime(318665857834031151167461)

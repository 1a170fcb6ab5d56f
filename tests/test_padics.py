import random
from fractions import Fraction
from math import isqrt

import pytest

from padic_cells.errors import UnsupportedInputError
from padic_cells.padics import (
    INFINITY,
    Val,
    canonical_lift,
    is_prime,
    ord_p,
    rv,
    unit_digits,
    val_min,
)


def test_ord_basic():
    assert ord_p(50, 5) == Val(2)
    assert ord_p(0, 5) is INFINITY or ord_p(0, 5).is_infinite
    assert ord_p(Fraction(7, 5), 5) == Val(-1)


def test_infinity_absorbing():
    assert (INFINITY + 3).is_infinite
    assert (INFINITY + Val(2)).is_infinite
    assert val_min(INFINITY, Val(4)) == Val(4)
    assert val_min() is INFINITY
    assert INFINITY > Val(10**9)


def test_unit_digits():
    assert unit_digits(50, 5, 1).digits == 2
    assert unit_digits(Fraction(7, 5), 5, 2).digits == 7
    assert unit_digits(-1, 5, 2).digits == 24
    with pytest.raises(ValueError):
        unit_digits(0, 5, 1)


def test_rv_values():
    assert rv(0, 5, 3).is_zero
    r = rv(50, 5, 1)
    assert (r.depth, r.valuation, r.unit.digits) == (1, 2, 2)
    r = rv(Fraction(7, 5), 5, 2)
    assert (r.depth, r.valuation, r.unit.digits) == (2, -1, 7)


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
        assert rxy.unit.digits == rx.unit.digits * ry.unit.digits % p**2


def test_ultrametric_laws():
    rng = random.Random(13)
    p = 3
    for _ in range(1000):
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        y = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        vx, vy, vxy = ord_p(x, p), ord_p(y, p), ord_p(x + y, p)
        assert ord_p(x * y, p) == vx + vy or (x * y == 0)
        assert vxy >= val_min(vx, vy)
        if vx != vy:
            assert vxy == val_min(vx, vy)


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

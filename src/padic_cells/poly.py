"""Exact univariate polynomial algebra over the rationals.

Polynomials are immutable coefficient tuples (index i = coefficient of y^i,
trailing zeros trimmed, zero polynomial = empty tuple with degree -1).
Besides evaluation, derivative and Taylor recentering, this module provides
the handful of classical algorithms the decomposition engine leans on:
polynomial gcd, the squarefree part f / gcd(f, f'), and the valuation of a
resultant.

Everything runs on integers: each polynomial clears its denominators once
(`Poly.integral`), and `eval`, `taylor_shift` and `shift_var` work on those
numerators, building `Fraction`s only for their results.  The gcd, the
squarefree part and the resultant follow the primitive polynomial remainder
sequence over Z, each pseudo-remainder divided by its content (Collins,
J. ACM 1967; Brown and Traub, J. ACM 1971), not Euclid's algorithm over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .padics import INFINITY, Rat, Val, ord_p

# The largest degree the parser and `prepare` accept.  `prepare` recurses
# once per derivative, so its stack depth grows with the degree, and the
# parser expands powers by repeated products, in time quadratic in the
# degree.  No workload or test goes past degree 8, and y^100 decomposes in
# under a second.
MAX_DEGREE = 100


@dataclass(frozen=True)
class Poly:
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*coeffs: Rat) -> "Poly":
        """Build from low-to-high coefficients, trimming trailing zeros."""
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @cached_property
    def integral(self) -> tuple[tuple[int, ...], int]:
        """(N, D): the least common denominator D of the coefficients and the
        integers N_i = D * coefficient i.  Computed once per instance; it
        takes no part in equality or hashing."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (den // c.denominator) for c in self.coeffs), den

    @cached_property
    def _hash(self) -> int:
        return hash((self.coeffs,))

    def __hash__(self) -> int:
        """The dataclass hash of the coefficients, computed once per instance:
        law tables are dicts keyed by polynomials."""
        return self._hash

    def eval(self, x: Rat) -> Fraction:
        """f(a/b) = (sum N_j a^j b^(n-j)) / (D b^n), by homogeneous integer Horner."""
        nums, den = self.integral
        a, b = x.numerator, x.denominator
        acc, power = 0, 1
        for i in range(len(nums) - 1, -1, -1):
            acc = acc * a + nums[i] * power
            if i:
                power *= b
        return Fraction(acc, den * power)

    def derivative(self) -> "Poly":
        return Poly.of(*(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def shifted_numerators(self, a: int, b: int = 1) -> list[int]:
        """Integers H_i with f(y + a/b) = sum_i H_i / (D b^(n-i)) y^i, where
        (N, D) = `integral` and n is the degree: numerator j is scaled by
        b^(n-j), then shifted by a with synthetic division.  H_n = N_n."""
        h = list(self.integral[0])
        n = len(h) - 1
        if b != 1:
            power = 1
            for j in range(n, -1, -1):
                h[j] *= power
                power *= b
        if a:
            for i in range(n):
                for j in range(n - 1, i - 1, -1):
                    h[j] += a * h[j + 1]
        return h

    def taylor_shift(self, c: Rat) -> "Poly":
        """Coefficients b_i with f(y) = sum b_i (y - c)^i, i.e. f(y + c)."""
        return self.shift_var(1, c)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.of(*(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.of(*(self.coeff(i) - other.coeff(i) for i in range(n)))

    def __neg__(self) -> "Poly":
        return Poly.of(*(-c for c in self.coeffs))

    def __mul__(self, other: "Poly | Rat") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly.of(*(c * other for c in self.coeffs))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.of(*out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lc = other.leading()
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            q = rem[i] / lc
            quo[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= q * b
        return Poly.of(*quo), Poly.of(*rem)

    def shift_var(self, scale: Rat, offset: Rat) -> "Poly":
        """The polynomial g(z) = f(scale * z + offset), exact: with offset a/b
        and scale u/v, coefficient i is H_i u^i / (D b^(n-i) v^i), H the
        `shifted_numerators` at a/b."""
        h = self.shifted_numerators(offset.numerator, offset.denominator)
        u, v, b = scale.numerator, scale.denominator, offset.denominator
        low = self.integral[1]  # D b^(n-i), from i = n down
        out = [Fraction(0)] * len(h)
        for i in range(len(h) - 1, -1, -1):
            if h[i]:
                out[i] = Fraction(h[i] * u**i, low * v**i)
            low *= b
        while out and out[-1] == 0:  # only a zero scale leaves zeros on top
            out.pop()
        return Poly(tuple(out))

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def _primitive(a: list[int]) -> list[int]:
    """a over the gcd of its coefficients (its content); [] stays []."""
    c = gcd(*a)
    return a if c in (0, 1) else [x // c for x in a]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The pseudo-remainder of a by b in Z[y], trimmed: lc(b)^e a mod b with
    e = deg a - deg b + 1, and a itself when deg a < deg b.  Coefficient
    lists run low to high; b is nonzero."""
    r, db, lc = list(a), len(b) - 1, b[-1]
    for top in range(len(a) - 1, db - 1, -1):
        c = r.pop()  # the coefficient of y^top, cancelled against c y^(top-db) b
        r = [x * lc for x in r]
        if c:
            for j in range(db):
                r[top - db + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd in Z[y] by the primitive PRS: each pseudo-remainder
    is divided by its content, which keeps the coefficients small."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _monic(a: list[int]) -> Poly:
    return Poly(tuple(Fraction(c, a[-1]) for c in a)) if a else Poly(())


def pseudo_remainder(f: Poly, g: Poly) -> Poly:
    """f mod g up to a nonzero rational factor, with coprime integer
    coefficients: the primitive pseudo-remainder of their numerators."""
    return Poly.of(*_primitive(_prem(list(f.integral[0]), list(g.integral[0]))))


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q; the zero polynomial when both are zero."""
    return _monic(_int_gcd(list(f.integral[0]), list(g.integral[0])))


def squarefree_part(f: Poly) -> Poly:
    """f / gcd(f, f'), monic; the radical of f over Q.  By Gauss's lemma the
    primitive gcd divides the primitive numerators of f exactly in Z[y]."""
    if f.is_zero:
        raise ValueError("zero polynomial has no squarefree part")
    a = _primitive(list(f.integral[0]))
    g = _int_gcd(a, [i * c for i, c in enumerate(a)][1:])
    rem, quo = list(a), [0] * (len(a) - len(g) + 1)
    for i in range(len(quo) - 1, -1, -1):
        quo[i], r = divmod(rem[i + len(g) - 1], g[-1])
        assert r == 0
        for j, c in enumerate(g):
            rem[i + j] -= quo[i] * c
    assert not any(rem)
    return _monic(quo)


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g), exact: Res(A / D, B / E) = Res(A, B) / (D^deg g E^deg f)
    over the numerators, by Res(A, B) = (-1)^(mn) lc(B)^(m - deg R) Res(B, R)
    for R = A mod B, m = deg A, n = deg B, on the primitive pseudo-remainder
    c R' = lc(B)^e R: Res(B, R) = c^n Res(B, R') / lc(B)^(en)."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is not supported")
    (a, d), (b, e) = f.integral, g.integral
    res = Fraction(1, d**g.degree * e**f.degree)
    a, b = list(a), list(b)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return Fraction(0)
        m, n, lc, c = len(a) - 1, len(b) - 1, b[-1], gcd(*r)
        res *= Fraction((-1) ** (m * n) * lc ** (m - len(r) + 1) * c**n,
                        lc ** (max(m - n + 1, 0) * n))
        a, b = b, [x // c for x in r]
    return res * b[0] ** (len(a) - 1)


def resultant_val(f: Poly, g: Poly, p: int) -> Val:
    """ord_p of Res(f, g); INFINITY exactly when f and g share a factor."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant_val requires nonzero polynomials")
    return ord_p(resultant(f, g), p)


def newton_min(f: Poly, p: int, m: int = 0, start: int = 0) -> Val:
    """min over i >= start of ord_p(a_i) + i*m: the lower envelope of the
    Newton polygon of f at slope m (INFINITY when those coefficients vanish).

    With m = 0 and start = 0 this is the content valuation of f; with
    start = 1 at a Taylor expansion it bounds the Taylor tail."""
    return min((ord_p(f.coeff(i), p) + i * m for i in range(start, len(f.coeffs))),
               default=INFINITY)


def format_poly(f: Poly, var: str = "y") -> str:
    """Human-readable form, parseable back by the CLI grammar."""
    if f.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)

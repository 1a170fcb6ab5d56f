"""Exact arithmetic in Q_p on rational representatives.

Everything here works on `fractions.Fraction` values, which already enforce
the reduced-form invariant (coprime numerator/denominator, positive
denominator).  The three building blocks are the p-adic valuation, the unit
digits of the prime-free part, and the combined rv-data (valuation plus a
fixed number of leading unit digits).

A valuation is a plain int, and the valuation of 0 is the one object
INFINITY, which compares above every int and Fraction and absorbs sums, so
`min(..., default=INFINITY)` is the least of some valuations.  The unit
digits of x at depth d are the int (x / p^ord x) mod p^d.

Levels are always digit depths: the coset 1 + p^d Z_p is the only kind of
congruence subgroup that matters over Q_p, so a level is stored as the
positive integer d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import UnsupportedInputError

Rat = Union[int, Fraction]

# The most residue classes mod p^k that one scan or one digit atom may
# enumerate; the acceptance suite's largest scan is 7^6 = 117,649 classes.
MAX_CLASSES = 10**6

# The most law samples per cell, whose time grows with their count squared.
MAX_SAMPLES = 10**4

# The least strong pseudoprime to all twelve bases of `is_prime`.
_MR_EXACT_BELOW = 318665857834031151167461


class _Infinity:
    """The valuation of zero, the one element of the value group past Z.

    It is larger than every int and Fraction, absorbs sums and products by
    nonzero integers, and leaves 0 * INFINITY undefined.  Finite valuations
    are plain ints; test for this one with `is INFINITY`."""

    __slots__ = ()

    def __add__(self, other: int) -> "_Infinity":
        return self

    __radd__ = __add__

    def __mul__(self, k: int) -> "_Infinity":
        if k == 0:
            raise ValueError("0 * infinity is undefined")
        return self

    __rmul__ = __mul__

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True

    def __reduce__(self) -> str:
        return "INFINITY"  # a copy or a pickle is the one object again

    def __repr__(self) -> str:
        return "INFINITY"

    def __str__(self) -> str:
        return "inf"


INFINITY = _Infinity()

# A valuation: an int, or INFINITY for the valuation of zero.
Val = Union[int, _Infinity]


def int_val(n: int, p: int) -> int:
    """ord_p of a nonzero integer, in O(log v) divisions for a valuation v:
    square p while the square still divides n, then divide n by those powers
    of p in decreasing order where they divide it, each one bit of v."""
    if n % p:
        return 0
    powers = [p]
    while n % (q := powers[-1] * powers[-1]) == 0:
        powers.append(q)
    v = 0
    for k in range(len(powers) - 1, -1, -1):
        q, r = divmod(n, powers[k])
        if r == 0:
            n, v = q, v + (1 << k)
    return v


def is_prime(n: int) -> bool:
    """Miller-Rabin with the twelve primes up to 37 as bases, which is exact
    for n < 318665857834031151167461.  From that value up the test can be
    fooled, so it raises UnsupportedInputError instead of answering."""
    if n >= _MR_EXACT_BELOW:
        raise UnsupportedInputError(
            f"primality is certified only below {_MR_EXACT_BELOW}, and {n} is not")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_classes(p: int, depth: int, what: str) -> None:
    """Reject an enumeration of the p^depth classes mod p^depth when depth is
    below 1 or p^depth is past MAX_CLASSES."""
    # p >= 2, so a depth past the bit length of the limit is past the limit
    if depth < 1 or depth > MAX_CLASSES.bit_length() or p**depth > MAX_CLASSES:
        raise UnsupportedInputError(
            f"{what} = {depth} is out of range: it must be at least 1, "
            f"with {p}^{depth} at most {MAX_CLASSES}")


def ord_p(x: Rat, p: int) -> Val:
    """The p-adic valuation of a rational, with ord_p(0) = INFINITY."""
    if x == 0:
        return INFINITY
    # an int is its own numerator, over the denominator 1
    return int_val(x.numerator, p) - int_val(x.denominator, p)


def unit_digits(x: Rat, p: int, d: int) -> int:
    """Unit part of x modulo p^d, i.e. (x / p^ord(x)) mod p^d, computed exactly.

    The denominator is prime to p after stripping the p-part, so it has a
    modular inverse and the result is a genuine residue in (Z/p^d)^x.
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("unit digits of 0 are undefined")
    if d < 1:
        raise ValueError("depth must be >= 1")
    num, den = x.numerator, x.denominator
    vn, vd = int_val(num, p), int_val(den, p)
    num //= p**vn
    den //= p**vd
    q = p**d
    return num * pow(den, -1, q) % q


@dataclass(frozen=True)
class RvData:
    """The value rv_d(x): zero, or valuation plus d leading unit digits.

    The zero element is shared between all depths, mirroring the convention
    that rv sends 0 to 0 in every RV_n.
    """

    depth: int
    valuation: int | None
    unit: int | None  # the first `depth` unit digits, a residue mod p^depth

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if (self.valuation is None) != (self.unit is None):
            raise ValueError("zero rv-data has neither valuation nor unit")

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    @classmethod
    def zero(cls, depth: int = 1) -> "RvData":
        return cls(depth, None, None)

    def project(self, depth: int, p: int) -> "RvData":
        """The natural projection RV_n -> RV_m for m dividing n (here: d' <= d)."""
        if self.is_zero:
            return RvData.zero(depth)
        if depth > self.depth:
            raise ValueError("cannot project to a deeper level")
        return RvData(depth, self.valuation, self.unit % p**depth)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"rv0@{self.depth}"
        return f"rv({self.valuation};{self.unit})@{self.depth}"


def rv(x: Rat, p: int, d: int) -> RvData:
    """rv_d(x) over Q_p: ZERO for x = 0, else (d, ord_p(x), unit digits)."""
    x = Fraction(x)
    if x == 0:
        return RvData.zero(d)
    return RvData(d, ord_p(x, p), unit_digits(x, p, d))


def canonical_lift(r: RvData, p: int) -> Fraction:
    """The smallest representative p^m * u of a nonzero rv-class."""
    if r.is_zero:
        return Fraction(0)
    return Fraction(r.unit) * Fraction(p) ** r.valuation

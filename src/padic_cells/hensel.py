"""Quantitative Hensel lifting, certified root approximations, and every
exact query at a cell center.

The central object is `PadicApprox`: a root of a squarefree witness
polynomial pinned down by an rv-class, carried as a rational approximation
together with a Newton certificate (ord f(z) >= precision + ord f'(z)).
Such approximations can be refined to any precision, so exact questions
about the root are decidable.

Hensel lifting runs on integers.  At z = a/b one homogeneous Horner pass
(`_horner`) over the numerators of w gives F and G with w(z) = F / (D b^n)
and w'(z) = G / (D b^(n-1)); every Newton step, certificate check, basin
test and exactness test reads its valuations from that pair, and the next
Newton iterate (aG - F)/(bG) is reduced mod p^N by its unit parts
(`_reduce`), with no `Fraction` arithmetic and no derivative polynomial.

A cell center is a rational or a `PadicApprox`, and this is the only module
that knows which.  The center queries at the end of the file -- the
valuation or leading digits of q(center) for a rational polynomial q, the
valuations of the Taylor coefficients of f at the center, equality,
valuation and digits of the difference of two centers, rational proxies,
shifts -- branch once on whether the point is known exactly.  At an inexact
root every question goes through one loop (`_certified`): its first estimate
almost always settles a nonzero answer; only when it does not is the value
tested for zero, once, by a Newton-polygon root count (`_roots_near`) in the
root's isolating ball, and refined until the Taylor tail can no longer change
the digits asked for.  `taylor_ords` applies the same rule to every Taylor
coefficient at once: each refinement reads them all from one integer
expansion at the approximation.  The decomposition engine and the cell
algebra use only these queries.  Where the engine already knows a lower
bound v for ord f, as on every cell with an order law, it reads the digits
of f near a center from one `center_proxy` exact to v plus the digits
wanted, with no certification.

`roots_in_ball` is the one root search: it scales a ball to Z_p, runs the
pruned digit search `certified_root_points` there and certifies each root it
finds.  The engine's tie split takes the first root of a tie class from it.
`check_conditions` and `h` realize the quantitative Hensel conditions and
the total root-or-zero functions built from them; `h` decides existence by
searching the ball of the given rv-class with `roots_in_ball` rather than by
scanning every digit lift, which gives the same answer with polynomially
many candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import comb, isqrt

from .errors import InternalBoundError
from .padics import (
    INFINITY,
    Rat,
    RvData,
    Val,
    canonical_lift,
    int_val,
    ord_p,
    rv,
    unit_digits,
)
from .poly import (Poly, format_poly, newton_min, poly_gcd, pseudo_remainder, resultant_val,
                   squarefree_part)

_MAX_DOUBLINGS = 64
_MAX_PRECISION = 2**13  # digits past which no estimate, ball or basin point is refined


class NonSimpleRootError(ValueError):
    """Raised when a derivative vanishes at a root that must be simple."""


@dataclass(frozen=True)
class PadicApprox:
    """A root of `witness` in Q_p, known modulo p^precision.

    Invariants: the witness is squarefree and has exactly one root with
    rv-data `rv_tag`; `ord(root - approx) >= precision`; and the Newton
    certificate ord(w(approx)) >= precision + ord(w'(approx)) holds, so the
    approximation can be refined quadratically and its ball ord(y - approx) >=
    precision holds no other root of the witness (`_isolated` checks this).
    """

    witness: Poly
    approx: Fraction
    precision: int
    rv_tag: RvData
    prime: int

    @cached_property
    def is_exact(self) -> bool:
        return _is_root(self.witness, self.approx)

    def __repr__(self) -> str:
        kind = "exact" if self.is_exact else f"mod {self.prime}^{self.precision}"
        return f"PadicApprox({self.approx} {kind}, tag={self.rv_tag})"


def _reduce(num: int, den: int, p: int, n: int) -> tuple[int, int]:
    """(a, b) with a/b = `reduce_mod`(num/den, p, n) for a nonzero den: 0, or
    p^v times the unit part of num over the unit part of den mod p^(n - v),
    where v = ord(num/den) < n.  The unit part mod p^(n - v) does not depend
    on how num/den is written, and a/b is in lowest terms."""
    if num == 0:
        return 0, 1
    vn, vd = int_val(num, p), int_val(den, p)
    v = vn - vd
    if n <= v:
        return 0, 1
    q = p ** (n - v)
    u = num // p**vn * pow(den // p**vd, -1, q) % q
    return (u * p**v, 1) if v >= 0 else (u, p**-v)


def reduce_mod(x: Rat, p: int, n: int) -> Fraction:
    """A short rational y = p^v * (unit digits) with ord(x - y) >= n."""
    return Fraction(*_reduce(x.numerator, x.denominator, p, n))


def rational_reconstruct(a: int, m: int) -> Fraction | None:
    """The small fraction congruent to a mod m, if one exists.

    Standard half-extended Euclid: returns u/v with u = a*v mod m and
    |u|, |v| <= sqrt(m/2), or None.
    """
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r1 == 0 or s1 == 0 or abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def _horner(w: Poly, a: int, b: int) -> tuple[int, int]:
    """Integers (F, G) with w(a/b) = F / (D b^n) and w'(a/b) = G / (D b^(n-1)),
    where (N, D) = `w.integral` and n = deg w.  One homogeneous Horner pass:
    F = sum N_i a^i b^(n-i), and G = dF/da = sum i N_i a^(i-1) b^(n-i)
    accumulates the partial sums of F."""
    nums = w.integral[0]
    f = g = 0
    power = 1  # b^(n-i)
    for i in range(len(nums) - 1, -1, -1):
        g = g * a + f
        f = f * a + nums[i] * power
        if i:
            power *= b
    return f, g


def _is_root(w: Poly, z: Rat) -> bool:
    """Whether w(z) = 0, read from the F of one `_horner` pass."""
    return _horner(w, z.numerator, z.denominator)[0] == 0


def _ords(w: Poly, z: Rat, p: int) -> tuple[Val, Val]:
    """ord_p of w(z) and of w'(z), from one `_horner` pass."""
    f, g = _horner(w, z.numerator, z.denominator)
    vd, vb, n = int_val(w.integral[1], p), int_val(z.denominator, p), w.degree
    return (int_val(f, p) - vd - n * vb if f else INFINITY,
            int_val(g, p) - vd - (n - 1) * vb if g else INFINITY)


def _newton(w: Poly, z: Fraction, p: int, target: int) -> tuple[Fraction, int]:
    """Newton-refine a certified starting point to the target precision.

    Requires ord(w(z)) > 2 ord(w'(z)).  Returns (approx, precision) where
    precision = ord(w(approx)) - ord(w'(approx)) >= target, or precision =
    target for an exact rational root.  Each step runs on integers (von zur
    Gathen and Gerhard, "Modern Computer Algebra", ch. 9): at z = a/b one
    `_horner` pass gives F and G, so that ord w(z) - ord w'(z) = ord F -
    ord G - ord b and the next iterate z - w(z)/w'(z) is (aG - F)/(bG),
    which is reduced mod a generous power of p (`_reduce`) to keep heights
    small.
    """
    a, b = z.numerator, z.denominator
    vb = int_val(b, p)
    # reduction slack: negative coefficient content and a non-integral start
    # can lower the valuation of Taylor terms by at most this much
    guard = 2 * max(vb * w.degree, -newton_min(w, p))
    reached = None
    for _ in range(_MAX_DOUBLINGS):
        f, g = _horner(w, a, b)
        if f == 0:
            return Fraction(a, b), target
        if g == 0:
            raise InternalBoundError(
                f"Newton iteration on {format_poly(w)} (p = {p}) met a zero of the "
                f"derivative at {Fraction(a, b)}")
        reached = int_val(f, p) - int_val(g, p) - vb
        if reached >= target:
            return Fraction(a, b), reached
        a, b = _reduce(a * g - f, b * g, p, 2 * max(target, reached + 1) + guard + 4)
        vb = int_val(b, p)
    raise InternalBoundError(
        f"Newton iteration on {format_poly(w)} (p = {p}) from {z} reached precision "
        f"{reached} short of the target {target}, past the cap of {_MAX_DOUBLINGS} steps")


def refine_root(r: PadicApprox, target: int) -> PadicApprox:
    """Same root, precision at least `target`."""
    if target <= r.precision:
        return r
    if r.is_exact:
        return replace(r, precision=target)
    z, prec = _newton(r.witness, r.approx, r.prime, target)
    return replace(r, approx=z, precision=prec)


def _try_exact(w: Poly, z: Fraction, p: int, prec: int) -> Fraction | None:
    """Attempt to recognize the root as an exact rational."""
    if _is_root(w, z):
        return z
    if z == 0:
        return None
    v = ord_p(z, p)
    k = prec - v
    if k < 2:
        return None
    a = unit_digits(z, p, k)
    cand = rational_reconstruct(a, p**k)
    if cand is None:
        return None
    cand = cand * Fraction(p) ** v
    if _is_root(w, cand) and ord_p(cand - z, p) >= prec:
        return cand
    return None


def make_root_approx(witness: Poly, approx: Fraction, p: int, tag_depth: int) -> PadicApprox:
    """Package a Newton-certified point as a PadicApprox with a stamped rv-tag."""
    vf, e1 = _ords(witness, approx, p)
    prec = 0
    if vf is not INFINITY:
        if not vf > e1 * 2:
            raise ValueError("point is not Newton-certified for the witness")
        prec = vf - e1
    default = 2 * ((0 if e1 is INFINITY else max(e1, 0)) + tag_depth) + 4
    target = max(prec, default)
    z, prec = (approx, target) if vf is INFINITY else _newton(witness, approx, p, target)
    exact = _try_exact(witness, z, p, prec)
    if exact is not None:
        z = exact
    # deepen the tag until its class lies inside the Newton basin, so the
    # witness has exactly one root carrying this tag
    vz = ord_p(z, p)
    if vz is INFINITY:
        return PadicApprox(witness, z, prec, RvData.zero(tag_depth), p)
    vf, e1 = _ords(witness, z, p)
    depth = max(tag_depth, (0 if e1 is INFINITY else e1) - vz + 1)
    if prec < vz + depth + 1 and vf is not INFINITY:
        z, prec = _newton(witness, z, p, vz + depth + 1)
    tag = rv(z, p, depth)
    return PadicApprox(witness, z, prec, tag, p)


# ---------------------------------------------------------------------------
# The quantitative Hensel conditions and the root-or-zero functions h_{m,d}.
# ---------------------------------------------------------------------------


def _conditions_index(f: Poly, p: int, m: int, vfx: Val, vdfx: Val, d: int) -> int | None:
    """Smallest i0 > 0 satisfying (h0b), (h1), (h2) at a point of valuation m.

    A class of digit depth d is the coset of 1 + p^d Z_p; since n M_K =
    p^(ord n + 1) Z_p, the matching level has ord(n) = d - 1.  This pairing
    is what makes the certified root unique inside the class (two roots in
    one class would need ord f' too large for (h2)).
    """
    nd = d - 1
    vmin = newton_min(f, p, m)
    for i0 in range(1, f.degree + 1):
        term = ord_p(f.coeff(i0), p) + i0 * m
        if term == vmin and vfx > term + 2 * nd and vdfx <= term + (nd - m):
            return i0
    return None


def check_conditions(
    a: list[Rat], x: Rat, x0: RvData, d: int, p: int
) -> int | None:
    """The Hensel conditions at a concrete point x with rv_d(x) = x0."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("the candidate point must be nonzero")
    if rv(x, p, d) != x0:
        raise ValueError("rv(x) does not match the given rv-data")
    f = Poly.of(*a)
    return _conditions_index(f, p, ord_p(x, p), *_ords(f, x, p), d)


def certified_root_points(w: Poly, p: int, depth_cap: int) -> list[Fraction]:
    """Rational points in Z_p, one per root of squarefree w, each either an
    exact root or Newton-certified for w (ord w > 2 ord w').

    Digit-lifting search with pruning: a residue class c mod p^j is accepted
    once it lies inside a Newton basin, and otherwise split by its residual
    polynomial.  On y = c + p^j t, poly = p^mu R(t) mod p^(mu+1), where mu is
    the least of the lines ord h_i + i*j over the Taylor numerators h_i at c
    and R sums the first unit digits of the tied h_i times t^i.  A digit t
    with R(t) nonzero mod p leaves ord poly = mu on its whole subclass, which
    holds no root, even in C_p; so the search descends only into the zeros
    of R over F_p, read directly where R is linear, and abandons the class
    when the constant line alone is the least.  A class that would descend
    past `depth_cap` digits raises.
    """
    # the basin criterion ord w > 2 ord w' presumes p-integral coefficients;
    # scaling by a power of p fixes the content at 0 without moving roots
    given, content = w, newton_min(w, p)
    if content not in (0, INFINITY):
        w = w * Fraction(p) ** (-content)
    out: list[Fraction] = []
    # the classes still to visit, (poly, c, j), the next one last: a stack,
    # not a recursive closure, which would leave a reference cycle per call
    stack = [(w, 0, 0)]
    while stack:
        poly, c, j = stack.pop()
        if poly.degree < 1:
            continue
        # one integer expansion per class: poly(y + c) = sum_i (h_i / D) y^i;
        # poly is p-integral, so D is prime to p and ord b_i = ord h_i
        hs = poly.shifted_numerators(c)
        if hs[0] == 0:
            out.append(Fraction(c))
            quo, rem = poly.divmod(Poly.of(-c, 1))
            assert rem.is_zero
            stack.append((quo, c, j))
            continue
        v0 = int_val(hs[0], p)  # ord poly(c)
        if hs[1]:
            v1 = int_val(hs[1], p)  # ord poly'(c)
            if v0 > 2 * v1 and j > v1:
                # the class sits inside the uniqueness basin around c
                z, _prec = _newton(poly, Fraction(c), p, max(v0 - v1, j + 1))
                if ord_p(z - c, p) >= j:
                    out.append(z)
                continue
        lines = [(i, int_val(h, p) + i * j) for i, h in enumerate(hs) if h]
        mu = min(v for _, v in lines)
        residual = [(i, hs[i] // p ** (mu - i * j) % p) for i, v in lines if v == mu]
        if len(residual) == 1 and residual[0][0] == 0:
            continue  # the constant line alone is the least: no root on the class
        if j + 1 > depth_cap:
            raise InternalBoundError(
                f"the root search for {format_poly(given)} (p = {p}) reached the class "
                f"{c} mod {p}^{j + 1}, past its depth bound of {depth_cap}")
        if residual[-1][0] == 1:  # a linear residual a0 + a1 t has the one zero -a0/a1
            a = dict(residual)
            zeros = [-a.get(0, 0) * pow(a[1], -1, p) % p]
        else:
            zeros = [t for t in range(p) if sum(a * t**i for i, a in residual) % p == 0]
        stack.extend((poly, c + t * p**j, j + 1) for t in reversed(zeros))
    return out


def transfer_basin(w: Poly, inner: Poly, embed, t: Fraction, p: int) -> Fraction:
    """Map a point certified for `inner` to a point certified for w.

    `embed` sends the inner coordinate to the w coordinate (an affine map,
    under which Newton's iteration commutes); the point is refined on the
    inner side until the raw basin inequality holds for w itself.
    """
    start, reached, target = t, None, 4
    while True:
        y = embed(t)
        vf, vd = _ords(w, y, p)
        if vf is INFINITY or vf > vd * 2:
            return y
        if target > _MAX_PRECISION:
            raise InternalBoundError(
                f"carrying the root of {format_poly(inner)} near {start} into the basin of "
                f"{format_poly(w)} (p = {p}) reached precision {reached}, past the cap of "
                f"{_MAX_PRECISION} digits")
        t, reached = _newton(inner, t, p, target)
        target = 2 * target + 4


def roots_in_ball(w: Poly, a: Fraction, k: int, p: int, depth_cap: int, tag_depth: int):
    """One PadicApprox per root of squarefree w in the ball ord(y - a) >= k,
    in search order: the ball is scaled to Z_p by y = a + p^k t, searched to
    `depth_cap` digits, and each point is carried back to a certified root
    of w with an rv-tag of depth `tag_depth` or deeper."""
    scale = Fraction(p) ** k
    inner = w.shift_var(scale, a)
    for t in certified_root_points(inner, p, depth_cap):
        y = transfer_basin(w, inner, lambda z: a + scale * z, t, p)
        yield make_root_approx(w, y, p, tag_depth)


def h(a: list[Rat], x0: RvData, p: int) -> PadicApprox | None:
    """The Henselian function h_{m,d}: the unique certified root in the given
    rv-class when the conditions hold for some point of the class, else None.

    The input polynomial is replaced by its squarefree part before lifting;
    condition checking uses the reduced coefficients.  Total: never raises
    on mathematically meaningful input.
    """
    if x0.is_zero:
        return None
    f = Poly.of(*a)
    if f.is_zero or f.degree < 1:
        return None
    w = squarefree_part(f)
    if w.degree < 1:
        return None
    d = x0.depth
    res = resultant_val(w, w.derivative(), p)
    cap = 2 * (0 if res is INFINITY else max(res, 0)) + 2 * d + 2
    m = x0.valuation
    lift = canonical_lift(x0, p)

    def conditions_hold(x: Fraction) -> bool:
        return rv(x, p, d) == x0 and _conditions_index(w, p, m, *_ords(w, x, p), d) is not None

    accepted: list[PadicApprox] = []
    for root in roots_in_ball(w, lift, m + d, p, cap, d):
        deep = refine_root(root, m + d + cap + 4)
        # candidate points: the class representative and reductions of the
        # root at every depth up to the search cap
        cands = [lift] + [reduce_mod(deep.approx, p, m + d + e) for e in range(cap + 1)]
        if any(map(conditions_hold, dict.fromkeys(cands))):
            accepted.append(root)
    if len(accepted) > 1:
        raise InternalBoundError(
            f"the Hensel conditions for {format_poly(w)} (p = {p}) accepted {len(accepted)} "
            f"roots in the class {x0}, searched to depth {cap}; at most one is possible")
    return accepted[0] if accepted else None


def order_law_at_root(f: Poly, r: PadicApprox) -> Val:
    """ord_p of the linear Taylor coefficient of f at the root (= ord f'(root)).

    Signals NonSimpleRootError when f' also vanishes there.
    """
    if ord_of_poly_at(f, r, r.prime) is not INFINITY:
        raise ValueError("the approximation is not a root of f")
    v = ord_of_poly_at(f.derivative(), r, r.prime)
    if v is INFINITY:
        raise NonSimpleRootError("derivative vanishes at the root")
    return v


# ---------------------------------------------------------------------------
# Exact queries at centers.  A center is a rational or a PadicApprox, and no
# other module tells the two apart.  Each query branches once on whether the
# point is known exactly (a rational, or a root recognized as one); at an
# inexact root, every answer is a rational estimate settled by `_certified`,
# which tests the value for zero at most once, only when its first estimate
# does not settle: a root count in the root's isolating ball.
# ---------------------------------------------------------------------------

CenterValue = Fraction | PadicApprox


def exact_value(c: CenterValue | Rat) -> Rat | None:
    """The value of a point known exactly, else None."""
    if isinstance(c, PadicApprox):
        return c.approx if c.is_exact else None
    return c


def center_of(r: PadicApprox) -> CenterValue:
    """A root as a center: its rational value when it is known exactly."""
    x = exact_value(r)
    return r if x is None else x


def _certified(start: int, digits: int, estimate, p: int, subject, is_zero) -> Fraction:
    """The one decision loop behind every query at an inexact root.

    `estimate(n)` refines the roots involved to precision at least n and
    returns a pair (x, err) with ord(value - x) >= err.  It settles when x is
    nonzero with ord x + digits <= err: x then has the valuation and first
    `digits` unit digits of the value, which is nonzero, and x is returned.
    Only when the first estimate does not settle is `is_zero()` asked, once:
    a zero gives 0, a nonzero value is refined until it settles, but never
    past _MAX_PRECISION digits; `subject()` names the value at that cap.
    """
    n = first = max(start, 2)
    while n <= _MAX_PRECISION:
        x, err = estimate(n)
        if x != 0 and ord_p(x, p) + digits <= err:
            return x
        if n == first and is_zero():
            return Fraction(0)
        n = 2 * n + 4
    raise InternalBoundError(
        f"certifying {subject()} (p = {p}) reached precision {n} without settling "
        f"{digits} digit(s), past the cap of {_MAX_PRECISION} digits")


def _at_root(r: PadicApprox, q: Poly):
    """The estimate of q(root): the constant Taylor term at the refined
    approximation, off by at most the Taylor tail."""
    def estimate(n: int):
        rr = refine_root(r, n)
        tail = min(taylor_ords(q, rr.approx, r.prime)[1:], default=INFINITY)
        return q.eval(rr.approx), tail + rr.precision
    return estimate


def _vanishes(q: Poly, r: PadicApprox) -> bool:
    """Whether q vanishes at the inexact root r: when q mod its witness w is
    0, or g = gcd(w, q mod w) has a root in the root's isolating ball; q mod
    w is taken up to a constant factor, as an integer pseudo-remainder."""
    qr = pseudo_remainder(q, r.witness)
    if qr.is_zero:
        return True
    g = poly_gcd(r.witness, qr)
    if g.degree < 1:
        return False
    r = _isolated(r)
    return _roots_near(g, r.approx, r.precision, r.prime) > 0


def _value_at(q: Poly, center: CenterValue, digits: int) -> Rat:
    """A rational with the valuation and the first `digits` unit digits of
    q(center); q(center) itself at an exact point, and 0 where q vanishes at
    the center."""
    x = exact_value(center)
    if x is not None:
        return q.eval(x)
    return _certified(center.precision, digits, _at_root(center, q), center.prime,
                      lambda: f"{format_poly(q)} at the root {center}",
                      lambda: _vanishes(q, center))


def ord_of_poly_at(q: Poly, center: CenterValue, p: int) -> Val:
    """ord_p(q(center)), exactly; INFINITY iff q vanishes at the center."""
    return ord_p(_value_at(q, center, 1), p)


def digits_of_poly_at(q: Poly, center: CenterValue, p: int, depth: int) -> int:
    """Unit digits of q(center) at the given depth; q(center) must be nonzero."""
    return unit_digits(_value_at(q, center, depth), p, depth)


def _same_root(a: PadicApprox, b: PadicApprox) -> bool:
    """Whether two inexact roots coincide: b is a root of a's witness inside
    a's isolating ball, which holds no other root of that witness."""
    if not _vanishes(a.witness, b):
        return False
    a = _isolated(a)
    return ord_p(refine_root(b, a.precision).approx - a.approx, a.prime) >= a.precision


def centers_equal(a: CenterValue | Rat, b: CenterValue | Rat, p: int) -> bool:
    """Whether two points (rationals or centers) coincide, exactly."""
    return _difference(a, b, p, 1) == 0


def _difference(a: CenterValue | Rat, b: CenterValue | Rat, p: int, digits: int) -> Rat:
    """a - b, certified like `_value_at`; 0 exactly when the points coincide."""
    xa, xb = exact_value(a), exact_value(b)
    if xa is not None and xb is not None:
        return xa - xb
    if xb is not None:
        return _value_at(Poly.of(-xb, 1), a, digits)  # (Y - b) at a
    if xa is not None:
        return _value_at(Poly.of(xa, -1), b, digits)  # (a - Y) at b
    if a is b or a == b:  # one root, with no estimate to certify
        return Fraction(0)

    def estimate(n: int):
        ra, rb = refine_root(a, n), refine_root(b, n)
        return ra.approx - rb.approx, min(ra.precision, rb.precision)

    return _certified(max(a.precision, b.precision), digits, estimate, p,
                      lambda: f"the difference of the roots {a} and {b}",
                      lambda: _same_root(a, b))


def ord_between(a: CenterValue | Rat, b: CenterValue | Rat, p: int) -> Val:
    """ord(a - b) for two points; INFINITY exactly when they coincide."""
    return ord_p(_difference(a, b, p, 1), p)


def digits_between(a: CenterValue | Rat, b: CenterValue | Rat, p: int, depth: int) -> int:
    """Unit digits of a - b at the given depth; the points must differ."""
    return unit_digits(_difference(a, b, p, depth), p, depth)


def _ords_at(f: Poly, x: Rat, p: int) -> list[Val]:
    """ord_p of the Taylor coefficients of f at a rational x = a/b, from one
    integer expansion: coefficient i is h_i / (D b^(n-i))."""
    hs = f.shifted_numerators(x.numerator, x.denominator)
    n, vd, vb = f.degree, int_val(f.integral[1], p), int_val(x.denominator, p)
    return [int_val(h, p) - vd - (n - i) * vb if h else INFINITY
            for i, h in enumerate(hs)]


def taylor_ords(f: Poly, center: CenterValue, p: int) -> list[Val]:
    """ord_p of the Taylor coefficients b_i of f at the center.

    At an inexact root a + delta, ord delta >= precision, every b_i(a) comes
    from one expansion per refinement.  b_i(root) - b_i(a) is sum_{j>i}
    C(j, i) b_j(a) delta^(j-i), so by the rule of `_certified` b_i(a) settles
    when it is nonzero and ord b_i(a) + 1 <= min_{j>i} (ord b_j(a) + (j - i)
    precision); one zero test, on q_i = f^(i) / i!, decides each coefficient
    the first estimate leaves open."""
    x = exact_value(center)
    if x is not None:
        return _ords_at(f, x, p)
    out: list[Val | None] = [None] * len(f.coeffs)
    rr, n, tested = center, max(center.precision, 2), False
    while n <= _MAX_PRECISION:
        rr = refine_root(rr, n)
        ords = _ords_at(f, rr.approx, p)
        tail = INFINITY  # min over j > i of ords[j] + (j - i) * precision
        for i in range(len(ords) - 1, -1, -1):
            if out[i] is None and ords[i] is not INFINITY and ords[i] + 1 <= tail:
                out[i] = ords[i]
            tail = min(tail, ords[i]) + rr.precision
        if not tested:
            tested = True
            for i, v in enumerate(out):
                if v is None and _vanishes(
                        Poly.of(*(comb(j, i) * c for j, c in enumerate(f.coeffs[i:], i))),
                        center):
                    out[i] = INFINITY
        if None not in out:
            return out
        n = 2 * n + 4
    raise InternalBoundError(
        f"certifying the Taylor coefficient {out.index(None)} of {format_poly(f)} at the "
        f"root {center} (p = {p}) reached precision {n} without settling, past the cap of "
        f"{_MAX_PRECISION} digits")


def _roots_near(q: Poly, a: Fraction, n: int, p: int) -> int:
    """How many roots q has in C_p, with multiplicity, at ord(y - a) >= n for
    a rational a: by the Newton polygon of q(a + t), the largest index i that
    minimizes ord b_i + i*n over the Taylor coefficients b_i."""
    terms = [v + i * n for i, v in enumerate(taylor_ords(q, a, p))]
    low = min(terms)
    return max(i for i, t in enumerate(terms) if t == low)


def _isolated(r: PadicApprox) -> PadicApprox:
    """r refined until its ball ord(y - approx) >= precision holds no root of
    the witness but r itself."""
    start, n = r, r.precision
    while n <= _MAX_PRECISION:
        r = refine_root(r, n)
        if _roots_near(r.witness, r.approx, r.precision, r.prime) == 1:
            return r
        n = 2 * r.precision + 4
    raise InternalBoundError(
        f"isolating the root {start} of {format_poly(r.witness)} (p = {r.prime}) reached "
        f"precision {r.precision} with other roots still in its ball, past the cap of "
        f"{_MAX_PRECISION} digits")


def center_proxy(center: CenterValue, p: int, precision: int) -> Rat:
    """A rational congruent to the center mod p^precision."""
    x = exact_value(center)
    if x is not None:
        return x
    return reduce_mod(refine_root(center, precision).approx, p, precision)


def shift_center(center: CenterValue, offset: Fraction) -> CenterValue:
    """center + offset; an inexact root gets the translated witness and a
    fresh rv-tag of the same depth."""
    x = exact_value(center)
    if x is not None:
        return x + offset
    # the shifted root stays inexact: the new witness at the new approximation
    # takes the old nonzero value
    p, depth = center.prime, center.rv_tag.depth
    w = center.witness.taylor_shift(-offset)
    rr = PadicApprox(w, center.approx + offset, center.precision, center.rv_tag, p)
    vz = ord_p(rr.approx, p)
    if vz is INFINITY:
        rr = refine_root(rr, rr.precision + depth + 1)
        vz = ord_p(rr.approx, p)
    elif rr.precision < vz + depth + 1:
        rr = refine_root(rr, vz + depth + 1)
    tag = RvData.zero(depth) if vz is INFINITY else rv(rr.approx, p, depth)
    return replace(rr, rv_tag=tag)

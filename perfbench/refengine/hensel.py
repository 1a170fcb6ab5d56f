"""Quantitative Hensel lifting and certified root approximations.

The central object is `PadicApprox`: a root of a squarefree witness
polynomial pinned down by an rv-class, carried as a rational approximation
together with a Newton certificate (ord f(z) >= precision + ord f'(z)).
Such approximations can be refined to any precision, so exact questions
about the root -- the valuation or leading digits of q(root) for any
rational polynomial q, or whether q(root) = 0 -- are all decidable and are
answered here.  The decomposition engine treats these roots as cell centers.

`check_conditions` and `h` realize the quantitative Hensel conditions and
the total root-or-zero functions built from them; `h` decides existence by
locating the roots of the (squarefree part of the) input inside the given
rv-class rather than by scanning every digit lift, which gives the same
answer with polynomially many candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

from .errors import InternalBoundError
from .padics import (
    INFINITY,
    Rat,
    RvData,
    Val,
    canonical_lift,
    ord_p,
    rv,
    unit_digits,
)
from .poly import Poly, poly_gcd, resultant_val, squarefree_part

_MAX_DOUBLINGS = 64


class NonSimpleRootError(ValueError):
    """Raised when a derivative vanishes at a root that must be simple."""


@dataclass(frozen=True)
class PadicApprox:
    """A root of `witness` in Q_p, known modulo p^precision.

    Invariants: the witness is squarefree and has exactly one root with
    rv-data `rv_tag`; `ord(root - approx) >= precision`; and the Newton
    certificate ord(w(approx)) >= precision + ord(w'(approx)) holds, so the
    approximation can be refined quadratically.
    """

    witness: Poly
    approx: Fraction
    precision: int
    rv_tag: RvData
    prime: int

    @property
    def is_exact(self) -> bool:
        return self.witness.eval(self.approx) == 0

    def __repr__(self) -> str:
        kind = "exact" if self.is_exact else f"mod {self.prime}^{self.precision}"
        return f"PadicApprox({self.approx} {kind}, tag={self.rv_tag})"


def reduce_mod(x: Rat, p: int, n: int) -> Fraction:
    """A short rational y = p^v * (unit digits) with ord(x - y) >= n."""
    x = Fraction(x)
    if x == 0:
        return x
    v = ord_p(x, p).value
    if n <= v:
        return Fraction(0)
    u = unit_digits(x, p, n - v).digits
    return Fraction(u) * Fraction(p) ** v


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


def _newton(w: Poly, z: Fraction, p: int, target: int) -> tuple[Fraction, int]:
    """Newton-refine a certified starting point to the target precision.

    Requires ord(w(z)) > 2 ord(w'(z)).  Returns (approx, precision) where
    precision = ord(w(approx)) - ord(w'(approx)) >= target, or precision =
    target for an exact rational root.  Iterates are reduced mod a generous
    power of p to keep heights small.
    """
    dw = w.derivative()
    # reduction slack: negative coefficient content and a non-integral start
    # can lower the valuation of Taylor terms by at most this much
    guard = 0
    vz = ord_p(z, p)
    if not vz.is_infinite and vz.value < 0:
        guard += -vz.value * w.degree
    for c in w.coeffs:
        vc = ord_p(c, p)
        if not vc.is_infinite and vc.value < 0:
            guard = max(guard, -vc.value)
    guard *= 2
    for _ in range(_MAX_DOUBLINGS):
        fz = w.eval(z)
        if fz == 0:
            return z, target
        vf = ord_p(fz, p).value
        vd = ord_p(dw.eval(z), p).value
        if vf - vd >= target:
            return z, vf - vd
        z = z - fz / dw.eval(z)
        z = reduce_mod(z, p, 2 * max(target, vf - vd + 1) + guard + 4)
    raise InternalBoundError("Newton iteration failed to reach target precision")


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
    if w.eval(z) == 0:
        return z
    if z == 0:
        return None
    v = ord_p(z, p).value
    k = prec - v
    if k < 2:
        return None
    a = unit_digits(z, p, k).digits
    cand = rational_reconstruct(a, p**k)
    if cand is None:
        return None
    cand = cand * Fraction(p) ** v
    if w.eval(cand) == 0 and ord_p(cand - z, p) >= prec:
        return cand
    return None


def make_root_approx(
    witness: Poly,
    approx: Fraction,
    p: int,
    tag_depth: int,
    min_precision: int = 0,
) -> PadicApprox:
    """Package a Newton-certified point as a PadicApprox with a stamped rv-tag."""
    dw = witness.derivative()
    fz = witness.eval(approx)
    if fz == 0:
        prec = min_precision
    else:
        vf, vd = ord_p(fz, p), ord_p(dw.eval(approx), p)
        if not vf > vd * 2:
            raise ValueError("point is not Newton-certified for the witness")
        prec = vf.value - vd.value
    e1 = ord_p(dw.eval(approx), p)
    default = 2 * ((0 if e1.is_infinite else max(e1.value, 0)) + tag_depth) + 4
    target = max(prec, default, min_precision)
    z, prec = (approx, target) if fz == 0 else _newton(witness, approx, p, target)
    exact = _try_exact(witness, z, p, prec)
    if exact is not None:
        z = exact
    # deepen the tag until its class lies inside the Newton basin, so the
    # witness has exactly one root carrying this tag
    vz = ord_p(z, p)
    if vz.is_infinite:
        return PadicApprox(witness, z, prec, RvData.zero(tag_depth), p)
    e1 = ord_p(dw.eval(z), p)
    depth = max(tag_depth, (0 if e1.is_infinite else e1.value) - vz.value + 1)
    if prec < vz.value + depth + 1 and witness.eval(z) != 0:
        z, prec = _newton(witness, z, p, vz.value + depth + 1)
    tag = rv(z, p, depth)
    return PadicApprox(witness, z, prec, tag, p)


def shift_approx(r: PadicApprox, offset: Rat) -> PadicApprox:
    """The approximation of root + offset, with a translated witness."""
    offset = Fraction(offset)
    w = r.witness.taylor_shift(-offset)
    z = r.approx + offset
    rr = PadicApprox(w, z, r.precision, r.rv_tag, r.prime)
    depth = r.rv_tag.depth
    vz = ord_p(z, r.prime)
    if not vz.is_infinite and rr.precision < vz.value + depth + 1 and not rr.is_exact:
        rr = refine_root(rr, vz.value + depth + 1)
    elif vz.is_infinite and not rr.is_exact:
        rr = refine_root(rr, rr.precision + depth + 1)
        vz = ord_p(rr.approx, r.prime)
    tag = rv(rr.approx, r.prime, depth) if (rr.is_exact or not vz.is_infinite) else RvData.zero(depth)
    return replace(rr, rv_tag=tag)


# ---------------------------------------------------------------------------
# Exact queries about the value q(root) for rational polynomials q.
# ---------------------------------------------------------------------------


def _stable_ord(q: Poly, r: PadicApprox) -> Val:
    """ord_p(q(root)) for q known not to vanish at the root."""
    p = r.prime
    if q.degree <= 0:
        return ord_p(q.coeff(0), p)
    n = max(r.precision, 2)
    for _ in range(_MAX_DOUBLINGS):
        rr = refine_root(r, n)
        sh = q.taylor_shift(rr.approx)
        v0 = ord_p(sh.coeff(0), p)
        cmin = _tail_min(sh, p)
        if cmin.is_infinite or v0 < cmin + n:
            return v0
        n = 2 * n + 4
    raise InternalBoundError("valuation at root failed to stabilize")


def _tail_min(shifted: Poly, p: int) -> Val:
    """Minimum valuation over the degree >= 1 Taylor coefficients."""
    out = INFINITY
    for i in range(1, len(shifted.coeffs)):
        v = ord_p(shifted.coeff(i), p)
        if v < out:
            out = v
    return out


def _owning_factor(r: PadicApprox, g: Poly, h: Poly) -> Poly:
    """Which of two coprime factors of the witness has this root."""
    p = r.prime
    n = max(r.precision, 2)
    for _ in range(_MAX_DOUBLINGS):
        rr = refine_root(r, n)
        for q, other in ((g, h), (h, g)):
            if q.degree < 1:
                continue
            sh = q.taylor_shift(rr.approx)
            v0 = ord_p(sh.coeff(0), p)
            cmin = _tail_min(sh, p)
            if cmin.is_infinite or v0 < cmin + n:
                # q(root) has finite valuation, so the root lives in `other`
                return other
        n = 2 * n + 4
    raise InternalBoundError("factor ownership failed to stabilize")


def is_root_of(q: Poly, r: PadicApprox) -> bool:
    """Whether q vanishes exactly at the root described by r."""
    if r.is_exact:
        return q.eval(r.approx) == 0
    if q.is_zero:
        return True
    qr = q % r.witness
    if qr.is_zero:
        return True
    g = poly_gcd(r.witness, qr)
    if g.degree < 1:
        return False
    h, rem = r.witness.divmod(g)
    assert rem.is_zero
    if h.degree < 1:
        return True
    return _owning_factor(r, g, h) is g


def ord_at_root(q: Poly, r: PadicApprox) -> Val:
    """ord_p(q(root)), exactly; INFINITY iff q vanishes at the root."""
    if r.is_exact:
        return ord_p(q.eval(r.approx), r.prime)
    if q.is_zero:
        return INFINITY
    qr = q % r.witness
    if qr.is_zero:
        return INFINITY
    g = poly_gcd(r.witness, qr)
    if g.degree >= 1:
        h, _ = r.witness.divmod(g)
        if h.degree < 1 or _owning_factor(r, g, h) is g:
            return INFINITY
    return _stable_ord(qr, r)


def digits_at_root(q: Poly, r: PadicApprox, depth: int) -> int:
    """Unit digits of q(root) at the given depth; q(root) must be nonzero."""
    p = r.prime
    v = ord_at_root(q, r)
    if v.is_infinite:
        raise ValueError("unit digits of 0 are undefined")
    if r.is_exact:
        return unit_digits(q.eval(r.approx), p, depth).digits
    qr = q % r.witness
    n = max(r.precision, 2)
    for _ in range(_MAX_DOUBLINGS):
        rr = refine_root(r, n)
        sh = qr.taylor_shift(rr.approx)
        cmin = _tail_min(sh, p)
        if cmin.is_infinite or Val(v.value + depth) <= cmin + n:
            return unit_digits(sh.coeff(0), p, depth).digits
        n = 2 * n + 4
    raise InternalBoundError("digits at root failed to stabilize")


def rv_at_root(q: Poly, r: PadicApprox, depth: int) -> RvData:
    """rv_depth(q(root)), exactly."""
    v = ord_at_root(q, r)
    if v.is_infinite:
        return RvData.zero(depth)
    u = digits_at_root(q, r, depth)
    return RvData(depth, v.value, unit_digits(Fraction(u), r.prime, depth))


def root_separation_bound(w: Poly, p: int) -> int:
    """An upper bound on ord(a - b) over distinct roots a, b of squarefree w.

    Derived from ord Res(w, w') = (2d-1) ord(lc) + 2 sum of pairwise root
    distances, bounding the other pairs below by the Newton-polygon root
    valuations.  Only finiteness matters for the callers (loop caps and
    equal-root decisions), so the bound is deliberately generous.
    """
    d = w.degree
    if d <= 1:
        return 0
    res = resultant_val(w, w.derivative(), p)
    if res.is_infinite:
        raise ValueError("witness is not squarefree")
    vlc = ord_p(w.leading(), p).value
    # smallest possible root valuation = minus the largest polygon slope
    slopes = []
    pts = [(i, ord_p(c, p)) for i, c in enumerate(w.coeffs) if c != 0]
    for (i, vi), (j, vj) in zip(pts, pts[1:]):
        slopes.append(Fraction(vj.value - vi.value, j - i))
    min_root_val = -max(slopes) if slopes else Fraction(0)
    pair_floor = min(0, int(min_root_val) - 1)
    pairs = d * (d - 1) // 2
    bound = (res.value - (2 * d - 1) * vlc) // 2 - (pairs - 1) * pair_floor
    return max(bound, 0) + 1


# ---------------------------------------------------------------------------
# The quantitative Hensel conditions and the root-or-zero functions h_{m,d}.
# ---------------------------------------------------------------------------


def _conditions_index(
    coeff_ords: list[Val], m: int, vfx: Val, vdfx: Val, d: int
) -> int | None:
    """Smallest i0 > 0 satisfying (h0b), (h1), (h2) at a point of valuation m.

    A class of digit depth d is the coset of 1 + p^d Z_p; since n M_K =
    p^(ord n + 1) Z_p, the matching level has ord(n) = d - 1.  This pairing
    is what makes the certified root unique inside the class (two roots in
    one class would need ord f' too large for (h2)).
    """
    nd = d - 1
    term = [coeff_ords[i] + i * m for i in range(len(coeff_ords))]
    vmin = INFINITY
    for t in term:
        if t < vmin:
            vmin = t
    for i0 in range(1, len(coeff_ords)):
        if term[i0] == vmin and vfx > term[i0] + 2 * nd \
                and vdfx <= coeff_ords[i0] + (i0 - 1) * m + nd:
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
    coeff_ords = [ord_p(Fraction(c), p) for c in a]
    m = ord_p(x, p).value
    vfx = ord_p(f.eval(x), p)
    vdfx = ord_p(f.derivative().eval(x), p)
    return _conditions_index(coeff_ords, m, vfx, vdfx, d)


def certified_root_points(w: Poly, p: int, depth_cap: int,
                          start: tuple[int, int] = (0, 0)) -> list[Fraction]:
    """Rational points in Z_p, one per root of squarefree w, each either an
    exact root or Newton-certified for w (ord w > 2 ord w').

    Digit-lifting search with pruning: a residue class is abandoned as soon
    as the constant Taylor term dominates on the whole class, and accepted
    once it lies inside a Newton basin.  `start = (c, j)` restricts the
    search to the class c mod p^j.
    """
    from .poly import content_val

    # the basin criterion ord w > 2 ord w' presumes p-integral coefficients;
    # scaling by a power of p fixes the content at 0 without moving roots
    content = content_val(w, p)
    if not content.is_infinite and content.value != 0:
        w = w * Fraction(p) ** (-content.value)
    out: list[Fraction] = []

    def search(poly: Poly, c: int, j: int) -> None:
        if j > depth_cap:
            raise InternalBoundError("root search exceeded its depth bound")
        if poly.degree < 1:
            return
        val = poly.eval(Fraction(c))
        if val == 0:
            out.append(Fraction(c))
            quo, rem = poly.divmod(Poly.of(-c, 1))
            assert rem.is_zero
            search(quo, c, j)
            return
        v0 = ord_p(val, p)
        v1 = ord_p(poly.derivative().eval(Fraction(c)), p)
        if not v1.is_infinite and v0 > v1 * 2 and Val(j) > v1:
            # the class sits inside the uniqueness basin around c
            z, _prec = _newton(poly, Fraction(c), p, max(v0.value - v1.value, j + 1))
            if ord_p(z - c, p) >= j:
                out.append(z)
            return
        sh = poly.taylor_shift(Fraction(c))
        tail = INFINITY
        for i in range(1, len(sh.coeffs)):
            t = ord_p(sh.coeff(i), p) + i * j
            if t < tail:
                tail = t
        if v0 < tail:
            return  # the constant term dominates on the whole class: no root
        for t in range(p):
            search(poly, c + t * p**j, j + 1)

    search(w, start[0], start[1])
    return out


def transfer_basin(w: Poly, inner: Poly, embed, t: Fraction, p: int) -> Fraction:
    """Map a point certified for `inner` to a point certified for w.

    `embed` sends the inner coordinate to the w coordinate (an affine map,
    under which Newton's iteration commutes); the point is refined on the
    inner side until the raw basin inequality holds for w itself.
    """
    target = 4
    for _ in range(_MAX_DOUBLINGS):
        y = embed(t)
        if w.eval(y) == 0:
            return y
        v0, v1 = ord_p(w.eval(y), p), ord_p(w.derivative().eval(y), p)
        if v0 > v1 * 2:
            return y
        t, _prec = _newton(inner, t, p, target)
        target = 2 * target + 4
    raise InternalBoundError("basin transfer failed for a class root")


def _roots_in_class(w: Poly, x0: RvData, p: int, depth_cap: int) -> list[Fraction]:
    """Newton-certified starting points (for w itself) of every root of
    squarefree w with rv_{x0.depth}(root) = x0."""
    m = x0.valuation
    assert m is not None
    scale = Fraction(p) ** m
    bigw = w.shift_var(scale, 0)  # roots are the unit parts z = y / p^m
    points = certified_root_points(bigw, p, depth_cap + x0.depth,
                                   (x0.unit.digits, x0.depth))
    return [transfer_basin(w, bigw, lambda z: z * scale, z, p) for z in points]


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
    cap = 2 * (0 if res.is_infinite else max(res.value, 0)) + 2 * d + 2
    coeff_ords = [ord_p(c, p) for c in w.coeffs] + [INFINITY] * 0
    dwpoly = w.derivative()
    m = x0.valuation

    roots = _roots_in_class(w, x0, p, cap)
    if not roots:
        return None

    accepted: list[PadicApprox] = []
    for z in roots:
        root = make_root_approx(w, z, p, d)
        deep = refine_root(root, m + d + cap + 4) if not root.is_exact else root
        # candidate points: the class representative and reductions of the
        # root at every depth up to the search cap
        cands = [canonical_lift(x0, p)]
        for extra in range(0, cap + 1):
            cands.append(reduce_mod(deep.approx, p, m + d + extra))
        seen: set[Fraction] = set()
        for x in cands:
            if x == 0 or x in seen:
                continue
            seen.add(x)
            if rv(x, p, d) != x0:
                continue
            vfx = ord_p(w.eval(x), p)
            vdfx = ord_p(dwpoly.eval(x), p)
            if _conditions_index(coeff_ords, m, vfx, vdfx, d) is not None:
                accepted.append(root)
                break
    if not accepted:
        return None
    if len(accepted) > 1:
        raise InternalBoundError("Hensel conditions accepted a non-unique class")
    return accepted[0]


def order_law_at_root(f: Poly, r: PadicApprox, p: int) -> Val:
    """ord_p of the linear Taylor coefficient of f at the root (= ord f'(root)).

    Signals NonSimpleRootError when f' also vanishes there.
    """
    if not is_root_of(f, r):
        raise ValueError("the approximation is not a root of f")
    df = f.derivative()
    if is_root_of(df, r):
        raise NonSimpleRootError("derivative vanishes at the root")
    return ord_at_root(df, r)


# ---------------------------------------------------------------------------
# Uniform access to values of polynomials at cell centers.
# ---------------------------------------------------------------------------

Center = Fraction | PadicApprox


def ord_of_poly_at(q: Poly, center: Center, p: int) -> Val:
    if isinstance(center, PadicApprox):
        return ord_at_root(q, center)
    return ord_p(q.eval(center), p)


def is_zero_poly_at(q: Poly, center: Center, p: int) -> bool:
    if isinstance(center, PadicApprox):
        return is_root_of(q, center)
    return q.eval(center) == 0


def digits_of_poly_at(q: Poly, center: Center, p: int, depth: int) -> int:
    if isinstance(center, PadicApprox):
        return digits_at_root(q, center, depth)
    return unit_digits(q.eval(center), p, depth).digits


def rv_of_poly_at(q: Poly, center: Center, p: int, depth: int) -> RvData:
    if isinstance(center, PadicApprox):
        return rv_at_root(q, center, depth)
    return rv(q.eval(center), p, depth)

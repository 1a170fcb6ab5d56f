"""Plain references for the optimised functions of `padic_cells`, one per
function.  Each computes the same answer the direct way, most of them as
the loop that the optimised code replaced, and the tests compare the two:

- `Poly.eval`, `taylor_shift` and `shift_var`: `fraction_eval`,
  `fraction_taylor_shift` and `fraction_shift_var`, in Fraction arithmetic;
- `hensel.certified_root_points`: `full_walk_root_points`, which walks
  every digit of each class that its constant Taylor line does not rule out;
- `hensel._vanishes` and `_same_root`: `race_residue`, the race of the two
  coprime factors of the witness, and `separated_same_root`, the root
  separation bound from `root_separation_bound`;
- `decompose._sphere_digits`: `fraction_sphere_digits`, f certified at each
  member, for every sphere it reads; `taylor_digits` with `residual_zeros`,
  `tail_digits` and `point_digits`, exact queries at the center, for the
  residual polynomial of a tie, the unbounded tail and a point;
- `decompose._digit_atom_pieces`: `sphere_by_sphere_digit_atom_pieces`;
- `decompose._shifted_center`: `fraction_shifted_center`;
- the rootless tie groups of `decompose.prepare`: `per_class_prepare`, a
  one-class cell per rootless class up the derivative tower;
- `cells.cell_sort_key` and `Residues.members`: `fraction_cell_sort_key`
  (`fraction_sorted_cells`) and `generator_head`;
- `cells._transport`: `unit_scan_transport`, on the unit sets of `unit_set`;
- `cells.common_pieces` and `measure.partition_check`:
  `all_pairs_common_pieces` and `all_pairs_partition_check`;
- the law order and law tables of `cli._cell_json`: `per_cell_law_order`
  and `per_set_order_cell_json`;
- `oracle.verify_partition`: `per_class_mark_cell`, every class mod p^k
  marked on its own;
- `oracle.verify_laws` and `_cell_samples`: `per_sample_verify_laws` and
  `per_sample_cell_samples`, f evaluated in full at every sample;
- `oracle.count_roots_mod`: `count_roots_mod_scan`, every residue mod p^k;
- `measure.igusa_zeta`: `per_cell_igusa_zeta`;
- `kgroup.chi`: `all_cells_chi`, the chi of every cell, kept or not."""

import random
from collections import Counter
from itertools import islice
from fractions import Fraction
from dataclasses import replace
from math import comb

from padic_cells.cells import (ArithRange, Cell1, Center, Decomposition, OrderLaw, Residues, TAdd,
                               TConst, ZP, contains, intersect_cells, sorted_cells)
from padic_cells.decompose import (_base_cells, _budget, _dominance_regions, _law_error,
                                   _prepare_linear, _sphere_digits, _split_tie_class)
from padic_cells.cli import _frac_str, _name
from padic_cells.errors import InternalBoundError, UnsupportedInputError
from padic_cells.hensel import (_MAX_DOUBLINGS, _at_root, _certified, _newton, center_proxy,
                                digits_of_poly_at, exact_value, ord_of_poly_at, refine_root,
                                shift_center, taylor_ords)
from padic_cells.kgroup import K0Element, _cell_shape
from padic_cells.measure import ZetaFn, _times_t
from padic_cells.oracle import (LawFailure, LawReport, _center_mod, _clear_denominators,
                                _ord_value, _taylor_ords)
from padic_cells.padics import INFINITY, Val, int_val, ord_p, unit_digits
from padic_cells.poly import (Poly, format_poly, newton_min, poly_gcd, resultant_val,
                              squarefree_part, taylor_polys)


def fraction_eval(f: Poly, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def fraction_taylor_shift(f: Poly, c) -> Poly:
    c = Fraction(c)
    n = len(f.coeffs)
    out = [Fraction(0)] * n
    for j, a in enumerate(f.coeffs):
        if a == 0:
            continue
        power = Fraction(1)
        for i in range(j, -1, -1):
            out[i] += a * comb(j, i) * power
            power *= c
    return Poly.of(*out)


def fraction_shift_var(f: Poly, scale, offset) -> Poly:
    g = fraction_taylor_shift(f, offset)
    s = Fraction(scale)
    return Poly.of(*(c * s**i for i, c in enumerate(g.coeffs)))


def random_rational(rng: random.Random, p: int) -> Fraction:
    # denominators with and without p, numerators of either sign
    return Fraction(rng.randint(-60, 60), rng.choice([1, 1, 2, 3, 7, p, p * p, 2 * p]))


def fraction_sphere_digits(f: Poly, center, m: int, v: int, depth: int,
                           units: list[int], p: int) -> list[int]:
    """`decompose._sphere_digits` as a Fraction loop: shift the center to each
    member c + p^m u, certify f there and read f / p^v mod p^depth."""
    out = []
    for u in units:
        member = shift_center(center, Fraction(u) * Fraction(p) ** m)
        x = exact_value(member)
        if x is not None:
            value = fraction_eval(f, x)
        else:
            value = _certified(member.precision, depth, _at_root(member, f), p,
                               lambda: f"{f} at {member}", lambda: False)
        e = ord_p(value, p)
        if e < v:
            raise InternalBoundError(f"ord {f} < {v} at the unit {u}")
        out.append(0 if e >= v + depth else
                   p ** (e - v) * unit_digits(value, p, depth) % p**depth)
    return out


def taylor_digits(f: Poly, center, p: int, indices: list[int]) -> list[int]:
    """The first unit digits of the Taylor coefficients of f at the center
    with the given indices, by exact queries, as `hensel` computed them for
    the residual polynomial of a tie."""
    x = exact_value(center)
    if x is None:
        qs = taylor_polys(f)
        return [digits_of_poly_at(qs[i], center, p, 1) for i in indices]
    hs = f.shifted_numerators(x.numerator, x.denominator)
    n, den, b = f.degree, f.integral[1], x.denominator
    return [unit_digits(Fraction(hs[i], den * b ** (n - i)), p, 1) for i in indices]


def residual_zeros(digits: dict[int, int], p: int) -> set[int]:
    """The units u0 in [1, p) where the residual polynomial of a tie,
    R(u) = sum_i d_i u^i with d_i the first unit digit of each achieving
    Taylor coefficient, vanishes mod p."""
    coeffs = [digits.get(i, 0) for i in range(max(digits), -1, -1)]
    zeros = set()
    for u in range(1, p):
        acc = 0
        for c in coeffs:
            acc = (acc * u + c) % p
        if not acc:
            zeros.add(u)
    return zeros


def tail_digits(f: Poly, center, i0: int, depth: int, units: list[int], p: int) -> list[int]:
    """The digits of f on the unbounded tail of a family with law index i0,
    as `_digit_atom_pieces` read them: the unit digits of the Taylor
    coefficient a_i0 at the center, by an exact query, times u^i0."""
    qd = p**depth
    a = digits_of_poly_at(taylor_polys(f)[i0], center, p, depth)
    return [a * pow(u, i0, qd) % qd for u in units]


def point_digits(f: Poly, center, p: int, depth: int) -> int:
    """The digits of f at a point cell, as `_split_by_atom` read them."""
    return digits_of_poly_at(f, center, p, depth)


def all_pairs_partition_check(cells, inside, probes):
    """`measure.partition_check` as it was written: every pair of cells
    intersected, every probe tested against every cell."""
    overlaps = tuple((i, j) for i in range(len(cells)) for j in range(i + 1, len(cells))
                     if intersect_cells(cells[i], cells[j]))
    uncovered = sum(inside(v) and sum(contains(c, v) for c in cells) != 1
                    for v in probes)
    return overlaps, uncovered


def all_pairs_common_pieces(d1, d2):
    """`cells.common_pieces` as it was written: every pair of cells cut."""
    if d1.prime != d2.prime or d1.domain != d2.domain:
        raise UnsupportedInputError("decompositions are not over the same domain")
    return [(i, j, piece) for i, a in enumerate(d1.cells) for j, b in enumerate(d2.cells)
            for piece in intersect_cells(a, b)]


def race_residue(q: Poly, r) -> Poly | None:
    """`hensel._residue` as it was written: q mod the witness w, or None when
    q vanishes at the inexact root r, decided by refining r until one of the
    coprime factors g = gcd(w, q mod w) and w/g certifies as nonzero there;
    the root is a root of the other one."""
    qr = q % r.witness
    if qr.is_zero:
        return None
    g = poly_gcd(r.witness, qr)
    if g.degree < 1:
        return qr
    h, _ = r.witness.divmod(g)
    if h.degree < 1:
        return None
    n = max(r.precision, 2)
    for _ in range(_MAX_DOUBLINGS):
        for factor, residue in ((g, qr), (h, None)):
            x, err = _at_root(r, factor)(n)
            if x != 0 and ord_p(x, r.prime) + 1 <= err:
                return residue
        n = 2 * n + 4
    raise InternalBoundError(f"neither factor certified at the root {r}")


def root_separation_bound(w: Poly, p: int) -> int:
    """An upper bound on ord(a - b) over distinct roots a, b of squarefree w,
    from ord Res(w, w') and the Newton-polygon root valuations."""
    d = w.degree
    if d <= 1:
        return 0
    res = resultant_val(w, w.derivative(), p)
    if res is INFINITY:
        raise ValueError("witness is not squarefree")
    vlc = ord_p(w.leading(), p)
    slopes = []
    pts = [(i, ord_p(c, p)) for i, c in enumerate(w.coeffs) if c != 0]
    for (i, vi), (j, vj) in zip(pts, pts[1:]):
        slopes.append(Fraction(vj - vi, j - i))
    min_root_val = -max(slopes) if slopes else Fraction(0)
    pair_floor = min(0, int(min_root_val) - 1)
    pairs = d * (d - 1) // 2
    bound = (res - (2 * d - 1) * vlc) // 2 - (pairs - 1) * pair_floor
    return max(bound, 0) + 1


def separated_same_root(a, b, p: int) -> bool:
    """`hensel._same_root` as it was written: both roots are roots of the
    common factor g of their witnesses, closer than two roots of g can be."""
    g = poly_gcd(a.witness, b.witness)
    if g.degree < 1 or race_residue(g, a) is not None or race_residue(g, b) is not None:
        return False
    sep = root_separation_bound(g, p) + 1
    return ord_p(refine_root(a, sep).approx - refine_root(b, sep).approx, p) >= sep


def fraction_cell_sort_key(cell):
    """`cells.cell_sort_key` as it was written, comparing Fraction centers."""
    c = cell.center
    if c.is_rational:
        center = (0, c.value, ())
    else:
        tag = c.value.rv_tag
        center = (1, Fraction(0), (c.value.witness.coeffs, tag.valuation,
                                   -1 if tag.is_zero else tag.unit, tag.depth))
    point = 0 if cell.is_point else 1
    lo = -1 if cell.is_point else cell.m_range.lo
    res = () if cell.is_point else (cell.residues.depth, generator_head(cell.residues, cell.prime))
    return (center, point, lo, res)


def generator_head(residues: Residues, p: int, limit: int | None = 4) -> tuple[int, ...]:
    """The first units of a residue set as `Residues.members` read them, for
    all units from a generator over every residue mod p^depth, for an
    explicit set from the full sorted list of its members."""
    if not residues.is_all:
        return tuple(residues.members()[:limit])
    return tuple(islice((u for u in range(1, p**residues.depth) if u % p != 0), limit))


def fraction_sorted_cells(cells):
    return tuple(sorted(cells, key=fraction_cell_sort_key))


def per_cell_law_order(cell):
    """The polynomials of a cell's law table in the order `cli._cell_json`
    printed them when it sorted each cell's table on its own."""
    return [f for f, _ in sorted(cell.laws.items(), key=lambda kv: kv[0].coeffs)]


def sphere_by_sphere_digit_atom_pieces(cell, f, depth, want, p):
    """`decompose._digit_atom_pieces` as it was written: every sphere of a
    finite range read on its own; an unbounded range read sphere by sphere
    up to m_d, then once for its tail."""
    law = cell.law_for(f)
    ords = taylor_ords(f, cell.center.value, p)
    lines = [(i, v) for i, v in enumerate(ords) if v is not INFINITY]
    rng = cell.m_range
    e0, i0 = law.e0, law.i0
    pieces = []

    def enumerate_m(sub):
        m = sub.lo
        min_line = min(v + i * m for i, v in lines)
        law_m = e0 + i0 * m
        d_m = max(cell.residues.depth, depth + law_m - min_line)
        units = cell.residues.lift(d_m).members()
        groups = {}
        for u, dig in zip(units, _sphere_digits(f, cell.center.value, m, law_m, depth,
                                                 units, p)):
            if dig % p == 0:
                raise _law_error(f, law_m, p, cell.center.value, m, u)
            groups.setdefault(want(dig), []).append(u)
        for flag in sorted(groups):
            pieces.append((replace(cell, m_range=sub,
                                   residues=Residues(d_m, frozenset(groups[flag]), p)), flag))

    if rng.hi is not None:
        for m in rng.values():
            enumerate_m(ArithRange(m, m))
        return pieces
    m_d = rng.lo
    for j, vj in lines:
        if j == i0:
            continue
        if j < i0:
            raise InternalBoundError("unbounded range with a decreasing dominance gap")
        m_d = max(m_d, -(-(depth + e0 - vj) // (j - i0)))
    for m in rng.values():
        if m >= m_d:
            break
        enumerate_m(ArithRange(m, m))
    tail = rng.restrict(lo=m_d)
    if tail is not None:
        enumerate_m(tail)
    return pieces


def unit_set(res: Residues, p: int) -> frozenset[int]:
    """The units of a residue set mod p^depth, listed from its classes: the
    explicit frozenset that `Residues` held before it held classes."""
    q = p**res.depth
    if res.is_all:
        return frozenset(u for u in range(1, q) if u % p)
    return frozenset(u for j, a in res.classes for u in range(a, q, p**j))


def unit_scan_transport(own: Residues, other: Residues, depth: int, scale: int, shift: int,
                        k: int, p: int) -> frozenset[int]:
    """`cells._transport` as it was written, on explicit unit sets: every
    unit u mod p^depth tested, with t = scale*u + shift mod p^k."""
    q, mine, theirs = p**k, unit_set(own, p), unit_set(other, p)
    return frozenset(u for u in range(1, p**depth) if u % p and u % p**own.depth in mine
                     and (t := (scale * u + shift) % q) % p and t % p**other.depth in theirs)


def per_class_mark_cell(cell: Cell1, k: int, p: int, count: list[int], fuzzy: list[int]) -> None:
    """`oracle._mark_cell` as a loop over units: every class mod p^k marked on
    its own.  Mark every class mod p^k the cell decidedly contains, and flag
    the classes it only partially covers at this depth: on a sphere m with
    m + d > k, a class mod p^k is inside when the set holds every unit that
    lifts its k - m digits, and partly covered when it holds some."""
    q = p**k
    c_mod = _center_mod(cell, k)
    if cell.is_point:
        fuzzy[c_mod] = 1
        return
    rng = cell.m_range
    d = cell.residues.depth
    if rng.hi is None or rng.hi >= k:
        fuzzy[c_mod] = 1  # the cell has members inside the center's class
    for m in rng.values():
        if m >= k:
            break
        pm = p**m
        if m + d <= k:
            lifts = p ** (k - m - d)
            step = p**d * pm
            for u0 in cell.residues.members():
                base = c_mod + u0 * pm
                for t in range(lifts):
                    count[(base + t * step) % q] += 1
        elif cell.residues.is_all:
            # residues unconstrained: every class at distance m is inside
            qk = p ** (k - m)
            for u in range(1, qk):
                if u % p:
                    cls = (c_mod + u * pm) % q
                    count[cls] += 1
        else:
            held = Counter(u % p ** (k - m) for u in cell.residues.members())
            for u0, n in held.items():
                cls = (c_mod + u0 * pm) % q
                if n == p ** (m + d - k):
                    count[cls] += 1
                else:
                    fuzzy[cls] = 1


def per_sample_cell_samples(cell: Cell1, p: int, n: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """`oracle._cell_samples` as it was written, with each member built as a
    fraction num/den and the units read from the whole set.  Deterministic
    members num/den of a family cell, with m = ord(y - c): one unit of every
    digit class and the first n units, at the first valuations of the range,
    with random deeper digits.  Each member is a triple (num, den, m)."""
    out: list[tuple[int, int, int]] = []
    d = cell.residues.depth
    units = cell.residues.members()
    if not cell.residues.is_all:  # one unit of every class, and the first n
        heads = {a for _, a in cell.residues.classes}
        first = [u for u in units[:n] if u not in heads][:max(n - len(heads), 0)]
        units = sorted(heads.union(first))
        n = max(n, len(units))
    ms = list(cell.m_range.values(limit=4))
    if cell.m_range.hi is not None:
        tail = [m for m in cell.m_range.values() if m >= cell.m_range.hi - 2 * cell.m_range.step]
        ms = sorted(set(ms + tail))
    precision, c_proxy = 0, Fraction(0)

    def proxy_for(m: int) -> Fraction:
        nonlocal precision, c_proxy
        need = m + d + 10
        if need > precision:
            precision = need + 16
            c_proxy = center_proxy(cell.center.value, p, precision)
        return c_proxy

    p3, pd = p**3, p**d
    while len(out) < n:
        for m in ms:
            base = proxy_for(m)
            # base + (u + extra p^d) p^m over the denominator of base
            bn, bd = base.numerator, base.denominator
            scale = bd * p**m
            for u in units:
                extra = rng.randrange(p3)
                out.append((bn + (u + extra * pd) * scale, bd, m))
                if len(out) >= n:
                    return out
        if cell.m_range.hi is None:
            ms = [m + cell.m_range.step for m in ms[-2:]]
        # finite ranges repeat with fresh random digits
    return out


def per_sample_verify_laws(dec: Decomposition, f: Poly, samples: int = 200, seed: int = 0) -> LawReport:
    """`oracle.verify_laws` as it was written: f evaluated in full at every
    sample.  Check ord f(y) = e0 + i0 * ord(y - c) on deterministic samples of every
    cell, and the inequality form ord f(y) <= ord(k a_i (y-c)^i) with the
    decomposition's recorded depth k."""
    p = dec.prime
    rng = random.Random(seed)
    failures: list[LawFailure] = []
    coeffs, shift = _clear_denominators(f, p)

    for idx, cell in enumerate(dec.cells):
        law = cell.law_for(f)
        if cell.is_point:
            c = cell.center.value
            want = law.apply(None)
            if isinstance(c, Fraction):
                got = _ord_value(coeffs, shift, c.numerator, c.denominator, p)
                if got != want:
                    failures.append(LawFailure(idx, c, want, got))
            else:
                # evaluate at a certified refinement of the center; the value
                # is only pinned modulo p^(precision + min Taylor-tail ord)
                floor = 8 if want is INFINITY else abs(want) + 8
                ok = False
                rr = c
                for _ in range(6):
                    rr = refine_root(c, floor)
                    got, *tail = _taylor_ords(coeffs, shift, rr.approx, p)
                    cmin = INFINITY
                    for t in tail:
                        if t < cmin:
                            cmin = t
                    bound = cmin + rr.precision
                    if want is INFINITY:
                        ok = got >= bound
                        break
                    if bound > want:
                        ok = got == want
                        break
                    floor = 2 * floor + 8
                if not ok:
                    failures.append(LawFailure(idx, rr.approx, want, got))
            continue
        # Taylor valuations at an exact center from the oracle's own expansion
        x = exact_value(cell.center.value)
        if x is not None:
            taylor = _taylor_ords(coeffs, shift, x, p)
        else:
            taylor = taylor_ords(f, cell.center.value, p)
        # per m: the law's value, and the depth-k bound when the law breaks it
        at_m: dict[int, tuple[Val, Val | None]] = {}
        for num, den, m in per_sample_cell_samples(cell, p, samples, rng):
            if m not in at_m:
                want = law.apply(m)
                bound = min((v + i * m + dec.k_depth for i, v in enumerate(taylor)),
                            default=INFINITY)
                at_m[m] = (want, None if want <= bound else bound)
            want, broken = at_m[m]
            got = _ord_value(coeffs, shift, num, den, p)
            if got != want:
                # _cell_samples puts every sample at distance exactly m
                failures.append(LawFailure(idx, Fraction(num, den), want, got))
            elif broken is not None:
                # the coarse inequality ord f(y) <= ord(k a_i (y-c)^i)
                failures.append(LawFailure(idx, Fraction(num, den), broken, got))
    return LawReport(seed, samples, tuple(failures))


def per_cell_igusa_zeta(dec: Decomposition, f: Poly, p: int | None = None) -> ZetaFn:
    """Z(t) = sum_m mu(ord f = m) t^m, in closed form cell by cell.

    The cell terms are summed over their shared denominators and reduced
    once.  Where ord f takes negative values (p-fractional coefficients),
    every term is shifted by t^-e for the least lead exponent e < 0, and Z
    is returned as N / (t^-e D)."""
    if f.is_zero:
        raise UnsupportedInputError("the zeta function of the zero polynomial diverges")
    p = dec.prime if p is None else p
    # per cell: count p^(-lo-d) t^(e0+i0*lo) * sum_k (p^-step t^(i0*step))^k
    # over the k of its range, as (lead exponent, numerator without it, den)
    terms: list[tuple[int, Poly, Poly]] = []
    for cell in dec.cells:
        if cell.is_point:
            continue
        law = cell.law_for(f)
        assert law.e0 is not INFINITY
        e0, i0 = law.e0, law.i0
        rng = cell.m_range
        lead = Fraction(cell.residues.count(), p ** (rng.lo + cell.residues.depth))
        ratio = Poly.of(*([Fraction(0)] * (i0 * rng.step) + [Fraction(1, p**rng.step)]))
        if rng.hi is None:
            terms.append((e0 + i0 * rng.lo, Poly.of(lead), Poly.of(1) - ratio))
            continue
        acc, power = Poly.of(), Poly.of(lead)
        for _ in range(rng.count()):
            acc = acc + power
            power = power * ratio
        terms.append((e0 + i0 * rng.lo, acc, Poly.of(1)))
    shift = min([0] + [e for e, _, _ in terms])
    by_den: dict[Poly, Poly] = {}
    for e, num, den in terms:
        by_den[den] = by_den.get(den, Poly.of()) + _times_t(num, e - shift)
    num, den = Poly.of(), Poly.of(1)
    for d, n in by_den.items():
        num, den = num * d + n * den, den * d
    return ZetaFn.of(num, _times_t(den, -shift))


def fraction_shifted_center(center: Center, off: Fraction) -> Center:
    """`decompose._shifted_center` as it was written: the center moved by the
    Fraction offset through `shift_center`."""
    value, term = shift_center(center.value, off), center.term
    if term is not None:
        x = exact_value(value)
        term = TAdd(term, TConst(off)) if x is None else TConst(x)
    return Center(value, 1, term)


def per_class_prepare(f: Poly, p: int, domain=ZP) -> tuple[Cell1, ...]:
    """The sorted cells of `decompose.prepare` as the per-class recursion
    builds them: every rootless tie class is carried up the derivative tower
    as its own one-class sphere cell, which each higher polynomial walks like
    any family, and at the end each such cell is listed as the point and the
    family [m* + 1, oo) of its class, with its laws frozen at m*."""
    out = []
    for cell in per_class_prepare_ball(f, p, domain, _budget(f, p, squarefree_part(f))):
        if cell.is_point or cell.residues.is_all:
            out.append(cell)
            continue
        m_star, (u0,) = cell.m_range.lo, cell.residues.members()
        center = fraction_shifted_center(cell.center, u0 * Fraction(p) ** m_star)
        laws = cell.frozen_laws(m_star)
        out += [Cell1(p, center, None, None, laws),
                Cell1(p, center, ArithRange(m_star + 1, None), Residues(1, p=p), laws)]
    return sorted_cells(out)


def per_class_prepare_ball(f: Poly, p: int, domain, budget: int) -> list[Cell1]:
    if f.degree == 0:
        return _base_cells(p, domain, {f: OrderLaw(ord_p(f.coeff(0), p), 0)})
    if f.degree == 1:
        return _prepare_linear(f, p, domain)

    # every cell built here has level 1; a family still without a law for f
    # is a work item, a one-class sphere cell as well
    w = squarefree_part(f)
    out: list[Cell1] = []
    work: list[Cell1] = []
    for cell in per_class_prepare_ball(f.derivative(), p, domain, budget):
        if cell.is_point:
            out.append(cell.with_laws({f: OrderLaw(ord_of_poly_at(f, cell.center.value, p), 0)}))
        else:
            work.append(cell)
    while work:
        per_class_process_box(f, w, p, work.pop(), out, work, domain.radius_ord, budget)
    return out


def per_class_process_box(f: Poly, w: Poly, p: int, cell: Cell1, out: list[Cell1],
                          work: list[Cell1], r: int, budget: int) -> None:
    """Give a family cell laws for f: keep the strict regions of the Newton
    polygon, and split each tie at m* by the cell's residue classes u0: a
    class holding a zero of the residual into a point cell and a family cell,
    any other into its own one-class sphere cell.  Descents are counted from
    the domain radius r."""
    ords = taylor_ords(f, cell.center.value, p)
    lines = [(i, v) for i, v in enumerate(ords) if v is not INFINITY]
    if not lines:
        raise InternalBoundError(
            f"all Taylor coefficients of {format_poly(f)} (p = {p}) vanished at the center "
            f"{cell.center} of the family on m in {cell.m_range}")
    line_val = dict(lines)

    for region in _dominance_regions(lines, cell.m_range.lo, cell.m_range.hi):
        if region[0] == "strict":
            _, lo, hi, i0 = region
            out.append(cell.copy(m_range=ArithRange(lo, hi),
                                 laws={**cell.laws, f: OrderLaw(line_val[i0], i0)}))
            continue
        _, m_star, win = region
        if m_star + 1 - r > budget:
            raise InternalBoundError(
                f"descent for {format_poly(f)} (p = {p}) around the center {cell.center} "
                f"reached depth {m_star + 1 - r}, past the termination budget {budget}"
            )
        frozen = cell.frozen_laws(m_star)
        best = line_val[win[0]] + win[0] * m_star
        rootless = {**frozen, f: OrderLaw(best, 0)}
        units = cell.residues.members()
        residual = _sphere_digits(f, cell.center.value, m_star, best, 1, units, p)
        below = ArithRange(m_star + 1, None)
        for u0, r_u0 in zip(units, residual):
            if r_u0 == 0:
                center, f_law = _split_tie_class(f, w, p, cell.center, u0, m_star, budget)
                out.append(Cell1(p, center, None, None, {**frozen, f: f_law}))
                work.append(Cell1(p, center, below, Residues(1, p=p), frozen))
            else:
                out.append(Cell1(p, cell.center, ArithRange(m_star, m_star),
                                 Residues(1, [u0], p), rootless))


def full_walk_root_points(w: Poly, p: int, depth_cap: int) -> list[Fraction]:
    """`hensel.certified_root_points` as it was written before the search
    descended only into the zeros of the residual polynomial: every class
    that the constant line does not dominate walks all p digits.

    Rational points in Z_p, one per root of squarefree w, each either an
    exact root or Newton-certified for w (ord w > 2 ord w').

    Digit-lifting search with pruning: a residue class is abandoned as soon
    as the constant Taylor term dominates on the whole class, and accepted
    once it lies inside a Newton basin.
    """
    # the basin criterion ord w > 2 ord w' presumes p-integral coefficients;
    # scaling by a power of p fixes the content at 0 without moving roots
    given, content = w, newton_min(w, p)
    if content is not INFINITY and content != 0:
        w = w * Fraction(p) ** (-content)
    out: list[Fraction] = []

    def search(poly: Poly, c: int, j: int) -> None:
        if j > depth_cap:
            raise InternalBoundError(
                f"the root search for {format_poly(given)} (p = {p}) reached the class "
                f"{c} mod {p}^{j}, past its depth bound of {depth_cap}")
        if poly.degree < 1:
            return
        # one integer expansion per class: poly(y + c) = sum_i (h_i / D) y^i;
        # poly is p-integral, so D is prime to p and ord b_i = ord h_i
        hs = poly.shifted_numerators(c)
        if hs[0] == 0:
            out.append(Fraction(c))
            quo, rem = poly.divmod(Poly.of(-c, 1))
            assert rem.is_zero
            search(quo, c, j)
            return
        v0 = int_val(hs[0], p)  # ord poly(c)
        if hs[1]:
            v1 = int_val(hs[1], p)  # ord poly'(c)
            if v0 > 2 * v1 and j > v1:
                # the class sits inside the uniqueness basin around c
                z, _prec = _newton(poly, Fraction(c), p, max(v0 - v1, j + 1))
                if ord_p(z - c, p) >= j:
                    out.append(z)
                return
        # the constant term dominates on the whole class, so there is no
        # root, when ord h_0 < ord h_i + i*j for every i >= 1
        if all(h % p ** max(v0 - i * j + 1, 0) == 0 for i, h in enumerate(hs) if i):
            return
        for t in range(p):
            search(poly, c + t * p**j, j + 1)

    search(w, 0, 0)
    return out


def per_set_order_cell_json(cell: Cell1, names: dict[Poly, str],
                            orders: dict[frozenset[Poly], list[tuple[Poly, str]]]) -> dict:
    """`cli._cell_json` as it was written before it kept the JSON of each law
    table by the table's identity: a fresh law object per cell.

    The cell as JSON.  `names` caches `format_poly` and `orders` the
    ordered law table of each set of polynomials across one payload: the
    cells of one decomposition mostly carry laws for the same polynomials."""
    center = cell.center
    if center.is_rational:
        cj = {"type": "rational", "value": _frac_str(center.value)}
    else:
        r = center.value
        cj = {
            "type": "hensel-root",
            "witness": _name(r.witness, names),
            "approx": _frac_str(r.approx),
            "precision": r.precision,
            "rv_tag": {
                "depth": r.rv_tag.depth,
                "valuation": r.rv_tag.valuation,
                "unit": r.rv_tag.unit,
            },
        }
    if center.term is not None:
        cj["term"] = str(center.term)
    polys = frozenset(cell.laws)
    order = orders.get(polys)
    if order is None:
        # the one place laws are ordered: text output prints them in this order
        order = orders[polys] = [(f, _name(f, names))
                                 for f in sorted(polys, key=lambda f: f.coeffs)]
    laws = cell.laws
    out = {
        "kind": cell.kind,
        "center": cj,
        "level": center.level,
        "keep": cell.keep,
        "laws": {name: {"e0": str(laws[f].e0), "i0": laws[f].i0} for f, name in order},
    }
    if cell.is_point:
        out["m_range"] = "point"
        out["residue"] = None
    else:
        rng = cell.m_range
        out["m_range"] = {"lo": rng.lo, "hi": rng.hi, "step": rng.step}
        out["residue"] = {
            "depth": cell.residues.depth,
            "units": "all" if cell.residues.is_all
            else [str(u) for u in cell.residues.members()],
        }
    return out


def all_cells_chi(dec: Decomposition) -> K0Element:
    """`kgroup.chi(dec, kept_only=False)` as it was written: one graded
    auxiliary class per cell, kept or not."""
    return K0Element.of([(_cell_shape(c), c.kind) for c in dec.cells])


def count_roots_mod_scan(f: Poly, p: int, k: int) -> int:
    """The roots of f mod p^k, counted by evaluating f at every residue: the
    reference for the pruned lifting in `oracle.count_roots_mod`."""
    return sum(ord_p(f.eval(y), p) >= k for y in range(p**k))

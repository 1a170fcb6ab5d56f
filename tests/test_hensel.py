import gc
import random
from fractions import Fraction

import pytest

from padic_cells import hensel
from padic_cells.cells import ZP, Ball
from padic_cells.decompose import prepare
from padic_cells.errors import InternalBoundError
from padic_cells.hensel import (
    NonSimpleRootError,
    _isolated,
    _newton,
    _roots_near,
    centers_equal,
    certified_root_points,
    check_conditions,
    digits_between,
    digits_of_poly_at,
    h,
    ord_between,
    ord_of_poly_at,
    order_law_at_root,
    rational_reconstruct,
    reduce_mod,
    refine_root,
    roots_in_ball,
    shift_center,
)
from padic_cells.padics import INFINITY, ord_p, rv, unit_digits
from padic_cells.poly import Poly, resultant_val, squarefree_part, taylor_polys

from conftest import CORPUS, large_prime_polys
from fraction_loops import (full_walk_root_points, race_residue, separated_same_root,
                            taylor_digits)


def lift_mod(x: Fraction, q: int) -> int:
    return x.numerator * pow(x.denominator, -1, q) % q


def test_roots_in_ball_finds_every_root_once():
    # the balls B(t, k), t < p^k, cut Z_p into p^k pieces, so at every k the
    # roots found in them are the roots found in Z_p (k = 0)
    found = 0
    for coeffs in CORPUS.values():
        w = squarefree_part(Poly.of(*coeffs))
        if w.degree < 1:
            continue
        for p in (2, 3, 5, 7):
            res = resultant_val(w, w.derivative(), p)
            cap = 2 * (0 if res is INFINITY else max(res, 0)) + 8
            counts = []
            for k in (0, 1, 2):
                count = 0
                for t in range(p**k):
                    roots = list(roots_in_ball(w, Fraction(t), k, p, cap, 1))
                    for n, r in enumerate(roots):
                        assert ord_between(r, t, p) >= k, (w, p, t, k, r)
                        assert ord_of_poly_at(w, r, p) is INFINITY, (w, p, r)
                        assert not any(centers_equal(r, s, p) for s in roots[:n]), (w, p, r)
                    count += len(roots)
                counts.append(count)
            assert counts[0] == counts[1] == counts[2], (w, p, counts)
            found += counts[0]
    assert found > 50


def test_check_conditions_exact_root():
    # f(1) = 0 makes (h1) vacuous; a_1 = 0 rules out i0 = 1 via (h0b)
    assert check_conditions([-1, 0, 1], 1, rv(1, 5, 1), 1, 5) == 2


def test_check_conditions_failure():
    assert check_conditions([-2, 0, 1], 1, rv(1, 5, 1), 1, 5) is None


def test_check_conditions_deep_candidate():
    # y^2 - 6 near the class of 1: certified at depth 1 (the root is simple
    # with unit derivative) and at the deeper candidate 16
    assert check_conditions([-6, 0, 1], 1, rv(1, 5, 1), 1, 5) == 2
    assert check_conditions([-6, 0, 1], 16, rv(16, 5, 1).project(1, 5), 1, 5) == 2
    # two roots share the only depth-1 class at p=2, so nothing may certify
    assert check_conditions([-1, 0, 1], 1, rv(1, 2, 1), 1, 2) is None


def test_check_conditions_rejects_bad_input():
    with pytest.raises(ValueError):
        check_conditions([-1, 0, 1], 0, rv(1, 5, 1), 1, 5)
    with pytest.raises(ValueError):
        check_conditions([-1, 0, 1], 2, rv(1, 5, 1), 1, 5)


def test_h_exact_root():
    r = h([-1, 0, 1], rv(1, 5, 1), 5)
    assert r is not None and r.is_exact and r.approx == 1


def test_h_sqrt6():
    r = h([-6, 0, 1], rv(1, 5, 1), 5)
    assert r is not None and not r.is_exact
    assert lift_mod(r.approx, 25) == 16
    # oracle: the depth-2 lifts of the class with y^2 = 6
    want = [y for y in range(1, 25, 5) if (y * y - 6) % 25 == 0]
    assert want == [16]


def test_h_no_root_returns_zero():
    assert h([-2, 0, 1], rv(1, 5, 1), 5) is None


def test_h_total_on_junk():
    assert h([0], rv(1, 5, 1), 5) is None
    assert h([5], rv(1, 5, 1), 5) is None
    assert h([-1, 0, 1], rv(0, 5, 1) if False else rv(0, 5, 1), 5) is None  # zero tag


def test_h_uniqueness_oracle():
    # counting lifts mod 5^k confirms one liftable class per depth
    r = h([-6, 0, 1], rv(1, 5, 1), 5)
    rr = refine_root(r, 6)
    f = Poly.of(-6, 0, 1)
    for k in range(1, 7):
        q = 5**k
        roots = [y for y in range(q) if (y * y - 6) % q == 0 and y % 5 == 1]
        assert len(roots) == 1
        assert lift_mod(rr.approx, q) == roots[0]


def test_refine_root_matches_enumeration():
    r = h([-6, 0, 1], rv(1, 5, 1), 5)
    rr = refine_root(r, 5)
    assert rr.precision >= 5
    want = [y for y in range(5**5) if (y * y - 6) % 5**5 == 0 and y % 5 == 1]
    assert lift_mod(rr.approx, 5**5) == want[0]
    # no-op and exact-root behavior
    assert refine_root(rr, rr.precision) is rr
    exact = h([-1, 0, 1], rv(1, 5, 1), 5)
    assert refine_root(exact, 50).approx == 1


def test_newton_certificate_invariant():
    r = refine_root(h([-6, 0, 1], rv(1, 5, 1), 5), 9)
    f, df = r.witness, r.witness.derivative()
    vf = ord_p(f.eval(r.approx), 5)
    vd = ord_p(df.eval(r.approx), 5)
    assert vf >= vd + r.precision


def test_order_law_at_root():
    assert order_law_at_root(Poly.of(-1, 0, 1), h([-1, 0, 1], rv(1, 5, 1), 5)) == 0
    assert order_law_at_root(Poly.of(-6, 0, 1), h([-6, 0, 1], rv(1, 5, 1), 5)) == 0
    assert order_law_at_root(Poly.of(-25, 0, 1), h([-25, 0, 1], rv(5, 5, 1), 5)) == 1


def test_order_law_rejects_non_simple():
    # (y-1)^2: h reduces the witness to y-1, but the law is asked for the
    # original polynomial whose derivative vanishes at the root
    r = h([1, -2, 1], rv(1, 5, 1), 5)
    assert r is not None and r.approx == 1
    with pytest.raises(NonSimpleRootError):
        order_law_at_root(Poly.of(1, -2, 1), r)


def test_h5_identity_sampled():
    # ord f(w) = ord b1 + ord(w - y0) for 50 samples with rv(w) = x0
    p = 5
    f = Poly.of(-6, 0, 1)
    r = refine_root(h([-6, 0, 1], rv(1, p, 1), p), 40)
    b1 = order_law_at_root(f, r)
    rng = random.Random(0)
    for _ in range(50):
        w = 1 + 5 * Fraction(rng.randrange(1, 5**12))
        got = ord_p(f.eval(w), p)
        dist = ord_p(w - r.approx, p)
        assert dist < r.precision  # sample well inside certified digits
        assert got == b1 + dist


def test_ord_at_root_splits_factors():
    # witness y^2-1 pins the root 1; queries must tell the factors apart
    r = h([-1, 0, 1], rv(1, 5, 1), 5)
    assert ord_of_poly_at(Poly.of(-1, 1), r, 5) is INFINITY      # y - 1
    assert ord_of_poly_at(Poly.of(1, 1), r, 5) is not INFINITY   # y + 1
    assert ord_of_poly_at(Poly.of(1, 1), r, 5) == 0
    assert ord_of_poly_at(Poly.of(-1, 1), r, 5) is INFINITY


def test_ord_at_root_algebraic():
    r = h([-6, 0, 1], rv(1, 5, 1), 5)
    assert ord_of_poly_at(Poly.of(0, 2), r, 5) == 0          # 2*y0
    assert ord_of_poly_at(Poly.of(-6, 0, 1), r, 5) is INFINITY    # its own witness
    v = ord_of_poly_at(Poly.of(-1, 1), r, 5)                      # y0 - 1: ord 1
    assert v == 1
    assert digits_of_poly_at(Poly.of(0, 1), r, 5, 2) == 16


def test_taylor_digits_at_a_root():
    # at sqrt(6) in Z_5 the Taylor coefficients of (y - 1)^3 + 5y are those of
    # a deep rational approximation, to their first unit digit
    p, f = 5, Poly.of(-1, 8, -3, 1)
    r = h([-6, 0, 1], rv(1, p, 1), p)
    x = refine_root(r, 30).approx
    coeffs = f.taylor_shift(x).coeffs
    assert taylor_digits(f, r, p, [0, 1, 2, 3]) == \
        [unit_digits(c, p, 1) for c in coeffs]
    assert taylor_digits(f, r, p, [3, 1]) == [1, unit_digits(coeffs[1], p, 1)]


def test_exact_root_answers_like_its_rational():
    # y^2 - 1 pins the exact root 1: every center query must answer for it
    # what it answers for Fraction(1), whatever the other point is
    p, one = 5, Fraction(1)
    r = h([-1, 0, 1], rv(1, p, 1), p)
    assert r.is_exact and r.approx == one
    sqrt6 = h([-6, 0, 1], rv(1, p, 1), p)  # inexact, = 1 mod 5
    for q in (Poly.of(-1, 1), Poly.of(1, 1), Poly.of(-6, 0, 1), Poly.of(3, 0, 2)):
        assert ord_of_poly_at(q, r, p) == ord_of_poly_at(q, one, p)
        if ord_of_poly_at(q, one, p) is not INFINITY:
            assert digits_of_poly_at(q, r, p, 3) == digits_of_poly_at(q, one, p, 3)
    for x in (one, Fraction(26), Fraction(-4), Fraction(7, 3), sqrt6, r):
        for a, b in ((r, x), (x, r)):
            a1, b1 = (one if a is r else a), (one if b is r else b)
            assert centers_equal(a, b, p) == centers_equal(a1, b1, p)
            assert ord_between(a, b, p) == ord_between(a1, b1, p)
            if not centers_equal(a1, b1, p):
                assert digits_between(a, b, p, 3) == digits_between(a1, b1, p, 3)


def test_certification_cap_names_its_input(monkeypatch):
    r = h([-6, 0, 1], rv(1, 5, 1), 5)
    monkeypatch.setattr(hensel, "_MAX_PRECISION", 0)
    with pytest.raises(InternalBoundError,
                       match=r"y - 1 at the root .* \(p = 5\) reached precision \d+.* cap of 0"):
        ord_of_poly_at(Poly.of(-1, 1), r, 5)


def test_root_search_cap_names_its_input():
    # cap 1, as in the comparisons with the full walk: both square roots of
    # 17 lie in the class 1 mod 2, so the search needs a second digit
    with pytest.raises(InternalBoundError, match=r"root search for y\^2 - 17 \(p = 2\) "
                                                 r"reached the class 1 mod 2\^2, past its depth bound of 1$"):
        certified_root_points(Poly.of(-17, 0, 1), 2, 1)
    assert len(certified_root_points(Poly.of(-17, 0, 1), 2, 30)) == 2


def _assert_same_search(w: Poly, p: int, cap: int) -> bool:
    """The residual-polynomial descent finds the points of the full digit
    walk in the same order, or raises where it raised, with the same
    message; True when the search finished."""
    try:
        want = full_walk_root_points(w, p, cap)
    except InternalBoundError as exc:
        with pytest.raises(InternalBoundError) as got:
            certified_root_points(w, p, cap)
        assert str(got.value) == str(exc)
        return False
    assert certified_root_points(w, p, cap) == want, (w, p, cap)
    return True


def _search_inputs(w: Poly, p: int):
    """w on Z_p and on balls around small integers, scaled to Z_p as
    `roots_in_ball` scales them."""
    balls = [(t, 1) for t in (*range(min(p, 4)), -1)] + [(1, 2), (-1, 2)]
    return [w] + [w.shift_var(Fraction(p) ** k, Fraction(t)) for t, k in balls]


def _linear_zeros(monkeypatch) -> list[int]:
    """A counter of the linear residuals whose zero the search reads
    directly: the inverses mod p that `hensel` takes, all of them there."""
    seen = [0]

    def counted(*args):
        seen[0] += len(args) == 3 and args[1] == -1
        return pow(*args)

    monkeypatch.setattr(hensel, "pow", counted, raising=False)
    return seen


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_residual_descent_matches_the_full_walk_on_the_corpus(monkeypatch, p):
    """Classes with a linear residual a0 + a1 t descend into -a0/a1 alone."""
    linear = _linear_zeros(monkeypatch)
    finished = 0
    for coeffs in CORPUS.values():
        w = squarefree_part(Poly.of(*coeffs))
        if w.degree < 1:
            continue
        for poly in _search_inputs(w, p):
            for cap in (0, 1, 2, 30):
                finished += _assert_same_search(poly, p, cap)
    assert finished > 150 and linear[0] > 0


@pytest.mark.parametrize("p", [31, 101, 1009])
def test_residual_descent_matches_the_full_walk_at_large_primes(monkeypatch, p):
    """On the large-prime pool: Z_p, small balls, and every search that
    `prepare` makes in its tie classes, linear residuals among them."""
    linear = _linear_zeros(monkeypatch)
    searches = []

    def recorded(w, p, depth_cap):
        searches.append((w, depth_cap))
        return certified_root_points(w, p, depth_cap)

    monkeypatch.setattr(hensel, "certified_root_points", recorded)
    for f in large_prime_polys():
        w = squarefree_part(f)
        for poly in _search_inputs(w, p):
            for cap in (1, 30):
                _assert_same_search(poly, p, cap)
        assert len(certified_root_points(w, p, 30)) == w.degree
        prepare(f, p)
    assert len(searches) >= 12 and linear[0] > 0
    for w, cap in searches:
        assert _assert_same_search(w, p, cap)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_residual_descent_matches_the_full_walk_on_rational_coefficients_and_roots(p):
    """2y^2 - 1/3 and 25y^2 - 5, whose content is not 0 at p = 3 and 5, and
    polynomials with exact rational roots, found by the h_0 = 0 branch."""
    polys = [Poly.of(Fraction(-1, 3), 0, 2), Poly.of(-5, 0, 25),
             Poly.of(-2, 3) * Poly.of(1, 5) * Poly.of(-4, 1),
             Poly.of(-1, 0, 1) * Poly.of(-7, 1) * Poly.of(p, 1),
             Poly.of(-p * p, 1) * Poly.of(-2 * p * p, 1)]
    for w in polys:
        for poly in _search_inputs(w, p):
            for cap in (1, 2, 30):
                _assert_same_search(poly, p, cap)
    assert Fraction(1) in certified_root_points(polys[3], p, 30)


def test_residual_descent_raises_at_the_full_walks_cap():
    # both square roots of 17 lie in the class 1 mod 2, so the search needs
    # a second digit: caps 0 and 1 raise, at the class where the walk did
    w = Poly.of(-17, 0, 1)
    assert [cap for cap in range(8) if not _assert_same_search(w, 2, cap)] == [0, 1]


@pytest.mark.parametrize("w,p", [(Poly.of(-1, 0, 1), 5), (Poly.of(-726, 737, 5, -17, 1), 101),
                                 (Poly.of(-2, 0, 1), 7)])
def test_root_search_leaves_no_reference_cycles(w, p):
    """The search walks its classes on a stack: with the collector paused,
    its calls leave nothing for `gc.collect` (a recursive closure left a
    cycle of the function and its cells per call, 30 objects for three
    calls on y^2 - 1 at p = 5)."""
    certified_root_points(w, p, 30)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            certified_root_points(w, p, 30)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_newton_cap_names_its_input(monkeypatch):
    monkeypatch.setattr(hensel, "_MAX_DOUBLINGS", 1)
    with pytest.raises(InternalBoundError, match=r"Newton iteration on y\^2 - 6 \(p = 5\) from 1 "
                                                 r"reached precision 1 short of the target 30"):
        _newton(Poly.of(-6, 0, 1), Fraction(1), 5, 30)


def test_rational_reconstruction():
    # 1/3 mod 5^6 reconstructs exactly
    q = 5**6
    a = pow(3, -1, q)
    assert rational_reconstruct(a, q) == Fraction(1, 3)
    got = reduce_mod(Fraction(1, 3), 5, 3)
    assert got.denominator == 1 and ord_p(got - Fraction(1, 3), 5) >= 3


def test_h_negative_valuation_classes():
    # roots outside Z_p: the search normalizes away non-integral content, so
    # the basin criterion stays sound (25y^2-2 must NOT certify)
    xi = rv(Fraction(1, 5), 5, 1)
    assert h([-1, 0, 25], xi, 5).approx == Fraction(1, 5)
    assert h([-2, 0, 25], xi, 5) is None
    r = h([-6, 0, 25], xi, 5)
    assert r is not None and ord_p(r.approx, 5) == -1


def test_h_linear_inverse_trick():
    # h_{1,1}(-1, x, xi) with rv(x) xi = 1 realizes the field inverse
    p = 5
    x = Fraction(7)
    xi = rv(1 / x, p, 1)
    r = h([-1, 7], xi, p)
    assert r is not None and r.is_exact and r.approx == Fraction(1, 7)


def test_roots_near_counts_roots_in_a_ball():
    # y (y - 5^3): both roots lie within 5^-3 of 0, only 0 within 5^-4
    f = Poly.of(0, -125, 1)
    assert [_roots_near(f, Fraction(0), n, 5) for n in (2, 3, 4)] == [2, 2, 1]
    # a double root counts twice; -1 is at distance 1 from 1
    assert _roots_near(Poly.of(1, -1, -1, 1), Fraction(1), 1, 5) == 2
    # sqrt(2) and sqrt(2 + 7^4) agree to 4 digits in Z_7
    p = 7
    w = Poly.of(-2, 0, 1) * Poly.of(-2 - p**4, 0, 1)
    a = reduce_mod(refine_root(h([-2, 0, 1], rv(3, p, 1), p), 6).approx, p, 6)
    assert [_roots_near(w, a, n, p) for n in range(1, 7)] == [2, 2, 2, 2, 1, 1]


def test_isolated_refines_until_the_ball_holds_one_root(monkeypatch):
    # a true approximation of sqrt(2) that claims only 3 digits: its ball
    # also holds sqrt(2 + 7^4), so the root is refined until that one drops out
    p = 7
    w = Poly.of(-2, 0, 1) * Poly.of(-2 - p**4, 0, 1)
    a = reduce_mod(refine_root(h([-2, 0, 1], rv(3, p, 1), p), 6).approx, p, 6)
    loose = hensel.PadicApprox(w, a, 3, rv(a, p, 1), p)
    assert _roots_near(w, a, 3, p) == 2
    r = _isolated(loose)
    assert r.precision >= 5 and _roots_near(w, r.approx, r.precision, p) == 1
    assert ord_of_poly_at(Poly.of(-2, 0, 1), loose, p) is INFINITY
    assert ord_of_poly_at(Poly.of(-2 - p**4, 0, 1), loose, p) is not INFINITY
    # the ball is tested at precision 3, and refining to 10 would pass the cap
    monkeypatch.setattr(hensel, "_MAX_PRECISION", 9)
    with pytest.raises(InternalBoundError, match=r"isolating the root .* of y\^4 - 2405\*y\^2 \+ 4806 "
                                                 r"\(p = 7\) reached precision 3 .* cap of 9"):
        _isolated(loose)


def test_same_root_needs_a_root_of_the_witness():
    # sqrt(2 + 7^11) lies in the isolating ball of sqrt(2) (precision 8) but is
    # not a root of its witness y^2 - 2, so the two centers differ
    p = 7
    a = h([-2, 0, 1], rv(3, p, 1), p)
    b = h([-2 - p**11, 0, 1], rv(3, p, 1), p)
    assert a.precision == b.precision == 8
    assert not centers_equal(a, b, p) and not centers_equal(b, a, p)
    assert ord_between(a, b, p) == 11
    back = shift_center(shift_center(a, Fraction(1)), Fraction(-1))
    assert centers_equal(a, back, p) and centers_equal(back, a, p)


def test_zero_test_runs_only_when_the_first_estimate_does_not_settle(monkeypatch):
    # sqrt(2) in Z_7 is known to 8 digits
    p = 7
    r = h([-2, 0, 1], rv(3, p, 1), p)
    assert r.precision == 8
    vanishes, asked = hensel._vanishes, []

    def refuse(q, center):
        raise AssertionError(f"zero test asked for {q}")

    # sqrt(2) - 1 is a unit: the first estimate settles
    monkeypatch.setattr(hensel, "_vanishes", refuse)
    assert ord_of_poly_at(Poly.of(-1, 1), r, p) == 0
    monkeypatch.setattr(hensel, "_vanishes", lambda q, c: asked.append(q) or vanishes(q, c))
    # the value -7^12 lies below the first estimate's 8 digits
    assert ord_of_poly_at(Poly.of(-2 - p**12, 0, 1), r, p) == 12
    assert len(asked) == 1
    assert ord_of_poly_at(Poly.of(-2, 0, 1) * Poly.of(1, 1), r, p) is INFINITY
    assert len(asked) == 2


def test_faulty_zero_test_stops_at_the_precision_cap(monkeypatch):
    # a zero test that misses the zero of y^2 - 2 at sqrt(2) leaves an
    # estimate that never settles; the loop raises at the cap
    p = 7
    r = h([-2, 0, 1], rv(3, p, 1), p)
    monkeypatch.setattr(hensel, "_vanishes", lambda q, center: False)
    with pytest.raises(InternalBoundError, match=r"y\^2 - 2 at the root .* \(p = 7\) reached "
                                                 r"precision \d+ .* cap of 8192 digits"):
        ord_of_poly_at(Poly.of(-2, 0, 1), r, p)


def _inexact_centers(f: Poly, p: int, domain: Ball) -> list:
    return [c.center.value for c in prepare(f, p, domain).cells if not c.center.is_rational]


def _value_to(q: Poly, r, n: int) -> Fraction:
    """A rational congruent to q(r) mod p^n at the inexact root r: q at a
    refinement of r whose Taylor tail, min ord b_i + i * precision over the
    Taylor coefficients b_i with i >= 1, lies at p^n or past it."""
    precision = r.precision
    for _ in range(12):
        rr = refine_root(r, precision)
        sh = q.taylor_shift(rr.approx)
        tail = min((ord_p(b, r.prime) + i * rr.precision for i, b in enumerate(sh.coeffs) if i),
                   default=INFINITY)
        if tail >= n:
            return sh.coeff(0)
        precision = 2 * precision + 4
    raise AssertionError(f"the Taylor tail of {q} at {r} stayed below p^{n}")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_root_count_decisions_match_the_race_and_the_separation_bound(p):
    # zeros and equality at inexact centers, decided by a root count in the
    # isolating ball, against the factor race and the separation bound; the
    # valuation and two digits of each nonzero value against the value two
    # digits past it, read at a refinement of the roots
    domains = [ZP, Ball(Fraction(1), 1), Ball(Fraction(3), 2)]
    zeros = equal = 0
    for coeffs in CORPUS.values():
        f = Poly.of(*coeffs)
        for domain in domains:
            centers = _inexact_centers(f, p, domain)
            if f.degree > 1:
                centers += _inexact_centers(f.derivative(), p, domain)
            # shifted roots, and a round trip that comes back with the same witness
            centers += [shift_center(c, o) for c in centers[:2] for o in (Fraction(p), Fraction(-1))]
            centers += [shift_center(shift_center(c, Fraction(1)), Fraction(-1)) for c in centers[:2]]
            for c in centers:
                for q in taylor_polys(f) + [c.witness]:
                    v = ord_of_poly_at(q, c, p)
                    zero = v is INFINITY
                    assert zero == (race_residue(q, c) is None)
                    if not zero:
                        x = _value_to(q, c, v + 2)
                        assert ord_p(x, p) == v
                        assert digits_of_poly_at(q, c, p, 2) == unit_digits(x, p, 2)
                    zeros += zero
            for i, a in enumerate(centers):
                for b in centers[i:]:
                    same = centers_equal(a, b, p)
                    assert same == separated_same_root(a, b, p)
                    v = ord_between(a, b, p)
                    assert (v is INFINITY) == same
                    if not same:
                        x = refine_root(a, v + 2).approx - refine_root(b, v + 2).approx
                        assert ord_p(x, p) == v
                        assert digits_between(a, b, p, 2) == unit_digits(x, p, 2)
                    equal += same
    assert zeros and equal

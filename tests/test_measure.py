import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import CORPUS, PRIMES, formula_pool, large_prime_polys
from fraction_loops import all_pairs_partition_check, per_cell_igusa_zeta, per_class_prepare

from padic_cells.cells import (ArithRange, Ball, Cell1, Center, Decomposition, OrderLaw, Residues,
                               TConst, ZP, refine_common, sorted_cells)
from padic_cells.decompose import (AcEq, FAnd, FAtom, FNot, FOr, OrdCmp, RvEq, decompose_set,
                                   prepare, prepare_grouped)
import padic_cells.cells as cells_module
from padic_cells.measure import (
    ZetaFn,
    cell_measure,
    decomposition_measure,
    exact_partition_check,
    igusa_zeta,
    measure_of_order,
    partition_check,
)
from padic_cells.oracle import count_roots_mod, verify_partition
from padic_cells.padics import RvData, ord_p
from padic_cells.parser import parse_formula, parse_poly
from padic_cells.poly import Poly


def fam(p, c, lo, hi=None, depth=1, units=None):
    return Cell1(p, Center(Fraction(c), 1, TConst(Fraction(c))), ArithRange(lo, hi),
                 Residues(depth, None if units is None else frozenset(units), p))


def test_cell_measure_examples():
    # {0} plus the full family tile Z_p with total measure 1
    p = 5
    point = Cell1(p, Center(Fraction(0), 1, TConst(Fraction(0))), None, None)
    full = fam(p, 0, 0)
    assert cell_measure(point) == 0
    assert cell_measure(full) == 1
    assert cell_measure(fam(5, 0, 2, 2)) == Fraction(4, 125)
    assert cell_measure(fam(5, 0, 1, None, 1, {1})) == Fraction(1, 20)


def test_cell_measure_progression():
    # m = 0, 3, 6, ... with all residues at depth 1 over Z_7
    c = fam(7, 0, 0, None)
    from dataclasses import replace
    c = replace(c, m_range=ArithRange(0, None, 3))
    assert cell_measure(c) == Fraction(6, 7) / (1 - Fraction(1, 7**3))


def test_measure_of_order_examples():
    p = 5
    f = Poly.of(0, 1)
    D = prepare(f, p)
    assert measure_of_order(D, f, 3) == Fraction(4, 625)
    f2 = Poly.of(0, 0, 1)
    D2 = prepare(f2, 3)
    assert measure_of_order(D2, f2, 2) == Fraction(2, 9)
    f3 = Poly.of(-1, 0, 1)
    D3 = prepare(f3, 5)
    assert measure_of_order(D3, f3, 0) == Fraction(3, 5)


def test_additivity():
    for coeffs, p in [([-1, 0, 1], 5), ([0, -1, 0, 1], 7), ([-6, 0, 1], 5)]:
        D = prepare(Poly.of(*coeffs), p)
        assert decomposition_measure(D) == 1


def test_oracle_measure_identity():
    # mu(ord f = m) = N_m p^-m - N_{m+1} p^-(m+1)
    for coeffs, p in [([-1, 0, 1], 5), ([1, -1, -1, 1], 3), ([-2, 0, 0, 1], 7)]:
        f = Poly.of(*coeffs)
        D = prepare(f, p)
        for m in range(6):
            n_m = count_roots_mod(f, p, m) if m else 1
            n_m1 = count_roots_mod(f, p, m + 1)
            want = Fraction(n_m, p**m) - Fraction(n_m1, p ** (m + 1))
            assert measure_of_order(D, f, m) == want


def test_igusa_monomials():
    for k in (1, 2, 3):
        for p in (3, 5, 7):
            f = Poly.of(*([0] * k + [1]))
            z = igusa_zeta(prepare(f, p), f)
            want_num = Poly.of(1 - Fraction(1, p))
            want_den = Poly.of(*([1] + [0] * (k - 1) + [Fraction(-1, p)]))
            want = ZetaFn.of(want_num, want_den)
            assert z == want


def test_igusa_at_one_is_total_measure():
    for coeffs, p in [([-1, 0, 1], 5), ([-6, 0, 1], 5), ([1, -1, -1, 1], 3),
                      ([5, 1], 5), ([3], 7)]:
        f = Poly.of(*coeffs)
        z = igusa_zeta(prepare(f, p), f)
        assert z.eval(Fraction(1)) == 1


def test_igusa_taylor_matches_oracle():
    for coeffs, p in [([-1, 0, 1], 5), ([0, -1, 0, 1], 3)]:
        f = Poly.of(*coeffs)
        D = prepare(f, p)
        z = igusa_zeta(D, f)
        coeffs_z = z.taylor_coefficients(5)
        for m in range(6):
            n_m = count_roots_mod(f, p, m) if m else 1
            n_m1 = count_roots_mod(f, p, m + 1)
            assert coeffs_z[m] == Fraction(n_m, p**m) - Fraction(n_m1, p ** (m + 1))
            assert coeffs_z[m] == measure_of_order(D, f, m)


def test_igusa_two_unit_roots_closed_form():
    # for p odd, y^2 - 1 has two simple unit roots, so by hand
    # Z(t) = (p-2)/p + 2 (1-1/p) (t/p) / (1 - t/p)
    for p in (5, 7):
        f = Poly.of(-1, 0, 1)
        z = igusa_zeta(prepare(f, p), f)
        tp = Poly.of(0, Fraction(1, p))
        num = Poly.of(Fraction(p - 2, p)) * (Poly.of(1) - tp) \
            + Fraction(2) * (1 - Fraction(1, p)) * tp
        assert z == ZetaFn.of(num, Poly.of(1) - tp)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_zeta_of_a_scaled_polynomial_is_shifted(corpus, corpus_decompositions, p):
    """Z_{cf}(t) = t^(ord c) Z_f(t), also where ord c < 0 makes Z a Laurent
    series: ord cf = ord c + ord f at every point."""
    laurent = 0
    for name, f in corpus.items():
        z = igusa_zeta(corpus_decompositions[name, p], f)
        for c in (Fraction(1, p * p), Fraction(1, p), Fraction(3), Fraction(p)):
            cf = f * c
            e = ord_p(c, p)
            power = Poly.of(*([0] * abs(e) + [1]))
            want = ZetaFn.of(z.num * power, z.den) if e >= 0 else \
                ZetaFn.of(z.num, z.den * power)
            assert igusa_zeta(prepare(cf, p), cf) == want, (name, c)
            laurent += want.den.coeff(0) == 0
    assert laurent >= len(corpus)


@pytest.mark.parametrize("p", PRIMES)
def test_zeta_is_invariant_under_unit_affine_substitutions(corpus, corpus_decompositions, p):
    """Z_{f(ay+b)} = Z_f for a unit a and an integral b: y -> ay + b maps Z_p
    onto itself and preserves its Haar measure."""
    unit = 5 if p == 2 else 2
    for name, f in corpus.items():
        z = igusa_zeta(corpus_decompositions[name, p], f)
        for a, b in ((-1, 0), (1, 1), (p + 1, p), (unit, 1 + p * p)):
            assert ord_p(a, p) == 0
            g = f.shift_var(Fraction(a), Fraction(b))
            assert igusa_zeta(prepare(g, p), g) == z, (name, a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_zeta_of_a_product_agrees_with_refine_common(corpus, corpus_decompositions, p):
    """On each piece of refine_common(prepare(f), prepare(g)) the law of fg is
    the sum of the laws of f and g, both around the piece's center; the
    measures mu(ord fg = m) summed from those laws equal measure_of_order on
    prepare(fg), and so does the whole zeta function."""
    names = list(corpus)
    decs = {name: corpus_decompositions[name, p] if p in PRIMES else prepare(corpus[name], p)
            for name in names}
    for a, b in zip(names, names[1:]):
        f, g = corpus[a], corpus[b]
        fg = f * g
        pieces = refine_common(decs[a], decs[b])
        summed = replace(pieces, cells=tuple(
            c.with_laws({fg: OrderLaw(c.law_for(f).e0 + c.law_for(g).e0,
                                      c.law_for(f).i0 + c.law_for(g).i0)})
            for c in pieces.cells))
        direct = prepare(fg, p)
        for m in range(6):
            assert measure_of_order(summed, fg, m) == measure_of_order(direct, fg, m), (a, b, m)
        assert igusa_zeta(summed, fg) == igusa_zeta(direct, fg), (a, b)


def test_laurent_zeta_examples():
    # ord(y - 1/5) = -1 on Z_5; ord(y (y - 1/5)) = ord y - 1
    f = Poly.of(Fraction(-1, 5), 1)
    assert igusa_zeta(prepare(f, 5), f) == ZetaFn(Poly.of(1), Poly.of(0, 1))
    g = Poly.of(0, Fraction(-1, 5), 1)
    z = igusa_zeta(prepare(g, 5), g)
    assert z == ZetaFn.of(Poly.of(Fraction(4, 5)), Poly.of(0, 1, Fraction(-1, 5)))
    with pytest.raises(ValueError, match="Laurent"):
        z.taylor_coefficients(3)


def _random_digit_formula(rng: random.Random, p: int, polys: list[Poly]):
    """A formula of one to three atoms, mostly ac/rv at depths with p^d <= 125."""
    depths = [d for d in (1, 2, 3) if p**d <= 125]

    def atom():
        f = rng.choice(polys)
        d = rng.choice(depths)
        unit = rng.choice([u for u in range(1, p**d) if u % p])
        kind = rng.random()
        if kind < 0.4:
            return FAtom(AcEq(d, f, unit))
        if kind < 0.8:
            return FAtom(RvEq(d, f, RvData(d, rng.randint(-1, 2), unit)))
        return FAtom(OrdCmp(f, None, rng.randint(0, 2), rng.choice(["<", ">=", "="])))

    phi = atom()
    for _ in range(rng.randint(0, 2)):
        phi = (FAnd if rng.random() < 0.5 else FOr)(phi, atom())
        if rng.random() < 0.3:
            phi = FNot(phi)
    return phi


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_measures_of_digit_formulas_are_additive(p):
    """mu(phi) + mu(!phi) = mu(domain) and mu(phi & psi) + mu(phi | psi) =
    mu(phi) + mu(psi) on seeded random ac/rv formulas, over Z_p and a ball."""
    rng = random.Random(8000 + p)
    polys = [Poly.of(-2, 0, 1), Poly.of(1, 1, 0, 1), Poly.of(Fraction(-1, p), 3),
             Poly.of(p, -1, p)]
    for domain, pairs in ((ZP, 2), (Ball(Fraction(1), 1), 1)):
        whole = Fraction(1, p**domain.radius_ord)
        for _ in range(pairs):
            phi = _random_digit_formula(rng, p, polys)
            psi = _random_digit_formula(rng, p, polys)

            def mu(formula):
                return decomposition_measure(decompose_set(formula, p, domain), kept_only=True)

            m_phi, m_psi = mu(phi), mu(psi)
            assert m_phi + mu(FNot(phi)) == whole, phi
            assert mu(FAnd(phi, psi)) + mu(FOr(phi, psi)) == m_phi + m_psi, (phi, psi)


# The two-tail sum per pole against the per-cell polynomials it replaced
# (fraction_loops.py).

def _law_polys(dec: Decomposition) -> list[Poly]:
    return sorted({f for c in dec.cells for f in c.laws}, key=lambda f: f.coeffs)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_zeta_matches_the_per_cell_sum_on_the_corpus(p):
    domains = [ZP] + [Ball(Fraction(c), r) for c, r in ((1, 1), (3, 2), (2, 1))]
    for name, coeffs in CORPUS.items():
        f = Poly.of(*coeffs)
        for domain in domains:
            dec = prepare(f, p, domain)
            assert igusa_zeta(dec, f) == per_cell_igusa_zeta(dec, f, p), (name, domain)


@pytest.mark.parametrize("p", [31, 101])
def test_zeta_matches_the_per_cell_sum_at_large_primes(p):
    for f in large_prime_polys():
        dec = prepare(f, p)
        assert igusa_zeta(dec, f) == per_cell_igusa_zeta(dec, f, p), f


def test_laurent_zeta_matches_the_per_cell_sum():
    for text in ("y - 1/5", "2*y^2 - 1/3"):
        f = parse_poly(text)
        for p in (2, 3, 5, 7):
            dec = prepare(f, p)
            assert igusa_zeta(dec, f) == per_cell_igusa_zeta(dec, f, p), (text, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_zeta_matches_the_per_cell_sum_on_formulas(p):
    """Finite ranges, steps above 1 and explicit residue sets, from ord(...)
    bounds, ord(...) % q and ac atoms, and the formulas benchmark pool."""
    texts = ["ord(y) % 2 = 0", "ord(y^2 - 2) % 3 = 1 & ord(y - 1) < 4",
             "ord(y) < 7 | ord(y + 1) >= 2", "ac(1, y^2 - 2) = 1 & ord(y) % 2 = 1",
             "ac(2, y^2 + 1) = 1 | ord(3*y - 1) < 3", "!(ac(1, y - 1) = 1) & ord(y - 1) < 5"]
    texts += [text for text, q in formula_pool() if q == p]
    for text in texts:
        dec = decompose_set(parse_formula(text), p)
        for f in _law_polys(dec):
            assert igusa_zeta(dec, f) == per_cell_igusa_zeta(dec, f, p), (text, f)


def test_zeta_of_a_long_finite_range():
    """The sum costs O(1) per cell however long its range: ord(y) < 3000 was
    3000 polynomial products per cell in the per-cell sum."""
    f = parse_poly("y")
    dec = decompose_set(parse_formula("ord(y) < 3000"), 5)
    start = time.perf_counter()
    igusa_zeta(dec, f)
    assert time.perf_counter() - start < 1.0
    dec = decompose_set(parse_formula("ord(y) < 300"), 5)
    assert igusa_zeta(dec, f) == per_cell_igusa_zeta(dec, f)


def test_zeta_polynomial_operations_do_not_grow_with_p(monkeypatch):
    """A decomposition at p = 101 has O(p) cells; the sum builds one
    numerator per pole, so its Poly additions and products do not depend on p."""
    add, mul = Poly.__add__, Poly.__mul__
    counts = {"add": 0, "mul": 0}

    def counted_add(a, b):
        counts["add"] += 1
        return add(a, b)

    def counted_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    for f in (parse_poly("y^2 - 1"), parse_poly("y^4 - 17*y^3 + 5*y^2 + 737*y - 726")):
        seen = set()
        for p in (31, 101, 1009):
            dec = prepare(f, p)
            counts.update(add=0, mul=0)
            with monkeypatch.context() as m:
                m.setattr(Poly, "__add__", counted_add)
                m.setattr(Poly, "__mul__", counted_mul)
                igusa_zeta(dec, f)
            seen.add((counts["add"], counts["mul"]))
        assert len(seen) == 1, (f, seen)


GROUPED_DOMAINS = [ZP, Ball(Fraction(1), 1), Ball(Fraction(3), 2)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31, 101])
def test_grouped_form_has_the_sums_of_the_listed_form(p):
    """`prepare_grouped` reads each rootless tie group as one sphere cell:
    `prepare`, which lists the point and family of each class instead, gives
    the cells of the per-class recursion, the zeta function, the measure of
    each order and the total measure are the same, and the grouped cells
    partition the domain."""
    merged = 0
    for name, coeffs in CORPUS.items():
        f = Poly.of(*coeffs)
        for domain in GROUPED_DOMAINS:
            listed, grouped = prepare(f, p, domain), prepare_grouped(f, p, domain)
            merged += len(grouped.cells) < len(listed.cells)
            assert listed.cells == per_class_prepare(f, p, domain), (name, domain)
            assert igusa_zeta(grouped, f) == igusa_zeta(listed, f), (name, domain)
            assert [measure_of_order(grouped, f, m) for m in range(8)] == \
                [measure_of_order(listed, f, m) for m in range(8)], (name, domain)
            assert decomposition_measure(grouped) == decomposition_measure(listed)
            assert exact_partition_check(grouped).ok, (name, domain)
    assert merged >= 6


@pytest.mark.parametrize("p", [101, 1009, 10007])
def test_grouped_form_does_not_grow_with_p(p):
    """The quartic's ties have p - 1 - r rootless classes: `prepare` lists
    202, 2,018 and 20,014 cells at these primes, the grouped form at most 40."""
    f = Poly.of(-726, 737, 5, -17, 1)
    assert len(prepare_grouped(f, p).cells) <= 40


def test_zeta_canonical_form():
    z = ZetaFn.of(Poly.of(0, 2), Poly.of(0, 0, 4))
    # gcd cancels, lowest nonzero denominator coefficient normalizes to 1
    assert z.den.coeff(next(i for i, c in enumerate(z.den.coeffs) if c)) == 1
    assert z == ZetaFn.of(Poly.of(Fraction(1, 2)), Poly.of(0, 1))


def test_exact_partition_check_detects_overlap():
    p = 5
    cells = sorted_cells([
        Cell1(p, Center(Fraction(0), 1, TConst(Fraction(0))), None, None),
        fam(p, 0, 0),
        fam(p, 0, 2, 3),  # overlaps the full family
    ])
    bad = Decomposition(p, ZP, cells)
    chk = exact_partition_check(bad)
    assert not chk.disjoint and not chk.ok


def test_exact_partition_check_detects_gap():
    p = 5
    cells = sorted_cells([
        Cell1(p, Center(Fraction(0), 1, TConst(Fraction(0))), None, None),
        fam(p, 0, 1),  # misses the unit sphere
    ])
    bad = Decomposition(p, ZP, cells)
    chk = exact_partition_check(bad)
    assert chk.disjoint and not chk.covers
    assert chk.missing_measure == Fraction(4, 5)


def test_exact_partition_check_rejects_cells_outside_the_domain():
    # the sphere ord(y) = 1 of B(0, 1) is missing, and {ord(y - 1) = 1},
    # outside the domain, has its measure 4/25: measures, centers and
    # disjointness all pass, so only the support ball of each cell shows it
    p = 5
    point = Cell1(p, Center(Fraction(0), 1, TConst(Fraction(0))), None, None)
    one = Cell1(p, Center(Fraction(1), 1, TConst(Fraction(1))), None, None)
    bad = Decomposition(p, Ball(Fraction(0), 1),
                        sorted_cells([point, fam(p, 0, 2), one, fam(p, 1, 1, 1)]))
    chk = exact_partition_check(bad)
    assert chk.disjoint and chk.missing_measure == 0 and chk.uncovered_centers == 0
    assert not chk.covers
    assert not verify_partition(bad, 3).ok


def test_exact_partition_check_detects_missing_point():
    p = 5
    cells = sorted_cells([fam(p, 0, 0)])  # the origin is uncovered
    bad = Decomposition(p, ZP, cells)
    chk = exact_partition_check(bad)
    assert not chk.covers and chk.uncovered_centers == 1


@pytest.mark.parametrize("p", PRIMES)
def test_partition_check_keys_each_cell_once(monkeypatch, corpus_decompositions, p):
    """partition_check keys every cell and every probe once, for both of its
    passes, and agrees with the all-pairs loops: on every other corpus
    decomposition with its centers probed, on half of it with the centers
    of the other half left uncovered, and with a cell repeated."""
    keyed = [0]
    support = cells_module._support

    def counted(item, p, depth):
        keyed[0] += 1
        return support(item, p, depth)

    monkeypatch.setattr(cells_module, "_support", counted)
    decs = [d for (_, q), d in corpus_decompositions.items() if q == p]
    for dec in decs[::2]:
        cells = list(dec.cells)
        probes = [c.center.value for c in cells] + [Fraction(1, p), Fraction(7)]

        def integral(v):  # a Hensel root center lies in Z_p
            return not isinstance(v, Fraction) or ord_p(v, p) >= 0

        for part in (cells, cells[::2], cells + cells[:1], []):
            keyed[0] = 0
            got = partition_check(part, integral, probes)
            assert keyed[0] == (len(part) + len(probes) if part else 0)
            assert got == all_pairs_partition_check(part, integral, probes)

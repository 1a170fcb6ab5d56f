"""Differential test of the oracle against one reference per function, from
`fraction_loops`: `verify_partition` against the per-class marks,
`verify_laws` against the per-sample evaluation of f in full at members
drawn one by one, and `count_roots_mod` against the full scan.  The reports
are equal, failures included, on random polynomials, ball domains, the
corpus, formulas, the large-p fuzz and broken inputs; a partition report's
violating prefixes are compared class by class."""

import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from padic_cells import hensel, oracle
from padic_cells.cells import Ball, Decomposition, OrderLaw, Residues
from padic_cells.decompose import decompose_set, prepare, prepare_grouped
from padic_cells.hensel import exact_value
from padic_cells.measure import exact_partition_check
from padic_cells.oracle import (
    PartitionReport,
    _clear_denominators,
    _ord_value,
    count_roots_mod,
    verify_laws,
    verify_partition,
)
from padic_cells.padics import INFINITY, int_val, ord_p
from padic_cells.parser import parse_formula, parse_poly
from padic_cells.poly import Poly

import large_p_fuzz
from conftest import CORPUS, formula_pool, large_prime_polys
from fraction_loops import count_roots_mod_scan, per_class_mark_cell, per_sample_verify_laws

PRIMES = (2, 3, 5, 7, 11)


# ---------------------------------------------------------------------------
# The partition reference: every class mod p^k marked on its own.
# ---------------------------------------------------------------------------


def ref_verify_partition(dec: Decomposition, k: int) -> tuple[tuple, tuple]:
    """The violations, as (class, covering cells) pairs, and the undecided
    classes, among the classes r mod p^k that meet the domain ball."""
    p = dec.prime
    q = p**k
    count = [0] * q
    fuzzy = [0] * q
    for cell in dec.cells:
        per_class_mark_cell(cell, k, p, count, fuzzy)
    # the class meets the ball B(b, rad) when ord(r - b) >= min(k, rad),
    # with r - b = (r den - num) / den for b = num / den
    b, depth = dec.domain.center, min(k, dec.domain.radius_ord)
    num, den, shift = b.numerator, b.denominator, int_val(b.denominator, p)
    violations, undecided = [], []
    for r in [r for r in range(q) if count[r] != 1 or fuzzy[r]]:
        n = r * den - num
        if n and int_val(n, p) - shift < depth:
            continue
        hits = count[r]
        if fuzzy[r] and hits <= 1:
            undecided.append(r)
        else:
            violations.append((r, hits))
    return tuple(violations), tuple(undecided)


def assert_same_partition(rep: PartitionReport, ref: tuple[tuple, tuple]) -> None:
    """The report's prefix violations expanded into (class, hits) pairs are
    the reference's, and so are the undecided classes.  A violating class
    belongs to the deepest prefix a mod p^j of the report that holds it,
    which must count it and give its hits."""
    pairs, undecided = ref
    p, k = rep.prime, rep.depth
    prefixes = {(j, a): (hits, classes) for j, a, hits, classes in rep.violations}
    assert len(prefixes) == len(rep.violations)
    expanded, held = [], Counter()
    for r, _ in pairs:
        prefix = next(((j, r % p**j) for j in range(k, -1, -1) if (j, r % p**j) in prefixes),
                      None)
        assert prefix is not None, r
        expanded.append((r, prefixes[prefix][0]))
        held[prefix] += 1
    assert expanded == list(pairs)
    assert all(held[prefix] == classes for prefix, (_, classes) in prefixes.items())
    assert rep.violating_classes == len(pairs)
    assert rep.undecided == undecided


def assert_partition_matches(dec: Decomposition, k: int) -> PartitionReport:
    rep = verify_partition(dec, k)
    assert_same_partition(rep, ref_verify_partition(dec, k))
    return rep


# ---------------------------------------------------------------------------
# The cases.
# ---------------------------------------------------------------------------


def _depth(p: int) -> int:
    """The largest k with p^k <= 10^4."""
    k = 1
    while p ** (k + 1) <= 10**4:
        k += 1
    return k


def _random_poly(rng: random.Random, p: int) -> Poly:
    """Degree 1-5, small coefficients, denominators prime to p."""
    deg = rng.randint(1, 5)
    dens = [d for d in (1, 1, 1, 2, 3, 4, 6) if d % p]
    coeffs = [Fraction(rng.randint(-12, 12), rng.choice(dens)) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice([c for c in range(-6, 7) if c]), rng.choice(dens)))
    return Poly.of(*coeffs)


def _assert_same(dec: Decomposition, f: Poly, k: int, samples: int = 30) -> None:
    assert_partition_matches(dec, k)
    assert verify_laws(dec, f, samples=samples, seed=7) == per_sample_verify_laws(dec, f, samples, 7)


@pytest.mark.parametrize("p", PRIMES)
def test_random_polynomials_agree_with_the_fraction_loops(p):
    rng = random.Random(1000 + p)
    k = _depth(p)
    for _ in range(3):
        f = _random_poly(rng, p)
        _assert_same(prepare(f, p), f, k)
        for j in range(1, min(k, 3) + 1):
            assert count_roots_mod(f, p, j) == count_roots_mod_scan(f, p, j)


@pytest.mark.parametrize("p", (3, 5))
def test_ball_domains_agree_with_the_fraction_loops(p):
    rng = random.Random(2000 + p)
    k = _depth(p)
    for center, radius in ((Fraction(2), 1), (Fraction(1, 2), 2), (Fraction(7), k),
                           (Fraction(-1, 4), k + 1), (Fraction(4), k + 3)):
        f = _random_poly(rng, p)
        _assert_same(prepare(f, p, Ball(center, radius)), f, k)


def test_domains_outside_the_engine_contract_agree():
    # hand-made decompositions may carry any ball: a p-fractional center, a
    # negative radius; the scan then keeps all classes or none, as before
    p, k = 3, 4
    f = Poly.of(-2, 0, 1)
    dec = prepare(f, p)
    for domain in (Ball(Fraction(1, 3), -1), Ball(Fraction(1, 3), 0), Ball(Fraction(5), -2)):
        moved = replace(dec, domain=domain)
        assert_partition_matches(moved, k)


def test_a_domain_deeper_than_k_is_checked_in_its_class():
    # B(50, 3) and B(1, 3) at p = 7 both lie in the class 1 mod 49, which
    # meets the ball: at k = 2 that one class is checked, and it is undecided
    for center in (50, 1):
        dec = prepare_grouped(Poly.of(-1, 0, 1), 7, Ball(Fraction(center), 3))
        rep = assert_partition_matches(dec, 2)
        assert rep.ok and rep.undecided == (1,)


def test_rational_centers_and_p_fractional_polynomials_agree():
    # samples around 2/3 and -1/2 have a denominator; 1/5, 2/9, 1/2 are p-fractional
    for p, f in ((5, Poly.of(-2, 3)), (7, Poly.of(-2, -1, 6)),
                 (5, Poly.of(Fraction(-1, 5), 1)), (3, Poly.of(1, Fraction(2, 9), 0, 1)),
                 (2, Poly.of(Fraction(1, 2), 0, Fraction(3, 4)))):
        _assert_same(prepare(f, p), f, _depth(p))


@pytest.mark.parametrize("p,f", [(5, Poly.of(-6, 0, 1)), (7, Poly.of(-2, -1, 6))])
def test_broken_decompositions_report_the_same_faults(p, f):
    dec = prepare(f, p)
    k = _depth(p)
    # a dropped cell leaves classes uncovered
    dropped = replace(dec, cells=dec.cells[:1] + dec.cells[2:])
    assert assert_partition_matches(dropped, k).violations
    # tampered laws fail on their cells' samples, the same members in both
    broken = {i for i, c in enumerate(dec.cells)
              if not c.is_point and c.law_for(f).e0 is not INFINITY}
    cells = tuple(replace(c, laws={g: OrderLaw(law.e0 + 1, law.i0) for g, law in c.laws.items()})
                  if i in broken else c for i, c in enumerate(dec.cells))
    tampered = replace(dec, cells=cells)
    new, ref = verify_laws(tampered, f, samples=40), per_sample_verify_laws(tampered, f, 40)
    assert new == ref
    assert {x.cell_index for x in new.failures} == broken
    # a recorded depth too small for the laws breaks the depth-k inequality
    shallow = replace(dec, k_depth=-5)
    new, ref = verify_laws(shallow, f, samples=40), per_sample_verify_laws(shallow, f, 40)
    assert new == ref and new.failures


def test_integer_valuation_matches_fractions():
    rng = random.Random(5)
    for p in PRIMES:
        for _ in range(40):
            f = _random_poly(rng, p) * Poly.of(Fraction(1, p ** rng.randint(0, 2)))
            coeffs, shift = _clear_denominators(f, p)
            x = Fraction(rng.randint(-500, 500), rng.choice([1, 2, 3, p, p * p, 7 * p]))
            assert _ord_value(coeffs, shift, x.numerator, x.denominator, p) == ord_p(f.eval(x), p)


# ---------------------------------------------------------------------------
# The law kernel mod p^(t+1) and the per-prefix partition marks.
# ---------------------------------------------------------------------------


def _tampered(dec: Decomposition, f: Poly, rng: random.Random):
    """The decomposition with one family cell's law moved by e0 +- 1 or
    i0 +- 1, each in turn, and with a shallow recorded depth."""
    family = [i for i, c in enumerate(dec.cells)
              if not c.is_point and c.law_for(f).e0 is not INFINITY]
    idx = rng.choice(family)
    law = dec.cells[idx].law_for(f)
    for moved in (OrderLaw(law.e0 + 1, law.i0), OrderLaw(law.e0 + (-1), law.i0),
                  OrderLaw(law.e0, law.i0 + 1), OrderLaw(law.e0, law.i0 - 1)):
        cell = dec.cells[idx].with_laws({f: moved})
        yield replace(dec, cells=dec.cells[:idx] + (cell,) + dec.cells[idx + 1:])
    yield replace(dec, k_depth=dec.k_depth - 3)


@pytest.mark.parametrize("p", PRIMES)
def test_tampered_corpus_laws_match_the_per_sample_evaluation(monkeypatch, p):
    # every failure -- member, expected value and the exact value got -- is
    # the one the full evaluation of every sample reports; the depth-k bound
    # comes from the oracle's own expansion at each proxy, so the engine's
    # Taylor valuations are never read, at inexact centers either
    def engine_taylor_ords(*args):
        raise AssertionError("the oracle read the engine's Taylor valuations")

    monkeypatch.setattr(oracle, "taylor_ords", engine_taylor_ords, raising=False)
    rng = random.Random(3000 + p)
    caught = inexact = 0
    for coeffs in CORPUS.values():
        f = Poly.of(*coeffs)
        dec = prepare(f, p)
        inexact += sum(not c.is_point and exact_value(c.center.value) is None for c in dec.cells)
        assert verify_laws(dec, f, samples=40, seed=p) == per_sample_verify_laws(dec, f, 40, p)
        for bad in _tampered(dec, f, rng):
            new = verify_laws(bad, f, samples=40, seed=p)
            assert new == per_sample_verify_laws(bad, f, 40, p)
            caught += not new.ok
    # every moved law is caught; a shallow depth only where the bound bites
    assert caught >= 4 * len(CORPUS)
    assert inexact


def _every_sample_failing(dec: Decomposition, f: Poly) -> Decomposition:
    """The decomposition with every finite family law moved by e0 + 1, so
    that every sample of those cells fails and its report lists the member,
    and its cells twice, so that the second copy of each cell draws where
    the first pass left the random stream."""
    cells = tuple(c.with_laws({f: OrderLaw(c.law_for(f).e0 + 1, c.law_for(f).i0)})
                  if not c.is_point and c.law_for(f).e0 is not INFINITY else c
                  for c in dec.cells)
    return replace(dec, cells=cells + cells)


def _assert_every_member_listed(dec: Decomposition, f: Poly, samples: int, seed: int) -> None:
    """The report equals the per-sample evaluation's, and each moved cell
    lists max(samples, units) failing members."""
    moved = _every_sample_failing(dec, f)
    rep = verify_laws(moved, f, samples=samples, seed=seed)
    assert rep == per_sample_verify_laws(moved, f, samples, seed)
    listed = Counter(x.cell_index for x in rep.failures)
    for i, cell in enumerate(moved.cells):
        if not cell.is_point and cell.law_for(f).e0 is not INFINITY:
            assert listed[i] == max(samples, len(oracle._sample_units(cell.residues, samples)))


@pytest.mark.parametrize("p", (2, 5))
def test_samples_are_the_members_the_per_sample_loop_drew(p):
    # one random stream, the same members in the same order, ball domains too
    for coeffs in CORPUS.values():
        f = Poly.of(*coeffs)
        for domain in (None, Ball(Fraction(3), 2)):
            dec = prepare(f, p) if domain is None else prepare(f, p, domain)
            _assert_every_member_listed(dec, f, 30, p)


@pytest.mark.parametrize("p", PRIMES)
def test_sample_draws_leave_the_stream_where_randrange_left_it(p):
    # the digits drawn by getrandbits are the digits randrange(p^3) drew,
    # and after every cell the generator is in the same state: the second
    # pass over the cells draws the same members in both
    for coeffs in CORPUS.values():
        f = Poly.of(*coeffs)
        _assert_every_member_listed(prepare(f, p), f, 50, p)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_grouped_corpus_laws_match_the_per_sample_evaluation(p):
    # the inputs of the corpus-verify benchmark: the grouped form of the
    # corpus at 200 samples, on two seeds
    for coeffs in CORPUS.values():
        f = Poly.of(*coeffs)
        dec = prepare_grouped(f, p)
        for seed in (p, 100 + p):
            assert verify_laws(dec, f, samples=200, seed=seed) == per_sample_verify_laws(
                dec, f, 200, seed)


def test_law_check_lifts_an_inexact_center_from_its_last_refinement(monkeypatch):
    # 10,000 samples at p = 2 walk thousands of spheres, with a new proxy of
    # the center every 16 of them: each inexact one continues Newton from the
    # last refinement, so a few doublings serve them all (590 calls when
    # every proxy restarted from the stored approximation)
    f = parse_poly("17*y^4 - 20*y^3 + 3*y - 19")
    dec = prepare_grouped(f, 2)
    assert any(not c.is_point and exact_value(c.center.value) is None for c in dec.cells)
    calls = []
    newton = hensel._newton
    monkeypatch.setattr(hensel, "_newton", lambda *a: calls.append(a) or newton(*a))
    assert verify_laws(dec, f, samples=10000).ok
    assert len(calls) <= 30


@pytest.mark.parametrize("p,depth", [(2, 6), (3, 6), (5, 6), (7, 5), (11, 3)])
def test_corpus_partitions_match_the_per_class_marks(p, depth):
    # every k up to the depth; overlaps count their covering cells as the
    # per-class marks did
    for coeffs in CORPUS.values():
        dec = prepare(Poly.of(*coeffs), p)
        for k in range(1, depth + 1):
            assert_partition_matches(dec, k)
        assert_partition_matches(replace(dec, cells=dec.cells + dec.cells[1:3]), min(depth, 4))


def test_large_p_fuzz_partitions_match_the_per_class_marks():
    # the grouped decompositions of the large-p fuzz's Tier-1 cases whose
    # p^k is at most 10^6, at the fuzz's depth k
    cases = [large_p_fuzz.draw(10**6 + i) for i in range(80)]
    cases = [case for case in cases if case.p**case.k <= 10**6]
    assert len(cases) >= 20
    for case in cases:
        assert_partition_matches(prepare_grouped(case.f, case.p, case.domain), case.k)


def _strict_members(monkeypatch) -> None:
    """Make `Residues.members` refuse a call without `limit`."""
    members = Residues.members

    def strict(self, *, limit=None):
        if limit is None:
            raise AssertionError("the oracle listed every unit of a residue set")
        return members(self, limit=limit)

    monkeypatch.setattr(Residues, "members", strict)


def _complement_decompositions():
    """!(ac(d, y) = 1) at p = 7 for d = 2..4, at k = 1..4: digit classes
    marked at their own level m + j, and classes deeper than k flagged."""
    return [(decompose_set(parse_formula(f"!(ac({d}, y) = 1)"), 7), k)
            for d in (2, 3, 4) for k in (1, 2, 3, 4)]


def _grouped_decompositions():
    """The rootless tie groups of `prepare_grouped`, a listed set per group."""
    out = [(prepare_grouped(Poly.of(*coeffs), p), min(_depth(p), 3))
           for p in (3, 5, 7) for coeffs in CORPUS.values()]
    return out + [(prepare_grouped(f, 101), 2) for f in large_prime_polys()]


def _formula_decompositions():
    return [(decompose_set(parse_formula(text), p), min(_depth(p), 4))
            for text, p in formula_pool()]


@pytest.mark.parametrize("build", [_complement_decompositions, _grouped_decompositions,
                                   _formula_decompositions])
def test_partition_marks_read_digit_classes_not_units(monkeypatch, build):
    # each digit class is marked once at its own level: the reports are the
    # per-unit marks', and no residue set is listed unit by unit
    cases = build()
    refs = [ref_verify_partition(dec, k) for dec, k in cases]
    assert any(not c.is_point and not c.residues.is_all for dec, _ in cases for c in dec.cells)
    _strict_members(monkeypatch)
    for (dec, k), ref in zip(cases, refs):
        assert_same_partition(verify_partition(dec, k), ref)


def test_law_samples_read_only_the_units_they_draw(monkeypatch):
    # at p = 1009 a tie group holds about a thousand classes: 20 samples per
    # cell read one unit of every class, max(20, classes) units in all, and
    # no residue set is listed whole
    f = parse_poly("y^4 - 17*y^3 + 5*y^2 + 737*y - 726")
    dec = prepare_grouped(f, 1009)
    want = per_sample_verify_laws(dec, f, 20)
    drawn = []
    sample_units = oracle._sample_units
    monkeypatch.setattr(oracle, "_sample_units", lambda res, n: drawn.append(
        (res, sample_units(res, n))) or drawn[-1][1])
    _strict_members(monkeypatch)
    assert verify_laws(dec, f, samples=20) == want and want.ok
    assert drawn
    for res, units in drawn:
        classes = frozenset() if res.is_all else res.classes
        assert len(units) <= max(20, len(classes))
        assert classes <= {(j, u % res.p**j) for u in units for j in res.levels}
    assert any(not res.is_all and len(res.classes) > 20 for res, _ in drawn)


def test_samples_cover_every_digit_class_of_a_mixed_set():
    # the first units of a set with classes at several levels can all lie
    # in one class; the heads of the others are sampled too
    dec = decompose_set(parse_formula("!(ac(3, y) = 1)"), 7)
    sets = [c.residues for c in dec.cells if not c.is_point and len(c.residues.levels) > 1]
    assert sets
    for res in sets:
        for n in (1, 5, 200):
            units = oracle._sample_units(res, n)
            assert len(units) == max(n, len(res.classes)) and units == sorted(set(units))
            assert all(res.contains(u) for u in units)
            assert res.classes <= {(j, u % res.p**j) for u in units for j in res.levels}


@pytest.mark.parametrize("p", [1009, 10007])
def test_a_root_class_moved_into_a_rootless_group_fails_its_law(p):
    # the tie of y^2 - 1 at 0 leaves the classes 2, ..., p - 2 rootless: one
    # group with the law ord f = 0.  With the root class p - 1 moved into it
    # and the point and family at -1 dropped, the cells still partition Z_p,
    # but the law is wrong on all of y = -1 mod p, and that class is sampled
    f = parse_poly("y^2 - 1")
    dec = prepare_grouped(f, p)
    [group] = [c for c in dec.cells if not c.is_point and not c.residues.is_all]
    wide = group.copy(residues=Residues(1, [*group.residues.members(), p - 1], p))
    mutated = replace(dec, cells=tuple(wide if c is group else c for c in dec.cells
                                       if c.center.value != -1))
    assert len(mutated.cells) == len(dec.cells) - 2
    assert exact_partition_check(mutated).ok
    assert verify_laws(mutated, f).failures


def test_only_rational_points_are_evaluated_in_full(monkeypatch):
    # on correct laws the kernel confirms every family sample: a return to
    # evaluating every sample in full shows here as extra calls
    calls = []
    full = oracle._ord_value
    monkeypatch.setattr(oracle, "_ord_value", lambda *a: calls.append(a) or full(*a))
    for p in (2, 3, 5, 7):
        for coeffs in CORPUS.values():
            f = Poly.of(*coeffs)
            dec = prepare(f, p)
            calls.clear()
            assert verify_laws(dec, f, samples=200).ok
            points = sum(c.is_point and c.center.is_rational for c in dec.cells)
            assert len(calls) == points, (coeffs, p)


def test_a_long_finite_range_is_sampled_in_bounded_time():
    # the tail of a finite range comes from its ends, not from a walk over
    # it, and deep spheres are decided mod p^(t+1) with O(log t) valuations
    dec = decompose_set(parse_formula("ord(y) < 100000"), 5)
    start = time.perf_counter()
    report = verify_laws(dec, parse_poly("y"), samples=20)
    assert time.perf_counter() - start < 5
    assert report.ok

"""Residue sets as unions of digit classes, against the explicit unit sets
they replaced: every set, every intersection and every transport that the
engine builds on the corpus, the ball sweep, the formulas pool and the
formula fuzz gives the units the old frozensets gave."""

import random
from fractions import Fraction

import pytest

import padic_cells.cells as cells_module
import test_formula_fuzz
from conftest import CORPUS, formula_pool
from fraction_loops import unit_scan_transport, unit_set
from padic_cells.cells import Ball, Residues, ZP
from padic_cells.decompose import decompose_set
from padic_cells.parser import parse_formula
from padic_cells.poly import Poly, format_poly

# sets with more residues than this are probed on a sample of them, and
# operations with more than _FULL_OPERATION are not rescanned
_FULL_SCAN = 4000
_FULL_OPERATION = 20000


def _old_lift(units, p, depth, to):
    """`Residues.lift` as it was written, on explicit units."""
    return frozenset(u + t * p**depth for u in units for t in range(p ** (to - depth)))


def _build_everything():
    """Run the engine over the four sources and record every residue set it
    builds (with its prime) and every meet and transport call."""
    built, calls = [], []
    init, meet = Residues.__init__, Residues.meet
    transport = cells_module._transport

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def recorded_meet(self, other):
        out = meet(self, other)
        calls.append(("meet", self, other, self.p, out))
        return out

    def recorded_transport(own, other, depth, e, shift):
        out = transport(own, other, depth, e, shift)
        calls.append(("transport", own, other, own.p, (depth, e, shift, out)))
        return out

    patch = pytest.MonkeyPatch()
    patch.setattr(Residues, "__init__", recorded_init)
    patch.setattr(Residues, "meet", recorded_meet)
    patch.setattr(cells_module, "_transport", recorded_transport)
    try:
        for coeffs in CORPUS.values():
            f = format_poly(Poly.of(*coeffs))
            phi = parse_formula(f"ac(2, {f}) = 1 | ord({f}) <= ord(y - 1)")
            for p in (2, 3, 5, 7):
                decompose_set(phi, p)
        for p in (3, 5, 7):  # the ball sweep of tools/sweep.py
            for domain in (ZP, Ball(Fraction(1), 1), Ball(Fraction(3), 2)):
                for f in ("y^2 - 2", "y^3 - y", "(y - 1)^2*(y + 1)"):
                    decompose_set(parse_formula(f"ac(2, {f}) = 3 & !(rv(1, y) = (0, 2))"),
                                  p, domain)
        for text, p in formula_pool():
            decompose_set(parse_formula(text), p)
        for name in dir(test_formula_fuzz):
            if name.startswith("test_"):
                getattr(test_formula_fuzz, name)()
    finally:
        patch.undo()
    return built, calls


@pytest.fixture(scope="module")
def recorded():
    return _build_everything()


def _distinct(sets):
    out = {}
    for res in sets:
        out.setdefault((res.depth, res.classes, res.p), res)
    return list(out.values())


def test_every_built_set_agrees_with_its_units(recorded):
    """count, contains, members (with and without a limit) and lift on the
    classes give what the explicit frozenset of the units gave, and the
    classes are disjoint units in normal form: the set built from its own
    units is the same set."""
    sets = _distinct(recorded[0])
    rng = random.Random(21)
    assert len(sets) > 100 and any(len(res.levels) > 1 for res in sets)
    for res in sets:
        p, d = res.p, res.depth
        units = unit_set(res, p)
        if not res.is_all:
            assert sum(p ** (d - j) for j, _ in res.classes) == len(units)  # disjoint
            assert all(a % p and 0 < a < p**j <= p**d for j, a in res.classes)
            for j in res.levels - {1}:
                heads = [a % p ** (j - 1) for i, a in res.classes if i == j]
                assert all(heads.count(b) < p for b in heads)  # nothing left to merge
            assert res == Residues(d, units, p) != Residues(d, p=p)
        assert res.count() == len(units)
        ordered = sorted(units)
        assert res.members() == ordered
        for limit in (1, 2, 4, 5):
            assert res.members(limit=limit) == ordered[:limit]
        q = p**d
        probe = range(q) if q <= _FULL_SCAN else \
            list(units)[:_FULL_SCAN] + [rng.randrange(q) for _ in range(_FULL_SCAN)]
        assert all(res.contains(u) == (u % q in units) for u in probe if u % p)
        if q * p <= _FULL_SCAN:
            assert unit_set(res.lift(d + 1), p) == _old_lift(units, p, d, d + 1)


def test_every_meet_and_transport_agrees_with_the_unit_scan(recorded):
    """The intersections that the engine took, and every `_transport` of
    `intersect_cells`, against the same operations on explicit unit sets: &
    after lifting both to the deeper depth, and the scan over every unit at
    the transported depth."""
    seen = {"meet": 0, "transport": 0}
    for name, own, other, p, out in recorded[1]:
        depth = max(own.depth, other.depth) if name != "transport" else out[0]
        if p ** depth > _FULL_OPERATION:
            continue
        mine = _old_lift(unit_set(own, p), p, own.depth, depth)
        theirs = _old_lift(unit_set(other, p), p, other.depth, depth)
        if name == "meet":
            assert unit_set(out, p) == mine & theirs
        else:
            depth, e, shift, got = out
            assert got.depth == depth and not got.is_all
            assert unit_set(got, p) == unit_scan_transport(own, other, depth, p**e, shift,
                                                           depth, p)
        seen[name] += 1
    assert all(n > 80 for n in seen.values()), seen


def test_random_pairs_of_built_sets_meet_and_transport(recorded):
    """Random pairs of the built sets at one prime and of all units, beyond
    the pairs the engine met: meet, and `_transport` at every exponent e
    below the other set's depth with a unit, a zero and a random shift."""
    rng = random.Random(7)
    by_prime = {}
    for res in _distinct(recorded[0]):
        if res.p ** (res.depth + 1) <= _FULL_SCAN:
            by_prime.setdefault(res.p, []).append(res)
    for p, sets in sorted(by_prime.items()):
        sets += [Residues(1, p=p), Residues(2, p=p)]
        for _ in range(150):
            own, other = rng.choice(sets), rng.choice(sets)
            depth = max(own.depth, other.depth)
            mine = _old_lift(unit_set(own, p), p, own.depth, depth)
            theirs = _old_lift(unit_set(other, p), p, other.depth, depth)
            assert unit_set(own.meet(other), p) == mine & theirs
            for e in range(other.depth):
                to = depth + rng.randint(0, 1)
                for shift in (1, 0, rng.randrange(-p**to, p**to)):
                    got = cells_module._transport(own, other, to, e, shift)
                    assert unit_set(got, p) == unit_scan_transport(own, other, to, p**e, shift,
                                                                   to, p)


def test_equality_is_set_equality():
    """Classes in normal form compare as sets of units; an explicit set of
    every unit is not all units."""
    p = 3
    assert Residues(2, {1, 4, 7}, p) == Residues(1, {1}, p).lift(2)
    assert Residues(2, {1, 4, 7}, p).classes == frozenset({(1, 1)})
    assert Residues(2, {1, 4}, p) != Residues(2, {1, 4, 7}, p)
    every = Residues(2, {1, 2, 4, 5, 7, 8}, p)
    assert every.classes == frozenset({(1, 1), (1, 2)}) and every != Residues(2, p=p)
    assert every.count() == Residues(2, p=p).count() == 6
    assert Residues(1, {1}, p) != Residues(2, {1, 4, 7}, p)  # the depths differ


def test_complement_of_a_deep_digit_class_stays_small():
    """!(ac(7, y) = 1) at p = 7: every unit mod 7^7 but one, as six classes
    per level, not 705,893 units, with the first members read without
    listing the rest; it meets the class of 1 nowhere."""
    p, d = 7, 7
    dec = decompose_set(parse_formula(f"!(ac({d}, y) = 1)"), p)
    rest = next(c.residues for c in dec.cells if c.keep and not c.is_point)
    one = next(c.residues for c in dec.cells if not c.keep)
    assert one == Residues(d, {1}, p) and len(rest.classes) == 6 * d - 1
    assert rest.count() == 6 * p ** (d - 1) - 1
    assert rest.members(limit=4) == [2, 3, 4, 5]
    assert not rest.contains(1) and not rest.contains(1 + p**d)
    assert rest.contains(8) and rest.meet(one).classes == frozenset()

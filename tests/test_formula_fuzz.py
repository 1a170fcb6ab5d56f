"""End-to-end consistency: decompose_set membership versus direct evaluation
of the formula at exact rational points, exhaustively over residue lifts."""

import random
from fractions import Fraction

from padic_cells.cells import contains
from padic_cells.decompose import (
    AcEq,
    FAnd,
    FAtom,
    FNot,
    FOr,
    OrdCmp,
    OrdEqInf,
    OrdModEq,
    RELATIONS,
    RvEq,
    decompose_set,
    eval_formula,
    formula_atoms,
)
from padic_cells.measure import exact_partition_check
from padic_cells.padics import INFINITY, RvData, ord_p, rv, unit_digits
from padic_cells.poly import Poly


def atom_truth(atom, y: Fraction, p: int) -> bool:
    value = atom.f.eval(y)
    if isinstance(atom, OrdEqInf):
        return value == 0
    if isinstance(atom, OrdCmp):
        lhs = ord_p(value, p)
        rhs = atom.offset if atom.g is None else ord_p(atom.g.eval(y), p) + atom.offset
        return RELATIONS[atom.rel](lhs, rhs)
    if isinstance(atom, OrdModEq):
        v = ord_p(value, p)
        return (v is not INFINITY) and (v - atom.residue) % atom.modulus == 0
    if isinstance(atom, AcEq):
        if value == 0:
            return False
        return unit_digits(value, p, atom.depth) == atom.unit % p**atom.depth
    if isinstance(atom, RvEq):
        got, tag = rv(value, p, atom.depth), atom.tag
        if got.is_zero or tag.is_zero:
            return got.is_zero and tag.is_zero
        # the unit digits compare mod p^depth, as they do for ac
        return got.valuation == tag.valuation and \
            got.unit == tag.unit % p**atom.depth
    raise TypeError(atom)


def formula_truth(phi, y: Fraction, p: int) -> bool:
    truth = {a: atom_truth(a, y, p) for a in formula_atoms(phi)}
    return eval_formula(phi, truth)


Y = Poly.of(0, 1)
YM1 = Poly.of(-1, 1)
SQ = Poly.of(-1, 0, 1)


def check_exhaustive(phi, p, k, dec=None):
    """Membership in the kept cells of `dec` (by default the decomposition
    of phi) against phi itself at every integer below p^k."""
    dec = decompose_set(phi, p) if dec is None else dec
    assert exact_partition_check(dec).ok
    kept = dec.kept_cells
    for r in range(p**k):
        y = Fraction(r)
        want = formula_truth(phi, y, p)
        got = sum(1 for c in kept if contains(c, y))
        assert got <= 1
        assert bool(got) == want, (r, want)


def test_fuzz_ord_and_digits_p3():
    phi = FAnd(FAtom(OrdCmp(SQ, Y, 0, ">=")), FNot(FAtom(AcEq(1, Y, 2))))
    check_exhaustive(phi, 3, 4)


def test_fuzz_congruence_p3():
    phi = FOr(FAtom(OrdModEq(YM1, 2, 1)), FAtom(OrdEqInf(SQ)))
    check_exhaustive(phi, 3, 4)


def test_fuzz_rv_and_cmp_p5():
    phi = FOr(FAtom(RvEq(1, YM1, rv(Fraction(5), 5, 1))),
              FAtom(OrdCmp(Y, YM1, -1, "<")))
    check_exhaustive(phi, 5, 3)


def test_fuzz_rv_digits_out_of_range():
    # unit digits past p^depth, and negative ones, name their residue mod p^depth
    for p, d, u in ((3, 2, 10), (5, 1, 6), (5, 1, -1), (3, 1, 8)):
        phi = FOr(FAtom(RvEq(d, YM1, RvData(d, 0, u))),
                  FAtom(RvEq(d, SQ, RvData(d, 1, u + p**d))))
        check_exhaustive(phi, p, 4 if p == 3 else 3)


def test_fuzz_irrational_roots_p2():
    # y^2 - 17 splits in Z_2 with irrational roots, so kept cells carry
    # certified approximations as centers
    f = Poly.of(-17, 0, 1)
    phi = FAtom(OrdCmp(f, None, 4, ">="))
    check_exhaustive(phi, 2, 6)


def test_fuzz_random_formulas_p2():
    rng = random.Random(5)
    polys = [Y, YM1, SQ, Poly.of(1, 1)]
    for _ in range(4):
        atoms = [
            FAtom(OrdCmp(rng.choice(polys), rng.choice([None, Y]), rng.randint(-1, 2),
                         rng.choice(["<", "<=", "=", ">=", ">"]))),
            FAtom(AcEq(rng.randint(1, 2), rng.choice(polys), rng.randint(1, 3))),
        ]
        phi = FAnd(atoms[0], FNot(atoms[1])) if rng.random() < 0.5 \
            else FOr(FNot(atoms[0]), atoms[1])
        check_exhaustive(phi, 2, 5)

"""Acceptance suite: every criterion at its stated (exact) tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  All equalities are exact rational identities; the only numeric
threshold is the criterion-1 runtime budget.
"""

import time
from fractions import Fraction

import pytest

from conftest import PRIMES

from padic_cells.cells import (
    ArithRange,
    Cell1,
    Center,
    Decomposition,
    OrderLaw,
    Residues,
    TConst,
    ZP,
    product,
    sorted_cells,
)
from padic_cells.cli import main as cli_main
from padic_cells.decompose import (
    AcEq,
    FAnd,
    FAtom,
    FNot,
    FOr,
    OrdCmp,
    OrdModEq,
    RvEq,
    decompose_set,
    prepare,
)
from padic_cells.dim import dim_of, dim_product, dim_union, verify_dim_product
from padic_cells.hensel import check_conditions, h, order_law_at_root, refine_root
from padic_cells.kgroup import chi, chi_product, cv_check, k0_add, k0_mul
from padic_cells.measure import (
    ZetaFn,
    decomposition_measure,
    exact_partition_check,
    igusa_zeta,
    measure_of_order,
)
from padic_cells.oracle import count_roots_mod, verify_laws, verify_partition
from padic_cells.padics import INFINITY, RvData, ord_p, rv
from padic_cells.poly import Poly, squarefree_part

Y = Poly.of(0, 1)


def _report(n: int, message: str) -> None:
    print(f"\n[criterion {n}] PASS: {message}")


def test_criterion_1_partition_exactness(corpus, corpus_decompositions):
    t0 = time.time()
    for (name, p), dec in corpus_decompositions.items():
        chk = exact_partition_check(dec)
        assert chk.disjoint, (name, p, chk.overlaps)
        assert chk.covers, (name, p, chk.missing_measure, chk.uncovered_centers)
        rep = verify_partition(dec, 6)
        assert not rep.violations, (name, p, rep.violations[:3])
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"partition checking took {elapsed:.1f}s"
    _report(1, f"100 decompositions disjoint+cover (exact algebra and k=6 scan) "
               f"in {elapsed:.1f}s")


def test_criterion_2_order_law_exactness(corpus, corpus_decompositions):
    checked = 0
    for (name, p), dec in corpus_decompositions.items():
        rep = verify_laws(dec, corpus[name], samples=200, seed=0)
        assert rep.ok, (name, p, rep.failures[:3])
        checked += len(dec.cells)
    _report(2, f"exact order laws and depth-k inequality on {checked} cells, "
               f"200 samples per cell")


def test_criterion_3_oracle_measure_agreement(corpus, corpus_decompositions):
    for (name, p), dec in corpus_decompositions.items():
        f = corpus[name]
        for m in range(6):
            n_m = count_roots_mod(f, p, m) if m >= 1 else 1
            n_m1 = count_roots_mod(f, p, m + 1)
            oracle = Fraction(n_m, p**m) - Fraction(n_m1, p ** (m + 1))
            assert measure_of_order(dec, f, m) == oracle, (name, p, m)
    _report(3, "measure_of_order equals N_m p^-m - N_{m+1} p^-(m+1) for all m <= 5")


def test_criterion_4_igusa_closed_forms(corpus, corpus_decompositions):
    for k in (1, 2, 3):
        for p in (3, 5, 7):
            f = Poly.of(*([0] * k + [1]))
            z = igusa_zeta(prepare(f, p), f)
            want = ZetaFn.of(Poly.of(1 - Fraction(1, p)),
                             Poly.of(*([1] + [0] * (k - 1) + [Fraction(-1, p)])))
            assert z == want, (k, p)
    for (name, p), dec in corpus_decompositions.items():
        z = igusa_zeta(dec, corpus[name])
        assert z.eval(Fraction(1)) == 1, (name, p)
    _report(4, "Z(t) for y^k matches (1-1/p)/(1-t^k/p) and Z(1) = 1 on the corpus")


def _liftable_class_count(w: Poly, x0: RvData, p: int) -> int:
    """Brute-force oracle: distinct classes mod p^6 inside the rv-class that
    lift to roots mod p^10."""
    deep, shallow = 10, 6
    m, u, d = x0.valuation, x0.unit, x0.depth
    prefixes = set()
    stack = [(u, d)]
    while stack:
        c, j = stack.pop()
        if j == deep:
            prefixes.add(c % p**shallow)
            continue
        wq = w.shift_var(Fraction(p) ** m, 0)
        val = wq.eval(Fraction(c))
        if ord_p(val, p) < j:
            continue
        for t in range(p):
            cc = c + t * p**j
            if ord_p(wq.eval(Fraction(cc)), p) >= min(j + 1, deep):
                stack.append((cc, j + 1))
    return len(prefixes)


def test_criterion_5_hensel_suite(corpus):
    import random

    cases = 0
    for name, f in corpus.items():
        w = squarefree_part(f)
        if w.degree < 1:
            continue
        coeffs = list(w.coeffs)
        for p in PRIMES:
            for m in (0, 1):
                for u in range(1, p):
                    x0 = rv(Fraction(u) * p**m, p, 1)
                    accepted = None
                    for lift in range(p * p):
                        x = Fraction(u + lift * p) * p**m
                        got = check_conditions(coeffs, x, x0, 1, p)
                        if got is not None:
                            accepted = x
                            break
                    if accepted is None:
                        continue
                    cases += 1
                    root = h(coeffs, x0, p)
                    assert root is not None, (name, p, x0)
                    rr = refine_root(root, max(root.precision, 6))
                    # f(y0) = 0 mod p^precision and the rv tag matches
                    assert ord_p(w.eval(rr.approx), p) >= rr.precision or rr.is_exact
                    assert rv(rr.approx, p, 1) == x0
                    # oracle uniqueness of the lifted class
                    assert _liftable_class_count(w, x0, p) == 1, (name, p, x0)
                    # the (h5) identity on 50 sampled w
                    b1 = order_law_at_root(w, rr)
                    deep = refine_root(rr, 30)
                    rng = random.Random(hash((name, p, m, u)) & 0xFFFF)
                    for _ in range(50):
                        samp = Fraction(u + p * rng.randrange(1, p**9)) * p**m
                        dist = ord_p(samp - deep.approx, p)
                        assert dist < deep.precision
                        assert ord_p(w.eval(samp), p) == b1 + dist
    assert cases >= 40
    _report(5, f"{cases} accepted rv-classes: h roots verified, uniqueness and "
               f"(h5) identity confirmed by the oracle")


def test_criterion_6_paper_examples():
    # cubes in Z_7, presented by (ord, ac)
    phi = FAnd(FAtom(OrdModEq(Y, 3, 0)),
               FOr(FAtom(AcEq(1, Y, 1)), FAtom(AcEq(1, Y, 6))))
    dec = decompose_set(phi, 7)
    mu = decomposition_measure(dec, kept_only=True)
    # oracle at k=4: count residues mod 7^4 that are cubes of units times 7^3v
    cube_units = {pow(x, 3, 7) for x in range(1, 7)}
    n_lower = 0
    for r in range(1, 7**4):
        v = 0
        rr = r
        while rr % 7 == 0:
            rr //= 7
            v += 1
        if v % 3 == 0 and pow(rr, (7 - 1) // 3, 7) == 1:
            n_lower += 1
    assert Fraction(n_lower, 7**4) <= mu <= Fraction(n_lower + 1, 7**4)
    # the exact limit via the self-similarity mu (1 - p^-3) = (#cube units mod 7)/7
    assert mu * (1 - Fraction(1, 7**3)) == Fraction(len(cube_units), 7)
    # presentation by (ord, ac): kept cells are centered at 0 with depth-1
    # residue constraints and an ord-progression
    for cell in dec.kept_cells:
        assert cell.center.value == 0 and cell.residues.depth == 1
        assert cell.m_range.step == 3
    assert verify_partition(dec, 4).ok

    # Z_5 minus {5}: one (1)-cell presented by rv(y - 5)
    phi2 = FNot(FAtom(RvEq(2, Poly.of(-5, 1), RvData.zero(2))))
    dec2 = decompose_set(phi2, 5)
    kept = dec2.kept_cells
    assert all(c.kind == 1 for c in kept)
    assert len(kept) == 1 and kept[0].center.value == 5
    rep = verify_partition(dec2, 4)
    assert not rep.violations
    _report(6, "P_3 over Z_7 measures 49/171 (oracle-bracketed, exact at k=4); "
               "Z_5 minus a point is one rv-presented (1)-cell")


def _punctured(p, depth):
    zero = Center(Fraction(0), 1, TConst(Fraction(0)))
    return Decomposition(p, ZP, sorted_cells([
        Cell1(p, zero, None, None, {}, keep=False),
        Cell1(p, zero, ArithRange(0, None), Residues(depth, p=p), {}, keep=True),
    ]))


def test_criterion_7_chi_and_cv():
    pairs = []
    for p in PRIMES:
        pairs.append((_punctured(p, 1), _punctured(p, 2)))           # depth 1 vs 2
        pairs.append((prepare(Y, p), prepare(Poly.of(-1, 1), p)))    # center 0 vs 1
    pairs.append((_punctured(5, 1), _punctured(5, 3)))
    pairs.append((prepare(Poly.of(-1, 0, 1), 5), prepare(Y, 5)))
    assert len(pairs) == 10
    for i, (a, b) in enumerate(pairs):
        assert cv_check(a, b), i

    # additivity: chi of a disjoint union is the multiset union
    a, b = chi(_punctured(3, 1)), chi(_punctured(3, 2))
    union = k0_add(a, b)
    assert sum(m for _, m in union.parts) == \
        sum(m for _, m in a.parts) + sum(m for _, m in b.parts)

    # product grading: chi of product cells = product of chis, grade adds
    for p in (3, 5):
        D = prepare(Y, p)
        cells = list(D.cells)
        prod = chi_product([product([x, z]) for x in cells for z in cells])
        assert prod == k0_mul(chi(D), chi(D))
    _report(7, "cv_check true on 10 pairs; chi additivity and product grading exact")


def test_criterion_8_dimension():
    for p in PRIMES:
        assert dim_of(prepare(Y, p)) == 1
    # product additivity on 10 examples
    D5, D3 = prepare(Y, 5), prepare(Y, 3)
    pts5 = [c for c in D5.cells if c.is_point]
    pts3 = [c for c in D3.cells if c.is_point]
    product_examples = [
        (D5, D5), (D3, D3), (D5, pts5), (pts5, D5), (pts5, pts5),
        (D3, pts3), (pts3, pts3), (D5, list(D5.cells)), (pts3, D3),
        (list(D5.cells), pts5),
    ]
    assert len(product_examples) == 10
    for xa, xb in product_examples:
        assert verify_dim_product(xa, xb)
    assert dim_product(None, 1) is None

    # union-max on 10 disjoint-union examples: spheres ord(y) = k are disjoint
    sphere = lambda p, k: decompose_set(FAtom(OrdCmp(Y, None, k, "=")), p)
    union_examples = []
    for p in (3, 5):
        union_examples.append([sphere(p, 0), sphere(p, 1)])
        union_examples.append([sphere(p, 0), sphere(p, 2)])
        union_examples.append([sphere(p, 1), sphere(p, 3)])
    union_examples.append([sphere(7, 0)])
    union_examples.append([sphere(7, 1), sphere(7, 2)])
    union_examples.append([sphere(2, 0), sphere(2, 1)])
    union_examples.append([sphere(2, 2)])
    assert len(union_examples) == 10
    for decs in union_examples:
        assert dim_union(decs) == 1
    assert dim_union([]) is None
    assert dim_of([]) is None
    _report(8, "dim Z_p = 1; 10 product and 10 union examples exact; "
               "empty-set convention holds")


def test_criterion_9_negative_controls(capsys):
    # overlapping cells are detected
    p = 5
    zero = Center(Fraction(0), 1, TConst(Fraction(0)))
    overlap = Decomposition(p, ZP, sorted_cells([
        Cell1(p, zero, None, None, {}),
        Cell1(p, zero, ArithRange(0, None), Residues(1, p=p), {}),
        Cell1(p, zero, ArithRange(2, 2), Residues(1, p=p), {}),
    ]))
    rep = verify_partition(overlap, 4)
    assert rep.violations
    assert not exact_partition_check(overlap).disjoint

    # an off-by-one law is detected and localized
    f = Poly.of(-1, 0, 1)
    D = prepare(f, p)
    cells = list(D.cells)
    idx = next(i for i, c in enumerate(cells)
               if not c.is_point and c.law_for(f).e0 is not INFINITY)
    law = cells[idx].law_for(f)
    cells[idx] = cells[idx].with_laws({f: OrderLaw(law.e0 + 1, law.i0)})
    bad = Decomposition(p, ZP, tuple(cells))
    rep2 = verify_laws(bad, f, samples=60)
    assert rep2.failures and {x.cell_index for x in rep2.failures} == {idx}

    # quantified input exits with code 2; the zero polynomial with 3
    assert cli_main(["decompose", "--prime", "5", "--formula", "exists y (y = 0)"]) == 2
    capsys.readouterr()
    assert cli_main(["decompose", "--prime", "5", "--poly", "0"]) == 3
    capsys.readouterr()
    _report(9, "corrupted fixtures flagged by the oracle; quantifiers exit 2, "
               "zero polynomial exits 3")

"""Seeded differential fuzz of the grouped decomposition at large p, against
the brute-force oracle only.

Each case draws a polynomial of degree 1 to 8 over Z, built around planted
structure -- a repeated root, two roots that agree in their first digits,
or a double residual root that lifts to no root in Q_p -- times a random
factor, a prime from PRIMES, and the domain Z_p or a random ball, centered
at a planted root half of the time.  `prepare_grouped` decomposes the
domain, and so does `prepare`, the listed form, at p <= 13.  The case fails
when, on either form,

- `measure_of_order` differs from the oracle's `order_tails` for some order
  below the case's depth k,
- `exact_partition_check` finds an overlap or a gap,
- `verify_partition` at depth k finds a violation, or
- `verify_laws` finds a law failure on some cell.

k is the domain's radius plus four digits at p < 100 and two above.  The
oracle's root count follows only the classes whose constant Taylor line does
not fix ord f below k, so it stays well inside its classes bound at every
prime, a double root included.  Every failure names the
case's seed, prime, polynomial and domain; the seed alone re-draws it:

    PYTHONPATH=src python3 tests/large_p_fuzz.py --seed 1 --cases 300
    PYTHONPATH=src python3 tests/large_p_fuzz.py --case-seed 1000042
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from padic_cells.cells import ZP, Ball
from padic_cells.decompose import prepare, prepare_grouped
from padic_cells.measure import exact_partition_check, measure_of_order
from padic_cells.oracle import order_tails, verify_laws, verify_partition
from padic_cells.poly import Poly, format_poly

PRIMES = (11, 13, 31, 101, 257, 1009, 4099, 10007)
SAMPLES = 30


@dataclass(frozen=True)
class Case:
    seed: int
    p: int
    f: Poly
    domain: Ball
    k: int

    def __str__(self) -> str:
        return (f"case seed {self.seed}: p = {self.p}, f = {format_poly(self.f)}, "
                f"domain = {self.domain}, k = {self.k}")


def _linear(a: int) -> Poly:
    return Poly.of(-a, 1)


def _planted(rng: random.Random, p: int, a: int) -> Poly:
    """Structure around the integer a: (y - a)^e, two roots a and a + p^j c
    with c prime to p, or (y - a)^2 - p^(2j+1) c, whose two roots agree with
    a in j digits and lie in a ramified extension, not in Q_p."""
    kind = rng.randrange(3)
    j = rng.randint(1, 3)
    c = rng.choice([x for x in range(-5, 6) if x % p])
    if kind == 0:
        return _linear(a) * _linear(a) * (_linear(a) if rng.random() < 0.5 else Poly.of(1))
    if kind == 1:
        return _linear(a) * _linear(a + c * p**j)
    return _linear(a) * _linear(a) - Poly.of(c * p ** (2 * j + 1))


def draw(seed: int) -> Case:
    rng = random.Random(seed)
    p = rng.choice(PRIMES)
    degree = rng.randint(1, 8)
    a = rng.randrange(-p * p, p * p)
    f = _linear(a) if degree == 1 else _planted(rng, p, a)
    while f.degree < degree:
        # the rest of the degree: a random linear factor or a random factor
        extra = rng.randint(1, degree - f.degree)
        lead = rng.choice([x for x in range(-3, 4) if x])
        g = Poly.of(*[rng.randint(-p * p, p * p) for _ in range(extra)], lead)
        f = f * (g if rng.random() < 0.5 else _linear(rng.randrange(-p * p, p * p)))
    if rng.random() < 0.5:
        domain = ZP
    else:
        radius = rng.randint(1, 2)
        near = a if rng.random() < 0.5 else rng.randrange(p**radius)
        domain = Ball(Fraction(near % p**radius), radius)
    extra_digits = 4 if p < 100 else 2
    return Case(seed, p, f, domain, domain.radius_ord + extra_digits)


def check(case: Case) -> list[str]:
    """What the oracle finds wrong with the case's decompositions."""
    p, f, k = case.p, case.f, case.k
    forms = {"grouped": prepare_grouped}
    if p <= 13:
        forms["listed"] = prepare
    tails = order_tails(f, p, case.domain, k)
    problems = []
    for form, build in forms.items():
        dec = build(f, p, case.domain)
        for m in range(k):
            got, want = measure_of_order(dec, f, m), tails[m] - tails[m + 1]
            if got != want:
                problems.append(f"{form}: mu(ord f = {m}) is {got}, the oracle counts {want}")
        part = exact_partition_check(dec)
        if not part.ok:
            problems.append(f"{form}: exact partition check: {part}")
        report = verify_partition(dec, k)
        if report.violations:
            problems.append(f"{form}: verify_partition at k = {k}: {report.violations[:5]}")
        laws = verify_laws(dec, f, samples=SAMPLES, seed=case.seed)
        if laws.failures:
            problems.append(f"{form}: verify_laws: {len(laws.failures)} failures, "
                            f"first {laws.failures[0]}")
    return problems


def run(seed: int, cases: int) -> list[str]:
    """A message per failing case among the cases of the base seed."""
    failures = []
    for i in range(cases):
        case = draw(seed * 10**6 + i)
        try:
            problems = check(case)
        except Exception as exc:  # a crash is a finding too, with its input
            problems = [f"raised {type(exc).__name__}: {exc}"]
        failures += [f"{case}: {problem}" for problem in problems]
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="base seed of the cases")
    ap.add_argument("--cases", type=int, default=300, help="number of cases")
    ap.add_argument("--case-seed", type=int, help="re-run the one case of this seed")
    args = ap.parse_args(argv)
    if args.case_seed is not None:
        case = draw(args.case_seed)
        failures = [f"{case}: {problem}" for problem in check(case)]
        total = 1
    else:
        failures, total = run(args.seed, args.cases), args.cases
    for line in failures:
        print(line)
    print(f"{total} cases, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

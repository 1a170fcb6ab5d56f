import importlib.util
import random
from pathlib import Path

import pytest

from padic_cells.poly import Poly

# degree 1..4, integer coefficients in [-20, 20]
CORPUS = {
    "y": [0, 1],
    "y^2": [0, 0, 1],
    "y^3": [0, 0, 0, 1],
    "y^2-1": [-1, 0, 1],
    "y^2-2": [-2, 0, 1],
    "y^2-3": [-3, 0, 1],
    "y^2-5": [-5, 0, 1],
    "y^2-7": [-7, 0, 1],
    "y^3-y": [0, -1, 0, 1],
    "(y-1)^2(y+1)": [1, -1, -1, 1],
    "y+1": [1, 1],
    "2y+1": [1, 2],
    "3y-2": [-2, 3],
    "y^2+1": [1, 0, 1],
    "y^2+y+1": [1, 1, 1],
    "y^2-6": [-6, 0, 1],
    "y^3-2": [-2, 0, 0, 1],
    "y^3+y+1": [1, 1, 0, 1],
    "y^3-y^2+20": [20, 0, -1, 1],
    "y^4-1": [-1, 0, 0, 0, 1],
    "y^4-2": [-2, 0, 0, 0, 1],
    "y^4+y^2+1": [1, 0, 1, 0, 1],
    "(y^2-1)^2": [1, 0, -2, 0, 1],
    "17y^4-20y^3+3y-19": [-19, 3, 0, -20, 17],
    "y^4-y": [0, -1, 0, 0, 1],
}

PRIMES = [2, 3, 5, 7]


@pytest.fixture(scope="session")
def corpus():
    return {name: Poly.of(*coeffs) for name, coeffs in CORPUS.items()}


@pytest.fixture(scope="session")
def corpus_decompositions(corpus):
    """prepare() for every corpus entry and prime, computed once."""
    from padic_cells.decompose import prepare

    out = {}
    for name, f in corpus.items():
        for p in PRIMES:
            out[name, p] = prepare(f, p)
    return out


def large_prime_polys() -> list[Poly]:
    """The polynomials of the large-prime benchmark pool: y^2 - 1, (y^2 - 1)^3
    and its seeded products of 2, 2, 3 and 4 linear factors over Z."""
    rng = random.Random("20061001:large-prime")
    polys = [Poly.of(-1, 0, 1), Poly.of(-1, 0, 3, 0, -3, 0, 1)]
    for degree in (2, 2, 3, 4):
        f = Poly.of(rng.choice([1, 1, 2, 3]))
        for _ in range(degree):
            f = f * Poly.of(-rng.randint(-12, 12), 1)
        polys.append(f)
    return polys


def formula_pool() -> list[tuple[str, int]]:
    """(formula text, prime) of every formula in the formulas benchmark pool,
    as perfbench/workloads.py builds it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(e["argv"][e["argv"].index("--formula") + 1], e["prime"])
            for e in workloads.build_pool("formulas") if e["kind"] == "decompose"]

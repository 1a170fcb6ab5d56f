"""`decompose_set` refines the grouped form of `prepare_grouped`, where each
rootless tie group is one cell, unless `listed` asks for the listed form of
`prepare`, which `chi` still reads.  On seeded formulas of one to four atoms
the two forms are the same set under `cv_check`, with the same total and
kept measures, the same dimension and, for the grouped form, an exact
partition that the oracle's scan finds no fault in, in no more cells; the
grouped cells as `decompose` prints them give the same total and kept
measures when read as the benchmark reads a payload
(`perfbench/reference.py`); and at small p both forms keep exactly the
integers below p^k that satisfy the formula."""

import json
import random

import pytest
from test_formula_fuzz import check_exhaustive
from test_grouped_output import reference

from padic_cells.cli import _cell_json, main
from padic_cells.decompose import decompose_set
from padic_cells.dim import dim_of
from padic_cells.kgroup import cv_check
from padic_cells.measure import decomposition_measure, exact_partition_check
from padic_cells.oracle import verify_partition
from padic_cells.parser import parse_formula

# k by p: both forms are checked against the formula at every integer below p^k
EXHAUSTIVE_DEPTH = {2: 5, 3: 3, 5: 2}
POLYS = ["y", "y - 1", "y + 1", "2*y - 1", "y^2 - 1", "y^2 - 2", "y^2 + 1", "y^2 - y",
         "y^3 - y", "y^2 - 5"]


def _atom(rng: random.Random, p: int) -> str:
    f, g = rng.choice(POLYS), rng.choice(POLYS)
    rel = rng.choice(("<", "<=", "=", ">=", ">"))
    kind = rng.randrange(6)
    if kind == 0:
        return f"ord({f}) {rel} {rng.randint(-1, 3)}"
    if kind == 1:
        offset = rng.randint(-1, 2)
        return f"ord({f}) {rel} ord({g}) {'-' if offset < 0 else '+'} {abs(offset)}"
    if kind == 2:
        q = rng.randint(2, 3)
        return f"ord({f}) % {q} = {rng.randrange(q)}"
    if kind == 3:
        return f"ac(1, {f}) = {rng.randint(1, p - 1) if p > 2 else 1}"
    if kind == 4:
        return f"rv(1, {f}) = ({rng.randint(0, 2)}, {rng.randint(1, p)})"
    return f"{f} = 0"


def _formula(rng: random.Random, p: int) -> str:
    phi = _atom(rng, p)
    for _ in range(rng.randint(0, 3)):
        other = _atom(rng, p)
        if rng.random() < 0.3:
            other = f"!({other})"
        phi = f"({phi} {rng.choice('&|')} {other})"
    return phi


def _cases() -> list[tuple[int, str]]:
    rng = random.Random(20061028)
    return [(p, _formula(rng, p)) for p in (2, 3, 5, 7, 11) * 12 + (31, 101) * 2]


@pytest.mark.parametrize("p,text", _cases())
def test_grouped_formula_is_the_listed_set(p, text):
    phi = parse_formula(text)
    listed, grouped = decompose_set(phi, p, listed=True), decompose_set(phi, p)
    assert cv_check(listed, grouped)
    for kept_only in (False, True):
        assert decomposition_measure(grouped, kept_only) == \
            decomposition_measure(listed, kept_only)
    assert dim_of(grouped) == dim_of(listed)
    assert exact_partition_check(grouped).ok
    if p <= 7:
        assert not verify_partition(grouped, 3).violations
    assert len(grouped.cells) <= len(listed.cells)
    printed = [_cell_json(c, {}, {}, {}) for c in grouped.cells]
    for kept_only in (False, True):
        assert reference.cells_measure(printed, p, kept_only=kept_only) == \
            decomposition_measure(listed, kept_only)
    if p in EXHAUSTIVE_DEPTH:
        for dec in (listed, grouped):
            check_exhaustive(phi, p, EXHAUSTIVE_DEPTH[p], dec)


@pytest.mark.parametrize("p", [31, 101, 1009])
def test_a_formula_on_a_group_does_not_grow_with_p(capsys, p):
    # y^2 - 1 has one rootless tie group on ord(y) = 0; the listed form cuts
    # it into 2·(p - 3) cells
    text = "ord(y^2 - 1) = 0"
    assert main(["decompose", "--json", "--prime", str(p), "--formula", text]) == 0
    assert len(json.loads(capsys.readouterr().out)["cells"]) == 7

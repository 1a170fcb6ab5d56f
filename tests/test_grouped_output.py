"""`decompose --poly` prints and verifies the grouped form of
`prepare_grouped`, where each rootless tie group is one cell: the sphere
ord(y - c) = m* around the tie's center c, with the first digits of its
classes as residues.  Against the listed form of `prepare`, which has a
point and a family per class, it is the same set under `cv_check` with the
same measure of each order, and its printed cells give the same measures
when read as the benchmark reads a payload (`perfbench/reference.py`)."""

import importlib.util
import json
from pathlib import Path

import pytest
from conftest import CORPUS, large_prime_polys

from padic_cells.cli import _cell_json, main
from padic_cells.decompose import prepare, prepare_grouped
from padic_cells.kgroup import cv_check
from padic_cells.measure import measure_of_order
from padic_cells.parser import parse_poly
from padic_cells.poly import Poly, format_poly

QUARTIC = "y^4 - 17*y^3 + 5*y^2 + 737*y - 726"


def _load_reference():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def _printed_cells(capsys, f: Poly, p: int) -> list[dict]:
    assert main(["decompose", "--json", "--prime", str(p), "--poly", format_poly(f)]) == 0
    return json.loads(capsys.readouterr().out)["cells"]


def _reading(cells: list[dict], p: int, key: str) -> tuple:
    """The total measure and the measure of each order, as `answer_of`
    reads them from a payload's cells."""
    return (reference.cells_measure(cells, p),
            [reference.cells_measure(cells, p, m, key) for m in range(reference.levels(p))])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31, 101])
def test_printed_groups_are_the_listed_set(capsys, p):
    polys = large_prime_polys() if p == 101 else [Poly.of(*c) for c in CORPUS.values()]
    for f in polys:
        listed, grouped = prepare(f, p), prepare_grouped(f, p)
        assert cv_check(listed, grouped), (f, p)
        assert [measure_of_order(grouped, f, m) for m in range(4)] == \
            [measure_of_order(listed, f, m) for m in range(4)], (f, p)
        key = format_poly(f)
        printed = _printed_cells(capsys, f, p)
        assert len(printed) == len(grouped.cells), (f, p)
        listed_json = [_cell_json(c, {}, {}, {}) for c in listed.cells]
        assert _reading(printed, p, key) == _reading(listed_json, p, key), (f, p)


@pytest.mark.parametrize("text", ["y^2 - 1", QUARTIC])
def test_printed_cells_do_not_grow_with_p(capsys, text):
    """`prepare` lists 2·(p - 1 - r) cells per rootless tie; `decompose`
    prints the grouped cells instead.  How many depends on which roots of the
    derivative tower lie in Z_p (the quartic has 28 at p = 1009 and 18 at
    p = 10007), not on the size of p."""
    f = parse_poly(text)
    counts = []
    for p in (1009, 10007):
        cells = _printed_cells(capsys, f, p)
        assert len(cells) == len(prepare_grouped(f, p).cells) <= 40, p
        counts.append(len(cells))
    if text == "y^2 - 1":
        assert counts == [7, 7]


def test_a_group_prints_as_one_sphere_with_its_first_digits(capsys):
    # y^2 - 1 at p = 1009: the rootless classes of the tie at 0 are the
    # units 2, ..., 1007, one cell on the sphere ord(y) = 0
    groups = [c for c in _printed_cells(capsys, parse_poly("y^2 - 1"), 1009)
              if c["m_range"] != "point" and c["residue"]["units"] != "all"]
    assert len(groups) == 1
    assert groups[0]["m_range"] == {"lo": 0, "hi": 0, "step": 1}
    assert groups[0]["residue"] == {"depth": 1, "units": [str(u) for u in range(2, 1008)]}

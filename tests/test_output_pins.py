"""Byte identity of printed output, read from the sweep manifest.

`tools/sweep_manifest.json` is the one record of what a request prints: for
every request of `tools/sweep.py`, in order, the first 16 hex digits of the
sha256 of its exit code, stdout and stderr, and a digest of the request list.
CI checks every request against it.  Tier-1 runs this slice in process and
compares each with the manifest entry at the same index:

- `decompose --json` of the corpus at p in {2, 3, 5, 7}, and of y^2 - 1 at
  p = 31, on Z_p;
- every corpus request at p = 5 on Z_p of `zeta`, `chi`, `dim`, `measure`,
  `preserves-balls` and `oracle-compare`;
- the requests of `sweep.PINS`: the factored corpus entries written out
  expanded, ten formulas, and text output of `decompose`, `zeta` and `chi`.

A cleanup that changes a printed byte fails here.  A change meant to alter
output rewrites the manifest with `python3 tools/sweep.py --update src`, after
`--check` has shown only the requests it means to change, and lists them in
CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("sweep", TOOLS / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

MANIFEST = json.loads((TOOLS / "sweep_manifest.json").read_text())
REQUESTS = sweep.requests()
UPDATE = "python3 tools/sweep.py --update src"
AT_FIVE = set(sweep.CORPUS) | {sweep.ac_rv_formula(f, 5) for f in sweep.CORPUS}
PINS = set(map(tuple, sweep.PINS))


def _in_slice(argv: list[str]) -> bool:
    if tuple(argv) in PINS:
        return True
    after = dict(zip(argv, argv[1:]))
    if "--json" not in argv or "--verify" in argv or after.get("--domain", "zp") != "zp":
        return False
    prime, subject = after.get("--prime"), after.get("--poly", after.get("--formula"))
    if argv[0] == "decompose":
        return "--poly" in after and (subject in sweep.CORPUS and prime in ("2", "3", "5", "7")
                                      or (subject, prime) == ("y^2 - 1", "31"))
    return prime == "5" and subject in AT_FIVE and argv[0] in (
        "zeta", "chi", "dim", "measure", "preserves-balls", "oracle-compare")


SLICE = [i for i, argv in enumerate(REQUESTS) if _in_slice(argv)]
LIST_MATCHES = (MANIFEST["requests"] == sweep.request_list_digest()
                and len(MANIFEST["digests"]) == len(REQUESTS))
STALE = ("the request list of tools/sweep.py is not the one tools/sweep_manifest.json was "
         f"written for: rerun {UPDATE} on a tree whose output is known to be right")


def test_the_manifest_is_written_for_the_request_list():
    assert LIST_MATCHES, STALE


def test_the_slice_covers_every_pinned_request():
    # sweep.PINS, the corpus decompositions at four primes, y^2 - 1 at
    # p = 31, and seven requests of each corpus polynomial at p = 5
    assert len(SLICE) >= len(PINS) + len(sweep.CORPUS) * (4 + 7) + 1


@pytest.mark.parametrize("index", SLICE, ids=lambda i: " ".join(REQUESTS[i]))
def test_output_matches_the_manifest(index):
    assert LIST_MATCHES, STALE
    argv = REQUESTS[index]
    assert sweep.request_digest(argv)[:16] == MANIFEST["digests"][index], (
        f"`padic-cells {' '.join(argv)}` (sweep request {index}) no longer prints what "
        f"tools/sweep_manifest.json records; if the change is meant, rerun {UPDATE} and "
        "list the changed requests in CHANGES.md")

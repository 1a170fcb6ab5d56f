"""Byte-identity pins for `decompose --json` and for text output.

Each digest is the first 16 hex digits of the sha256 of the command's stdout.
The JSON pins were recorded before the center queries were consolidated in
`hensel`; the text pins before the law table became a mapping, since text
output prints each cell's laws in the order the CLI sorts them.  The formula
pins and the two formula text pins were taken again when `k_depth` began to
report the deepest residue depth of the cells; nothing else changed.  The
polynomial pins were taken again when `decompose --poly` began to print the
grouped form, each rootless tie group as one cell; the formula pins did not
change.  Seven formula pins and the text pin of the formula at p = 7 were
taken again when `decompose_set` began to refine the grouped form of each
polynomial, so that a group stays one cell unless an atom or another
polynomial cuts it; the other three formula pins did not change.  Six
corpus pins and the text pin of y^3 - y at p = 5 were taken again when a
rootless group began to go up the derivative tower as an ordinary family
cell, so that a group class holding a root of a higher polynomial is
centered at that root, not one digit deeper; the other pins did not
change.  A cleanup that changes a decomposition, even by one byte, fails
here; a change that is meant to alter decompositions must update these
digests and say why in CHANGES.md.
"""

import hashlib

import pytest
from conftest import CORPUS, PRIMES

from padic_cells.cli import main
from padic_cells.poly import Poly, format_poly

CORPUS_PINS = {
    "y": ("222cc74b2cf10c49", "42b33ec02c222a6d", "beb6e4d298e91c7c", "97cd6e9bf44c231a"),
    "y^2": ("e59441764ea62d2c", "957caaac883b310b", "a2db0f37e64c430b", "b0146f28c3cf51f1"),
    "y^3": ("f6c77c477b9ffee8", "c5f18c9960b786ef", "d142d91673f6c56e", "0575e6494c3f01ed"),
    "y^2-1": ("c8c673bb7ec92dbb", "b739ba059eece40b", "7a5bafbc036b2094", "b66c0e4e1683db6e"),
    "y^2-2": ("5141fd8ea3e8b63c", "3e91f2601cd5508e", "446ce24d3d288eb7", "c861ebaf3477d437"),
    "y^2-3": ("983d03f3c1979472", "167ab0fcbdae0e10", "d1b37fe8faacac35", "ee3f476ab1b4835e"),
    "y^2-5": ("8509ed3e23bdeb66", "8acab3462b89ec73", "264acabc1dd6dd13", "311c0a9fca37513b"),
    "y^2-7": ("0ec1cc1424b6b5d9", "5a60723229682bf4", "628b4f71da06b3f0", "b0059fd68bc68da8"),
    "y^3-y": ("609a402610209166", "d2b29d12bf4cb66b", "e7183a93d3339469", "df0c89b8d900b65f"),
    "(y-1)^2(y+1)": ("00ab00ed73570e80", "7d6d0e5ca4b2e14f", "509f3d78e96012f3", "7b5c8d8f7104125e"),
    "y+1": ("3f14030d1b7d9b56", "c647cfaa6bd3712f", "3d5f13391659f25d", "bca8c2fd7b7a0f25"),
    "2y+1": ("e22220b05844eaa0", "16000113f89305e7", "6b406559623f5431", "a3491e22171586f4"),
    "3y-2": ("27f869ac51ea096a", "a74444ead1ed315a", "2ce25887bbc5566d", "105f0d6ea783965e"),
    "y^2+1": ("8b8c6afe1bde9504", "781eead5bf686094", "17551df5506b9dd0", "745e0c2b44a3c6d9"),
    "y^2+y+1": ("a6f597298a60eb76", "c2f549fe47e23885", "188e3307156c2c90", "583510e2f188d1cf"),
    "y^2-6": ("18689be4527744ee", "e6ee55bd8ff3b385", "eb5b04839811f0f8", "b86703a717df7399"),
    "y^3-2": ("7a67732d47df36ba", "bd18216008737990", "f84e8533be3b9805", "a1bbb8260cc87584"),
    "y^3+y+1": ("36d71cd39beae5bd", "333828214ac28b3d", "de1a54fbf6da6bee", "6ef04795444d0567"),
    "y^3-y^2+20": ("eecc481ef1b1343a", "f5ae3ee48d4929a3", "b5606f3dc9aabeaf", "46ee2a9e725dd475"),
    "y^4-1": ("34d5e574d90fc13d", "0798fdeec4aa0126", "a653b61986bda7b0", "211c4126f43db48e"),
    "y^4-2": ("f756e77547486f2b", "aeb501544b86fa0b", "7590dc54d11e7d0d", "cbd17c04902ec132"),
    "y^4+y^2+1": ("a6ed249e486d2057", "17f61ab4ffbdc465", "32a700c576afed0d", "92be55c5ef1cabdd"),
    "(y^2-1)^2": ("c3fac12e94641a57", "e9aeeb220918afd7", "c2ff5deaaf116799", "42fbbc0eef80d773"),
    "17y^4-20y^3+3y-19": ("32b63eca5fee9b7b", "273435c62f7c0ce2", "80b22e85b1c1ff28", "9fd644db3986e38d"),
    "y^4-y": ("5fd2cf2310a366a7", "62dc154fd74e3ccd", "de2c4c6384a69ea6", "764bd0cb37699773"),
}

FORMULA_PINS = [
    (3, "(rv(1, y^2 - y) = (2, 2) | ((ord(y^2 - y) % 3 = 1 | rv(1, y^2 - y) = (2, 2)) "
        "& rv(3, y^2 - y) = (0, 10)))", "b8ac9206cfe053f6"),
    (3, "(!(ord(y^2 - 2) <= 2) & (ac(2, 2*y + 1) = 4 | rv(2, y^2 - 2) = (1, 7)))",
     "2de72e175e5f5cbd"),
    (5, "(ord(y^2 + 1) <= 3 | rv(3, y^2 + 1) = (0, 82))", "8bb070df7d32dffd"),
    (5, "(ord(y) > 2 & (rv(1, y + 1) = (0, 1) & ord(y + 1) = ord(y) + 1))", "66405988feb26d5a"),
    (5, "(((!(ord(y^2 - y) >= 3) & ord(y^2 - y) % 2 = 1) & ac(1, y^2 - y) = 1) "
        "| ord(y + 1) < 3)", "77cf4316effed367"),
    (7, "(((ord(2*y + 1) <= ord(y^2 - 1) + 1 & rv(3, y^2 - 1) = (0, 93)) "
        "| !(ac(2, 2*y + 1) = 19)) & ord(y^2 - 1) <= 1)", "45b6a8d65fc70cb3"),
    (7, "(ac(3, y + 1) = 158 | ord(y^2 + 1) = 3)", "43529c512a1deb2f"),
    (7, "(ac(2, y^2 - 2) = 10 & ord(y - 3) % 2 = 1)", "c0252b70553ef9b7"),
    (11, "(((ord(y - 2) <= ord(y^2 - 2) + 2 & ord(y - 2) < ord(y^2 - 2) - 1) "
         "& ord(y^2 - 2) >= ord(y - 2) - 1) | ord(y^2 - 2) > 1)", "125f6cd13aee21a9"),
    (11, "(!(rv(1, y - 1) = (0, 10)) | (ord(y - 2) <= ord(y - 1) - 1 & ac(1, y - 1) = 1))",
     "42e2806de40267a7"),
]


TEXT_PINS = [
    (["decompose", "--prime", "5", "--poly", "y^3 - y"], "37da0dfe6a71d12f"),
    (["decompose", "--prime", "3", "--poly", "(y^2-1)^2", "--domain", "1:1"], "7b9ea765ff52915c"),
    (["decompose", "--prime", "3", "--formula", "ord(y^2-1) >= ord(2*y+1) + 1"],
     "bb48b461e07d1d1e"),
    (["decompose", "--prime", "7", "--formula", "(ac(2, y^2 - 2) = 10 & ord(y - 3) % 2 = 1)"],
     "8243d6ca9668a771"),
    (["zeta", "--prime", "5", "--poly", "(y^2-1)^2"], "35dc1f80ccffb343"),
    (["chi", "--prime", "5", "--formula", "ord(y^2 - 1) >= 1"], "7d6d956f944e6047"),
]


def _stdout_digest(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]


def _digest(capsys, *argv: str) -> str:
    return _stdout_digest(capsys, "decompose", "--json", *argv)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_output_pinned(capsys, name):
    poly = format_poly(Poly.of(*CORPUS[name]))
    got = tuple(_digest(capsys, "--prime", str(p), "--poly", poly) for p in PRIMES)
    assert got == CORPUS_PINS[name]


@pytest.mark.parametrize("p,formula,pin", FORMULA_PINS)
def test_formula_output_pinned(capsys, p, formula, pin):
    assert _digest(capsys, "--prime", str(p), "--formula", formula) == pin


def test_large_prime_output_pinned(capsys):
    assert _digest(capsys, "--prime", "31", "--poly", "y^2 - 1") == "775d86d3a1258d46"


@pytest.mark.parametrize("argv,pin", TEXT_PINS)
def test_text_output_pinned(capsys, argv, pin):
    assert _stdout_digest(capsys, *argv) == pin

"""Byte-identity pins for `decompose --json` and for text output.

Each digest is the first 16 hex digits of the sha256 of the command's stdout.
The JSON pins were recorded before the center queries were consolidated in
`hensel`; the text pins before the law table became a mapping, since text
output prints each cell's laws in the order the CLI sorts them.  The formula
pins and the two formula text pins were taken again when `k_depth` began to
report the deepest residue depth of the cells; nothing else changed.  A cleanup
that changes a decomposition, even by one byte, fails here; a change that is
meant to alter decompositions must update these digests and say why in
CHANGES.md.
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
    "y^2-1": ("c8c673bb7ec92dbb", "b739ba059eece40b", "6ea5491fc5df58c8", "308a099c03a1e1ca"),
    "y^2-2": ("5141fd8ea3e8b63c", "936019596601b479", "9a91e7e0ba808d0f", "f775ed2933ab6a30"),
    "y^2-3": ("983d03f3c1979472", "167ab0fcbdae0e10", "f789cf7dbd6531cf", "3e30f27ead96ec9d"),
    "y^2-5": ("0d83fe2d60f599a7", "9bc4b7925db1ec8a", "264acabc1dd6dd13", "f069dac07574435b"),
    "y^2-7": ("0ec1cc1424b6b5d9", "5a60723229682bf4", "9102777808fe663e", "b0059fd68bc68da8"),
    "y^3-y": ("609a402610209166", "d2b29d12bf4cb66b", "b9a206a4a0b7da0a", "37fb21336fb36f24"),
    "(y-1)^2(y+1)": ("00ab00ed73570e80", "9b3e86fa45d2df2f", "9f7610decfb38beb", "cc8af35e3988cc99"),
    "y+1": ("3f14030d1b7d9b56", "c647cfaa6bd3712f", "3d5f13391659f25d", "bca8c2fd7b7a0f25"),
    "2y+1": ("e22220b05844eaa0", "16000113f89305e7", "6b406559623f5431", "a3491e22171586f4"),
    "3y-2": ("27f869ac51ea096a", "a74444ead1ed315a", "2ce25887bbc5566d", "105f0d6ea783965e"),
    "y^2+1": ("8b8c6afe1bde9504", "cc26f0f1ec0af7ca", "010ee3571c38daa7", "5c8b7231f5146e4a"),
    "y^2+y+1": ("61057ac57e38945a", "c2f549fe47e23885", "1b0dc1a67b08d28d", "c714a11c2b65a3d0"),
    "y^2-6": ("18689be4527744ee", "e6ee55bd8ff3b385", "6915d15745e8b63f", "c5aa34381032dd58"),
    "y^3-2": ("7a67732d47df36ba", "f0e450a5d9075160", "fabdb7ac34d6900b", "d6c931c52762aad6"),
    "y^3+y+1": ("36e3d4a13ce162b8", "6ccda91fdd9c6143", "91249e7eb1b6c25c", "40eada26949a6a5b"),
    "y^3-y^2+20": ("eecc481ef1b1343a", "22b0b83febf11bcb", "c7605b1fd6d200c5", "64e97b6fcc3391dd"),
    "y^4-1": ("34d5e574d90fc13d", "0798fdeec4aa0126", "a653b61986bda7b0", "2f0eb1e1c817fa9d"),
    "y^4-2": ("f756e77547486f2b", "8d78cc88afbb3ca0", "cd25249b38a057a7", "b2b8c861f6b97b11"),
    "y^4+y^2+1": ("915f3391f0eff62f", "17f61ab4ffbdc465", "6d15da4f31967c4f", "56dd662f0e54fcc5"),
    "(y^2-1)^2": ("c3fac12e94641a57", "e9aeeb220918afd7", "5ea0da0b79fe25a6", "395f36616ce29ba2"),
    "17y^4-20y^3+3y-19": ("32b63eca5fee9b7b", "3a88ff5ad26a2077", "490f917beff486a6", "3189c16e131396be"),
    "y^4-y": ("5fd2cf2310a366a7", "1cd9120599e94291", "1c67649b9123063c", "b741a817c58bd6ce"),
}

FORMULA_PINS = [
    (3, "(rv(1, y^2 - y) = (2, 2) | ((ord(y^2 - y) % 3 = 1 | rv(1, y^2 - y) = (2, 2)) "
        "& rv(3, y^2 - y) = (0, 10)))", "b8ac9206cfe053f6"),
    (3, "(!(ord(y^2 - 2) <= 2) & (ac(2, 2*y + 1) = 4 | rv(2, y^2 - 2) = (1, 7)))",
     "37a27f39ed80ff86"),
    (5, "(ord(y^2 + 1) <= 3 | rv(3, y^2 + 1) = (0, 82))", "9e8a9df67c0269bd"),
    (5, "(ord(y) > 2 & (rv(1, y + 1) = (0, 1) & ord(y + 1) = ord(y) + 1))", "66405988feb26d5a"),
    (5, "(((!(ord(y^2 - y) >= 3) & ord(y^2 - y) % 2 = 1) & ac(1, y^2 - y) = 1) "
        "| ord(y + 1) < 3)", "44eb4168f1b3d955"),
    (7, "(((ord(2*y + 1) <= ord(y^2 - 1) + 1 & rv(3, y^2 - 1) = (0, 93)) "
        "| !(ac(2, 2*y + 1) = 19)) & ord(y^2 - 1) <= 1)", "acde583588b05a55"),
    (7, "(ac(3, y + 1) = 158 | ord(y^2 + 1) = 3)", "ecd36e5394fe0f1f"),
    (7, "(ac(2, y^2 - 2) = 10 & ord(y - 3) % 2 = 1)", "015ac1e7bd8539a8"),
    (11, "(((ord(y - 2) <= ord(y^2 - 2) + 2 & ord(y - 2) < ord(y^2 - 2) - 1) "
         "& ord(y^2 - 2) >= ord(y - 2) - 1) | ord(y^2 - 2) > 1)", "c3215dc93d05cb2d"),
    (11, "(!(rv(1, y - 1) = (0, 10)) | (ord(y - 2) <= ord(y - 1) - 1 & ac(1, y - 1) = 1))",
     "42e2806de40267a7"),
]


TEXT_PINS = [
    (["decompose", "--prime", "5", "--poly", "y^3 - y"], "f12ec6c2ab143e88"),
    (["decompose", "--prime", "3", "--poly", "(y^2-1)^2", "--domain", "1:1"], "7b9ea765ff52915c"),
    (["decompose", "--prime", "3", "--formula", "ord(y^2-1) >= ord(2*y+1) + 1"],
     "bb48b461e07d1d1e"),
    (["decompose", "--prime", "7", "--formula", "(ac(2, y^2 - 2) = 10 & ord(y - 3) % 2 = 1)"],
     "301979f4afaba2ed"),
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
    assert _digest(capsys, "--prime", "31", "--poly", "y^2 - 1") == "9983b2ec70a9c1f0"


@pytest.mark.parametrize("argv,pin", TEXT_PINS)
def test_text_output_pinned(capsys, argv, pin):
    assert _stdout_digest(capsys, *argv) == pin

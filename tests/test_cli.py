import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import padic_cells
from padic_cells import cli, decompose
from padic_cells.cli import main
from padic_cells.decompose import AcEq, FAnd, FAtom, FNot, OrdCmp, OrdEqInf, OrdModEq
from padic_cells.errors import ParseError, UnsupportedInputError
from padic_cells.parser import parse_formula, parse_poly
from padic_cells.poly import Poly, format_poly


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def print_formula(phi) -> str:
    """The formula in the parser's surface syntax, fully parenthesized."""
    if isinstance(phi, FAtom):
        return _print_atom(phi.atom)
    if isinstance(phi, FNot):
        return f"!({print_formula(phi.sub)})"
    op = "&" if isinstance(phi, FAnd) else "|"
    return f"({print_formula(phi.left)} {op} {print_formula(phi.right)})"


def _print_atom(atom) -> str:
    if isinstance(atom, OrdCmp):
        rhs = str(atom.offset) if atom.g is None else (
            f"ord({format_poly(atom.g)})"
            + (f" + {atom.offset}" if atom.offset > 0 else f" - {-atom.offset}" if atom.offset < 0 else "")
        )
        return f"ord({format_poly(atom.f)}) {atom.rel} {rhs}"
    if isinstance(atom, OrdEqInf):
        return f"{format_poly(atom.f)} = 0"
    if isinstance(atom, OrdModEq):
        return f"ord({format_poly(atom.f)}) % {atom.modulus} = {atom.residue}"
    if isinstance(atom, AcEq):
        return f"ac({atom.depth}, {format_poly(atom.f)}) = {atom.unit}"
    tag = atom.tag
    rhs = "0" if tag.is_zero else f"({tag.valuation}, {tag.unit})"
    return f"rv({atom.depth}, {format_poly(atom.f)}) = {rhs}"


def test_parse_poly_examples():
    assert parse_poly("y^2 - 1") == Poly.of(-1, 0, 1)
    assert parse_poly("2*y + 1") == Poly.of(1, 2)
    assert parse_poly("-y^3 + 1/2") == Poly.of(Fraction(1, 2), 0, 0, -1)
    assert parse_poly("(y - 1)^2 * (y + 1)") == Poly.of(1, -1, -1, 1)


def test_parse_poly_roundtrip():
    for f in (Poly.of(-1, 0, 1), Poly.of(1, 2), Poly.of(Fraction(1, 2), 0, -3),
              Poly.of(0, -1, 0, 1), Poly.of(-19, 3, 0, -20, 17)):
        assert parse_poly(format_poly(f)) == f


def test_parse_formula_atoms():
    phi = parse_formula("ord(y^2-1) >= 2 & ac(1, y) = 2")
    assert print_formula(phi) == "(ord(y^2 - 1) >= 2 & ac(1, y) = 2)"
    phi2 = parse_formula("rv(2, y - 5) = 0 | !(y = 0)")
    assert "rv(2, y - 5) = 0" in print_formula(phi2)
    phi3 = parse_formula("ord(y) % 3 = 0")
    assert print_formula(phi3) == "ord(y) % 3 = 0"
    phi4 = parse_formula("ord(y^2-1) > ord(y) + 2")
    assert print_formula(phi4) == "ord(y^2 - 1) > ord(y) + 2"


def test_parse_formula_roundtrip():
    texts = [
        "ord(y) >= 1",
        "(ord(y) % 3 = 0 & (ac(1, y) = 1 | ac(1, y) = 6))",
        "!(rv(2, y - 5) = 0)",
        "ord(y^2 - 1) > ord(y) + 2",
        "y^2 - 1 = 0",
    ]
    for text in texts:
        phi = parse_formula(text)
        assert parse_formula(print_formula(phi)) == phi


def test_quantifiers_rejected():
    with pytest.raises(ParseError):
        parse_formula("exists y (y = 0)")
    with pytest.raises(ParseError):
        parse_poly("forall z z")


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("y^2 + $")
    assert err.value.position is not None


PARSER_TOKENS = ("y", "0", "1", "2", "5", "12", "+", "-", "*", "^", "/", "%", "(", ")", ",",
                 "=", "<", "<=", ">", ">=", "!=", "&", "|", "!", "ord", "ac", "rv",
                 "exists", "z", " ")


def test_parser_fuzz_returns_or_raises_input_errors():
    # strings of grammar tokens, now and then with one token repeated past
    # the nesting bound: every call parses or raises one of the two input
    # errors, never another exception
    rng = random.Random(1)
    for _ in range(20000):
        if rng.random() < 0.01:
            parts = [rng.choice(PARSER_TOKENS)] * rng.randint(90, 120) + ["y"]
        else:
            parts = rng.choices(PARSER_TOKENS, k=rng.randint(1, 14))
        text = rng.choice(("", " ")).join(parts)
        for parse in (parse_poly, parse_formula):
            try:
                parse(text)
            except (ParseError, UnsupportedInputError):
                pass


def test_cli_zeta(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--prime", "5", "--poly", "y", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "padic-cells/1"
    assert payload["zeta"] == {"num": ["4/5"], "den": ["1", "-1/5"], "t": "p^-s"}


def test_cli_zeta_laurent(capsys):
    # ord(y - 1/5) = -1 on Z_5, so Z(t) = 1/t
    code, out, _ = run_cli(capsys, "zeta", "--prime", "5", "--poly", "y - 1/5", "--json")
    assert code == 0
    assert json.loads(out)["zeta"] == {"num": ["1"], "den": ["0", "1"], "t": "p^-s"}


def test_cli_decompose_json(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--prime", "5", "--poly", "y^2-1",
                           "--json", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["verify"]["exact_disjoint"] and payload["verify"]["exact_cover"]
    assert payload["verify"]["partition_violations"] == 0
    assert payload["verify"]["law_failures"] == 0
    cells = payload["cells"]
    assert any(c["m_range"] == "point" for c in cells)
    assert all("laws" in c for c in cells)
    assert any("term" in c["center"] for c in cells)


def test_cli_determinism(capsys):
    a = run_cli(capsys, "decompose", "--prime", "5", "--poly", "y^2-6", "--json")
    b = run_cli(capsys, "decompose", "--prime", "5", "--poly", "y^2-6", "--json")
    assert a == b


def test_cli_oracle_compare(capsys):
    code, out, _ = run_cli(capsys, "oracle-compare", "--prime", "3", "--poly", "y^2",
                           "--k", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert len(payload["table"]) == 6


def test_cli_oracle_compare_past_a_double_root_at_large_p(capsys):
    # the quartic has the double root 11: at p = 1009 and k = 3 the count
    # prunes each class beside the root by its constant Taylor line
    code, out, _ = run_cli(capsys, "oracle-compare", "--k", "3", "--prime", "1009", "--json",
                           "--poly", "y^4 - 17*y^3 + 5*y^2 + 737*y - 726")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert len(payload["table"]) == 4


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "decompose", "--prime", "5",
                           "--formula", "exists y (y = 0)")
    assert code == 2 and "quantifier" in err
    code, _, err = run_cli(capsys, "decompose", "--prime", "5", "--poly", "0")
    assert code == 3
    code, _, err = run_cli(capsys, "zeta", "--prime", "5", "--poly", "y^2 +")
    assert code == 2


def test_cli_internal_bound_exit(capsys, monkeypatch):
    # an artificially low depth budget trips the internal-defect path
    monkeypatch.setattr(decompose, "_budget", lambda f, p, w: 3)
    code, _, err = run_cli(capsys, "decompose", "--prime", "2",
                           "--poly", "y^2 - 66*y + 65")
    assert code == 4 and "bound" in err
    # the error carries what it takes to reproduce it
    assert "y^2 - 66*y + 65" in err and "budget 3" in err


@pytest.mark.parametrize("argv,want", [
    (["measure", "--prime", "1", "--poly", "y"], 3),
    (["measure", "--prime", "0", "--poly", "y"], 3),
    (["measure", "--prime", "4", "--poly", "y"], 3),
    (["measure", "--prime", "-3", "--poly", "y"], 3),
    (["decompose", "--prime", "9", "--formula", "ord(y) >= 1"], 3),
    (["measure", "--prime", "5", "--domain", "0:-1", "--poly", "y"], 3),
    (["decompose", "--prime", "5", "--domain", "0:-1", "--poly", "y", "--verify"], 3),
    (["decompose", "--prime", "5", "--domain", "1/5:0", "--poly", "y", "--verify"], 3),
    (["measure", "--prime", "5", "--domain", "abc", "--poly", "y"], 2),
    (["measure", "--prime", "5", "--domain", "1/0:1", "--poly", "y"], 2),
    (["measure", "--prime", "5", "--domain", "0:1:2", "--poly", "y"], 2),
    (["cv-check", "--prime", "5", "--formula", "ord(y) >= 1",
     "--formula-b", "ord(y) >= 0"], 3),
    # resource bounds: the domain radius, the depth and the marks of the
    # partition check, p^depth of digit atoms, the depth of oracle-compare's
    # root counts
    (["measure", "--prime", "5", "--domain", "0:100000", "--poly", "y"], 3),
    (["decompose", "--prime", "5", "--poly", "y", "--verify", "--k", "21"], 3),
    (["decompose", "--prime", "5", "--poly", "y", "--verify", "--k", "-1"], 3),
    (["decompose", "--prime", "100003", "--poly", "y", "--verify", "--k", "20"], 3),
    (["decompose", "--json", "--prime", "5", "--formula", "ac(9, y) = 1"], 3),
    (["decompose", "--prime", "5", "--formula", "rv(9, y) = 0"], 3),
    (["oracle-compare", "--prime", "5", "--poly", "y", "--k", "-1"], 3),
    (["oracle-compare", "--prime", "5", "--poly", "y", "--k", "3000"], 3),
    # the degree bound, checked before a power or a product is expanded
    (["measure", "--prime", "5", "--poly", "y^1100"], 3),
    (["measure", "--prime", "5", "--poly", "y^200000"], 3),
    (["measure", "--prime", "5", "--poly", "2^100000"], 3),
    (["decompose", "--prime", "5", "--formula", "ord(y^101) >= 0"], 3),
    # the parser: a zero denominator, and literals and nesting past its
    # bounds, refused before int() or recursion reaches Python's limits
    (["measure", "--prime", "5", "--poly", "y + 1/0"], 2),
    (["measure", "--prime", "5", "--formula", "ord(y - 1/0) >= 0"], 2),
    (["measure", "--prime", "5", "--poly", "y^" + "1" * 5000], 3),
    (["measure", "--prime", "5", "--poly", "3" * 5000 + "*y"], 3),
    # a power and a sum whose expansions outgrow the literal bound: 50 digits
    # to the 100th, and five 999-digit denominators with no common factor
    (["decompose", "--prime", "5", "--poly", "(" + "9" * 50 + "*y+1)^100"], 3),
    (["decompose", "--prime", "5", "--poly",
      " + ".join(f"1/{10**998 * k + 1}" for k in range(1, 6)) + " + y"], 3),
    (["measure", "--prime", "5", "--poly", "(" * 2000 + "y" + ")" * 2000], 3),
    (["decompose", "--prime", "5", "--formula", "!" * 3000 + "y = 0"], 3),
    (["measure", "--prime", "5", "--poly=" + "-" * 1500 + "y"], 3),
    (["measure", "--prime", "5", "--formula", " & ".join(["ord(y) >= 0"] * 1500)], 3),
    # answers with a number past the interpreter's int-to-string limit:
    # 5^7000 and 5^100000 in a measure's denominator
    (["measure", "--prime", "5", "--formula", "ord(y) >= 7000"], 3),
    (["measure", "--prime", "5", "--poly", "y", "--ord", "100000"], 3),
    # a law-sample count outside [1, 10,000]: below 1 the law check would
    # draw nothing and pass, and its time grows with the count squared
    *[(["decompose", "--verify", "--prime", "5", "--poly", "y^2 - 1", "--samples", n], 3)
      for n in ("0", "-1", "10001", "1000000000")],
    # the least strong pseudoprime to every base of the primality test
    (["measure", "--prime", "318665857834031151167461", "--poly", "y"], 3),
    # argparse owns the input flags of each subcommand
    (["cv-check", "--prime", "5", "--formula-b", "ord(y) >= 0"], 2),
    (["measure", "--prime", "5", "--poly", "y", "--formula", "ord(y) >= 0"], 2),
    (["zeta", "--prime", "5", "--poly", "y", "--seed", "1"], 2),
    # options that only a polynomial input reads
    (["measure", "--prime", "5", "--formula", "ord(y) >= 1", "--ord", "2"], 2),
    (["decompose", "--prime", "5", "--formula", "ord(y) >= 1", "--verify",
     "--samples", "10"], 2),
    (["decompose", "--prime", "5", "--formula", "ord(y) >= 1", "--verify",
     "--seed", "1"], 2),
    # options that only the checks of --verify read
    (["decompose", "--prime", "5", "--poly", "y^2 - 1", "--samples", "10"], 2),
    (["decompose", "--prime", "5", "--poly", "y^2 - 1", "--seed", "1"], 2),
    (["decompose", "--prime", "5", "--formula", "ord(y) >= 1", "--k", "9"], 2),
])
def test_cli_rejects_bad_input(capsys, argv, want):
    # bad input ends in its documented exit code: never a hang or a traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == want and out == "" and err and "Traceback" not in err


@pytest.mark.parametrize("formula,message", [
    # inside parentheses the branch that read further names the fault, not
    # the `poly = 0` fallback that gave up at the first token
    ("(ord(y) = 1 | ord(y) != 2)", "expected a relation after ord(...) (at position 21)"),
    ("(y = 0 | y = 1)", "polynomial equations must compare with 0 (at position 13)"),
])
def test_cli_parse_errors_inside_parentheses(capsys, formula, message):
    code, out, err = run_cli(capsys, "measure", "--prime", "5", "--formula", formula)
    assert code == 2 and out == "" and message in err


def test_cli_digits_are_what_int_reads(capsys):
    # "²" is a digit to str.isdigit but not to int(): a parse error, not a
    # traceback; Arabic-Indic and fullwidth digits are decimal and parse
    for flag, text in (("--poly", "y^²"), ("--formula", "ord(y) >= ²")):
        code, out, err = run_cli(capsys, "measure", "--prime", "5", flag, text)
        assert code == 2 and out == "" and "unexpected character '²'" in err
    for three in ("٣", "３"):
        assert run_cli(capsys, "measure", "--prime", "5", "--poly", f"y^{three}") == \
            run_cli(capsys, "measure", "--prime", "5", "--poly", "y^3")


@pytest.mark.parametrize("command", [
    ["decompose", "--verify", "--poly", "y^3 - y"],
    ["measure", "--poly", "y^3 - y", "--ord", "1"],
    ["zeta", "--poly", "y^3 - y"],
    ["oracle-compare", "--poly", "y^3 - y", "--k", "4"],
    ["chi", "--formula", "ord(y^2 - 1) >= 1"],
    ["cv-check", "--formula", "ord(y - 1) >= 1", "--formula-b", "!(ord(y - 1) < 1)"],
    ["dim", "--formula", "y^2 - 1 = 0"],
    ["preserves-balls", "--poly", "y^3 - y"],
])
def test_cli_subcommands_on_a_ball(capsys, command):
    # every subcommand works on the ball 1 + 3^2 Z_3, which holds the root 1
    code, out, err = run_cli(capsys, *command, "--prime", "3", "--domain", "1:2", "--json")
    assert code == 0, err
    payload = json.loads(out)
    if command[0] == "preserves-balls":
        assert payload["all_ball_or_point"] is True
    if command[0] == "oracle-compare":
        assert payload["agree"] is True
    if command[0] == "decompose":
        assert payload["verify"]["partition_violations"] == 0
        assert payload["verify"]["law_failures"] == 0


def test_cli_measure_at_a_large_prime(capsys):
    code, out, _ = run_cli(capsys, "measure", "--prime", "1000000007", "--poly", "y", "--json")
    assert code == 0 and json.loads(out)["measure"] == "1"


def test_cli_prints_answers_below_the_int_to_string_limit(capsys):
    # 5^6000 has 4,194 digits, under Python's default limit of 4,300
    code, out, _ = run_cli(capsys, "measure", "--prime", "5", "--formula", "ord(y) >= 6000",
                           "--json")
    assert code == 0 and json.loads(out)["measure"] == f"1/{5**6000}"


def test_cli_builds_its_parser_once(capsys, monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "padic-cells":
            built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    for n in range(50):
        code, out, _ = run_cli(capsys, "measure", "--prime", "5", "--poly", "y", "--ord", str(n))
        assert code == 0 and out == f"schema: padic-cells/1\ncommand: measure\nprime: 5\n" \
            f"ord: {n}\nmeasure: {Fraction(4, 5**(n + 1))}\n"
    assert len(built) == 1


def test_cli_reused_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    """One process answering a mixed sequence gives the same exit codes,
    stdout and stderr as a fresh parser for each call: a usage error, a
    parse error, exit 3 and exit 4 between valid requests."""
    # an artificially low depth budget trips exit 4 on this polynomial only
    real_budget = decompose._budget
    monkeypatch.setattr(decompose, "_budget",
                        lambda f, p, w: 3 if f == Poly.of(65, -66, 1) else real_budget(f, p, w))
    sequence = [
        ["decompose", "--prime", "5", "--poly", "y^2 - 1", "--json"],
        ["measure", "--prime", "5", "--formula", "ord(y) >= 1", "--ord", "2"],
        ["measure", "--prime", "5", "--formula", "ord(y) >= 1"],
        ["zeta", "--prime", "5", "--poly", "y^2 +"],
        ["chi", "--prime", "3", "--formula", "ac(1, y^2 - 1) = 1", "--json"],
        ["measure", "--prime", "4", "--poly", "y"],
        ["decompose", "--prime", "2", "--poly", "y^2 - 66*y + 65"],
        ["decompose", "--prime", "7", "--formula", "ord(y^2 - 2) >= 3 & ac(1, y) = 3"],
        ["cv-check", "--prime", "5", "--formula-b", "ord(y) >= 0"],
        ["dim", "--prime", "5", "--formula", "y^2 - 1 = 0", "--json"],
    ]

    def answers(fresh):
        out = []
        for argv in sequence * 2:
            if fresh:
                cli._build_parser.cache_clear()
            out.append(run_cli(capsys, *argv))
        return out

    reused = answers(fresh=False)
    assert [code for code, _, _ in reused[:10]] == [0, 2, 0, 2, 0, 3, 4, 0, 2, 0]
    assert reused == answers(fresh=True)


def test_cli_text_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--prime", "5", "--poly", "y")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["schema: padic-cells/1", "command: decompose", "prime: 5"]
    # cells are nested dicts in a list, each closed by a dash
    assert "cells:" in lines and lines.count("  -") == 2
    assert "    depth: 1" in lines and "    units: all" in lines
    code, out, _ = run_cli(capsys, "measure", "--prime", "5", "--poly", "y^2 - 1", "--ord", "1")
    assert code == 0 and out.splitlines()[-2:] == ["ord: 1", "measure: 8/25"]


def test_cli_law_check_options(capsys, monkeypatch):
    # --samples and --seed reach the law check, which keeps its own defaults
    calls = []
    real = cli.verify_laws
    monkeypatch.setattr(cli, "verify_laws", lambda *a, **kw: calls.append(kw) or real(*a, **kw))
    base = ["decompose", "--prime", "5", "--poly", "y^2 - 1", "--verify", "--json"]
    code, plain, _ = run_cli(capsys, *base)
    assert code == 0 and calls.pop() == {}
    code, given, _ = run_cli(capsys, *base, "--samples", "200", "--seed", "0")
    assert code == 0 and calls.pop() == {"samples": 200, "seed": 0} and given == plain
    code, _, _ = run_cli(capsys, *base, "--samples", "7")
    assert code == 0 and calls.pop() == {"samples": 7}


def test_cli_measure_and_dim(capsys):
    code, out, _ = run_cli(capsys, "measure", "--prime", "5",
                           "--formula", "ord(y) >= 1", "--json")
    assert code == 0 and json.loads(out)["measure"] == "1/5"
    code, out, _ = run_cli(capsys, "dim", "--prime", "5", "--poly", "y", "--json")
    assert code == 0 and json.loads(out)["dim"] == 1


def test_cli_chi(capsys):
    code, out, _ = run_cli(capsys, "chi", "--prime", "5", "--poly", "y", "--json")
    assert code == 0
    parts = json.loads(out)["chi"]
    assert {"residues": 1, "orders": "point", "grade": 0, "mult": 1} in parts
    assert {"residues": 4, "orders": "H", "grade": 1, "mult": 1} in parts


def test_cli_cv_check(capsys):
    code, out, _ = run_cli(capsys, "cv-check", "--prime", "5",
                           "--formula", "ord(y) >= 0",
                           "--formula-b", "ord(y) >= 0", "--json")
    assert code == 0 and json.loads(out)["equal"] is True


def test_cli_rv_digits_compare_mod_p_to_the_depth(capsys):
    """rv(d, f) = (m, u) reads u mod p^d, as ac(d, f) = u does."""
    for atom in ("rv", "ac"):
        a, b = (("rv(2, y) = (0, 10)", "rv(2, y) = (0, 1)") if atom == "rv"
                else ("ac(2, y) = 10", "ac(2, y) = 1"))
        code, out, _ = run_cli(capsys, "cv-check", "--prime", "3", "--formula", a,
                               "--formula-b", b, "--json")
        assert code == 0 and json.loads(out)["equal"] is True
    for u in (6, 1, -4):
        code, out, _ = run_cli(capsys, "measure", "--prime", "5", "--formula",
                               f"rv(1, y) = (0, {u})", "--json")
        assert code == 0 and json.loads(out)["measure"] == "1/5"


@pytest.mark.parametrize("fmt", [["--json"], []])
def test_cli_exits_cleanly_when_stdout_is_closed(fmt):
    # the pipe's read end is closed before the child starts, so every write
    # fails: a short payload at the flush, a long text one at a print
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(padic_cells.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "padic_cells.cli", "oracle-compare", "--prime", "3",
             "--poly", "y^3-y", "--domain", "0:1", "--k", "6", *fmt],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 0 and proc.stderr == b""


def test_cli_preserves_balls(capsys):
    code, out, _ = run_cli(capsys, "preserves-balls", "--prime", "5",
                           "--poly", "y^2", "--json")
    assert code == 0 and json.loads(out)["all_ball_or_point"] is True


FUZZ_POLYS = ("y", "y - 1", "y + 2", "y^2 - 2", "y^2 + 1", "y^2 - 7", "y^3 - 2", "2*y^2 - 3",
              "y^2 - y - 1", "(y^2 - 2)*(y - 3)", "y^2 - 5*y + 6")
FUZZ_TOKENS = ("decompose", "measure", "zeta", "chi", "dim", "cv-check", "preserves-balls",
               "oracle-compare", "--prime", "--poly", "--formula", "--formula-b", "--domain",
               "--json", "--verify", "--k", "--seed", "--samples", "--ord", "2", "3", "5", "0",
               "-1", "4", "x", "y", "y^2 - 2", "ord(y) >= 1", "ac(1, y) = 1", "zp", "1:1",
               "a:b", "1/2:1", "", "--")


def fuzz_formula(rng, p, depth=0):
    """A random ord/ac/rv formula over polynomials with inexact roots, with
    digit depths of at most 2."""
    if depth < 2 and rng.random() < 0.6:
        if rng.random() < 0.25:
            return f"!({fuzz_formula(rng, p, depth + 1)})"
        op = rng.choice(("&", "|"))
        return f"({fuzz_formula(rng, p, depth + 1)} {op} {fuzz_formula(rng, p, depth + 1)})"
    f, d, kind = rng.choice(FUZZ_POLYS), rng.choice((1, 1, 2)), rng.randrange(6)
    rel = rng.choice(("=", "<", "<=", ">", ">="))
    if kind == 0:
        return f"ord({f}) {rel} {rng.randint(-1, 3)}"
    if kind == 1:
        return f"ord({f}) {rel} ord({rng.choice(FUZZ_POLYS)}) {rng.choice('+-')} {rng.randint(0, 2)}"
    if kind == 2:
        m = rng.randint(1, 3)
        return f"ord({f}) % {m} = {rng.randrange(m)}"
    if kind == 3:
        return f"ac({d}, {f}) = {rng.randrange(1, p**d)}"
    if kind == 4:
        return f"rv({d}, {f}) = ({rng.randint(-1, 2)}, {rng.randrange(1, p**d)})"
    return f"{f} = 0"


def fuzz_argv(rng):
    """A well-formed request of a random subcommand, with p^k at most 49."""
    p = rng.choice((2, 3, 5, 7))
    command = rng.choice(("decompose", "measure", "chi", "dim", "cv-check", "zeta",
                          "preserves-balls", "oracle-compare"))
    argv = [command, "--prime", str(p)]
    if rng.random() < 0.3:
        argv += ["--domain", rng.choice(("zp", "1:1", "3:2", "2:1"))]
    if rng.random() < 0.5:
        argv.append("--json")
    poly = command in ("zeta", "preserves-balls", "oracle-compare") or (
        command != "cv-check" and rng.random() < 0.3)
    if poly:
        argv += ["--poly", rng.choice(FUZZ_POLYS)]
    else:
        phi = fuzz_formula(rng, p)
        argv += ["--formula", phi]
        if command == "cv-check":
            argv += ["--formula-b", rng.choice((f"!!({phi})", fuzz_formula(rng, p)))]
    if command == "decompose" and rng.random() < 0.3:
        argv += ["--verify", "--k", rng.choice(("1", "2"))]
        if poly:
            argv += ["--samples", str(rng.randint(1, 20)), "--seed", str(rng.randint(0, 9))]
    if command == "measure" and poly and rng.random() < 0.5:
        argv += ["--ord", str(rng.randint(-1, 3))]
    if command == "oracle-compare":
        argv += ["--k", str(rng.randint(0, 3))]
    return argv


def mangled_argv(rng):
    """Random tokens, or a well-formed request with one to three tokens
    dropped, inserted or replaced at random."""
    if rng.random() < 0.3:
        return rng.choices(FUZZ_TOKENS, k=rng.randint(0, 9))
    argv = fuzz_argv(rng)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(argv) + 1)
        action = rng.randrange(3)
        if action == 0 and i < len(argv):
            del argv[i]
        elif action == 1 or i == len(argv):
            argv.insert(i, rng.choice(FUZZ_TOKENS))
        else:
            argv[i] = rng.choice(FUZZ_TOKENS)
    return argv


def test_cli_fuzz_exits_with_a_documented_code(capsys):
    # seeded random requests, a third of them mangled: each call ends with a
    # documented exit code, quickly, with no traceback, and prints nothing to
    # stdout unless it succeeds
    rng = random.Random(14)
    reached = 0
    for n in range(150):
        argv = fuzz_argv(rng) if n % 3 else mangled_argv(rng)
        start = time.perf_counter()
        try:
            code = main(argv)
            reached += 1
        except SystemExit as exc:  # argparse rejects the argv, or prints --help
            code = exc.code
        out = capsys.readouterr()
        assert time.perf_counter() - start < 5, argv
        assert code in (0, 2, 3, 4) and "Traceback" not in out.err, argv
        assert code == 0 or (out.out == "" and out.err), argv
    assert reached > 100


def test_sum_commands_read_tie_groups_as_one_cell(capsys, monkeypatch):
    """zeta, measure --poly and oracle-compare answer with sums over cells,
    dim --poly with a maximum, preserves-balls with a verdict per cell, and
    decompose prints and verifies the grouped form: they decompose with
    `prepare_grouped`.  chi, which reads the cut, keeps `prepare`.  Both are
    looked up on the module at call time, so a wrapper set there sees every
    call."""
    built = []
    for name in ("prepare", "prepare_grouped"):
        build = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, name=name, build=build:
                            built.append(name) or build(*args))
    head = ["--prime", "31", "--poly", "y^2 - 1"]
    for command, want in ((["zeta"], "prepare_grouped"), (["measure"], "prepare_grouped"),
                          (["measure", "--ord", "1"], "prepare_grouped"),
                          (["oracle-compare", "--k", "1"], "prepare_grouped"),
                          (["decompose"], "prepare_grouped"),
                          (["decompose", "--verify", "--k", "1"], "prepare_grouped"),
                          (["chi"], "prepare"), (["dim"], "prepare_grouped"),
                          (["preserves-balls"], "prepare_grouped")):
        built.clear()
        code, _, err = run_cli(capsys, *command, *head)
        assert code == 0 and built == [want], (command, built, err)


def test_formula_commands_read_tie_groups_as_one_cell(capsys, monkeypatch):
    """`decompose_set` builds every polynomial of a formula with
    `prepare_grouped`, so decompose (with --verify or not), measure, dim and
    cv-check of a formula read the grouped form; chi passes `listed` and
    builds with `prepare`, the cut it still reads."""
    built = []
    for name in ("prepare", "prepare_grouped"):
        build = getattr(decompose, name)
        monkeypatch.setattr(decompose, name, lambda *args, name=name, build=build:
                            built.append(name) or build(*args))
    phi = "(ord(y^2 - 1) >= 1 | ac(1, y - 2) = 1)"
    head = ["--prime", "31", "--formula", phi]
    for command, want in ((["decompose"], "prepare_grouped"),
                          (["decompose", "--verify", "--k", "1"], "prepare_grouped"),
                          (["measure"], "prepare_grouped"), (["dim"], "prepare_grouped"),
                          (["cv-check", "--formula-b", phi], "prepare_grouped"),
                          (["chi"], "prepare")):
        built.clear()
        code, _, err = run_cli(capsys, *command, *head)
        calls = 4 if command[0] == "cv-check" else 2
        assert code == 0 and built == [want] * calls, (command, built, err)

"""Parser for the polynomial and formula surface syntax.

Polynomials use the variable y with + - * ^ and rational literals a/b.
Formula atoms:  ord(f) REL ord(g) + c   |  ord(f) REL c  |  ord(f) % q = r
             |  ac(d, f) = u            |  rv(d, f) = (m, u)  |  rv(d, f) = 0
             |  f = 0
combined with & | ! and parentheses.  Quantifier tokens are rejected with a
position-annotated error.
Literals longer than MAX_LITERAL_DIGITS, sums, products and powers whose
expanded coefficients outgrow that many digits, and nesting or formula trees
deeper than MAX_NESTING are refused before Python's integer-string or
recursion limit is reached.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .decompose import (
    AcEq,
    FAnd,
    FAtom,
    FNot,
    FOr,
    Formula,
    OrdCmp,
    OrdEqInf,
    OrdModEq,
    RELATIONS,
    RvEq,
)
from .errors import ParseError, UnsupportedInputError
from .padics import RvData
from .poly import MAX_DEGREE, Poly

MAX_LITERAL_DIGITS = 1000
MAX_NESTING = 100
_LITERAL_BOUND = 10**MAX_LITERAL_DIGITS

_QUANTIFIERS = {"exists", "forall", "all", "some"}
_SYMBOLS = ("<=", ">=", "!=", "<", ">", "=", "+", "-", "*", "^", "/", "%",
            "(", ")", ",", "&", "|", "!")


@dataclass
class _Token:
    kind: str  # "int", "name", or the symbol itself
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise UnsupportedInputError(f"the literal at position {i} has {j - i} digits, "
                                            f"past the bound {MAX_LITERAL_DIGITS}")
            out.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word.lower() in _QUANTIFIERS:
                raise ParseError("quantifiers are not supported", i)
            out.append(_Token("name", word, i))
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                out.append(_Token(sym, sym, i))
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # parentheses, signs and negations open around the cursor

    def peek(self, kind: str | None = None) -> _Token | None:
        if self.i >= len(self.tokens):
            return None
        tok = self.tokens[self.i]
        if kind is not None and tok.kind != kind:
            return None
        return tok

    def next(self, kind: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    @contextmanager
    def _nested(self, pos: int):
        """Parse one level deeper."""
        self.depth = _nesting(self.depth + 1, pos)
        try:
            yield
        finally:
            self.depth -= 1

    def expect_end(self) -> None:
        if not self.at_end():
            tok = self.tokens[self.i]
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)

    # -- integers and rationals ------------------------------------------

    def parse_int(self) -> int:
        sign = 1
        if self.peek("-"):
            self.next("-")
            sign = -1
        return sign * int(self.next("int").text)

    def parse_rational(self) -> Fraction:
        num = self.parse_int()
        if self.peek("/"):
            tok = self.next("/")
            den = int(self.next("int").text)
            if den == 0:
                raise ParseError("zero denominator", tok.pos)
            return Fraction(num, den)
        return Fraction(num)

    # -- polynomials ------------------------------------------------------

    def parse_poly(self) -> Poly:
        acc = self._poly_term()
        while True:
            if self.peek("+"):
                pos = self.next("+").pos
                acc = _check_size(acc + self._poly_term(), pos)
            elif self.peek("-"):
                pos = self.next("-").pos
                acc = _check_size(acc - self._poly_term(), pos)
            else:
                return acc

    def _poly_term(self) -> Poly:
        acc = self._poly_factor()
        while self.peek("*"):
            tok = self.next("*")
            factor = self._poly_factor()
            _check_degree(acc.degree + factor.degree, tok.pos)
            acc = _check_size(acc * factor, tok.pos)
        return acc

    def _poly_factor(self) -> Poly:
        base = self._poly_atom()
        if self.peek("^"):
            self.next("^")
            tok = self.next("int")
            e = int(tok.text)
            # a large exponent is refused even on a constant: its digits grow too
            _check_degree(max(e, base.degree * e), tok.pos)
            if base.coeffs == (0, 1):  # y^e is a monomial, with no products to check
                return Poly.of(*[0] * e, 1)
            out = Poly.of(1)
            for _ in range(e):
                out = _check_size(out * base, tok.pos)
            return out
        return base

    def _poly_atom(self) -> Poly:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of polynomial", len(self.text))
        if tok.kind == "-":
            self.next("-")
            with self._nested(tok.pos):
                return -self._poly_factor()
        if tok.kind == "int":
            return Poly.of(self.parse_rational())
        if tok.kind == "name":
            if tok.text != "y":
                raise ParseError(f"unknown name {tok.text!r} (the variable is y)", tok.pos)
            self.next("name")
            return Poly.of(0, 1)
        if tok.kind == "(":
            self.next("(")
            with self._nested(tok.pos):
                inner = self.parse_poly()
            self.next(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r} in polynomial", tok.pos)

    # -- formulas ----------------------------------------------------------
    # Each method returns a formula and the height of its tree, which & and |
    # grow without nesting.

    def parse_formula(self) -> tuple[Formula, int]:
        return self._chain("|", FOr, self._conj)

    def _conj(self) -> tuple[Formula, int]:
        return self._chain("&", FAnd, self._unary)

    def _chain(self, op: str, node, operand) -> tuple[Formula, int]:
        """operand (op operand)*, as a left-deep tree."""
        acc, height = operand()
        while self.peek(op):
            pos = self.next(op).pos
            right, h = operand()
            acc, height = node(acc, right), _nesting(max(height, h) + 1, pos)
        return acc, height

    def _unary(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula", len(self.text))
        if tok.kind == "!":
            self.next("!")
            with self._nested(tok.pos):
                sub, height = self._unary()
            return FNot(sub), _nesting(height + 1, tok.pos)
        if tok.kind == "(":
            # try a parenthesized formula, then `poly = 0`; when both fail,
            # the branch that read further into the input names the fault
            saved = self.i
            try:
                self.next("(")
                with self._nested(tok.pos):
                    inner = self.parse_formula()
                self.next(")")
                return inner
            except ParseError as formula_error:
                self.i = saved
                try:
                    return self._poly_eq_zero(), 1
                except ParseError as poly_error:
                    raise max(formula_error, poly_error, key=lambda e: e.position) from None
        return self._atom(), 1

    def _poly_eq_zero(self) -> Formula:
        f = self.parse_poly()
        self.next("=")
        tok = self.next("int")
        if tok.text != "0":
            raise ParseError("polynomial equations must compare with 0", tok.pos)
        return FAtom(OrdEqInf(f))

    def _atom(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula", len(self.text))
        if tok.kind == "name" and tok.text == "ord":
            return self._ord_atom()
        if tok.kind == "name" and tok.text in ("ac", "rv"):
            self.next("name")
            self.next("(")
            depth = self.parse_int()
            self.next(",")
            f = self.parse_poly()
            self.next(")")
            self.next("=")
            if depth < 1:
                raise ParseError(f"{tok.text} depth must be >= 1", tok.pos)
            if tok.text == "ac":
                return FAtom(AcEq(depth, f, self.parse_int()))
            if self.peek("int"):
                zero = self.next("int")
                if zero.text != "0":
                    raise ParseError("rv values are 0 or a pair (m, u)", zero.pos)
                return FAtom(RvEq(depth, f, RvData.zero(depth)))
            self.next("(")
            m = self.parse_int()
            self.next(",")
            u = self.parse_int()
            self.next(")")
            return FAtom(RvEq(depth, f, RvData(depth, m, u)))
        # bare polynomial equation f = 0
        return self._poly_eq_zero()

    def _ord_atom(self) -> Formula:
        self.next("name")  # 'ord'
        self.next("(")
        f = self.parse_poly()
        self.next(")")
        if self.peek("%"):
            self.next("%")
            modulus = self.parse_int()
            self.next("=")
            residue = self.parse_int()
            return FAtom(OrdModEq(f, modulus, residue % max(modulus, 1)))
        rel_tok = self.peek()
        if rel_tok is None or rel_tok.kind not in RELATIONS:
            raise ParseError("expected a relation after ord(...)",
                             rel_tok.pos if rel_tok else len(self.text))
        rel = self.next().kind
        if self.peek("name") and self.peek("name").text == "ord":
            self.next("name")
            self.next("(")
            g = self.parse_poly()
            self.next(")")
            offset = 0
            if self.peek("+"):
                self.next("+")
                offset = self.parse_int()
            elif self.peek("-"):
                self.next("-")
                offset = -self.parse_int()
            return FAtom(OrdCmp(f, g, offset, rel))
        c = self.parse_int()
        return FAtom(OrdCmp(f, None, c, rel))


def _nesting(level: int, pos: int) -> int:
    """A nesting depth or formula height, refused past MAX_NESTING."""
    if level > MAX_NESTING:
        raise UnsupportedInputError(f"the input nests past depth {MAX_NESTING} at position {pos}")
    return level


def _check_degree(degree: int, pos: int) -> None:
    """Refuse a power or product past MAX_DEGREE before expanding it."""
    if degree > MAX_DEGREE:
        raise UnsupportedInputError(f"the power or product at position {pos} reaches "
                                    f"{degree}, past the degree bound {MAX_DEGREE}")


def _check_size(f: Poly, pos: int) -> Poly:
    """Refuse a sum, product or power whose expansion has a numerator or a
    denominator of more than MAX_LITERAL_DIGITS digits, as it expands."""
    if any(abs(c.numerator) >= _LITERAL_BOUND or c.denominator >= _LITERAL_BOUND
           for c in f.coeffs):
        raise UnsupportedInputError(f"the expression at position {pos} expands to a "
                                    f"coefficient past {MAX_LITERAL_DIGITS} digits")
    return f


def parse_poly(text: str) -> Poly:
    p = _Parser(text)
    out = p.parse_poly()
    p.expect_end()
    return out


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    out, _ = p.parse_formula()
    p.expect_end()
    return out


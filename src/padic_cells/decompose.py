"""Cell decomposition of a ball in Z_p adapted to polynomial valuation data.

`prepare_grouped` follows the constructive recursion on the degree, on the
domain ball B(b, r) itself (Z_p is B(0, 0)): it starts from the point b and
the spheres ord(y - b) = m >= r, decomposes for the derivative first, then
gives every inherited family cell a law for the polynomial.  The polynomial
is Taylor-expanded at the cell's center and the valuation range is
partitioned at the breakpoints of the Newton polygon of the Taylor
coefficients.  Where one term dominates strictly the range keeps
an exact order law (case B1); where terms tie at m*, each residue class u0
either contains a certified root of the squarefree part -- it is then
re-centered at that root, realizing the Hensel law ord f(y) = ord b1 +
ord(y - c) (case B2) -- or it is translated one digit deeper.  The residual
polynomial of the tie over F_p, R(u) = sum of the first unit digits of the
tied Taylor coefficients times u^i, decides most classes at once:
f = p^best R(u0) mod p^(best+1) on the class, so where R(u0) is nonzero mod
p the class holds no root of f, not even in C_p, and ord f is the constant
best on all of it.  Only the classes where R vanishes are searched for a
root; each becomes a point cell and a family cell processed in turn.

The rootless classes of a tie are one cell, a rootless group: the family
on the one sphere ord(y - c) = m* around the tie's center c whose first
digits are the units u0, which every polynomial above walks like any
inherited family, reading its residual at those units only.
`prepare_grouped` returns the groups as they are, the form every command
but `chi` reads; `prepare` lists the point and the family [m* + 1, oo) of
each of their classes, with the group's laws frozen at m*, for `chi`,
which still reads the cut.

Every digit of f that the engine reads -- R(u0) at a tie, the unit digits
of an `ac`/`rv` atom on a sphere, on the unbounded tail of a family and at a
point -- is read where ord f is already known to be at least some v, so it
is f(c + p^m u) / p^v mod p^depth: `_sphere_digits` computes it from one
integer expansion of f at a rational proxy of the center.  Every cell
`prepare` builds has level 1 and, if a family, all units at depth 1; so
does every cell of `prepare_grouped` but a group.  Descents below the
ball's radius are capped by a resultant-based budget.

`decompose_set` applies `prepare_grouped` to every polynomial of a
quantifier-free formula (or `prepare`, for `chi` of a formula), forms the
common refinement, and splits cells until every atom is constant per cell,
recording keep flags: a group stays one cell where no atom and no other
polynomial cuts it.  Every fiber of every kept cell is a point or a ball by
construction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from math import gcd as int_gcd

from .cells import (
    ArithRange,
    Ball,
    Cell1,
    Center,
    Decomposition,
    OrderLaw,
    Residues,
    TAdd,
    TConst,
    TH,
    TMul,
    TRv,
    Term,
    ZP,
    refine_common,
    sorted_cells,
)
from .errors import InternalBoundError, UnsupportedInputError
from .hensel import (
    CenterValue,
    center_of,
    center_proxy,
    exact_value,
    ord_of_poly_at,
    roots_in_ball,
    shift_center,
    taylor_ords,
)
from .padics import INFINITY, RvData, int_val, is_prime, ord_p, require_classes
from .poly import MAX_DEGREE, Poly, format_poly, resultant_val, squarefree_part

# p^r for the domain radius r stays below 2^_MAX_RADIUS_BITS, so measures
# and the numbers printed for them stay far from Python's 4,300-digit limit
_MAX_RADIUS_BITS = 8192


# ---------------------------------------------------------------------------
# Quantifier-free formulas over one p-adic variable.
# ---------------------------------------------------------------------------

# the relations of an order comparison; INFINITY compares through them as
# through the operators
RELATIONS = {"<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge,
             ">": operator.gt}


@dataclass(frozen=True)
class OrdCmp:
    """ord f(y) REL ord g(y) + offset; g=None compares against the constant."""

    f: Poly
    g: Poly | None
    offset: int
    rel: str  # a key of RELATIONS

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True)
class OrdEqInf:
    """f(y) = 0, i.e. ord f(y) = infinity."""

    f: Poly


@dataclass(frozen=True)
class OrdModEq:
    """ord f(y) = residue (mod modulus), with f(y) != 0."""

    f: Poly
    modulus: int
    residue: int


@dataclass(frozen=True)
class AcEq:
    """unit_digits(f(y), depth) = unit (false where f(y) = 0)."""

    depth: int
    f: Poly
    unit: int


@dataclass(frozen=True)
class RvEq:
    """rv_depth(f(y)) = tag (the tag may be the zero element)."""

    depth: int
    f: Poly
    tag: RvData


Atom = OrdCmp | OrdEqInf | OrdModEq | AcEq | RvEq


@dataclass(frozen=True)
class FAtom:
    atom: Atom


@dataclass(frozen=True)
class FNot:
    sub: "Formula"


@dataclass(frozen=True)
class FAnd:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class FOr:
    left: "Formula"
    right: "Formula"


Formula = FAtom | FNot | FAnd | FOr


def formula_atoms(phi: Formula) -> list[Atom]:
    if isinstance(phi, FAtom):
        return [phi.atom]
    if isinstance(phi, FNot):
        return formula_atoms(phi.sub)
    return formula_atoms(phi.left) + formula_atoms(phi.right)


def eval_formula(phi: Formula, truth: dict[Atom, bool]) -> bool:
    if isinstance(phi, FAtom):
        return truth[phi.atom]
    if isinstance(phi, FNot):
        return not eval_formula(phi.sub, truth)
    if isinstance(phi, FAnd):
        return eval_formula(phi.left, truth) and eval_formula(phi.right, truth)
    return eval_formula(phi.left, truth) or eval_formula(phi.right, truth)


# ---------------------------------------------------------------------------
# The decomposition engine.
# ---------------------------------------------------------------------------


def _check_input(p: int, domain: Ball) -> None:
    """Reject a p that is not a prime and a domain that is not a ball in Z_p."""
    if not is_prime(p):
        raise UnsupportedInputError(f"p = {p} is not a prime")
    if domain.radius_ord < 0 or ord_p(domain.center, p) < 0:
        raise UnsupportedInputError(f"the domain {domain} is not a ball inside Z_{p}")
    if domain.radius_ord * p.bit_length() > _MAX_RADIUS_BITS:
        raise UnsupportedInputError(
            f"the domain {domain} is too small: p^{domain.radius_ord} must stay "
            f"below 2^{_MAX_RADIUS_BITS}")


def _budget(f: Poly, p: int, w: Poly) -> int:
    """The descent budget of f, given its squarefree part w."""
    r = 0
    if w.degree >= 1:
        res = resultant_val(w, w.derivative(), p)
        r = 0 if res is INFINITY else max(res, 0)
    return max(2 * r + f.degree + 4, 8)


def _dominance_regions(lines: list[tuple[int, int]], lo: int, hi: int | None):
    """Partition [lo, hi] by the lower envelope of the lines v_i + i*m, in one
    walk up from lo.

    Yields ("strict", lo', hi', i0) for each maximal run with a unique
    minimizing line and ("tie", m, achievers) where the minimum is shared.
    A unique minimizer i0 stays unique until the first m at which a line of
    smaller index reaches it; lines of larger index only fall further behind.
    """
    if not lines:
        raise ValueError("no finite Taylor coefficients")
    m = lo
    while hi is None or m <= hi:
        best = min(v + i * m for i, v in lines)
        win = [i for i, v in lines if v + i * m == best]
        if len(win) > 1:
            yield ("tie", m, win)
            m += 1
            continue
        i0 = win[0]
        v0 = best - i0 * m
        # line j reaches line i0 at m >= (v_j - v0) / (i0 - j), rounded up
        end = min((-((v0 - v) // (i0 - i)) - 1 for i, v in lines if i < i0), default=hi)
        if hi is not None:
            end = min(end, hi)
        yield ("strict", m, end, i0)
        if end is None:
            return
        m = end + 1


def _term_is_zero(t: Term | None) -> bool:
    return isinstance(t, TConst) and t.value == 0


def _taylor_coeff_terms(w: Poly, c_term: Term, c_value: CenterValue) -> tuple[Term, ...]:
    """Terms whose values are the Taylor coefficients of w at the center."""
    x = exact_value(c_value)
    if x is not None:
        sh = w.taylor_shift(x)
        return tuple(TConst(sh.coeff(i)) for i in range(w.degree + 1))
    terms: list[Term] = []
    for i in range(w.degree + 1):
        acc: Term | None = None
        for j in range(i, w.degree + 1):
            coef = comb(j, i) * w.coeff(j)
            if coef == 0:
                continue
            piece: Term = TConst(coef)
            for _ in range(j - i):
                piece = TMul(piece, c_term)
            acc = piece if acc is None else TAdd(acc, piece)
        terms.append(acc if acc is not None else TConst(Fraction(0)))
    return tuple(terms)


def _base_cells(p: int, domain: Ball, laws: dict[Poly, OrderLaw]) -> list[Cell1]:
    """The canonical decomposition of the ball B(b, r) around b: the point b
    plus the family of spheres ord(y - b) = m >= r."""
    b = Fraction(domain.center)
    center = Center(b, 1, TConst(b))
    return [
        Cell1(p, center, None, None, laws),
        Cell1(p, center, ArithRange(domain.radius_ord, None), Residues(1, p=p), laws),
    ]


def _taylor_lines(f: Poly, center: CenterValue, p: int) -> list[tuple[int, int]]:
    """The Newton-polygon lines (i, ord c_i) of the finite Taylor
    coefficients c_i of f at the center."""
    return [(i, v) for i, v in enumerate(taylor_ords(f, center, p)) if v is not INFINITY]


def _prepare_ball(f: Poly, p: int, domain: Ball, budget: int,
                  w: Poly | None = None) -> list[Cell1]:
    """The cells of the domain with laws for f and its derivative tower; w is
    f's squarefree part, computed here where not given.  Every inherited
    family, a rootless group or not, still needs a law for f, a work item."""
    if f.degree == 0:
        return _base_cells(p, domain, {f: OrderLaw(ord_p(f.coeff(0), p), 0)})
    if f.degree == 1:
        return _prepare_linear(f, p, domain)

    if w is None:
        w = squarefree_part(f)
    out: list[Cell1] = []
    work: list[Cell1] = []
    for cell in _prepare_ball(f.derivative(), p, domain, budget):
        if cell.is_point:
            out.append(cell.with_laws({f: OrderLaw(ord_of_poly_at(f, cell.center.value, p), 0)}))
        else:
            work.append(cell)
    while work:
        _process_box(f, w, work.pop(), out, work, domain.radius_ord, budget)
    return out


def _prepare_linear(f: Poly, p: int, domain: Ball) -> list[Cell1]:
    """Linear polynomials: center at the root when it lies in the ball."""
    a0, a1 = f.coeff(0), f.coeff(1)
    df = f.derivative()
    root = -a0 / a1
    d1_law = OrderLaw(ord_p(a1, p), 0)
    if ord_p(root - domain.center, p) >= domain.radius_ord:
        if root == 0:
            term: Term = TConst(Fraction(0))
        else:
            term = TH(1, 1, (TConst(a0), TConst(a1)), TRv(1, TConst(root)))
        center = Center(root, 1, term)
        return [
            Cell1(p, center, None, None, {f: OrderLaw(INFINITY, 0), df: d1_law}),
            Cell1(p, center, ArithRange(domain.radius_ord, None), Residues(1, p=p),
                  {f: OrderLaw(ord_p(a1, p), 1), df: d1_law}),
        ]
    # root outside the ball: ord f is the constant ord f(b) on the ball
    return _base_cells(p, domain, {f: OrderLaw(ord_p(f.eval(domain.center), p), 0),
                                   df: d1_law})


def _process_box(f: Poly, w: Poly, cell: Cell1, out: list[Cell1], work: list[Cell1],
                 r: int, budget: int) -> None:
    """Give a family cell laws for f: keep the strict regions of the Newton
    polygon, and split each tie at m* by the cell's residue classes u0, all
    units or a group's first digits.  Descents are counted from the domain
    radius r.

    On the class y = c + p^m* (u0 + p t), f(y) = p^best R(u0) mod p^(best+1),
    R the residual polynomial of the tie, so R(u0) is f(c + p^m* u0) / p^best
    mod p, which `_sphere_digits` reads for all the cell's u0 at once, ord
    f >= best holding on the whole sphere.  Where R(u0) is nonzero mod p,
    ord f is best on the whole class, which holds no root in C_p, so at
    c' = c + u0 p^m* the constant Taylor line stays the only least one for
    m > m*: the class needs the law (best, 0) on its point and on its whole
    family [m* + 1, oo), with no root search.  Those classes go to `out` as
    one rootless group, the family cell on the sphere m* whose residues are
    their units at depth 1, with that constant law table; the other classes
    go through `_split_tie_class`, their point to `out` and their family
    back on the work list."""
    p = cell.prime
    lines = _taylor_lines(f, cell.center.value, p)
    if not lines:
        raise InternalBoundError(
            f"all Taylor coefficients of {format_poly(f)} (p = {p}) vanished at the center "
            f"{cell.center} of the family on m in {cell.m_range}")
    line_val = dict(lines)

    for region in _dominance_regions(lines, cell.m_range.lo, cell.m_range.hi):
        if region[0] == "strict":
            _, lo, hi, i0 = region
            out.append(cell.copy(m_range=ArithRange(lo, hi),
                                 laws={**cell.laws, f: OrderLaw(line_val[i0], i0)}))
            continue
        _, m_star, win = region
        if m_star + 1 - r > budget:
            raise InternalBoundError(
                f"descent for {format_poly(f)} (p = {p}) around the center {cell.center} "
                f"reached depth {m_star + 1 - r}, past the termination budget {budget}"
            )
        frozen = cell.frozen_laws(m_star)
        best = line_val[win[0]] + win[0] * m_star
        units = cell.residues.members()
        residual = _sphere_digits(f, cell.center.value, m_star, best, 1, units, p)
        below = ArithRange(m_star + 1, None)
        rootless = []
        for u0, r_u0 in zip(units, residual):
            if r_u0 == 0:
                center, f_law = _split_tie_class(f, w, p, cell.center, u0, m_star, budget)
                out.append(Cell1(p, center, None, None, {**frozen, f: f_law}))
                work.append(Cell1(p, center, below, Residues(1, p=p), frozen))
            else:
                rootless.append(u0)
        if rootless:
            out.append(Cell1(p, cell.center, ArithRange(m_star, m_star), Residues(1, rootless, p),
                             {**frozen, f: OrderLaw(best, 0)}))


def _shifted_center(center: Center, u0: int, step: int) -> Center:
    """The center c + u0 * step of a tie class that holds no root, one digit
    deeper than c (step = p^m*), with the term c + u0 * step (a constant where
    the new center is exact).  A rational c = a/b moves to the fraction
    (a + u0 * step * b) / b, already in lowest terms, built from integers."""
    x = exact_value(center.value)
    if x is not None:
        x = Fraction(x.numerator + u0 * step * x.denominator, x.denominator)
        return Center(x, 1, None if center.term is None else TConst(x))
    off = Fraction(u0 * step)
    term = None if center.term is None else TAdd(center.term, TConst(off))
    return Center(shift_center(center.value, off), 1, term)


def _split_tie_class(f: Poly, w: Poly, p: int, center: Center, u0: int, m_star: int,
                     budget: int) -> tuple[Center, OrderLaw]:
    """The center of the tie class {ord(y - c - u0 p^m*) >= m* + 1} and the
    law of f there.  The center is a certified root of the squarefree part w
    if the class holds one; else it is c + u0 p^m*, one digit deeper than c."""
    c_value, c_term, step = center.value, center.term, p**m_star
    off = Fraction(u0 * step)
    base = center_proxy(c_value, p, max(m_star + 5, 8)) + off
    root = next(roots_in_ball(w, base, m_star + 1, p, budget + 4, 1), None)
    if root is None:
        shifted = _shifted_center(center, u0, step)
        return shifted, OrderLaw(ord_of_poly_at(f, shifted.value, p), 0)
    term: Term | None = None
    if c_term is not None:
        h_term = TH(w.degree, 1, _taylor_coeff_terms(w, c_term, c_value), TRv(1, TConst(off)))
        term = h_term if _term_is_zero(c_term) else TAdd(c_term, h_term)
    return Center(center_of(root), 1, term), OrderLaw(INFINITY, 0)


def _checked_walk(f: Poly, p: int, domain: Ball) -> list[Cell1]:
    """The unsorted cells of `prepare_grouped`, after the input checks."""
    _check_input(p, domain)
    if f.is_zero:
        raise UnsupportedInputError("cannot decompose for the zero polynomial")
    if f.degree > MAX_DEGREE:
        raise UnsupportedInputError(f"deg f = {f.degree} is above the supported bound {MAX_DEGREE}")
    w = squarefree_part(f)
    return _prepare_ball(f, p, domain, _budget(f, p, w), w)


def prepare_grouped(f: Poly, p: int, domain: Ball = ZP) -> Decomposition:
    """A decomposition of the domain ball with an exact order law for f (and
    for the whole derivative tower, inherited from the recursion) on every
    cell.  The recursion runs on the ball itself, with centers in f's own
    coordinates; descents are counted from the ball's radius, so the budget
    bounds the depth below the ball, not below Z_p.  Each rootless tie group
    is one family cell, the sphere ord(y - c) = m* around the tie's center c
    whose first digits are its classes, so the number of cells does not
    grow with p.  A group goes up the derivative tower as one family cell
    too: each higher polynomial walks it like any other.

    `decompose` prints and verifies this form, a group as one cell whose
    residues are its classes' first digits at depth 1, and the law check
    samples every class.  So do the commands that answer with a sum or a
    maximum over cells: a measure, the measure of each order, the zeta
    function, the dimension; `preserves-balls`, whose verdict per cell
    holds on a group as on its classes; and `decompose_set` refines it for
    every command on a formula but `chi`.  `chi` still depends on how a set
    is cut, so it uses `prepare` until it reads the set alone."""
    return Decomposition(p, domain, sorted_cells(_checked_walk(f, p, domain)))


def prepare(f: Poly, p: int, domain: Ball = ZP) -> Decomposition:
    """`prepare_grouped` with each rootless tie group listed as the point
    and the family [m* + 1, oo) of each of its classes, at the class's
    center c + u0 p^m*, all sharing the group's laws frozen at m* (a strict
    region may give a group a law with a slope, constant on its sphere):
    the same set with the same laws, as the per-class recursion builds it.
    Every family has all units at depth 1.  The cells are sorted once,
    after the listing.  `chi` reads this form, and `decompose_set` where
    `listed`, for `chi` of a formula; its cells grow as 2·(p - 1 - r) per
    tie with r root classes."""
    cells = []
    for cell in _checked_walk(f, p, domain):
        if cell.is_point or cell.residues.is_all:
            cells.append(cell)
            continue
        m_star = cell.m_range.lo  # a group: its classes are the units u0 at depth 1
        laws, below = cell.frozen_laws(m_star), ArithRange(m_star + 1, None)
        for u0 in cell.residues.members():
            c = _shifted_center(cell.center, u0, p**m_star)
            cells += [Cell1(p, c, None, None, laws), Cell1(p, c, below, Residues(1, p=p), laws)]
    return Decomposition(p, domain, sorted_cells(cells))


# ---------------------------------------------------------------------------
# Atom evaluation on cells.
# ---------------------------------------------------------------------------


def _atom_polys(atom: Atom) -> list[Poly]:
    if isinstance(atom, OrdCmp):
        return [atom.f] + ([atom.g] if atom.g is not None else [])
    return [atom.f]


def _validate_atom(atom: Atom, p: int) -> None:
    for q in _atom_polys(atom):
        if q.is_zero and not isinstance(atom, (OrdEqInf, RvEq)):
            raise UnsupportedInputError("zero polynomial in an order comparison")
    if isinstance(atom, OrdModEq) and atom.modulus < 1:
        raise UnsupportedInputError("modulus must be positive")
    if isinstance(atom, (AcEq, RvEq)):
        require_classes(p, atom.depth, "the ac/rv depth")


def _split_range(cell: Cell1, parts) -> list[tuple[Cell1, bool]]:
    return [(cell.copy(m_range=rng), flag) for rng, flag in parts if rng is not None]


def _ord_atom_pieces(cell: Cell1, atom: Atom) -> list[tuple[Cell1, bool]]:
    law_f = cell.law_for(atom.f)

    if isinstance(atom, OrdEqInf):
        if cell.is_point:
            return [(cell, law_f.e0 is INFINITY)]
        return [(cell, False)]

    if isinstance(atom, OrdModEq):
        if cell.is_point:
            v = law_f.e0
            return [(cell, v is not INFINITY and (v - atom.residue) % atom.modulus == 0)]
        e0, i0 = law_f.e0, law_f.i0
        q = atom.modulus
        if q == 1:
            return [(cell, True)]
        if i0 == 0:
            return [(cell, (e0 - atom.residue) % q == 0)]
        g = int_gcd(i0, q)
        if (atom.residue - e0) % g != 0:
            return [(cell, False)]
        qq = q // g
        if qq == 1:
            return [(cell, True)]
        m0 = ((atom.residue - e0) // g * pow(i0 // g, -1, qq)) % qq
        rng = cell.m_range
        classes = qq // int_gcd(rng.step, qq)
        pieces = []
        for v in rng.values(limit=classes):
            sub = ArithRange(v, rng.hi, rng.step * classes)
            pieces.append((sub, (v - m0) % qq == 0))
        return _split_range(cell, pieces)

    assert isinstance(atom, OrdCmp)
    compare = RELATIONS[atom.rel]
    if atom.g is None:
        e_g, i_g = atom.offset, 0
    else:
        law_g = cell.law_for(atom.g)
        e_g, i_g = law_g.e0 + atom.offset, law_g.i0
    if cell.is_point:
        return [(cell, compare(law_f.e0, e_g))]
    e_f, i_f = law_f.e0, law_f.i0
    if e_f is INFINITY or e_g is INFINITY:
        return [(cell, compare(e_f, e_g))]
    a = i_f - i_g
    b = e_f - e_g
    rng = cell.m_range
    if a == 0:
        return [(cell, compare(b, 0))]
    crossing = Fraction(-b, a)
    fl = crossing.numerator // crossing.denominator
    exact = crossing == fl
    pieces = []
    below = rng.restrict(hi=fl - 1 if exact else fl)
    at = rng.restrict(lo=fl, hi=fl) if exact else None
    above = rng.restrict(lo=fl + 1)
    for sub in (below, at, above):
        if sub is None:
            continue
        pieces.append((sub, compare(b + a * sub.lo, 0)))
    return _split_range(cell, pieces)


def _sphere_digits(f: Poly, center: CenterValue, m: int, v: int, depth: int,
                   units, p: int) -> list[int]:
    """f(c + p^m u) / p^v mod p^depth for each u, where ord f >= v at those
    points: a value is divisible by p exactly where ord f > v, and a point
    where ord f < v is an internal bound error.  u = 0 reads f at the center.

    One integer expansion per sphere: with (N, D) = `f.integral`, N moves by
    at least as much as y on Z_p, so f moves by at least ord(y - y') - ord D.
    A rational x = a/b congruent to the center mod p^(v + ord D + depth)
    therefore gives f(x + p^m u) the value of f(c + p^m u) mod p^(v + depth),
    and f(x + p^m u) = G(u) / (D b^n) with G_i = H_i (b p^m)^i, H the shifted
    numerators at a/b.  G(u) is an integer of valuation at least
    w = max(v + ord D, 0), so G mod p^(w + depth), divided by p^w and times
    p^(w - v - ord D), is the numerator of f / p^v."""
    den = f.integral[1]
    vd = int_val(den, p)
    w = max(v + vd, 0)
    qd, pw = p**depth, p**w
    mod = pw * qd
    x = center_proxy(center, p, w + depth)
    a, b = x.numerator, x.denominator
    step = b * p**m
    coeffs = [h * pow(step, i, mod) % mod
              for i, h in enumerate(f.shifted_numerators(a, b))][::-1]
    inv = pow(den // p**vd * b**f.degree, -1, qd) * p**(w - v - vd)
    out = []
    for u in units:
        acc = 0
        for g in coeffs:
            acc = (acc * u + g) % mod
        high, low = divmod(acc, pw)
        if low:
            raise _law_error(f, v, p, center, m, u)
        out.append(high * inv % qd)
    return out


def _law_error(f: Poly, v: int, p: int, center: CenterValue, m: int, u: int):
    """ord f = v fails at c + p^m u: below v in `_sphere_digits`, above in its callers."""
    at = f"the unit {u} of the sphere m = {m} around the center" if u else "the center"
    return InternalBoundError(
        f"the law ord {format_poly(f)} = {v} (p = {p}) fails at {at} {center}")


def _point_digits(cell: Cell1, f: Poly, depth: int) -> int | None:
    """The first `depth` unit digits of f at a point cell; None where f vanishes."""
    law, p = cell.law_for(f), cell.prime
    if law.e0 is INFINITY:
        return None
    dig = _sphere_digits(f, cell.center.value, 0, law.e0, depth, [0], p)[0]
    if dig % p == 0:
        raise _law_error(f, law.e0, p, cell.center.value, 0, 0)
    return dig


def _digit_atom_pieces(cell: Cell1, f: Poly, depth: int, target: int):
    """Split a family cell by whether unit_digits(f(y), depth) = target: a
    piece per sphere m and truth value, and on an unbounded range one tail
    piece from the first sphere whose digits hold on all later ones.

    On the sphere m every Taylor term of f other than the law's index i0 is
    p^gap(m) smaller than the law's; where every gap is at least `depth`, the
    digits are those of the law's term alone, the same on each such sphere.
    The gaps of larger indices grow with m and those of smaller ones shrink,
    so these spheres form a window [m_d, m_u]: the first of them is read and
    its digits serve the others.  An unbounded exact-law range has no term of
    smaller index, so its window has no end and becomes the tail.

    A sphere is read class by class.  With g the least of v_i + i m - law_m
    over the Taylor lines i >= 1, moving u by p^k moves f(c + p^m u) / p^law_m
    by p^(g + k), so its digits mod p^j are one value on each class of level
    j - g.  The first digit is read at one representative per class of that
    level, the least unit of the class, which checks the law at every unit
    and meets the least unit where it fails; then, for j = 1, ..., depth,
    only the classes whose digits match the target mod p^j are lifted.  The
    classes dropped on the way make up the false piece."""
    law, p = cell.law_for(f), cell.prime
    assert law.e0 is not INFINITY
    lines = _taylor_lines(f, cell.center.value, p)
    rng = cell.m_range
    e0, i0 = law.e0, law.i0
    m_d, m_u = rng.lo, rng.hi
    for j, vj in lines:
        if j > i0:
            m_d = max(m_d, -(-(depth + e0 - vj) // (j - i0)))
        elif j < i0:
            if rng.hi is None:
                # a smaller index would eventually dominate: impossible on an
                # unbounded exact-law range unless its coefficient vanishes
                raise InternalBoundError(
                    f"the law {law} of ord {format_poly(f)} (p = {p}) on m in {rng} around "
                    f"the center {cell.center} has a decreasing dominance gap to the "
                    f"Taylor term {j}")
            m_u = min(m_u, (vj - e0 - depth) // (i0 - j))

    def read(m: int) -> list[tuple[Residues, bool]]:
        # the residues of the sphere m where the atom is false and true
        law_m = e0 + i0 * m
        d_m = max(cell.residues.depth, depth + law_m - min(v + i * m for i, v in lines))
        g = min(v + i * m for i, v in lines if i) - law_m
        classes, digits, false = cell.residues.explicit(), {}, []
        for j in range(1, depth + 1):
            level = max(1, j - g)
            classes = [(max(i, level), b) for i, a in classes
                       for b in range(a, p ** max(i, level), p**i)]
            fresh = sorted(b for _, b in classes if b not in digits)
            if fresh:
                digits.update(zip(fresh, _sphere_digits(f, cell.center.value, m, law_m, depth,
                                                        fresh, p)))
            bad = next((u for u in fresh if digits[u] % p == 0), None) if j == 1 else None
            if bad is not None:
                raise _law_error(f, law_m, p, cell.center.value, m, bad)
            q = p**j
            false += [c for c in classes if (digits[c[1]] - target) % q]
            classes = [c for c in classes if (digits[c[1]] - target) % q == 0]
        return [(Residues(d_m, p=p, classes=part), flag)
                for part, flag in ((false, False), (classes, True)) if part]

    pieces: list[tuple[Cell1, bool]] = []
    stable = None
    for m in rng.values():
        in_window = m_d <= m and (m_u is None or m <= m_u)
        if in_window and stable is None:
            stable = read(m)
        tail = in_window and rng.hi is None
        sub = rng.restrict(lo=m) if tail else ArithRange(m, m)
        for res, flag in stable if in_window else read(m):
            pieces.append((cell.copy(m_range=sub, residues=res), flag))
        if tail:
            break
    return pieces


def _split_by_atom(cell: Cell1, atom: Atom) -> list[tuple[Cell1, bool]]:
    if isinstance(atom, (OrdCmp, OrdEqInf, OrdModEq)):
        return _ord_atom_pieces(cell, atom)

    if isinstance(atom, AcEq):
        target = atom.unit % cell.prime**atom.depth
        if cell.is_point:
            return [(cell, _point_digits(cell, atom.f, atom.depth) == target)]
        return _digit_atom_pieces(cell, atom.f, atom.depth, target)

    assert isinstance(atom, RvEq)
    law = cell.law_for(atom.f)
    if atom.tag.is_zero:
        return [(cell, cell.is_point and law.e0 is INFINITY)]
    # the unit digits compare mod p^depth, as they do for ac
    want_digits = atom.tag.unit % cell.prime**atom.depth
    if cell.is_point:
        ok = law.e0 == atom.tag.valuation and \
            _point_digits(cell, atom.f, atom.depth) == want_digits
        return [(cell, ok)]
    out: list[tuple[Cell1, bool]] = []
    val_atom = OrdCmp(atom.f, None, atom.tag.valuation, "=")
    for piece, v_ok in _ord_atom_pieces(cell, val_atom):
        if not v_ok:
            out.append((piece, False))
        else:
            out.extend(_digit_atom_pieces(piece, atom.f, atom.depth, want_digits))
    return out


# ---------------------------------------------------------------------------
# decompose_set and preservation of balls.
# ---------------------------------------------------------------------------


def decompose_set(phi: Formula, p: int, domain: Ball = ZP, listed: bool = False) -> Decomposition:
    """A decomposition of the domain on which the formula is constant per
    cell; the truth value is recorded as the cell's keep flag.  Each
    polynomial is decomposed by `prepare_grouped`, so a rootless tie group
    stays one cell unless an atom or another polynomial cuts it, or by
    `prepare` where `listed`, for `chi`, which still reads the cut (the
    keyword goes when `chi` reads the set alone); the refinement and the
    atom splits are the same on both."""
    _check_input(p, domain)
    atoms: list[Atom] = []
    for atom in formula_atoms(phi):
        _validate_atom(atom, p)
        if atom not in atoms:
            atoms.append(atom)
    polys: list[Poly] = []
    for atom in atoms:
        for q in _atom_polys(atom):
            if not q.is_zero and q.degree >= 1 and q not in polys:
                polys.append(q)
    if not polys:
        polys = [Poly.of(0, 1)]
    build = prepare if listed else prepare_grouped
    dec = build(polys[0], p, domain)
    for q in polys[1:]:
        dec = refine_common(dec, build(q, p, domain))

    const_laws = {
        q: OrderLaw(ord_p(q.coeff(0), p), 0)
        for atom in atoms
        for q in _atom_polys(atom)
        if not q.is_zero and q.degree == 0
    }

    final: list[Cell1] = []
    for cell in dec.cells:
        if const_laws:
            cell = cell.with_laws(const_laws)
        pending: list[tuple[Cell1, dict[Atom, bool]]] = [(cell, {})]
        for atom in atoms:
            nxt = []
            for piece, truth in pending:
                if atom.f.is_zero and isinstance(atom, (OrdEqInf, RvEq)):
                    flag = True if isinstance(atom, OrdEqInf) else atom.tag.is_zero
                    nxt.append((piece, {**truth, atom: flag}))
                    continue
                for sub, flag in _split_by_atom(piece, atom):
                    nxt.append((sub, {**truth, atom: flag}))
            pending = nxt
        for piece, truth in pending:
            final.append(piece.copy(keep=eval_formula(phi, truth)))
    return Decomposition.of_cells(p, dec.domain, final)


@dataclass(frozen=True)
class FiberImageEntry:
    cell: Cell1
    verdict: str                  # "ball" or "point"
    radius_law: OrderLaw | None   # ord of the image-ball radius as a law in m


@dataclass(frozen=True)
class PreservesBallsReport:
    entries: tuple[FiberImageEntry, ...]

    @property
    def all_ball_or_point(self) -> bool:
        return all(e.verdict in ("ball", "point") for e in self.entries)


def preserves_balls_report(dec: Decomposition, big_f: Poly) -> PreservesBallsReport:
    """Decide per cell fiber whether the polynomial image of the fiber ball
    is a ball or a point, using the derivative-tower order laws.

    Cells whose residue depth is too shallow for the linear Taylor term to
    dominate are split deeper until the verdict is certified, so the report
    is always exact.
    """
    entries: list[FiberImageEntry] = []
    for cell in dec.cells:
        if big_f.degree <= 0 or cell.is_point:
            entries.append(FiberImageEntry(cell, "point", None))
            continue
        entries.append(_fiber_entry(cell, big_f))
    return PreservesBallsReport(tuple(entries))


def _fiber_entry(cell: Cell1, big_f: Poly) -> FiberImageEntry:
    # laws for the derivative tower, as laws for the Taylor coefficients:
    # ord c_j(member) = law_j(m) - ord(j!)
    p, laws = cell.prime, [None]
    q = big_f
    for _ in range(big_f.degree):
        q = q.derivative()
        laws.append(cell.law_for(q))
    law1 = laws[1]
    rng = cell.m_range
    if law1.e0 is INFINITY:
        raise InternalBoundError(
            f"the law of {format_poly(big_f.derivative())} is infinite on the family "
            f"on m in {rng} around the center {cell.center} (p = {p})")
    d = cell.residues.depth
    d_need = d
    for j in range(2, big_f.degree + 1):
        law_j = laws[j]
        if law_j.e0 is INFINITY:
            continue
        fact = ord_p(factorial(j), p)
        # need (law_j(m) - fact) + j(m+d) > law_1(m) + (m+d) for all m in rng
        slope = (law_j.i0 - law1.i0) + (j - 1)
        const = (law_j.e0 - fact - law1.e0)
        if slope < 0 and rng.hi is None:
            raise InternalBoundError(
                f"the fiber-image criterion for {format_poly(big_f)} (p = {p}) degenerates "
                f"on the unbounded range m in {rng} around the center {cell.center}")
        worst_m = rng.lo if slope >= 0 else rng.hi
        need = -(const + slope * worst_m) // (j - 1) + 1
        d_need = max(d_need, need)
    piece = cell if d_need == d else cell.copy(residues=cell.residues.lift(d_need))
    depth = piece.residues.depth
    radius = OrderLaw(law1.e0 + depth, law1.i0 + 1)
    return FiberImageEntry(piece, "ball", radius)


# The positive Grothendieck semiring of auxiliary classes: a decomposed set
# maps to a graded sum of auxiliary-set classes (residue count x order-part
# shape, graded by cell type).  Refinements do not change the class, which
# is the change-of-variables property of the Euler characteristic.

from fractions import Fraction

from padic_cells import chi, cv_check, dim_of, dim_product, prepare
from padic_cells.cells import (
    ArithRange, Cell1, Center, Decomposition, Residues, TConst, ZP,
    product, sorted_cells,
)
from padic_cells.kgroup import chi_product, k0_mul
from padic_cells.poly import Poly

p = 5
D = prepare(Poly.of(0, 1), p)
print("chi(Z_5)          =", chi(D))

# a cell family of all spheres with 20 residue classes at depth 2 presents
# the punctured line Z_5 \ {0}
zero = Center(Fraction(0), 1, TConst(Fraction(0)))
punct = lambda depth: Decomposition(p, ZP, sorted_cells([
    Cell1(p, zero, None, None, {}, keep=False),
    Cell1(p, zero, ArithRange(0, None), Residues(depth, p=p), {}, keep=True),
]))
print("chi at depth 1    =", chi(punct(1)))
print("chi at depth 2    =", chi(punct(2)))

# the two presentations are identified by refinement-generated relations
print("cv_check          =", cv_check(punct(1), punct(2)))
print("cv_check 0 vs 1   =", cv_check(prepare(Poly.of(0, 1), p),
                                      prepare(Poly.of(-1, 1), p)))

# multiplication is cartesian product with grades adding; the grade equals
# the dimension of the cell
a = chi(D)
print("chi x chi         =", k0_mul(a, a))
pairs = [product([x, z]) for x in D.cells for z in D.cells]
print("chi of Z_5 x Z_5  =", chi_product(pairs))
print("dim Z_5           =", dim_of(D))
print("dim Z_5 x Z_5     =", dim_product(dim_of(D), dim_of(D)))

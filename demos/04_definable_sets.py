# Quantifier-free definable subsets of Z_p: formulas over ord, ac and rv are
# decomposed into cells on which the formula is constant, and the kept cells
# are all points or families of balls.

from fractions import Fraction

from padic_cells import decompose_set, verify_partition
from padic_cells.measure import decomposition_measure
from padic_cells.parser import parse_formula

# The nonzero cubes in Z_7: ord divisible by 3, leading digit a cube mod 7.
# (The cubes among units mod 7 are {1, 6}.)
phi = parse_formula("ord(y) % 3 = 0 & (ac(1, y) = 1 | ac(1, y) = 6)")
cubes = decompose_set(phi, 7)
mu = decomposition_measure(cubes, kept_only=True)
print("P_3 over Z_7:")
for cell in cubes.kept_cells:
    print("   kept:", cell.center, cell.m_range, cell.residues)
print("   measure:", mu, "=", float(mu))
print("   closed form (2/7)/(1 - 7^-3)  =", Fraction(2, 7) / (1 - Fraction(1, 343)))

# Z_5 minus the point 5, presented by the map y -> rv(y - 5): a single
# family of balls, i.e. one (1)-cell.
phi2 = parse_formula("!(rv(2, y - 5) = 0)")
punctured = decompose_set(phi2, 5)
print("\nZ_5 minus {5}:")
for cell in punctured.cells:
    tag = "kept " if cell.keep else "drop "
    body = "point" if cell.is_point else f"family m in {cell.m_range}"
    print(f"   {tag}{body} around {cell.center}")
print("   scan:", "clean" if verify_partition(punctured, 4).ok else "violations")

# truth is decided per cell from the exact order laws, so membership of any
# rational is decidable; compare against direct arithmetic
from padic_cells.cells import contains

sample = [x**3 for x in (1, 2, 3, 10)] + [2, 3, 7, 14]
got = [any(contains(c, v) for c in cubes.kept_cells) for v in sample]
print("\ncube membership:", dict(zip(sample, got)))

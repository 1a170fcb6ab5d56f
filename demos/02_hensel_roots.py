# Quantitative Hensel lifting: the conditions that certify a unique root in
# an rv-class, the total root-or-zero function h, and refinable root
# approximations with Newton certificates.

from fractions import Fraction

from padic_cells import check_conditions, h, order_law_at_root, refine_root, rv
from padic_cells.poly import Poly

p = 5

# y^2 - 6 has a square root of 6 in Z_5 (6 = 1 mod 5 is a QR).
# The conditions hold at the class representative itself:
print("conditions at x=1:", check_conditions([-6, 0, 1], 1, rv(1, p, 1), 1, p))

# h returns the unique root with rv = rv(1):
root = h([-6, 0, 1], rv(1, p, 1), p)
print("h(y^2-6, rv(1)) =", root)

# the approximation refines quadratically; digits match brute-force lifting
deep = refine_root(root, 8)
q = 5**8
lift = deep.approx.numerator * pow(deep.approx.denominator, -1, q) % q
brute = [y for y in range(q) if (y * y - 6) % q == 0 and y % 5 == 1]
print("refined root mod 5^8:", lift, " brute force:", brute[0])

# no root: 2 is not a square mod 5, so h is zero (it is a total function)
print("h(y^2-2, rv(1)) =", h([-2, 0, 1], rv(1, p, 1), p))

# rational roots come back exactly, via rational reconstruction
print("h(y^2-1, rv(1)) =", h([-1, 0, 1], rv(1, p, 1), p))
print("h(3y-1, rv(2))  =", h([-1, 3], rv(Fraction(1, 3), p, 1), p))

# the order law at the root: ord f(w) = ord b1 + ord(w - y0) near the root
f = Poly.of(-6, 0, 1)
print("ord b1 for y^2-6:", order_law_at_root(f, root))
w = 1 + 5 * 123456                       # a point in the same rv-class
from padic_cells import ord_p
dist = ord_p(Fraction(w) - deep.approx, p)
print("check: ord f(w) =", ord_p(f.eval(w), p), "= ord b1 + ord(w - y0) =", dist)

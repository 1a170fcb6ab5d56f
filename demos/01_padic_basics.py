# Exact p-adic arithmetic on rational representatives: valuations, unit
# digits, and rv-data (valuation + leading digits).  Everything is an exact
# integer or Fraction; there is no floating point anywhere in the package.

from fractions import Fraction

from padic_cells import ord_p, rv, unit_digits

p = 5

# the valuation counts factors of p, with ord(0) = infinity
print("ord_5(50)   =", ord_p(50, p))            # 50 = 2 * 5^2
print("ord_5(7/5)  =", ord_p(Fraction(7, 5), p))
print("ord_5(0)    =", ord_p(0, p))

# the unit part of x is x / p^ord(x); its digits mod p^d are computed via a
# modular inverse of the prime-to-p denominator
print("unit_digits(50, 5, 1)  =", unit_digits(50, p, 1))    # 2
print("unit_digits(7/5, 5, 2) =", unit_digits(Fraction(7, 5), p, 2))
print("unit_digits(-1, 5, 2)  =", unit_digits(-1, p, 2))    # 24

# rv bundles both; zero goes to the zero element of every level
print("rv(50, 5, 1) =", rv(50, p, 1))
print("rv(0, 5, 3)  =", rv(0, p, 3))

# deeper rv-data projects onto shallower: the natural map between levels
r3 = rv(Fraction(7, 5), p, 3)
print("rv(7/5, 5, 3)            =", r3)
print("projected to depth 1     =", r3.project(1, p))
print("computed directly at 1   =", rv(Fraction(7, 5), p, 1))

# multiplicativity: rv of a product is the product of rv-data
x, y = Fraction(12, 7), Fraction(-45, 11)
rx, ry, rxy = rv(x, p, 2), rv(y, p, 2), rv(x * y, p, 2)
print("valuations add:   ", rx.valuation, "+", ry.valuation, "=", rxy.valuation)
print("units multiply:   ", rx.unit, "*", ry.unit,
      "= ", rx.unit * ry.unit % 25, "mod 25 ->", rxy.unit)

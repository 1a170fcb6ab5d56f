# Haar measure (normalized to mu(Z_p) = 1) and Igusa-type zeta functions,
# all in exact closed form: each cell contributes a geometric series in
# p^-1 t^i0, so Z(t) = sum_m mu(ord f = m) t^m is a rational function.

from fractions import Fraction

from padic_cells import igusa_zeta, measure_of_order, prepare
from padic_cells.measure import cell_measure, decomposition_measure
from padic_cells.oracle import count_roots_mod
from padic_cells.poly import Poly, format_poly

p = 5
f = Poly.of(-1, 0, 1)  # y^2 - 1
dec = prepare(f, p)

# per-cell measures add up to mu(Z_p) = 1 exactly
print("cell measures:", [str(cell_measure(c)) for c in dec.cells])
print("total:", decomposition_measure(dec))

# mu(ord f = m) from the laws, cross-checked by counting roots mod p^k:
# mu(ord f >= k) = N_k p^-k
print("\nm   mu(ord f = m)   N_m p^-m - N_{m+1} p^-(m+1)")
for m in range(5):
    mu = measure_of_order(dec, f, m)
    n_m = count_roots_mod(f, p, m) if m else 1
    n_m1 = count_roots_mod(f, p, m + 1)
    oracle = Fraction(n_m, p**m) - Fraction(n_m1, p ** (m + 1))
    print(f"{m}   {mu!s:14} {oracle!s} {'ok' if mu == oracle else 'MISMATCH'}")

# the zeta function of a monomial has the textbook closed form
for k in (1, 2, 3):
    g = Poly.of(*([0] * k + [1]))
    z = igusa_zeta(prepare(g, p), g)
    print(f"\nZ(t) for {format_poly(g)}:", z)

# evaluating at t = 1 recovers the total measure of the domain
z = igusa_zeta(dec, f)
print("\nZ(t) for y^2 - 1:", z)
print("Z(1) =", z.eval(Fraction(1)))
print("series coefficients through t^5:", [str(c) for c in z.taylor_coefficients(5)])

"""Natural valuations on the ruled-surface cone.

v(k D) is the least j with j H - k D pseudo-effective. The normalized
values v(k D) / k increase to an exact rational limit with gap at most
1/k, and the m-truncated limiting discrepancy is -v(m K_V) / m.
"""

from fractions import Fraction

from singvol import QVector, limiting_discrepancy, natural_valuation, valuation_limit
from singvol.cone import ruled_surface_cone
from singvol.cone import curve_cone

cone = ruled_surface_cone()
c0 = QVector((Fraction(1), Fraction(0)))

print("class C0 on the ruled surface: limit =", valuation_limit(cone, c0))
for k in (1, 2, 5, 10, 100):
    v = natural_valuation(cone, c0, k)
    print(f"  k = {k:>3}: v(kD) = {v:>3}, v(kD)/k = {Fraction(v, k)}")

half = QVector((Fraction(1, 2), Fraction(5, 2)))
print("\nfractional limit 5/2 shows the ceiling staircase:")
for k in (1, 2, 3, 4):
    v = natural_valuation(cone, half, k)
    print(f"  k = {k}: v(kD) = {v}, normalized {Fraction(v, k)}")

print("\nlimiting discrepancies on the ruled surface (all zero, K_V on the boundary):")
print("  ", {m: str(limiting_discrepancy(cone, m)) for m in (1, 2, 3, 4, 6, 12)})

print("\non the cone over a genus-2 curve of degree 3 they form a staircase:")
g2 = curve_cone(2, 3)
for m in (1, 2, 3, 4, 6):
    print(f"  m = {m:>2}: A_m = {limiting_discrepancy(g2, m)}")
print("divisible levels only improve:", limiting_discrepancy(g2, 1) <= limiting_discrepancy(g2, 3))

"""The ruled-surface counterexample, end to end.

Truncated-volume upper bounds collapse like 2 a^3 as the boundary slope
a = 2^-k shrinks, yet no single log canonical boundary exists: effectivity
forces a >= 0, log canonicity forces a <= 0, and at a = 0 the pinned
boundary 2 C0 is rigid with coefficient 2 > 1. Claims the desk model
cannot verify are labeled, not asserted.
"""

from fractions import Fraction

from singvol import lc_boundary_exists, vol_plus_table
from singvol.cone import ruled_surface_cone

cone = ruled_surface_cone()
slopes = [Fraction(1, 2**k) for k in range(8)]
table = vol_plus_table(cone, slopes)

print("upper bounds along a = 2^-k:")
for row in table["rows"]:
    print(f"  a = {row['a']:>6}: bound {row['upper_bound']:>8}  [{row['status']}]")

verdict = lc_boundary_exists(cone)
print(f"\nlc boundary exists: {verdict.exists} (pinned slope a = {verdict.forced_a})")
for step in verdict.certificate:
    print(f"  - {step}")

print("\nverdicts emitted with the table:")
for v in table["verdicts"]:
    print(f"  {v['claim']}: {v['status']}")

print("\ndeclared not desk-verifiable:")
for v in table["not_desk_verifiable"]:
    print(f"  {v['claim']}: {v['status']}")

"""Walkthrough: quadratic algebras, their duals, and the Koszul complex.

Run with:  python3 demos/01_koszul_basics.py
"""

from koszulkit.graded import check_d_squared, homology
from koszulkit.quadratic import (
    ext_presentation, grow, koszul_complex, koszulity_check, quadratic_dual,
    sym_presentation,
)

N = 6

print("== The polynomial algebra on three variables ==")
pres = sym_presentation(3)
alg = grow(pres, N)
print("generators:", ", ".join(pres.gen_names))
print("graded dimensions:", alg.hdims())
print("Koszul subspace dimensions:", alg.kdims())
print("normal monomials in degree 2:", alg.normal_monomials(2))

print()
print("== Its quadratic dual is the exterior algebra ==")
dual = grow(quadratic_dual(pres), N)
print("dual graded dimensions:", dual.hdims())
print("matches ext_3:", dual.hdims() == grow(ext_presentation(3), N).hdims())

print()
print("== The Koszul complex certifies Koszulity ==")
cx = koszul_complex(alg)
print("d^2 = 0:", check_d_squared(cx)[0])
rep = homology(cx)
nonzero = [c for c in sorted(cx.cells()) if rep.valid(*c) and rep.dim(*c)]
print("homology is one-dimensional and concentrated at (0, 0):",
      nonzero == [(0, 0)] and rep.dim(0, 0) == 1)
# the Koszulity verdict reads its degree from alg: alg.N, set by grow
res = koszulity_check(alg)
print("verdict:", "Koszul up to %d" % N if res["koszul_up_to_N"]
      else "fails at %s" % res["first_failure"])

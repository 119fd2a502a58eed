"""Walkthrough: symmetry actions, smash products and Takiff Lie algebras.

Run with:  python3 demos/02_smash_and_takiff.py
"""

from koszulkit.action import (
    dual_action, smash_ok, takiff, takiff_graded_dims, validate_jacobi,
    validate_module_algebra,
)
from koszulkit.fixtures import (
    c2_sign_provider, sl2_lie_action, sl2_provider, sym_presentation,
)
from koszulkit.quadratic import grow, quadratic_dual

print("== C2 flipping the sign of the polynomial generator ==")
provider = c2_sign_provider()
pres = sym_presentation(1)
print("relations stable under the action:",
      validate_module_algebra(provider, pres) == (True, None))
alg = grow(pres, 4)
print("smash product associative:", smash_ok(provider, alg) == (True, None))

print()
print("== The dual side: co-opposite smash on the exterior dual ==")
dual_alg = grow(quadratic_dual(pres), 4)
print("dual smash associative:",
      smash_ok(dual_action(provider), dual_alg) == (True, None))

print()
print("== sl2 and its Takiff extensions ==")
lie = sl2_lie_action()
print("sl2 on S(sl2): relations stable:",
      validate_module_algebra(sl2_provider(), sym_presentation(3))
      == (True, None))
for parity in ("even", "super"):
    t = takiff(lie, parity)
    pbw, grown = takiff_graded_dims(t, 3)
    print("%s Takiff: Jacobi holds: %s; graded dims %r match: %s"
          % (parity, validate_jacobi(t) == (True, None), grown,
             pbw == grown))

"""Walkthrough: the injective/projective duality complexes and round trips.

Builds both duality complexes for the sign module of C2 acting on the
one-variable polynomial algebra and certifies the degree-zero homology.
The identifications, the round trips and the three Koszulity verdicts
take no module: they are computed once, at the trivial module k (the
counit action), and hold for every degree-zero module whose laws hold,
the sign module included.

Run with:  python3 demos/03_duality_roundtrip.py
"""

from koszulkit.action import dual_action
from koszulkit.duality import (
    I_complex, P_complex, degree_zero_module, h0_certificate, identify_socI,
    koszulity_via_duality, roundtrip_A, roundtrip_B,
)
from koszulkit.fixtures import c2_modules, c2_sign_provider
from koszulkit.graded import homology
from koszulkit.quadratic import (
    DualityPairing, grow, quadratic_dual, sym_presentation,
)

# the one degree window: every complex and verifier below works up to
# alg.N, the degree to which the algebras are grown here
N = 4
pres = sym_presentation(1)
provider = c2_sign_provider()
alg = grow(pres, N)
dual = grow(quadratic_dual(pres), N)
pairing = DualityPairing(alg, dual)
mats = c2_modules()["sign"]

print("== Injective-side complex of the sign module ==")
X = degree_zero_module(provider, alg, mats)
icx = I_complex(X)
rep = homology(icx.cx)
cells = [c for c in sorted(icx.cx.cells())
         if rep.valid(*c) and rep.dim(*c) and icx.is_complete(*c)]
print("nonzero homology cells (none off degree zero, the boundary "
      "diagonal included):", cells)
print("degree-zero homology is the module itself (equivariantly):",
      h0_certificate(icx, X) == (True, None))

print()
print("== Projective side over the co-opposite smash ==")
Xd = degree_zero_module(dual_action(provider), dual, mats)
pcx = P_complex(Xd)
print("degree-zero homology certificate:",
      h0_certificate(pcx, Xd) == (True, None))

print()
print("== The socle subcomplex is the projective model (at k) ==")
res = identify_socI(provider, pairing)
print("bijective equivariant identification:", res["ok"])

print()
print("== Round trips (at k) ==")
ra = roundtrip_A(provider, pairing)
rb = roundtrip_B(provider, pairing)
print("injective-side round trip:", ra["checks"])
print("projective-side round trip:", rb["checks"])

print()
print("== Three Koszulity verdicts must coincide (at k) ==")
kv = koszulity_via_duality(provider, pairing)
print("per-degree (injective side):", kv["per_degree_injective"])
print("all verdicts agree:", kv["agree"])
print("assumed, not checked:", kv["assumptions"][0])

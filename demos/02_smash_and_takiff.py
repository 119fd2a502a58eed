"""Walkthrough: symmetry actions, smash products and Takiff algebras.

Run with:  python3 demos/02_smash_and_takiff.py
"""

import contextlib
import io
import json
import os
import tempfile

from koszulkit.action import dual_action, smash_ok, validate_module_algebra
from koszulkit.cli import main
from koszulkit.fixtures import c2_sign_provider, fixture_bundle, sl2_provider
from koszulkit.quadratic import (
    QuadraticPresentation, grow, quadratic_dual, sym_presentation,
)

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
print("== sl2 and its Takiff algebras ==")
# By PBW, the enveloping algebra of the Takiff algebra sl2 + V, [V, V] = 0,
# is the smash product U(sl2) # S(V), and with V odd it is
# U(sl2) # Lambda(V); the takiff check reads which of the two the input
# presentation is.  The input files are the built-in data.
with tempfile.TemporaryDirectory() as tmp:
    action = os.path.join(tmp, "sl2.action.json")
    with open(action, "w") as f:
        json.dump(fixture_bundle("sl2_adjoint_takiff")["action"], f)
    for label, name in (("S(sl2)", "sym_3"), ("Lambda(sl2)", "ext_3")):
        path = os.path.join(tmp, "p.json")
        report = os.path.join(tmp, "r.json")
        obj = fixture_bundle(name)["presentation"]
        with open(path, "w") as f:
            json.dump(obj, f)
        pres = QuadraticPresentation.from_json_obj(obj)
        with contextlib.redirect_stdout(io.StringIO()):
            main(["check", "--input", path, "--action", action, "--checks",
                  "takiff", "--max-degree", "3", "--out", report])
        with open(report) as f:
            takiff = json.load(f)["checks"]["takiff"]["details"]
        print("sl2 on %s: smash product associative: %s; Takiff algebra: %s"
              % (label, smash_ok(sl2_provider(), grow(pres, 3))
                 == (True, None), takiff["takiff_algebra"]))

"""Built-in example inputs: presentations, actions and test modules.

These are the canonical small inputs used by the test suite and emitted by
`koszulkit fixtures`.  Generator names follow x1, x2, ... except where a
classical letter is clearer (t for one variable, e/h/f for sl2).
"""

from __future__ import annotations

from koszulkit.exactlin import F1, Subspace
# the standard presentations live in quadratic, so that a check run (the
# takiff check's comparison) builds them without loading this module
from koszulkit.quadratic import (
    QuadraticPresentation, ext_presentation, free_presentation,
    sym_presentation,
)


def dual_numbers_presentation():
    """One generator squaring to zero."""
    return QuadraticPresentation(["t"], Subspace.from_rows(1, [[F1]]))


PRESENTATION_FIXTURES = {
    "sym_1": lambda: sym_presentation(1),
    "sym_2": lambda: sym_presentation(2),
    "sym_3": lambda: sym_presentation(3),
    "ext_2": lambda: ext_presentation(2),
    "ext_3": lambda: ext_presentation(3),
    "free_2": lambda: free_presentation(2),
    "dual_numbers": dual_numbers_presentation,
}


# ---------------------------------------------------------------------------
# acting objects

def _m(rows):
    from koszulkit.exactlin import Mat
    return Mat.from_rows(rows)


def trivial_bialgebra():
    from koszulkit.action import Bialgebra
    return Bialgebra(1, _m([[1]]), [1], _m([[1]]), _m([[1]]), ["1"])


def c2_group_algebra():
    """Group algebra of the order-2 group; basis 1, g with g*g = 1."""
    from koszulkit.action import Bialgebra
    mult = _m([[1, 0, 0, 1],
               [0, 1, 1, 0]])
    comult = _m([[1, 0], [0, 0], [0, 0], [0, 1]])
    counit = _m([[1, 1]])
    return Bialgebra(2, mult, [1, 0], comult, counit, ["1", "g"])


def sweedler_bialgebra():
    """The 4-dimensional non-cocommutative Hopf algebra: basis 1, g, x, gx
    with g*g = 1, x*x = 0, x*g = -g*x, comultiplication g group-like and
    x skew-primitive (x |-> x (x) 1 + g (x) x)."""
    from koszulkit.action import Bialgebra
    from koszulkit.exactlin import Mat
    names = ["1", "g", "x", "gx"]
    table = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
        (1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {3: 1}, (1, 3): {2: 1},
        (2, 0): {2: 1}, (2, 1): {3: -1}, (2, 2): {}, (2, 3): {},
        (3, 0): {3: 1}, (3, 1): {2: -1}, (3, 2): {}, (3, 3): {},
    }
    mult = Mat.from_entries(4, 16, ((c, a * 4 + b, v)
                                    for (a, b), out in table.items()
                                    for c, v in out.items()))
    # columns: images of 1, g, x, gx in the 16-dim tensor square
    comult = Mat.from_entries(16, 4, [
        (0 * 4 + 0, 0, 1),          # 1 (x) 1
        (1 * 4 + 1, 1, 1),          # g (x) g
        (2 * 4 + 0, 2, 1),          # x (x) 1
        (1 * 4 + 2, 2, 1),          # g (x) x
        (3 * 4 + 1, 3, 1),          # gx (x) g
        (0 * 4 + 3, 3, 1),          # 1 (x) gx
    ])
    counit = _m([[1, 1, 0, 0]])
    return Bialgebra(4, mult, [1, 0, 0, 0], comult, counit, names)


def trivial_provider(n):
    """The one-dimensional acting bialgebra (no symmetry): every module
    over it is just a vector space."""
    from koszulkit.action import ActionProvider
    from koszulkit.exactlin import Mat
    return ActionProvider.from_bialgebra(trivial_bialgebra(),
                                         [Mat.identity(n)])


def c2_sign_provider():
    """C2 acting on the one-variable polynomial algebra by t <| g = -t."""
    from koszulkit.action import ActionProvider
    return ActionProvider.from_bialgebra(
        c2_group_algebra(), [_m([[1]]), _m([[-1]])])


def c2_modules():
    """Trivial and sign one-dimensional left modules over the C2 algebra."""
    return {"triv": [_m([[1]]), _m([[1]])],
            "sign": [_m([[1]]), _m([[-1]])]}


def sweedler_provider():
    """Sweedler algebra acting on the dual-numbers generator: g by -1,
    the skew-primitive x by 0 (forced on a one-dimensional space by
    x*x = 0 and the module-algebra law)."""
    from koszulkit.action import ActionProvider
    return ActionProvider.from_bialgebra(
        sweedler_bialgebra(),
        [_m([[1]]), _m([[-1]]), _m([[0]]), _m([[0]])])


def sweedler_modules():
    """A two-dimensional left module m0, m1 with g diag(1,-1) and x
    sending m0 to m1; exercises the non-cocommutative leg order."""
    return {"two_dim": [_m([[1, 0], [0, 1]]),
                        _m([[1, 0], [0, -1]]),
                        _m([[0, 0], [1, 0]]),
                        _m([[0, 0], [-1, 0]])]}


def sl2_lie_action():
    """sl2 with basis e, h, f acting on its adjoint representation;
    registered test modules: trivial and adjoint."""
    from koszulkit.action import LieAction
    ad_e = _m([[0, -2, 0], [0, 0, 1], [0, 0, 0]])
    ad_h = _m([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    ad_f = _m([[0, 0, 0], [-1, 0, 0], [0, 2, 0]])
    brackets = {
        (0, 2): [0, 1, 0], (2, 0): [0, -1, 0],   # [e,f] = h
        (1, 0): [2, 0, 0], (0, 1): [-2, 0, 0],   # [h,e] = 2e
        (1, 2): [0, 0, -2], (2, 1): [0, 0, 2],   # [h,f] = -2f
    }
    zero1 = _m([[0]])
    modules = {"triv": [zero1, zero1, zero1],
               "adjoint": [ad_e, ad_h, ad_f]}
    return LieAction(["e", "h", "f"], brackets, [ad_e, ad_h, ad_f], modules)


def sl2_provider():
    from koszulkit.action import ActionProvider
    return ActionProvider.from_lie(sl2_lie_action())


# ---------------------------------------------------------------------------
# named fixture bundles for the CLI

def fixture_bundle(name):
    """Returns {"presentation": json-obj, "action": json-obj-or-None}."""
    from koszulkit.action import action_bundle_to_json
    if name in PRESENTATION_FIXTURES:
        return {"presentation": PRESENTATION_FIXTURES[name]().to_json_obj(),
                "action": None}
    if name == "c2_sign_takiff":
        return {"presentation": sym_presentation(1).to_json_obj(),
                "action": action_bundle_to_json(c2_sign_provider(),
                                                c2_modules())}
    if name == "sl2_adjoint_takiff":
        lie = sl2_lie_action()
        from koszulkit.action import ActionProvider
        provider = ActionProvider.from_lie(lie)
        return {"presentation": sym_presentation(3).to_json_obj(),
                "action": action_bundle_to_json(provider, lie.modules)}
    if name == "sweedler_optional":
        return {"presentation": dual_numbers_presentation().to_json_obj(),
                "action": action_bundle_to_json(sweedler_provider(),
                                                sweedler_modules())}
    raise KeyError("unknown fixture %r" % name)


FIXTURE_NAMES = sorted(list(PRESENTATION_FIXTURES)
                       + ["c2_sign_takiff", "sl2_adjoint_takiff",
                          "sweedler_optional"])

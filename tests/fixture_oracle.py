"""The built-in inputs built as koszulkit objects, the oracle for the data
of koszulkit.fixtures.

koszulkit.fixtures holds each input as the JSON objects of its files; here
each is constructed directly, from structure constants and the standard
presentations.  differences(name, pres, action) compares the objects
that the parsers of `check` read from the data with these constructions,
field by field.
"""

from koszulkit.action import ActionProvider, Bialgebra, LieAction
from koszulkit.exactlin import F1, Mat, Subspace
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


def _m(rows):
    return Mat.from_rows(rows)


def c2_group_algebra():
    """Group algebra of the order-2 group; basis 1, g with g*g = 1."""
    mult = _m([[1, 0, 0, 1],
               [0, 1, 1, 0]])
    comult = _m([[1, 0], [0, 0], [0, 0], [0, 1]])
    counit = _m([[1, 1]])
    return Bialgebra(2, mult, [1, 0], comult, counit, ["1", "g"])


def sweedler_bialgebra():
    """The 4-dimensional non-cocommutative Hopf algebra: basis 1, g, x, gx
    with g*g = 1, x*x = 0, x*g = -g*x, comultiplication g group-like and
    x skew-primitive (x |-> x (x) 1 + g (x) x)."""
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


def c2_sign_provider():
    """C2 acting on the one-variable polynomial algebra by t <| g = -t."""
    return ActionProvider(
        c2_group_algebra(), [_m([[1]]), _m([[-1]])])


def c2_modules():
    """Trivial and sign one-dimensional left modules over the C2 algebra."""
    return {"triv": [_m([[1]]), _m([[1]])],
            "sign": [_m([[1]]), _m([[-1]])]}


def sweedler_provider():
    """Sweedler algebra acting on the dual-numbers generator: g by -1,
    the skew-primitive x by 0."""
    return ActionProvider(
        sweedler_bialgebra(),
        [_m([[1]]), _m([[-1]]), _m([[0]]), _m([[0]])])


def sweedler_modules():
    """A two-dimensional left module m0, m1 with g diag(1,-1) and x
    sending m0 to m1."""
    return {"two_dim": [_m([[1, 0], [0, 1]]),
                        _m([[1, 0], [0, -1]]),
                        _m([[0, 0], [1, 0]]),
                        _m([[0, 0], [-1, 0]])]}


def sl2_lie_action():
    """sl2 with basis e, h, f acting on its adjoint representation;
    registered test modules: trivial and adjoint."""
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


# name: (presentation, provider and modules of the action file, or None)
CONSTRUCTIONS = {
    **{name: (build, None) for name, build in PRESENTATION_FIXTURES.items()},
    "c2_sign_takiff": (lambda: sym_presentation(1),
                       lambda: (c2_sign_provider(), c2_modules())),
    "sl2_adjoint_takiff": (lambda: sym_presentation(3), lambda: (
        ActionProvider.from_lie(sl2_lie_action()), sl2_lie_action().modules)),
    "sweedler_optional": (dual_numbers_presentation,
                          lambda: (sweedler_provider(), sweedler_modules())),
}

# the data that defines each object, read field by field
PROVIDER_FIELDS = ("mats", "space_dim", "cop", "legs", "counit", "unit",
                   "laws")
BASE_FIELDS = {
    Bialgebra: ("dim", "names", "mult", "unit", "comult", "counit"),
    LieAction: ("dim", "names", "brackets", "rho", "modules"),
}


def differences(name, pres, action):
    """The fields in which pres and action, the named input as parsed from
    its data (action as action_bundle_from_json returns it, or None), are
    not the construction here; [] when they agree."""
    build_pres, build_action = CONSTRUCTIONS[name]
    out = [] if pres == build_pres() else ["presentation"]
    if build_action is None or action is None:
        if (build_action is None) != (action is None):
            out.append("action")
        return out
    (provider, modules), (want, want_modules) = action, build_action()
    out += [f for f in PROVIDER_FIELDS
            if getattr(provider, f) != getattr(want, f)]
    if type(provider.base) is not type(want.base):
        return out + ["base"]
    out += ["base." + f for f in BASE_FIELDS[type(want.base)]
            if getattr(provider.base, f) != getattr(want.base, f)]
    return out + ([] if modules == want_modules else ["modules"])

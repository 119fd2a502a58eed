"""Built-in example inputs, held as data.

The ten inputs that `koszulkit fixtures` writes are kept here as the JSON
objects of their files: a quadratic presentation each, and for three of
them an action file (the acting object, its action on the generators and
named test modules).  Generator names follow x1, x2, ... except where a
classical letter is clearer (t for one variable, e/h/f for sl2).  This
module imports no algebra layer at module level, so `koszulkit fixtures`
loads none.

The builders at the end give the same inputs as koszulkit objects, for
the tests, the demos and library use.  Each parses the data with the
parser that `check` runs on a file (QuadraticPresentation.from_json_obj,
action_bundle_from_json), so the data is the one source of truth.
"""

from __future__ import annotations

import json

_SYM_1 = {"generators": ["t"], "relations": []}
_SYM_3 = {"generators": ["x1", "x2", "x3"], "relations": [
    {"terms": [{"c": "1", "m": ["x1", "x2"]},
               {"c": "-1", "m": ["x2", "x1"]}]},
    {"terms": [{"c": "1", "m": ["x1", "x3"]},
               {"c": "-1", "m": ["x3", "x1"]}]},
    {"terms": [{"c": "1", "m": ["x2", "x3"]},
               {"c": "-1", "m": ["x3", "x2"]}]}]}
# one generator squaring to zero
_DUAL_NUMBERS = {"generators": ["t"], "relations": [
    {"terms": [{"c": "1", "m": ["t", "t"]}]}]}

# the relation spaces are written in their canonical (RREF) bases
_PRESENTATIONS = {
    "sym_1": _SYM_1,
    "sym_2": {"generators": ["x1", "x2"], "relations": [
        {"terms": [{"c": "1", "m": ["x1", "x2"]},
                   {"c": "-1", "m": ["x2", "x1"]}]}]},
    "sym_3": _SYM_3,
    "ext_2": {"generators": ["x1", "x2"], "relations": [
        {"terms": [{"c": "1", "m": ["x1", "x1"]}]},
        {"terms": [{"c": "1", "m": ["x1", "x2"]},
                   {"c": "1", "m": ["x2", "x1"]}]},
        {"terms": [{"c": "1", "m": ["x2", "x2"]}]}]},
    "ext_3": {"generators": ["x1", "x2", "x3"], "relations": [
        {"terms": [{"c": "1", "m": ["x1", "x1"]}]},
        {"terms": [{"c": "1", "m": ["x1", "x2"]},
                   {"c": "1", "m": ["x2", "x1"]}]},
        {"terms": [{"c": "1", "m": ["x1", "x3"]},
                   {"c": "1", "m": ["x3", "x1"]}]},
        {"terms": [{"c": "1", "m": ["x2", "x2"]}]},
        {"terms": [{"c": "1", "m": ["x2", "x3"]},
                   {"c": "1", "m": ["x3", "x2"]}]},
        {"terms": [{"c": "1", "m": ["x3", "x3"]}]}]},
    "free_2": {"generators": ["x1", "x2"], "relations": []},
    "dual_numbers": _DUAL_NUMBERS,
}

# the adjoint representation of sl2 in the basis e, h, f
_AD_SL2 = {"e": [["0", "-2", "0"], ["0", "0", "1"], ["0", "0", "0"]],
           "h": [["2", "0", "0"], ["0", "0", "0"], ["0", "0", "-2"]],
           "f": [["0", "0", "0"], ["-1", "0", "0"], ["0", "2", "0"]]}

# name: (presentation, action file); tensor squares are flattened row-major
_ACTIONS = {
    # the group algebra of C2 (basis 1, g with g*g = 1) acting on k[t] by
    # t <| g = -t; test modules: the trivial and the sign module
    "c2_sign_takiff": (_SYM_1, {
        "bialgebra": {
            "dim": 2, "names": ["1", "g"], "unit": ["1", "0"],
            "counit": ["1", "1"],
            "mult": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
            "comult": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]]},
        "action": [[["1"]], [["-1"]]],
        "modules": {"triv": {"dim": 1, "action": [[["1"]], [["1"]]]},
                    "sign": {"dim": 1, "action": [[["1"]], [["-1"]]]}}}),
    # sl2 acting on S(sl2) through its adjoint representation, the even
    # Takiff algebra; test modules: the trivial and the adjoint module
    "sl2_adjoint_takiff": (_SYM_3, {
        "lie": {"basis": ["e", "h", "f"],
                "brackets": {"e,f": [{"c": "1", "b": "h"}],
                             "e,h": [{"c": "-2", "b": "e"}],
                             "h,f": [{"c": "-2", "b": "f"}]},
                "action": _AD_SL2},
        "modules": {
            "triv": {"dim": 1, "action": {"e": [["0"]], "h": [["0"]],
                                          "f": [["0"]]}},
            "adjoint": {"dim": 3, "action": _AD_SL2}}}),
    # the 4-dimensional non-cocommutative Sweedler algebra, basis 1, g, x,
    # gx with g*g = 1, x*x = 0, x*g = -g*x, g group-like and x
    # skew-primitive (x |-> x (x) 1 + g (x) x), acting on the dual numbers
    # with g by -1 and x by 0 (forced on a one-dimensional space by x*x = 0
    # and the module-algebra law); test module: m0, m1 with g diag(1, -1)
    # and x sending m0 to m1, which exercises the order of the legs
    "sweedler_optional": (_DUAL_NUMBERS, {
        "bialgebra": {
            "dim": 4, "names": ["1", "g", "x", "gx"],
            "unit": ["1", "0", "0", "0"], "counit": ["1", "1", "0", "0"],
            # mult[a][b] is the product of basis elements a and b
            "mult": [
                [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                 ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
                [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                 ["0", "0", "0", "1"], ["0", "0", "1", "0"]],
                [["0", "0", "1", "0"], ["0", "0", "0", "-1"],
                 ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
                [["0", "0", "0", "1"], ["0", "0", "-1", "0"],
                 ["0", "0", "0", "0"], ["0", "0", "0", "0"]]],
            # column b is the image of basis element b in the tensor square
            "comult": [
                ["1", "0", "0", "0"], ["0", "0", "0", "0"],
                ["0", "0", "0", "0"], ["0", "0", "0", "1"],
                ["0", "0", "0", "0"], ["0", "1", "0", "0"],
                ["0", "0", "1", "0"], ["0", "0", "0", "0"],
                ["0", "0", "1", "0"], ["0", "0", "0", "0"],
                ["0", "0", "0", "0"], ["0", "0", "0", "0"],
                ["0", "0", "0", "0"], ["0", "0", "0", "1"],
                ["0", "0", "0", "0"], ["0", "0", "0", "0"]]},
        "action": [[["1"]], [["-1"]], [["0"]], [["0"]]],
        "modules": {"two_dim": {"dim": 2, "action": [
            [["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]],
            [["0", "0"], ["1", "0"]], [["0", "0"], ["-1", "0"]]]}}}),
}

FIXTURE_NAMES = sorted([*_PRESENTATIONS, *_ACTIONS])


def fixture_bundle(name):
    """{"presentation": JSON object, "action": JSON object or None} of the
    named input, a fresh copy that shares nothing with the data or within
    itself; KeyError for an unknown name."""
    if name in _PRESENTATIONS:
        pres, action = _PRESENTATIONS[name], None
    elif name in _ACTIONS:
        pres, action = _ACTIONS[name]
    else:
        raise KeyError("unknown fixture %r" % name)
    return json.loads(json.dumps({"presentation": pres, "action": action}))


# ---------------------------------------------------------------------------
# the inputs as koszulkit objects, parsed from the data

def _presentation(name):
    from koszulkit.quadratic import QuadraticPresentation
    return QuadraticPresentation.from_json_obj(
        fixture_bundle(name)["presentation"])


def _action(name):
    """(provider, modules) of the named input's action file."""
    from koszulkit.action import action_bundle_from_json
    return action_bundle_from_json(fixture_bundle(name)["action"])


PRESENTATION_FIXTURES = {name: (lambda name=name: _presentation(name))
                         for name in _PRESENTATIONS}


def dual_numbers_presentation():
    return _presentation("dual_numbers")


def c2_sign_provider():
    return _action("c2_sign_takiff")[0]


def c2_group_algebra():
    return c2_sign_provider().base


def c2_modules():
    return _action("c2_sign_takiff")[1]


def sweedler_provider():
    return _action("sweedler_optional")[0]


def sweedler_bialgebra():
    return sweedler_provider().base


def sweedler_modules():
    return _action("sweedler_optional")[1]


def sl2_provider():
    return _action("sl2_adjoint_takiff")[0]


def sl2_lie_action():
    """The LieAction of sl2, with its test modules in .modules."""
    return sl2_provider().base

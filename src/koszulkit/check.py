"""The check pipeline behind `koszulkit check`: load the inputs, run the
requested checks in dependency order and build the report.

The front door, koszulkit.cli, imports this module only for the `check`
command, so `fixtures` and `report-diff` load no algebra layer.  Each
check returns (status, details) with status "pass", "fail" or
"skipped"; an InternalInvariant, or a ValueError raised below a check,
ends the run as `internal-error` with exit 3.
"""

from __future__ import annotations

import os
import time

# hashlib loads OpenSSL's libcrypto, which costs a check run about 3.5 MB
# of peak memory and 3-4 ms of start-up (CPython 3.11, Linux x86-64);
# CPython's built-in SHA-256 module gives the same digests without it
try:
    from _sha2 import sha256          # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256    # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from koszulkit import __version__
from koszulkit.cli import CHECK_NAMES, ParseFailure, UsageError, _load_json
from koszulkit.exactlin import F1, Mat, Subspace
from koszulkit.graded import DSquaredError
from koszulkit.quadratic import (
    DualityPairing, QuadraticPresentation, euler_identity, grow,
    koszulity_check, quadratic_dual, verify_psi_intertwiner,
)

SCHEMA = "koszulkit/1"


class InternalInvariant(Exception):
    pass


def _sha256(path):
    with open(path, "rb") as f:
        return sha256(f.read()).hexdigest()


def _load_presentation(path):
    obj = _load_json(path)
    if isinstance(obj, dict) and "presentation" in obj:
        obj = obj["presentation"]
    try:
        return QuadraticPresentation.from_json_obj(obj)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ParseFailure("bad presentation in %s: %s" % (path, exc))


def _load_action(path):
    from koszulkit.action import action_bundle_from_json
    obj = _load_json(path)
    try:
        return action_bundle_from_json(obj)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ParseFailure("bad action bundle in %s: %s" % (path, exc))


# ---------------------------------------------------------------------------
# individual checks

def _acting_object(pres, provider, modules):
    """The acting object's own axioms and the laws of its test modules,
    checked once per run and shared by the checks that need them: the
    axioms of its source format, the laws on V and V (x) V, and the
    stability of the relations.  Returns the source format's name, the
    failure of its source axioms, the first failure of all (each None when
    the axioms hold) and, when they hold, the failing modules, by name, with
    the coordinates of validate_left_modules."""
    from koszulkit.action import (
        Bialgebra, validate_action_multiplicative, validate_bialgebra,
        validate_left_modules, validate_lie, validate_module_algebra,
    )
    if isinstance(provider.base, Bialgebra):
        kind = "bialgebra"
        ok, where = validate_bialgebra(provider.base)
        source = None if ok else "bialgebra axiom: %s" % where
    else:
        kind = "lie"
        ok, where = validate_lie(provider.base)
        source = None if ok else "lie axiom: %r" % (where,)
    if source:
        return kind, source, source, {}
    for r in (1, 2):
        ok, where = validate_action_multiplicative(provider, r)
        if not ok:
            return (kind, None, "action not multiplicative: %r" % (where,),
                    {})
    ok, where = validate_module_algebra(provider, pres)
    if not ok:
        what = ("action not unital" if where == ("unit law",)
                else "relations not stable")
        return kind, None, "%s: %r" % (what, where), {}
    bad_modules = {}
    for name in sorted(modules):
        ok, where = validate_left_modules(provider, {name: modules[name]})
        if not ok:
            bad_modules[name] = where
    return kind, None, None, bad_modules


def _check_validate(pres, acting, provider, modules):
    details = {"generators": pres.gen_names,
               "relation_count": pres.relations.dim}
    if provider is None:
        return "pass", details
    details["acting_object"], _source, failure, bad_modules = acting
    if failure:
        details["failure"] = failure
        return "fail", details
    if bad_modules:
        details["failure"] = "module law: %r" % (
            bad_modules[min(bad_modules)],)
        return "fail", details
    details["modules"] = sorted(modules)
    return "pass", details


def _check_hilbert(alg, dual_alg):
    hs = alg.hdims()
    ks = alg.kdims()
    details = {"algebra_dims": [str(x) for x in hs],
               "koszul_subspace_dims": [str(x) for x in ks],
               "euler_identity": euler_identity(alg, dual_alg)}
    return ("pass" if details["euler_identity"] else "fail"), details


def _check_dual(pres, alg, dual_alg):
    dd = quadratic_dual(quadratic_dual(pres))
    details = {
        "dual_dims": [str(x) for x in dual_alg.hdims()],
        "double_dual_recovers_relations": dd.relations == pres.relations,
        "dim_K_matches_dual": alg.kdims() == dual_alg.hdims(),
    }
    if not details["double_dual_recovers_relations"]:
        raise InternalInvariant("double dual lost the relation space")
    if not details["dim_K_matches_dual"]:
        raise InternalInvariant("Koszul subspace dims differ from the dual")
    return "pass", details


def _check_koszul(alg):
    try:
        res = koszulity_check(alg)
    except DSquaredError as exc:
        raise InternalInvariant("Koszul complex: %s" % exc)
    details = {
        "per_degree": {str(d): v for d, v in res["per_degree"].items()},
        "koszul_up_to_N": res["koszul_up_to_N"],
        "first_failure": res["first_failure"],
        "verdict": ("Koszul up to %d" % alg.N) if res["koszul_up_to_N"]
        else ("not Koszul at degree %d" % res["first_failure"][1]),
    }
    return "pass", details


def _check_smash(provider, acting, alg, dual_alg):
    """The relations' stability comes from the shared verdict of
    _acting_object; the dual side checks its own, a different identity."""
    from koszulkit.action import (
        dual_action, smash_ok, validate_module_algebra,
    )
    failure = acting[2]
    if failure:
        return "fail", {"failure": failure}
    ok, where = smash_ok(provider, alg)
    if not ok:
        return "fail", {"failure": "smash product not associative at %r"
                        % (where,)}
    dual = dual_action(provider)
    ok, where = validate_module_algebra(dual, dual_alg.pres)
    if not ok:
        return "fail", {"failure": "dual side: not a module algebra: %r"
                        % (where,)}
    ok, where = smash_ok(dual, dual_alg)
    if not ok:
        return "fail", {"failure": "dual side: smash product not "
                        "associative at %r" % (where,)}
    return "pass", {"right_smash_associative": True,
                    "dual_smash_associative": True}


def _check_takiff(pres, provider, acting):
    """On a Lie source only: whether the input's relation space is that of
    S(V), the commutators ("even"), or of Lambda(V), the symmetric tensors
    ("super"; at dim V = 0 both, read "even"), or "neither".  By PBW,
    U(g) # S(V) and U(g) # Lambda(V) are the enveloping algebras of the
    Takiff algebra g + V, [V, V] = 0, and of its super analogue, V odd
    (Takiff, Trans. AMS 160, 1971).  The other keys follow from the shared
    Lie verdict of _acting_object: Jacobi on g + V holds in either parity
    exactly when g is a Lie algebra and V a g-module (on g, g, V it is the
    representation law, and a triple with two entries in V brackets
    through [V, V] = 0), and the graded dimensions are the PBW counts of
    S(V) and Lambda(V) up to degree 3."""
    from math import comb
    from koszulkit.quadratic import ext_presentation, sym_presentation
    if provider is None or acting[0] != "lie":
        return "skipped", {"reason": "takiff applies to lie actions only"}
    source = acting[1]
    if source:
        return "fail", {"failure": source}
    k, relations = pres.n, pres.relations
    algebra = ("even" if relations == sym_presentation(k).relations
               else "super" if relations == ext_presentation(k).relations
               else "neither")
    return "pass", {
        "even_jacobi": True,
        "even_graded_dims": [1] + [comb(k + d - 1, d) for d in range(1, 4)],
        "super_jacobi": True,
        "super_graded_dims": [comb(k, d) for d in range(4)],
        "takiff_algebra": algebra}


def _duality_inputs(acting, provider, modules, need_alg):
    """What the duality and roundtrip checks share in one run: the failure
    of the acting object's axioms, all they then report, or one pairing
    (need_alg grows the algebras), the acting object (the trivial one when
    none is given), the names of its modules, sorted, and the modules whose
    laws fail.  A pairing that is not invertible raises ValueError, an
    internal error of the check that asks first."""
    failure, bad_modules = acting[2:] if acting else (None, {})
    if failure:
        return {"failure": failure}
    bad_modules = {name: "module: %r" % (where,)
                   for name, where in bad_modules.items()}
    alg, dual_alg = need_alg()
    if provider is None:
        from koszulkit.action import trivial_provider
        provider, modules = trivial_provider(alg.n), ["k"]
    return {"pairing": DualityPairing(alg, dual_alg), "provider": provider,
            "modules": sorted(modules), "failure": None,
            "bad_modules": bad_modules}


def _module_entries(shared, what, entry_at_k):
    """The details of the duality or roundtrip check: a module whose laws
    fail reports that failure, and every other module reads one entry,
    which entry_at_k(pairing, provider, name) computes at the trivial
    module k (duality module docstring) when the first such module, in
    sorted order, is reached.  An internal invariant, or a d^2 failure of
    the complexes that what names, is reported for that module."""
    if shared["failure"]:
        return "fail", {"failure": shared["failure"]}
    details, status, entry = {"modules": {}}, "pass", None
    for name in shared["modules"]:
        if name in shared["bad_modules"]:
            details["modules"][name] = {"failure": shared["bad_modules"][name]}
            status = "fail"
            continue
        if entry is None:
            try:
                entry = entry_at_k(shared["pairing"], shared["provider"], name)
            except DSquaredError as exc:
                raise InternalInvariant("%s of module %r: %s"
                                        % (what, name, exc))
        details["modules"][name] = entry
    return status, details


def _duality_entry(pairing, provider, name):
    from koszulkit.duality import (
        identify_socI, identify_topP, koszulity_via_duality,
    )
    res = koszulity_via_duality(provider, pairing)
    soc = identify_socI(provider, pairing)
    top = identify_topP(provider, pairing)
    sides = ("injective", "projective", "koszul_complex")
    per = [res["per_degree_%s" % side] for side in sides]
    if not res["agree"]:
        deg = min(d for d in per[0] if len({p[d] for p in per}) > 1)
        raise InternalInvariant(
            "duality verdicts disagree for module %r at degree %d: "
            "injective %s, projective %s, Koszul complex %s"
            % ((name, deg) + tuple(p[deg] for p in per)))
    if not (soc["ok"] and top["ok"]):
        raise InternalInvariant(
            "identification failed for module %r at %r" %
            (name, soc["first_failure"] or top["first_failure"]))
    entry = {"per_degree_%s" % side: {str(d): v for d, v in p.items()}
             for side, p in zip(sides, per)}
    entry.update({
        "h0_isomorphic_to_module": res["h0_injective"]
        and res["h0_projective"],
        "assumptions": res["assumptions"],
        "socle_identification": True, "top_identification": True,
        "verdict": res["verdict"]})
    if not res["verdict"]:
        # not-Koszul is data, not a failure; disagreement was fatal above
        entry["note"] = "algebra not Koszul up to requested degree"
    return entry


def _roundtrip_entry(pairing, provider, name):
    from koszulkit.duality import roundtrip_A, roundtrip_B
    ra = roundtrip_A(provider, pairing)
    rb = roundtrip_B(provider, pairing)
    if not ra["ok"]:
        raise InternalInvariant(
            "round trip A failed for %r at %r" % (name, ra["first_failure"]))
    if not rb["ok"]:
        raise InternalInvariant(
            "round trip B failed for %r at %r" % (name, rb["first_failure"]))
    return {"injective_side": ra["checks"], "cells_A": ra["cells"],
            "projective_side": rb["checks"], "cells_B": rb["cells"],
            "sign_convention": rb["sign_convention"]}


def _check_roundtrip(shared):
    if not shared["failure"]:
        # up to the grown degree, once: every roundtrip_A reads this verdict
        ok_psi, where = verify_psi_intertwiner(shared["pairing"])
        if not ok_psi:
            raise InternalInvariant("pairing intertwiner fails at %r"
                                    % (where,))
    return _module_entries(shared, "round-trip complex", _roundtrip_entry)


# ---------------------------------------------------------------------------
# seeded random property cases

def _random_presentation(rng):
    n = rng.choice([1, 1, 2, 2, 2, 3])
    names = ["x%d" % (i + 1) for i in range(n)]
    m = rng.randrange(0, n * n + 1)
    rows = []
    for _ in range(m):
        rows.append([F1 * rng.randrange(-2, 3) for _ in range(n * n)])
    return QuadraticPresentation(names, Subspace.from_rows(n * n, rows))


def property_cases_report(seed, count):
    """Seeded random property sweep: random small presentations, grown
    exactly; every complex built must satisfy d^2 = 0, the Euler identity,
    and (on a subsample) the duality-side equivariance.  The returned
    object is deterministic for a fixed seed."""
    import random
    from koszulkit.action import trivial_provider
    from koszulkit.duality import (
        I_complex, degree_zero_module, validate_complex_equivariance,
    )
    rng = random.Random(seed)
    N = 3
    stats = {"cases": 0, "d_squared_ok": 0, "euler_ok": 0,
             "equivariance_checked": 0, "koszul_count": 0}
    failures = []
    for case in range(count):
        pres = _random_presentation(rng)
        alg = grow(pres, N)
        stats["cases"] += 1
        try:
            koszul = koszulity_check(alg)["koszul_up_to_N"]
            stats["d_squared_ok"] += 1
        except DSquaredError as exc:
            koszul = False
            failures.append({"case": case, "kind": "d_squared",
                             "at": list(exc.where)})
        if euler_identity(alg, grow(quadratic_dual(pres), N)):
            stats["euler_ok"] += 1
        else:
            failures.append({"case": case, "kind": "euler"})
        if koszul:
            stats["koszul_count"] += 1
        if case % 10 == 0:
            provider = trivial_provider(alg.n)
            X = degree_zero_module(provider, alg, [Mat.identity(1)])
            icx = I_complex(X)
            ok2, where2 = validate_complex_equivariance(icx)
            stats["equivariance_checked"] += 1
            if not ok2:
                failures.append({"case": case, "kind": "equivariance",
                                 "at": list(where2)})
    return {"schema": SCHEMA, "seed": seed, "stats": stats,
            "failures": failures,
            "ok": not failures and stats["d_squared_ok"] == stats["cases"]}


# ---------------------------------------------------------------------------
# the command

def run_check(args):
    requested = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not requested:
        raise UsageError("empty checks set")
    if "all" in requested:
        requested = list(CHECK_NAMES)
    unknown = [c for c in requested if c not in CHECK_NAMES]
    if unknown:
        raise UsageError("unknown checks: %s" % ", ".join(unknown))
    if args.max_degree < 0:
        raise UsageError("--max-degree must be >= 0")
    # dependency order
    order = [c for c in CHECK_NAMES if c in requested]
    pres = _load_presentation(args.input)
    provider, modules = (None, {})
    if args.action:
        provider, modules = _load_action(args.action)
        if provider.space_dim != pres.n:
            raise ParseFailure(
                "the action in %s is on a space of dimension %d, but the "
                "presentation has %d generators"
                % (args.action, provider.space_dim, pres.n))
        if args.module:
            if args.module not in modules:
                raise ParseFailure("module %r not in action bundle"
                                   % args.module)
            modules = {args.module: modules[args.module]}
    elif args.module:
        raise UsageError("--module requires --action")
    N = args.max_degree
    report = {
        "schema": SCHEMA,
        "tool": {"name": "koszulkit", "version": __version__},
        "inputs": {
            "presentation": {"path": os.path.basename(args.input),
                             "sha256": _sha256(args.input)},
            "action": ({"path": os.path.basename(args.action),
                        "sha256": _sha256(args.action)}
                       if args.action else None),
            "max_degree": N,
            "checks": order,
            "seed": args.seed,
        },
        "checks": {},
    }
    timing = {}
    alg = dual_alg = shared = acting = None
    grow_s = 0.0

    def need_alg():
        # growth is timed as "grow", not billed to the check that asks first
        nonlocal alg, dual_alg, grow_s
        if alg is None:
            t0 = time.monotonic()
            alg = grow(pres, N)
            dual_alg = grow(quadratic_dual(pres), N)
            grow_s = time.monotonic() - t0
            timing["grow"] = round(grow_s, 6)
        return alg, dual_alg

    def need_acting():
        nonlocal acting
        if acting is None and provider is not None:
            acting = _acting_object(pres, provider, modules)
        return acting

    def need_shared():
        nonlocal shared
        if shared is None:
            shared = _duality_inputs(need_acting(), provider, modules,
                                     need_alg)
        return shared

    overall = "pass"
    for name in order:
        t0, grown_before = time.monotonic(), grow_s
        try:
            if name == "validate":
                status, details = _check_validate(pres, need_acting(),
                                                  provider, modules)
            elif name == "hilbert":
                status, details = _check_hilbert(*need_alg())
            elif name == "dual":
                status, details = _check_dual(pres, *need_alg())
            elif name == "koszul":
                status, details = _check_koszul(need_alg()[0])
            elif name == "smash":
                if provider is None:
                    status, details = "skipped", {"reason": "no action given"}
                else:
                    status, details = _check_smash(provider, need_acting(),
                                                   *need_alg())
            elif name == "takiff":
                status, details = _check_takiff(pres, provider,
                                                need_acting())
            elif name == "duality":
                status, details = _module_entries(
                    need_shared(), "duality complex", _duality_entry)
            elif name == "roundtrip":
                status, details = _check_roundtrip(need_shared())
        except (InternalInvariant, ValueError) as exc:
            # a ValueError below a check is an implementation error too:
            # the inputs were parsed and validated before any check ran
            report["checks"][name] = {"status": "internal-error",
                                      "details": {"failure": str(exc)}}
            report["verdict"] = "internal-error"
            report["timing"] = timing
            return report, 3
        timing[name] = round(time.monotonic() - t0 - (grow_s - grown_before),
                             6)
        report["checks"][name] = {"status": status, "details": details}
        if status == "fail":
            overall = "fail"
    if args.property_cases:
        t0 = time.monotonic()
        prop = property_cases_report(args.seed, args.property_cases)
        timing["property"] = round(time.monotonic() - t0, 6)
        report["checks"]["property"] = {
            "status": "pass" if prop["ok"] else "fail",
            "details": {k: prop[k] for k in ("seed", "stats", "failures")}}
        if not prop["ok"]:
            overall = "fail"
    report["verdict"] = overall
    report["timing"] = timing
    return report, (0 if overall == "pass" else 1)

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import koszulkit
from koszulkit.check import property_cases_report
from koszulkit.cli import main


def run(argv):
    return main(argv)


def emit(tmp_path, name):
    assert run(["fixtures", "--name", name, "--out-dir", str(tmp_path)]) == 0
    pres = tmp_path / ("%s.presentation.json" % name)
    act = tmp_path / ("%s.action.json" % name)
    return str(pres), (str(act) if act.exists() else None)


def test_fixtures_list(capsys):
    assert run(["fixtures", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert "sym_3" in out and "sl2_adjoint_takiff" in out


def test_fixtures_unknown(tmp_path):
    assert run(["fixtures", "--name", "nope", "--out-dir",
                str(tmp_path)]) == 2


def test_check_koszul_sym3(tmp_path, capsys):
    pres, _ = emit(tmp_path, "sym_3")
    out = str(tmp_path / "r.json")
    code = run(["check", "--input", pres, "--max-degree", "6",
                "--checks", "koszul", "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["schema"] == "koszulkit/1"
    assert report["checks"]["koszul"]["details"]["verdict"] == "Koszul up to 6"
    assert report["verdict"] == "pass"


def test_check_empty_checks_usage_error(tmp_path):
    pres, _ = emit(tmp_path, "sym_1")
    assert run(["check", "--input", pres, "--checks", ""]) == 2
    assert run(["check", "--input", pres, "--checks", "bogus"]) == 2


def test_check_missing_file():
    assert run(["check", "--input", "/nonexistent.json",
                "--checks", "koszul"]) == 2


def test_check_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check", "--input", str(bad), "--checks", "koszul"]) == 2


def test_check_all_with_action(tmp_path):
    pres, act = emit(tmp_path, "c2_sign_takiff")
    out = str(tmp_path / "r.json")
    code = run(["check", "--input", pres, "--action", act,
                "--max-degree", "4", "--checks", "all", "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["checks"]["roundtrip"]["status"] == "pass"
    assert report["checks"]["takiff"]["status"] == "skipped"
    mods = report["checks"]["roundtrip"]["details"]["modules"]
    assert sorted(mods) == ["sign", "triv"]


def test_check_sl2_all(tmp_path):
    pres, act = emit(tmp_path, "sl2_adjoint_takiff")
    out = str(tmp_path / "r.json")
    code = run(["check", "--input", pres, "--action", act,
                "--max-degree", "3", "--checks", "all", "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["checks"]["takiff"]["status"] == "pass"
    assert report["checks"]["duality"]["status"] == "pass"


@pytest.mark.parametrize("presentation,algebra", [
    ("sym_presentation", "even"), ("ext_presentation", "super"),
    ("free_presentation", "neither")])
def test_takiff_reads_which_takiff_algebra_the_input_is(tmp_path,
                                                        presentation,
                                                        algebra):
    # sl2 on S(sl2) and on Lambda(sl2) is the even and the super Takiff
    # algebra, and on the free algebra neither; the Lie axioms hold in all
    # three, so the kept keys read the same.  The data of sym_3 and ext_3
    # is that of the standard presentations at 3, and free_3 is sym_3
    # without its relations
    from koszulkit.fixtures import fixture_bundle
    _, act = emit(tmp_path, "sl2_adjoint_takiff")
    obj = fixture_bundle("ext_3" if presentation == "ext_presentation"
                         else "sym_3")["presentation"]
    if presentation == "free_presentation":
        obj["relations"] = []
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps(obj))
    out = tmp_path / "r.json"
    assert run(["check", "--input", str(pres), "--action", act, "--checks",
                "takiff", "--max-degree", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"]["takiff"] == {
        "status": "pass",
        "details": {"even_jacobi": True, "even_graded_dims": [1, 3, 6, 10],
                    "super_jacobi": True, "super_graded_dims": [1, 3, 3, 1],
                    "takiff_algebra": algebra}}


def test_check_module_restriction(tmp_path):
    pres, act = emit(tmp_path, "c2_sign_takiff")
    out = str(tmp_path / "r.json")
    code = run(["check", "--input", pres, "--action", act, "--module",
                "sign", "--max-degree", "3", "--checks", "roundtrip",
                "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert sorted(report["checks"]["roundtrip"]["details"]["modules"]) == \
        ["sign"]
    assert run(["check", "--input", pres, "--action", act, "--module",
                "nope", "--checks", "validate"]) == 2


def test_report_determinism_and_diff(tmp_path, capsys):
    pres, act = emit(tmp_path, "dual_numbers")
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert run(["check", "--input", pres, "--max-degree", "4",
                    "--checks", "koszul,hilbert,dual", "--out", out]) == 0
    ra = json.loads(open(a).read())
    rb = json.loads(open(b).read())
    ra.pop("timing")
    rb.pop("timing")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    assert run(["report-diff", a, b]) == 0
    # a genuinely different report diffs nonzero
    c = str(tmp_path / "c.json")
    assert run(["check", "--input", pres, "--max-degree", "3",
                "--checks", "koszul", "--out", c]) == 0
    assert run(["report-diff", a, c]) == 1


def test_check_without_action_runs_duality_with_trivial_provider(tmp_path):
    pres, _ = emit(tmp_path, "ext_2")
    out = str(tmp_path / "r.json")
    code = run(["check", "--input", pres, "--max-degree", "3",
                "--checks", "duality,roundtrip", "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert "k" in report["checks"]["duality"]["details"]["modules"]


def test_check_all_ext3_passes(tmp_path):
    # the pairing g2 of ext_3 is not symmetric, so its round trip depends
    # on the orientation of g2 in psi_bar
    pres, _ = emit(tmp_path, "ext_3")
    out = str(tmp_path / "r.json")
    code = run(["check", "--input", pres, "--max-degree", "4",
                "--checks", "all", "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["checks"]["roundtrip"]["status"] == "pass"
    assert report["verdict"] == "pass"


def test_property_cases_small():
    r = property_cases_report(7, 40)
    assert r["ok"]
    assert r["stats"]["cases"] == 40
    assert r["stats"]["d_squared_ok"] == 40
    r2 = property_cases_report(7, 40)
    assert json.dumps(r, sort_keys=True) == json.dumps(r2, sort_keys=True)


def _one_relation(c, m=("x", "y")):
    return {"generators": ["x", "y"],
            "relations": [{"terms": [{"c": c, "m": m}]}]}


@pytest.mark.parametrize("obj, message", [
    (_one_relation("1/0"), "zero denominator"),
    (_one_relation(0.5), "not an exact rational"),
    (_one_relation(True), "not an exact rational"),
    ({"generators": "xy", "relations": []}, "list of names"),
    ({"generators": ["x", 1], "relations": []}, "list of names"),
    (_one_relation("1", "xy"), "bad monomial"),
    # Fraction reads exponent notation by building the power of ten, so
    # "1e999999999" would make a billion-digit integer; none is read
    (_one_relation("1e2"), "not an int, p/q or decimal: '1e2'"),
    (_one_relation("2E-3"), "not an int, p/q or decimal: '2E-3'"),
])
def test_malformed_presentation_is_parse_error(tmp_path, capsys, obj,
                                               message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run(["check", "--input", str(path), "--checks", "validate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: bad presentation")
    assert message in err


def test_validation_failure_exit_code(tmp_path):
    # an action whose matrices break the module-algebra law must fail
    # validate with exit 1
    pres, act = emit(tmp_path, "c2_sign_takiff")
    obj = json.loads(open(act).read())
    # corrupt the action of g on the generator: g |-> 2 is not involutive
    obj["action"][1] = [["2"]]
    bad = tmp_path / "bad_action.json"
    bad.write_text(json.dumps(obj))
    code = run(["check", "--input", pres, "--action", str(bad),
                "--checks", "validate"])
    assert code == 1


def test_check_non_koszul_reports_failing_degree(tmp_path):
    # k<x1,x2>/(x1^2 + x2x1 + x2^2, x1x2): dims 1, 2, 2, 1, 0, 0; the Euler
    # identity and the Koszul complex both fail at internal degree 4
    pres = tmp_path / "nk.json"
    pres.write_text(json.dumps({"generators": ["x1", "x2"], "relations": [
        {"terms": [{"c": "1", "m": ["x1", "x1"]},
                   {"c": "1", "m": ["x2", "x1"]},
                   {"c": "1", "m": ["x2", "x2"]}]},
        {"terms": [{"c": "1", "m": ["x1", "x2"]}]}]}))
    out = tmp_path / "r.json"
    code = run(["check", "--input", str(pres), "--checks", "all",
                "--max-degree", "5", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    koszul = report["checks"]["koszul"]
    assert koszul["status"] == "pass"
    assert koszul["details"]["koszul_up_to_N"] is False
    assert koszul["details"]["first_failure"][1] == 4
    assert koszul["details"]["verdict"] == "not Koszul at degree 4"
    assert report["checks"]["hilbert"]["status"] == "fail"


# Grows sym_2, then replaces H_1 (x) H_1 -> H_2 by a map that does not kill
# the commutator, so the right Koszul complex fails d^2 = 0.
CORRUPT_KOSZUL = """
import sys
import koszulkit.check as check
from koszulkit.cli import main
from koszulkit.exactlin import F1, Mat
from koszulkit.quadratic import grow

def corrupt_grow(pres, N):
    alg = grow(pres, N)
    bad = Mat.from_entries(alg.hdim(2), alg.n ** 2, [(0, 1, F1)])
    alg._mult[(1, 1)] = bad
    return alg

check.grow = corrupt_grow
sys.exit(main(sys.argv[1:]))
"""


def test_koszul_d_squared_failure_is_internal_error(tmp_path):
    pres, _ = emit(tmp_path, "sym_2")
    out = tmp_path / "r.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(koszulkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    # -O strips asserts: the invariant must still give exit 3
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_KOSZUL, "check", "--input", pres,
         "--checks", "koszul", "--max-degree", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    report = json.loads(out.read_text())
    assert report["checks"]["koszul"]["status"] == "internal-error"
    assert "square to zero" in report["checks"]["koszul"]["details"]["failure"]


def test_duality_d_squared_failure_is_internal_error(tmp_path):
    # the same corruption breaks d^2 = 0 on the injective-side complex,
    # which the duality check builds first: exit 3 with the cell, also
    # under -O, not a traceback
    pres, _ = emit(tmp_path, "sym_2")
    out = tmp_path / "r.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(koszulkit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_KOSZUL, "check", "--input", pres,
         "--checks", "duality", "--max-degree", "3", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(out.read_text())["checks"]["duality"] == {
        "status": "internal-error",
        "details": {"failure": "duality complex of module 'k': "
                    "injective-side differential fails d^2=0 at (0, -2)"}}


def test_roundtrip_B_chain_failure_is_internal_error(tmp_path,
                                                     monkeypatch):
    # round trip B's chain entry is the left intertwiner of psi_bar, the
    # only reader of the left Koszul maps of the algebra: one entry of
    # m_bar(alg, 2, 0, "left") off fails it alone, at the intertwiner's
    # cell (i, j) = (1, 1), while the right-side gate and round trip A pass
    import koszulkit.quadratic as quadratic
    from koszulkit.exactlin import F1, Mat
    m_bar = quadratic._m_bar

    def faulty(alg, j, i, side):
        m = m_bar(alg, j, i, side)
        if (alg.pres.gen_names, j, i, side) == (["x1", "x2"], 2, 0, "left"):
            m = m + Mat.from_entries(m.rows, m.cols, [(0, 0, F1)])
        return m

    monkeypatch.setattr(quadratic, "_m_bar", faulty)
    pres, _ = emit(tmp_path, "sym_2")
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--checks", "roundtrip",
                "--max-degree", "3", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["checks"]["roundtrip"] == {
        "status": "internal-error",
        "details": {"failure": "round trip B failed for 'k' at "
                    "('chain', 1, 1)"}}


RAISE_IN_K_ACTION = """
import sys
import koszulkit.cli as cli
from koszulkit.action import ActionProvider

k_action = ActionProvider.k_action

def raising(self, alg, r):
    if r == 2:
        raise ValueError("subspace K_2 is not invariant under the action")
    return k_action(self, alg, r)

ActionProvider.k_action = raising
sys.exit(cli.main(sys.argv[1:]))
"""


def test_value_error_inside_a_check_is_internal_error(tmp_path):
    # a ValueError raised below a check is an implementation error: exit 3
    # with its message in the report, not a traceback and exit 1
    pres, act = emit(tmp_path, "sl2_adjoint_takiff")
    out = tmp_path / "r.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(koszulkit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", RAISE_IN_K_ACTION, "check", "--input", pres,
         "--action", act, "--checks", "duality", "--max-degree", "3",
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(out.read_text())
    assert report["verdict"] == "internal-error"
    assert report["checks"]["duality"] == {
        "status": "internal-error",
        "details": {"failure": "subspace K_2 is not invariant under the "
                    "action"}}


def test_double_dual_that_loses_the_relations_is_internal_error(
        tmp_path, monkeypatch):
    import koszulkit.check as check
    from koszulkit.exactlin import Subspace
    from koszulkit.quadratic import QuadraticPresentation
    quadratic_dual = check.quadratic_dual

    def lossy(pres):
        dual = quadratic_dual(pres)
        if not pres.gen_names[0].endswith("*"):
            return dual
        return QuadraticPresentation(dual.gen_names, Subspace.zero(
            dual.n ** 2))

    monkeypatch.setattr(check, "quadratic_dual", lossy)
    pres, _ = emit(tmp_path, "sym_2")
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--checks", "dual",
                "--max-degree", "3", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["checks"]["dual"] == {
        "status": "internal-error",
        "details": {"failure": "double dual lost the relation space"}}


def test_koszul_subspace_dims_off_the_dual_are_internal_error(
        tmp_path, monkeypatch):
    from koszulkit.quadratic import TruncatedGradedAlgebra
    # K_2 counted one too large
    kdims = TruncatedGradedAlgebra.kdims
    monkeypatch.setattr(TruncatedGradedAlgebra, "kdims", lambda self: [
        d + (i == 2) for i, d in enumerate(kdims(self))])
    pres, _ = emit(tmp_path, "sym_2")
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--checks", "dual",
                "--max-degree", "3", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["checks"]["dual"] == {
        "status": "internal-error",
        "details": {"failure": "Koszul subspace dims differ from the dual"}}


@pytest.mark.parametrize("method,key,checks,failure", [
    ("generator_mult", (1, 0, "left"), "duality",
     "identification failed for module 'k' at ('dual multiplication', 1, 0)"),
    ("contraction", (2, 1, "left"), "duality",
     "identification failed for module 'k' at ('generator action', 2, 1)"),
    ("contraction", (2, 1, "left"), "roundtrip",
     "round trip A failed for 'k' at ('generator', 'generator action', 2, "
     "1)"),
    ("generator_mult", (1, 0, "left"), "roundtrip",
     "round trip B failed for 'k' at ('generator', 'dual multiplication', "
     "1, 0)"),
], ids=["socle", "top", "roundtrip-A", "roundtrip-B"])
def test_failed_identity_of_the_pairings_is_internal_error(
        tmp_path, monkeypatch, method, key, checks, failure):
    # one entry of a generator map of the dual perturbed: the identity of
    # the pairings that reads it fails, and the check that reads that
    # identity maps the failure to exit 3 with its coordinates
    from koszulkit.exactlin import F1, Mat
    from koszulkit.quadratic import TruncatedGradedAlgebra
    real = getattr(TruncatedGradedAlgebra, method)

    def bumped(self, *args):
        m = real(self, *args)
        if args != key or not self.pres.gen_names[0].endswith("*"):
            return m
        return m + Mat.from_entries(m.rows, m.cols, [(0, 0, F1)])

    monkeypatch.setattr(TruncatedGradedAlgebra, method, bumped)
    pres, _ = emit(tmp_path, "sym_2")
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--checks", checks,
                "--max-degree", "3", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["checks"][checks] == {
        "status": "internal-error", "details": {"failure": failure}}


def test_verdict_disagreement_is_a_deterministic_internal_error(
        tmp_path, monkeypatch):
    # the Koszul-complex verdict made to say no at degree 2: the report
    # names that degree and the three verdicts there, and two runs write
    # the same report
    import koszulkit.quadratic as quadratic
    real = quadratic.koszulity_check

    def says_no_at_2(*args):
        res = dict(real(*args))
        res["per_degree"] = {**res["per_degree"], 2: False}
        return res

    monkeypatch.setattr(quadratic, "koszulity_check", says_no_at_2)
    pres, _ = emit(tmp_path, "sym_2")
    outs = [str(tmp_path / ("r%d.json" % k)) for k in (1, 2)]
    for out in outs:
        assert run(["check", "--input", pres, "--checks", "duality",
                    "--max-degree", "3", "--out", out]) == 3
    assert json.loads(open(outs[0]).read())["checks"]["duality"] == {
        "status": "internal-error",
        "details": {"failure": "duality verdicts disagree for module 'k' at "
                    "degree 2: injective True, projective True, Koszul "
                    "complex False"}}
    assert run(["report-diff"] + outs) == 0


def _lopsided_swap(tmp_path):
    # the swap of two generators as a C2 action does not stabilize the
    # single relation x1 (x) x2
    swap = _edit(_c2_bundle(), ("action",),
                 [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]])
    pres = tmp_path / "lopsided.json"
    pres.write_text(json.dumps({"generators": ["x1", "x2"], "relations": [
        {"terms": [{"c": "1", "m": ["x1", "x2"]}]}]}))
    act = tmp_path / "swap.json"
    act.write_text(json.dumps(swap))
    return str(pres), str(act)


def test_complexes_built_do_not_depend_on_the_modules(tmp_path,
                                                      monkeypatch):
    # duality and roundtrip compute their entries once, at the trivial
    # module k: a run with both modules builds the same complexes as a run
    # with either one, and the same entries
    import koszulkit.duality as duality
    built = []
    build = duality._duality_complex

    def counted(kind, *args):
        built.append(kind)
        return build(kind, *args)

    monkeypatch.setattr(duality, "_duality_complex", counted)
    pres, act = emit(tmp_path, "sl2_adjoint_takiff")
    entries = {}
    for module in ("triv", "adjoint", None):
        built.clear()
        out = tmp_path / ("%s.json" % module)
        assert run(["check", "--input", pres, "--action", act, "--checks",
                    "duality,roundtrip", "--max-degree", "3", "--out",
                    str(out)] + (["--module", module] if module else [])) == 0
        assert sorted(built) == ["I", "P", "socI", "topP"]
        checks = json.loads(out.read_text())["checks"]
        for name in ("duality", "roundtrip"):
            for mod, entry in checks[name]["details"]["modules"].items():
                assert entries.setdefault((name, mod), entry) == entry


@pytest.mark.parametrize("fault,failure", [
    ("h-plain", "smash product not associative at ('law', 0, 2, 3)"),
    ("h-dual", "dual side: smash product not associative at "
     "('law', 1, 2, 3)"),
    ("tensor-dual", "dual side: not a module algebra: "
     "('relation escapes', 'e')"),
], ids=["plain", "dual", "dual-module-algebra"])
def test_smash_failure_branches(tmp_path, monkeypatch, fault, failure):
    # the shared verdict passes, so smash can fail only on a fault of the
    # implementation: one entry of the memoized action of f on H_3, of the
    # provider or of its dual, or of e on the dual's V* (x) V*, is off
    import koszulkit.check as check
    import koszulkit.cli as cli
    from koszulkit.action import dual_action
    from koszulkit.exactlin import F1, Mat
    check_smash = check._check_smash

    def faulty(provider, acting, alg, dual_alg):
        dual = dual_action(provider)
        if fault == "tensor-dual":
            mats, b, entry = dual.tensor_mats(2), 0, (1, 0)
        else:
            side, on = ((provider, alg) if fault == "h-plain"
                        else (dual, dual_alg))
            mats, b, entry = side.h_action(on, on.N), 2, (0, 0)
        m = mats[b]
        mats[b] = m + Mat.from_entries(m.rows, m.cols, [entry + (F1,)])
        return check_smash(provider, acting, alg, dual_alg)

    monkeypatch.setattr(check, "_check_smash", faulty)
    pres, act = emit(tmp_path, "sl2_adjoint_takiff")
    args = cli.build_parser().parse_args([
        "check", "--input", pres, "--action", act, "--checks", "smash",
        "--max-degree", "3"])
    report, code = check.run_check(args)
    assert code == 1 and report["verdict"] == "fail"
    assert report["checks"] == {"smash": {"status": "fail",
                                          "details": {"failure": failure}}}


def test_zero_dimensional_module_is_parse_error(tmp_path, capsys):
    # k<x1, x2>/(x1^2 + x2 x1 + x2^2, x1 x2) is not Koszul at degree 4;
    # the complexes of a module of dimension 0 are exact there, so its
    # duality verdicts disagreed (exit 3) instead of naming the module
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps({"generators": ["x1", "x2"], "relations": [
        {"terms": [{"c": "1", "m": ["x1", "x1"]},
                   {"c": "1", "m": ["x2", "x1"]},
                   {"c": "1", "m": ["x2", "x2"]}]},
        {"terms": [{"c": "1", "m": ["x1", "x2"]}]}]}))
    act = tmp_path / "a.json"
    act.write_text(json.dumps({
        "bialgebra": {"dim": 1, "names": ["1"], "mult": [[["1"]]],
                      "unit": ["1"], "comult": [["1"]], "counit": ["1"]},
        "action": [[["1", "0"], ["0", "1"]]],
        "modules": {"zero": {"dim": 0, "action": [[]]}}}))
    assert run(["check", "--input", str(pres), "--action", str(act),
                "--module", "zero", "--max-degree", "5"]) == 2
    assert capsys.readouterr().err == (
        "parse error: bad action bundle in %s: module 'zero' has dimension "
        "0\n" % act)


@pytest.mark.parametrize("names", [["g"], "ab"], ids=["short", "string"])
def test_bialgebra_names_are_checked(tmp_path, capsys, names):
    # the relation of the lopsided swap escapes at g, and the failure
    # names g from the bialgebra's names: a list one short ended in an
    # IndexError (exit 1), and a string was read as two names
    pres, act = _lopsided_swap(tmp_path)
    bundle = json.loads(open(act).read())
    bundle["bialgebra"]["names"] = names
    with open(act, "w") as f:
        json.dump(bundle, f)
    assert run(["check", "--input", pres, "--action", act]) == 2
    assert ("bialgebra names must be a JSON array of 2 distinct strings, "
            "got %r" % (names,)) in capsys.readouterr().err


@pytest.mark.parametrize("checks", ["duality", "roundtrip", "all"])
def test_unstable_action_fails_duality_checks(tmp_path, capsys, checks):
    pres, act = _lopsided_swap(tmp_path)
    out = tmp_path / "r.json"
    code = run(["check", "--input", pres, "--action", act, "--checks",
                checks, "--max-degree", "3", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "fail"
    for name in ("duality", "roundtrip"):
        if checks in (name, "all"):
            entry = report["checks"][name]
            assert entry["status"] == "fail"
            assert entry["details"]["failure"].startswith(
                "relations not stable")
    assert "relations not stable" in capsys.readouterr().out


def _sl2_bundle():
    from koszulkit.fixtures import fixture_bundle
    return fixture_bundle("sl2_adjoint_takiff")["action"]


def _c2_bundle():
    from koszulkit.fixtures import fixture_bundle
    return fixture_bundle("c2_sign_takiff")["action"]


def _edit(bundle, path, value):
    """bundle with the entry at path (a tuple of keys) replaced."""
    bundle = json.loads(json.dumps(bundle))
    node = bundle
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return bundle


@pytest.mark.parametrize("fixture, bundle, message", [
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("lie", "action", "e"), [["0", "1"], ["0", "0"],
                                                   ["0", "0"]]),
     "action of e is not a square matrix"),
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("lie", "action", "e"), [["0", "1", "0"],
                                                   ["0", "0"], ["0"]]),
     "action of e is not a square matrix"),
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("lie", "action", "h"), [["1", "0"], ["0", "-1"]]),
     "action of h is 2 x 2, expected 3 x 3"),
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("lie", "action"),
           {"e": [["0", "1"], ["0", "0"]], "h": [["1", "0"], ["0", "-1"]],
            "f": [["0", "0"], ["1", "0"]]}),
     "space of dimension 2, but the presentation has 3 generators"),
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("modules", "adjoint", "dim"), 2),
     "module 'adjoint', action of e is 3 x 3, expected 2 x 2"),
    ("c2_sign_takiff",
     _edit(_c2_bundle(), ("modules", "sign", "dim"), 2),
     "module 'sign', matrix 0 is 1 x 1, expected 2 x 2"),
    ("c2_sign_takiff",
     _edit(_c2_bundle(), ("action", 1), [["-1", "0"]]),
     "action matrix 1 is not a square matrix"),
    ("c2_sign_takiff",
     _edit(_c2_bundle(), ("bialgebra", "mult"), [[["1", "0"]]]),
     "bialgebra mult must be a 2 x 2 x 2 JSON array for dim 2"),
    ("c2_sign_takiff", _edit(_c2_bundle(), ("modules",), []),
     "modules must be a JSON object, got []"),
    ("c2_sign_takiff", _edit(_c2_bundle(), ("modules",), ["x"]),
     "modules must be a JSON object, got ['x']"),
    ("sl2_adjoint_takiff", _edit(_sl2_bundle(), ("modules",), ["x"]),
     "modules must be a JSON object, got ['x']"),
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("lie", "brackets"),
           sorted(_sl2_bundle()["lie"]["brackets"])),
     "lie brackets must be a JSON object"),
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("lie", "basis"), ["e", "h", "f", "e"]),
     "lie basis must list distinct names"),
    ("sl2_adjoint_takiff", _edit(_sl2_bundle(), ("lie", "basis"), "ehf"),
     "lie basis must be a JSON array, got 'ehf'"),
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("modules", "zero"),
           {"dim": 0, "action": {"e": [], "h": [], "f": []}}),
     "module 'zero' has dimension 0"),
    ("c2_sign_takiff",
     _edit(_c2_bundle(), ("modules", "zero"), {"action": [[], []]}),
     "module 'zero' has dimension 0"),
    ("c2_sign_takiff", _edit(_c2_bundle(), ("bialgebra", "names"), ["g"]),
     "bialgebra names must be a JSON array of 2 distinct strings, got "
     "['g']"),
    ("c2_sign_takiff", _edit(_c2_bundle(), ("bialgebra", "names"), "ab"),
     "bialgebra names must be a JSON array of 2 distinct strings, got 'ab'"),
    ("c2_sign_takiff",
     _edit(_c2_bundle(), ("bialgebra", "names"), ["g", "g"]),
     "bialgebra names must be a JSON array of 2 distinct strings"),
    # a module's dim is a JSON integer, as the bialgebra's is: true and
    # 1.0 were read as 1, and "1" failed as "expected '1' x '1'"
    *[(fixture, _edit(bundle(), ("modules", "triv", "dim"), value),
       "module 'triv' dim must be a JSON integer, got %r" % (value,))
      for fixture, bundle in (("c2_sign_takiff", _c2_bundle),
                              ("sl2_adjoint_takiff", _sl2_bundle))
      for value in (True, 1.0, "1")],
    # a key that names no basis element was ignored, and a brackets key
    # that is not a pair failed without naming it
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("lie", "action", "q"), [["0"] * 3] * 3),
     "lie action key 'q' names no basis element"),
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("modules", "adjoint", "action", "q"),
           [["0"] * 3] * 3),
     "module 'adjoint' action key 'q' names no basis element"),
    *[("sl2_adjoint_takiff",
       _edit(_sl2_bundle(), ("lie", "brackets", key), [{"c": "1", "b": "h"}]),
       "lie brackets key %r is not two basis names joined by ','" % (key,))
      for key in ("ef", "e,q", "e,f,h")],
    # a basis name left out, a bracket term in no basis element and a
    # module given as an array failed with a bare KeyError or TypeError
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("lie", "action"),
           {g: m for g, m in _sl2_bundle()["lie"]["action"].items()
            if g != "e"}),
     "lie action has no key 'e'"),
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("modules", "adjoint", "action"),
           {"h": [["0"] * 3] * 3, "f": [["0"] * 3] * 3}),
     "module 'adjoint' action has no key 'e'"),
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("lie", "brackets", "e,f"), [{"c": "1", "b": "q"}]),
     "lie brackets 'e,f' term names no basis element: 'q'"),
    ("sl2_adjoint_takiff",
     _edit(_sl2_bundle(), ("modules", "triv"), [[["0"]], [["0"]], [["0"]]]),
     "module 'triv' must be a JSON object, got [[['0']], [['0']], [['0']]]"),
    ("c2_sign_takiff",
     _edit(_c2_bundle(), ("modules", "sign"), [[["1"]], [["-1"]]]),
     "module 'sign' must be a JSON object, got [[['1']], [['-1']]]"),
], ids=["lie-not-square", "lie-ragged", "lie-sizes-differ", "lie-wrong-space",
        "lie-module-dim", "bialgebra-module-dim", "bialgebra-not-square",
        "bialgebra-short-mult", "bialgebra-modules-empty-array",
        "bialgebra-modules-array", "lie-modules-array", "lie-brackets-array",
        "lie-repeated-name", "lie-basis-string", "lie-module-dim-0",
        "bialgebra-module-dim-0", "bialgebra-names-short",
        "bialgebra-names-string", "bialgebra-names-repeated",
        "bialgebra-module-dim-true", "bialgebra-module-dim-float",
        "bialgebra-module-dim-string", "lie-module-dim-true",
        "lie-module-dim-float", "lie-module-dim-string", "lie-action-key",
        "lie-module-action-key", "lie-brackets-key-no-comma",
        "lie-brackets-key-unknown-name", "lie-brackets-key-three-names",
        "lie-action-missing-name", "lie-module-action-missing-name",
        "lie-bracket-term-unknown-name", "lie-module-array",
        "bialgebra-module-array"])
def test_malformed_action_is_parse_error(tmp_path, capsys, fixture, bundle,
                                         message):
    # shapes are input checks, not asserts: the same exit 2 under -O
    pres, _ = emit(tmp_path, fixture)
    act = tmp_path / "bad_action.json"
    act.write_text(json.dumps(bundle))
    assert run(["check", "--input", pres, "--action", str(act),
                "--checks", "all", "--max-degree", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert message in err


def test_invalid_lie_action_fails_takiff_without_traceback(tmp_path):
    # f on V breaks a bracket law: every check that needs the Lie axioms
    # reports it as a failure, with the coordinates of validate_lie
    pres, _ = emit(tmp_path, "sl2_adjoint_takiff")
    act = tmp_path / "bad_f.json"
    act.write_text(json.dumps(_edit(
        _sl2_bundle(), ("lie", "action", "f"),
        [["0", "0", "5"], ["-1", "0", "0"], ["0", "2", "0"]])))
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--action", str(act), "--checks",
                "all", "--max-degree", "3", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    for name in ("validate", "smash", "takiff", "duality", "roundtrip"):
        entry = report["checks"][name]
        assert entry["status"] == "fail", name
        assert entry["details"]["failure"] == (
            "lie axiom: ('representation', 'V', 1, 2)"), name


@pytest.mark.parametrize("checks", ["duality", "roundtrip", "all"])
def test_acting_object_axioms_gate_duality_checks(tmp_path, checks):
    # a counit that breaks the counit law is the acting object's failure,
    # not an internal error of the duality verifiers
    pres, _ = emit(tmp_path, "c2_sign_takiff")
    act = tmp_path / "bad_counit.json"
    act.write_text(json.dumps(_edit(_c2_bundle(), ("bialgebra", "counit"),
                                    ["1", "0"])))
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--action", str(act), "--checks",
                checks, "--max-degree", "3", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    for name in ("smash", "duality", "roundtrip"):
        if checks in (name, "all"):
            entry = report["checks"][name]
            assert entry["status"] == "fail"
            assert entry["details"]["failure"] == "bialgebra axiom: counit law"


@pytest.mark.parametrize("checks", ["duality", "roundtrip", "all"])
def test_failed_acting_object_builds_no_pairing(tmp_path, monkeypatch,
                                                checks):
    # duality and roundtrip report only the acting object's failure, so
    # they build no pairing and, run on their own, grow no algebra
    import koszulkit.check as check
    built = []
    monkeypatch.setattr(check, "DualityPairing",
                        lambda *algs: built.append(algs))
    pres, _ = emit(tmp_path, "c2_sign_takiff")
    act = tmp_path / "bad_counit.json"
    act.write_text(json.dumps(_edit(_c2_bundle(), ("bialgebra", "counit"),
                                    ["1", "0"])))
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--action", str(act), "--checks",
                checks, "--max-degree", "6", "--out", str(out)]) == 1
    assert built == []
    report = json.loads(out.read_text())
    assert ("grow" in report["timing"]) == (checks == "all")
    for name in ("duality", "roundtrip"):
        if checks in (name, "all"):
            assert report["checks"][name] == {
                "status": "fail",
                "details": {"failure": "bialgebra axiom: counit law"}}


def test_action_that_is_not_unital_is_reported_as_such(tmp_path):
    # C2 with 1 and g both acting by diag(1, 0) on sym_2 satisfies the
    # laws on V and V (x) V and keeps the relations, but the unit does not
    # act as the identity
    pres, _ = emit(tmp_path, "sym_2")
    proj = [["1", "0"], ["0", "0"]]
    act = tmp_path / "projection.json"
    act.write_text(json.dumps(_edit(_c2_bundle(), ("action",),
                                    [proj, proj])))
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--action", str(act), "--checks",
                "all", "--max-degree", "3", "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    for name in ("validate", "smash", "duality", "roundtrip"):
        assert checks[name]["status"] == "fail", name
        assert checks[name]["details"]["failure"] == (
            "action not unital: ('unit law',)"), name


NO_ANTIPODE = {
    # basis 1, e with e * e = e and e group-like: S(e) e = 1 is unsolvable
    "bialgebra": {"dim": 2, "names": ["1", "e"],
                  "mult": [[["1", "0"], ["0", "1"]],
                           [["0", "1"], ["0", "1"]]],
                  "unit": ["1", "0"],
                  "comult": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]],
                  "counit": ["1", "1"]},
    "action": [[["1"]], [["0"]]],
    "modules": {"triv": {"dim": 1, "action": [[["1"]], [["1"]]]},
                "zero": {"dim": 1, "action": [[["1"]], [["0"]]]}},
}


def test_bialgebra_without_antipode_passes_check(tmp_path):
    # every induced module a check builds is over the dual (left) action,
    # which needs no antipode
    pres, _ = emit(tmp_path, "sym_1")
    act = tmp_path / "no_antipode.json"
    act.write_text(json.dumps(NO_ANTIPODE))
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--action", str(act), "--checks",
                "all", "--max-degree", "4", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert {name: entry["status"] for name, entry in checks.items()} == {
        "validate": "pass", "hilbert": "pass", "dual": "pass",
        "koszul": "pass", "smash": "pass", "takiff": "skipped",
        "duality": "pass", "roundtrip": "pass"}
    assert sorted(checks["roundtrip"]["details"]["modules"]) == [
        "triv", "zero"]


@pytest.mark.parametrize("checks", ["roundtrip", "all"])
def test_bialgebra_module_law_fails_roundtrip(tmp_path, checks):
    # g acting by 2 on the module sign is not an involution: the module
    # laws are checked once per run and read by every check that uses the
    # modules, so the round trip fails sign and still runs triv
    pres, _ = emit(tmp_path, "c2_sign_takiff")
    act = tmp_path / "bad_sign.json"
    act.write_text(json.dumps(_edit(_c2_bundle(),
                                    ("modules", "sign", "action", 1),
                                    [["2"]])))
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--action", str(act), "--checks",
                checks, "--max-degree", "3", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "fail"
    names = ("roundtrip",) if checks == "roundtrip" else (
        "duality", "roundtrip")
    for name in names:
        entry = report["checks"][name]
        assert entry["status"] == "fail", name
        modules = entry["details"]["modules"]
        assert modules["sign"] == {"failure": "module: ('sign', 1, 1)"}
        assert "failure" not in modules["triv"]
    if checks == "all":
        assert report["checks"]["validate"]["details"]["failure"] == (
            "module law: ('sign', 1, 1)")


def test_lie_module_law_fails_only_that_module(tmp_path):
    # f on the adjoint test module is off at (2, 0): the module's own law
    # fails, but the Lie axioms hold, so takiff and smash pass and triv
    # still runs through duality and the round trip
    pres, _ = emit(tmp_path, "sl2_adjoint_takiff")
    act = tmp_path / "bad_adjoint.json"
    act.write_text(json.dumps(_edit(
        _sl2_bundle(), ("modules", "adjoint", "action", "f"),
        [["0", "0", "0"], ["-1", "0", "0"], ["1", "2", "0"]])))
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--action", str(act), "--checks",
                "all", "--max-degree", "3", "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert checks["validate"]["status"] == "fail"
    assert checks["validate"]["details"]["failure"] == (
        "module law: ('adjoint', 0, 2)")
    for name in ("smash", "takiff"):
        assert checks[name]["status"] == "pass", name
    for name in ("duality", "roundtrip"):
        assert checks[name]["status"] == "fail", name
        modules = checks[name]["details"]["modules"]
        assert modules["adjoint"] == {"failure": "module: ('adjoint', 0, 2)"}
        assert "failure" not in modules["triv"]


@pytest.mark.parametrize("checks", ["duality", "roundtrip"])
def test_singular_pairing_is_internal_error(tmp_path, monkeypatch, checks):
    # K_2 of sym_3 included with one column lost makes g2(2) singular
    from koszulkit.exactlin import Mat
    from koszulkit.quadratic import TruncatedGradedAlgebra
    incl_left = TruncatedGradedAlgebra.incl_left

    def lossy(self, i):
        m = incl_left(self, i)
        if i != 2 or self.pres.gen_names[0].endswith("*"):
            return m
        return Mat.from_entries(m.rows, m.cols, [
            (r, c, x) for r, c, x in m.entries() if c != m.cols - 1])

    monkeypatch.setattr(TruncatedGradedAlgebra, "incl_left", lossy)
    pres, _ = emit(tmp_path, "sym_3")
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--checks", checks,
                "--max-degree", "3", "--out", str(out)]) == 3
    entry = json.loads(out.read_text())["checks"][checks]
    assert entry["status"] == "internal-error"
    assert entry["details"]["failure"] == "pairing g2(2) is singular"


def test_roundtrip_checks_the_intertwiner_over_the_window(tmp_path,
                                                          monkeypatch):
    # with no modules the pairing is still checked, up to the top of the
    # window: psi_bar(5, 0) meets the intertwiner only at (5, 0)
    from koszulkit.quadratic import DualityPairing
    psi_bar = DualityPairing.psi_bar

    def doubled(self, i, j, side):
        m = psi_bar(self, i, j, side)
        return m.scale(2) if (i, j) == (5, 0) else m

    monkeypatch.setattr(DualityPairing, "psi_bar", doubled)
    pres, _ = emit(tmp_path, "sl2_adjoint_takiff")
    act = tmp_path / "no_modules.json"
    act.write_text(json.dumps(_edit(_sl2_bundle(), ("modules",), {})))
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--action", str(act), "--checks",
                "roundtrip", "--max-degree", "5", "--out", str(out)]) == 3
    entry = json.loads(out.read_text())["checks"]["roundtrip"]
    assert entry["status"] == "internal-error"
    assert entry["details"]["failure"] == (
        "pairing intertwiner fails at (5, 0)")


def test_report_digests_are_the_sha256_of_the_inputs(tmp_path):
    import hashlib
    pres, act = emit(tmp_path, "sl2_adjoint_takiff")
    out = tmp_path / "r.json"
    assert run(["check", "--input", pres, "--action", act, "--checks",
                "validate", "--out", str(out)]) == 0
    inputs = json.loads(out.read_text())["inputs"]
    for key, path in (("presentation", pres), ("action", act)):
        with open(path, "rb") as f:
            want = hashlib.sha256(f.read()).hexdigest()
        assert inputs[key]["sha256"] == want, key


# Runs main once per argv (a JSON list of argument lists) and prints, after
# each, which of the watched modules (a JSON list) are loaded.
LOADED_AFTER_EACH = """
import json, sys
from koszulkit.cli import main
watched = json.loads(sys.argv[2])
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    print(json.dumps([code, sorted(m for m in watched if m in sys.modules)]))
"""


def _loaded_after_each(argvs, watched):
    # -S: no site hooks, so only what koszulkit imports is loaded
    src = os.path.dirname(os.path.dirname(os.path.abspath(koszulkit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_AFTER_EACH, json.dumps(argvs),
         json.dumps(watched)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("[")]


def test_check_run_loads_neither_openssl_nor_the_fixtures(tmp_path):
    # the input digests come from CPython's built-in SHA-256, and the
    # built-in inputs are not read by a check
    import importlib.util
    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        pytest.skip("no built-in SHA-256 module")
    pres, act = emit(tmp_path, "sl2_adjoint_takiff")
    assert _loaded_after_each(
        [["check", "--input", pres, "--action", act, "--checks", "all",
          "--max-degree", "3"]],
        ["hashlib", "_hashlib", "koszulkit.fixtures"]) == [[0, []]]


def test_fixtures_and_report_diff_load_no_algebra_layer(tmp_path):
    # the built-in inputs are data, and the check pipeline is imported only
    # for check: writing every fixture, listing them and diffing reports
    # load no layer of the algebra and no exact arithmetic
    from koszulkit.fixtures import FIXTURE_NAMES
    watched = ["fractions"] + ["koszulkit." + m for m in (
        "exactlin", "graded", "quadratic", "action", "duality", "check")]
    reports = []
    for k, seed in enumerate((1, 1, 2)):
        reports.append(str(tmp_path / ("r%d.json" % k)))
        with open(reports[-1], "w") as f:
            json.dump({"inputs": {"seed": seed}, "timing": {"grow": k}}, f)
    argvs = ([["fixtures", "--name", name, "--out-dir", str(tmp_path)]
              for name in FIXTURE_NAMES]
             + [["fixtures", "--list"], ["report-diff"] + reports[:2],
                ["report-diff", reports[0], reports[2]]])
    results = _loaded_after_each(argvs, watched)
    assert results == [[0, []]] * (len(FIXTURE_NAMES) + 2) + [[1, []]]


@pytest.mark.parametrize("checks,error", [
    ("koszul", "parse error: cannot read"),
    ("bogus", "usage error: unknown checks: bogus"),
])
def test_module_run_maps_check_errors_to_exit_2(checks, error):
    # run as `python -m koszulkit.cli`, the errors that koszulkit.check
    # raises reach the handlers of main
    src = os.path.dirname(os.path.dirname(os.path.abspath(koszulkit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "koszulkit.cli", "check", "--input",
         "/nonexistent.json", "--checks", checks],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(error)


def test_check_imports_random_only_for_the_property_sweep(tmp_path):
    pres, _ = emit(tmp_path, "sym_2")
    argv = ["check", "--input", pres, "--checks", "all", "--max-degree", "2"]
    results = _loaded_after_each(
        [argv, argv + ["--property-cases", "1"]], ["random"])
    assert results == [[0, []], [0, ["random"]]]


# ---------------------------------------------------------------------------
# both JSON parsers under generated input: a fixture's presentation or
# action file with one or two entries replaced by small JSON values, run
# in process through main

_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
              st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x", "y", "e",
                               "h", "f", "x,y", "e,f", ""])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["c", "m", "b", "dim", "action",
                                         "terms", "e", "x", "e,f"]),
                        inner, max_size=3)),
    max_leaves=8)


def _mutate(data, doc):
    """doc with one or two entries, each at a path drawn by data, replaced
    by a drawn JSON value."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 2))):
        parent, key, node = None, None, doc
        while (isinstance(node, (dict, list)) and node
               and data.draw(st.booleans())):
            key = data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict)
                else range(len(node))))
            parent, node = node, node[key]
        value = data.draw(_JSON)
        if parent is None:
            doc = value
        else:
            parent[key] = value
    return doc


def _check_in_process(tmp_dir, pres_obj, action_obj=None):
    pres = os.path.join(tmp_dir, "p.json")
    with open(pres, "w") as f:
        json.dump(pres_obj, f)
    argv = ["check", "--input", pres, "--checks", "all", "--max-degree", "2"]
    if action_obj is not None:
        argv += ["--action", os.path.join(tmp_dir, "a.json")]
        with open(argv[-1], "w") as f:
            json.dump(action_obj, f)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


_FUZZ = settings(max_examples=100, derandomize=True, database=None,
                 deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@_FUZZ
@given(data=st.data(),
       name=st.sampled_from(["sym_2", "ext_2", "free_2", "dual_numbers"]))
def test_generated_presentation_files_never_end_in_a_traceback(
        fuzz_dir, data, name):
    from koszulkit.fixtures import fixture_bundle
    pres = _mutate(data, fixture_bundle(name)["presentation"])
    assert _check_in_process(fuzz_dir, pres) in (0, 1, 2)


@_FUZZ
@given(data=st.data(),
       name=st.sampled_from(["c2_sign_takiff", "sl2_adjoint_takiff",
                             "sweedler_optional"]))
def test_generated_action_files_never_end_in_a_traceback(
        fuzz_dir, data, name):
    from koszulkit.fixtures import fixture_bundle
    bundle = fixture_bundle(name)
    action = _mutate(data, bundle["action"])
    assert _check_in_process(fuzz_dir, bundle["presentation"],
                             action) in (0, 1, 2)

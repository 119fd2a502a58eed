"""Tests of the benchmark's own oracles and span arithmetic.

    python3 bench/test_oracles.py

Each oracle must accept a correct report and reject one corrupted in the
field it checks.  The reports are built here from the expectations, so
the tests need no koszulkit run.
"""

import copy
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs   # noqa: E402
import oracles  # noqa: E402
import run      # noqa: E402

SHA = {"presentation": "p" * 64, "action": "a" * 64}


def make_report(exp):
    """A report that a correct koszulkit writes for `exp`."""
    N = exp["N"]
    euler = oracles.euler_holds(exp["dims"], exp["dual_dims"])
    strs = lambda xs: [str(x) for x in xs]     # noqa: E731
    ff = None if exp["koszul"] else [-1, exp.get("first_failure_degree")
                                     or 4]
    checks = {
        "validate": {"status": "pass", "details": {}},
        "hilbert": {"status": "pass" if euler else "fail", "details": {
            "algebra_dims": strs(exp["dims"]),
            "koszul_subspace_dims": strs(exp["dual_dims"]),
            "euler_identity": euler}},
        "dual": {"status": "pass", "details": {
            "dual_dims": strs(exp["dual_dims"]),
            "double_dual_recovers_relations": True,
            "dim_K_matches_dual": True}},
        "koszul": {"status": "pass", "details": {
            "per_degree": {str(s): exp["koszul"] or s < ff[1]
                           for s in range(N + 1)},
            "koszul_up_to_N": exp["koszul"], "first_failure": ff}},
    }
    if "modules" in exp:
        per = {str(s): True for s in range(1, N)}
        side = {"act0": True, "bijective": True, "chain": True,
                "generator": True}
        checks["smash"] = {"status": "pass", "details": {
            "right_smash_associative": True, "dual_smash_associative": True}}
        checks["takiff"] = (
            {"status": "skipped", "details": {}} if exp["takiff"] is None
            else {"status": "pass", "details": {
                "even_graded_dims": exp["takiff"][0],
                "super_graded_dims": exp["takiff"][1],
                "even_jacobi": True, "super_jacobi": True}})
        checks["duality"] = {"status": "pass", "details": {"modules": {
            m: {"per_degree_injective": dict(per),
                "per_degree_projective": dict(per),
                "per_degree_koszul_complex": dict(per),
                "verdict": True, "h0_isomorphic_to_module": True,
                "socle_identification": True, "top_identification": True}
            for m in exp["modules"]}}}
        checks["roundtrip"] = {"status": "pass", "details": {"modules": {
            m: {"injective_side": dict(side), "projective_side": dict(side),
                "cells_A": 14, "cells_B": 14} for m in exp["modules"]}}}
    verdict = "pass" if euler else "fail"
    return {"schema": "koszulkit/1", "verdict": verdict, "checks": checks,
            "inputs": {"max_degree": N, "checks": exp["checks"],
                       "presentation": {"sha256": SHA["presentation"]},
                       "action": ({"sha256": SHA["action"]}
                                  if exp["sha256"]["action"] else None)}}


def fixture_expectation(workload):
    fixture, N, exp = inputs.FIXTURES[workload]
    return dict(exp, N=N, koszul=True, checks=inputs.ALL_CHECKS,
                sha256=dict(SHA))


def non_koszul_expectation(k):
    n, rows, first = inputs.NON_KOSZUL[k]
    exp = {"koszul": False, "first_failure_degree": first, "n": n,
           "rows": rows, "N": inputs.SWEEP_N, "checks": inputs.SWEEP_CHECKS,
           "sha256": {"presentation": SHA["presentation"], "action": None}}
    return inputs.complete_expectation(exp)


class ClosedForms(unittest.TestCase):

    def test_fixture_dims(self):
        self.assertEqual(oracles.sym_dims(3, 5), [1, 3, 6, 10, 15, 21])
        self.assertEqual(oracles.ext_dims(3, 5), [1, 3, 3, 1, 0, 0])
        self.assertEqual(oracles.dual_numbers_dims(5), [1, 1, 0, 0, 0, 0])
        self.assertEqual(oracles.polynomial_1_dims(3), [1, 1, 1, 1])
        self.assertEqual(oracles.takiff_pbw_dims(3, 3),
                         ([1, 3, 6, 10], [1, 3, 3, 1]))

    def test_integer_elimination_matches_closed_forms(self):
        sym3 = [[0, 1, 0, -1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, -1, 0, 0],
                [0, 0, 0, 0, 0, 1, 0, -1, 0]]
        self.assertEqual(oracles.hilbert_dims(3, sym3, 5),
                         oracles.sym_dims(3, 5))
        dual = oracles.annihilator(3, sym3)
        self.assertEqual(len(dual), 6)
        self.assertEqual(oracles.hilbert_dims(3, dual, 5),
                         oracles.ext_dims(3, 5))
        self.assertEqual(oracles.pbw_dims(3, sym3, 5),
                         (oracles.sym_dims(3, 5), oracles.ext_dims(3, 5)))

    def test_known_non_koszul(self):
        exp = non_koszul_expectation(0)
        self.assertEqual(exp["dims"], [1, 2, 2, 1, 0, 0])
        self.assertFalse(oracles.euler_holds(exp["dims"], exp["dual_dims"]))
        self.assertTrue(oracles.euler_holds(exp["dims"][:4],
                                            exp["dual_dims"][:4]))

    def test_every_non_koszul_case_fails_euler(self):
        for k in range(len(inputs.NON_KOSZUL)):
            exp = non_koszul_expectation(k)
            self.assertFalse(oracles.euler_holds(exp["dims"],
                                                 exp["dual_dims"]))

    def test_sweep_is_seeded_and_koszul(self):
        work = os.path.join(run.HERE, "_work")
        os.makedirs(work, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            a = [c.expect for c in inputs.sweep_cases(7, tmp)]
            b = [c.expect for c in inputs.sweep_cases(7, tmp)]
        self.assertEqual(a, b)
        koszul = [e for e in a if e["koszul"]]
        self.assertEqual((len(a), len(koszul)), (20, 16))
        for e in koszul:
            # dims of the changed presentation, by integer elimination
            self.assertEqual(oracles.hilbert_dims(e["n"], e["rows"], 4),
                             e["dims"][:5])
            self.assertTrue(oracles.euler_holds(e["dims"], e["dual_dims"]))


class ReportOracles(unittest.TestCase):

    def assertRejected(self, exp, corrupt, code=None):
        report = make_report(exp)
        good = 0 if report["verdict"] == "pass" else 1
        self.assertEqual(oracles.check_report(report, good, exp), [])
        bad = copy.deepcopy(report)
        corrupt(bad["checks"] if code is None else bad)
        self.assertNotEqual(
            oracles.check_report(bad, good if code is None else code, exp),
            [])

    def test_sl2_fields(self):
        exp = fixture_expectation("sl2_takiff")

        def setter(check, key, value):
            def corrupt(checks):
                checks[check]["details"][key] = value
            return corrupt

        for check, key, value in [
                ("hilbert", "algebra_dims", ["1", "3", "6", "10", "16"]),
                ("hilbert", "koszul_subspace_dims", ["1", "3", "3", "1", "1"]),
                ("hilbert", "euler_identity", False),
                ("dual", "dual_dims", ["1", "3", "3", "0", "0"]),
                ("dual", "dim_K_matches_dual", False),
                ("koszul", "koszul_up_to_N", False),
                ("koszul", "first_failure", [-2, 4]),
                ("takiff", "even_graded_dims", [1, 3, 6, 9]),
                ("takiff", "super_graded_dims", [1, 3, 3, 0]),
                ("smash", "dual_smash_associative", False)]:
            with self.subTest(check=check, key=key):
                self.assertRejected(exp, setter(check, key, value))

    def test_sl2_modules(self):
        exp = fixture_expectation("sl2_takiff")

        def dual_verdict(checks):
            checks["duality"]["details"]["modules"]["triv"]["verdict"] = False

        def dual_degree(checks):
            mod = checks["duality"]["details"]["modules"]["adjoint"]
            mod["per_degree_projective"]["2"] = False

        def roundtrip(checks):
            mod = checks["roundtrip"]["details"]["modules"]["adjoint"]
            mod["projective_side"]["chain"] = False

        def missing_module(checks):
            del checks["roundtrip"]["details"]["modules"]["triv"]

        for corrupt in (dual_verdict, dual_degree, roundtrip, missing_module):
            with self.subTest(corrupt=corrupt.__name__):
                self.assertRejected(exp, corrupt)

    def test_sweedler_takiff_skipped(self):
        exp = fixture_expectation("sweedler_bialg")

        def not_skipped(checks):
            checks["takiff"]["status"] = "pass"

        self.assertRejected(exp, not_skipped)

    def test_report_envelope(self):
        exp = fixture_expectation("sweedler_bialg")

        def sha(report):
            report["inputs"]["presentation"]["sha256"] = "0" * 64

        def verdict(report):
            report["verdict"] = "fail"

        def degree(report):
            report["inputs"]["max_degree"] = 4

        for corrupt in (sha, verdict, degree):
            with self.subTest(corrupt=corrupt.__name__):
                self.assertRejected(exp, corrupt, code=0)
        self.assertRejected(exp, lambda report: None, code=1)

    def test_non_koszul(self):
        known = non_koszul_expectation(0)

        def claims_koszul(checks):
            det = checks["koszul"]["details"]
            det["koszul_up_to_N"] = True
            det["per_degree"] = {str(s): True for s in range(6)}
            det["first_failure"] = None

        def fails_early(checks):
            checks["koszul"]["details"]["first_failure"] = [-1, 3]

        def fails_late(checks):
            checks["koszul"]["details"]["first_failure"] = [-1, 5]

        def euler_holds(checks):
            checks["hilbert"]["details"]["euler_identity"] = True
            checks["hilbert"]["status"] = "pass"

        def dims(checks):
            checks["hilbert"]["details"]["algebra_dims"][3] = "0"

        for corrupt in (claims_koszul, fails_early, fails_late, euler_holds,
                        dims):
            with self.subTest(corrupt=corrupt.__name__):
                self.assertRejected(known, corrupt)
        other = non_koszul_expectation(3)
        self.assertRejected(other, fails_early)
        self.assertRejected(other, claims_koszul)


class Spans(unittest.TestCase):

    def test_self_time_and_outermost_groups(self):
        # cli.main [0, 10] > duality.I_complex [1, 9] > duality.I_complex
        # [2, 5] > exactlin.rref [3, 4]; quadratic.grow [6, 8]
        spans = {"table": ["cli.main", "duality.I_complex", "exactlin.rref",
                           "quadratic.grow"],
                 "name": [0, 1, 1, 2, 3], "parent": [-1, 0, 1, 2, 1],
                 "start": [0.0, 1.0, 2.0, 3.0, 6.0],
                 "end": [10.0, 9.0, 5.0, 4.0, 8.0],
                 "work": [[1, 7], [2, 3], [3, 12], [4, 40]]}
        out = run.layer_numbers(spans)
        self.assertEqual(out["cli.self_s"], 2.0)
        self.assertEqual(out["duality.self_s"], 3.0 + 2.0)
        self.assertEqual(out["exactlin.self_s"], 1.0)
        self.assertEqual(out["quadratic.self_s"], 2.0)
        self.assertEqual(out["duality.complex.s"], 8.0)
        self.assertEqual(out["duality.complex.cells"], 10)
        self.assertEqual(out["exactlin.rref.calls"], 1)
        self.assertEqual(out["exactlin.rref.entries"], 12)
        self.assertEqual(out["quadratic.grow.ambient"], 40)
        self.assertEqual(out["trace.spans"], 5)


if __name__ == "__main__":
    unittest.main()

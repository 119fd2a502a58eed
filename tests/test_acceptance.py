"""Acceptance gate: the eleven primary criteria, one verdict line each.

Each test computes its criterion, prints exactly one [PASS]/[FAIL] line
(visible with pytest -s or in captured output on failure), and asserts.
"""

import json
import time
from math import comb

from koszulkit.action import (
    dual_action, smash_ok, trivial_provider, validate_module_algebra,
)
from koszulkit.check import property_cases_report
from koszulkit.duality import (
    I_complex, P_complex, degree_zero_module, h0_certificate, identify_socI, identify_topP,
    koszulity_via_duality, roundtrip_A, roundtrip_B,
)
from koszulkit.exactlin import F0, F1, Mat, Subspace
from koszulkit.fixtures import (
    PRESENTATION_FIXTURES, c2_modules, c2_sign_provider,
    dual_numbers_presentation, sl2_lie_action, sl2_provider,
    sweedler_modules, sweedler_provider,
)
from koszulkit.graded import check_d_squared, homology
from koszulkit.quadratic import (
    DualityPairing, QuadraticPresentation, euler_identity, ext_presentation,
    free_presentation, grow, koszul_complex, koszulity_check, quadratic_dual,
    sym_presentation, verify_psi_intertwiner,
)
from homology_oracle import diagonal_vanishing, nonzero_valid_cells
from module_oracle import (
    identify_socI_of, identify_topP_of, koszulity_via_duality_of,
    roundtrip_A_of, roundtrip_B_of,
)
from takiff_oracle import takiff, takiff_graded_dims, validate_jacobi


def _verdict(num, ok, text):
    print("[%s] criterion-%02d: %s" % ("PASS" if ok else "FAIL", num, text))
    assert ok, text


def _module_cases(N_sl2=3):
    """Every degree-zero fixture module with its provider and presentation."""
    cases = []
    for name, mk in sorted(PRESENTATION_FIXTURES.items()):
        pres = mk()
        cases.append(("%s/k" % name, pres, trivial_provider(pres.n),
                      [Mat.identity(1)], 4))
    for mod in ("triv", "sign"):
        cases.append(("c2/%s" % mod, sym_presentation(1), c2_sign_provider(),
                      c2_modules()[mod], 4))
    for mod in ("triv", "adjoint"):
        cases.append(("sl2/%s" % mod, sym_presentation(3), sl2_provider(),
                      sl2_lie_action().modules[mod], N_sl2))
    cases.append(("sweedler/two_dim", dual_numbers_presentation(),
                  sweedler_provider(), sweedler_modules()["two_dim"], 4))
    return cases


def test_criterion_01_koszul_complex_homology_sym():
    ok = True
    detail = []
    for n in (1, 2, 3):
        t0 = time.monotonic()
        alg = grow(sym_presentation(n), 6)
        cx = koszul_complex(alg)
        good = check_d_squared(cx)[0]
        for s in range(7):
            for i in range(s + 1):
                want = comb(n, i) * comb(n + (s - i) - 1, s - i)
                good = good and cx.dim(-i, s) == want
        rep = homology(cx)
        good = good and nonzero_valid_cells(rep) == [(0, 0)] \
            and rep.dim(0, 0) == 1
        dt = time.monotonic() - t0
        good = good and dt < 60.0
        detail.append("n=%d %.1fs" % (n, dt))
        ok = ok and good
    _verdict(1, ok, "polynomial Koszul complexes exact off (0,0) at N=6, "
             "dims binomial, under 60s each (%s)" % ", ".join(detail))


def test_criterion_02_dual_hilbert_and_double_dual():
    ok = True
    for n in (1, 2, 3):
        dual = grow(quadratic_dual(sym_presentation(n)), n + 2)
        want = [comb(n, i) for i in range(n + 1)] + [0] * 2
        ok = ok and dual.hdims() == want
    for pres in (sym_presentation(2), sym_presentation(3),
                 ext_presentation(2), ext_presentation(3),
                 free_presentation(2), dual_numbers_presentation()):
        dd = quadratic_dual(quadratic_dual(pres))
        ok = ok and dd.relations == pres.relations
    _verdict(2, ok, "dual of S(V) has exterior Hilbert series; double dual "
             "recovers the relation space on all fixtures")


def test_criterion_03_koszul_subspace_dims_match_dual():
    ok = True
    N = 5
    for name, mk in sorted(PRESENTATION_FIXTURES.items()):
        pres = mk()
        alg = grow(pres, N)
        dual = grow(quadratic_dual(pres), N)
        ok = ok and alg.kdims() == dual.hdims()
    _verdict(3, ok, "dim K_i equals the dual algebra dimension in every "
             "degree i <= %d for all presentation fixtures" % N)


def test_criterion_04_pairing_intertwiner():
    ok = True
    for pres in (sym_presentation(2), ext_presentation(2)):
        alg = grow(pres, 5)
        dual = grow(quadratic_dual(pres), 5)
        good, where = verify_psi_intertwiner(DualityPairing(alg, dual),
                                             "right")
        ok = ok and good
    _verdict(4, ok, "pairing comparison maps intertwine the two bar maps "
             "for sym_2 and ext_2 up to total degree 5")


def test_criterion_05_actions_and_smash():
    ok = True
    for provider, pres in ((sl2_provider(), sym_presentation(3)),
                           (c2_sign_provider(), sym_presentation(1))):
        ok = ok and validate_module_algebra(provider, pres) == (True, None)
        alg = grow(pres, 4)
        ok = ok and smash_ok(provider, alg) == (True, None)
        dual = grow(quadratic_dual(pres), 4)
        ok = ok and smash_ok(dual_action(provider), dual) == (True, None)
    _verdict(5, ok, "sl2-adjoint and C2-sign actions stabilize relations; "
             "smash products associative on both sides at N=4")


def test_criterion_06_takiff():
    lie = sl2_lie_action()
    ok = True
    for parity in ("even", "super"):
        t = takiff(lie, parity)
        ok = ok and validate_jacobi(t) == (True, None)
        pbw, grown = takiff_graded_dims(t, 3)
        ok = ok and pbw == grown
    _verdict(6, ok, "sl2 Takiff brackets satisfy (super-)Jacobi and the "
             "graded dimensions match the monomial count up to degree 3")


def test_criterion_07_h0_and_diagonal_vanishing():
    ok = True
    bad = []
    for name, pres, provider, mats, N in _module_cases():
        alg = grow(pres, N)
        dual = grow(quadratic_dual(pres), N)
        X = degree_zero_module(provider, alg, mats)
        icx = I_complex(X)
        good = h0_certificate(icx, X)[0] and diagonal_vanishing(icx)[0]
        Xd = degree_zero_module(dual_action(provider), dual, mats)
        pcx = P_complex(Xd)
        good = good and h0_certificate(pcx, Xd)[0] \
            and diagonal_vanishing(pcx)[0]
        if not good:
            bad.append(name)
        ok = ok and good
    _verdict(7, ok, "degree-zero homology equivariantly isomorphic to the "
             "module and boundary diagonal vanishes on both sides for all "
             "fixture modules%s" % ("" if ok else "; failed: %r" % bad))


def test_criterion_08_identifications():
    ok = True
    for name, pres, provider, mats, N in (
            ("c2/sign", sym_presentation(1), c2_sign_provider(),
             c2_modules()["sign"], 4),
            ("c2/triv", sym_presentation(1), c2_sign_provider(),
             c2_modules()["triv"], 4),
            ("sl2/triv", sym_presentation(3), sl2_provider(),
             sl2_lie_action().modules["triv"], 4),
            ("sl2/adjoint", sym_presentation(3), sl2_provider(),
             sl2_lie_action().modules["adjoint"], 4)):
        alg = grow(pres, N)
        dual = grow(quadratic_dual(pres), N)
        pairing = DualityPairing(alg, dual)
        soc = identify_socI(provider, pairing)
        top = identify_topP(provider, pairing)
        ok = ok and soc["ok"] and top["ok"] \
            and soc == identify_socI_of(provider, pairing, mats) \
            and top == identify_topP_of(provider, pairing, mats)
    _verdict(8, ok, "socle and top identifications are bijective "
             "equivariant chain maps for the C2 and sl2 fixtures at N=4")


def test_criterion_09_round_trips():
    t0 = time.monotonic()
    ok = True
    pres = sym_presentation(2)
    alg = grow(pres, 5)
    dual = grow(quadratic_dual(pres), 5)
    pairing = DualityPairing(alg, dual)
    cases = [(trivial_provider(2), pairing, [Mat.identity(1)])]
    pres = sym_presentation(3)
    alg = grow(pres, 4)
    dual = grow(quadratic_dual(pres), 4)
    pairing = DualityPairing(alg, dual)
    provider = sl2_provider()
    for mod in ("triv", "adjoint"):
        cases.append((provider, pairing, sl2_lie_action().modules[mod]))
    for provider, pairing, mats in cases:
        for rt, oracle in ((roundtrip_A, roundtrip_A_of),
                           (roundtrip_B, roundtrip_B_of)):
            res = rt(provider, pairing)
            ok = ok and res["ok"] and res == oracle(provider, pairing, mats)
    dt = time.monotonic() - t0
    ok = ok and dt < 300.0
    _verdict(9, ok, "both round trips pass for trivial/S(V) at N=5 and for "
             "the sl2 Takiff modules at N=4 in %.1fs (< 300s)" % dt)


def test_criterion_10_three_verdicts_agree():
    ok = True
    bad = []
    for name, pres, provider, mats, N in _module_cases():
        alg = grow(pres, N)
        dual = grow(quadratic_dual(pres), N)
        pairing = DualityPairing(alg, dual)
        res = koszulity_via_duality(provider, pairing)
        good = res["agree"] and res["h0_injective"] and res["h0_projective"]
        good = good and res == koszulity_via_duality_of(provider, pairing,
                                                        mats)
        # every built-in fixture is Koszul, so all three must also say yes
        good = good and res["verdict"]
        if not good:
            bad.append(name)
        ok = ok and good
    # k<x1,x2>/(x1^2 + x2x1 + x2^2, x1x2) is not Koszul: the three verdicts
    # must still agree degreewise, and all say no at degree 4
    pres = QuadraticPresentation(["x1", "x2"], Subspace.from_rows(
        4, [[F1, F0, F1, F1], [F0, F1, F0, F0]]))
    alg = grow(pres, 5)
    dual = grow(quadratic_dual(pres), 5)
    provider = trivial_provider(2)
    pairing = DualityPairing(alg, dual)
    res = koszulity_via_duality(provider, pairing)
    per_degree = {1: True, 2: True, 3: True, 4: False}
    good = (alg.hdims() == [1, 2, 2, 1, 0, 0]
            and koszulity_check(alg)["first_failure"] == (-2, 4)
            and not euler_identity(alg, dual)
            and res["agree"] and not res["verdict"]
            and res["per_degree_injective"] == per_degree
            and res["per_degree_projective"] == per_degree
            and res == koszulity_via_duality_of(provider, pairing,
                                                [Mat.identity(1)]))
    if not good:
        bad.append("non-Koszul/k")
    ok = ok and good
    _verdict(10, ok, "injective-side, projective-side and Koszul-complex "
             "verdicts coincide degreewise for every fixture module and "
             "for a non-Koszul input, where all three fail at degree 4%s"
             % ("" if ok else "; failed: %r" % bad))


def test_criterion_11_seeded_property_sweep():
    r1 = property_cases_report(20230521, 1000)
    r2 = property_cases_report(20230521, 1000)
    ok = r1["ok"] and r1["stats"]["cases"] == 1000 \
        and r1["stats"]["d_squared_ok"] == 1000 \
        and json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    _verdict(11, ok, "1000 seeded random presentations: d^2=0 and Euler "
             "identity everywhere, report byte-identical across two runs")

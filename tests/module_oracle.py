"""Per-module oracle for the duality verifiers.

The verifiers of koszulkit.duality, and koszulity_via_duality, compute
their results once, at the trivial module k (the round trips from
identities of the pairings, with no complex), and give the verdict of
every degree-zero module whose laws hold.  Each function here computes
the same result the other way: on the module itself, from the complexes
of that module.  Round trip B's oracle compares the socle complex of the
coinduced module I0(X) with the projective-side complex of X over the
dual through chi (x) id_X, chi from the inverses of theta and phi that an
elimination finds.  Tests assert that the two are equal, module by
module.
"""

from koszulkit.action import dual_action
from koszulkit.duality import (
    GradedAModule, I_complex, P0, P_complex, _act0_verdict,
    _g1_action_failures, _g1_generator_failures, _g2_action_failures,
    _g2_generator_failures, _hom_action, _phi_matrix, _rho_hom,
    _theta_matrix, degree_zero_module, h0_certificate, identify_socI,
    identify_topP, koszulity_via_duality, roundtrip_A, roundtrip_B,
    socI_complex, topP_complex, validate_socI_action,
)
from koszulkit.exactlin import hstack, inverse, kron, vstack
from koszulkit.graded import homology
from koszulkit.quadratic import koszulity_check, verify_psi_intertwiner


def I0(provider, alg, mats):
    """Coinduced module: component -i is Hom(H_i, X) with
    (a . f)(h) = a_(1) f(h <| a_(2)) and (v . f)(h) = f(h v).
    Truncated below at -alg.N."""
    dX = mats[0].rows if mats else 0
    dims = {-i: dX * alg.hdim(i) for i in range(alg.N + 1)}
    act1 = {-i: hstack([
        kron(dX, alg.generator_mult(i - 1, a, "right").transpose())
        for a in range(alg.n)])
        for i in range(1, alg.N + 1) if dims[-i] and dims[-i + 1]}
    return GradedAModule(
        provider, alg, dims,
        lambda j: _hom_action(provider, provider.h_action(alg, -j),
                              list(mats)),
        act1, truncated_below=True)


def chi_matrix(pairing, r, i, dX):
    """Round trip B's socle-to-model matrix chi (x) id_X at dual degree r
    and H-degree i, dim X = dX: the inverse theta of the coinduced
    component Hom(H_i, X), then the inverse phi on it, each inverted by
    elimination."""
    return (kron(pairing.dual.hdim(r),
                 inverse(_phi_matrix(pairing, i, dX)))
            @ inverse(_theta_matrix(pairing, r, dX * pairing.alg.hdim(i))))


def _roundtrip_result(checks, **more):
    """A round trip's result from the verdicts (ok, where) of its named
    checks, in order: the first failure, with its name, and which hold."""
    first = next(((name,) + where for name, (ok, where) in checks.items()
                  if not ok), None)
    return {"ok": first is None, "first_failure": first,
            "checks": {name: ok for name, (ok, _w) in checks.items()},
            **more}


def koszulity_via_duality_of(provider, pairing, mats):
    """The three Koszulity verdicts from the injective-side complex of the
    module and the projective-side complex of it over the dual."""
    alg, dual = pairing.alg, pairing.dual
    N = alg.N
    X = degree_zero_module(provider, alg, mats)
    Xd = degree_zero_module(dual_action(provider), dual, mats)
    icx, pcx = I_complex(X), P_complex(Xd)
    rep_i, rep_p = homology(icx.cx), homology(pcx.cx)
    kz = koszulity_check(alg)
    top = N - 1
    per_i, per_p = {}, {}
    for d in range(1, top + 1):
        per_i[d] = not any(rep_i.valid(r, -d) and rep_i.dim(r, -d)
                           for r in range(N))
        per_p[d] = not any(rep_p.valid(-r, d) and rep_p.dim(-r, d)
                           for r in range(N))
    per_k = {d: kz["per_degree"][d] for d in range(1, top + 1)}
    h0_i, h0_p = h0_certificate(icx, X)[0], h0_certificate(pcx, Xd)[0]
    agree = all(per_i[d] == per_p[d] == per_k[d] for d in per_i)
    return {
        "per_degree_injective": per_i,
        "per_degree_projective": per_p,
        "per_degree_koszul_complex": per_k,
        "agree": agree,
        "h0_injective": h0_i,
        "h0_projective": h0_p,
        "koszul_up_to": top,
        "verdict": agree and all(per_k.values()) and h0_i and h0_p,
        "assumptions": ["degree-zero-part self-injectivity (Ext-vanishing)"
                        " assumed, not checked"],
    }


def identify_socI_of(provider, pairing, mats):
    """The socle identification on the socle complex of the module, with
    its smash module law."""
    soc = socI_complex(degree_zero_module(provider, pairing.alg, mats))
    ok, where = pairing.verdict(_g2_generator_failures)
    if ok:
        ok, where = pairing.verdict(_g2_action_failures, provider)
    if ok:
        ok, law = validate_socI_action(soc)
        where = None if ok else ("module law",) + law
    return {"ok": ok, "first_failure": where}


def identify_topP_of(provider, pairing, mats):
    """The top identification on the top quotient of Y = P0(X) over the
    dual, its chain property through phi with id_Y, dim Y_j wide."""
    alg, n = pairing.alg, pairing.alg.n
    Y = P0(dual_action(provider), pairing.dual, mats)
    top = topP_complex(Y)
    for (mr, s), dmat in sorted(top.cx.differentials.items()):
        r, j = -mr, s + mr
        lmult = vstack([alg.generator_mult(r - 1, a, "left")
                        for a in range(n)])
        dio = _rho_hom(Y.act1_mat(j), lmult, n, Y.dim(j), alg.hdim(r),
                       alg.hdim(r - 1))
        if (_phi_matrix(pairing, r - 1, Y.dim(j + 1)) @ dmat
                != dio @ _phi_matrix(pairing, r, Y.dim(j))):
            return {"ok": False, "first_failure": ("chain", r, j)}
    ok, where = pairing.verdict(_g1_action_failures, provider)
    if ok:
        ok, where = pairing.verdict(_g1_generator_failures)
    return {"ok": ok, "first_failure": where}


def roundtrip_A_of(provider, pairing, mats):
    """Round trip A, its cells counted for the module."""
    alg = pairing.alg
    N, dX = alg.N, mats[0].rows
    cells = sum(1 for r in range(N + 1) for p in range(N + 1 - r)
                if dX * alg.kdim(p) * alg.hdim(r))
    return _roundtrip_result({
        "bijective": (True, None),
        "chain": verify_psi_intertwiner(pairing, "right"),
        "act0": _act0_verdict(pairing, provider),
        "generator": pairing.verdict(_g1_generator_failures),
    }, cells=cells)


def roundtrip_B_of(provider, pairing, mats):
    """Round trip B on the socle complex of I0(X) against the
    projective-side complex of X over the dual, through chi with id_X: the
    differentials agree up to the sign (-1)^(r+i+1) from cell (r, -i - r)
    of the socle complex and cell (-i, r + i) of the projective side, the
    first failure named (i, r), as the left intertwiner of psi_bar names
    it."""
    alg, dual = pairing.alg, pairing.dual
    N, dX = alg.N, mats[0].rows
    soc = socI_complex(I0(provider, alg, mats))
    pcx = P_complex(degree_zero_module(dual_action(provider), dual, mats))
    chi = {(r, i): chi_matrix(pairing, r, i, dX)
           for r in range(N + 1) for i in range(N + 1 - r)
           if alg.kdim(r) * dX * alg.hdim(i)}
    chain = next(((i, r) for i in range(1, N + 1) for r in range(N + 1 - i)
                  if (r, i) in chi and (r + 1, i - 1) in chi
                  and (r, -i - r) in soc.cx.differentials
                  and (-i, r + i) in pcx.cx.differentials
                  and chi[(r + 1, i - 1)] @ soc.cx.differentials[(r, -i - r)]
                  != (pcx.cx.differentials[(-i, r + i)] @ chi[(r, i)]).scale(
                      (-1) ** (r + i + 1))), None)
    return _roundtrip_result({
        "bijective": (True, None),
        "chain": (chain is None, chain),
        "act0": _act0_verdict(pairing, provider),
        "generator": pairing.verdict(_g2_generator_failures),
    }, cells=len(chi),
        sign_convention="(-1)**(dual_degree+1) on the strip map")


# each verifier of koszulkit.duality with its per-module oracle
ORACLES = {
    koszulity_via_duality: koszulity_via_duality_of,
    identify_socI: identify_socI_of,
    identify_topP: identify_topP_of,
    roundtrip_A: roundtrip_A_of,
    roundtrip_B: roundtrip_B_of,
}


def disagreements(provider, pairing, modules):
    """(module, verifier name) for each module of modules (name ->
    matrices) on which a verifier's result, at k, differs from its
    oracle's on the module."""
    at_k = {verifier: verifier(provider, pairing) for verifier in ORACLES}
    return [(module, verifier.__name__)
            for module, mats in sorted(modules.items())
            for verifier, oracle in ORACLES.items()
            if oracle(provider, pairing, mats) != at_k[verifier]]

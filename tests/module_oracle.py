"""Per-module oracle for the duality verifiers.

The verifiers of koszulkit.duality, and koszulity_via_duality, build their
complexes once, at the trivial module k, and give the verdict of every
degree-zero module whose laws hold.  Each function here computes the same
result the other way: on the module itself, from the complexes of that
module, as the verifiers did when they took one.  Tests assert that the
two are equal, module by module.
"""

from koszulkit.action import dual_action
from koszulkit.duality import (
    I0, I_complex, P0, P_complex, _act0_verdict, _chi_matrix,
    _g1_action_failures, _g1_generator_failures, _g2_action_failures,
    _g2_generator_failures, _phi_matrix, _rho_hom, _roundtrip_result,
    degree_zero_module, h0_certificate, identify_socI, identify_topP,
    koszulity_via_duality, roundtrip_A, roundtrip_B, socI_complex,
    topP_complex, validate_socI_action,
)
from koszulkit.exactlin import vstack
from koszulkit.graded import homology
from koszulkit.quadratic import koszulity_check, verify_psi_intertwiner


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
        "chain": verify_psi_intertwiner(pairing),
        "act0": _act0_verdict(pairing, provider),
        "generator": pairing.verdict(_g1_generator_failures),
    }, cells=cells)


def roundtrip_B_of(provider, pairing, mats):
    """Round trip B on the socle complex of I0(X) against the
    projective-side complex of X over the dual, through chi with id_X."""
    alg, dual = pairing.alg, pairing.dual
    N, dX = alg.N, mats[0].rows
    soc = socI_complex(I0(provider, alg, mats))
    pcx = P_complex(degree_zero_module(dual_action(provider), dual, mats))
    chi = {(r, i): _chi_matrix(pairing, r, i, dX)
           for r in range(N + 1) for i in range(N + 1 - r)
           if alg.kdim(r) * dX * alg.hdim(i)}
    chain = None
    for (r, i), m in chi.items():
        nxt = chi.get((r + 1, i - 1))
        d_soc = soc.cx.differentials.get((r, -i - r))
        d_p = pcx.cx.differentials.get((-i, r + i))
        if (nxt is not None and d_soc is not None and d_p is not None
                and nxt @ d_soc != (d_p @ m).scale((-1) ** (r + i + 1))):
            chain = (r, i)
            break
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

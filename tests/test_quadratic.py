import random
from math import comb

import pytest

from koszulkit.action import (
    ActionProvider, action_bundle_from_json, dual_action,
    validate_module_algebra,
)
from koszulkit.check import _random_presentation
from koszulkit.exactlin import (
    F0, F1, Mat, Subspace, kernel, kron, quotient, vstack,
)
from koszulkit.fixtures import (
    FIXTURE_NAMES, dual_numbers_presentation, fixture_bundle, sl2_provider,
    sweedler_bialgebra, sweedler_modules,
)
from koszulkit.graded import check_d_squared, homology
from koszulkit.quadratic import (
    DualityPairing, QuadraticPresentation, euler_identity, ext_presentation,
    free_presentation, grow, index_word, koszul_complex, koszulity_check,
    m_bar, quadratic_dual, reversal_perm, sym_presentation,
    verify_psi_intertwiner, word_index,
)
from homology_oracle import nonzero_valid_cells


def _unit_vector(n, i):
    """The i-th standard basis vector of Q^n, as a list."""
    return [int(k == i) for k in range(n)]


def full_space(n):
    """Q^n as a Subspace of itself."""
    return Subspace.from_rows(n, Mat.identity(n))


def presentation_from_relation_rows(gen_names, rows):
    n = len(gen_names)
    return QuadraticPresentation(gen_names, Subspace.from_rows(n * n, rows))


# ---------------------------------------------------------------------------
# contractions by words of length r, built from the program's one-letter
# contractions; an oracle for the dual algebra acting on Koszul subspaces

def _contract(alg, i, theta, r, first):
    """Matrix K_i -> K_{i-r}, in K-coordinates, contracting the first r
    tensor factors, or the last r, against the dual-word tensor theta
    (length n^r), letters paired in reverse order.

    The first letter of theta pairs the r-th letter (first) or the last
    letter (not first); the rest of theta contracts the remaining r - 1
    letters, so the matrix is a sum of products of one-letter
    contractions."""
    if r > i:
        return Mat.zeros(0, alg.kdim(i))
    n = alg.n
    if len(theta) != n ** r:
        raise ValueError("dual word of length %d, expected %d"
                         % (len(theta), n ** r))
    if r == 0:
        return Mat.identity(alg.kdim(i)).scale(theta[0])
    out = Mat.zeros(alg.kdim(i - r), alg.kdim(i))
    stride = n ** (r - 1)
    for a in range(n):
        rest = theta[a * stride:(a + 1) * stride]
        if not any(rest):
            continue
        if first:
            term = (alg.contraction(i - r + 1, a, "left")
                    @ _contract(alg, i, rest, r - 1, True))
        else:
            term = (_contract(alg, i - 1, rest, r - 1, False)
                    @ alg.contraction(i, a, "right"))
        out = out + term
    return out


def contract_right(alg, i, theta, r):
    """Matrix K_i -> K_{i-r} (in K-coordinates) of the right action of the
    dual-algebra element represented by theta in (V*)^(x)r."""
    return _contract(alg, i, theta, r, first=False)


def contract_left(alg, i, tvec, r):
    """Matrix K_i -> K_{i-r} of the left action contracting first factors.

    Used with the dual algebra: elements of H act on the Koszul subspaces
    of H! by stripping leading factors."""
    return _contract(alg, i, tvec, r, first=True)


def validate_contractions(alg, dual_alg, max_degree=None):
    """The defining relations of the dual act as zero on the Koszul
    subspaces (so the contraction action factors through the dual algebra),
    and symmetrically for the algebra acting on the dual Koszul subspaces."""
    N = max_degree if max_degree is not None else alg.N
    for i in range(2, N + 1):
        for theta in dual_alg.pres.relations.basis.tolist():
            m = contract_right(alg, i, theta, 2)
            if not m.is_zero():
                return False, ("right", i)
        for tvec in alg.pres.relations.basis.tolist():
            m = contract_left(dual_alg, i, tvec, 2)
            if not m.is_zero():
                return False, ("left", i)
    return True, None


def test_word_indexing():
    assert word_index((1, 0, 2), 3) == 11
    assert index_word(11, 3, 3) == (1, 0, 2)
    rev = reversal_perm(2, 2)
    assert rev == [0, 2, 1, 3]


def test_grow_free_one_variable():
    alg = grow(free_presentation(1), 4)
    assert alg.hdims() == [1, 1, 1, 1, 1]
    assert alg.kdims() == [1, 1, 0, 0, 0]


def test_grow_full_relations():
    pres = QuadraticPresentation(["x1", "x2"], full_space(4))
    alg = grow(pres, 4)
    assert alg.hdims() == [1, 2, 0, 0, 0]
    assert alg.kdims() == [1, 2, 4, 8, 16]


def test_grow_sym_2():
    alg = grow(sym_presentation(2), 3)
    assert alg.hdims() == [1, 2, 3, 4]
    assert alg.kdims() == [1, 2, 1, 0]
    assert alg.normal_monomials(2) == ["x1*x1", "x2*x1", "x2*x2"]


def test_hilbert_series_oracles():
    assert grow(sym_presentation(3), 6).hdims() == \
        [comb(3 + i - 1, i) for i in range(7)]
    assert grow(ext_presentation(3), 5).hdims() == [1, 3, 3, 1, 0, 0]
    assert grow(free_presentation(2), 4).hdims() == [1, 2, 4, 8, 16]
    assert grow(dual_numbers_presentation(), 4).hdims() == [1, 1, 0, 0, 0]


class _Ambient:
    """Reference construction on the ambient V^(x)i, the oracle for every
    object the program grows in quotient coordinates: the relation ideal
    I_i = I_{i-1} (x) V + V^(i-2) (x) R in canonical RREF, its quotient
    projection proj[i] and section sect[i], and K_i = (K_{i-1} (x) V) meet
    (V^(i-2) (x) R) as a kernel on V^(x)i, held by its RREF basis."""

    def __init__(self, pres, N):
        n = self.n = pres.n
        R = pres.relations
        rel = [Subspace.zero(n ** i) for i in range(min(N, 1) + 1)]
        K = [full_space(n ** i) for i in range(min(N, 1) + 1)]
        q_R, _ = quotient(n * n, R)
        for i in range(2, N + 1):
            rows = vstack([kron(rel[i - 1].basis, Mat.identity(n)),
                           kron(Mat.identity(n ** (i - 2)), R.basis)])
            rel.append(Subspace.from_rows(n ** i, rows))
            emb = kron(K[i - 1].basis, Mat.identity(n))
            coeffs = kernel(kron(Mat.identity(n ** (i - 2)), q_R)
                            @ emb.transpose())
            K.append(Subspace.from_rows(n ** i, coeffs.basis @ emb))
        self.proj, self.sect = map(list, zip(*(quotient(n ** i, rel[i])
                                               for i in range(N + 1))))
        self.K = K

    def mult(self, i, j):
        return self.proj[i + j] @ kron(self.sect[i], self.sect[j])

    def restrict(self, i, T):
        """T on V^(x)i restricted to K_i, in its coordinates; None if K_i
        is not invariant."""
        return self.K[i].coordinates(T @ self.K[i].basis.transpose())

    def contract(self, i, theta, r, first):
        """K_i -> K_{i-r} contracting the first (or last) r letters against
        theta, letters paired in reverse order."""
        if r > i:
            return Mat.zeros(0, self.K[i].dim)
        rev = reversal_perm(self.n, r)
        row = Mat(1, self.n ** r, [[theta[rev[w]]
                                    for w in range(self.n ** r)]])
        rest = Mat.identity(self.n ** (i - r))
        T = kron(row, rest) if first else kron(rest, row)
        coords = self.K[i - r].coordinates(T @ self.K[i].basis.transpose())
        assert coords is not None
        return coords

    def h_action(self, provider, i):
        return [self.proj[i] @ T @ self.sect[i]
                for T in provider.tensor_mats(i)]

    def k_action(self, provider, r):
        return [self.restrict(r, T) for T in provider.tensor_mats(r)]

    def pairing(self, other, i):
        """The order-reversing pairing of the normal words of degree i
        (rows) with the Koszul basis of the other side (columns)."""
        rev = reversal_perm(self.n, i)
        sect = self.sect[i].tolist()
        return Mat.from_rows(
            [[sum(krow[u] * sect[rev[u]][q]
                  for u in range(self.n ** i) if krow[u])
              for krow in other.K[i].basis.tolist()]
             for q in range(self.sect[i].cols)], other.K[i].dim)


def _non_koszul_presentation():
    # k<x1,x2>/(x1^2 + x2x1 + x2^2, x1x2), first inexact at degree 4
    return QuadraticPresentation.from_json_obj(
        {"generators": ["x1", "x2"], "relations": [
            {"terms": [{"c": "1", "m": ["x1", "x1"]},
                       {"c": "1", "m": ["x2", "x1"]},
                       {"c": "1", "m": ["x2", "x2"]}]},
            {"terms": [{"c": "1", "m": ["x1", "x2"]}]}]})


def test_grow_matches_ambient_ideal():
    # every degree-wise object of grow against the ambient oracle: H, K,
    # both inclusions, products, and one- and two-letter contractions
    fixtures = [QuadraticPresentation.from_json_obj(
        fixture_bundle(name)["presentation"]) for name in FIXTURE_NAMES]
    rng = random.Random(4)
    cases = ([(p, 4) for p in fixtures]
             + [(quadratic_dual(p), 4) for p in fixtures]
             + [(_random_presentation(rng), 4) for _ in range(30)]
             + [(_non_koszul_presentation(), 5)])
    for pres, N in cases:
        alg = grow(pres, N)
        amb = _Ambient(pres, N)
        n = alg.n
        assert alg.hdims() == [m.rows for m in amb.proj], pres
        assert alg.words == [[row.index(1) for row in s.transpose().tolist()]
                             for s in amb.sect], pres
        assert alg.kdims() == [k.dim for k in amb.K], pres
        for i in range(1, N + 1):
            right = kron(amb.K[i - 1].basis, Mat.identity(n))
            assert alg.incl_right(i).transpose() @ right == amb.K[i].basis
            left = kron(Mat.identity(n), amb.K[i - 1].basis)
            assert alg.incl_left(i).transpose() @ left == amb.K[i].basis
        for i in range(N + 1):
            for j in range(N + 1 - i):
                assert alg.mult(i, j) == amb.mult(i, j), (pres, i, j)
            for r, first in ((1, True), (1, False), (2, True), (2, False)):
                thetas = [_unit_vector(n ** r, w) for w in range(n ** r)]
                if r == 2:
                    thetas += pres.relations.basis.tolist()
                for theta in thetas:
                    got = (contract_left if first else contract_right)(
                        alg, i, theta, r)
                    assert got == amb.contract(i, theta, r, first), \
                        (pres, i, r, first)


def _fixture_actions():
    """(presentation, provider, N) for every fixture provider and its
    dual on the dual algebra, plus co-opposite actions on algebras whose
    normal words split differently at the first and at the last letter
    (the Lie one on sym_3; the Sweedler algebra on its two-dimensional
    module, where the leg order of the comultiplication shows)."""
    out = []
    for name, N in (("c2_sign_takiff", 5), ("sweedler_optional", 5),
                    ("sl2_adjoint_takiff", 6)):
        bundle = fixture_bundle(name)
        pres = QuadraticPresentation.from_json_obj(bundle["presentation"])
        provider, modules = action_bundle_from_json(bundle["action"])
        out.append((pres, provider, N))
        out.append((quadratic_dual(pres), dual_action(provider), N))
    out.append((sym_presentation(3), dual_action(sl2_provider()), 5))
    two = ActionProvider.from_bialgebra(sweedler_bialgebra(),
                                        sweedler_modules()["two_dim"])
    square = [presentation_from_relation_rows(["a", "b"], [row])
              for row in ([1, 0, 0, 0], [0, 0, 0, 1])]
    out += [(ext_presentation(2), two, 5), (square[1], two, 5),
            (sym_presentation(2), dual_action(two), 5),
            (square[0], dual_action(two), 5)]
    return out


def test_actions_and_pairings_match_ambient():
    # the actions on H_i and K_r, grown degree by degree, against the
    # projection (and restriction) of the ambient tensor-power action;
    # the pairings against the ambient order-reversing pairing
    for pres, provider, N in _fixture_actions():
        alg, amb = grow(pres, N), _Ambient(pres, N)
        for i in range(N + 1):
            assert provider.h_action(alg, i) == amb.h_action(provider, i), \
                (pres, provider.cop, i)
            assert provider.k_action(alg, i) == amb.k_action(provider, i), \
                (pres, provider.cop, i)
        if provider.cop:
            continue
        dual_pres = quadratic_dual(pres)
        dual, damb = grow(dual_pres, N), _Ambient(dual_pres, N)
        pairing = DualityPairing(alg, dual)
        for i in range(N + 1):
            assert pairing.g1(i) == amb.pairing(damb, i), (pres, i)
            assert pairing.g2(i) == damb.pairing(amb, i), (pres, i)


def test_k_action_names_the_degree_that_is_not_invariant():
    # the Casimir tensor 2 e(x)f + h(x)h + 2 f(x)e spans an sl2-stable
    # relation; one perturbed entry of the action of e (e |-> f) breaks
    # its stability, so K_2 = R, and on the dual side K!_2 inside
    # V* (x) V*, are no longer invariant
    casimir = presentation_from_relation_rows(
        ["e", "h", "f"], [[0, 0, 2, 0, 1, 0, 2, 0, 0]])
    assert validate_module_algebra(sl2_provider(), casimir) == (True, None)
    for cop in (False, True):
        provider = sl2_provider()
        provider.mats[0] = provider.mats[0] + Mat(3, 3, [[0, 0, 0],
                                                          [0, 0, 0],
                                                          [1, 0, 0]])
        pres = casimir
        if cop:
            provider, pres = dual_action(provider), quadratic_dual(pres)
        alg, amb = grow(pres, 3), _Ambient(pres, 3)
        assert amb.restrict(2, provider.tensor_mats(2)[0]) is None
        assert provider.k_action(alg, 1) == provider.mats
        with pytest.raises(ValueError, match="K_2 is not invariant"):
            provider.k_action(alg, 3)


def test_koszul_subspace_dims_sym():
    alg = grow(sym_presentation(3), 5)
    assert alg.kdims() == [comb(3, i) for i in range(6)]
    # the Koszul subspaces of the exterior algebra match symmetric powers
    alg2 = grow(ext_presentation(2), 5)
    assert alg2.kdims() == [i + 1 for i in range(6)]


def test_koszul_subspace_inclusions():
    for pres in (sym_presentation(2), ext_presentation(2),
                 dual_numbers_presentation(), free_presentation(2)):
        alg = grow(pres, 4)
        K = _Ambient(pres, 4).K
        for i in range(1, 5):
            # both inclusion coordinate systems must reproduce the basis
            right = kron(K[i - 1].basis, Mat.identity(alg.n))
            assert alg.incl_right(i).transpose() @ right == K[i].basis
            left = kron(Mat.identity(alg.n), K[i - 1].basis)
            assert alg.incl_left(i).transpose() @ left == K[i].basis


def test_quadratic_dual_sym_is_ext():
    for n in (1, 2, 3):
        dual = quadratic_dual(sym_presentation(n))
        dalg = grow(dual, min(n + 2, 5))
        expect = [comb(n, i) for i in range(dalg.N + 1)]
        assert dalg.hdims() == expect


def test_quadratic_dual_free_and_full():
    dual = quadratic_dual(free_presentation(2))
    assert dual.relations.dim == 4
    assert grow(dual, 3).hdims() == [1, 2, 0, 0]


def test_double_dual_recovers_relations():
    for pres in (sym_presentation(2), sym_presentation(3), ext_presentation(2),
                 free_presentation(2), dual_numbers_presentation()):
        dd = quadratic_dual(quadratic_dual(pres))
        assert dd.relations == pres.relations


def test_dim_K_equals_dim_dual_H():
    for pres in (sym_presentation(2), sym_presentation(3), ext_presentation(2),
                 free_presentation(2), dual_numbers_presentation()):
        alg = grow(pres, 5)
        dual = grow(quadratic_dual(pres), 5)
        assert alg.kdims() == dual.hdims()


def test_right_koszul_complex_sym3():
    alg = grow(sym_presentation(3), 6)
    cx = koszul_complex(alg, "right")
    ok, _ = check_d_squared(cx)
    assert ok
    for s in range(7):
        for i in range(s + 1):
            assert cx.dim(-i, s) == comb(3, i) * comb(3 + (s - i) - 1, s - i)
    rep = homology(cx)
    assert nonzero_valid_cells(rep) == [(0, 0)]
    assert rep.dim(0, 0) == 1


def test_left_koszul_complex():
    for pres in (sym_presentation(2), ext_presentation(2),
                 dual_numbers_presentation()):
        cx = koszul_complex(grow(pres, 5), "left")
        assert check_d_squared(cx)[0]
        rep = homology(cx)
        assert nonzero_valid_cells(rep) == [(0, 0)]


def test_koszul_complex_dual_numbers_dims():
    alg = grow(dual_numbers_presentation(), 5)
    cx = koszul_complex(alg, "right")
    for s in range(6):
        for i in range(s + 1):
            expect = 1 if i in (s, s - 1) else 0
            assert cx.dim(-i, s) == expect


def test_m_bar_matches_kron_expression():
    # m_bar is assembled entry by entry; the two-kron products are its
    # definition
    for name in FIXTURE_NAMES:
        pres = QuadraticPresentation.from_json_obj(
            fixture_bundle(name)["presentation"])
        for p in (pres, quadratic_dual(pres)):
            alg = grow(p, 4)
            for j in range(1, 5):
                ik = Mat.identity(alg.kdim(j - 1))
                for i in range(4):
                    ih = Mat.identity(alg.hdim(i))
                    assert m_bar(alg, j, i, "right") == (
                        kron(ik, alg.mult(1, i))
                        @ kron(alg.incl_right(j), ih)), (name, j, i)
                    assert m_bar(alg, j, i, "left") == (
                        kron(alg.mult(i, 1), ik)
                        @ kron(ih, alg.incl_left(j))), (name, j, i)


def _associativity_failure(alg):
    """The first (i, j), i >= 2, at which mult(i, j) o (mult(1, i - 1) (x)
    id) differs from mult(1, i - 1 + j) o (id (x) mult(i - 1, j)) on
    V (x) H_(i-1) (x) H_j; None when the grown products are associative.
    The products at i = 1 or j = 0 meet the identity trivially."""
    for i in range(2, alg.N + 1):
        for j in range(alg.N + 1 - i):
            lhs = alg.mult(i, j) @ kron(alg.mult(1, i - 1), alg.hdim(j))
            rhs = alg.mult(1, i - 1 + j) @ kron(alg.n, alg.mult(i - 1, j))
            if lhs != rhs:
                return i, j
    return None


def test_grown_products_are_associative():
    for name in FIXTURE_NAMES:
        pres = QuadraticPresentation.from_json_obj(
            fixture_bundle(name)["presentation"])
        for p in (pres, quadratic_dual(pres)):
            assert _associativity_failure(grow(p, 6)) is None, (name, p)


@pytest.mark.parametrize("pres,entries", [(sym_presentation(3), 180),
                                          (ext_presentation(3), 9)],
                         ids=["sym_3", "ext_3"])
def test_associativity_catches_every_one_entry_fault(pres, entries):
    # every product is memoized first: a product not yet built would be
    # grown from the faulty mult(2, 1), and the fault would hide
    alg = grow(pres, 3)
    for i in range(4):
        for j in range(4 - i):
            alg.mult(i, j)
    good = alg.mult(2, 1)
    caught = 0
    for r in range(good.rows):
        for c in range(good.cols):
            alg._mult[(2, 1)] = good + Mat.from_entries(
                good.rows, good.cols, [(r, c, F1)])
            caught += _associativity_failure(alg) == (2, 1)
    assert caught == good.rows * good.cols == entries


def test_generator_mult_is_the_kron_product():
    # multiplication by one generator is a column slice of mult; the
    # product with a standard basis column is its definition
    for name in FIXTURE_NAMES:
        pres = QuadraticPresentation.from_json_obj(
            fixture_bundle(name)["presentation"])
        for p in (pres, quadratic_dual(pres)):
            alg = grow(p, 4)
            n = alg.n
            for i in range(4):
                ih = Mat.identity(alg.hdim(i))
                for a in range(n):
                    e = Mat(n, 1, [[x] for x in _unit_vector(n, a)])
                    assert alg.generator_mult(i, a, "left") == (
                        alg.mult(1, i) @ kron(e, ih)), (name, i, a)
                    assert alg.generator_mult(i, a, "right") == (
                        alg.mult(i, 1) @ kron(ih, e)), (name, i, a)


def test_bad_arguments_raise_value_errors():
    # explicit errors, not asserts: the same under python -O
    pres = sym_presentation(2)
    alg = grow(pres, 3)
    with pytest.raises(ValueError, match="side must be"):
        m_bar(alg, 1, 0, "up")
    with pytest.raises(ValueError, match="dimension 3"):
        QuadraticPresentation(["x", "y"], Subspace.zero(3))


def test_singular_pairing_names_the_pairing_and_degree(monkeypatch):
    pres = sym_presentation(3)
    alg, dual = grow(pres, 3), grow(quadratic_dual(pres), 3)
    for which, koszul in ((1, dual), (2, alg)):
        # K_2 included with its last column lost
        incl_left = koszul.incl_left
        m = incl_left(2)
        lossy = Mat.from_entries(m.rows, m.cols, [
            (r, c, x) for r, c, x in m.entries() if c != m.cols - 1])
        with monkeypatch.context() as patch:
            patch.setattr(koszul, "incl_left",
                          lambda i: lossy if i == 2 else incl_left(i))
            with pytest.raises(ValueError,
                               match=r"pairing g%d\(2\) is singular" % which):
                DualityPairing(alg, dual)


def test_pairing_that_is_not_square_names_the_pairing_and_degree(
        monkeypatch):
    # K!_2 included with its last column dropped: g1(2) pairs the six
    # normal words of degree 2 with five Koszul vectors
    pres = sym_presentation(3)
    alg, dual = grow(pres, 3), grow(quadratic_dual(pres), 3)
    incl_left = dual.incl_left
    m = incl_left(2)
    narrow = Mat.from_entries(m.rows, m.cols - 1, [
        (r, c, x) for r, c, x in m.entries() if c != m.cols - 1])
    monkeypatch.setattr(dual, "incl_left",
                        lambda i: narrow if i == 2 else incl_left(i))
    with pytest.raises(ValueError,
                       match=r"^pairing g1\(2\) is 6 x 5, not square$"):
        DualityPairing(alg, dual)


def test_koszulity_check():
    assert koszulity_check(grow(sym_presentation(3), 6))["koszul_up_to_N"]
    assert koszulity_check(grow(ext_presentation(2), 6))["koszul_up_to_N"]
    assert koszulity_check(
        grow(dual_numbers_presentation(), 6))["koszul_up_to_N"]
    assert koszulity_check(grow(free_presentation(2), 5))["koszul_up_to_N"]


def test_euler_identity():
    for pres, N in ((sym_presentation(3), 6), (dual_numbers_presentation(), 6),
                    (free_presentation(2), 5), (ext_presentation(2), 5)):
        assert euler_identity(grow(pres, N), grow(quadratic_dual(pres), N))


def test_contract_unit_and_overflow():
    alg = grow(sym_presentation(2), 4)
    for i in range(5):
        m = contract_right(alg, i, [F1], 0)
        assert m == Mat.identity(alg.kdim(i))
    assert contract_right(alg, 1, [F0, F0, F1, F0], 2).rows == 0


def test_contract_sign_sym2():
    # K_2 of the polynomial algebra is spanned by x1(x)x2 - x2(x)x1;
    # contracting by the first dual generator must yield -x2 (the dual
    # letter pairs against the last tensor factor).
    alg = grow(sym_presentation(2), 3)
    K2 = _Ambient(sym_presentation(2), 3).K[2]
    assert alg.incl_right(2).transpose() @ Mat.identity(4) == K2.basis
    gen = K2.basis.transpose()
    assert gen == Mat(4, 1, [[F0], [F1], [-F1], [F0]])
    theta = _unit_vector(2, 0)  # first dual generator
    m = contract_right(alg, 2, theta, 1)
    out = m @ K2.coordinates(gen)
    # coordinates in K_1 = V: expect -x2
    assert out == Mat(2, 1, [[F0], [-F1]])


def test_contractions_factor_through_dual():
    for pres in (sym_presentation(2), ext_presentation(2),
                 dual_numbers_presentation(), free_presentation(2)):
        alg = grow(pres, 4)
        dual = grow(quadratic_dual(pres), 4)
        ok, where = validate_contractions(alg, dual)
        assert ok, where


def test_contract_left_matches_right_mirror():
    alg = grow(sym_presentation(2), 4)
    dual = grow(quadratic_dual(sym_presentation(2)), 4)
    # the unit acts as identity on the dual Koszul subspaces as well
    for i in range(5):
        assert contract_left(dual, i, [F1], 0) == Mat.identity(dual.kdim(i))


def test_psi_bar_degenerate_edges():
    alg = grow(sym_presentation(2), 4)
    dual = grow(quadratic_dual(sym_presentation(2)), 4)
    pairing = DualityPairing(alg, dual)
    for i in range(5):
        m = pairing.psi_bar(i, 0)
        assert m.rows == m.cols == alg.hdim(i)
        m = pairing.psi_bar(0, i)
        assert m.rows == m.cols == alg.kdim(i)


def test_psi_intertwiner_sym2_ext2():
    # sym_n and ext_n for n = 2, 3, 4, in both directions; on the exterior
    # algebras of 3 and 4 generators (ext_n, and the dual of sym_n) g2 is
    # not symmetric, so its orientation in psi_bar shows
    for n in (2, 3, 4):
        for pres in (sym_presentation(n), ext_presentation(n)):
            for a, b in ((pres, quadratic_dual(pres)),
                         (quadratic_dual(pres), pres)):
                pairing = DualityPairing(grow(a, 5), grow(b, 5))
                ok, where = verify_psi_intertwiner(pairing)
                assert ok, (n, a.gen_names, where)


def test_presentation_json_roundtrip():
    for pres in (sym_presentation(2), ext_presentation(3),
                 free_presentation(2), dual_numbers_presentation()):
        obj = pres.to_json_obj()
        back = QuadraticPresentation.from_json_obj(obj)
        assert back == pres


def test_presentation_json_errors():
    with pytest.raises(ValueError):
        QuadraticPresentation.from_json_obj(
            {"generators": ["x", "x"], "relations": []})
    with pytest.raises(ValueError):
        QuadraticPresentation.from_json_obj(
            {"generators": ["x"],
             "relations": [{"terms": [{"c": "1", "m": ["x", "y"]}]}]})


def test_degenerate_zero_generators():
    pres = QuadraticPresentation([], Subspace.zero(0))
    alg = grow(pres, 3)
    assert alg.hdims() == [1, 0, 0, 0]
    assert alg.kdims() == [1, 0, 0, 0]
    assert koszulity_check(alg)["koszul_up_to_N"]

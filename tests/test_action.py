from fractions import Fraction

import pytest

from koszulkit.action import (
    ActionProvider, Bialgebra, LieAction, action_bundle_from_json,
    dual_action, smash_ok, tensor_action, trivial_bialgebra,
    trivial_provider, validate_action_multiplicative, validate_bialgebra,
    validate_left_modules, validate_lie, validate_module_algebra,
)
from koszulkit.duality import P0
from koszulkit.exactlin import F0, F1, Mat, Subspace, kron
from koszulkit.fixtures import (
    c2_group_algebra, c2_modules, c2_sign_provider, dual_numbers_presentation,
    fixture_bundle, sl2_lie_action, sl2_provider, sweedler_bialgebra,
    sweedler_modules, sweedler_provider,
)
from koszulkit.quadratic import (
    QuadraticPresentation, ext_presentation, grow, quadratic_dual,
    reversal_perm, sym_presentation,
)
from takiff_oracle import (
    TakiffLie, takiff, takiff_graded_dims, validate_jacobi,
)


def test_validate_bialgebras():
    assert validate_bialgebra(trivial_bialgebra()) == (True, None)
    assert validate_bialgebra(c2_group_algebra()) == (True, None)
    assert validate_bialgebra(sweedler_bialgebra()) == (True, None)


def test_validate_bialgebra_failure():
    b = c2_group_algebra()
    bad = Bialgebra(2, b.mult, b.unit, b.comult, Mat(1, 2, [[1, 0]]),
                    b.names)
    ok, axiom = validate_bialgebra(bad)
    assert not ok and axiom == "counit law"


def _edited_bialgebra(b, field, i, j, value):
    """b with entry (i, j) of one structure map set to value; the unit and
    the counit are read as one-row matrices."""
    maps = {"mult": b.mult, "unit": Mat(1, b.dim, [b.unit]),
            "comult": b.comult, "counit": Mat(1, b.dim, [b.counit])}
    m = maps[field]
    maps[field] = m + Mat.from_entries(m.rows, m.cols,
                                       [(i, j, value - m.row(i)[j])])
    return Bialgebra(b.dim, maps["mult"], maps["unit"].row(0),
                     maps["comult"], maps["counit"], b.names)


@pytest.mark.parametrize("mk,field,i,j,value,axiom", [
    # 1 * 1 = 0 (C2: basis 1, g; the columns of mult are 11, 1g, g1, gg)
    (c2_group_algebra, "mult", 0, 0, 0, "associativity"),
    # the unit is given as 1 + g
    (c2_group_algebra, "unit", 0, 1, 1, "unit law"),
    # Delta(g) = g (x) g + 1 (x) g
    (c2_group_algebra, "comult", 1, 1, 1, "coassociativity"),
    # g * g = 2: k[g]/(g^2 - 2) is a unital algebra, but Delta(g g) =
    # 2 (1 (x) 1) while Delta(g) Delta(g) = 4 (1 (x) 1)
    (c2_group_algebra, "mult", 0, 3, 2, "comultiplication not "
     "multiplicative"),
    # g * g = 0: Delta(g) Delta(g) = 0 too, but eps(g g) = 0 != eps(g)^2
    (c2_group_algebra, "mult", 0, 3, 0, "counit not multiplicative"),
    # Sweedler's x x = 1 (basis 1, g, x, gx; column 10 is x x)
    (sweedler_bialgebra, "mult", 0, 10, 1, "associativity"),
], ids=["assoc", "unit", "coassoc", "comult-mult", "counit-mult",
        "sweedler-assoc"])
def test_each_bialgebra_axiom_fails_on_its_own(mk, field, i, j, value,
                                               axiom):
    # one entry of a structure map is off, and the first axiom that
    # validate_bialgebra names is the one that entry breaks
    assert validate_bialgebra(mk()) == (True, None)
    assert validate_bialgebra(_edited_bialgebra(mk(), field, i, j, value)) \
        == (False, axiom)


def test_comultiplication_of_the_unit_fails_on_its_own():
    # C2 in its idempotent basis p = (1 + g)/2, q = (1 - g)/2: p p = p,
    # q q = q, unit p + q, Delta(p) = p (x) p + q (x) q, Delta(q) =
    # p (x) q + q (x) p, eps = (1, 0).  Without the term q (x) q of
    # Delta(p), Delta is still coassociative, counital and multiplicative,
    # but Delta(1) = 1 (x) 1 - q (x) q.  No edit of one entry of C2 or
    # Sweedler in the fixtures' bases, to -2, -1, 0, 1, 2 or 1/2, reaches
    # this axiom: an earlier one always fails first
    c2 = Bialgebra(2, Mat(2, 4, [[1, 0, 0, 0], [0, 0, 0, 1]]), [1, 1],
                   Mat(4, 2, [[1, 0], [0, 1], [0, 1], [1, 0]]),
                   Mat(1, 2, [[1, 0]]), ["p", "q"])
    assert validate_bialgebra(c2) == (True, None)
    assert validate_bialgebra(_edited_bialgebra(c2, "comult", 3, 0, 0)) \
        == (False, "comultiplication of the unit")


def test_counit_of_the_unit_fails_only_on_the_zero_algebra():
    # once the earlier axioms hold, eps(1) is 0 or 1 (eps is
    # multiplicative), and 0 would make eps zero (eps(x) = eps(1) eps(x)),
    # against the counit law, unless the algebra is zero: only there,
    # where 1 = 0, can this axiom fail
    zero = Bialgebra(0, Mat(0, 0, []), [], Mat(0, 0, []), Mat(1, 0, [[]]))
    assert validate_bialgebra(zero) == (False, "counit of the unit")


def _idempotent_bialgebra():
    """Basis 1, e with e * e = e, e group-like: a bialgebra with no
    antipode, as S(e) e = 1 has no solution."""
    mult = Mat(2, 4, [[1, 0, 0, 0], [0, 1, 1, 1]])
    comult = Mat(4, 2, [[1, 0], [0, 0], [0, 0], [0, 1]])
    return Bialgebra(2, mult, [1, 0], comult, Mat(1, 2, [[1, 1]]),
                     ["1", "e"])


def test_inverse_antipodes():
    # Sweedler: S(g) = g, S(x) = -gx, S(gx) = x, so S^-1 maps 1, g, x, gx
    # to 1, g, gx, -x, and S has order 4
    s_inv = sweedler_bialgebra().inverse_antipode
    assert s_inv == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                     [0, 0, -1, 0]]
    m = Mat(4, 4, s_inv).transpose()
    assert m @ m != Mat.identity(4)
    assert m @ m @ m @ m == Mat.identity(4)
    assert c2_group_algebra().inverse_antipode == Mat.identity(2).tolist()
    assert trivial_bialgebra().inverse_antipode == [[1]]
    assert sl2_lie_action().inverse_antipode == (
        -Mat.identity(3)).tolist()


def test_bialgebra_without_antipode():
    b = _idempotent_bialgebra()
    assert validate_bialgebra(b) == (True, None)
    with pytest.raises(ValueError, match="no antipode"):
        b.inverse_antipode
    # a right action needs S^-1 to induce; the dual (left) action does not
    provider = ActionProvider(b, [Mat.identity(1), Mat.zeros(1, 1)])
    alg = grow(sym_presentation(1), 3)
    mats = [Mat.identity(1), Mat.identity(1)]
    with pytest.raises(ValueError, match="antipode"):
        P0(provider, alg, mats)
    dual_alg = grow(quadratic_dual(sym_presentation(1)), 3)
    assert P0(dual_action(provider), dual_alg, mats).act0_mats(1) == [
        Mat.identity(1), Mat.zeros(1, 1)]


def test_validate_lie_sl2():
    assert validate_lie(sl2_lie_action()) == (True, None)


def test_validate_lie_antisymmetry_failure():
    # [h, e] = 3e while [e, h] = -2e: the first pair that breaks
    # antisymmetry is (e, h)
    lie = sl2_lie_action()
    brackets = dict(lie.brackets)
    brackets[(1, 0)] = [3, 0, 0]
    bad = LieAction(lie.names, brackets, lie.rho)
    assert validate_lie(bad) == (False, ("antisymmetry", 0, 1))


def test_validate_lie_failure():
    lie = sl2_lie_action()
    bad = LieAction(lie.names, {(0, 2): [0, 1, 0], (2, 0): [0, -1, 0],
                                (1, 0): [2, 0, 0], (0, 1): [-2, 0, 0],
                                (1, 2): [0, 0, 2], (2, 1): [0, 0, -2]},
                    lie.rho)
    ok, _ = validate_lie(bad)
    assert not ok


def test_tensor_mats_basics():
    p = c2_sign_provider()
    # the unit 1 acts as the identity; the counit acts in power zero
    assert p.tensor_mats(3)[0] == Mat.identity(1)
    assert p.tensor_mats(0)[1] == Mat.identity(1)
    # group-like g acts by (-1)^r
    for r in range(4):
        want = Mat.identity(1).scale(Fraction((-1) ** r))
        assert p.tensor_mats(r)[1] == want


def test_tensor_mats_lie_leibniz():
    p = sl2_provider()
    t1 = p.tensor_mats(1)[0]
    for r in (2, 3, 4):
        want = Mat.zeros(3 ** r, 3 ** r)
        for pos in range(r):
            want = want + kron(kron(Mat.identity(3 ** pos), t1),
                               Mat.identity(3 ** (r - 1 - pos)))
        assert p.tensor_mats(r)[0] == want


def test_tensor_mats_coassociative():
    # tensor powers split the leftmost leg; by coassociativity, splitting
    # the rightmost leg gives the same matrices.  Sweedler's algebra on a
    # two-dimensional space is the case where the leg order shows.
    two_dim = ActionProvider(sweedler_bialgebra(),
                             sweedler_modules()["two_dim"])
    for base in (trivial_provider(2), c2_sign_provider(),
                 sweedler_provider(), two_dim):
        for p in (base, dual_action(base)):
            for r in range(2, 5):
                below = p.tensor_mats(r - 1)
                if p.cop:
                    other = tensor_action(p, below, p.mats, reverse=True)
                else:
                    other = tensor_action(p, p.mats, below)
                assert p.tensor_mats(r) == other


def test_action_multiplicative():
    for provider in (c2_sign_provider(), sweedler_provider(), sl2_provider()):
        for r in (1, 2, 3):
            assert validate_action_multiplicative(provider, r) == (True, None)
    for provider in (dual_action(c2_sign_provider()),
                     dual_action(sweedler_provider()),
                     dual_action(sl2_provider())):
        for r in (1, 2):
            assert validate_action_multiplicative(provider, r) == (True, None)


def test_module_algebra_validation():
    assert validate_module_algebra(
        c2_sign_provider(), sym_presentation(1)) == (True, None)
    assert validate_module_algebra(
        sl2_provider(), sym_presentation(3)) == (True, None)
    assert validate_module_algebra(
        sweedler_provider(), dual_numbers_presentation()) == (True, None)
    # swap action on two generators stabilizes the commutator relation ...
    swap = ActionProvider(c2_group_algebra(),
                          [Mat.identity(2), Mat(2, 2, [[0, 1], [1, 0]])])
    assert validate_module_algebra(swap, sym_presentation(2)) == (True, None)
    # ... but not the relation spanned by the single word x1 (x) x2
    lopsided = QuadraticPresentation(
        ["x1", "x2"], Subspace.from_rows(4, [[F0, F1, F0, F0]]))
    ok, _ = validate_module_algebra(swap, lopsided)
    assert not ok


def test_module_algebra_validation_rejects_another_dimension():
    with pytest.raises(ValueError,
                       match="the action is on dimension 3, not 2"):
        validate_module_algebra(trivial_provider(3), sym_presentation(2))


def test_k_action_rejects_a_subspace_that_is_not_invariant():
    # the swap does not stabilize K_2 = R = <x1 (x) x2>; the actions are
    # grown without validate_module_algebra, which would report it first
    swap = ActionProvider(c2_group_algebra(),
                          [Mat.identity(2), Mat(2, 2, [[0, 1], [1, 0]])])
    alg = grow(QuadraticPresentation(
        ["x1", "x2"], Subspace.from_rows(4, [[F0, F1, F0, F0]])), 3)
    assert len(swap.k_action(alg, 1)) == 2
    with pytest.raises(ValueError, match="subspace K_2 is not invariant "
                       "under the action"):
        swap.k_action(alg, 2)


def test_dual_action_matrices():
    p = sl2_provider()
    d = dual_action(p)
    lie = p.base
    for a in range(3):
        assert d.mats[a] == lie.rho[a].scale(-1).transpose()
    dd = dual_action(d)
    assert dd is p and dd.mats == p.mats and not dd.cop


def test_side_follows_cop():
    # a source's action is on the right (cop unset), its dual's on the
    # left; the side is no argument of its own
    for p in (sl2_provider(), c2_sign_provider()):
        assert not p.cop and dual_action(p).cop
        assert dual_action(dual_action(p)).cop == p.cop
        with pytest.raises(TypeError):
            ActionProvider(p.base, p.mats, side="left")
        with pytest.raises(TypeError):
            ActionProvider(p.base, p.mats, "right")


def test_dual_action_pairing_compatibility():
    # the dual tensor action is the transport of the original action
    # through the order-reversing pairing
    from koszulkit.exactlin import perm_matrix
    for provider in (c2_sign_provider(), sweedler_provider()):
        dprov = dual_action(provider)
        n = provider.space_dim
        d = provider.base.dim
        for r in (1, 2, 3):
            rev = perm_matrix(reversal_perm(n, r))
            for b in range(d):
                T = provider.tensor_mats(r)[b]
                Tdual = dprov.tensor_mats(r)[b]
                assert Tdual == rev @ T.transpose() @ rev


def test_dual_action_preserves_dual_relations():
    for provider, pres in ((c2_sign_provider(), sym_presentation(1)),
                           (sl2_provider(), sym_presentation(3)),
                           (sweedler_provider(), dual_numbers_presentation())):
        dprov = dual_action(provider)
        dual_pres = quadratic_dual(pres)
        assert validate_module_algebra(dprov, dual_pres) == (True, None)


def test_smash_degenerate_cases():
    # H truncated at zero: only the laws on H_0 (the counit) are left
    alg0 = grow(sym_presentation(1), 0)
    assert smash_ok(c2_sign_provider(), alg0) == (True, None)
    # trivial acting algebra: the smash is H itself
    alg = grow(sym_presentation(2), 3)
    triv = ActionProvider(trivial_bialgebra(), [Mat.identity(2)])
    assert smash_ok(triv, alg) == (True, None)


def test_smash_left_side_on_dual():
    # the dual smash: dual algebra as a left module algebra over the
    # co-opposite of the acting bialgebra
    for provider, pres in ((c2_sign_provider(), sym_presentation(1)),
                           (sweedler_provider(), dual_numbers_presentation())):
        dual_alg = grow(quadratic_dual(pres), 4)
        assert smash_ok(dual_action(provider), dual_alg) == (True, None)


def test_smash_lie_virtual():
    alg = grow(sym_presentation(3), 3)
    assert smash_ok(sl2_provider(), alg) == (True, None)
    dual_alg = grow(quadratic_dual(sym_presentation(3)), 3)
    assert smash_ok(dual_action(sl2_provider()), dual_alg) == (True, None)


def test_smash_rejects_bad_action():
    # the swap of x1 and x2 moves the relation x1 x2 to x2 x1: the
    # relations escape, so g acting on H_2 through the quotient is no
    # longer an involution, and the law g g = 1 breaks there
    bad = ActionProvider(
        c2_group_algebra(), [Mat.identity(2), Mat(2, 2, [[0, 1], [1, 0]])])
    lopsided = QuadraticPresentation(
        ["x1", "x2"], Subspace.from_rows(4, [[F0, F1, F0, F0]]))
    assert validate_module_algebra(bad, lopsided) == (
        False, ("relation escapes", "g"))
    alg = grow(lopsided, 3)
    assert smash_ok(bad, alg) == (False, ("law", 1, 1, 2))


def test_smash_leibniz_failure():
    # mult(1, 1) of the algebra perturbed after the actions on H are grown:
    # every law still holds, and the first basis element no longer acts
    # on products of degree 1 through its legs
    provider = sl2_provider()
    alg = grow(sym_presentation(3), 3)
    provider.h_action(alg, 3)
    m = alg.mult(1, 1)
    alg._mult[(1, 1)] = m + Mat.from_entries(m.rows, m.cols, [(0, 0, F1)])
    assert smash_ok(provider, alg) == (False, ("leibniz", 0, 1, 1))


_SMASH_CASES = {
    "sl2/sym_3": (sl2_provider, lambda: sym_presentation(3)),
    "sl2/ext_3": (sl2_provider, lambda: ext_presentation(3)),
    "c2/sym_1": (c2_sign_provider, lambda: sym_presentation(1)),
    "sweedler": (sweedler_provider, dual_numbers_presentation),
}


def _smash_input(case, side, N):
    """The provider and the algebra grown to N of a case, or on the dual
    side, its dual action and the quadratic dual."""
    mkprov, mkpres = _SMASH_CASES[case]
    provider, pres = mkprov(), mkpres()
    if side == "dual":
        provider, pres = dual_action(provider), quadratic_dual(pres)
    return provider, grow(pres, N)


@pytest.mark.parametrize("case", ["sl2/sym_3", "c2/sym_1", "sweedler"])
@pytest.mark.parametrize("side", ["plain", "dual"])
def test_passing_smash_reads_2N_plus_3_cells(monkeypatch, case, side):
    # a pass reads the laws on H_0 and H_1 and the Leibniz rows 0 and 1:
    # 2N + 3 cells for N >= 1, 2 at N = 0, not (N + 1)(N + 4)/2
    import koszulkit.action as action
    cells = []

    def counted(kind, check):
        def wrapper(*args):
            cells.append(kind)
            return check(*args)
        return wrapper

    monkeypatch.setattr(action, "_laws_ok", counted("law", action._laws_ok))
    monkeypatch.setattr(action, "intertwines",
                        counted("leibniz", action.intertwines))
    for N in range(5):
        provider, alg = _smash_input(case, side, N)
        del cells[:]
        assert smash_ok(provider, alg) == (True, None)
        assert len(cells) == (2 * N + 3 if N else 2)
        assert cells.count("law") == min(N, 1) + 1


@pytest.mark.parametrize("case,side,N,b,where", [
    ("sl2/sym_3", "plain", 2, 2, ("law", 0, 2, 2)),
    ("sl2/sym_3", "plain", 3, 2, ("law", 0, 2, 3)),
    ("sl2/sym_3", "plain", 5, 2, ("law", 0, 2, 5)),
    ("sl2/sym_3", "dual", 2, 2, ("law", 0, 2, 2)),
    ("sl2/sym_3", "dual", 3, 2, ("law", 1, 2, 3)),
    ("sl2/ext_3", "plain", 2, 2, ("law", 0, 2, 2)),
    ("sl2/ext_3", "plain", 3, 2, ("law", 1, 2, 3)),
    ("sl2/ext_3", "dual", 2, 2, ("law", 0, 2, 2)),
    ("sl2/ext_3", "dual", 3, 2, ("law", 0, 2, 3)),
    ("sl2/ext_3", "dual", 5, 2, ("law", 0, 2, 5)),
    ("sl2/ext_3", "dual", 5, 0, ("law", 0, 1, 5)),
    ("c2/sym_1", "plain", 2, 1, ("law", 1, 1, 2)),
    ("c2/sym_1", "plain", 3, 1, ("law", 1, 1, 3)),
    ("c2/sym_1", "plain", 5, 1, ("law", 1, 1, 5)),
    ("c2/sym_1", "plain", 5, 0, ("law", "unit", 5)),
])
def test_a_fault_at_the_top_degree_is_caught(case, side, N, b, where):
    # one entry of the memoized action on H_N is off: the short scan sees
    # it at the Leibniz cell (1, N - 1), and the full scan then reports
    # the first failing cell, a law on H_N.  H_N is zero, so has no entry,
    # for Lambda(V) (the plain side of ext_3 and the dual side of sym_3)
    # at N = 5 and for the dual k[x]/(x^2) of sym_1 from N = 2
    provider, alg = _smash_input(case, side, N)
    mats = provider.h_action(alg, N)
    mats[b] = _bump(mats[b], 0, 0)
    assert smash_ok(provider, alg) == (False, where)


def test_actions_in_degrees_zero_and_one_are_copies():
    # editing the list that h_action, k_action or tensor_mats returns in
    # degree 0 or 1 leaves the provider's own matrices, and a dual made
    # afterwards, as they were
    provider = sl2_provider()
    alg = grow(sym_presentation(3), 2)
    mats, transposed = list(provider.mats), [m.transpose()
                                             for m in provider.mats]
    powers = [list(provider.tensor_mats(r)) for r in (0, 1)]
    for grown in (provider.h_action, provider.k_action):
        for r in (0, 1):
            got = grown(alg, r)
            got[0] = _bump(got[0], 0, 0)
    assert [provider.tensor_mats(r) for r in (0, 1)] == powers
    for r in (0, 1):
        got = provider.tensor_mats(r)
        got[0] = _bump(got[0], 0, 0)
    assert provider.mats == mats
    assert dual_action(provider).mats == transposed


def test_takiff_even_and_super():
    lie = sl2_lie_action()
    t_even = takiff(lie, "even")
    assert t_even.dim == 6
    assert validate_jacobi(t_even) == (True, None)
    t_super = takiff(lie, "super")
    assert validate_jacobi(t_super) == (True, None)
    assert t_super.parities == [0, 0, 0, 1, 1, 1]
    # mixed bracket: [e, v_h] = ad(e) v_h = -2 v_e
    vec = t_even.bracket_basis(0, 4)
    assert vec == [F0] * 3 + [Fraction(-2), F0, F0]


def test_takiff_degenerate():
    lie = LieAction(["z"], {}, [Mat.zeros(0, 0)])
    t = takiff(lie, "even")
    assert t.dim == 1


def test_takiff_graded_dims():
    lie = sl2_lie_action()
    pbw, grown = takiff_graded_dims(takiff(lie, "super"), 3)
    assert pbw == grown == [1, 3, 3, 1]
    pbw, grown = takiff_graded_dims(takiff(lie, "even"), 3)
    assert pbw == grown == [1, 3, 6, 10]


def test_action_json_errors():
    with pytest.raises(ValueError):
        action_bundle_from_json({})
    obj = fixture_bundle("c2_sign_takiff")["action"]
    obj["action"] = obj["action"][:1]
    with pytest.raises(ValueError):
        action_bundle_from_json(obj)


@pytest.mark.parametrize("field,value,message", [
    ("dim", 10 ** 6, "bialgebra mult must be a 1000000 x 1000000 x 1000000 "
     "JSON array for dim 1000000"),
    ("unit", ["1"], "bialgebra unit must be a 2 JSON array for dim 2"),
    ("comult", [["1", "0"]] * 3, "bialgebra comult must be a 4 x 2 JSON "
     "array for dim 2"),
    ("counit", ["1", "1", "0"], "bialgebra counit must be a 2 JSON array "
     "for dim 2"),
    ("dim", 2.5, "bialgebra dim must be a JSON integer, got 2.5"),
], ids=["huge-dim", "unit", "comult", "counit", "float-dim"])
def test_bialgebra_tables_are_checked_against_dim_first(field, value,
                                                        message):
    # dim is an integer, and the shapes of the tables are read before
    # anything of size dim is made: the C2 tables with dim 10^6 fail at
    # once, in under 1 MB, and dim 2.5 is not read as 2
    import tracemalloc
    obj = dict(fixture_bundle("c2_sign_takiff")["action"]["bialgebra"],
               **{field: value})
    tracemalloc.start()
    try:
        with pytest.raises(Exception) as info:
            Bialgebra.from_json_obj(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert info.type is ValueError and str(info.value) == message


def test_validate_left_modules_failure():
    mods = c2_modules()
    mods["bad"] = [Mat.identity(1), Mat(1, 1, [[2]])]
    ok, where = validate_left_modules(c2_sign_provider(), mods)
    assert not ok and where[0] == "bad"


def _bump(m, i, j):
    """m with one added to its entry (i, j)."""
    return m + Mat.from_entries(m.rows, m.cols, [(i, j, F1)])


def _lie_inputs():
    """Lie inputs by name, valid and not: sl2 on its adjoint and standard
    representations, a one-dimensional Lie algebra on a nilpotent matrix
    and on V = 0, and sl2 with one entry of f on V, one bracket or one
    antisymmetric pair off."""
    sl2 = sl2_lie_action()
    std = [Mat.from_rows(m) for m in ([[0, 1], [0, 0]], [[1, 0], [0, -1]],
                                      [[0, 0], [1, 0]])]
    bad_f = [sl2.rho[0], sl2.rho[1], _bump(sl2.rho[2], 0, 2)]
    jacobi = dict(sl2.brackets)
    jacobi[(1, 0)], jacobi[(0, 1)] = [3, 0, 0], [-3, 0, 0]
    antisym = dict(sl2.brackets)
    antisym[(1, 0)] = [3, 0, 0]
    return {
        "sl2_adjoint": sl2,
        "sl2_standard": LieAction(sl2.names, sl2.brackets, std),
        "line_nilpotent": LieAction(["z"], {}, [Mat.from_rows([[0, 1],
                                                               [0, 0]])]),
        "line_on_zero": LieAction(["z"], {}, [Mat.zeros(0, 0)]),
        "sl2_bad_f": LieAction(sl2.names, sl2.brackets, bad_f),
        "sl2_bad_bracket": LieAction(sl2.names, jacobi, sl2.rho),
        "sl2_bad_antisymmetry": LieAction(sl2.names, antisym, sl2.rho),
    }


@pytest.mark.parametrize("name", sorted(_lie_inputs()))
def test_takiff_oracle_behind_the_kept_keys(name):
    # the takiff check reads its Jacobi and PBW keys from the Lie verdict:
    # the Takiff bracket on g + V satisfies (super-)Jacobi exactly when
    # validate_lie passes, and the PBW counts it reports are the grown
    # dimensions of S(V) and Lambda(V)
    from koszulkit.check import _check_takiff
    lie = _lie_inputs()[name]
    valid = validate_lie(lie) == (True, None)
    assert valid == name.startswith(("sl2_adjoint", "sl2_standard", "line"))
    if valid:
        status, details = _check_takiff(sym_presentation(lie.v_dim),
                                        ActionProvider.from_lie(lie),
                                        ("lie", None, None, {}))
        assert status == "pass"
    for parity in ("even", "super"):
        t = TakiffLie(lie, parity)
        assert (validate_jacobi(t) == (True, None)) == valid, parity
        if valid:
            pbw, grown = takiff_graded_dims(t, 3)
            assert pbw == grown == details["%s_graded_dims" % parity]
            assert details["%s_jacobi" % parity] is True


def test_law_failures_lie():
    # one entry of the sl2 action on V, or of its adjoint test module, is
    # off: each law checker names the first bracket law that breaks
    lie = sl2_lie_action()
    rho = list(lie.rho)
    rho[2] = _bump(rho[2], 0, 1)
    bad = LieAction(lie.names, lie.brackets, rho, lie.modules)
    assert validate_lie(bad) == (False, ("representation", "V", 0, 2))
    provider = ActionProvider.from_lie(bad)
    for p in (provider, dual_action(provider)):
        for r in (1, 2):
            assert validate_action_multiplicative(p, r) == (False, (0, 2))
    alg = grow(sym_presentation(3), 3)
    assert smash_ok(provider, alg) == (False, ("law", 0, 2, 1))
    dual_alg = grow(quadratic_dual(sym_presentation(3)), 3)
    assert smash_ok(dual_action(provider), dual_alg) \
        == (False, ("law", 0, 2, 1))
    # a test module is checked on its own, not as a Lie axiom
    mods = dict(lie.modules)
    mods["adjoint"] = list(mods["adjoint"])
    mods["adjoint"][2] = _bump(mods["adjoint"][2], 2, 0)
    assert validate_left_modules(sl2_provider(), mods) \
        == (False, ("adjoint", 0, 2))
    assert validate_lie(LieAction(lie.names, lie.brackets, lie.rho, mods)) \
        == (True, None)


@pytest.mark.parametrize("mkprov,mkmods,pres,k,mult_fails,smash_fails", [
    (c2_sign_provider, c2_modules, sym_presentation(1), 1,
     {1: (1, 1), 2: (1, 1)}, (("law", 1, 1, 1), ("law", 1, 1, 1))),
    (sweedler_provider, sweedler_modules, dual_numbers_presentation(), 2,
     {1: (1, 2), 2: None}, (("law", 1, 2, 1), ("law", 1, 2, 1))),
], ids=["c2_sign", "sweedler"])
def test_law_failures_bialgebra(mkprov, mkmods, pres, k, mult_fails,
                                smash_fails):
    # one entry of the matrix of basis element k on V, or on a test module,
    # is off; with Sweedler's x perturbed to 1 on V, x acts on V (x) V as
    # x (x) 1 + g (x) x = 0, so only the degree-one check sees it
    good = mkprov()
    mats = list(good.mats)
    mats[k] = _bump(mats[k], 0, 0)
    provider = ActionProvider(good.base, mats)
    for p in (provider, dual_action(provider)):
        for r, where in mult_fails.items():
            want = (True, None) if where is None else (False, where)
            assert validate_action_multiplicative(p, r) == want
    alg = grow(pres, 3)
    dual_alg = grow(quadratic_dual(pres), 3)
    assert smash_ok(provider, alg) == (False, smash_fails[0])
    assert smash_ok(dual_action(provider), dual_alg) \
        == (False, smash_fails[1])
    for b, where in ((0, "unit"), (k, 1)):
        mods = mkmods()
        name = sorted(mods)[-1]
        mods[name] = list(mods[name])
        mods[name][b] = _bump(mods[name][b], mods[name][b].rows - 1, 0)
        want = (name, "unit") if where == "unit" else (name, 1, k)
        assert validate_left_modules(good, mods) == (False, want)

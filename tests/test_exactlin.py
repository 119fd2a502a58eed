import random
from fractions import Fraction

from koszulkit.exactlin import (
    Mat, Subspace, basis_vector, hstack, image, intersect, intersect_all,
    inverse, kernel, kron, mul_kron_identity, perm_matrix, quotient, rank,
    rat_from_str, rat_to_str, rref, solve, vstack,
)


def rand_mat(rng, rows, cols, density=0.6):
    return Mat(rows, cols, [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                             if rng.random() < density else 0
                             for _ in range(cols)] for _ in range(rows)])


def test_rref_zero_and_identity():
    b, piv = rref(Mat.zeros(2, 2))
    assert b.rows == 0 and piv == []
    b, piv = rref(Mat.identity(3))
    assert b == Mat.identity(3) and piv == [0, 1, 2]


def test_rref_rank_one():
    b, piv = rref(Mat(2, 2, [[2, 4], [1, 2]]))
    assert b == Mat(1, 2, [[1, 2]]) and piv == [0]


def test_kernel_basic():
    assert kernel(Mat.identity(4)).dim == 0
    assert kernel(Mat.zeros(2, 4)).dim == 4
    k = kernel(Mat(2, 3, [[1, 1, 0], [0, 0, 1]]))
    assert k.basis == Mat(1, 3, [[1, -1, 0]])


def test_intersect():
    e = [basis_vector(3, i) for i in range(3)]
    s12 = Subspace.from_rows(3, [e[0], e[1]])
    s23 = Subspace.from_rows(3, [e[1], e[2]])
    assert intersect(s12, s23).basis == Mat(1, 3, [[0, 1, 0]])
    assert intersect(s12, s12) == s12
    assert intersect(s12, Subspace.full(3)) == s12
    assert intersect_all([s12, s23, Subspace.full(3)]).dim == 1


def test_kron_small():
    m = Mat(2, 2, [[1, 2], [3, 4]])
    assert kron(Mat(1, 1, [[2]]), m) == m.scale(2)
    assert kron(Mat.identity(2), Mat.identity(3)) == Mat.identity(6)
    # flat index rule: e_{(1,0)} has index 1*2+0 = 2
    n = kron(Mat(2, 2, [[0, 1], [0, 0]]), Mat.identity(2))
    v = basis_vector(4, 2)
    assert n.apply(v) == basis_vector(4, 0)


def test_mul_kron_identity_matches_kron():
    rng = random.Random(3)
    for rows, inner, cols, n in ((3, 2, 4, 3), (5, 4, 1, 2), (2, 3, 3, 1),
                                 (0, 2, 3, 2), (2, 0, 3, 2)):
        m1 = rand_mat(rng, rows, inner * n)
        m2 = rand_mat(rng, inner, cols)
        assert mul_kron_identity(m1, m2, n) == m1 @ kron(m2, Mat.identity(n))


def test_quotient():
    p, s = quotient(3, Subspace.zero(3))
    assert p == Mat.identity(3)
    p, s = quotient(3, Subspace.full(3))
    assert p.rows == 0 and s.cols == 0
    sub = Subspace.from_rows(2, [[1, 1]])
    p, s = quotient(2, sub)
    assert p.rows == 1 and (p @ s) == Mat.identity(1)
    assert kernel(p) == sub


def test_solve_and_inverse():
    a = Mat(2, 2, [[1, 2], [3, 4]])
    x = solve(a, [5, 11])
    assert a.apply(x) == [Fraction(5), Fraction(11)]
    assert a @ inverse(a) == Mat.identity(2)
    assert solve(Mat(2, 2, [[1, 1], [1, 1]]), [0, 1]) is None


def test_stack_perm_image():
    a = Mat(1, 2, [[1, 2]])
    b = Mat(1, 2, [[3, 4]])
    assert vstack([a, b]) == Mat(2, 2, [[1, 2], [3, 4]])
    assert hstack([a, b]) == Mat(1, 4, [[1, 2, 3, 4]])
    pm = perm_matrix([1, 0])
    assert pm.apply(basis_vector(2, 0)) == basis_vector(2, 1)
    assert image(Mat(2, 2, [[1, 0], [2, 0]])).basis == Mat(1, 2, [[1, 2]])


def test_rat_strings():
    assert rat_to_str(Fraction(3, 1)) == "3"
    assert rat_to_str(Fraction(-3, 6)) == "-1/2"
    assert rat_from_str("-1/2") == Fraction(-1, 2)


def test_random_properties():
    rng = random.Random(7)
    for _ in range(60):
        m = rand_mat(rng, rng.randint(0, 4), rng.randint(1, 4))
        assert kernel(m).dim + rank(m) == m.cols
        # quotient laws
        s = Subspace.from_rows(m.cols, m.data)
        p, sec = quotient(m.cols, s)
        assert (p @ sec) == Mat.identity(p.rows)
        delta = (sec @ p) - Mat.identity(m.cols)
        for col in range(m.cols):
            assert s.contains(delta.col(col))
        # kron functoriality
        a = rand_mat(rng, 2, 2)
        b = rand_mat(rng, 2, 3)
        v1 = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        v2 = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        lhs = kron(a, b).apply([x * y for x in v1 for y in v2])
        rhs = [x * y for x in a.apply(v1) for y in b.apply(v2)]
        assert lhs == rhs

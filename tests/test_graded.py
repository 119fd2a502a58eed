import pytest

from koszulkit.exactlin import Mat
from koszulkit.graded import BigradedComplex, check_d_squared, homology
from homology_oracle import nonzero_valid_cells


def two_term(m):
    return BigradedComplex((0, 1), (0, 0), {(0, 0): m.cols, (1, 0): m.rows},
                           {(0, 0): m})


def test_misplaced_differentials_are_value_errors():
    # the window and shape checks name the cell, also under python -O
    with pytest.raises(ValueError, match=r"at \(0, 0\) is 2 x 1, not 1 x 1"):
        BigradedComplex((0, 1), (0, 0), {(0, 0): 1, (1, 0): 1},
                        {(0, 0): Mat(2, 1, [[1], [0]])})
    with pytest.raises(ValueError, match=r"at \(1, 0\) leaves the window"):
        BigradedComplex((0, 1), (0, 0), {(0, 0): 1, (1, 0): 1},
                        {(1, 0): Mat.identity(1)})


def test_check_d_squared_trivial():
    c = BigradedComplex((0, 2), (0, 0), {(0, 0): 2, (1, 0): 2, (2, 0): 2}, {})
    assert check_d_squared(c) == (True, None)
    assert check_d_squared(two_term(Mat.identity(2))) == (True, None)


def test_check_d_squared_failure():
    c = BigradedComplex((0, 2), (0, 0), {(0, 0): 1, (1, 0): 1, (2, 0): 1},
                        {(0, 0): Mat.identity(1), (1, 0): Mat.identity(1)})
    ok, where = check_d_squared(c)
    assert not ok and where == (0, 0)
    with pytest.raises(ValueError):
        homology(c)


def test_homology_rank_check_behind_a_stale_d_squared_verdict():
    # homology reads the memoized d^2 verdict; preset to a pass on a
    # complex with d^2 != 0, its rank check still refuses a negative
    # homology dimension
    c = BigradedComplex((0, 2), (0, 0), {(0, 0): 1, (1, 0): 1, (2, 0): 1},
                        {(0, 0): Mat.identity(1), (1, 0): Mat.identity(1)})
    c._d_squared = (True, None)
    with pytest.raises(ValueError, match=r"^the image at \(1, 0\) has rank "
                       r"1, above the kernel dimension 0$"):
        homology(c)


def test_homology_zero_and_identity():
    zc = BigradedComplex((0, 2), (0, 1), {}, {})
    rep = homology(zc)
    assert all(c["dim"] == 0 for c in rep.cells.values())
    rep = homology(two_term(Mat.identity(1)))
    assert rep.dim(0, 0) == 0 and rep.dim(1, 0) == 0
    # boundary cells are flagged indeterminate
    assert not rep.valid(0, 0) and not rep.valid(1, 0)


def test_homology_with_actual_kernel():
    # 0 -> Q -0-> Q -id-> Q -> 0 padded by zero margins so cells are valid
    c = BigradedComplex((-1, 3), (0, 0), {(0, 0): 1, (1, 0): 1, (2, 0): 1},
                        {(1, 0): Mat.identity(1)})
    rep = homology(c)
    assert rep.valid(0, 0) and rep.dim(0, 0) == 1
    assert rep.dim(1, 0) == 0 and rep.dim(2, 0) == 0
    assert nonzero_valid_cells(rep) == [(0, 0)]


def test_euler_characteristic_matches_homology():
    c = BigradedComplex((-1, 3), (0, 0), {(0, 0): 2, (1, 0): 3, (2, 0): 1},
                        {(0, 0): Mat(3, 2, [[1, 0], [0, 1], [0, 0]]),
                         (1, 0): Mat(1, 3, [[0, 0, 1]])})
    assert check_d_squared(c)[0]
    rep = homology(c)
    euler_comp = sum((-1) ** r * c.dim(r, 0) for r in range(-1, 4))
    euler_hom = sum((-1) ** r * rep.dim(r, 0) for r in range(-1, 4))
    assert euler_comp == euler_hom == 0

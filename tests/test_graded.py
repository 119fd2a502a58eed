import pytest

from koszulkit.exactlin import Mat
from koszulkit.graded import (
    BigradedComplex, GradedSpace, check_d_squared, hilbert, homology,
)


def test_graded_space_window_and_shift():
    g = GradedSpace({0: 1, 1: 3, 2: 6}, (0, 2))
    assert g.dim(1) == 3
    with pytest.raises(KeyError):
        g.dim(5)
    sh = g.shift(2)
    assert sh.window == (-2, 0)
    assert sh.dim(-1) == g.dim(1)
    assert sh.dim(0) == g.dim(2)


def test_hilbert():
    one_var = GradedSpace({s: 1 for s in range(7)}, (0, 6))
    assert hilbert(one_var, 6) == [1] * 7
    with pytest.raises(ValueError):
        hilbert(one_var, 9)


def two_term(m):
    return BigradedComplex((0, 1), (0, 0), {(0, 0): m.cols, (1, 0): m.rows},
                           {(0, 0): m})


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
    assert rep.nonzero_valid_cells() == [(0, 0)]
    obj = rep.to_json_obj()
    assert {"r": 0, "s": 0, "ker": 1, "im": 0, "dim": 1, "valid": True} in obj["cells"]


def test_euler_characteristic_matches_homology():
    c = BigradedComplex((-1, 3), (0, 0), {(0, 0): 2, (1, 0): 3, (2, 0): 1},
                        {(0, 0): Mat(3, 2, [[1, 0], [0, 1], [0, 0]]),
                         (1, 0): Mat(1, 3, [[0, 0, 1]])})
    assert check_d_squared(c)[0]
    rep = homology(c)
    euler_comp = sum((-1) ** r * c.dim(r, 0) for r in range(-1, 4))
    euler_hom = sum((-1) ** r * rep.dim(r, 0) for r in range(-1, 4))
    assert euler_comp == euler_hom == 0

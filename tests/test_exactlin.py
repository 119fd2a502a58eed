import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszulkit.exactlin import (
    Mat, Subspace, _columns, hstack, inverse, kernel, kron, kron_sum,
    mul_kron_identity, perm_matrix, place_blocks, quotient, rank,
    rat_from_str, rat_to_str, rref, vstack,
)


def image(m):
    """Canonical basis of the column span of m, as a subspace of Q^rows;
    an oracle, as no check reads a column span."""
    return Subspace.from_rows(m.rows, m.transpose())


def unit_vector(n, i):
    """The i-th standard basis vector of Q^n, as an n x 1 matrix."""
    return Mat(n, 1, [[int(k == i)] for k in range(n)])


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


def test_kron_small():
    m = Mat(2, 2, [[1, 2], [3, 4]])
    assert kron(Mat(1, 1, [[2]]), m) == m.scale(2)
    assert kron(Mat.identity(2), Mat.identity(3)) == Mat.identity(6)
    # flat index rule: e_{(1,0)} has index 1*2+0 = 2
    n = kron(Mat(2, 2, [[0, 1], [0, 0]]), Mat.identity(2))
    v = unit_vector(4, 2)
    assert n @ v == unit_vector(4, 0)


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
    p, s = quotient(3, Subspace.from_rows(3, Mat.identity(3)))
    assert p.rows == 0 and s.cols == 0
    sub = Subspace.from_rows(2, [[1, 1]])
    p, s = quotient(2, sub)
    assert p.rows == 1 and (p @ s) == Mat.identity(1)
    assert kernel(p) == sub


def test_subspace_coordinates():
    # RREF basis (1, 1, 0), (0, 0, 1) with pivots 0 and 2
    s = Subspace.from_rows(3, [[1, 1, 0], [0, 0, 2]])
    m = Mat(3, 2, [[2, 0], [2, 0], [3, Fraction(-1, 2)]])
    assert s.coordinates(m) == Mat(2, 2, [[2, 0], [3, Fraction(-1, 2)]])
    assert s.coordinates(unit_vector(3, 1)) is None
    assert s.coordinates(Mat(3, 0)) == Mat(2, 0)


def test_inverse_small():
    a = Mat(2, 2, [[1, 2], [3, 4]])
    assert a @ inverse(a) == Mat.identity(2)
    with pytest.raises(ValueError):
        inverse(Mat(2, 2, [[1, 1], [1, 1]]))


def test_stack_perm_image():
    a = Mat(1, 2, [[1, 2]])
    b = Mat(1, 2, [[3, 4]])
    assert vstack([a, b]) == Mat(2, 2, [[1, 2], [3, 4]])
    assert hstack([a, b]) == Mat(1, 4, [[1, 2, 3, 4]])
    pm = perm_matrix([1, 0])
    assert pm @ unit_vector(2, 0) == unit_vector(2, 1)
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
        s = Subspace.from_rows(m.cols, m)
        p, sec = quotient(m.cols, s)
        assert (p @ sec) == Mat.identity(p.rows)
        delta = (sec @ p) - Mat.identity(m.cols)
        assert s.coordinates(delta) is not None
        # kron functoriality
        a = rand_mat(rng, 2, 2)
        b = rand_mat(rng, 2, 3)
        v1 = Mat(2, 1, [[Fraction(rng.randint(-3, 3))] for _ in range(2)])
        v2 = Mat(3, 1, [[Fraction(rng.randint(-3, 3))] for _ in range(3)])
        assert kron(a, b) @ kron(v1, v2) == kron(a @ v1, b @ v2)


# ---------------------------------------------------------------------------
# Property tests against a plain-Fraction reference: dense rows of Fraction,
# Gauss-Jordan elimination with a Fraction division per pivot row.

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)


def ref_rref(rows, cols):
    """RREF of a list of rows (any exact entries), by Fraction arithmetic;
    returns (rows, pivots) with zero rows dropped."""
    live = [[Fraction(x) for x in r] for r in rows]
    done = []
    pivots = []
    for col in range(cols):
        best = next((r for r in live if r[col]), None)
        if best is None:
            continue
        live.remove(best)
        piv = [x / best[col] for x in best]
        for r in live + done:
            c = r[col]
            if c:
                for j in range(cols):
                    r[j] -= c * piv[j]
        live = [r for r in live if any(r)]
        done.append(piv)
        pivots.append(col)
    return done, pivots


def ref_kernel(rows, cols):
    b, pivots = ref_rref(rows, cols)
    basis = []
    for f in (j for j in range(cols) if j not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -b[k][f]
        basis.append(v)
    return ref_rref(basis, cols)[0]


def ref_matmul(a, b, cols):
    return [[sum((Fraction(x) * Fraction(rb[j]) for x, rb in zip(ra, b)),
                 Fraction(0)) for j in range(cols)] for ra in a]


def ref_kron(a, b):
    return [[Fraction(x) * Fraction(y) for x in ra for y in rb]
            for ra in a for rb in b]


def assert_exact(values):
    """Every entry is an int (not a bool) or a non-integral Fraction."""
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), \
            repr(x)


def assert_exact_mat(m):
    """The storage invariant of Mat: only nonzero entries are stored, each
    an int or a non-integral Fraction, at a position inside the shape, and
    none a Fraction when the matrix's flag says so."""
    for i, j, x in m.entries():
        assert 0 <= i < m.rows and 0 <= j < m.cols, (i, j, m.rows, m.cols)
        assert x != 0, (i, j)
        assert_exact([x])
        assert m._frac or type(x) is int, (i, j, x)
    dense = m.tolist()
    assert len(dense) == m.rows
    for row in dense:
        assert len(row) == m.cols
        assert_exact(row)


ENTRIES = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    # integral Fractions such as Fraction(4, 2)
    st.builds(lambda n, d: Fraction(n * d, d), st.integers(-4, 4),
              st.integers(1, 3)),
)


@st.composite
def row_lists(draw, rows=None, cols=None):
    """Rows of ENTRIES, some replaced by zero rows or by combinations of
    the rows before them."""
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    data = [draw(st.lists(ENTRIES, min_size=cols, max_size=cols))
            for _ in range(rows)]
    for k in range(rows):
        kind = draw(st.sampled_from(("free", "free", "zero", "combination")))
        if kind == "zero":
            data[k] = [0] * cols
        elif kind == "combination" and k:
            coeffs = draw(st.lists(ENTRIES, min_size=k, max_size=k))
            data[k] = [sum((Fraction(c) * Fraction(r[j])
                            for c, r in zip(coeffs, data[:k])), Fraction(0))
                       for j in range(cols)]
    return data


def _raw_mat(rows, cols):
    """A Mat built by Mat.from_entries from every position of rows, zeros
    and integral Fractions included, as computed entries arrive there."""
    return Mat.from_entries(len(rows), cols,
                            [(i, j, x) for i, r in enumerate(rows)
                             for j, x in enumerate(r)])


def test_integral_fraction_rows_explicit():
    rows = [[Fraction(4, 2), Fraction(6, 3), 0],
            [Fraction(-2, 2), Fraction(1, 2), Fraction(9, 3)],
            [0, 0, 0]]
    m = Mat(3, 3, rows)
    assert m.tolist() == [[2, 2, 0], [-1, Fraction(1, 2), 3], [0, 0, 0]]
    assert_exact_mat(m)
    assert_exact_mat(Mat(1, 3, [[0.5, 2.0, True]]))
    for m in (Mat(3, 3, rows), _raw_mat(rows, 3)):
        assert_exact_mat(m)
        b, pivots = rref(m)
        assert (b.tolist(), pivots) == ref_rref(rows, 3)
        assert_exact_mat(b)
        assert kernel(m).basis.tolist() == ref_kernel(rows, 3)
        assert_exact_mat(kernel(m).basis)


def test_from_entries_sums_repeats_and_checks_the_shape():
    m = Mat.from_entries(2, 3, [(0, 1, Fraction(1, 2)), (0, 1, Fraction(3, 2)),
                                (1, 2, 5), (1, 2, -5), (1, 0, 0)])
    assert m.tolist() == [[0, 2, 0], [0, 0, 0]]
    assert_exact_mat(m)
    with pytest.raises(ValueError):
        Mat.from_entries(2, 3, [(0, 3, 1)])
    with pytest.raises(ValueError):
        Mat(2, 2, [[1, 2], [3]])


def test_place_blocks_shares_a_filling_block_and_checks_the_bounds():
    a = Mat(2, 2, [[1, 0], [3, 4]])
    assert place_blocks(2, 2, [(0, 0, a)]) is a
    m = place_blocks(3, 4, [(0, 0, a), (0, 2, a), (2, 1, Mat(1, 2, [[5, 6]]))])
    assert m.tolist() == [[1, 0, 1, 0], [3, 4, 3, 4], [0, 5, 6, 0]]
    assert_exact_mat(m)
    for r0, c0 in ((2, 0), (0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            place_blocks(3, 4, [(r0, c0, a)])


@PROPERTY
@given(row_lists())
def test_rref_rank_kernel_match_reference(rows):
    cols = len(rows[0]) if rows else 0
    for m in (Mat(len(rows), cols, rows), _raw_mat(rows, cols)):
        assert_exact_mat(m)
        b, pivots = rref(m)
        assert (b.tolist(), pivots) == ref_rref(rows, cols)
        assert_exact_mat(b)
        assert rank(m) == len(pivots)
        k = kernel(m)
        assert k.basis.tolist() == ref_kernel(rows, cols)
        assert_exact_mat(k.basis)
        assert (m @ k.basis.transpose()).is_zero()


@PROPERTY
@given(st.integers(0, 4).flatmap(lambda n: row_lists(rows=n, cols=n)))
def test_inverse_matches_reference(rows):
    n = len(rows)
    m = Mat(n, n, rows)
    aug = [list(r) + [int(i == j) for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = ref_rref(aug, 2 * n)
    if pivots != list(range(n)):
        with pytest.raises(ValueError):
            inverse(m)
        return
    inv = inverse(m)
    assert inv.tolist() == [r[n:] for r in red]
    assert_exact_mat(inv)
    assert m @ inv == Mat.identity(n)


@PROPERTY
@given(st.tuples(st.integers(0, 4), st.integers(0, 4),
                 st.integers(0, 4)).flatmap(
    lambda s: st.tuples(row_lists(rows=s[0], cols=s[1]),
                        row_lists(rows=s[1], cols=s[2]), st.just(s[2]))))
def test_matmul_and_kron_match_reference(args):
    ra, rb, cols = args
    for a, b in ((Mat(len(ra), len(rb), ra), Mat(len(rb), cols, rb)),
                 (_raw_mat(ra, len(rb)), _raw_mat(rb, cols))):
        prod = a @ b
        assert prod.tolist() == ref_matmul(ra, rb, cols)
        assert_exact_mat(prod)
        k = kron(a, b)
        assert k.rows == a.rows * b.rows and k.cols == a.cols * b.cols
        assert k.tolist() == ref_kron(ra, rb)
        assert_exact_mat(k)


def ref_add(a, b, c=1):
    return [[Fraction(x) + c * Fraction(y) for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def ref_scale(c, a):
    return [[Fraction(c) * Fraction(x) for x in r] for r in a]


@PROPERTY
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3),
                 st.integers(1, 3)).flatmap(
    lambda s: st.tuples(row_lists(rows=s[0], cols=s[1]),
                        row_lists(rows=s[0], cols=s[1]),
                        row_lists(rows=s[1], cols=s[2]),
                        row_lists(rows=s[0], cols=s[1] * s[3]),
                        st.just(s[3]), ENTRIES, ENTRIES,
                        st.lists(ENTRIES, min_size=s[1], max_size=s[1]))))
def test_every_operation_keeps_the_storage_invariant(args):
    ra, rb, rc, rw, n, x, y, vec = args
    r, c = len(ra), len(rc)
    k = len(rc[0]) if rc else 0
    a, b, m, w = (_raw_mat(ra, c), _raw_mat(rb, c), _raw_mat(rc, k),
                  _raw_mat(rw, c * n))
    checks = [
        (a + b, ref_add(ra, rb)),
        (a - b, ref_add(ra, rb, -1)),
        (-a, ref_scale(-1, ra)),
        (a.scale(x), ref_scale(x, ra)),
        (a.transpose(), [[row[j] for row in ra] for j in range(c)]),
        (vstack([a, b]), ra + rb),
        (hstack([a, b]), [p + q for p, q in zip(ra, rb)]),
        (place_blocks(2 * r, 2 * c + 1, [(0, 0, a), (r, c + 1, b)]),
         [p + [0] * (c + 1) for p in ra] + [[0] * (c + 1) + q for q in rb]),
        (kron_sum([(x, a, m), (y, b, m)], r * c, c * k),
         ref_add(ref_scale(x, ref_kron(ra, rc)),
                 ref_scale(y, ref_kron(rb, rc)))),
        (mul_kron_identity(w, m, n),
         ref_matmul(rw, ref_kron(rc, [[int(i == j) for j in range(n)]
                                      for i in range(n)]), k * n)),
        (_columns(a, list(range(c))[::-1]), [row[::-1] for row in ra]),
        (a.select_rows(range(r - 1, -1, -1)), ra[::-1]),
        (Mat.identity(c), [[int(i == j) for j in range(c)]
                           for i in range(c)]),
        (Mat.zeros(r, c), [[0] * c for _ in range(r)]),
        (a @ _raw_mat([[v] for v in vec], 1),
         [[sum((Fraction(p) * Fraction(q) for p, q in zip(row, vec)),
               Fraction(0))] for row in ra]),
    ]
    for got, want in checks:
        assert_exact_mat(got)
        assert got.tolist() == want
    assert (a == b) == (ref_add(ra, rb, -1) == [[0] * c for _ in range(r)])
    assert a.is_zero() == (not any(any(row) for row in ra))


@PROPERTY
@given(st.tuples(st.integers(0, 4), st.integers(0, 4),
                 st.integers(0, 3)).flatmap(
    lambda s: st.tuples(row_lists(rows=s[0], cols=s[1]),
                        row_lists(rows=s[1], cols=s[2]), ENTRIES)))
def test_cancellation_leaves_no_stored_zero(args):
    ra, rm, x = args
    r, c = len(ra), len(rm)
    k = len(rm[0]) if rm else 0
    for a, m in ((Mat(r, c, ra), Mat(c, k, rm)),
                 (_raw_mat(ra, c), _raw_mat(rm, k))):
        for got, rows, cols in (
                (a + (-a), r, c),
                (a - a, r, c),
                (kron_sum([(x, a, m), (-1, a.scale(x), m)], r * c, c * k),
                 r * c, c * k),
                (kron_sum([(1, a, m.scale(x)), (-x, a, m)], r * c, c * k),
                 r * c, c * k),
                (hstack([a, a]) @ vstack([m.scale(x), m.scale(-x)]), r, k)):
            assert_exact_mat(got)
            assert got == Mat.zeros(rows, cols)
            assert got.is_zero()



# ---------------------------------------------------------------------------
# shapes are checked by exceptions, which hold under python -O

A12, A21, A31 = (Mat(1, 2, [[1, 2]]), Mat(2, 1, [[1], [2]]),
                 Mat(3, 1, [[1], [2], [3]]))


@pytest.mark.parametrize("op, shapes", [
    (lambda: A12 + A21, ("1 x 2", "2 x 1")),
    (lambda: A12 - A21, ("1 x 2", "2 x 1")),
    (lambda: A12 @ A31, ("1 x 2", "3 x 1")),
    (lambda: vstack([A12, A21]), ("1 x 2", "2 x 1")),
    (lambda: vstack([]), ("no matrices",)),
    (lambda: hstack([A12, A21]), ("1 x 2", "2 x 1")),
    (lambda: hstack([]), ("no matrices",)),
    (lambda: mul_kron_identity(A12, A21, 2), ("1 x 2", "2 x 1", "I_2")),
    (lambda: Subspace.from_rows(3, A12), ("length 2", "Q^3")),
    (lambda: inverse(A12), ("1 x 2",)),
], ids=["add", "sub", "matmul", "vstack", "vstack_empty",
        "hstack", "hstack_empty", "mul_kron_identity", "subspace",
        "inverse"])
def test_shape_mismatch_is_a_value_error(op, shapes):
    with pytest.raises(ValueError) as exc:
        op()
    for shape in shapes:
        assert shape in str(exc.value)


# ---------------------------------------------------------------------------
# the integer fast paths: the Fraction flag, identity factors of kron_sum
# given by their dimension, and the indexed elimination of rref

INT_ENTRIES = st.integers(-6, 6)


@st.composite
def int_mats(draw, rows, cols):
    return Mat(rows, cols, [draw(st.lists(INT_ENTRIES, min_size=cols,
                                          max_size=cols))
                            for _ in range(rows)])


@PROPERTY
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3),
                 st.integers(1, 3)).flatmap(
    lambda s: st.tuples(int_mats(s[0], s[1]), int_mats(s[0], s[1]),
                        int_mats(s[1], s[2]), int_mats(s[0], s[1] * s[3]),
                        st.just(s[3]), INT_ENTRIES)))
def test_integer_operands_give_flagged_integer_results(args):
    a, b, m, w, n, x = args
    for got in (a + b, a - b, -a, a.scale(x), a @ m, a.transpose(),
                vstack([a, b]), hstack([a, b]), kron(a, m),
                kron_sum([(x, a, m), (1, b, m)], a.rows * m.rows,
                         a.cols * m.cols),
                mul_kron_identity(w, m, n), _columns(a, [0] if a.cols else []),
                a.select_rows([0] if a.rows else []),
                place_blocks(a.rows, 2 * a.cols, [(0, 0, a), (0, a.cols, b)])):
        assert not got._frac
        assert_exact_mat(got)
    # the flags of RREF bases, and of what is built from them, are exact:
    # a Fraction is left exactly when they say so
    for got in (rref(a)[0], rref(vstack([a, b]).scale(3))[0],
                kernel(a).basis, quotient(a.cols, kernel(a))[0]):
        assert_exact_mat(got)
        assert got._frac == any(type(v) is not int for _, _, v in
                                got.entries())


@PROPERTY
@given(st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda s: st.tuples(row_lists(rows=s[0], cols=s[0]),
                        row_lists(rows=s[1], cols=s[1]),
                        row_lists(rows=s[0], cols=s[1]),
                        st.lists(st.tuples(ENTRIES, st.booleans(),
                                           st.booleans()),
                                 min_size=1, max_size=3))))
def test_kron_sum_identity_factors_match_formed_identities(args):
    ra, rb, rw, picks = args
    p, q = len(ra), len(rb)
    a, b, w = _raw_mat(ra, p), _raw_mat(rb, q), _raw_mat(rw, q)
    terms = [(c, p if id1 else a, q if id2 else b) for c, id1, id2 in picks]
    formed = [(c, Mat.identity(p) if id1 else a,
               Mat.identity(q) if id2 else b) for c, id1, id2 in picks]
    got = kron_sum(terms, p * q, p * q)
    assert got == kron_sum(formed, p * q, p * q)
    want = [[0] * (p * q) for _ in range(p * q)]
    for c, f, g in formed:
        want = ref_add(want, ref_scale(c, ref_kron(f.tolist(), g.tolist())))
    assert got.tolist() == want
    assert_exact_mat(got)
    # a rectangular factor beside an identity
    assert kron(w, q) == kron(w, Mat.identity(q))
    assert kron(p, w) == kron(Mat.identity(p), w)


@st.composite
def tall_row_lists(draw):
    """Many more rows than columns: rows of ENTRIES, with zero rows,
    repeated rows and multiples of earlier rows among them."""
    cols = draw(st.integers(1, 5))
    rows = draw(st.integers(cols + 1, 4 * cols + 4))
    data = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("free", "zero", "repeat", "multiple")))
        if kind == "zero" or (kind != "free" and not data):
            data.append([0] * cols)
        elif kind == "free":
            data.append(draw(st.lists(ENTRIES, min_size=cols,
                                      max_size=cols)))
        else:
            row = data[draw(st.integers(0, len(data) - 1))]
            c = 1 if kind == "repeat" else draw(ENTRIES)
            data.append([Fraction(c) * Fraction(v) for v in row])
    return data


@PROPERTY
@given(tall_row_lists())
def test_indexed_rref_matches_reference_on_tall_inputs(rows):
    cols = len(rows[0])
    for m in (Mat(len(rows), cols, rows), _raw_mat(rows, cols)):
        b, pivots = rref(m)
        assert (b.tolist(), pivots) == ref_rref(rows, cols)
        assert_exact_mat(b)
        assert kernel(m).basis.tolist() == ref_kernel(rows, cols)

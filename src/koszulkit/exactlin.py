"""Exact linear algebra over the rationals.

Dense matrices of ``fractions.Fraction`` entries, canonical subspaces
(reduced row echelon bases), kernels, intersections, quotients and
Kronecker products.  Everything downstream computes with these, so the
canonical forms here make all reported bases deterministic.

Conventions:
  * vectors are plain lists of Fraction, matrices act on the left (m @ v);
  * a Subspace is represented by the unique RREF basis of its row span;
  * kron uses row-major flattening: basis vector (i, j) of U (x) W has
    flat index i * dim(W) + j, i.e. the left factor is the slow index.
"""

from __future__ import annotations

from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class Mat:
    """Dense rows x cols matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[F0] * cols for _ in range(rows)]
        else:
            assert len(data) == rows
            self.data = [[_frac(x) for x in row] for row in data]
            for row in self.data:
                assert len(row) == cols

    @staticmethod
    def from_rows(rows_list, cols=None):
        rows_list = list(rows_list)
        if cols is None:
            cols = len(rows_list[0]) if rows_list else 0
        return Mat(len(rows_list), cols, rows_list)

    @staticmethod
    def identity(n):
        m = Mat(n, n)
        for i in range(n):
            m.data[i][i] = F1
        return m

    @staticmethod
    def zeros(rows, cols):
        return Mat(rows, cols)

    def copy(self):
        return Mat(self.rows, self.cols, [row[:] for row in self.data])

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return "Mat(%d, %d, %r)" % (self.rows, self.cols,
                                    [[str(x) for x in row] for row in self.data])

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Mat(self.rows, self.cols,
                   [[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Mat(self.rows, self.cols,
                   [[a - b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)])

    def __neg__(self):
        return Mat(self.rows, self.cols, [[-a for a in r] for r in self.data])

    def scale(self, c):
        c = _frac(c)
        return Mat(self.rows, self.cols, [[c * a for a in r] for r in self.data])

    def __matmul__(self, other):
        assert self.cols == other.rows, (self.cols, other.rows)
        out = [[F0] * other.cols for _ in range(self.rows)]
        odata = other.data
        for i, row in enumerate(self.data):
            orow_acc = out[i]
            for k, a in enumerate(row):
                if a:
                    for j, b in enumerate(odata[k]):
                        if b:
                            orow_acc[j] += a * b
        return Mat(self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times column vector (a list)."""
        assert len(vec) == self.cols
        out = []
        for row in self.data:
            s = F0
            for a, x in zip(row, vec):
                if a and x:
                    s += a * x
            out.append(s)
        return out

    def transpose(self):
        return Mat(self.cols, self.rows,
                   [[self.data[i][j] for i in range(self.rows)]
                    for j in range(self.cols)])

    def row(self, i):
        return self.data[i][:]

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]


def vstack(mats):
    mats = [m for m in mats]
    assert mats
    cols = mats[0].cols
    rows = []
    for m in mats:
        assert m.cols == cols
        rows.extend(r[:] for r in m.data)
    return Mat(len(rows), cols, rows)


def hstack(mats):
    mats = [m for m in mats]
    assert mats
    rows = mats[0].rows
    data = [[] for _ in range(rows)]
    for m in mats:
        assert m.rows == rows
        for i in range(rows):
            data[i].extend(m.data[i])
    return Mat(rows, sum(m.cols for m in mats), data)


def kron_sum(terms, rows, cols):
    """Sum of c * kron(A, B) over the (c, A, B) in terms, a rows x cols
    matrix, accumulated in place: only nonzero products are written."""
    out = Mat(rows, cols)
    odata = out.data
    for c, m1, m2 in terms:
        unit = c == 1
        for i1, row1 in enumerate(m1.data):
            for j1, a in enumerate(row1):
                if a:
                    ca = a if unit else c * a
                    base_i = i1 * m2.rows
                    base_j = j1 * m2.cols
                    for i2, row2 in enumerate(m2.data):
                        orow = odata[base_i + i2]
                        for j2, b in enumerate(row2):
                            if b:
                                k = base_j + j2
                                v = orow[k]
                                orow[k] = v + ca * b if v else ca * b
    return out


def kron(m1, m2):
    """Kronecker product under the fixed row-major basis ordering."""
    return kron_sum([(F1, m1, m2)], m1.rows * m2.rows, m1.cols * m2.cols)


def mul_kron_identity(m1, m2, n):
    """m1 @ kron(m2, I_n), without forming the Kronecker product: only
    nonzero products are written."""
    assert m1.cols == m2.rows * n, (m1.cols, m2.rows, n)
    nz = [[(j, b) for j, b in enumerate(row) if b] for row in m2.data]
    out = Mat(m1.rows, m2.cols * n)
    for row1, orow in zip(m1.data, out.data):
        for k, a in enumerate(row1):
            if a:
                t, c = divmod(k, n)
                for j, b in nz[t]:
                    idx = j * n + c
                    v = orow[idx]
                    orow[idx] = v + a * b if v else a * b
    return out


def _sparse_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m.data]


def _rref_sparse(srows, cols):
    """RREF on dict-of-column rows; returns list of (pivot_col, row_dict)."""
    live = [r for r in srows if r]
    done = []
    for col in range(cols):
        best = None
        best_len = None
        for idx, r in enumerate(live):
            if col in r and (best is None or len(r) < best_len):
                best = idx
                best_len = len(r)
        if best is None:
            continue
        piv = live.pop(best)
        inv = F1 / piv[col]
        if inv != 1:
            piv = {j: v * inv for j, v in piv.items()}
        for group in (live, None):
            rows_iter = live if group is live else [d for _, d in done]
            for r in rows_iter:
                c = r.get(col)
                if c:
                    for j, v in piv.items():
                        nv = r.get(j, F0) - c * v
                        if nv:
                            r[j] = nv
                        elif j in r:
                            del r[j]
        live = [r for r in live if r]
        done.append((col, piv))
    return done


def rref(m):
    """Unique reduced row echelon form with zero rows removed.

    Returns (Mat, pivot_column_list); rank == len(pivots).
    """
    done = _rref_sparse(_sparse_rows(m), m.cols)
    pivots = [c for c, _ in done]
    out = Mat(len(done), m.cols)
    for i, (_, r) in enumerate(done):
        row = out.data[i]
        for j, v in r.items():
            row[j] = v
    return out, pivots


def rank(m):
    return len(rref(m)[1])


class Subspace:
    """Subspace of Q^n with its canonical (RREF) basis as rows."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, basis, pivots):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @staticmethod
    def from_rows(ambient_dim, rows):
        m = rows if isinstance(rows, Mat) else Mat.from_rows(rows, ambient_dim)
        assert m.cols == ambient_dim
        b, piv = rref(m)
        return Subspace(ambient_dim, b, piv)

    @staticmethod
    def zero(ambient_dim):
        return Subspace(ambient_dim, Mat(0, ambient_dim), [])

    @staticmethod
    def full(ambient_dim):
        return Subspace(ambient_dim, Mat.identity(ambient_dim),
                        list(range(ambient_dim)))

    @property
    def dim(self):
        return self.basis.rows

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return "Subspace(ambient=%d, dim=%d)" % (self.ambient_dim, self.dim)

    def reduce(self, vec):
        """Residue of vec modulo this subspace (zero at pivot coordinates)."""
        v = list(vec)
        for k, p in enumerate(self.pivots):
            c = v[p]
            if c:
                row = self.basis.data[k]
                for j, b in enumerate(row):
                    if b:
                        v[j] -= c * b
        return v

    def contains(self, vec):
        return all(x == 0 for x in self.reduce(vec))

    def contains_subspace(self, other):
        assert self.ambient_dim == other.ambient_dim
        return all(self.contains(row) for row in other.basis.data)

    def coordinates(self, vec):
        """Coefficients of vec in the RREF basis; None if not a member."""
        coords = [vec[p] for p in self.pivots]
        if not self.contains(vec):
            return None
        return coords

    def coordinate_matrix(self, vectors):
        """Rows of coordinates, one per input vector; asserts membership."""
        out = []
        for v in vectors:
            c = self.coordinates(v)
            assert c is not None, "vector not in subspace"
            out.append(c)
        return Mat.from_rows(out, self.dim)

    def add(self, other):
        assert self.ambient_dim == other.ambient_dim
        return Subspace.from_rows(
            self.ambient_dim, self.basis.data + other.basis.data)


def kernel(m):
    """Canonical basis of {x : m @ x = 0}; dim == cols - rank."""
    b, pivots = rref(m)
    pivset = set(pivots)
    free = [j for j in range(m.cols) if j not in pivset]
    rows = []
    for f in free:
        v = [F0] * m.cols
        v[f] = F1
        for k, p in enumerate(pivots):
            c = b.data[k][f]
            if c:
                v[p] = -c
        rows.append(v)
    return Subspace.from_rows(m.cols, rows)


def image(m):
    """Canonical basis of the column span of m (as a subspace of Q^rows)."""
    return Subspace.from_rows(m.rows, m.transpose().data)


def intersect(s1, s2):
    """Canonical basis of s1 /\\ s2."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient-dimension mismatch: %d vs %d"
                         % (s1.ambient_dim, s2.ambient_dim))
    if s2.dim == s2.ambient_dim:
        return Subspace.from_rows(s1.ambient_dim, s1.basis.data)
    proj2, _ = quotient(s2.ambient_dim, s2)
    # x = c . B1 lies in s2  iff  proj2 @ B1^T c = 0.
    mat = proj2 @ s1.basis.transpose()
    coeffs = kernel(mat)
    rows = (coeffs.basis @ s1.basis).data
    return Subspace.from_rows(s1.ambient_dim, rows)


def intersect_all(subspaces):
    subspaces = list(subspaces)
    assert subspaces
    out = subspaces[0]
    for s in subspaces[1:]:
        out = intersect(out, s)
    return out


def quotient(ambient_dim, s):
    """Projection/section pair for Q^ambient / s.

    The quotient basis is the non-pivot coordinates of s, so
    projection @ section == identity and kernel(projection) == s.
    """
    if s.ambient_dim != ambient_dim:
        raise ValueError("ambient-dimension mismatch")
    pivset = set(s.pivots)
    free = [j for j in range(ambient_dim) if j not in pivset]
    proj = Mat(len(free), ambient_dim)
    sect = Mat(ambient_dim, len(free))
    for i, q in enumerate(free):
        proj.data[i][q] = F1
        sect.data[q][i] = F1
        for k, p in enumerate(s.pivots):
            c = s.basis.data[k][q]
            if c:
                proj.data[i][p] = -c
    return proj, sect


def solve(a, b):
    """One solution x of a @ x = b (b a vector); None if inconsistent."""
    aug = hstack([a, Mat.from_rows([[x] for x in b], 1)])
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [F0] * a.cols
    for k, p in enumerate(pivots):
        x[p] = red.data[k][a.cols]
    return x


def inverse(m):
    """Inverse of a square matrix; raises ValueError if singular."""
    assert m.rows == m.cols
    aug = hstack([m, Mat.identity(m.rows)])
    red, pivots = rref(aug)
    if pivots != list(range(m.rows)):
        raise ValueError("matrix is singular")
    return Mat(m.rows, m.rows, [row[m.rows:] for row in red.data])


def perm_matrix(perm):
    """Matrix sending e_j to e_{perm[j]}."""
    n = len(perm)
    m = Mat(n, n)
    for j, i in enumerate(perm):
        m.data[i][j] = F1
    return m


def basis_vector(n, i):
    v = [F0] * n
    v[i] = F1
    return v


def rat_to_str(x):
    return str(_frac(x))


def rat_from_str(s):
    """Exact rational from an int or a string such as "-2/5" or "0.25".

    Raises ValueError for anything else: a float is not exact, and a zero
    denominator is no number."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise ValueError("not an exact rational: %r" % (s,))
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None

"""Exact linear algebra over the rationals.

Dense matrices of exact rational entries, canonical subspaces (reduced
row echelon bases), kernels, intersections, quotients and Kronecker
products.  Everything downstream computes with these, so the canonical
forms here make all reported bases deterministic.

Conventions:
  * an entry is a Python int when it is integral and a
    ``fractions.Fraction`` with denominator > 1 otherwise; the public
    constructors normalize their input to this form once, and every
    result computed here keeps it;
  * vectors are plain lists of entries, matrices act on the left (m @ v);
  * a Subspace is represented by the unique RREF basis of its row span,
    computed by fraction-free elimination on primitive integer rows;
  * kron uses row-major flattening: basis vector (i, j) of U (x) W has
    flat index i * dim(W) + j, i.e. the left factor is the slow index.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import itemgetter

F0 = 0
F1 = 1


def _exact(x):
    """x as an entry: an int when integral, else a Fraction (a float
    goes through Fraction(x))."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _ints(data):
    """Turn, in place, the integral Fractions (zero among them) that
    arithmetic on Fraction entries leaves in freshly computed rows into
    ints; returns data."""
    if Fraction in set(map(type, chain.from_iterable(data))):
        for row in data:
            for j, x in enumerate(row):
                if type(x) is Fraction and x.denominator == 1:
                    row[j] = x.numerator
    return data


def _has_fraction(data):
    """Whether a nonzero entry of data is a Fraction: only then can
    arithmetic on it leave integral Fractions for _ints to turn back."""
    return Fraction in set(map(type, chain.from_iterable(
        map(compress, data, data))))


def _nz_has_fraction(nzrows):
    """_has_fraction for rows given as _nonzeros lists (None for a row
    not in use)."""
    return Fraction in set(map(type, map(itemgetter(1), chain.from_iterable(
        filter(None, nzrows)))))


def _nonzeros(row):
    """[(column, entry)] of the nonzero entries of a row."""
    return [(j, row[j]) for j in compress(range(len(row)), row)]


def _mat(rows, cols, data):
    """A Mat around rows computed here: exact entries of the right shape,
    so nothing is re-wrapped or re-checked."""
    m = Mat.__new__(Mat)
    m.rows = rows
    m.cols = cols
    m.data = data
    return m


def _columns(m, cols):
    """The columns cols of m, in that order."""
    return _mat(m.rows, len(cols), [[row[c] for c in cols] for row in m.data])


class Mat:
    """Dense rows x cols matrix with exact (int or Fraction) entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            self.data = [[_exact(x) for x in row] for row in data]
            if len(self.data) != rows or any(len(row) != cols
                                             for row in self.data):
                raise ValueError("entries do not form a %d x %d matrix"
                                 % (rows, cols))

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
            m.data[i][i] = 1
        return m

    @staticmethod
    def zeros(rows, cols):
        return Mat(rows, cols)

    def copy(self):
        return _mat(self.rows, self.cols, [row[:] for row in self.data])

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return "Mat(%d, %d, %r)" % (self.rows, self.cols,
                                    [[str(x) for x in row] for row in self.data])

    def is_zero(self):
        return not any(map(any, self.data))

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return _mat(self.rows, self.cols,
                    _ints([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.data, other.data)]))

    def __sub__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return _mat(self.rows, self.cols,
                    _ints([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.data, other.data)]))

    def __neg__(self):
        return _mat(self.rows, self.cols, [[-a for a in r] for r in self.data])

    def scale(self, c):
        c = _exact(c)
        return _mat(self.rows, self.cols,
                    _ints([[c * a for a in r] for r in self.data]))

    def __matmul__(self, other):
        assert self.cols == other.rows, (self.cols, other.rows)
        odata = other.data
        nz = [None] * other.rows    # nonzeros of the rows of other in use
        cols = other.cols
        ks = range(self.cols)
        out = []
        for row in self.data:
            acc = [0] * cols
            for k in compress(ks, row):
                a = row[k]
                nzrow = nz[k]
                if nzrow is None:
                    nzrow = nz[k] = _nonzeros(odata[k])
                for j, b in nzrow:
                    acc[j] += a * b
            out.append(acc)
        if _has_fraction(self.data) or _nz_has_fraction(nz):
            _ints(out)
        return _mat(self.rows, cols, out)

    def apply(self, vec):
        """Matrix times column vector (a list)."""
        assert len(vec) == self.cols
        nz = _nonzeros(vec)
        return _ints([[sum(row[k] * x for k, x in nz)
                       for row in self.data]])[0]

    def transpose(self):
        if not self.rows:
            return Mat(self.cols, 0)
        return _mat(self.cols, self.rows, [list(c) for c in zip(*self.data)])

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
    return _mat(len(rows), cols, rows)


def hstack(mats):
    mats = [m for m in mats]
    assert mats
    rows = mats[0].rows
    data = [[] for _ in range(rows)]
    for m in mats:
        assert m.rows == rows
        for i in range(rows):
            data[i].extend(m.data[i])
    return _mat(rows, sum(m.cols for m in mats), data)


def kron_sum(terms, rows, cols):
    """Sum of c * kron(A, B) over the (c, A, B) in terms, a rows x cols
    matrix, accumulated in place: only nonzero products are written."""
    out = [[0] * cols for _ in range(rows)]
    frac = False
    for c, m1, m2 in terms:
        nz2 = [_nonzeros(row) for row in m2.data]
        frac = (frac or type(c) is not int or _has_fraction(m1.data)
                or _nz_has_fraction(nz2))
        r2, c2 = m2.rows, m2.cols
        js = range(m1.cols)
        for i1, row1 in enumerate(m1.data):
            orows = out[i1 * r2:(i1 + 1) * r2]
            for j1 in compress(js, row1):
                ca = c * row1[j1]
                base_j = j1 * c2
                for orow, nzrow in zip(orows, nz2):
                    for j2, b in nzrow:
                        orow[base_j + j2] += ca * b
    return _mat(rows, cols, _ints(out) if frac else out)


def kron(m1, m2):
    """Kronecker product under the fixed row-major basis ordering."""
    return kron_sum([(1, m1, m2)], m1.rows * m2.rows, m1.cols * m2.cols)


def mul_kron_identity(m1, m2, n):
    """m1 @ kron(m2, I_n), without forming the Kronecker product: only
    nonzero products are written."""
    assert m1.cols == m2.rows * n, (m1.cols, m2.rows, n)
    nz = [_nonzeros(row) for row in m2.data]
    ks = range(m1.cols)
    out = []
    for row1 in m1.data:
        orow = [0] * (m2.cols * n)
        for k in compress(ks, row1):
            a = row1[k]
            t, c = divmod(k, n)
            for j, b in nz[t]:
                orow[j * n + c] += a * b
        out.append(orow)
    return _mat(m1.rows, m2.cols * n, _ints(out))


def _primitive(r):
    """Divide the integer row r ({col: int}, nonzero) by its content."""
    g = gcd(*r.values())
    if g != 1:
        for j, v in r.items():
            r[j] = v // g
    return r


def _int_rows(data):
    """The nonzero rows of data as primitive integer rows {col: int}, each
    a nonzero rational multiple of its row, so the row span is kept."""
    out = []
    for row in data:
        r = dict(_nonzeros(row))
        if not r:
            continue
        dens = [x.denominator for x in r.values() if type(x) is not int]
        if dens:
            d = lcm(*dens)
            r = {j: x.numerator * (d // x.denominator) for j, x in r.items()}
        out.append(_primitive(r))
    return out


def _rref_sparse(live, cols):
    """Fraction-free Gauss-Jordan elimination on primitive integer rows
    {col: int}.  Returns (pivot_col, row) in pivot order; each row is a
    primitive integer multiple of the matching row of the RREF.

    The pivot of each column is the shortest live row holding it.  A row
    r with entry c in the pivot column becomes (a/g) r - (c/g) piv, where
    a is the pivot entry and g = gcd(a, c), then loses its content: a
    nonzero multiple of r - (c/a) piv, with the same support."""
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
        a = piv[col]
        for r in live + [d for _, d in done]:
            c = r.get(col)
            if c:
                g = gcd(a, c)
                s, t = a // g, c // g
                if s != 1:
                    for j, v in r.items():
                        r[j] = v * s
                for j, v in piv.items():
                    nv = r.get(j, 0) - t * v
                    if nv:
                        r[j] = nv
                    else:
                        del r[j]
                if r:
                    _primitive(r)
        live = [r for r in live if r]
        done.append((col, piv))
    return done


def rref(m):
    """Unique reduced row echelon form with zero rows removed.

    Returns (Mat, pivot_column_list); rank == len(pivots).  Fractions are
    made only here, to scale each pivot row to pivot 1.
    """
    done = _rref_sparse(_int_rows(m.data), m.cols)
    data = []
    for col, r in done:
        p = r[col]
        row = [0] * m.cols
        for j, v in r.items():
            if p == 1 or p == -1:
                row[j] = v * p
            else:
                q = Fraction(v) / p
                row[j] = q.numerator if q.denominator == 1 else q
        data.append(row)
    return _mat(len(done), m.cols, data), [c for c, _ in done]


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
        for p, row in zip(self.pivots, self.basis.data):
            c = v[p]
            if c:
                for j, b in _nonzeros(row):
                    v[j] -= c * b
        return _ints([v])[0]

    def contains(self, vec):
        return not any(self.reduce(vec))

    def coordinates(self, vec):
        """Coefficients of vec in the RREF basis; None if not a member."""
        coords = [vec[p] for p in self.pivots]
        if not self.contains(vec):
            return None
        return coords

    def add(self, other):
        assert self.ambient_dim == other.ambient_dim
        return Subspace.from_rows(
            self.ambient_dim, vstack([self.basis, other.basis]))


def kernel(m):
    """Canonical basis of {x : m @ x = 0}; dim == cols - rank."""
    b, pivots = rref(m)
    pivset = set(pivots)
    free = [j for j in range(m.cols) if j not in pivset]
    rows = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for k, p in enumerate(pivots):
            c = b.data[k][f]
            if c:
                v[p] = -c
        rows.append(v)
    return Subspace.from_rows(m.cols, _mat(len(rows), m.cols, rows))


def image(m):
    """Canonical basis of the column span of m (as a subspace of Q^rows)."""
    return Subspace.from_rows(m.rows, m.transpose())


def intersect(s1, s2):
    """Canonical basis of s1 /\\ s2."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient-dimension mismatch: %d vs %d"
                         % (s1.ambient_dim, s2.ambient_dim))
    if s2.dim == s2.ambient_dim:
        return Subspace.from_rows(s1.ambient_dim, s1.basis)
    proj2, _ = quotient(s2.ambient_dim, s2)
    # x = c . B1 lies in s2  iff  proj2 @ B1^T c = 0.
    mat = proj2 @ s1.basis.transpose()
    coeffs = kernel(mat)
    return Subspace.from_rows(s1.ambient_dim, coeffs.basis @ s1.basis)


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
        proj.data[i][q] = 1
        sect.data[q][i] = 1
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
    x = [0] * a.cols
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
    return _mat(m.rows, m.rows, [row[m.rows:] for row in red.data])


def perm_matrix(perm):
    """Matrix sending e_j to e_{perm[j]}."""
    n = len(perm)
    m = Mat(n, n)
    for j, i in enumerate(perm):
        m.data[i][j] = 1
    return m


def basis_vector(n, i):
    v = [0] * n
    v[i] = 1
    return v


def rat_to_str(x):
    return str(_exact(x))


def rat_from_str(s):
    """Exact entry from an int or a string such as "-2/5" or "0.25".

    Raises ValueError for anything else: a float is not exact, and a zero
    denominator is no number."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise ValueError("not an exact rational: %r" % (s,))
    try:
        return _exact(Fraction(s))
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None

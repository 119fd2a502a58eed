"""Exact linear algebra over the rationals.

Sparse matrices of exact rational entries, canonical subspaces (reduced
row echelon bases), kernels, quotients and Kronecker products.
Everything downstream computes with these, so the canonical forms here
make all reported bases deterministic.

Conventions:
  * an entry is a Python int when it is integral and a
    ``fractions.Fraction`` with denominator > 1 otherwise; the public
    constructors normalize their input to this form once, and every
    result computed here keeps it;
  * a matrix is stored as sparse rows: row i is a dict {column: entry}
    of its nonzero entries, and no zero is ever stored, so every
    operation costs in proportion to the nonzeros it meets.  The format
    stays inside this module: other code builds matrices from dense rows
    (Mat(...)) or from entries (Mat.from_entries), and reads them back
    with entries(), select_rows(), row(), col() and tolist();
  * a matrix is not changed after it is built, so results may share rows
    with their operands;
  * vectors are plain (dense) lists of entries, matrices act on the left
    (m @ v);
  * a Subspace is represented by the unique RREF basis of its row span,
    computed by fraction-free elimination on primitive integer rows;
  * kron uses row-major flattening: basis vector (i, j) of U (x) W has
    flat index i * dim(W) + j, i.e. the left factor is the slow index.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

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
    """Turn, in place, the integral Fractions that arithmetic on Fraction
    entries leaves in freshly computed rows into ints; returns data.  The
    rows hold no zero."""
    if Fraction in set(map(type, chain.from_iterable(map(dict.values,
                                                          data)))):
        for row in data:
            for j, x in row.items():
                if type(x) is Fraction and x.denominator == 1:
                    row[j] = x.numerator
    return data


def _nonzero(row):
    """row without the zeros that cancellation left in it."""
    if all(row.values()):
        return row
    return {j: x for j, x in row.items() if x}


def _mat(rows, cols, data):
    """A Mat around sparse rows computed here: exact nonzero entries in
    range, so nothing is re-wrapped or re-checked."""
    m = Mat.__new__(Mat)
    m.rows = rows
    m.cols = cols
    m._data = data
    return m


def _columns(m, cols):
    """The columns cols (distinct) of m, in that order."""
    pos = {c: k for k, c in enumerate(cols)}
    return _mat(m.rows, len(cols),
                [{pos[j]: x for j, x in row.items() if j in pos}
                 for row in m._data])


class Mat:
    """rows x cols matrix with exact (int or Fraction) entries, held as
    sparse rows {column: nonzero entry}.

    Mat(rows, cols, dense_rows) is the front door for parsed and test
    input: it checks the shape and normalizes every entry; Mat(rows,
    cols) is the zero matrix."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self._data = [{} for _ in range(rows)]
            return
        data = [list(row) for row in data]
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError("entries do not form a %d x %d matrix"
                             % (rows, cols))
        self._data = [{j: x for j, x in enumerate(map(_exact, row)) if x}
                      for row in data]

    @staticmethod
    def from_rows(rows_list, cols=None):
        rows_list = list(rows_list)
        if cols is None:
            cols = len(rows_list[0]) if rows_list else 0
        return Mat(len(rows_list), cols, rows_list)

    @staticmethod
    def from_entries(rows, cols, entries):
        """The rows x cols matrix whose entry (i, j) is the sum of the
        values v of the (i, j, v) in entries (exact values; a position
        may repeat)."""
        data = [{} for _ in range(rows)]
        for i, j, v in entries:
            row = data[i]
            row[j] = row.get(j, 0) + v
        for i, row in enumerate(data):
            if row:
                if min(row) < 0 or max(row) >= cols:
                    raise ValueError("entry outside a %d x %d matrix"
                                     % (rows, cols))
                data[i] = _nonzero(row)
        return _mat(rows, cols, _ints(data))

    @staticmethod
    def identity(n):
        return _mat(n, n, [{i: 1} for i in range(n)])

    @staticmethod
    def zeros(rows, cols):
        return Mat(rows, cols)

    def entries(self):
        """The (i, j, entry) of the nonzero entries, row by row."""
        return ((i, j, x) for i, row in enumerate(self._data)
                for j, x in row.items())

    def select_rows(self, rows):
        """The matrix of the rows with the given indices, in that order."""
        rows = list(rows)
        data = self._data
        return _mat(len(rows), self.cols, [data[i] for i in rows])

    def tolist(self):
        """The dense rows, as lists of entries."""
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self._data == other._data)

    def __repr__(self):
        return "Mat(%d, %d, %r)" % (self.rows, self.cols,
                                    [[str(x) for x in row]
                                     for row in self.tolist()])

    def is_zero(self):
        return not any(self._data)

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return _mat(self.rows, self.cols,
                    [_sum_rows(r1, r2, 1)
                     for r1, r2 in zip(self._data, other._data)])

    def __sub__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return _mat(self.rows, self.cols,
                    [_sum_rows(r1, r2, -1)
                     for r1, r2 in zip(self._data, other._data)])

    def __neg__(self):
        return _mat(self.rows, self.cols,
                    [{j: -x for j, x in r.items()} for r in self._data])

    def scale(self, c):
        c = _exact(c)
        if not c:
            return Mat(self.rows, self.cols)
        return _mat(self.rows, self.cols,
                    _ints([{j: c * x for j, x in r.items()}
                           for r in self._data]))

    def __matmul__(self, other):
        assert self.cols == other.rows, (self.cols, other.rows)
        odata = other._data
        out = []
        for row in self._data:
            if len(row) == 1:
                (k, a), = row.items()
                acc = odata[k]
                if a != 1:
                    acc = {j: a * b for j, b in acc.items()}
            elif row:
                items = iter(row.items())
                k, a = next(items)
                acc = {j: a * b for j, b in odata[k].items()}
                for k, a in items:
                    for j, b in odata[k].items():
                        if j in acc:
                            acc[j] += a * b
                        else:
                            acc[j] = a * b
                acc = _nonzero(acc)
            else:
                acc = row
            out.append(acc)
        return _mat(self.rows, other.cols, _ints(out))

    def apply(self, vec):
        """Matrix times column vector (a list)."""
        assert len(vec) == self.cols
        return [_exact(sum([x * vec[j] for j, x in row.items()]))
                for row in self._data]

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, x in row.items():
                out[j][i] = x
        return _mat(self.cols, self.rows, out)

    def row(self, i):
        out = [0] * self.cols
        for j, x in self._data[i].items():
            out[j] = x
        return out

    def col(self, j):
        return [row.get(j, 0) for row in self._data]


def _sum_rows(r1, r2, sign):
    """The sparse row r1 + sign * r2."""
    if not r2:
        return r1
    if not r1 and sign == 1:
        return r2
    out = dict(r1)
    for j, x in r2.items():
        v = out.get(j, 0) + sign * x
        if v:
            out[j] = v.numerator if (type(v) is Fraction
                                     and v.denominator == 1) else v
        elif j in out:
            del out[j]
    return out


def vstack(mats):
    mats = [m for m in mats]
    assert mats
    cols = mats[0].cols
    rows = []
    for m in mats:
        assert m.cols == cols
        rows.extend(m._data)
    return _mat(len(rows), cols, rows)


def hstack(mats):
    mats = [m for m in mats]
    assert mats
    rows = mats[0].rows
    blocks, off = [], 0
    for m in mats:
        assert m.rows == rows
        blocks.append((0, off, m))
        off += m.cols
    return place_blocks(rows, off, blocks)


def place_blocks(rows, cols, blocks):
    """The rows x cols matrix holding each m of the (row offset, column
    offset, m) in blocks at that offset, zero elsewhere; the blocks must
    not overlap.  Rows are placed whole, not entry by entry, and one block
    that fills the matrix is the matrix."""
    if len(blocks) == 1:
        r0, c0, m = blocks[0]
        if (r0, c0, m.rows, m.cols) == (0, 0, rows, cols):
            return m
    data = [{} for _ in range(rows)]
    for r0, c0, m in blocks:
        if r0 < 0 or c0 < 0 or r0 + m.rows > rows or c0 + m.cols > cols:
            raise ValueError("a %d x %d block at (%d, %d) is outside a "
                             "%d x %d matrix" % (m.rows, m.cols, r0, c0,
                                                 rows, cols))
        for i, row in enumerate(m._data, r0):
            if row:
                if c0:
                    row = {c0 + j: x for j, x in row.items()}
                # rows are not changed once built, so a row placed alone
                # is shared with its block
                data[i] = {**data[i], **row} if data[i] else row
    return _mat(rows, cols, data)


def kron_sum(terms, rows, cols):
    """Sum of c * kron(A, B) over the (c, A, B) in terms, a rows x cols
    matrix; each term is built row by row from the nonzeros of A and B."""
    out = None
    for c, m1, m2 in terms:
        c = _exact(c)
        if not c:
            continue
        d2, c2 = m2._data, m2.cols
        term = []
        for row1 in m1._data:
            if not row1:
                # rows are not changed once built, so empty ones are shared
                term.extend([row1] * len(d2))
                continue
            if c != 1:
                row1 = {j: c * a for j, a in row1.items()}
            items1 = row1.items()
            for row2 in d2:
                term.append({j1 * c2 + j2: a * b for j1, a in items1
                             for j2, b in row2.items()} if row2 else row2)
        out = term if out is None else [_sum_rows(r1, r2, 1)
                                        for r1, r2 in zip(out, term)]
    if out is None:
        return Mat(rows, cols)
    return _mat(rows, cols, _ints(out))


def kron(m1, m2):
    """Kronecker product under the fixed row-major basis ordering."""
    return kron_sum([(1, m1, m2)], m1.rows * m2.rows, m1.cols * m2.cols)


def mul_kron_identity(m1, m2, n):
    """m1 @ kron(m2, I_n), without forming the Kronecker product: only
    nonzero products are written."""
    assert m1.cols == m2.rows * n, (m1.cols, m2.rows, n)
    d2 = m2._data
    out = []
    for row1 in m1._data:
        orow = {}
        for k, a in row1.items():
            t, c = divmod(k, n)
            for j, b in d2[t].items():
                j = j * n + c
                if j in orow:
                    orow[j] += a * b
                else:
                    orow[j] = a * b
        out.append(_nonzero(orow))
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
        if not row:
            continue
        dens = [x.denominator for x in row.values() if type(x) is not int]
        if dens:
            d = lcm(*dens)
            r = {j: x.numerator * (d // x.denominator)
                 for j, x in row.items()}
        else:
            r = dict(row)
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
    done = _rref_sparse(_int_rows(m._data), m.cols)
    data = []
    for col, r in done:
        p = r[col]
        if p == 1:
            data.append(r)
        elif p == -1:
            data.append({j: -v for j, v in r.items()})
        else:
            row = {}
            for j, v in r.items():
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
        for p, row in zip(self.pivots, self.basis._data):
            c = v[p]
            if c:
                for j, b in row.items():
                    v[j] -= c * b
        return [_exact(x) for x in v]

    def contains(self, vec):
        return not any(self.reduce(vec))

    def coordinates(self, vec):
        """Coefficients of vec in the RREF basis; None if not a member."""
        coords = [vec[p] for p in self.pivots]
        if not self.contains(vec):
            return None
        return coords


def kernel(m):
    """Canonical basis of {x : m @ x = 0}; dim == cols - rank."""
    b, pivots = rref(m)
    pivset = set(pivots)
    free = {f: k for k, f in
            enumerate(j for j in range(m.cols) if j not in pivset)}
    rows = [{f: 1} for f in free]
    for p, row in zip(pivots, b._data):
        for j, c in row.items():
            if j in free:
                rows[free[j]][p] = -c
    return Subspace.from_rows(m.cols, _mat(len(rows), m.cols, rows))


def image(m):
    """Canonical basis of the column span of m (as a subspace of Q^rows)."""
    return Subspace.from_rows(m.rows, m.transpose())


def quotient(ambient_dim, s):
    """Projection/section pair for Q^ambient / s.

    The quotient basis is the non-pivot coordinates of s, so
    projection @ section == identity and kernel(projection) == s.
    """
    if s.ambient_dim != ambient_dim:
        raise ValueError("ambient-dimension mismatch")
    pivset = set(s.pivots)
    free = [j for j in range(ambient_dim) if j not in pivset]
    pos = {q: i for i, q in enumerate(free)}
    proj = [{q: 1} for q in free]
    sect = [{} for _ in range(ambient_dim)]
    for q, i in pos.items():
        sect[q][i] = 1
    for p, row in zip(s.pivots, s.basis._data):
        for q, c in row.items():
            if q in pos:
                proj[pos[q]][p] = -c
    return (_mat(len(free), ambient_dim, proj),
            _mat(ambient_dim, len(free), sect))


def inverse(m):
    """Inverse of a square matrix; raises ValueError if singular."""
    assert m.rows == m.cols
    n = m.rows
    red, pivots = rref(hstack([m, Mat.identity(n)]))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return _mat(n, n, [{j - n: x for j, x in row.items() if j >= n}
                       for row in red._data])


def perm_matrix(perm):
    """Matrix sending e_j to e_{perm[j]}."""
    n = len(perm)
    data = [{} for _ in range(n)]
    for j, i in enumerate(perm):
        data[i][j] = 1
    return _mat(n, n, data)


def swap_matrix(a, b):
    """Permutation matrix from (x slow, w fast) to (w slow, x fast), for
    x < a and w < b."""
    return perm_matrix([w * a + x for x in range(a) for w in range(b)])


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

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
  * a matrix records whether an entry may be a Fraction (_frac): when it
    is false, none is.  The constructors set it, every operation carries
    it forward, and rref sets it when a pivot row is divided by an entry
    other than 1 or -1; a result is scanned for integral Fractions
    (_ints) only when an operand or coefficient may hold a Fraction;
  * matrices act on the left (m @ x), and a set of vectors is the
    columns of one matrix;
  * a Subspace is represented by the unique RREF basis of its row span,
    computed by fraction-free elimination on primitive integer rows;
    coordinates in it are read off at its pivots (read_off);
  * kron uses row-major flattening: basis vector (i, j) of U (x) W has
    flat index i * dim(W) + j, i.e. the left factor is the slow index;
    kron and kron_sum take an int n for an n x n identity factor, which
    is never formed.
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


def _has_frac(data):
    """Whether an entry of the sparse rows data is a Fraction."""
    return Fraction in set(map(type, chain.from_iterable(map(dict.values,
                                                             data))))


def _ints(data):
    """Turn, in place, the integral Fractions that arithmetic on Fraction
    entries leaves in freshly computed rows into ints; returns whether a
    Fraction is left.  The rows hold no zero."""
    if not _has_frac(data):
        return False
    left = False
    for row in data:
        for j, x in row.items():
            if type(x) is Fraction:
                if x.denominator == 1:
                    row[j] = x.numerator
                else:
                    left = True
    return left


def _nonzero(row):
    """row without the zeros that cancellation left in it."""
    if all(row.values()):
        return row
    return {j: x for j, x in row.items() if x}


def _mat(rows, cols, data, frac):
    """A Mat around sparse rows computed here: exact nonzero entries in
    range, so nothing is re-wrapped or re-checked; frac is false only when
    no entry is a Fraction."""
    m = Mat.__new__(Mat)
    m.rows = rows
    m.cols = cols
    m._data = data
    m._frac = frac
    return m


def _mismatch(op, m1, m2):
    """The ValueError of op on two matrices whose shapes do not fit."""
    return ValueError("%s of a %d x %d and a %d x %d matrix"
                      % (op, m1.rows, m1.cols, m2.rows, m2.cols))


def _columns(m, cols):
    """The columns cols (distinct) of m, in that order."""
    pos = {c: k for k, c in enumerate(cols)}
    return _mat(m.rows, len(cols),
                [{pos[j]: x for j, x in row.items() if j in pos}
                 for row in m._data], m._frac)


class Mat:
    """rows x cols matrix with exact (int or Fraction) entries, held as
    sparse rows {column: nonzero entry}.

    Mat(rows, cols, dense_rows) is the front door for parsed and test
    input: it checks the shape and normalizes every entry; Mat(rows,
    cols) is the zero matrix."""

    __slots__ = ("rows", "cols", "_data", "_frac")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        self._frac = False
        if data is None:
            self._data = [{} for _ in range(rows)]
            return
        data = [list(row) for row in data]
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError("entries do not form a %d x %d matrix"
                             % (rows, cols))
        self._data = [{j: x for j, x in enumerate(map(_exact, row)) if x}
                      for row in data]
        self._frac = _has_frac(self._data)

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
        return _mat(rows, cols, data, _ints(data))

    @staticmethod
    def identity(n):
        return _mat(n, n, [{i: 1} for i in range(n)], False)

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
        return _mat(len(rows), self.cols, [data[i] for i in rows],
                    self._frac)

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
        return self._plus(other, 1, "sum")

    def __sub__(self, other):
        return self._plus(other, -1, "difference")

    def _plus(self, other, sign, op):
        if self.rows != other.rows or self.cols != other.cols:
            raise _mismatch(op, self, other)
        return _mat(self.rows, self.cols,
                    [_sum_rows(r1, r2, sign)
                     for r1, r2 in zip(self._data, other._data)],
                    self._frac or other._frac)

    def __neg__(self):
        return _mat(self.rows, self.cols,
                    [{j: -x for j, x in r.items()} for r in self._data],
                    self._frac)

    def scale(self, c):
        c = _exact(c)
        if not c:
            return Mat(self.rows, self.cols)
        out = [{j: c * x for j, x in r.items()} for r in self._data]
        frac = self._frac or type(c) is Fraction
        return _mat(self.rows, self.cols, out, frac and _ints(out))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise _mismatch("product", self, other)
        odata = other._data
        out = []
        for row in self._data:
            if len(row) == 1:
                (k, a), = row.items()
                acc = odata[k]
                if a != 1:
                    acc = {j: a * b for j, b in acc.items()}
            elif row:
                acc, hit = {}, False
                for k, a in row.items():
                    for j, b in odata[k].items():
                        if j in acc:
                            acc[j] += a * b
                            hit = True
                        else:
                            acc[j] = a * b
                if hit:
                    # only two products meeting can leave a zero
                    acc = _nonzero(acc)
            else:
                acc = row
            out.append(acc)
        frac = self._frac or other._frac
        return _mat(self.rows, other.cols, out, frac and _ints(out))

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, x in row.items():
                out[j][i] = x
        return _mat(self.cols, self.rows, out, self._frac)

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
    mats = list(mats)
    if not mats:
        raise ValueError("no matrices to stack")
    rows = []
    for m in mats:
        if m.cols != mats[0].cols:
            raise _mismatch("vstack", mats[0], m)
        rows.extend(m._data)
    return _mat(len(rows), mats[0].cols, rows,
                any(m._frac for m in mats))


def hstack(mats):
    mats = list(mats)
    if not mats:
        raise ValueError("no matrices to stack")
    blocks, off = [], 0
    for m in mats:
        if m.rows != mats[0].rows:
            raise _mismatch("hstack", mats[0], m)
        blocks.append((0, off, m))
        off += m.cols
    return place_blocks(mats[0].rows, off, blocks)


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
    return _mat(rows, cols, data, any(m._frac for _, _, m in blocks))


def _factor(f):
    """(rows, cols, sparse rows, frac) of a Kronecker factor: a Mat, or an
    int n for the n x n identity, whose rows are None."""
    if type(f) is int:
        return f, f, None, False
    return f.rows, f.cols, f._data, f._frac


def kron_sum(terms, rows, cols):
    """Sum of c * kron(A, B) over the (c, A, B) in terms, a rows x cols
    matrix; a factor given as an int n is the n x n identity, which is
    never formed.  Every product of a nonzero of A with a nonzero of B is
    added straight into its row of the sum, so no term is built apart."""
    parts, frac, alone = [], False, None
    for c, m1, m2 in terms:
        c = _exact(c)
        r1, _, d1, frac1 = _factor(m1)
        r2, c2, d2, frac2 = _factor(m2)
        if c and (d1 is None or any(d1)) and (d2 is None or any(d2)):
            parts.append((c, d1, d2))
            frac = frac or frac1 or frac2 or type(c) is Fraction
            # kron(I_1, B) is B and kron(A, I_1) is A
            if c == 1 and (r1, d1) == (1, None) and d2 is not None:
                alone = m2
            elif c == 1 and (r2, d2) == (1, None) and d1 is not None:
                alone = m1
    if not parts:
        return Mat(rows, cols)
    if len(parts) == 1 and alone is not None:
        return alone
    out = [{} for _ in range(rows)]
    hits = set()            # the rows where two terms met, which may hold 0
    for c, d1, d2 in parts:
        for i1 in range(r1):
            row1 = {i1: 1} if d1 is None else d1[i1]
            for j1, a in row1.items():
                a *= c
                # entry (i1 * r2 + i2, j1 * c2 + j2) is a * B[i2, j2]
                i0, j0 = i1 * r2, j1 * c2
                if d2 is None:
                    for i2 in range(r2):
                        row, j = out[i0 + i2], j0 + i2
                        if j in row:
                            row[j] += a
                            hits.add(i0 + i2)
                        else:
                            row[j] = a
                    continue
                for i2, row2 in enumerate(d2):
                    row = out[i0 + i2]
                    for j2, b in row2.items():
                        j = j0 + j2
                        if j in row:
                            row[j] += a * b
                            hits.add(i0 + i2)
                        else:
                            row[j] = a * b
    for i in hits:
        out[i] = _nonzero(out[i])
    return _mat(rows, cols, out, frac and _ints(out))


def kron(m1, m2):
    """Kronecker product under the fixed row-major basis ordering; an int
    n for a factor is the n x n identity."""
    (r1, c1, _, _), (r2, c2, _, _) = _factor(m1), _factor(m2)
    return kron_sum([(1, m1, m2)], r1 * r2, c1 * c2)


def mul_kron_identity(m1, m2, n):
    """m1 @ kron(m2, I_n), without forming the Kronecker product: only
    nonzero products are written."""
    if m1.cols != m2.rows * n:
        raise ValueError("product of a %d x %d matrix and kron(%d x %d, "
                         "I_%d)" % (m1.rows, m1.cols, m2.rows, m2.cols, n))
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
    frac = m1._frac or m2._frac
    return _mat(m1.rows, m2.cols * n, out, frac and _ints(out))


def _primitive(r):
    """Divide the integer row r ({col: int}, nonzero) by its content."""
    g = gcd(*r.values())
    if g != 1:
        for j, v in r.items():
            r[j] = v // g
    return r


def _int_rows(data, frac):
    """The nonzero rows of data as primitive integer rows {col: int}, each
    a nonzero rational multiple of its row, so the row span is kept; frac
    is false when no entry is a Fraction."""
    if not frac:
        return [_primitive(dict(row)) for row in data if row]
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


def _rref_sparse(rows):
    """Fraction-free Gauss-Jordan elimination on primitive integer rows
    {col: int}.  Returns (pivot_col, row) in pivot order; each row is a
    primitive integer multiple of the matching row of the RREF.

    The pivot of each column is the shortest live (not yet pivot) row
    holding it, the earliest one on a tie.  A row r with entry c in the
    pivot column becomes (a/g) r - (c/g) piv, where a is the pivot entry
    and g = gcd(a, c), then loses its content: a nonzero multiple of
    r - (c/a) piv, with the same support.  holding maps each column to the
    indices of the rows with an entry there, so each column visits only
    those rows; the columns held never grow, as a row gains only columns
    of the pivot row."""
    holding = {}
    for k, r in enumerate(rows):
        for j in r:
            if j in holding:
                holding[j].add(k)
            else:
                holding[j] = {k}
    live = [True] * len(rows)
    done = []
    for col in sorted(holding):
        ks = holding[col]
        best = min(((len(rows[k]), k) for k in ks if live[k]), default=None)
        if best is None:
            continue
        best = best[1]
        live[best] = False
        piv = rows[best]
        a = piv[col]
        for k in [k for k in ks if k != best]:
            r = rows[k]
            c = r[col]
            g = gcd(a, c)
            s, t = a // g, c // g
            if s != 1:
                for j, v in r.items():
                    r[j] = v * s
            for j, v in piv.items():
                if j in r:
                    nv = r[j] - t * v
                    if nv:
                        r[j] = nv
                    else:
                        del r[j]
                        holding[j].discard(k)
                else:
                    r[j] = -t * v
                    holding[j].add(k)
            if r:
                _primitive(r)
        done.append((col, piv))
    return done


def rref(m):
    """Unique reduced row echelon form with zero rows removed.

    Returns (Mat, pivot_column_list); rank == len(pivots).  Fractions are
    made only here, to scale each pivot row to pivot 1.
    """
    done = _rref_sparse(_int_rows(m._data, m._frac))
    data, frac = [], False
    for col, r in done:
        p = r[col]
        if p == 1:
            data.append(r)
        elif p == -1:
            data.append({j: -v for j, v in r.items()})
        else:
            # r is primitive, so some entry is not a multiple of p
            frac = True
            row = {}
            for j, v in r.items():
                q = Fraction(v) / p
                row[j] = q.numerator if q.denominator == 1 else q
            data.append(row)
    return _mat(len(done), m.cols, data, frac), [c for c, _ in done]


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
        if m.cols != ambient_dim:
            raise ValueError("rows of length %d span no subspace of Q^%d"
                             % (m.cols, ambient_dim))
        b, piv = rref(m)
        return Subspace(ambient_dim, b, piv)

    @staticmethod
    def zero(ambient_dim):
        return Subspace(ambient_dim, Mat(0, ambient_dim), [])

    @property
    def dim(self):
        return self.basis.rows

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return "Subspace(ambient=%d, dim=%d)" % (self.ambient_dim, self.dim)

    def coordinates(self, m):
        """The coefficients, in the RREF basis, of the columns of m (an
        ambient_dim x k matrix): the dim x k matrix x with
        basis^T @ x == m; None if a column is not in the subspace."""
        return read_off(self.basis.transpose(), self.pivots, m)


def read_off(incl, rows, y):
    """The coordinates x of the columns of y in the columns of incl, where
    each column of incl has a 1 in its row of rows and the other columns a
    0 there: y read at those rows, checked by incl @ x == y exactly; None
    if a column of y is not in the column span of incl."""
    x = y.select_rows(rows)
    return x if incl @ x == y else None


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
    return Subspace.from_rows(m.cols, _mat(len(rows), m.cols, rows, b._frac))


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
    return (_mat(len(free), ambient_dim, proj, s.basis._frac),
            _mat(ambient_dim, len(free), sect, False))


def inverse(m):
    """Inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a %d x %d matrix" % (m.rows, m.cols))
    n = m.rows
    red, pivots = rref(hstack([m, Mat.identity(n)]))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return _mat(n, n, [{j - n: x for j, x in row.items() if j >= n}
                       for row in red._data], red._frac)


def perm_matrix(perm):
    """Matrix sending e_j to e_{perm[j]}."""
    n = len(perm)
    data = [{} for _ in range(n)]
    for j, i in enumerate(perm):
        data[i][j] = 1
    return _mat(n, n, data, False)


def swap_matrix(a, b):
    """Permutation matrix from (x slow, w fast) to (w slow, x fast), for
    x < a and w < b."""
    return perm_matrix([w * a + x for x in range(a) for w in range(b)])


def rat_from_str(s):
    """Exact entry from an int or a string such as "-2/5" or "0.25".

    Raises ValueError for anything else: a float is not exact, a zero
    denominator is no number, and exponent notation is not read, as
    Fraction would build the power of ten of "1e999999999" first."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise ValueError("not an exact rational: %r" % (s,))
    if isinstance(s, str) and "e" in s.lower():
        raise ValueError("not an int, p/q or decimal: %r" % (s,))
    try:
        return _exact(Fraction(s))
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None

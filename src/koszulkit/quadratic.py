"""Quadratic algebras over the rationals, truncated to a finite degree.

A quadratic presentation is a generator basis V together with a relation
subspace R inside V (x) V.  From it we grow the graded algebra H degree by
degree in quotient coordinates: H_i is H_{i-1} (x) V modulo the image of
H_{i-2} (x) R, with the normal words as basis, so no relation ideal is
ever formed on the tensor power V^(x)i.  The module also builds the
Koszul subspaces K_i (each inside K_{i-1} (x) V), the quadratic dual, the
left/right Koszul complexes, the contraction actions of the dual on the
Koszul subspaces, and the pairing-transport matrices psi_bar used by the
duality module.  Every one of them is held in the coordinates of H_i and
K_i and grown from degree i - 1: products from the quotient maps
H_{i-1} (x) V -> H_i, the left inclusion of K_i and the contractions from
the right inclusions, and the pairings from the pairing one degree down.

Conventions (fixed once, everything else is derived from them):
  * monomials of V^(x)i are ordered lexicographically by generator index,
    flattened row-major: word (a_1..a_i) has index sum a_k n^(i-k);
  * a word is normal when it is not the lowest-index word of any element
    of the degree-i relation ideal; H_i has the normal words as basis, in
    increasing order, and every word acts through its normal form;
  * the pairing of dual words with words is order-reversing:
    <xi_1(x)...(x)xi_r , v_1(x)...(x)v_r> = prod_k xi_k(v_{r+1-k}).
The mandatory intertwiner self-test (verify_psi_intertwiner) fails loudly
if any construction drifts from these conventions.
"""

from __future__ import annotations

from koszulkit.exactlin import (
    F0, F1, Mat, Subspace, _columns, inverse, kernel, kron, mul_kron_identity,
    quotient, rat_from_str, rat_to_str, read_off, swap_matrix, vstack,
)
from koszulkit.graded import BigradedComplex


# ---------------------------------------------------------------------------
# words and flat indices

def word_index(word, n):
    idx = 0
    for a in word:
        idx = idx * n + a
    return idx


def index_word(idx, n, r):
    w = []
    for _ in range(r):
        w.append(idx % n)
        idx //= n
    return tuple(reversed(w))


def reversal_perm(n, r):
    """Permutation list p with p[index(w)] = index(reversed w)."""
    total = n ** r
    perm = [0] * total
    for idx in range(total):
        perm[idx] = word_index(tuple(reversed(index_word(idx, n, r))), n)
    return perm


# ---------------------------------------------------------------------------
# presentations

class QuadraticPresentation:
    """Generator labels plus a canonical relation subspace R in V (x) V."""

    def __init__(self, gen_names, relations):
        self.gen_names = list(gen_names)
        n = len(self.gen_names)
        if relations.ambient_dim != n * n:
            raise ValueError("relations live in dimension %d, not %d x %d"
                             % (relations.ambient_dim, n, n))
        self.relations = relations

    @property
    def n(self):
        return len(self.gen_names)

    def __eq__(self, other):
        return (isinstance(other, QuadraticPresentation)
                and self.gen_names == other.gen_names
                and self.relations == other.relations)

    def __repr__(self):
        return "QuadraticPresentation(%r, dim R=%d)" % (self.gen_names,
                                                        self.relations.dim)

    def to_json_obj(self):
        n = self.n
        rels = []
        for row in self.relations.basis.tolist():
            terms = []
            for idx, c in enumerate(row):
                if c:
                    a, b = index_word(idx, n, 2)
                    terms.append({"c": rat_to_str(c),
                                  "m": [self.gen_names[a], self.gen_names[b]]})
            rels.append({"terms": terms})
        return {"generators": list(self.gen_names), "relations": rels}

    @staticmethod
    def from_json_obj(obj):
        gens = obj["generators"]
        if not (isinstance(gens, list)
                and all(isinstance(g, str) for g in gens)):
            raise ValueError("generators must be a list of names, got %r"
                             % (gens,))
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator names")
        n = len(gens)
        pos = {g: i for i, g in enumerate(gens)}
        rows = []
        for rel in obj.get("relations", []):
            v = [F0] * (n * n)
            for term in rel["terms"]:
                c = rat_from_str(term["c"])
                m = term["m"]
                if (not isinstance(m, list) or len(m) != 2
                        or m[0] not in pos or m[1] not in pos):
                    raise ValueError("bad monomial %r" % (m,))
                v[pos[m[0]] * n + pos[m[1]]] += c
            rows.append(v)
        return QuadraticPresentation(gens, Subspace.from_rows(n * n, rows))


def _gen_names(n):
    if n == 1:
        return ["t"]
    return ["x%d" % (i + 1) for i in range(n)]


def sym_presentation(n):
    """Polynomial algebra on n generators: commutator relations."""
    names = _gen_names(n)
    rows = []
    for a in range(n):
        for b in range(a + 1, n):
            v = [F0] * (n * n)
            v[a * n + b] = F1
            v[b * n + a] = -F1
            rows.append(v)
    return QuadraticPresentation(names, Subspace.from_rows(n * n, rows))


def ext_presentation(n):
    """Exterior algebra on n generators: squares and anticommutators."""
    names = _gen_names(n)
    rows = []
    for a in range(n):
        v = [F0] * (n * n)
        v[a * n + a] = F1
        rows.append(v)
    for a in range(n):
        for b in range(a + 1, n):
            v = [F0] * (n * n)
            v[a * n + b] = F1
            v[b * n + a] = F1
            rows.append(v)
    return QuadraticPresentation(names, Subspace.from_rows(n * n, rows))


def free_presentation(n):
    """Free algebra on n generators: no relations."""
    names = _gen_names(n)
    return QuadraticPresentation(names, Subspace.zero(n * n))


# ---------------------------------------------------------------------------
# growth

class TruncatedGradedAlgebra:
    """A = T(V)/(R) truncated at degree N, grown by normal words.

    H_i = V^(x)i / I_i, where I_i is the degree-i part of the two-sided
    ideal generated by R.  Its basis is the normal words of degree i, the
    words that are not the leading (lowest-index) word of any element of
    I_i; words[i] lists their flat indices in increasing order.  Normal
    words are closed under prefixes and suffixes, so every object here is
    held in quotient coordinates and grown one degree at a time:
      * mult(i - 1, 1), the quotient H_{i-1} (x) V -> H_i, is stored from
        growth; split_last(i) gives the columns of H_{i-1} (x) V at which
        the normal words of degree i sit, and split_first(i) those of
        V (x) H_{i-1};
      * K_i, the Koszul subspace of V^(x)i, is held by incl_right(i), its
        coordinates in K_{i-1} (x) V, an RREF coefficient basis whose
        pivot rows read off K_i coordinates; incl_left(i) gives its
        coordinates in V (x) K_{i-1}.
    Nothing on the tensor power V^(x)i is ever formed.
    """

    def __init__(self, pres, N, words, cand, quot, incl_right, kpiv):
        self.pres = pres
        self.N = N
        self.n = pres.n
        self.words = words
        self._cand = cand
        self._incl_right = incl_right
        self._kpiv = kpiv
        self._mult = {(i - 1, 1): quot[i] for i in range(2, N + 1)}
        self._incl_left = {}
        self._first = {}
        self._left_pivots = {}
        self._contractions = {}
        self._generator_mults = {}
        self._m_bar = {}
        self._koszulity = None

    def _check(self, i):
        if not 0 <= i <= self.N:
            raise ValueError("degree %d outside 0..%d" % (i, self.N))

    def hdim(self, i):
        self._check(i)
        return len(self.words[i])

    def kdim(self, i):
        self._check(i)
        return self._incl_right[i].cols if i else 1

    def hdims(self):
        return [self.hdim(i) for i in range(self.N + 1)]

    def kdims(self):
        return [self.kdim(i) for i in range(self.N + 1)]

    def normal_monomials(self, i):
        """Labels of the normal-monomial basis of H_i."""
        names = self.pres.gen_names
        return ["*".join(names[a] for a in index_word(idx, self.n, i)) or "1"
                for idx in self.words[i]]

    def split_last(self, i):
        """Column of H_{i-1} (x) V of each normal word u.v of degree i."""
        self._check(i)
        return self._cand[i]

    def split_first(self, i):
        """Column of V (x) H_{i-1} of each normal word a.w of degree i."""
        cols = self._first.get(i)
        if cols is None:
            self._check(i)
            stride = self.n ** (i - 1)
            pos = {w: k for k, w in enumerate(self.words[i - 1])}
            h = len(pos)
            cols = [w // stride * h + pos[w % stride] for w in self.words[i]]
            self._first[i] = cols
        return cols

    def mult(self, i, j):
        """Matrix of H_i (x) H_j -> H_{i+j} (concatenation of monomials).

        For j > 1 it follows from mult(i, j - 1) and mult(i + j - 1, 1):
        with u.v the normal word of degree j, NF(x.u.v) is the quotient
        of NF(x.u) (x) v."""
        key = (i, j)
        m = self._mult.get(key)
        if m is None:
            self._check(i)
            self._check(i + j)
            if i == 0 or j == 0:
                m = Mat.identity(self.hdim(i + j))
            else:
                wide = mul_kron_identity(self.mult(i + j - 1, 1),
                                         self.mult(i, j - 1), self.n)
                stride = self.hdim(j - 1) * self.n
                cols = self.split_last(j)
                m = _columns(wide, [x * stride + c
                                    for x in range(self.hdim(i))
                                    for c in cols])
            self._mult[key] = m
        return m

    def incl_right(self, i):
        """Coordinates of the inclusion K_i -> K_{i-1} (x) V."""
        if not 1 <= i <= self.N:
            raise ValueError("degree %d outside 1..%d" % (i, self.N))
        return self._incl_right[i]

    def incl_left(self, i):
        """Coordinates of the inclusion K_i -> V (x) K_{i-1}.

        Through K_i -> K_{i-1} (x) V -> V (x) K_{i-2} (x) V, the slice of K_i
        at each first letter lies in K_{i-1} inside K_{i-2} (x) V, where
        k_coordinates reads it off."""
        m = self._incl_left.get(i)
        if m is None:
            right = self.incl_right(i)
            n = self.n
            if i == 1:
                m = right
            else:
                w = self.kdim(i - 2) * n
                # (incl_left(i - 1) (x) I_n) incl_right(i), rows (a, t, v)
                z = mul_kron_identity(right.transpose(),
                                      self.incl_left(i - 1).transpose(),
                                      n).transpose()
                blocks = []
                for a in range(n):
                    x = self.k_coordinates(
                        i - 1, z.select_rows(range(a * w, (a + 1) * w)),
                        "right")
                    if x is None:
                        raise ValueError("K_%d is not inside V (x) K_%d"
                                         % (i, i - 1))
                    blocks.append(x)
                m = vstack(blocks) if blocks else Mat(0, right.cols)
            self._incl_left[i] = m
        return m

    def k_coordinates(self, i, y, side):
        """The K_i coordinates x of the columns of y, given in K_{i-1} (x) V
        (side "right") or V (x) K_{i-1} ("left"), so that
        incl(i) @ x == y exactly; None if a column is not in K_i.

        x is y read off (read_off) at one row per column of the inclusion,
        where that column has a 1 and the others a 0: the RREF pivots of
        incl_right(i), and the leading rows of incl_left(i), as the
        leading word of a K_i basis vector is a letter followed by the
        leading word of a K_{i-1} basis vector."""
        if side == "right":
            incl, rows = self.incl_right(i), self._kpiv[i]
        else:
            incl = self.incl_left(i)
            rows = self._left_pivots.get(i)
            if rows is None:
                first = {}
                for r, c, _x in incl.entries():
                    first.setdefault(c, r)
                rows = self._left_pivots[i] = [first[c]
                                               for c in range(incl.cols)]
        return read_off(incl, rows, y)

    def contraction(self, i, a, side):
        """K_i -> K_{i-1} stripping the last letter (side "right") or the
        first letter ("left") against the a-th dual generator: a row slice
        of incl_right(i) or incl_left(i)."""
        key = (i, a, side)
        m = self._contractions.get(key)
        if m is None:
            kp, n = self.kdim(i - 1), self.n
            if side == "right":
                m = self.incl_right(i).select_rows(range(a, kp * n, n))
            else:
                m = self.incl_left(i).select_rows(range(a * kp, (a + 1) * kp))
            self._contractions[key] = m
        return m

    def generator_mult(self, i, a, side):
        """H_i -> H_{i+1} multiplying by the a-th generator on the left
        (side "left") or on the right ("right"): a column slice of
        mult(1, i) or mult(i, 1)."""
        key = (i, a, side)
        m = self._generator_mults.get(key)
        if m is None:
            hi, n = self.hdim(i), self.n
            if side == "left":
                m = _columns(self.mult(1, i), range(a * hi, (a + 1) * hi))
            else:
                m = _columns(self.mult(i, 1), range(a, hi * n, n))
            self._generator_mults[key] = m
        return m


def grow(pres, N):
    """Materialize H and K up to degree N from a quadratic presentation.

    Growth by normal words (Anick, Trans. AMS 296, 1986; Ufnarovski): a
    word with a non-normal prefix is not normal, so the normal words of
    degree i lie among the candidates NW_{i-1} x V.  In the coordinates of
    H_{i-1} (x) V, H_i is the quotient q_i by (m (x) id)(H_{i-2} (x) R),
    with m = q_{i-1} the multiplication H_{i-2} (x) V -> H_{i-1}; its
    non-pivot columns are the normal words.  K_i is solved in
    K_{i-1} (x) V coordinates.  Every elimination is over a space of
    dimension hdim * n or kdim * n, never n^i."""
    if N < 0:
        raise ValueError("negative truncation degree %d" % N)
    n = pres.n
    R = pres.relations
    words, cand, quot = [[0]], [[0]], [Mat.identity(1)]
    incl, kpiv, kdim = [None], [[0]], [1]
    if N >= 1:
        words.append(list(range(n)))
        cand.append(list(range(n)))
        quot.append(Mat.identity(n))
        incl.append(Mat.identity(n))
        kpiv.append(list(range(n)))
        kdim.append(n)
    q_R, _ = quotient(n * n, R)
    for i in range(2, N + 1):
        # H_i: pivots of the relations in H_{i-1} (x) V are the candidates
        # that are not normal
        rows = mul_kron_identity(
            kron(len(words[i - 2]), R.basis),
            quot[i - 1].transpose(), n)
        rel = Subspace.from_rows(quot[i - 1].rows * n, rows)
        q, _ = quotient(rel.ambient_dim, rel)
        quot.append(q)
        pivots = set(rel.pivots)
        cand.append([c for c in range(rel.ambient_dim) if c not in pivots])
        words.append([words[i - 1][c // n] * n + c % n for c in cand[i]])
        # K_i = (K_{i-1} (x) V) /\ (K_{i-2} (x) R) in K_{i-1} (x) V
        # coordinates, as a canonical (RREF) coefficient basis
        cond = mul_kron_identity(
            kron(kdim[i - 2], q_R), incl[i - 1], n)
        coeffs = kernel(cond)
        incl.append(coeffs.basis.transpose())
        kpiv.append(coeffs.pivots)
        kdim.append(coeffs.dim)
    return TruncatedGradedAlgebra(pres, N, words, cand, quot, incl, kpiv)


# ---------------------------------------------------------------------------
# quadratic dual

def dual_gen_names(gen_names):
    return [g + "*" for g in gen_names]


def quadratic_dual(pres):
    """Presentation of the dual algebra: relations = annihilator of R
    under the order-reversing pairing of dual words with words."""
    n = pres.n
    rev = reversal_perm(n, 2)
    dual_rel = kernel(_columns(pres.relations.basis, rev))
    if pres.relations.dim + dual_rel.dim != n * n:
        raise ValueError("the annihilator of R has dimension %d, not %d"
                         % (dual_rel.dim, n * n - pres.relations.dim))
    return QuadraticPresentation(dual_gen_names(pres.gen_names), dual_rel)


# ---------------------------------------------------------------------------
# Koszul complexes

def m_bar(alg, j, i, side):
    """Strip-and-multiply matrix of the Koszul complex on the given side:
    K_j (x) H_i -> K_{j-1} (x) H_{i+1} for side "right" (include K_j in
    K_{j-1} (x) V, then multiply V into H from the left), and its mirror
    H_i (x) K_j -> H_{i+1} (x) K_{j-1} for side "left".

    With a in K_{j-1}, v in V, p in K_j, q in H_i and b in H_{i+1}, the
    right entry ((a, b), (p, q)) is
    sum_v incl_right(j)[(a, v), p] * mult(1, i)[b, (v, q)], and the left
    entry ((b, a), (q, p)) is
    sum_v mult(i, 1)[b, (q, v)] * incl_left(j)[(v, a), p]; both are
    assembled directly, without Kronecker products, once per algebra."""
    key = (j, i, side)
    m = alg._m_bar.get(key)
    if m is None:
        m = alg._m_bar[key] = _m_bar(alg, j, i, side)
    return m


def _m_bar(alg, j, i, side):
    if not (1 <= j <= alg.N and 0 <= i and i + 1 <= alg.N):
        raise ValueError("m_bar(%d, %d) outside the window" % (j, i))
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right', not %r" % (side,))
    n = alg.n
    kp, kj = alg.kdim(j - 1), alg.kdim(j)
    hi, hn = alg.hdim(i), alg.hdim(i + 1)
    # the flat indices of (a, v) in incl, of (v, q) in mult, and of
    # (a, b) and (p, q) in the result
    if side == "right":
        incl, mult = alg.incl_right(j), alg.mult(1, i)
        legs = [divmod(r, n) for r in range(n * kp)]
        mcol = [[v * hi + q for q in range(hi)] for v in range(n)]
        orow = [[a * hn + b for b in range(hn)] for a in range(kp)]
        ocol = [[p * hi + q for q in range(hi)] for p in range(kj)]
    else:
        incl, mult = alg.incl_left(j), alg.mult(i, 1)
        legs = [(r % kp, r // kp) for r in range(n * kp)]
        mcol = [[q * n + v for q in range(hi)] for v in range(n)]
        orow = [[b * kp + a for b in range(hn)] for a in range(kp)]
        ocol = [[q * kj + p for q in range(hi)] for p in range(kj)]
    mnz = [[] for _ in range(mult.cols)]
    for b, mc, x in mult.entries():
        mnz[mc].append((b, x))

    def entries():
        for r, p, c in incl.entries():
            a, v = legs[r]
            rows_a = orow[a]
            for mc, oc in zip(mcol[v], ocol[p]):
                for b, x in mnz[mc]:
                    yield rows_a[b], oc, c * x

    return Mat.from_entries(kp * hn, kj * hi, entries())


def koszul_complex(alg, side):
    """The Koszul complex of alg on the given side: components (-i, s) =
    K_i (x) H_{s-i} ("right") or H_{s-i} (x) K_i ("left"); the
    differential is m_bar.  All cells with s <= N are genuinely complete,
    so the whole window is valid."""
    N = alg.N
    comps = {}
    diffs = {}
    for s in range(N + 1):
        for i in range(s + 1):
            comps[(-i, s)] = alg.kdim(i) * alg.hdim(s - i)
        for i in range(1, s + 1):
            diffs[(-i, s)] = m_bar(alg, i, s - i, side)
    return BigradedComplex((-N - 1, 1), (0, N), comps, diffs)


def koszulity_check(alg):
    """Per-internal-degree exactness of the right Koszul complex of alg.

    Returns a dict with per-degree verdicts and the first failing cell;
    only ever asserts Koszulity up to the truncation degree alg.N.  Raises
    DSquaredError, from homology, if the differential fails d^2 = 0.  The
    verdict is kept on alg, so every check that asks for it shares one
    computation."""
    from koszulkit.graded import homology
    if alg._koszulity is not None:
        return alg._koszulity
    N = alg.N
    cx = koszul_complex(alg, "right")
    rep = homology(cx)
    per_degree = {}
    first_failure = None
    for s in range(N + 1):
        good = True
        for r in range(cx.r_range[0], cx.r_range[1] + 1):
            if not rep.valid(r, s):
                continue
            expect = 1 if (r, s) == (0, 0) else 0
            if rep.dim(r, s) != expect:
                good = False
                if first_failure is None:
                    first_failure = (r, s)
        per_degree[s] = good
    alg._koszulity = {"per_degree": per_degree,
                      "koszul_up_to_N": all(per_degree.values()),
                      "first_failure": first_failure}
    return alg._koszulity


def euler_identity(alg, dual_alg):
    """Alternating-sum dimension check: sum_i (-1)^i dim H!_i dim H_{s-i}
    equals 1 at s = 0 and 0 for 0 < s <= alg.N, with H! read from
    dual_alg, the quadratic dual grown to at least alg.N."""
    for s in range(alg.N + 1):
        total = sum((-1) ** i * dual_alg.hdim(i) * alg.hdim(s - i)
                    for i in range(s + 1))
        if total != (1 if s == 0 else 0):
            return False
    return True


# ---------------------------------------------------------------------------
# pairing transport (psi_bar)

class DualityPairing:
    """Caches the perfect pairings between H_i and the dual Koszul subspace
    K!_i (G1) and between H!_j and K_j (G2), and the transported matrices
    psi_bar(i, j): (K_j (x) H_i)* -> K!_i (x) H!_j.

    Functionals are represented by coefficient vectors in the dual basis,
    flattened with the same row-major rule as the underlying space."""

    def __init__(self, alg, dual_alg):
        if alg.n != dual_alg.n or alg.N != dual_alg.N:
            raise ValueError("algebra and dual differ in generators or degree")
        self.alg = alg
        self.dual = dual_alg
        self._g = {}
        self._ginv = {}
        self._psi = {}
        self._verdicts = {}
        for which in (1, 2):
            for i in range(alg.N + 1):
                self._grow(which, i)

    def _grow(self, which, i):
        """g1(i) (which = 1) or g2(i) (which = 2) and its inverse, grown
        from degree i - 1: rows are the normal words of one side, columns
        the Koszul basis of the other.  The pairing is order-reversing, so
        it matches the last letter v of a normal word u.v with the first
        letter of the Koszul subspace, read off its incl_left, and u with
        the rest.  Raises ValueError, naming the pairing and the degree,
        if it is not square or singular."""
        words, koszul = ((self.alg, self.dual) if which == 1
                         else (self.dual, self.alg))
        if i == 0:
            m = Mat.identity(1)
        else:
            prev = self._g[(which, i - 1)]
            incl = koszul.incl_left(i)
            n, kp = words.n, prev.cols
            prev_nz = [[] for _ in range(prev.rows)]
            for u, t, x in prev.entries():
                prev_nz[u].append((t, x))
            incl_nz = [[] for _ in range(incl.rows)]
            for r, p, y in incl.entries():
                incl_nz[r].append((p, y))
            cells = [divmod(c, n) for c in words.split_last(i)]
            m = Mat.from_entries(
                len(cells), incl.cols,
                ((row, p, x * y) for row, (u, v) in enumerate(cells)
                 for t, x in prev_nz[u] for p, y in incl_nz[v * kp + t]))
        if m.rows != m.cols:
            raise ValueError("pairing g%d(%d) is %d x %d, not square"
                             % (which, i, m.rows, m.cols))
        try:
            self._ginv[(which, i)] = inverse(m)
        except ValueError:
            raise ValueError("pairing g%d(%d) is singular"
                             % (which, i)) from None
        self._g[(which, i)] = m

    def _get(self, table, which, i):
        if not 0 <= i <= self.alg.N:
            raise ValueError("degree %d outside 0..%d" % (i, self.alg.N))
        return table[(which, i)]

    def g1(self, i):
        """Pairing of H_i with K!_i; square and invertible."""
        return self._get(self._g, 1, i)

    def g2(self, j):
        """Pairing of H!_j with K_j; square and invertible."""
        return self._get(self._g, 2, j)

    def g1_inv(self, i):
        return self._get(self._ginv, 1, i)

    def g2_inv(self, j):
        return self._get(self._ginv, 2, j)

    def verdict(self, failures, *args):
        """(True, None), or (False, where) with where the first coordinates
        that failures(self, *args) yields: the verdict of an identity that
        holds for the pairing alone, or for it and the acting object args
        give, up to the grown degree, computed once per (failures, args)
        (failures is the identity's generator of failing coordinates)."""
        key = (failures,) + args
        if key not in self._verdicts:
            where = next(failures(self, *args), None)
            self._verdicts[key] = (where is None, where)
        return self._verdicts[key]

    def psi_bar(self, i, j):
        """Invertible matrix (K_j (x) H_i)* -> K!_i (x) H!_j.

        g1(i) has rows H_i and columns K!_i, so the K!_i coordinates of the
        dual basis of H_i are the columns of g1(i)^-1; g2(j) has rows H!_j
        and columns K_j, so the H!_j coordinates of the dual basis of K_j
        are the columns of (g2(j)^-1)^T."""
        m = self._psi.get((i, j))
        if m is None:
            m = self._psi[(i, j)] = (
                kron(self.g1_inv(i), self.g2_inv(j).transpose())
                @ swap_matrix(self.alg.kdim(j), self.alg.hdim(i)))
        return m


def verify_psi_intertwiner(pairing):
    """Exact-matrix check of the compatibility of psi_bar with the two
    strip-and-multiply maps: precomposing a functional with
    K_{j+1} (x) H_{i-1} -> K_j (x) H_i transports, under psi_bar, to the
    dual-side strip-and-multiply K!_i (x) H!_j -> K!_{i-1} (x) H!_{j+1},
    for every i >= 1 with i + j <= N, the grown degree.  Returns
    (True, None) or (False, (i, j)) at the first failure; the verdict is
    memoized on the pairing.

    This is the arbiter of every pairing convention in the package; a
    mismatch anywhere upstream makes it fail loudly."""
    return pairing.verdict(_intertwiner_failures)


def _intertwiner_failures(pairing):
    alg, dual = pairing.alg, pairing.dual
    N = alg.N
    return ((i, j) for i in range(1, N + 1)
            for j in range(N - i + 1)
            if pairing.psi_bar(i - 1, j + 1)
            @ m_bar(alg, j + 1, i - 1, "right").transpose()
            != m_bar(dual, i, j, "right") @ pairing.psi_bar(i, j))

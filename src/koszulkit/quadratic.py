"""Quadratic algebras over the rationals, truncated to a finite degree.

A quadratic presentation is a generator basis V together with a relation
subspace R inside V (x) V.  From it we grow the graded algebra H (normal
monomial bases as quotients of tensor powers), the Koszul subspaces K_i,
the quadratic dual, the left/right Koszul complexes, the contraction
actions of the dual on the Koszul subspaces, and the pairing-transport
matrices psi_bar used by the duality module.

Conventions (fixed once, everything else is derived from them):
  * monomials of V^(x)i are ordered lexicographically by generator index,
    flattened row-major: word (a_1..a_i) has index sum a_k n^(i-k);
  * normal monomials = non-pivot words of the RREF relation span;
  * the pairing of dual words with words is order-reversing:
    <xi_1(x)...(x)xi_r , v_1(x)...(x)v_r> = prod_k xi_k(v_{r+1-k}).
The mandatory intertwiner self-test (verify_psi_intertwiner) fails loudly
if any construction drifts from these conventions.
"""

from __future__ import annotations

from fractions import Fraction

from koszulkit.exactlin import (
    F0, F1, Mat, Subspace, inverse, kernel, kron, perm_matrix, quotient,
    rat_from_str, rat_to_str,
)
from koszulkit.graded import BigradedComplex, GradedSpace


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
        assert relations.ambient_dim == n * n
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
        for row in self.relations.basis.data:
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
        gens = list(obj["generators"])
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
                if len(m) != 2 or m[0] not in pos or m[1] not in pos:
                    raise ValueError("bad monomial %r" % (m,))
                v[pos[m[0]] * n + pos[m[1]]] += c
            rows.append(v)
        return QuadraticPresentation(gens, Subspace.from_rows(n * n, rows))


def presentation_from_relation_rows(gen_names, rows):
    n = len(gen_names)
    return QuadraticPresentation(gen_names, Subspace.from_rows(n * n, rows))


# ---------------------------------------------------------------------------
# growth

class TruncatedGradedAlgebra:
    """H_i = V^(x)i / Rel_i for i <= N, with Koszul subspaces K_i.

    proj[i]/sect[i] are the quotient projection/section (normal-monomial
    basis); rel[i] is the degree-i component of the relation ideal.
    """

    def __init__(self, pres, N, rel, proj, sect, K):
        self.pres = pres
        self.N = N
        self.n = pres.n
        self.rel = rel
        self.proj = proj
        self.sect = sect
        self.K = K
        self._mult = {}
        self._incl_right = {}
        self._incl_left = {}

    def hdim(self, i):
        assert 0 <= i <= self.N
        return self.proj[i].rows

    def kdim(self, i):
        assert 0 <= i <= self.N
        return self.K[i].dim

    def hdims(self):
        return [self.hdim(i) for i in range(self.N + 1)]

    def kdims(self):
        return [self.kdim(i) for i in range(self.N + 1)]

    def h_space(self):
        return GradedSpace({i: self.hdim(i) for i in range(self.N + 1)},
                           (0, self.N))

    def normal_monomials(self, i):
        """Labels of the normal-monomial basis of H_i."""
        names = self.pres.gen_names
        free = [j for j in range(self.n ** i) if any(self.sect[i].data[j])]
        out = []
        for idx in free:
            out.append("*".join(names[a] for a in index_word(idx, self.n, i))
                       or "1")
        return out

    def mult(self, i, j):
        """Matrix of H_i (x) H_j -> H_{i+j} (concatenation of monomials)."""
        key = (i, j)
        m = self._mult.get(key)
        if m is None:
            assert i + j <= self.N
            m = self.proj[i + j] @ kron(self.sect[i], self.sect[j])
            self._mult[key] = m
        return m

    def incl_right(self, i):
        """Coordinates of the inclusion K_i -> K_{i-1} (x) V."""
        m = self._incl_right.get(i)
        if m is None:
            assert 1 <= i <= self.N
            d_prev = self.kdim(i - 1)
            n = self.n
            m = Mat(d_prev * n, self.kdim(i))
            prev = self.K[i - 1]
            for col, row_vec in enumerate(self.K[i].basis.data):
                # reshape as n^(i-1) x n; each column lives in K_{i-1}
                for a in range(n):
                    slice_a = [row_vec[u * n + a] for u in range(n ** (i - 1))]
                    coords = prev.coordinates(slice_a)
                    assert coords is not None, "K_%d not inside K_%d (x) V" % (i, i - 1)
                    for t, c in enumerate(coords):
                        if c:
                            m.data[t * n + a][col] = c
            self._incl_right[i] = m
        return m

    def incl_left(self, i):
        """Coordinates of the inclusion K_i -> V (x) K_{i-1}."""
        m = self._incl_left.get(i)
        if m is None:
            assert 1 <= i <= self.N
            d_prev = self.kdim(i - 1)
            n = self.n
            stride = n ** (i - 1)
            m = Mat(n * d_prev, self.kdim(i))
            prev = self.K[i - 1]
            for col, row_vec in enumerate(self.K[i].basis.data):
                for a in range(n):
                    slice_a = row_vec[a * stride:(a + 1) * stride]
                    coords = prev.coordinates(slice_a)
                    assert coords is not None, "K_%d not inside V (x) K_%d" % (i, i - 1)
                    for t, c in enumerate(coords):
                        if c:
                            m.data[a * d_prev + t][col] = c
            self._incl_left[i] = m
        return m

    def k_embedding(self, i):
        """Ambient embedding matrix (n^i x kdim): columns are K_i basis."""
        return self.K[i].basis.transpose()


def grow(pres, N):
    """Materialize H and K up to degree N from a quadratic presentation."""
    assert N >= 0
    n = pres.n
    R = pres.relations
    rel = [Subspace.zero(1)]
    if N >= 1:
        rel.append(Subspace.zero(n))
    for i in range(2, N + 1):
        rows = []
        prev = rel[i - 1].basis
        dim_lower = n ** (i - 1)
        for a in range(n):
            base = a * dim_lower
            for brow in prev.data:
                v = [F0] * (n ** i)
                for j, x in enumerate(brow):
                    if x:
                        v[base + j] = x
                rows.append(v)
        tail = n ** (i - 2)
        for rrow in R.basis.data:
            for w in range(tail):
                v = [F0] * (n ** i)
                for p, x in enumerate(rrow):
                    if x:
                        v[p * tail + w] = x
                rows.append(v)
        rel.append(Subspace.from_rows(n ** i, rows))

    proj, sect = [], []
    for i in range(N + 1):
        p, s = quotient(n ** i, rel[i])
        proj.append(p)
        sect.append(s)

    K = [Subspace.full(1)]
    if N >= 1:
        K.append(Subspace.full(n))
    if N >= 2:
        q_R, _ = quotient(n * n, R)
        for i in range(2, N + 1):
            prev = K[i - 1]
            emb = kron(prev.basis.transpose(), Mat.identity(n))
            cond = kron(Mat.identity(n ** (i - 2)), q_R) @ emb
            coeffs = kernel(cond)
            rows = (coeffs.basis @ kron(prev.basis, Mat.identity(n))).data
            K.append(Subspace.from_rows(n ** i, rows))

    return TruncatedGradedAlgebra(pres, N, rel, proj, sect, K)


# ---------------------------------------------------------------------------
# quadratic dual

def dual_gen_names(gen_names):
    return [g + "*" for g in gen_names]


def quadratic_dual(pres):
    """Presentation of the dual algebra: relations = annihilator of R
    under the order-reversing pairing of dual words with words."""
    n = pres.n
    rev = reversal_perm(n, 2)
    B = pres.relations.basis
    paired = Mat(B.rows, n * n,
                 [[row[rev[w]] for w in range(n * n)] for row in B.data])
    dual_rel = kernel(paired)
    assert pres.relations.dim + dual_rel.dim == n * n
    return QuadraticPresentation(dual_gen_names(pres.gen_names), dual_rel)


# ---------------------------------------------------------------------------
# Koszul complexes

def m_bar(alg, j, i):
    """Matrix of K_j (x) H_i -> K_{j-1} (x) H_{i+1} (include, then multiply)."""
    assert 1 <= j <= alg.N and 0 <= i and i + 1 <= alg.N
    h = alg.hdim(i)
    return (kron(Mat.identity(alg.kdim(j - 1)), alg.mult(1, i))
            @ kron(alg.incl_right(j), Mat.identity(h)))


def m_bar_left(alg, i, j):
    """Matrix of H_i (x) K_j -> H_{i+1} (x) K_{j-1} (mirror of m_bar)."""
    assert 1 <= j <= alg.N and 0 <= i and i + 1 <= alg.N
    h = alg.hdim(i)
    return (kron(alg.mult(i, 1), Mat.identity(alg.kdim(j - 1)))
            @ kron(Mat.identity(h), alg.incl_left(j)))


def right_koszul_complex(alg):
    """Components (-i, s) = K_i (x) H_{s-i}; differential strips one tensor
    factor off K and multiplies it into H.  All cells with s <= N are
    genuinely complete, so the whole window is valid."""
    N = alg.N
    comps = {}
    diffs = {}
    for s in range(N + 1):
        for i in range(s + 1):
            comps[(-i, s)] = alg.kdim(i) * alg.hdim(s - i)
        for i in range(1, s + 1):
            diffs[(-i, s)] = m_bar(alg, i, s - i)
    return BigradedComplex((-N - 1, 1), (0, N), comps, diffs)


def left_koszul_complex(alg):
    N = alg.N
    comps = {}
    diffs = {}
    for s in range(N + 1):
        for i in range(s + 1):
            comps[(-i, s)] = alg.hdim(s - i) * alg.kdim(i)
        for i in range(1, s + 1):
            diffs[(-i, s)] = m_bar_left(alg, s - i, i)
    return BigradedComplex((-N - 1, 1), (0, N), comps, diffs)


def koszulity_check(pres, N, alg=None):
    """Per-internal-degree exactness of the right Koszul complex.

    Returns a dict with per-degree verdicts and the first failing cell;
    only ever asserts Koszulity up to the truncation degree.  Raises
    ValueError, from homology, if the differential fails d^2 = 0."""
    from koszulkit.graded import homology
    if alg is None:
        alg = grow(pres, N)
    cx = right_koszul_complex(alg)
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
    return {"per_degree": per_degree,
            "koszul_up_to_N": all(per_degree.values()),
            "first_failure": first_failure,
            "homology": rep}


def euler_identity(pres, N, alg=None, dual_alg=None):
    """Alternating-sum dimension check: sum_i (-1)^i dim H!_i dim H_{s-i}
    equals 1 at s = 0 and 0 for 0 < s <= N."""
    if alg is None:
        alg = grow(pres, N)
    if dual_alg is None:
        dual_alg = grow(quadratic_dual(pres), N)
    for s in range(N + 1):
        total = sum((-1) ** i * dual_alg.hdim(i) * alg.hdim(s - i)
                    for i in range(s + 1))
        if total != (1 if s == 0 else 0):
            return False
    return True


# ---------------------------------------------------------------------------
# contractions

def _contract(alg, i, theta, r, first):
    """Matrix K_i -> K_{i-r}, in K-coordinates, contracting the first r
    tensor factors, or the last r, against the dual-word tensor theta
    (length n^r), letters paired in reverse order."""
    if r > i:
        return Mat.zeros(0, alg.kdim(i))
    n = alg.n
    assert 0 <= r and len(theta) == n ** r
    rev = reversal_perm(n, r)
    row = Mat(1, n ** r, [[theta[rev[w]] for w in range(n ** r)]])
    rest = Mat.identity(n ** (i - r))
    T = kron(row, rest) if first else kron(rest, row)
    ambient = T @ alg.k_embedding(i)
    out = []
    for col in range(ambient.cols):
        coords = alg.K[i - r].coordinates(ambient.col(col))
        if coords is None:
            raise ValueError("contraction left the Koszul subspace at degree %d" % i)
        out.append(coords)
    return Mat.from_rows(out, alg.kdim(i - r)).transpose()


def contract_right(alg, i, theta, r):
    """Matrix K_i -> K_{i-r} (in K-coordinates) of the right action of the
    dual-algebra element represented by theta in (V*)^(x)r.

    Raises if the image leaves the Koszul subspace (a convention bug)."""
    return _contract(alg, i, theta, r, first=False)


def contract_left(alg, i, tvec, r):
    """Matrix K_i -> K_{i-r} of the left action contracting first factors.

    Used with the dual algebra: elements of H act on the Koszul subspaces
    of H! by stripping leading factors."""
    return _contract(alg, i, tvec, r, first=True)


def validate_contractions(alg, dual_alg, max_degree=None):
    """The defining relations of the dual act as zero on the Koszul
    subspaces (so the contraction action factors through the dual algebra),
    and symmetrically for the algebra acting on the dual Koszul subspaces."""
    N = max_degree if max_degree is not None else alg.N
    for i in range(2, N + 1):
        for theta in dual_alg.pres.relations.basis.data:
            m = contract_right(alg, i, theta, 2)
            if not m.is_zero():
                return False, ("right", i)
        for tvec in alg.pres.relations.basis.data:
            m = contract_left(dual_alg, i, tvec, 2)
            if not m.is_zero():
                return False, ("left", i)
    return True, None


# ---------------------------------------------------------------------------
# pairing transport (psi_bar)

class DualityPairing:
    """Caches the perfect pairings between H_i and the dual Koszul subspace
    K!_i (G1) and between H!_j and K_j (G2), and the transported matrices
    psi_bar(i, j): (K_j (x) H_i)* -> K!_i (x) H!_j.

    Functionals are represented by coefficient vectors in the dual basis,
    flattened with the same row-major rule as the underlying space."""

    def __init__(self, alg, dual_alg):
        assert alg.n == dual_alg.n and alg.N == dual_alg.N
        self.alg = alg
        self.dual = dual_alg
        self._g1 = {}
        self._g2 = {}
        self._g1inv = {}
        self._g2inv = {}

    def _pair(self, dual_basis_mat, sect, r):
        """Pairing matrix: rows indexed by quotient basis (via section
        representatives), columns by dual-side subspace basis rows."""
        n = self.alg.n
        rev = reversal_perm(n, r)
        rows = []
        for q in range(sect.cols):
            rep = sect.col(q)
            rows.append([sum(krow[u] * rep[rev[u]]
                             for u in range(n ** r) if krow[u])
                         for krow in dual_basis_mat.data])
        return Mat.from_rows(rows, dual_basis_mat.rows)

    def g1(self, i):
        """Pairing of H_i with K!_i; square and invertible."""
        m = self._g1.get(i)
        if m is None:
            m = self._pair(self.dual.K[i].basis, self.alg.sect[i], i)
            assert m.rows == m.cols, "dim K!_%d != dim H_%d" % (i, i)
            self._g1[i] = m
            self._g1inv[i] = inverse(m)
        return m

    def g2(self, j):
        """Pairing of H!_j with K_j; square and invertible."""
        m = self._g2.get(j)
        if m is None:
            n = self.alg.n
            rev = reversal_perm(n, j)
            rows = []
            sect = self.dual.sect[j]
            for l in range(sect.cols):
                rep = sect.col(l)
                rows.append([sum(rep[u] * brow[rev[u]]
                                 for u in range(n ** j) if rep[u])
                             for brow in self.alg.K[j].basis.data])
            m = Mat.from_rows(rows, self.alg.K[j].basis.rows)
            assert m.rows == m.cols, "dim H!_%d != dim K_%d" % (j, j)
            self._g2[j] = m
            self._g2inv[j] = inverse(m)
        return m

    def g1_inv(self, i):
        self.g1(i)
        return self._g1inv[i]

    def g2_inv(self, j):
        self.g2(j)
        return self._g2inv[j]

    def psi_bar(self, i, j):
        """Invertible matrix (K_j (x) H_i)* -> K!_i (x) H!_j."""
        kj = self.alg.kdim(j)
        hi = self.alg.hdim(i)
        swap = [0] * (kj * hi)
        for p in range(kj):
            for q in range(hi):
                swap[p * hi + q] = q * kj + p
        return kron(self.g1_inv(i), self.g2_inv(j)) @ perm_matrix(swap)


def verify_psi_intertwiner(pairing, max_total):
    """Exact-matrix check of the compatibility of psi_bar with the two
    strip-and-multiply maps: precomposing a functional with
    K_{j+1} (x) H_{i-1} -> K_j (x) H_i transports, under psi_bar, to the
    dual-side strip-and-multiply K!_i (x) H!_j -> K!_{i-1} (x) H!_{j+1}.

    This is the arbiter of every pairing convention in the package; a
    mismatch anywhere upstream makes it fail loudly."""
    alg, dual = pairing.alg, pairing.dual
    assert max_total <= alg.N
    for i in range(1, max_total + 1):
        for j in range(0, max_total - i + 1):
            if j + 1 > alg.N:
                continue
            lhs = pairing.psi_bar(i - 1, j + 1) @ m_bar(alg, j + 1, i - 1).transpose()
            rhs = m_bar(dual, i, j) @ pairing.psi_bar(i, j)
            if lhs != rhs:
                return False, (i, j)
    return True, None

"""Injective and projective duality complexes for semidirect products.

Everything here is computed in finite k-linear models:
  * a graded module over the smash product is a window of components,
    each an A0-module, plus degree-raising maps act1: V (x) X_j -> X_{j+1};
  * Hom spaces over A0 of induced objects are materialized as plain
    k-linear Hom spaces, with the A0-equivariance carried as explicit
    action matrices on each bidegree cell;
  * the two families of complexes (injective-side: I, socI; projective
    side: P, topP) are bigraded complexes with recorded actions, all
    four built by one skeleton, _duality_complex, from the summands of
    each cell, the action on one summand and the blocks of the
    differential; all structural claims (d^2 = 0, action/differential
    compatibility, the bijective identifications, the round trips, the
    exactness criterion) are verified as exact matrix identities;
  * every equivariance claim, of a differential, an identification or a
    comparison map, is one identity m @ src[b] == tgt[b] @ m per acting
    basis element b, checked by action.intertwines; the degree-zero
    homology of either side is certified by one rule, h0_certificate,
    which runs on the transposed differential for the projective side.

Sign conventions: the injective-side differential is d + (-1)^r rho, the
projective-side one is (-1)^r (strip-into-algebra) + (strip-into-module),
and the socle subcomplex carries (-1)^(r+1).  The one sign the
round-trip comparison maps need is fixed: roundtrip_B compares the
differentials up to (-1)^(r+i+1) and re-verifies that as an exact
identity, on every bidegree.

Every comparison map (theta, phi, psi_bar (x) id, chi) is a permuted
Kronecker product of the pairings g1 (of H with K!) and g2 (of H! with
K) of quadratic.DualityPairing, or of their inverses, with id_X: theta
is g2^T, phi is g1, psi_bar is g1^-1 (x) g2^-T after a swap, and chi is
theta^-1 followed by phi^-1.  So each is bijective exactly when the
pairings are invertible, which DualityPairing decides once.  For the
same reason every degree-zero and generator identity of the four
verifiers follows from four identities of g1 and g2, read through
DualityPairing.verdict, once per pairing (generators) or per pairing
and acting object (actions), with no complex built:
  * g2 generators: theta carries left multiplication by a dual
    generator to the socle contraction by it (identify_socI,
    roundtrip_B);
  * g2 action: theta(r) carries the dual action on H!_r to the action
    on Hom(K_r, k) (identify_socI, both round trips);
  * g1 action: phi(r) carries the dual action on K!_r to the action on
    Hom(H_r, k) (identify_topP, both round trips);
  * g1 generators: phi carries the left contraction by a predual
    generator to precomposition with right multiplication by it
    (identify_topP, roundtrip_A).
Why these suffice: at the trivial module k, which acts by the counit, X
sits on the first leg on both sides of every comparison, so by the
counit law each cell action is the action on the X-free factors and an
identity at k gives it for every X, term by term; the action on a
tensor cell is tensor_action of the factors' actions, so a Kronecker
product or a composite of intertwiners intertwines, term by term over
the legs; and psi_bar's generator identity is g1's with an identity
tensored in, chi's is theta's.

The four verifiers and koszulity_via_duality take no module: they build
their complexes at k (provider.tensor_mats(0)), and their verdicts and
cell counts are those of every degree-zero module X, dim X >= 1, whose
laws hold.  X has no degree-one action, and those of I0(X) and P0(X) are
mult (x) id_X, so every construction is additive in the vector space X:
each differential of the I, P, socle and top complexes of X is the one
at k tensored with id_X, up to a fixed permutation.  So homology ranks
scale by dim X, and d^2 and each chain identity hold at X exactly when
they do at k.  Only h0_certificate's equivariance on cell (0, 0) and the
socle's module law read X's action; in both X sits on the first Sweedler
leg, so by the counit law and coassociativity, validated for every
acting object, the identity at k gives it for every X.  A module's or a
cell's degree-zero action is built when it is first read.

Every builder and verifier here works up to the degree alg.N to which
quadratic.grow grew the algebra of its module or pairing.

Hom coordinates: a map f: U -> X is flattened row-major with the X index
slow, i.e. vec(f)[x * dim U + u] = coefficient of basis x in f(u).
"""

from __future__ import annotations

from koszulkit.action import (
    _combine, dual_action, intertwines, tensor_action,
)
from koszulkit.exactlin import (
    Mat, _columns, hstack, kernel, kron, mul_kron_identity, place_blocks,
    rank, vstack,
)
from koszulkit.graded import (
    BigradedComplex, DSquaredError, check_d_squared, homology,
)
from koszulkit.quadratic import m_bar, verify_psi_intertwiner


# ---------------------------------------------------------------------------
# small helpers

def _hom_action(provider, arg_right_mats, inner_left_mats):
    """Left action on Hom(W, X): (a . f)(w) = a_(1) . f(w <| a_(2)),
    given the right action on the argument and the left action on X."""
    return tensor_action(provider, inner_left_mats,
                         [m.transpose() for m in arg_right_mats])


def _rho_hom(A, E, n, dx_in, w_in, w_out):
    """Matrix, on Hom coordinates, of f |-> A o (id_n (x) f) o E where
    f: W_in -> X_in (dims w_in, dx_in), A: n * dx_in -> dx_out and
    E: w_out -> n * w_in."""
    dx_out = A.rows
    if (A.cols, E.rows, E.cols) != (n * dx_in, n * w_in, w_out):
        raise ValueError("the maps of _rho_hom do not compose: A has %d "
                         "columns, E is %d x %d" % (A.cols, E.rows, E.cols))
    by_v = [[] for _ in range(n)]
    for ri, c, val in E.entries():
        v, w = divmod(ri, w_in)
        by_v[v].append((w, c, val))

    def entries():
        for x2, ci, aval in A.entries():
            v, x1 = divmod(ci, dx_in)
            for w, c, ev in by_v[v]:
                yield x2 * w_out + c, x1 * w_in + w, aval * ev

    return Mat.from_entries(dx_out * w_out, dx_in * w_in, entries())


def _induced_left_action(provider, mid_mats, inner_left_mats):
    """Left action of the degree-zero part on the model Mid (x) Inner of
    the induced module (A0 (x) Mid) (x)_{A0} Inner, from its action on Mid
    (composed with S^-1 when it is a right one, cop unset) and its left
    action on Inner: [b (x) m (x) x] = [1 (x) m <| S^-1(b_(2)) (x) b_(1) x],
    which is tensor_action with the legs reversed."""
    if not provider.cop:
        mid_mats = [_combine(mid_mats, vec)
                    for vec in provider.base.inverse_antipode]
    return tensor_action(provider, mid_mats, inner_left_mats, reverse=True)


# ---------------------------------------------------------------------------
# graded modules over the smash product

class GradedAModule:
    """Graded left module over the semidirect product, in components.

    dims[j] is the dimension of X_j; act0_mats(j) lists the left action of
    each acting basis element on X_j, built by component_action(j) when
    first read and kept in act0 (the zero action where it gives None);
    act1[j] is the degree-raising action map V (x) X_j -> X_{j+1} (V is
    the generator space of the graded algebra, or its dual on the
    co-opposite side).  Components outside the stored window are
    genuinely zero except past a truncation edge, where they are
    unknown."""

    def __init__(self, provider, alg, dims, component_action, act1,
                 truncated_below=False, truncated_above=False):
        self.provider = provider
        self.alg = alg
        self.dims = {j: int(d) for j, d in dims.items() if d}
        if self.dims:
            self.jmin = min(self.dims)
            self.jmax = max(self.dims)
        else:
            self.jmin = self.jmax = 0
        self.act0 = {}
        self._component_action = component_action
        self.act1 = dict(act1)
        self.truncated_below = truncated_below
        self.truncated_above = truncated_above

    def dim(self, j):
        return self.dims.get(j, 0)

    def act0_mats(self, j):
        mats = self.act0.get(j)
        if mats is None:
            d = self.dim(j)
            mats = self._component_action(j) if d else None
            if mats is None:
                mats = [Mat.zeros(d, d)
                        for _ in range(self.provider.basis_size)]
            self.act0[j] = mats
        return mats

    def act1_mat(self, j):
        m = self.act1.get(j)
        if m is None:
            m = Mat.zeros(self.dim(j + 1), self.alg.n * self.dim(j))
        return m


def degree_zero_module(provider, alg, mats):
    """Module concentrated in degree zero (the degree-1 action is zero)."""
    dim = mats[0].rows if mats else 0
    return GradedAModule(provider, alg, {0: dim}, {0: list(mats)}.get, {})


def P0(provider, alg, mats):
    """Induced module: component i is the k-model H_i (x) X, the degree-1
    action is left multiplication into H.  Truncated above at alg.N."""
    if not provider.cop:
        # the induced action reads S^-1: fail here, not when it is read
        provider.base.inverse_antipode
    dX = mats[0].rows if mats else 0
    dims = {i: alg.hdim(i) * dX for i in range(alg.N + 1)}
    act1 = {i: kron(alg.mult(1, i), dX) for i in range(alg.N)
            if dims[i] and dims[i + 1]}
    return GradedAModule(
        provider, alg, dims,
        lambda i: _induced_left_action(provider, provider.h_action(alg, i),
                                       list(mats)),
        act1, truncated_above=True)


def I0(provider, alg, mats):
    """Coinduced module: component -i is Hom(H_i, X) with
    (a . f)(h) = a_(1) f(h <| a_(2)) and (v . f)(h) = f(h v).
    Truncated below at -alg.N."""
    dX = mats[0].rows if mats else 0
    dims = {-i: dX * alg.hdim(i) for i in range(alg.N + 1)}
    act1 = {-i: hstack([
        kron(dX, alg.generator_mult(i - 1, a, "right").transpose())
        for a in range(alg.n)])
        for i in range(1, alg.N + 1) if dims[-i] and dims[-i + 1]}
    return GradedAModule(
        provider, alg, dims,
        lambda j: _hom_action(provider, provider.h_action(alg, -j),
                              list(mats)),
        act1, truncated_below=True)


# ---------------------------------------------------------------------------
# duality complexes

class DualityComplex:
    """A bigraded complex plus its provenance and recorded equivariant
    structure.

    blocks[(r, s)] is the ordered list of (i, j, dim) summands of the
    cell; act0_mats(r, s) lists the action matrices of the degree-zero
    acting basis on a cell, built by cell_action(r, s) when first read
    and kept in act0; alg is the graded algebra whose K and H the cells
    are built from."""

    def __init__(self, kind, cx, blocks, cell_action, provider, alg,
                 complete):
        self.kind = kind
        self.cx = cx
        self.blocks = blocks
        self.act0 = {}
        self._cell_action = cell_action
        self.provider = provider
        self.alg = alg
        self.complete = complete

    def dim(self, r, s):
        return self.cx.dim(r, s)

    def act0_mats(self, r, s):
        mats = self.act0.get((r, s))
        if mats is None:
            mats = self.act0[(r, s)] = self._cell_action(r, s)
        return mats

    def is_complete(self, r, s):
        return self.complete.get((r, s), True)


def _offsets(blocks):
    """The offset of each (i, j) summand in a cell, and the cell's
    dimension."""
    offs, total = {}, 0
    for (i, j, d) in blocks:
        offs[(i, j)] = total
        total += d
    return offs, total


_D_SQUARED_NAMES = {"I": "injective-side", "socI": "socle",
                    "P": "projective-side", "topP": "top-quotient"}


def _duality_complex(kind, X, summands, act, diff):
    """The DualityComplex of the given kind built from X; I and socI are
    on the injective side, P and topP on the projective one.  Cell (h, s),
    with h = r on the injective side and h = -r on the projective one,
    r = 0..N = X.alg.N and s = X.jmax - N..X.jmax (injective) or
    X.jmin..X.jmin + N (projective), is the direct sum of the
    summands(r, s), each a (key, j, dim) with j the degree of X it
    involves; the cell is complete when X is known in degree h + s.
    act(r, key, j) lists the matrices of the acting basis on one summand,
    read when the cell's action is; diff(r, key, j) yields the
    ((key', j'), matrix) blocks of the differential from it into the
    summands of cell (h + 1, s), which is assembled where both cells are
    nonzero.  Raises DSquaredError, naming the first cell, unless
    d^2 = 0."""
    prov, N = X.provider, X.alg.N
    sign = 1 if kind in ("I", "socI") else -1
    s_range = (X.jmax - N, X.jmax) if sign == 1 else (X.jmin, X.jmin + N)
    blocks, comps, complete = {}, {}, {}
    for s in range(s_range[0], s_range[1] + 1):
        for r in range(N + 1):
            h = sign * r
            blocks[(h, s)] = bl = list(summands(r, s))
            comps[(h, s)] = sum(d for *_k, d in bl)
            if sign == 1:
                complete[(h, s)] = not X.truncated_below or h + s >= X.jmin
            else:
                complete[(h, s)] = not X.truncated_above or h + s <= X.jmax
    diffs = {}
    for (h, s), bl in blocks.items():
        if bl and blocks.get((h + 1, s)):
            r = sign * h
            offs, total = _offsets(bl)
            tgt_offs, rows = _offsets(blocks[(h + 1, s)])
            diffs[(h, s)] = place_blocks(rows, total, [
                (tgt_offs[tgt], offs[(key, j)], m)
                for key, j, _d in bl for tgt, m in diff(r, key, j)])

    def cell_action(h, s):
        # block diagonal over the summands; a zero cell gets 0 x 0 blocks
        bl = blocks.get((h, s), [])
        offs, total = _offsets(bl)
        per_block = [(offs[(key, j)], act(sign * h, key, j))
                     for key, j, _d in bl]
        return [place_blocks(total, total,
                             [(off, off, mats[b]) for off, mats in per_block])
                for b in range(prov.basis_size)]

    r_range = (-1, N) if sign == 1 else (-N - 1, 1)
    cx = BigradedComplex(r_range, s_range, comps, diffs)
    ok, where = check_d_squared(cx)
    if not ok:
        raise DSquaredError(where, "%s differential fails d^2=0"
                            % _D_SQUARED_NAMES[kind])
    return DualityComplex(kind, cx, blocks, cell_action, prov, X.alg,
                          complete)


def I_complex(X):
    """The injective-side complex: cell (r, s) is the direct sum of
    Hom(K_r (x) H_i, X_j) over j - i = r + s; differential d + (-1)^r rho
    with d = precompose strip-and-multiply and rho = push one generator
    into the module."""
    alg = X.alg
    prov = X.provider
    N = alg.N
    if X.truncated_above:
        raise ValueError("input module must be genuinely bounded above")

    def summands(r, s):
        for j in range(X.jmin, X.jmax + 1):
            i = j - r - s
            d = X.dim(j) * alg.kdim(r) * alg.hdim(i) if 0 <= i <= N else 0
            if d:
                yield i, j, d

    def act(r, i, j):
        arg = tensor_action(prov, prov.k_action(alg, r), prov.h_action(alg, i))
        return _hom_action(prov, arg, X.act0_mats(j))

    def diff(r, i, j):
        if i >= 1 and alg.hdim(i - 1):
            dm = m_bar(alg, r + 1, i - 1, "right")
            yield (i - 1, j), kron(X.dim(j), dm.transpose())
        if X.dim(j + 1):
            e = kron(alg.incl_left(r + 1), alg.hdim(i))
            m = _rho_hom(X.act1_mat(j), e, alg.n, X.dim(j),
                         alg.kdim(r) * alg.hdim(i),
                         alg.kdim(r + 1) * alg.hdim(i))
            yield (i, j + 1), m.scale((-1) ** r)

    return _duality_complex("I", X, summands, act, diff)


def P_complex(X):
    """The projective-side complex: cell (-r, s) is the direct sum of the
    k-models H_i (x) K_r (x) X_j over i + j = s - r; differential
    (-1)^r (strip first K-letter into H) + (strip last K-letter into X)."""
    alg = X.alg
    prov = X.provider
    N = alg.N
    if X.truncated_below:
        raise ValueError("input module must be genuinely bounded below")

    def summands(r, s):
        for j in range(X.jmin, X.jmax + 1):
            i = s - r - j
            d = alg.hdim(i) * alg.kdim(r) * X.dim(j) if 0 <= i <= N else 0
            if d:
                yield i, j, d

    def act(r, i, j):
        return _induced_left_action(
            prov, prov.h_action(alg, i),
            _induced_left_action(prov, prov.k_action(alg, r),
                                 X.act0_mats(j)))

    def diff(r, i, j):
        if i + 1 <= N and alg.hdim(i + 1):
            m = kron(m_bar(alg, r, i, "left"), X.dim(j))
            yield (i + 1, j), m.scale((-1) ** r)
        if X.dim(j + 1):
            lam = mul_kron_identity(kron(alg.kdim(r - 1), X.act1_mat(j)),
                                    alg.incl_right(r), X.dim(j))
            yield (i, j + 1), kron(alg.hdim(i), lam)

    return _duality_complex("P", X, summands, act, diff)


def socI_complex(X):
    """The socle subcomplex of the injective side: cell (r, s) is
    Hom(K_r, X_{r+s}); differential (-1)^(r+1) (push one generator into
    the module); carries the degree-zero action.  The degree-one action of
    the dual generators, by contraction (_socle_generator), is built where
    it is checked, by validate_socI_action."""
    alg = X.alg
    prov = X.provider
    if X.truncated_above:
        raise ValueError("input module must be genuinely bounded above")

    def summands(r, s):
        d = X.dim(r + s) * alg.kdim(r)
        if d:
            yield r, r + s, d

    def act(r, _r, j):
        return _hom_action(prov, prov.k_action(alg, r), X.act0_mats(j))

    def diff(r, _r, j):
        m = _rho_hom(X.act1_mat(j), alg.incl_left(r + 1), alg.n, X.dim(j),
                     alg.kdim(r), alg.kdim(r + 1))
        yield (r + 1, j + 1), m.scale((-1) ** (r + 1))

    return _duality_complex("socI", X, summands, act, diff)


def _socle_generator(alg, r, a, d):
    """The a-th dual generator on the socle cell Hom(K_r, X_j), dim X_j =
    d: precomposition with the contraction K_{r+1} -> K_r, landing in
    Hom(K_{r+1}, X_j)."""
    return kron(d, alg.contraction(r + 1, a, "right").transpose())


def topP_complex(Y):
    """The top quotient of the projective side over the co-opposite smash:
    cell (-r, s) is K_r (x) Y_{s-r} (K of Y's algebra); differential strips
    the last K-letter into the module (no sign); carries the degree-zero
    action.  Its generator action, by left contraction, is checked once
    per pairing (the g1 generators of identify_topP)."""
    alg = Y.alg
    prov = Y.provider
    if Y.jmin < 0:
        raise ValueError("input module must live in non-negative degrees")

    def summands(r, s):
        d = alg.kdim(r) * Y.dim(s - r)
        if d:
            yield r, s - r, d

    def act(r, _r, j):
        return tensor_action(prov, prov.k_action(alg, r), Y.act0_mats(j),
                             reverse=True)

    def diff(r, _r, j):
        yield (r - 1, j + 1), mul_kron_identity(
            kron(alg.kdim(r - 1), Y.act1_mat(j)), alg.incl_right(r),
            Y.dim(j))

    return _duality_complex("topP", Y, summands, act, diff)


def validate_complex_equivariance(dcx):
    """The recorded degree-zero action commutes with the differential on
    every complete cell (exact matrix identities)."""
    cx = dcx.cx
    for (r, s) in cx.cells():
        d = cx.differentials.get((r, s))
        if d is None or not dcx.is_complete(r, s) \
                or not dcx.is_complete(r + 1, s):
            continue
        b = intertwines(d, dcx.act0_mats(r, s), dcx.act0_mats(r + 1, s))
        if b is not None:
            return False, (r, s, b)
    return True, None


def validate_socI_action(dcx):
    """The smash module law on the socle complex: acting by the degree
    zero part after a dual generator equals acting by the transported
    generator after the degree-zero part, with the co-opposite legs."""
    prov, alg = dcx.provider, dcx.alg
    dprov = dual_action(prov)
    n = dprov.space_dim
    for (r, s), bl in sorted(dcx.blocks.items()):
        # the dual generators raise r by one and lower s by one
        if not (bl and dcx.blocks.get((r + 1, s - 1))):
            continue
        a_src, a_tgt = dcx.act0_mats(r, s), dcx.act0_mats(r + 1, s - 1)
        (_r, _j, d), = bl
        dX = d // alg.kdim(r)
        # the generator action as one map V* (x) cell -> cell2, with the
        # dual generator as the slow index
        gen = hstack([_socle_generator(alg, r, a, dX) for a in range(n)])
        pushed = tensor_action(prov, dprov.mats, a_src, reverse=True)
        b = intertwines(gen, pushed, a_tgt)
        if b is not None:
            # the first dual generator whose column block differs
            diff = a_tgt[b] @ gen - gen @ pushed[b]
            alpha = min(c for _r, c, _x in diff.entries()) // a_src[0].rows
            return False, (r, s, b, alpha)
    return True, None


# ---------------------------------------------------------------------------
# homology certificates (degree-zero column)

def h0_certificate(dcx, X):
    """Explicit equivariant isomorphism between the homology at
    homological degree 0 and the module itself, at every complete internal
    degree s; also certifies vanishing where the module vanishes.  On the
    injective side that homology is the kernel of d(0, s).  On the
    projective side it is the cokernel of d(-1, s), whose dual is the
    kernel of the transposed differential, so the same rule runs on the
    transposed matrices: the action descends to the cokernel exactly when
    that kernel is invariant, and a map onto the cokernel is bijective and
    equivariant exactly when its transpose on that kernel is.  The
    comparison map restricts the kernel to the summand X_s of cell (0, s).
    Returns (True, None) or (False, (name, s, ...))."""
    cx = dcx.cx
    dual = dcx.kind not in ("I", "socI")

    def side(m):
        return m.transpose() if dual else m

    for s in range(cx.s_range[0], cx.s_range[1] + 1):
        if not dcx.is_complete(0, s):
            continue
        ker = kernel(cx.d(-1, s).transpose() if dual else cx.d(0, s))
        dxs = X.dim(s)
        if ker.dim != dxs:
            return False, ("dimension", s, ker.dim, dxs)
        if dxs == 0:
            continue
        offs, _total = _offsets(dcx.blocks[(0, s)])
        if (0, s) not in offs:
            return False, ("missing block", s)
        basis = ker.basis.transpose()
        iso = basis.select_rows(range(offs[(0, s)], offs[(0, s)] + dxs))
        if rank(iso) != dxs:
            return False, ("not bijective", s)
        coords = [ker.coordinates(side(a) @ basis)
                  for a in dcx.act0_mats(0, s)]
        if None in coords:
            return False, ("kernel not invariant", s, coords.index(None))
        b = intertwines(iso, coords, [side(x) for x in X.act0_mats(s)])
        if b is not None:
            return False, ("not equivariant", s, b)
    return True, None


# ---------------------------------------------------------------------------
# the model identifications

def _roundtrip_result(checks, **more):
    """A round trip's result from the verdicts (ok, where) of its named
    checks, in order: the first failure, with its name, and which hold."""
    first = next(((name,) + where for name, (ok, where) in checks.items()
                  if not ok), None)
    return {"ok": first is None, "first_failure": first,
            "checks": {name: ok for name, (ok, _w) in checks.items()},
            **more}


def _model_map(g, d, inverse=False):
    """g (x) id_d with the two tensor factors of its source in the other
    order: entry g[a, b] at row (y, a) and column (b, y), for every y < d.
    With inverse set, g is the inverse of such a g and the matrix is the
    inverse map: entry g[a, b] at row (a, y) and column (y, b)."""
    C = g.cols
    if d == 1:
        return g
    if inverse:
        # kron(g, I_d), its column (b, y) moved to (y, b)
        return _columns(kron(g, d), [b * d + y for y in range(d)
                                     for b in range(C)])
    # kron(I_d, g), its column (y, b) moved to (b, y)
    return _columns(kron(d, g), [y * C + b for b in range(C)
                                 for y in range(d)])


def _theta_matrix(pairing, r, dX, inverse=False):
    """Model-to-socle matrix: eta (x) x |-> (u |-> <eta, u> x), or its
    inverse, from the cached inverse pairing."""
    g = pairing.g2_inv(r) if inverse else pairing.g2(r)
    return _model_map(g.transpose(), dX, inverse)


def _phi_matrix(pairing, r, dY, inverse=False):
    """Model-to-coinduced matrix: theta (x) y |-> (h |-> <theta, h> y), or
    its inverse, from the cached inverse pairing."""
    g = pairing.g1_inv(r) if inverse else pairing.g1(r)
    return _model_map(g, dY, inverse)


def _chi_matrix(pairing, r, i, dX):
    """roundtrip_B's socle-to-model matrix at dual degree r and H-degree
    i: the inverse theta of the coinduced component Hom(H_i, X), then the
    inverse phi on it."""
    return (kron(pairing.dual.hdim(r),
                 _phi_matrix(pairing, i, dX, inverse=True))
            @ _theta_matrix(pairing, r, dX * pairing.alg.hdim(i),
                            inverse=True))


def identify_socI(provider, pairing):
    """The socle complex of a degree-zero module X is, bidegree by
    bidegree, the projective model P0(X) over the co-opposite smash of
    the dual: the pairing-built matrices theta (bijective, as the pairing
    is) intertwine the dual multiplication (the g2 generators) and the
    degree-zero action (the g2 action), and the socle satisfies the module
    law of the smash (validate_socI_action).  Checked at k, for every X
    (module docstring).

    theta is g2^T (x) id_X up to a swap.  b acts on the socle cell as the
    sum over its legs of coeff * X(c1) (x) K_r^T(c2), on the model as that
    of coeff * H!_r(c2) (x) X(c1): X on the first leg on both sides.  At
    k, X(c1) is eps(c1), and by the counit law b then acts on the X-free
    factor alone, so the g2 action, the identity at k, gives it for every
    X, term by term; the dual multiplication is the g2 generators with
    id_X tensored in."""
    soc = socI_complex(degree_zero_module(provider, pairing.alg,
                                          provider.tensor_mats(0)))
    ok, where = pairing.verdict(_g2_generator_failures)
    if ok:
        ok, where = pairing.verdict(_g2_action_failures, provider)
    if ok:
        ok, law = validate_socI_action(soc)
        where = None if ok else ("module law",) + law
    return {"ok": ok, "first_failure": where}


def identify_topP(provider, pairing):
    """The top quotient of Y = P0(X) over the co-opposite smash of the
    dual, X a degree-zero module, is, as a module over the original smash,
    the coinduced object Hom(H_r, Y): the pairing-built matrices phi
    (bijective, as the pairing is) transport the differential to its
    explicit coinduced-side formula, and intertwine the degree-zero action
    (the g1 action) and the generator action (the g1 generators).  Checked
    at k, for every X (module docstring).

    phi is g1 (x) id_Y up to a swap.  b acts on the top cell as the sum
    over its legs of coeff * K_r(c2) (x) Y(c1), on the model as that of
    coeff * Y(c1) (x) H_r^T(c2): Y on the first leg on both sides.  At k,
    Y(c1) is eps(c1), and by the counit law b then acts on the Y-free
    factor alone, so the g1 action, the identity at k, gives it for every
    Y, term by term; the generator action is the g1 generators with id_Y
    tensored in."""
    alg, n = pairing.alg, pairing.alg.n
    Y = P0(dual_action(provider), pairing.dual, provider.tensor_mats(0))
    top = topP_complex(Y)
    # chain property against the explicit coinduced-side differential
    # f |-> sum over a of act1(x_a) o f o (left multiplication by x_a)
    for (mr, s), dmat in sorted(top.cx.differentials.items()):
        r, j = -mr, s + mr
        lmult = vstack([alg.generator_mult(r - 1, a, "left")
                        for a in range(n)])
        dio = _rho_hom(Y.act1_mat(j), lmult, n, Y.dim(j), alg.hdim(r),
                       alg.hdim(r - 1))
        if (_phi_matrix(pairing, r - 1, Y.dim(j + 1)) @ dmat
                != dio @ _phi_matrix(pairing, r, Y.dim(j))):
            return {"ok": False, "first_failure": ("chain", r, j)}
    ok, where = pairing.verdict(_g1_action_failures, provider)
    if ok:
        ok, where = pairing.verdict(_g1_generator_failures)
    return {"ok": ok, "first_failure": where}


# The four identities of the pairings (module docstring), each read
# through DualityPairing.verdict: each yields the coordinates of its
# failures up to the grown degree N.

def _g2_generator_failures(pairing):
    """theta = g2^T carries left multiplication by the a-th dual
    generator, H!_r -> H!_{r+1}, to the socle contraction by it,
    Hom(K_r, k) -> Hom(K_{r+1}, k).  Yields ("dual multiplication", r,
    a)."""
    alg, dual = pairing.alg, pairing.dual
    for r in range(alg.N):
        if not alg.kdim(r + 1):
            continue
        theta, theta_next = (_theta_matrix(pairing, r, 1),
                             _theta_matrix(pairing, r + 1, 1))
        for a in range(alg.n):
            if (_socle_generator(alg, r, a, 1) @ theta
                    != theta_next @ dual.generator_mult(r, a, "left")):
                yield "dual multiplication", r, a


def _g2_action_failures(pairing, provider):
    """theta(r, 1) carries the dual action on H!_r (x) k to the action on
    Hom(K_r, k), provider acting on the algebra.  Yields
    ("degree-zero action", r, 0, b)."""
    alg, dual = pairing.alg, pairing.dual
    dprov, k = dual_action(provider), provider.tensor_mats(0)
    for r in range(alg.N + 1):
        if alg.kdim(r):
            b = intertwines(_theta_matrix(pairing, r, 1),
                            tensor_action(dprov, dprov.h_action(dual, r), k,
                                          reverse=True),
                            _hom_action(provider, provider.k_action(alg, r),
                                        k))
            if b is not None:
                yield "degree-zero action", r, 0, b


def _g1_action_failures(pairing, provider):
    """phi(r, 1) carries the dual action on K!_r (x) k to the action on
    Hom(H_r, k), r falling, provider acting on the algebra.  Yields
    ("degree-zero action", r, 0, b)."""
    alg, dual = pairing.alg, pairing.dual
    dprov, k = dual_action(provider), provider.tensor_mats(0)
    for r in range(alg.N, -1, -1):
        if dual.kdim(r):
            b = intertwines(_phi_matrix(pairing, r, 1),
                            tensor_action(dprov, dprov.k_action(dual, r), k,
                                          reverse=True),
                            _hom_action(provider, provider.h_action(alg, r),
                                        k))
            if b is not None:
                yield "degree-zero action", r, 0, b


def _g1_generator_failures(pairing):
    """phi = g1 carries the left contraction by the a-th predual
    generator, K!_r -> K!_{r-1}, to precomposition with right
    multiplication by the a-th generator, Hom(H_r, k) -> Hom(H_{r-1}, k).
    Yields ("generator action", r, a)."""
    alg, dual = pairing.alg, pairing.dual
    for r in range(1, alg.N + 1):
        if not dual.kdim(r):
            continue
        phi_prev, phi = (_phi_matrix(pairing, r - 1, 1),
                         _phi_matrix(pairing, r, 1))
        for a in range(alg.n):
            if (phi_prev @ dual.contraction(r, a, "left")
                    != alg.generator_mult(r - 1, a, "right").transpose()
                    @ phi):
                yield "generator action", r, a


def _act0_verdict(pairing, provider):
    """Both round trips' degree-zero-action entry: the g1 action, then the
    g2 action."""
    ok, where = pairing.verdict(_g1_action_failures, provider)
    return pairing.verdict(_g2_action_failures, provider) if ok else (
        ok, where)


# ---------------------------------------------------------------------------
# round trips

def roundtrip_A(provider, pairing):
    """Rebuild the injective-side complex of a degree-zero module by going
    through the socle model and the top quotient on the co-opposite side,
    and compare with the directly built complex through the transported
    pairing matrices phi = (psi_bar (x) id) o swap: chain, degree-zero-
    and generator-equivariant on every bidegree up to the grown degree.

    Every entry is a verdict of the pairing, or of it and the acting
    object, so no complex is built here: "bijective" records the
    invertibility of psi_bar, which DualityPairing decides, "chain" the
    intertwiner, "act0" the g1 action and the g2 action, and "generator"
    the g1 generators.  "cells" is counted at k (module docstring).

    psi_bar is g1^-1 (x) g2^-T after a swap.  b acts on
    Hom(K_p (x) H_r, X) through (id (x) Delta) Delta and on
    K!_r (x) H!_p (x) X through (Delta (x) id) Delta, X on the first leg
    on both sides.  The two bracketings are equal by coassociativity,
    which validate_bialgebra checks and primitive Lie legs satisfy.  At
    k, X(c1) is eps(c1), and by the counit law b then acts on the X-free
    factors alone, Hom(K_p, k) (x) Hom(H_r, k) against K!_r (x) H!_p, by
    tensor_action of the factors' actions; so the Kronecker product of
    the inverses of the intertwiners phi(r, 1) and theta(p, 1)
    intertwines them, term by term over the legs, for every X.  The
    generator identity through psi_bar is that of phi = g1 with an
    identity tensored in."""
    alg = pairing.alg
    N = alg.N
    cells = sum(1 for r in range(N + 1) for p in range(N + 1 - r)
                if alg.kdim(p) * alg.hdim(r))
    return _roundtrip_result({
        "bijective": (True, None),
        "chain": verify_psi_intertwiner(pairing),
        "act0": _act0_verdict(pairing, provider),
        "generator": pairing.verdict(_g1_generator_failures),
    }, cells=cells)


def roundtrip_B(provider, pairing):
    """Mirror round trip: the socle complex of the coinduced module is
    compared with the directly built projective-side complex over the
    co-opposite smash.  The comparison map chi must be a chain map up to
    the fixed sign (-1)^(r+i+1), re-verified here as an exact identity on
    every bidegree, and intertwine both actions.  chi is bijective because
    the pairing is, so the "bijective" entry records the invertibility of
    the pairing, which DualityPairing decides.  The degree-zero entry is
    roundtrip_A's, the g1 action and the g2 action; the generator entry
    is the g2 generators.

    chi is theta^-1 followed by id (x) phi^-1, up to a fixed permutation.
    b acts on Hom(K_r, Hom(H_i, X)) and on H!_r (x) K!_i (x) X through
    (Delta (x) id) Delta, X on the first leg on both sides.  At k, X(c1)
    is eps(c1), and by the counit law b then acts on the X-free factors
    alone, Hom(K_r, Hom(H_i, k)) against H!_r (x) K!_i, by tensor_action
    of the factors' actions; so the composite of the inverses of theta
    and phi intertwines them, term by term over the legs, for every X.
    The generator identity through chi is that of theta = g2^T with an
    identity tensored in.

    Checked at k, for every X (module docstring).  The socle complex of
    I0(k), in degrees -N..0, has just the cells (r, -i - r), r + i <= N,
    that chi compares."""
    alg, dual = pairing.alg, pairing.dual
    N = alg.N
    k = provider.tensor_mats(0)
    soc = socI_complex(I0(provider, alg, k))
    pcx = P_complex(degree_zero_module(dual_action(provider), dual, k))
    chi = {(r, i): _chi_matrix(pairing, r, i, 1)
           for r in range(N + 1) for i in range(N + 1 - r)
           if alg.kdim(r) * alg.hdim(i)}
    # Chain property, from cell (r, -i - r) of the socle complex and cell
    # (-i, r + i) of the projective side.  chi is a chain isomorphism onto
    # the model whose strip map carries (-1)^(r+1), r the degree of the
    # leading dual factor; the stored differential signs it by the
    # K-degree instead, so the factor relative to it is (-1)^(r+i+1).
    chain = None
    for (r, i), m in chi.items():
        nxt = chi.get((r + 1, i - 1))
        d_soc = soc.cx.differentials.get((r, -i - r))
        d_p = pcx.cx.differentials.get((-i, r + i))
        if (nxt is not None and d_soc is not None and d_p is not None
                and nxt @ d_soc != (d_p @ m).scale((-1) ** (r + i + 1))):
            chain = (r, i)
            break
    return _roundtrip_result({
        "bijective": (True, None),
        "chain": (chain is None, chain),
        "act0": _act0_verdict(pairing, provider),
        "generator": pairing.verdict(_g2_generator_failures),
    }, cells=len(chi),
        sign_convention="(-1)**(dual_degree+1) on the strip map")


# ---------------------------------------------------------------------------
# the exactness criterion

def koszulity_via_duality(provider, pairing):
    """Three verdicts that the duality theorem forces to coincide: the
    injective-side complex of a degree-zero module is exact away from
    degree zero, the projective-side complex over the co-opposite smash
    is exact away from degree zero, and the Koszul-complex criterion for
    the underlying quadratic algebra.  Returns per-degree verdicts plus
    the agreement flag.  Computed at k, for every X (module docstring)."""
    from koszulkit.quadratic import koszulity_check
    alg, dual = pairing.alg, pairing.dual
    N = alg.N
    k = provider.tensor_mats(0)
    X = degree_zero_module(provider, alg, k)
    icx = I_complex(X)
    rep_i = homology(icx.cx)
    Xd = degree_zero_module(dual_action(provider), dual, k)
    pcx = P_complex(Xd)
    rep_p = homology(pcx.cx)
    kz = koszulity_check(alg)
    top = N - 1
    per_i = {d: all(rep_i.dim(r, -d) == 0 for r in range(N)
                    if rep_i.valid(r, -d)) for d in range(1, top + 1)}
    per_p = {d: all(rep_p.dim(-r, d) == 0 for r in range(N)
                    if rep_p.valid(-r, d)) for d in range(1, top + 1)}
    per_k = {d: kz["per_degree"][d] for d in range(1, top + 1)}
    h0_i = h0_certificate(icx, X)
    h0_p = h0_certificate(pcx, Xd)
    agree = all(per_i[d] == per_p[d] == per_k[d] for d in per_i)
    return {
        "per_degree_injective": per_i,
        "per_degree_projective": per_p,
        "per_degree_koszul_complex": per_k,
        "agree": agree,
        "h0_injective": h0_i[0],
        "h0_projective": h0_p[0],
        "koszul_up_to": top,
        "verdict": agree and all(per_k.values()) and h0_i[0] and h0_p[0],
        "assumptions": ["degree-zero-part self-injectivity (Ext-vanishing)"
                        " assumed, not checked"],
    }

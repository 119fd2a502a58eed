"""Degree-zero-side structure: acting objects, module algebras and
semidirect (smash) products.

An acting object is a finite basis together with five pieces of data,
which each source format computes once and ActionProvider reads:
  * legs[b]: the Sweedler legs (coeff, c1, c2) of the comultiplication of
    basis element b, with None standing for the unit, which acts as the
    identity;
  * counit: the counit of each basis element;
  * unit: the coefficient vector of the unit, or None when the basis does
    not contain it;
  * laws: a list of (vec, [(coeff, x, y)]), each saying that a left
    action satisfies rho(vec) = sum of coeff * rho(x) rho(y); a right
    action composes in the other order;
  * inverse_antipode[b]: the coefficient vector of S^-1(b), which makes a
    right action left in the induced modules of duality.
A finite-dimensional bialgebra (Bialgebra) reads its legs and counit from
its structure maps, its laws are the products e_a e_b, and it solves for
its antipode when first asked.  A Lie algebra (LieAction) stands in for
its (infinite-dimensional) enveloping algebra, which is never
materialized: its basis elements are primitive, with legs b (x) 1 and
1 (x) b, counit zero and S^-1(b) = -b, and its laws are the brackets
[a, b] = ab - ba.  One check serves every acting object: the smash
product is never materialized, and its associativity is checked in its
derivation form (smash_ok), from the legs and laws alone.

One Sweedler rule extends every action to tensor products:
tensor_action makes a basis element b act on W1 (x) W2 as the sum over
its legs c (x) c1 (x) c2 of c * (action of c1) (x) (action of c2).
Tensor powers iterate the rule, since the iterated comultiplication
satisfies Delta^(r) = (Delta^(r-1) (x) id) o Delta.

The actions on the graded pieces H_i and the Koszul subspaces K_r follow
the same rule one degree at a time, in quotient coordinates, and are
memoized per algebra: H_i is a quotient of H_{i-1} (x) V and K_r a
subspace of K_{r-1} (x) V, so the action in degree i is tensor_action of
the action in degree i - 1 with the action on V, projected by the
multiplication H_{i-1} (x) V -> H_i or read off at the pivot rows of the
inclusion of K_r.  With the cop flag the legs are laid out in reverse and
the first letter is split off instead (V (x) H_{i-1}, V (x) K_{r-1}).
Nothing on the tensor power V^(x)i is formed; the tensor powers
themselves (tensor_mats) serve only the validators, which need r <= 2.

Side and comultiplication bookkeeping: every action is stored as plain
matrices (one per basis element of the acting object) and a cop flag.
With cop set, as the dual action on V* (dual_action) requires, tensor
powers distribute the comultiplication legs in reverse and the action is
written on the left; a source's own action is written on the right.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from koszulkit.exactlin import (
    F0, F1, Mat, _columns, _exact, inverse, kron, kron_sum, perm_matrix,
    rat_from_str, rref,
)


# ---------------------------------------------------------------------------
# bialgebras

class Bialgebra:
    """Finite-dimensional bialgebra by structure constants.

    mult is the (dim x dim^2) matrix of the multiplication, comult the
    (dim^2 x dim) matrix of the comultiplication, counit a (1 x dim) row
    (kept as the list of its entries), unit a coefficient vector.  Tensor
    squares are flattened row-major.  legs and laws are the acting-object
    data of the module docstring, read from comult and mult.
    """

    def __init__(self, dim, mult, unit, comult, counit, names=None):
        self.dim = dim
        if ((mult.rows, mult.cols, comult.rows, comult.cols, counit.rows,
             counit.cols, len(unit))
                != (dim, dim * dim, dim * dim, dim, 1, dim, dim)):
            raise ValueError("bialgebra structure maps do not fit dimension %d"
                             % dim)
        self.mult = mult
        self.unit = [_exact(x) for x in unit]
        self.comult = comult
        self.counit = counit.row(0)
        self.names = list(names) if names else ["b%d" % i for i in range(dim)]
        self.legs = [[(x, i // dim, i % dim)
                      for i, x in enumerate(comult.col(b)) if x]
                     for b in range(dim)]
        self.laws = [(mult.col(a * dim + b), [(F1, a, b)])
                     for a in range(dim) for b in range(dim)]

    @cached_property
    def inverse_antipode(self):
        """S^-1(b) for each basis element b, as coefficient vectors, solved
        for when first read.  S solves m (S (x) id) Delta = u eps, linear
        in its entries, and is then the inverse of id in the convolution
        algebra End(B), so a solution is unique; it is bijective, as the
        antipode of a finite-dimensional Hopf algebra is.  Raises
        ValueError when there is no antipode."""
        d = self.dim
        # S[i][c], the coefficient of e_i in S(e_c), at column i * d + c;
        # row k * d + b is coordinate k of the equation at e_b
        eqs = Mat.from_entries(d * d, d * d + 1, chain(
            ((k * d + b, i * d + c1, coeff * x)
             for b in range(d) for coeff, c1, c2 in self.legs[b]
             for i in range(d)
             for k, x in enumerate(self.mult.col(i * d + c2)) if x),
            ((k * d + b, d * d, self.counit[b] * u)
             for b in range(d) for k, u in enumerate(self.unit))))
        red, pivots = rref(eqs)
        if pivots != list(range(d * d)):
            raise ValueError("the bialgebra has no antipode")
        sol = red.col(d * d)
        s_inv = inverse(Mat(d, d, [sol[i * d:i * d + d] for i in range(d)]))
        return s_inv.transpose().tolist()

    @staticmethod
    def from_json_obj(obj):
        d = _json_int(obj["dim"], "bialgebra dim")
        # every table's shape first, so that nothing of size dim is made
        # for a dim that the tables do not have
        for field, shape in (("mult", (d, d, d)), ("unit", (d,)),
                             ("comult", (d * d, d)), ("counit", (d,))):
            if not _has_shape(obj[field], shape):
                raise ValueError("bialgebra %s must be a %s JSON array for "
                                 "dim %d" % (field, " x ".join(
                                     map(str, shape)), d))
        table = obj["mult"]
        mult = Mat.from_entries(d, d * d, (
            (c, a * d + b, rat_from_str(table[a][b][c]))
            for a in range(d) for b in range(d) for c in range(d)))
        unit = [rat_from_str(x) for x in obj["unit"]]
        comult = Mat(d * d, d, [[rat_from_str(x) for x in row]
                                for row in obj["comult"]])
        counit = Mat(1, d, [[rat_from_str(x) for x in obj["counit"]]])
        names = obj.get("names")
        if "names" in obj and not (
                isinstance(names, list) and all(isinstance(g, str)
                                                for g in names)
                and len(set(names)) == len(names) == d):
            raise ValueError("bialgebra names must be a JSON array of %d "
                             "distinct strings, got %r" % (d, names))
        return Bialgebra(d, mult, unit, comult, counit, names)


def _has_shape(value, shape):
    """Whether value is nested lists of the given lengths, outermost
    first."""
    return (isinstance(value, list) and len(value) == shape[0]
            and (len(shape) == 1
                 or all(_has_shape(v, shape[1:]) for v in value)))


def validate_bialgebra(b):
    """(True, None), or (False, name-of-violated-axiom)."""
    d = b.dim
    idm = Mat.identity(d)
    u = Mat(d, 1, [[x] for x in b.unit])
    counit = Mat(1, d, [b.counit])
    if b.mult @ kron(b.mult, d) != b.mult @ kron(d, b.mult):
        return False, "associativity"
    if b.mult @ kron(u, d) != idm or b.mult @ kron(d, u) != idm:
        return False, "unit law"
    if kron(b.comult, d) @ b.comult != kron(d, b.comult) @ b.comult:
        return False, "coassociativity"
    if (kron(counit, d) @ b.comult != idm
            or kron(d, counit) @ b.comult != idm):
        return False, "counit law"
    # comultiplication and counit are algebra maps; tau swaps the middle
    # factors of B^(x)4, sending a (x) x (x) y (x) c to a (x) y (x) x (x) c
    tau = perm_matrix([((a * d + y) * d + x) * d + c for a in range(d)
                       for x in range(d) for y in range(d) for c in range(d)])
    lhs = b.comult @ b.mult
    rhs = kron(b.mult, b.mult) @ tau @ kron(b.comult, b.comult)
    if lhs != rhs:
        return False, "comultiplication not multiplicative"
    if b.comult @ u != kron(u, u):
        return False, "comultiplication of the unit"
    if counit @ b.mult != kron(counit, counit):
        return False, "counit not multiplicative"
    if counit @ u != Mat.identity(1):
        return False, "counit of the unit"
    return True, None


# ---------------------------------------------------------------------------
# Lie actions

class LieAction:
    """Lie algebra by structure constants with a representation on V and
    optional representations on named test modules.

    brackets[(a, b)] is the coefficient vector of [x_a, x_b]; missing keys
    are zero.  rho[a] is the matrix of x_a on V (a left action).  legs,
    counit, unit, laws and inverse_antipode are the acting-object data of
    the module docstring: every basis element is primitive, and the laws
    are the brackets."""

    def __init__(self, names, brackets, rho, modules=None):
        self.names = list(names)
        self.dim = len(self.names)
        self.brackets = {k: [_exact(x) for x in v]
                         for k, v in brackets.items() if any(v)}
        self.rho = list(rho)
        self.v_dim = self.rho[0].rows if self.rho else 0
        if any(m.rows != self.v_dim or m.cols != self.v_dim
               for m in self.rho):
            raise ValueError("the action matrices are not square of one size")
        # modules: name -> list of matrices, one per Lie basis element
        self.modules = {k: list(v) for k, v in (modules or {}).items()}
        self.legs = [[(F1, b, None), (F1, None, b)] for b in range(self.dim)]
        self.counit = [F0] * self.dim
        self.unit = None
        self.laws = [(self.bracket_basis(a, b), [(F1, a, b), (-F1, b, a)])
                     for a in range(self.dim) for b in range(self.dim)]
        self.inverse_antipode = (-Mat.identity(self.dim)).tolist()

    def bracket_basis(self, a, b):
        return list(self.brackets.get((a, b), [F0] * self.dim))

    @staticmethod
    def from_json_obj(obj, modules_obj=None):
        names = _json_field(obj["basis"], list, "lie basis")
        if (not all(isinstance(g, str) for g in names)
                or len(set(names)) != len(names)):
            raise ValueError("lie basis must list distinct names, got %r"
                             % (names,))
        pos = {g: i for i, g in enumerate(names)}
        dim = len(names)
        brackets = {}
        for key, terms in _json_field(obj.get("brackets", {}), dict,
                                      "lie brackets").items():
            pair = key.split(",")
            if len(pair) != 2 or not all(g in pos for g in pair):
                raise ValueError("lie brackets key %r is not two basis names "
                                 "joined by ','" % (key,))
            a, b = pos[pair[0]], pos[pair[1]]
            vec = [F0] * dim
            for t in terms:
                if t["b"] not in pos:
                    raise ValueError("lie brackets %r term names no basis "
                                     "element: %r" % (key, t["b"]))
                vec[pos[t["b"]]] += rat_from_str(t["c"])
            brackets[(a, b)] = vec
        for (a, b) in list(brackets):
            if a != b and (b, a) not in brackets:
                brackets[(b, a)] = [-x for x in brackets[(a, b)]]
        rho = _mats_from_json(_by_basis(obj["action"], pos, "lie action"),
                              "action of")
        modules = {}
        for mname, mobj in (modules_obj or {}).items():
            modules[mname] = _mats_from_json(
                _by_basis(mobj["action"], pos, "module %r action" % mname),
                "module %r, action of" % mname, _module_dim(mname, mobj))
        return LieAction(names, brackets, rho, modules)


def _jacobi_ok(l):
    """Antisymmetry plus the cyclic Jacobi identity of the bracket of l on
    all basis triples."""
    dim, bracket_basis = l.dim, l.bracket_basis
    for a in range(dim):
        for b in range(dim):
            if bracket_basis(a, b) != [-x for x in bracket_basis(b, a)]:
                return False, ("antisymmetry", a, b)
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                total = [F0] * dim
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for w, u in enumerate(bracket_basis(y, z)):
                        if u:
                            for i, t in enumerate(bracket_basis(x, w)):
                                total[i] += u * t
                if any(total):
                    return False, ("jacobi", a, b, c)
    return True, None


def validate_lie(l):
    """Antisymmetry, Jacobi, and the representation property on V; the
    test modules are checked on their own (validate_left_modules)."""
    ok, where = _jacobi_ok(l)
    if not ok:
        return ok, where
    ok, where = _laws_ok(l.laws, l.rho)
    if not ok:
        return False, ("representation", "V") + where
    return True, None


def _combine(mats, vec):
    """The sum of x * mats[b] over the coefficients x = vec[b]."""
    out = Mat.zeros(mats[0].rows, mats[0].cols)
    for m, x in zip(mats, vec):
        if x:
            out = out + m.scale(x)
    return out


def _laws_ok(laws, mats, right=False, unit=None):
    """Whether mats, one matrix per acting basis element, satisfy the laws
    rho(vec) = sum of coeff * rho(x) rho(y), with x and y swapped when
    right is set, and, when unit is given, rho(unit) = 1.  Returns
    (True, None), or (False, ("unit",)), or (False, (x, y)) with x, y
    those of the first term of the first law that fails."""
    if unit is not None and _combine(mats, unit) != Mat.identity(
            mats[0].rows):
        return False, ("unit",)
    for vec, terms in laws:
        want = _combine(mats, vec)
        got = Mat.zeros(want.rows, want.cols)
        for coeff, x, y in terms:
            if right:
                x, y = y, x
            got = got + (mats[x] @ mats[y]).scale(coeff)
        if want != got:
            return False, terms[0][1:]
    return True, None


# ---------------------------------------------------------------------------
# action providers

class ActionProvider:
    """An acting object and its action on a space.

    base is the source format; legs, counit, unit and laws are its data
    (see the module docstring).  mats[b] is the matrix of the action of
    the b-th basis element on the space (dimension space_dim).  cop means
    tensor-power extensions distribute the comultiplication legs in
    reverse order; the action is then written on the left, else on the
    right.  A Lie algebra acts on the right through its negated
    representation."""

    def __init__(self, base, mats, *, cop=False):
        self.base = base
        self.legs, self.counit, self.unit, self.laws = (
            base.legs, base.counit, base.unit, base.laws)
        self.mats = list(mats)
        self.space_dim = self.mats[0].rows if self.mats else 0
        self.cop = cop
        self._tensor = []
        self._on = {}
        self._dual = None

    @staticmethod
    def from_lie(l):
        return ActionProvider(l, [-m for m in l.rho])

    def tensor_mats(self, r):
        """Matrices of the acting basis on the r-th tensor power of the
        space, memoized.  Power r lets b act as the sum over its legs of
        T[r-1][c1] (x) mats[c2], as Delta^(r) = (Delta^(r-1) (x) id) o Delta
        does, so no coassociativity is needed; with cop set the factors
        are laid out in reverse, mats[c2] (x) T[r-1][c1]."""
        T = self._tensor
        while len(T) <= r:
            k = len(T)
            if k == 0:
                T.append([Mat(1, 1, [[x]]) for x in self.counit])
            elif k == 1:
                T.append(list(self.mats))
            elif self.cop:
                T.append(tensor_action(self, self.mats, T[k - 1],
                                       reverse=True))
            else:
                T.append(tensor_action(self, T[k - 1], self.mats))
        return T[r]

    def h_action(self, alg, i):
        """Matrices of the acting basis on H_i, in normal-word coordinates,
        memoized per algebra.

        Degree i follows from degree i - 1 by the rule of tensor_mats,
        projected by the quotient: b acts on the normal word u.v through
        tensor_action(H_{i-1}, V) and mult(i - 1, 1), read at the columns
        split_last(i).  With cop set the legs are laid out in reverse, so
        the first letter is split off instead: V (x) H_{i-1}, mult(1, i - 1)
        and split_first(i).  Both are the projections of tensor_mats(i),
        as the normal form of a word is that of its normal prefix (or
        suffix) followed by the rest."""
        return self._grown(alg, "H", i)

    def k_action(self, alg, r):
        """Matrices of the acting basis on K_r, in K-coordinates, memoized
        per algebra: tensor_action on K_{r-1} (x) V (V (x) K_{r-1} with cop
        set) restricted to the columns of incl_right(r) (incl_left(r)).

        Raises ValueError, naming the degree, if K_r is not invariant."""
        return self._grown(alg, "K", r)

    def _grown(self, alg, space, i):
        """The actions on H ("H") or K ("K") up to degree i, each grown
        from the one below and memoized for alg."""
        grown = self._on.setdefault((space, alg), [])
        while len(grown) <= i:
            k = len(grown)
            if k <= 1:
                # a copy, so that editing what h_action or k_action returns
                # leaves the tensor powers as they are
                grown.append(list(self.tensor_mats(k)))
                continue
            if self.cop:
                wide = tensor_action(self, self.mats, grown[k - 1],
                                     reverse=True)
            else:
                wide = tensor_action(self, grown[k - 1], self.mats)
            if space == "H":
                quot, cols = ((alg.mult(1, k - 1), alg.split_first(k))
                              if self.cop else
                              (alg.mult(k - 1, 1), alg.split_last(k)))
                grown.append([quot @ _columns(m, cols) for m in wide])
            else:
                side = "left" if self.cop else "right"
                incl = alg.incl_left(k) if self.cop else alg.incl_right(k)
                mats = [alg.k_coordinates(k, m @ incl, side) for m in wide]
                if any(m is None for m in mats):
                    raise ValueError("subspace K_%d is not invariant under "
                                     "the action" % k)
                grown.append(mats)
        return grown[i]


def trivial_bialgebra():
    """The one-dimensional bialgebra k."""
    return Bialgebra(1, Mat.identity(1), [1], Mat.identity(1),
                     Mat.identity(1), ["1"])


def trivial_provider(n):
    """k acting on a space of dimension n (no symmetry): every module over
    it is just a vector space.  The checks use it when no action file is
    given."""
    return ActionProvider(trivial_bialgebra(), [Mat.identity(n)])


def tensor_action(provider, mats1, mats2, reverse=False):
    """Matrices of the acting basis on W1 (x) W2, given its matrices on W1
    and on W2: b acts as the sum over its legs of
    coeff * kron(mats1[c1], mats2[c2]), or kron(mats1[c2], mats2[c1])
    when reverse is set; a leg None (the unit) acts as the identity,
    which kron_sum takes as the int dimension and never forms."""
    d1, d2 = mats1[0].rows, mats2[0].rows
    out = []
    for legs in provider.legs:
        terms = []
        for coeff, c1, c2 in legs:
            if reverse:
                c1, c2 = c2, c1
            terms.append((coeff, d1 if c1 is None else mats1[c1],
                          d2 if c2 is None else mats2[c2]))
        out.append(kron_sum(terms, d1 * d2, d1 * d2))
    return out


def intertwines(m, src, tgt):
    """The first index b with m @ src[b] != tgt[b] @ m, that is, where
    the map m fails to carry the action src of the acting basis to the
    action tgt; None when m intertwines them."""
    for b, (s, t) in enumerate(zip(src, tgt)):
        if m @ s != t @ m:
            return b
    return None


def dual_action(provider):
    """Transport to the dual space: matrices transpose, and tensor
    extensions switch to the reversed legs, so the side flips.
    Built once per provider, so the dual's memoized actions are shared,
    and the dual of the dual is the provider itself."""
    if provider._dual is None:
        dual = ActionProvider(provider.base,
                              [m.transpose() for m in provider.mats],
                              cop=not provider.cop)
        dual._dual = provider
        provider._dual = dual
    return provider._dual


def validate_module_algebra(provider, pres):
    """R-stability under the degree-2 action plus the unit law on V."""
    R = pres.relations
    n = pres.n
    if provider.space_dim != n:
        raise ValueError("the action is on dimension %d, not %d"
                         % (provider.space_dim, n))
    for b in range(provider.base.dim):
        T = provider.tensor_mats(2)[b]
        if R.coordinates(T @ R.basis.transpose()) is None:
            return False, ("relation escapes", provider.base.names[b])
    if (provider.unit is not None
            and _combine(provider.tensor_mats(1), provider.unit)
            != Mat.identity(n)):
        return False, ("unit law",)
    return True, None


def validate_action_multiplicative(provider, r):
    """The tensor-power action satisfies the laws of the acting object
    (composed on the right unless cop is set)."""
    return _laws_ok(provider.laws, provider.tensor_mats(r), not provider.cop)


# ---------------------------------------------------------------------------
# smash products

def smash_ok(provider, alg):
    """Whether the smash product of the acting object with alg (truncated
    at alg.N) is associative, in its derivation form: the graded
    components are modules (the laws, and the unit law when the basis
    holds the unit, on every H_r) and each basis element acts on products
    of components i and j through its legs, rho(a) mult = mult
    (rho(a_(1)) (x) rho(a_(2))), which for a primitive element is the
    Leibniz rule.  This is the module-algebra form of associativity; as
    H_r is acted on through the quotient, the identity at (1, 1) also
    says the relations are stable.  Returns (True, None), or (False,
    ("law",) + where + (r,)) with where as in _laws_ok, or (False,
    ("leibniz", a, i, j)).

    A is generated in degree 1 and its products mult(i, j) are those of
    an associative algebra, as grow builds them.  So once the acting
    object's own axioms hold (coassociativity, the counit, Delta and
    epsilon multiplicative; for a Lie source the Lie axioms, primitive
    legs giving the rest) and its laws hold on V, the cells below imply
    every other cell:
      * Leibniz rows 0 and 1 give every (i, j).  Row 0 is the counit
        law.  For i >= 2, mult(1, i - 1) (x) id maps V (x) H_(i-1) (x) H_j
        onto H_i (x) H_j; expand by the identity at (1, i - 1 + j), then
        at (i - 1, j) by induction on i, and fold back by the identity
        at (1, i - 1) and coassociativity.
      * The laws on V and the identity at (1, r - 1) carry the laws down
        to H_r: V (x) H_(r-1) is a module, as Delta is multiplicative, and
        mult(1, r - 1) is a surjective intertwiner from it onto H_r.
      * The dual side (cop set) follows the same argument with Delta^op.
    So a pass reads the laws on H_r for r <= min(N, 1) and the Leibniz
    rows i <= min(N, 1): 2N + 3 cells for N >= 1, 2 at N = 0, in place
    of (N + 1)(N + 4)/2.  Only when that short scan finds a failure does
    the full scan run, so the first failure reported is that of the full
    scan.  As A is a module algebra exactly when R is a submodule
    (Montgomery, Hopf Algebras and Their Actions on Rings, CBMS 82,
    1993), and the shared acting-object verdict of the check has already
    checked R-stability and the axioms above, smash can then fail only on
    an implementation error."""
    N = alg.N
    where = _smash_failure(provider, alg, min(N, 1))
    if where is not None:
        where = _smash_failure(provider, alg, N)
    return (True, None) if where is None else (False, where)


def _smash_failure(provider, alg, top):
    """The first failing cell of smash_ok among the laws on H_r, r <= top,
    and the Leibniz rows i <= top, j = 0..N - i; None when all hold."""
    N = alg.N
    for r in range(top + 1):
        ok, where = _laws_ok(provider.laws, provider.h_action(alg, r),
                             not provider.cop, provider.unit)
        if not ok:
            return ("law",) + where + (r,)
    for i in range(top + 1):
        on_i = provider.h_action(alg, i)
        for j in range(N + 1 - i):
            mh = alg.mult(i, j)
            on_ij = provider.h_action(alg, i + j)
            pushed = tensor_action(provider, on_i, provider.h_action(alg, j),
                                   reverse=provider.cop)
            a = intertwines(mh, pushed, on_ij)
            if a is not None:
                return ("leibniz", a, i, j)
    return None


# ---------------------------------------------------------------------------
# action files, which are only read

def _json_field(value, kind, field):
    """value if it is of kind (list or dict), else ValueError naming field."""
    if not isinstance(value, kind):
        raise ValueError("%s must be a JSON %s, got %r" % (
            field, "array" if kind is list else "object", value))
    return value


def _json_int(value, field):
    """value if it is a JSON integer, else ValueError naming field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be a JSON integer, got %r" % (field, value))
    return value


def _module_dim(name, mobj):
    """The optional "dim" of module name's JSON object, a JSON integer."""
    if "dim" not in mobj:
        return None
    return _json_int(mobj["dim"], "module %r dim" % name)


def _by_basis(value, pos, field):
    """(name, value[name]) for each basis name, in the order of pos, from
    value, a JSON object keyed by basis names; ValueError naming field and
    the first key that names no basis element, or the first basis name
    that is no key."""
    for key in _json_field(value, dict, field):
        if key not in pos:
            raise ValueError("%s key %r names no basis element" % (field, key))
    for name in pos:
        if name not in value:
            raise ValueError("%s has no key %r" % (field, name))
    return [(name, value[name]) for name in pos]


def _mats_from_json(items, what, dim=None):
    """Square matrices of one size, dim when given (else that of the
    first), from (label, JSON rows) pairs; raises ValueError naming the
    first matrix that is not."""
    mats = []
    for label, rows in items:
        if not (isinstance(rows, list)
                and all(isinstance(r, list) and len(r) == len(rows)
                        for r in rows)):
            raise ValueError("%s %s is not a square matrix" % (what, label))
        if dim is None:
            dim = len(rows)
        if len(rows) != dim:
            raise ValueError("%s %s is %d x %d, expected %r x %r"
                             % (what, label, len(rows), len(rows), dim, dim))
        mats.append(Mat.from_rows([[rat_from_str(x) for x in r]
                                   for r in rows], dim))
    return mats


def action_bundle_from_json(obj):
    """Parse an action file; returns (provider, modules) where modules maps
    names to lists of left-action matrices aligned with the acting basis.

    Bialgebra form: {"bialgebra": ..., "action": [matrix per basis
    element], "modules": {name: {"dim": d, "action": [matrices]}}}.
    Lie form: {"lie": {..., "action": {gen: matrix}}, "modules":
    {name: {"dim": d, "action": {gen: matrix}}}}."""
    obj = _json_field(obj, dict, "an action file")
    modules_obj = _json_field(obj.get("modules", {}), dict, "modules")
    for name, mobj in modules_obj.items():
        _json_field(mobj, dict, "module %r" % name)
    if "bialgebra" in obj:
        b = Bialgebra.from_json_obj(obj["bialgebra"])
        mats = _mats_from_json(enumerate(obj.get("action", [])),
                               "action matrix")
        if len(mats) != b.dim:
            raise ValueError("need one action matrix per basis element")
        provider = ActionProvider(b, mats)
        modules = {}
        for name, mobj in modules_obj.items():
            mmats = _mats_from_json(enumerate(mobj["action"]),
                                    "module %r, matrix" % name,
                                    _module_dim(name, mobj))
            if len(mmats) != b.dim:
                raise ValueError("module %r: wrong matrix count" % name)
            modules[name] = mmats
    elif "lie" in obj:
        lie = LieAction.from_json_obj(obj["lie"], modules_obj)
        provider, modules = ActionProvider.from_lie(lie), dict(lie.modules)
    else:
        raise ValueError("action file needs a 'bialgebra' or 'lie' key")
    for name, mats in sorted(modules.items()):
        # no check could read an action on a module of dimension 0
        if mats and not mats[0].rows:
            raise ValueError("module %r has dimension 0" % name)
    return provider, modules


def validate_left_modules(provider, modules):
    """Each named module is a genuine left module for the acting object:
    its laws hold, and so does the unit law when the basis holds the
    unit."""
    for name, mats in sorted(modules.items()):
        ok, where = _laws_ok(provider.laws, mats, unit=provider.unit)
        if not ok:
            return False, (name,) + where
    return True, None

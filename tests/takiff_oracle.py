"""The Takiff Lie (super)algebra g + V as a bracket table: a test oracle.

koszulkit models the Takiff algebra only through its enveloping algebra,
the smash product U(g) # S(V) (even) or U(g) # Lambda(V) (super), and its
takiff check reads which of the two an input is.  This table gives the
tests the argument behind the check's other keys: its (super-)Jacobi
identity holds exactly when g is a Lie algebra and V a g-module, which
is what validate_lie checks, and its PBW counts are the dimensions of
S(V) and Lambda(V).
"""

from koszulkit.action import validate_lie
from koszulkit.exactlin import F0


class TakiffLie:
    """Lie (super)algebra on g + V: the bracket restricts to g, g acts on
    V, and V brackets to zero.  In the super case V sits in odd parity.

    The mixed bracket is stored in its graded-antisymmetric form
    [x, v] = xv, [v, x] = -xv for both parities; with V odd this is the
    unique graded-antisymmetric completion, and it is the one that
    satisfies the super Jacobi identity."""

    def __init__(self, lie, parity):
        if parity not in ("even", "super"):
            raise ValueError("parity must be 'even' or 'super', not %r"
                             % (parity,))
        self.base = lie
        self.parity = parity
        m, k = lie.dim, lie.v_dim
        self.dim = m + k
        self.names = list(lie.names) + ["v%d" % (i + 1) for i in range(k)]
        self.parities = [0] * m + ([1] * k if parity == "super" else [0] * k)
        self.brackets = {}
        for (a, b), vec in lie.brackets.items():
            self.brackets[(a, b)] = list(vec) + [F0] * k
        for a in range(m):
            rho = lie.rho[a]
            for i in range(k):
                col = rho.col(i)
                if any(col):
                    self.brackets[(a, m + i)] = [F0] * m + col
                    self.brackets[(m + i, a)] = [F0] * m + [-x for x in col]

    def bracket_basis(self, a, b):
        return list(self.brackets.get((a, b), [F0] * self.dim))


def validate_jacobi(t):
    """Graded antisymmetry plus the graded cyclic Jacobi identity of the
    bracket of t on all basis triples."""
    dim, bracket_basis, parities = t.dim, t.bracket_basis, t.parities
    for a in range(dim):
        for b in range(dim):
            sign = -1 if (parities[a] and parities[b]) else 1
            lhs = bracket_basis(a, b)
            rhs = [sign * -x for x in bracket_basis(b, a)]
            if lhs != rhs:
                return False, ("antisymmetry", a, b)
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                s_ac = -1 if (parities[a] and parities[c]) else 1
                s_ba = -1 if (parities[b] and parities[a]) else 1
                s_cb = -1 if (parities[c] and parities[b]) else 1
                total = [F0] * dim
                for s, (x, y, z) in ((s_ac, (a, b, c)), (s_ba, (b, c, a)),
                                     (s_cb, (c, a, b))):
                    for w, u in enumerate(bracket_basis(y, z)):
                        if u:
                            for i, t in enumerate(bracket_basis(x, w)):
                                total[i] += s * u * t
                if any(total):
                    return False, ("jacobi", a, b, c)
    return True, None


def takiff(lie, parity):
    ok, where = validate_lie(lie)
    if not ok:
        raise ValueError("invalid Lie action: %r" % (where,))
    t = TakiffLie(lie, parity)
    ok, where = validate_jacobi(t)
    if not ok:
        raise ValueError("Takiff bracket fails Jacobi at %r" % (where,))
    return t


def takiff_graded_dims(t, D):
    """Dimension bookkeeping for the enveloping algebra of the Takiff
    (super)algebra, graded by V-degree and truncated at D.

    Returns (pbw_counts, grown_dims): the count of ordered monomials with
    d factors from V predicted by a PBW basis, against the degree-d
    dimension of the corresponding quadratic algebra on V (symmetric for
    even parity, exterior for super), computed independently by the
    relation-growth engine."""
    from math import comb
    from koszulkit.quadratic import ext_presentation, grow, sym_presentation
    k = t.base.v_dim
    if t.parity == "super":
        pbw = [comb(k, d) for d in range(D + 1)]
    else:
        pbw = [1] + [comb(k + d - 1, d) for d in range(1, D + 1)]
    if k == 0:
        return pbw, [1] + [0] * D
    pres = (ext_presentation(k) if t.parity == "super"
            else sym_presentation(k))
    return pbw, grow(pres, D).hdims()
